import dataclasses
import random
from collections import Counter
from itertools import combinations
from fractions import Fraction
from math import gcd
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import torlink.torus
from torlink import (
    Graph,
    SlopeClass,
    TorusDiagram,
    complete_graph,
    crossing_matrix,
    cycle_crossing_sums,
    cycle_graph,
    cycle_slope,
    disjoint_union,
    enumerate_cycles,
    find_links,
    format_embedding,
    is_linkless,
    parse_embedding,
    torus_link_linking_number,
    verify_embedding,
)
from torlink.errors import ParseError
from torlink.graphs import cycle_walk
from torlink.torus import _disjoint_pairs, _pair_scan, _unpack, _warning_texts

from bruteforce import brute_crossing_sums, brute_cycles, brute_link_scan, random_graph
from test_graph6 import graphs

FIXTURE = Path(__file__).parent.parent / "src" / "torlink" / "data" / "k6_minus_e.emb"


def two_triangles(up_a, right_a, up_b, right_b) -> TorusDiagram:
    """Disjoint triangles 1-2-3 and 4-5-6 with per-triangle crossing lists."""
    g = Graph(6, [(1, 2), (2, 3), (1, 3), (4, 5), (5, 6), (4, 6)])
    return TorusDiagram(g, up_a + up_b, right_a + right_b)


def k6_minus_e_diagram() -> TorusDiagram:
    return parse_embedding(FIXTURE.read_text())


def k6_diagram() -> TorusDiagram:
    d = k6_minus_e_diagram()
    return TorusDiagram(
        d.graph.add_edge((1, 4)), d.up_list, tuple(d.right_list) + ((1, 4),)
    )


def k7_diagram() -> TorusDiagram:
    up = [(4, 3), (6, 5), (1, 7), (1, 3), (6, 3), (1, 5)]
    right = [(1, 2), (1, 3), (7, 2), (1, 4), (6, 2), (7, 3)]
    return TorusDiagram(complete_graph(7), up, right)


def random_diagram(rng, n) -> TorusDiagram:
    return random_crossings(rng, random_graph(rng, n, rng.uniform(0.4, 0.9)))


def random_crossings(rng, g: Graph) -> TorusDiagram:
    """g with a random third of its edges crossing each boundary."""
    edges = list(g.edges)
    rng.shuffle(edges)
    k = len(edges)
    up = [e if rng.random() < 0.5 else (e[1], e[0]) for e in edges[: k // 3]]
    rng.shuffle(edges)
    right = [e if rng.random() < 0.5 else (e[1], e[0]) for e in edges[: k // 3]]
    return TorusDiagram(g, up, right)


def grid_diagram(rows: int, cols: int) -> TorusDiagram:
    """The triangulated rows x cols grid on the torus; vertex (i, j) is
    i*cols + j + 1, and rows grow upward."""

    def vid(i, j):
        return (i % rows) * cols + (j % cols) + 1

    edges, up, right = [], [], []
    for i in range(rows):
        for j in range(cols):
            for di, dj in ((0, 1), (1, 0), (1, 1)):
                u, v = vid(i, j), vid(i + di, j + dj)
                edges.append((u, v))
                if i + di == rows:
                    up.append((u, v))
                if j + dj == cols:
                    right.append((u, v))
    return TorusDiagram(Graph(rows * cols, edges), up, right)


def relabeled_diagram(rng, d: TorusDiagram) -> TorusDiagram:
    perm = list(range(1, d.graph.n + 1))
    rng.shuffle(perm)

    def moved(pairs):
        return [(perm[u - 1], perm[v - 1]) for u, v in pairs]

    return TorusDiagram(
        Graph(d.graph.n, moved(d.graph.edges)), moved(d.up_list), moved(d.right_list)
    )


def diagram_union(d: TorusDiagram, e: TorusDiagram) -> TorusDiagram:
    """d and e side by side, with e's vertices shifted past d's."""

    def shifted(pairs):
        return [(u + d.graph.n, v + d.graph.n) for u, v in pairs]

    return TorusDiagram(
        disjoint_union(d.graph, e.graph),
        list(d.up_list) + shifted(e.up_list),
        list(d.right_list) + shifted(e.right_list),
    )


# -- diagram validation -------------------------------------------------------


def test_crossing_pair_must_be_edge():
    g = Graph(3, [(1, 2)])
    with pytest.raises(ValueError):
        TorusDiagram(g, [(1, 3)], [])
    with pytest.raises(ValueError):
        TorusDiagram(g, [], [(2, 3)])


def test_duplicate_crossing_rejected():
    g = Graph(3, [(1, 2), (2, 3), (1, 3)])
    with pytest.raises(ValueError):
        TorusDiagram(g, [(1, 2), (2, 1)], [])
    # The same edge may cross both boundaries.
    TorusDiagram(g, [(1, 2)], [(1, 2)])


def test_diagram_is_a_hashable_frozen_value():
    g = Graph(3, [(1, 2), (2, 3), (1, 3)])
    from_lists = TorusDiagram(g, [[1, 2]], [[2, 3]])
    from_tuples = TorusDiagram(g, ((1, 2),), ((2, 3),))
    assert from_lists == from_tuples
    assert hash(from_lists) == hash(from_tuples)
    assert len({from_lists, from_tuples}) == 1
    assert from_lists != TorusDiagram(g, [(2, 1)], [(2, 3)])
    with pytest.raises(dataclasses.FrozenInstanceError):
        from_lists.graph = Graph(3)


# -- crossing matrix ----------------------------------------------------------


def test_diagram_builds_its_crossing_table():
    g = Graph(3, [(1, 2), (2, 3), (1, 3)])
    d = TorusDiagram(g, [(1, 2)], [(2, 3)])
    assert crossing_matrix(d).weights is d.weights
    assert d.weights[0][1] == -d.weights[1][0] != 0
    assert "weights" not in repr(d)
    with pytest.raises(dataclasses.FrozenInstanceError):
        d.weights = ()


def test_empty_lists_zero_matrix():
    g = complete_graph(4)
    m = crossing_matrix(TorusDiagram(g, [], []))
    assert all(
        m.entry(u, v) == (0, 0) for u in range(1, 5) for v in range(1, 5)
    )


def test_single_up_crossing_entries():
    g = Graph(2, [(1, 2)])
    m = crossing_matrix(TorusDiagram(g, [(1, 2)], []))
    assert m.entry(1, 2) == (1, 0)
    assert m.entry(2, 1) == (-1, 0)


def test_edge_in_both_lists():
    g = Graph(2, [(1, 2)])
    m = crossing_matrix(TorusDiagram(g, [(1, 2)], [(1, 2)]))
    assert m.entry(1, 2) == (1, 1)
    assert m.entry(2, 1) == (-1, -1)


def test_matrix_antisymmetry_random():
    rng = random.Random(101)
    for _ in range(50):
        d = random_diagram(rng, rng.randint(3, 7))
        m = crossing_matrix(d)
        n = d.graph.n
        for u in range(1, n + 1):
            for v in range(1, n + 1):
                pu, qu = m.entry(u, v)
                pv, qv = m.entry(v, u)
                assert (pu, qu) == (-pv, -qv)


def test_packed_sums_exact_at_the_order_bound():
    # A 12-cycle with every edge in both lists sums to |P| = |Q| = 12, the
    # largest crossing sums a diagram of order <= 12 can have.
    cycle = tuple(range(1, 13))
    steps = list(zip(cycle, cycle[1:] + cycle[:1]))
    for sp, sq in [(1, 1), (-1, -1), (1, -1), (-1, 1)]:
        d = TorusDiagram(
            cycle_graph(12),
            [s if sp == 1 else s[::-1] for s in steps],
            [s if sq == 1 else s[::-1] for s in steps],
        )
        m = crossing_matrix(d)
        assert all(m.entry(u, v) == (sp, sq) for u, v in steps)
        assert all(m.entry(v, u) == (-sp, -sq) for u, v in steps)
        assert cycle_crossing_sums(d, cycle) == (12 * sp, 12 * sq)
        assert cycle_crossing_sums(d, cycle) == brute_crossing_sums(d, cycle)
        reverse = cycle[::-1]
        assert cycle_crossing_sums(d, reverse) == (-12 * sp, -12 * sq)
        assert cycle_crossing_sums(d, reverse) == brute_crossing_sums(d, reverse)


def test_two_hexagons_with_sums_six_six_link():
    g = disjoint_union(cycle_graph(6), cycle_graph(6))
    a, b = tuple(range(1, 7)), tuple(range(7, 13))
    steps = [s for c in (a, b) for s in zip(c, c[1:] + c[:1])]
    d = TorusDiagram(g, steps, steps)
    assert cycle_crossing_sums(d, a) == cycle_crossing_sums(d, b) == (6, 6)
    assert [str(w) for w in find_links(d)] == [
        "[1 2 3 4 5 6] [7 8 9 10 11 12] slope=1/1"
    ]


# -- slopes -------------------------------------------------------------------


def test_no_crossing_cycle_inessential():
    d = TorusDiagram(complete_graph(4), [], [])
    assert cycle_slope(d, (1, 2, 3)).is_inessential


def test_hand_traced_triangle():
    g = complete_graph(3)
    d = TorusDiagram(g, [(1, 2)], [(2, 3)])
    assert cycle_crossing_sums(d, (1, 2, 3)) == (1, 1)
    assert cycle_slope(d, (1, 2, 3)) == SlopeClass(1, 1)


def test_reversed_traversal_negates_and_same_class():
    g = complete_graph(3)
    d = TorusDiagram(g, [(1, 2)], [(2, 3)])
    assert cycle_crossing_sums(d, (1, 3, 2)) == (-1, -1)
    assert cycle_slope(d, (1, 3, 2)) == SlopeClass(1, 1)


def test_slope_rotation_and_reflection_invariance_randomized():
    rng = random.Random(103)
    cases = 0
    while cases < 1000:
        d = random_diagram(rng, rng.randint(4, 7))
        cycles = enumerate_cycles(d.graph, 3, d.graph.n)
        if not cycles:
            continue
        for cyc in cycles:
            p, q = cycle_crossing_sums(d, cyc)
            base = cycle_slope(d, cyc)
            k = len(cyc)
            rot = rng.randrange(k)
            rotated = cyc[rot:] + cyc[:rot]
            assert cycle_crossing_sums(d, rotated) == (p, q)
            reversed_cyc = tuple(reversed(cyc))
            assert cycle_crossing_sums(d, reversed_cyc) == (-p, -q)
            assert cycle_slope(d, rotated) == base
            assert cycle_slope(d, reversed_cyc) == base
            cases += 1


def test_slope_class_reduction():
    assert SlopeClass.from_sums(2, 4) == SlopeClass(1, 2)
    assert SlopeClass.from_sums(-2, -2) == SlopeClass(1, 1)
    assert SlopeClass.from_sums(1, -1) == SlopeClass(-1, 1)
    assert SlopeClass.from_sums(0, -3) == SlopeClass(0, 1)
    assert SlopeClass.from_sums(-4, 0) == SlopeClass(1, 0)
    assert SlopeClass.from_sums(0, 0).is_inessential
    assert not SlopeClass.from_sums(0, 1).is_linking
    assert not SlopeClass.from_sums(1, 0).is_linking
    assert SlopeClass.from_sums(-3, 6).is_linking


def test_slope_equality_matches_cross_multiplication():
    rng = random.Random(107)
    for _ in range(300):
        p1, q1 = rng.randint(-6, 6), rng.randint(-6, 6)
        p2, q2 = rng.randint(-6, 6), rng.randint(-6, 6)
        if (p1, q1) == (0, 0) or (p2, q2) == (0, 0):
            continue
        same_class = SlopeClass.from_sums(p1, q1) == SlopeClass.from_sums(p2, q2)
        assert same_class == (p1 * q2 == p2 * q1)


def test_cycle_slope_rejects_non_cycle():
    d = TorusDiagram(complete_graph(4), [], [])
    with pytest.raises(ValueError):
        cycle_slope(d, (1, 2))
    with pytest.raises(ValueError):
        cycle_slope(d, (1, 2, 2))


# -- link detection -----------------------------------------------------------


def test_two_one_one_triangles_link():
    d = two_triangles([(1, 2)], [(2, 3)], [(4, 5)], [(5, 6)])
    links = find_links(d)
    assert len(links) == 1
    w = links[0]
    assert w.cycle_a == (1, 2, 3)
    assert w.cycle_b == (4, 5, 6)
    assert w.slope == SlopeClass(1, 1)
    assert not is_linkless(d)


def test_two_slope_zero_cycles_do_not_link():
    d = two_triangles([], [(2, 3)], [], [(5, 6)])
    assert find_links(d) == []
    assert is_linkless(d)


def test_two_slope_infinity_cycles_do_not_link():
    d = two_triangles([(1, 2)], [], [(4, 5)], [])
    assert find_links(d) == []


def test_different_linking_slopes_do_not_pair():
    # (1,1) next to (1,-1): essential, both components nonzero, not equal.
    d = two_triangles([(1, 2)], [(2, 3)], [(4, 5)], [(6, 5)])
    assert find_links(d) == []


def test_small_order_no_links():
    g = complete_graph(5)
    d = TorusDiagram(g, [(1, 2)], [(2, 3)])
    assert find_links(d) == []


def test_k6_diagram_has_exactly_one_link():
    links = find_links(k6_diagram())
    assert len(links) == 1
    assert links[0].cycle_a == (1, 4, 5)
    assert links[0].cycle_b == (2, 3, 6)


def test_bundled_k6_minus_e_embedding_linkless():
    d = k6_minus_e_diagram()
    assert d.graph.n == 6
    assert d.graph.size == 14
    assert is_linkless(d)


def test_k7_triangulation_diagram_has_links():
    assert not is_linkless(k7_diagram())


def test_find_links_deterministic_order():
    d = k7_diagram()
    first = find_links(d)
    second = find_links(d)
    assert first == second
    assert first == sorted(first, key=lambda w: (w.cycle_a, w.cycle_b))


def test_linking_number_consistency_with_found_links():
    for d in (k6_diagram(), k7_diagram(), two_triangles([(1, 2)], [(2, 3)], [(4, 5)], [(5, 6)])):
        for w in find_links(d):
            p, q = w.slope.p, w.slope.q
            value = torus_link_linking_number(2 * p, 2 * q)
            assert value == p * q
            assert value != 0


# -- embedding warnings -------------------------------------------------------


def test_warning_on_disjoint_slope_disagreement():
    d = two_triangles([(1, 2)], [(2, 3)], [], [(5, 6)])
    warnings, _ = verify_embedding(d)
    assert len(warnings) == 1
    assert "not a valid embedding" in warnings[0]


def test_no_warnings_on_genuine_embeddings():
    assert verify_embedding(k6_minus_e_diagram())[0] == []
    assert verify_embedding(k6_diagram())[0] == []
    assert verify_embedding(k7_diagram())[0] == []


def two_squares(rng, n: int) -> TorusDiagram:
    """Squares 1-2-3-4 and 5-6-7-8 with random bipartite edges between
    them (odd vertices to even ones) and, for n = 9, vertex 9 joined to
    two odd vertices. The graph has no triangle, so its shortest linking
    and essential cycles have 4 vertices. Square 1-2-3-4 has slope 1/1,
    and 5-6-7-8 has 1/1 or 1/-1, which link or clash."""
    edges = [(1, 2), (2, 3), (3, 4), (1, 4), (5, 6), (6, 7), (7, 8), (5, 8)]
    edges += [
        (a, b) for a in (1, 3) for b in (6, 8) if rng.random() < 0.5
    ] + [(a, b) for a in (2, 4) for b in (5, 7) if rng.random() < 0.5]
    if n == 9:
        edges += [(rng.choice((1, 3)), 9), (rng.choice((5, 7)), 9)]
    g = Graph(n, edges)
    crossing = random_crossings(rng, Graph(n, edges[8:]))
    right = (7, 8) if rng.random() < 0.5 else (8, 7)
    return TorusDiagram(
        g,
        [(1, 2), (5, 6), *crossing.up_list],
        [(3, 4), right, *crossing.right_list],
    )


def split_octagon(rng) -> TorusDiagram:
    """The cycle 1..8 with random chords inside {2, 3, 4, 5} and inside
    {6, 7, 8, 1}, none joining 2 to 5 or 6 to 1. Only (1, 2) crosses the
    top, so a linking cycle holds (1, 2), and then (5, 6), the only other
    edge between the halves: it has at least 6 > 8 // 2 vertices. Chords
    crossing the right side give short essential cycles."""
    halves = ((2, 3, 4, 5), (6, 7, 8, 1))
    chords = [
        c
        for half in halves
        for c in combinations(half, 2)
        if c not in ((2, 5), (6, 1)) and rng.random() < 0.6
    ]
    g = Graph(8, [(v, v % 8 + 1) for v in range(1, 9)] + chords)
    right = [c if rng.random() < 0.5 else c[::-1] for c in chords if rng.random() < 0.5]
    return TorusDiagram(g, [(1, 2)], [(5, 6), *right])


def _link_scan_cases():
    """(kind, diagram, min_len, max_len); None means the default range."""
    rng = random.Random(113)
    for _ in range(24):
        yield "random", random_diagram(rng, rng.randint(6, 8)), None, None
    for _ in range(6):
        yield "order9", random_diagram(rng, 9), None, None
    for _ in range(8):
        n = rng.randint(6, 8)
        lo = rng.randint(3, n - 2)
        yield "range", random_diagram(rng, n), lo, rng.randint(lo, n)
    yield "order10", random_diagram(rng, 10), None, None
    for _ in range(2):
        yield "grid", relabeled_diagram(rng, grid_diagram(3, 3)), None, None
    k4 = random_crossings(rng, complete_graph(4))
    union = diagram_union(k4, random_crossings(rng, complete_graph(5)))
    yield "union", union, None, None
    yield "union", union, 4, 5
    for n in (8, 8, 9, 9, 9):
        d = two_squares(rng, n)
        yield "squares", d, None, None
        if n == 8:
            yield "squares", d, 4, n
    for _ in range(3):
        d = split_octagon(rng)
        yield "no-short-linking", d, None, None
        yield "no-short-linking", d, None, 8
    for n in (6, 7, 8):
        yield "above-half", random_diagram(rng, n), n // 2 + 1, n


def test_link_scans_match_bruteforce_random():
    totals = {}
    for index, (kind, d, lo, hi) in enumerate(_link_scan_cases()):
        links, clashes = brute_link_scan(d, lo or 3, hi)
        found = find_links(d, lo, hi)
        assert [(w.cycle_a, w.cycle_b, str(w.slope)) for w in found] == links, index
        if lo is None and hi is None:
            expected = [
                f"disjoint essential cycles [{' '.join(map(str, a))}] and "
                f"[{' '.join(map(str, b))}] have slopes {sa} and {sb}; "
                "not a valid embedding"
                for a, b, sa, sb in clashes
            ]
            assert verify_embedding(d) == (expected, found), index
        counts = totals.setdefault(kind, [0, 0])
        counts[0] += len(links)
        counts[1] += len(clashes)
    assert totals.pop("grid")[1] == 0
    # No disjoint pair fits in these ranges, or has a linking cycle.
    assert totals.pop("above-half") == totals.pop("no-short-linking") == [0, 0]
    assert all(all(counts) for counts in totals.values()), totals


def unbounded_link_scan(d: TorusDiagram, lo: int, hi: int, linking: bool):
    """(warnings, links) from every linking (if linking) or essential cycle
    of length lo..hi, walked without the partner bound."""
    classes: dict[SlopeClass, SlopeClass] = {}
    relevant = []
    for cycle, total, mask in cycle_walk(d.graph, lo, hi, d.weights):
        p, q = _unpack(total)
        if (p and q) if linking else total:
            slope = SlopeClass.from_sums(p, q)
            relevant.append((cycle, classes.setdefault(slope, slope), mask))
    clashes, links = _pair_scan(d.graph.n, relevant)
    return _warning_texts(relevant, clashes), links


def test_partner_bound_drops_no_pair():
    # A cycle longer than n - L, L the shortest relevant length, has no
    # disjoint relevant partner, and without a relevant cycle of at most
    # n // 2 vertices there is no pair at all.
    rng = random.Random(347)
    walked = Counter()
    for _ in range(40):
        n = rng.randint(6, 12)
        g = random_graph(rng, n, rng.uniform(0.25, 0.5))
        edges = list(g.edges)
        k = rng.randint(1, max(1, len(edges) // 3))
        up = [e if rng.random() < 0.5 else e[::-1] for e in rng.sample(edges, k)]
        right = [e if rng.random() < 0.5 else e[::-1] for e in rng.sample(edges, k)]
        d = TorusDiagram(g, up, right)
        assert verify_embedding(d) == unbounded_link_scan(d, 3, max(n - 3, 3), False)
        lo = rng.randint(3, n)
        hi = rng.randint(lo, n)
        links = find_links(d, lo, hi)
        assert links == unbounded_link_scan(d, lo, hi, True)[1]
        walked[bool(links)] += 1
    assert walked[True] and walked[False]


@pytest.mark.parametrize("rows, cols", [(3, 4), (4, 3)])
def test_grid_links_are_those_of_every_cycle_length(rows, cols):
    # All pairs of the brute force take about 130 s on these grids. The
    # shortest linking cycle has 4 vertices, so the scan stops at 8.
    d = grid_diagram(rows, cols)
    links = find_links(d)
    assert len(links) == 3045
    assert find_links(d, None, 12) == links
    assert unbounded_link_scan(d, 3, 12, True)[1] == links


def crossing_tables(d: TorusDiagram) -> list[list[list[int]]]:
    """The up and right crossing lists as antisymmetric 0-based per-edge
    weight tables, read off the raw lists."""
    n = d.graph.n
    tables = [[[0] * n for _ in range(n)] for _ in range(2)]
    for table, pairs in zip(tables, (d.up_list, d.right_list)):
        for u, v in pairs:
            table[u - 1][v - 1] += 1
            table[v - 1][u - 1] -= 1
    return tables


def test_cycle_walk_matches_enumeration_and_bruteforce():
    rng = random.Random(211)
    seen = 0
    for _ in range(80):
        n = rng.randint(3, 10)
        density = rng.uniform(0.3, 0.9 if n <= 7 else 0.55)
        d = random_crossings(rng, random_graph(rng, n, density))
        lo = rng.randint(3, max(n, 3))
        hi = rng.randint(lo, max(n, 3))
        cycles = enumerate_cycles(d.graph, lo, hi)
        assert cycles == sorted(set(cycles), key=lambda c: (len(c), c))
        if n <= 7:  # the raw permutation filter is too slow past order 7
            assert set(cycles) == brute_cycles(d.graph, lo, hi)
        walks = [cycle_walk(d.graph, lo, hi, t) for t in crossing_tables(d)]
        for (cycle, p, mask), (cycle_q, q, mask_q) in zip(*walks, strict=True):
            assert cycle == cycle_q and mask == mask_q
            assert (p, q) == brute_crossing_sums(d, cycle)
            assert mask == sum(1 << (v - 1) for v in cycle)
        assert [c for c, _, _ in walks[0]] == cycles
        seen += len(cycles)
    assert seen > 1000, seen


def test_disjoint_pairs_match_all_pairs_with_repeated_masks():
    rng = random.Random(223)
    for _ in range(60):
        n = rng.randint(6, 12)
        pool = [
            sum(1 << v for v in rng.sample(range(n), rng.randint(3, n - 3)))
            for _ in range(rng.randint(1, 12))
        ]
        masks = [rng.choice(pool) for _ in range(rng.randint(0, 120))]
        expected = [
            (i, j)
            for i in range(len(masks))
            for j in range(i + 1, len(masks))
            if not masks[i] & masks[j]
        ]
        assert list(_disjoint_pairs(masks, (1 << n) - 1)) == expected


# -- linking number -----------------------------------------------------------


def test_linking_number_values():
    assert torus_link_linking_number(2, 2) == 1
    assert torus_link_linking_number(2, 4) == 2
    assert torus_link_linking_number(3, 6) == 6
    assert torus_link_linking_number(-2, 2) == -1
    assert torus_link_linking_number(4, 6) == Fraction(6)


def test_linking_number_coprime_is_zero():
    rng = random.Random(109)
    count = 0
    while count < 50:
        m, n = rng.randint(-9, 9), rng.randint(-9, 9)
        if (m, n) == (0, 0) or gcd(abs(m), abs(n)) != 1:
            continue
        assert torus_link_linking_number(m, n) == 0
        count += 1


def test_linking_number_rejects_origin():
    with pytest.raises(ValueError):
        torus_link_linking_number(0, 0)


def test_linking_number_exact_rational():
    # gcd(3, 9) = 3: 27/2 * (2/3) = 9
    assert torus_link_linking_number(3, 9) == 9
    assert isinstance(torus_link_linking_number(2, 2), Fraction)


# -- file format --------------------------------------------------------------


def test_format_round_trip():
    for d in (k6_minus_e_diagram(), k6_diagram(), k7_diagram()):
        assert parse_embedding(format_embedding(d)) == d


@st.composite
def diagrams(draw, max_n: int) -> TorusDiagram:
    """A graph of order 0..max_n whose edges each cross each boundary
    forward, backward or not at all, listed in a drawn order."""
    g = draw(graphs(max_n))
    lists = []
    for _ in ("up", "right"):
        signs = draw(
            st.lists(st.sampled_from((0, 1, -1)), min_size=g.size, max_size=g.size)
        )
        pairs = [e if sign == 1 else e[::-1] for e, sign in zip(g.edges, signs) if sign]
        lists.append(draw(st.permutations(pairs)))
    return TorusDiagram(g, *lists)


@settings(max_examples=200, deadline=None, derandomize=True, database=None)
@given(diagrams(12))
def test_format_round_trip_property(d):
    assert parse_embedding(format_embedding(d)) == d


@settings(max_examples=100, deadline=None, derandomize=True, database=None)
@given(diagrams(9), st.randoms(use_true_random=False))
def test_link_scans_survive_relabeling(d, rng):
    warnings, links = verify_embedding(d)
    moved_warnings, moved_links = verify_embedding(relabeled_diagram(rng, d))
    assert len(moved_warnings) == len(warnings)
    assert Counter(w.slope for w in moved_links) == Counter(w.slope for w in links)


def test_parse_blank_crossing_lines():
    text = "order 3\nedges 1-2 2-3 1-3\nup\nright\n"
    d = parse_embedding(text)
    assert d.up_list == ()
    assert d.right_list == ()


def test_parse_errors():
    with pytest.raises(ParseError):
        parse_embedding("order 3\nedges 1-2\nup\n")
    with pytest.raises(ParseError):
        parse_embedding("order x\nedges\nup\nright\n")
    with pytest.raises(ParseError):
        parse_embedding("size 3\nedges 1-2\nup\nright\n")
    with pytest.raises(ParseError):
        parse_embedding("order 3\nedges 1-2\nup 1>2\nright\n")
    # crossing pair that is not an edge
    with pytest.raises(ParseError):
        parse_embedding("order 3\nedges 1-2\nup 1->3\nright\n")
    # duplicate crossing of one edge
    with pytest.raises(ParseError):
        parse_embedding("order 3\nedges 1-2 2-3\nup 1->2 2->1\nright\n")
    with pytest.raises(ParseError) as info:
        parse_embedding("order 3 4\nedges\nup\nright\n")
    assert str(info.value) == "line 1: order line must hold a single integer"
    with pytest.raises(ParseError) as info:
        parse_embedding("order 3\nedges 1-2\nup 1->x\nright\n")
    assert str(info.value) == "line 3: bad pair '1->x'"
    # crossing endpoints outside 1..n are not edges, however they index
    for up, right, message in [
        ("0->2", "", "line 3: up crossing (0,2) is not an edge"),
        ("-1->2", "", "line 3: up crossing (-1,2) is not an edge"),
        ("4->1", "", "line 3: up crossing (4,1) is not an edge"),
        ("", "3->4", "line 4: right crossing (3,4) is not an edge"),
    ]:
        text = f"order 3\nedges 1-2 2-3\nup {up}\nright {right}\n"
        with pytest.raises(ParseError) as info:
            parse_embedding(text)
        assert str(info.value) == message


def test_parse_builds_one_diagram(monkeypatch):
    built = []

    class Counted(TorusDiagram):
        def __init__(self, *args):
            built.append(args)
            super().__init__(*args)

    monkeypatch.setattr(torlink.torus, "TorusDiagram", Counted)
    d = parse_embedding("order 3\nedges 1-2 2-3 1-3\nup 1->2\nright 2->3\n")
    assert (d.up_list, d.right_list) == (((1, 2),), ((2, 3),))
    assert len(built) == 1


def test_parse_accepts_trailing_blank_lines():
    text = "order 3\nedges 1-2 2-3 1-3\nup 1->2\nright\n"
    assert parse_embedding(text + "\n \n") == parse_embedding(text)
