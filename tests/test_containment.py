import random
from collections import Counter
from itertools import combinations

import pytest

from torlink import (
    Graph,
    complete_bipartite,
    complete_graph,
    cycle_graph,
    disjoint_union,
    encode_graph6,
    has_minor,
    is_isomorphic,
    is_nil,
    is_subgraph_iso,
    petersen_graph,
)
from torlink.canonical import automorphisms, canonical_form
from torlink.containment import (
    _core,
    _pinned_plan,
    _plan,
    _reductions,
    _spanning_heads,
    contains_any_minor,
    subgraph_copy,
)
from torlink.oracles import order8_obstructions, petersen_family

from bruteforce import (
    all_graphs_of_order,
    arc_orbits,
    brute_automorphisms,
    brute_copy_edges,
    brute_core,
    brute_isomorphism_classes,
    brute_minor,
    brute_reduction_closure,
    brute_subgraph_iso,
    complete_multipartite,
    min_degree,
    random_graph,
    twin_class_orbits,
)
from test_search import stacked_planar


def test_k3_in_k4():
    assert is_subgraph_iso(complete_graph(3), complete_graph(4))


def test_k6_in_k8_minus_k23():
    # Dropping the two left-partite vertices leaves a complete graph.
    assert is_subgraph_iso(complete_graph(6), order8_obstructions()[2])


def test_c5_not_in_k33():
    # No odd cycles in a bipartite host.
    assert not is_subgraph_iso(cycle_graph(5), complete_bipartite(3, 3))
    assert not brute_subgraph_iso(cycle_graph(5), complete_bipartite(3, 3))


def test_subgraph_iso_matches_bruteforce():
    rng = random.Random(31)
    for _ in range(150):
        p = random_graph(rng, rng.randint(2, 5), rng.uniform(0.2, 0.9))
        h = random_graph(rng, rng.randint(p.n, 7), rng.uniform(0.2, 0.9))
        assert is_subgraph_iso(p, h) == brute_subgraph_iso(p, h)


def test_subgraph_copy_is_a_copy_exactly_when_one_exists():
    # The copy is read off the one search is_subgraph_iso runs, so it is
    # None exactly when that says False; otherwise its edges are host edges
    # that form a graph isomorphic to the pattern (none of these patterns
    # has an isolated vertex, so the copy's ends are the pattern's images).
    rng = random.Random(2901)
    patterns = petersen_family() + order8_obstructions() + (cycle_graph(8), cycle_graph(9))
    verdicts = Counter()
    for pattern in patterns:
        for _ in range(12):
            host = random_graph(rng, rng.randint(max(pattern.n, 8), 10), rng.uniform(0.45, 0.95))
            copy = subgraph_copy(pattern, host)
            found = is_subgraph_iso(pattern, host)
            assert (copy is not None) == found, (pattern, host)
            verdicts[found] += 1
            if copy is None:
                continue
            assert len(copy) == host.n
            assert all(m & ~h == 0 for m, h in zip(copy, host._adj))
            ends = [a for a in range(host.n) if copy[a]]
            assert len(ends) == pattern.n
            edges = [
                (i + 1, j + 1)
                for i, a in enumerate(ends)
                for j, b in enumerate(ends)
                if i < j and copy[a] >> b & 1
            ]
            assert is_isomorphic(Graph(pattern.n, edges), pattern), (pattern, host)
    assert verdicts[True] > 20 and verdicts[False] > 20, verdicts


def _k5_minus_triangle() -> Graph:
    g = complete_graph(5)
    for e in [(1, 2), (1, 3), (2, 3)]:
        g = g.delete_edge(e)
    return g


TWIN_RICH = {
    "K4": complete_graph(4),
    "K5": complete_graph(5),
    "K2,3": complete_bipartite(2, 3),
    "K3,3": complete_bipartite(3, 3),
    "star4": complete_bipartite(1, 4),
    "K1,2,2": complete_multipartite(1, 2, 2),
    "K2,2,2": complete_multipartite(2, 2, 2),
    "K3+2K1": disjoint_union(complete_graph(3), Graph(2)),
    "C4+K1": disjoint_union(cycle_graph(4), Graph(1)),
    "3K1": Graph(3),
    "K5-K3": _k5_minus_triangle(),
}


@pytest.mark.parametrize("name", sorted(TWIN_RICH))
def test_twin_pruning_matches_bruteforce(name):
    # Twins are the classes the search breaks symmetry on, and the host's
    # labels decide which image order it keeps, so every host is also
    # asked under relabelings. One pattern object serves every host, so
    # all but the first query run on its cached plan.
    pattern = TWIN_RICH[name]
    rng = random.Random(sum(map(ord, name)))
    verdicts = set()
    for _ in range(20):
        host = random_graph(rng, rng.randint(pattern.n, 7), rng.uniform(0.2, 1.0))
        expected = brute_subgraph_iso(pattern, host)
        verdicts.add(expected)
        for _ in range(3):
            perm = rng.sample(range(1, host.n + 1), host.n)
            h = host.relabel({i + 1: q for i, q in enumerate(perm)})
            assert is_subgraph_iso(pattern, h) == expected, (name, h)
    # An edgeless pattern fits every host with enough vertices.
    assert verdicts == ({True} if name == "3K1" else {True, False})


def spanning_host(rng, pattern: Graph) -> Graph:
    """A host of the pattern's order: a relabeled copy of the pattern with
    random edges added and up to two removed, or a random graph."""
    n = pattern.n
    if rng.random() < 0.25:
        return random_graph(rng, n, rng.uniform(0.3, 0.9))
    perm = rng.sample(range(1, n + 1), n)
    edges = {tuple(sorted((perm[u - 1], perm[v - 1]))) for u, v in pattern.edges}
    extra = rng.uniform(0.0, 0.3)
    edges |= {e for e in combinations(range(1, n + 1), 2) if rng.random() < extra}
    for e in rng.sample(sorted(edges), min(len(edges), rng.randint(0, 2))):
        edges.discard(e)
    return Graph(n, edges)


def test_spanning_subgraph_matches_bruteforce():
    # Host and pattern of one order: host vertex 0 goes only to the head of
    # one twin class per orbit, so every host is asked under relabelings
    # that move vertex 0 around. K3,3,1, the stars and K1,2,2 have twin
    # classes in two orbits; C8 and C9 are one orbit of singletons.
    rng = random.Random(3001)
    k44e = complete_bipartite(4, 4).delete_edge((1, 5))
    patterns = list(TWIN_RICH.values()) + [complete_multipartite(3, 3, 1), k44e]
    patterns += list(order8_obstructions()) + [cycle_graph(8), cycle_graph(9)]
    patterns += [random_graph(rng, rng.randint(4, 8), rng.uniform(0.3, 0.8)) for _ in range(40)]
    verdicts = Counter()
    split = set()
    for pattern in patterns:
        seen = set()
        for _ in range(4 if pattern.n >= 8 else 8):
            host = spanning_host(rng, pattern)
            expected = brute_subgraph_iso(pattern, host)
            seen.add(expected)
            for _ in range(3):
                perm = rng.sample(range(1, host.n + 1), host.n)
                h = host.relabel({i + 1: q for i, q in enumerate(perm)})
                assert is_subgraph_iso(pattern, h) == expected, (pattern, h)
                copy = subgraph_copy(pattern, h)
                assert (copy is not None) == expected, (pattern, h)
                assert copy is None or all(m & ~a == 0 for m, a in zip(copy, h._adj))
                verdicts[expected] += 1
        if seen == {True, False} and pattern.n <= 7:
            if len(twin_class_orbits(pattern, brute_automorphisms(pattern))) > 1:
                split.add(canonical_form(pattern))
    assert verdicts[True] > 100 and verdicts[False] > 100, verdicts
    assert split


def assert_pinned_matches_bruteforce(pattern: Graph, host: Graph) -> set[bool]:
    """Pin every host edge and every non-edge; return the verdicts seen."""
    covered = brute_copy_edges(pattern, host)
    verdicts = set()
    for a in range(1, host.n + 1):
        for b in range(1, host.n + 1):
            if a != b:
                got = is_subgraph_iso(pattern, host, (a - 1, b - 1))
                assert got == ((min(a, b), max(a, b)) in covered), (pattern, host, a, b)
                verdicts.add(got)
    return verdicts


def test_pinned_subgraph_matches_bruteforce():
    # Pinned to ab, the test asks for a copy that maps a pattern edge onto
    # ab, in either direction. Random patterns mostly have no automorphism,
    # so each arc is its own orbit; the twin-rich ones have few orbits.
    rng = random.Random(4111)
    verdicts = set()
    patterns = [random_graph(rng, rng.randint(3, 5), rng.uniform(0.3, 0.9)) for _ in range(40)]
    patterns += list(TWIN_RICH.values()) + [Graph(4, [(1, 2), (2, 3), (3, 4), (2, 4)])]
    for pattern in patterns:
        for _ in range(3):
            host = random_graph(rng, rng.randint(pattern.n, 7), rng.uniform(0.3, 0.9))
            verdicts |= assert_pinned_matches_bruteforce(pattern, host)
    assert verdicts == {True, False}


def test_pinned_family_subgraphs_match_bruteforce():
    # K6 and K3,3,1 in random hosts of order 7; K3,3,1's arcs from its
    # apex and those to it lie in different orbits.
    rng = random.Random(4112)
    verdicts = set()
    for pattern in [p for p in petersen_family() if p.n <= 7]:
        for _ in range(5):
            host = random_graph(rng, 7, rng.uniform(0.6, 0.9))
            verdicts |= assert_pinned_matches_bruteforce(pattern, host)
    assert verdicts == {True, False}


# (arcs, heads) of each plan: the Petersen family, the order-8 trio, C9
# and K4,4, by graph6.
PLAN_ORBIT_COUNTS = {
    "E~~w": (1, 1),
    "Fs~v_": (3, 2),
    "Fs\\zw": (5, 3),
    "GIQ|to": (3, 2),
    "GYQ[p{": (9, 4),
    "HKN?Yeb": (4, 2),
    "I@OZCMgs?": (1, 1),
    "GF~~~{": (3, 2),
    "G]~vv{": (12, 4),
    "G`N~~{": (7, 3),
    "HhCGGE@": (1, 1),
    "G?~vf_": (1, 1),
}


def test_plans_keep_the_first_of_each_orbit_exactly():
    # The pinned arcs and the spanning heads are the first, in position
    # order, of each orbit of the group that automorphisms(pattern)
    # generates on the arcs and on the twin classes, closed here by brute
    # force. Finer orbits are still sound, so no verdict test sees them;
    # this test catches an arc or class encoding that splits or merges
    # orbits.
    rng = random.Random(3601)
    patterns = list(petersen_family() + order8_obstructions())
    patterns += [cycle_graph(9), complete_bipartite(4, 4)]
    for n in range(3, 10):
        patterns += [random_graph(rng, n, rng.uniform(0.2, 0.9)) for _ in range(8)]
    counts = {}
    for pattern in patterns:
        plan = _plan(pattern.n, pattern._adj)
        twin_prev, order = plan[3], plan[4]
        pos = {v: i for i, v in enumerate(order)}
        perms = automorphisms(pattern)
        _, arcs = _pinned_plan(pattern, order)
        assert arcs == sorted(
            min((pos[a], pos[b]) for a, b in orbit)
            for orbit in arc_orbits(pattern, perms)
        ), pattern
        heads = _spanning_heads(pattern, twin_prev, order)
        assert heads == sorted(
            min(pos[v] for c in orbit for v in c)
            for orbit in twin_class_orbits(pattern, perms)
        ), pattern
        counts[encode_graph6(pattern)] = (len(arcs), len(heads))
    assert {k: counts[k] for k in PLAN_ORBIT_COUNTS} == PLAN_ORBIT_COUNTS


def test_reductions_for_a_new_edge_skip_exactly_the_parents_minors():
    # With edge uv, deleting u or v and contracting an edge from u or v to
    # a common neighbour are skipped, and each of those results is the same
    # step taken in g - uv; every other reduction, g / uv among them, is
    # kept, in the same order.
    rng = random.Random(4113)
    seen_common = False
    for _ in range(60):
        g = random_graph(rng, rng.randint(4, 8), rng.uniform(0.3, 0.8))
        if not g.edges:
            continue
        a, b = rng.choice(g.edges)
        parent = g.delete_edge((a, b))
        common = set(g.neighbors(a)) & set(g.neighbors(b))
        seen_common |= bool(common)
        steps = [("delete", x) for x in range(1, g.n + 1)]
        steps += [("contract", e) for e in g.edges]
        skipped = {("delete", a), ("delete", b)}
        skipped |= {("contract", tuple(sorted((w, x)))) for w in (a, b) for x in common}
        kept = [s for s in steps if s not in skipped]
        assert ("contract", (a, b)) in kept
        expected = [
            g.delete_vertex(x) if how == "delete" else g.contract_edge(x)
            for how, x in kept
        ]
        assert list(_reductions(g, (a - 1, b - 1))) == expected
        assert list(_reductions(g)) == [
            g.delete_vertex(x) if how == "delete" else g.contract_edge(x)
            for how, x in steps
        ]
        for how, x in skipped:
            if how == "delete":
                assert g.delete_vertex(x) == parent.delete_vertex(x)
            else:
                assert g.contract_edge(x) == parent.contract_edge(x)
    assert seen_common


def test_pattern_larger_than_host():
    assert not is_subgraph_iso(complete_graph(5), complete_graph(4))


def test_has_minor_reflexive_examples():
    assert has_minor(complete_graph(5), complete_graph(5))
    assert not has_minor(complete_graph(4), complete_graph(5))


def test_petersen_has_k5_minor():
    pet = petersen_graph()
    assert has_minor(pet, complete_graph(5))
    # Independent derivation: contracting the five spokes leaves K5.
    # Highest-label spoke first, so the remaining labels never shift.
    g = pet
    for spoke in [(5, 10), (4, 9), (3, 8), (2, 7), (1, 6)]:
        g = g.contract_edge(spoke)
    assert is_isomorphic(g, complete_graph(5))


def test_petersen_no_k6_minor():
    assert not has_minor(petersen_graph(), complete_graph(6))


def test_has_minor_matches_bruteforce():
    rng = random.Random(41)
    for _ in range(60):
        h = random_graph(rng, rng.randint(2, 4), rng.uniform(0.3, 0.9))
        g = random_graph(rng, rng.randint(h.n, 6), rng.uniform(0.3, 0.8))
        assert has_minor(g, h) == brute_minor(g, h)


def random_patterns(rng) -> tuple[Graph, ...]:
    return tuple(
        random_graph(rng, rng.randint(2, 5), rng.uniform(0.3, 1.0))
        for _ in range(rng.randint(1, 3))
    )


def random_host(rng, patterns) -> Graph:
    """A random graph, or a pattern with subdivided edges: a minor of it
    that only contractions can recover."""
    if rng.random() < 0.5:
        return random_graph(rng, rng.randint(2, 7), rng.uniform(0.2, 0.7))
    g = rng.choice(patterns)
    edges = list(g.edges)
    n = g.n
    while n < 7 and edges and rng.random() < 0.8:
        u, v = edges.pop(rng.randrange(len(edges)))
        n += 1
        edges += [(u, n), (n, v)]
    return Graph(n, edges)


def test_contains_any_minor_matches_bruteforce():
    rng = random.Random(43)
    verdicts = set()
    for _ in range(60):
        patterns = random_patterns(rng)
        g = random_host(rng, patterns)
        expected = any(brute_minor(g, p) for p in patterns)
        assert contains_any_minor(g, patterns, {}) == expected
        verdicts.add(expected)
    assert verdicts == {True, False}


def test_contains_any_minor_shared_memo_matches_bruteforce():
    rng = random.Random(47)
    verdicts = set()
    for _ in range(4):
        patterns = random_patterns(rng)
        memo: dict[bytes, bool] = {}
        for _ in range(15):
            g = random_host(rng, patterns)
            expected = any(brute_minor(g, p) for p in patterns)
            assert contains_any_minor(g, patterns, memo) == expected
            verdicts.add(expected)
    assert verdicts == {True, False}


def reducible_host(rng, base: Graph, n: int) -> Graph:
    """base with vertices of degree <= 2 added until it has n vertices:
    each new vertex subdivides an edge, hangs from an earlier vertex (so
    pendant trees grow), or is an ear, joined to both ends of an edge that
    stays."""
    edges = set(base.edges)
    for k in range(base.n + 1, n + 1):
        step = rng.randrange(3) if edges else 1
        if step == 1:
            edges.add((rng.randint(1, k - 1), k))
            continue
        u, v = rng.choice(sorted(edges))
        if step == 0:
            edges.remove((u, v))
        edges |= {(u, k), (v, k)}
    return Graph(n, edges)


def test_cores_match_bruteforce_and_vanish_exactly_without_k4():
    # Duffin (1965): a graph has no K4 minor iff deleting vertices of
    # degree <= 1 and smoothing vertices of degree 2 leaves nothing.
    k4 = complete_graph(4)
    for n in range(7):
        for g in brute_isomorphism_classes(n):
            core = _core(g)
            assert is_isomorphic(core, brute_core(g)), g
            assert (core.n == 0) == (not brute_minor(g, k4)), g
            if min_degree(g) >= 3:
                assert core is g
    rng = random.Random(59)
    for _ in range(100):
        base = random_graph(rng, rng.randint(1, 7), rng.uniform(0.2, 0.9))
        g = reducible_host(rng, base, min(base.n + rng.randint(1, 4), 10))
        assert is_isomorphic(_core(g), brute_core(g)), g


def test_core_rule_matches_bruteforce_on_petersen_family():
    # Every family graph has minimum degree 3, so the search runs on cores.
    family = petersen_family()
    small = [p for p in family if p.n <= 7]
    rng = random.Random(67)
    memo: dict[bytes, bool] = {}
    verdicts = set()
    for _ in range(16):
        base = rng.choice(small + [random_graph(rng, 6, 0.8)])
        g = reducible_host(rng, base, rng.randint(base.n + 1, 8))
        assert min_degree(g) <= 2
        expected = any(brute_minor(g, p) for p in family)
        assert contains_any_minor(g, family, {}) == expected, g
        assert contains_any_minor(g, family, memo) == expected, g
        assert is_nil(g) == (not expected), g
        verdicts.add(expected)
    assert verdicts == {True, False}


def dense_pattern(rng) -> Graph:
    """A random graph of order 4 to 6 with minimum degree 3 or more."""
    while True:
        p = random_graph(rng, rng.randint(4, 6), rng.uniform(0.6, 1.0))
        if min_degree(p) >= 3:
            return p


def test_core_rule_matches_bruteforce_on_dense_patterns():
    rng = random.Random(71)
    verdicts = set()
    for _ in range(40):
        patterns = tuple(dense_pattern(rng) for _ in range(rng.randint(1, 2)))
        base = rng.choice((*patterns, random_graph(rng, rng.randint(4, 6), 0.6)))
        g = reducible_host(rng, base, min(base.n + rng.randint(1, 3), 8))
        expected = [brute_minor(g, p) for p in patterns]
        assert contains_any_minor(g, patterns, {}) == any(expected), g
        assert [has_minor(g, p) for p in patterns] == expected, g
        verdicts.add(any(expected))
    assert verdicts == {True, False}


# Each has a vertex of degree <= 2, which a host's core may have lost.
LOW_DEGREE_PATTERNS = {
    "C5": cycle_graph(5),
    "K4-one-edge-subdivided": Graph(
        5, [(1, 2), (1, 3), (1, 4), (2, 3), (2, 4), (3, 5), (4, 5)]
    ),
    "K33-pendant": Graph(7, [*complete_bipartite(3, 3).edges, (1, 7)]),
}


@pytest.mark.parametrize("name", sorted(LOW_DEGREE_PATTERNS))
def test_core_rule_stays_off_for_patterns_with_low_degree(name):
    # The rule needs every pattern to have minimum degree 3, so it is off
    # for such a pattern alone and in a collection with K5.
    pattern = LOW_DEGREE_PATTERNS[name]
    k5 = complete_graph(5)
    rng = random.Random(73)
    verdicts = set()
    for _ in range(12):
        base = rng.choice((pattern, random_graph(rng, rng.randint(4, 6), 0.5)))
        g = reducible_host(rng, base, min(base.n + rng.randint(0, 2), 8))
        expected = brute_minor(g, pattern)
        assert has_minor(g, pattern) == expected, g
        either = expected or brute_minor(g, k5)
        assert contains_any_minor(g, (pattern, k5), {}) == either, g
        verdicts.add(expected)
    assert verdicts == {True, False}


def _apex_host() -> Graph:
    planar = stacked_planar(9)
    return Graph(10, list(planar.edges) + [(10, v) for v in range(1, 10)])


@pytest.mark.parametrize(
    "host, patterns",
    [
        (_apex_host(), petersen_family()),
        (stacked_planar(10), (complete_graph(5),)),
    ],
    ids=["apex-petersen", "planar-k5"],
)
def test_negative_query_memoizes_every_reachable_state(host, patterns):
    # Every pattern has minimum degree >= 3, so the search runs on cores: a
    # negative query must visit, and memoize, the core of each reachable
    # state once, and nothing else.
    memo: dict[bytes, bool] = {}
    assert not contains_any_minor(host, patterns, memo)
    min_order = min(p.n for p in patterns)
    min_size = min(p.size for p in patterns)
    assert set(memo) == brute_reduction_closure(host, min_order, min_size)
    assert not any(memo.values())


def test_negative_query_skips_states_no_pattern_fits():
    # The order-8 obstructions have 22-25 edges, so C9 alone sets the
    # overall smallest size, 9. K4,5 (20 edges, bipartite) holds no C9, and
    # every order-8 reduction of it has at most 20 edges, fewer than any
    # order-8 pattern: only the host itself is canonized and memoized.
    host = complete_bipartite(4, 5)
    memo: dict[bytes, bool] = {}
    assert not contains_any_minor(host, order8_obstructions() + (cycle_graph(9),), memo)
    assert memo == {canonical_form(host): False}


def test_subgraph_implies_minor_exhaustive_order_le5():
    reps = []
    seen = set()
    for n in range(1, 6):
        for g in all_graphs_of_order(n):
            key = canonical_form(g)
            if key not in seen:
                seen.add(key)
                reps.append(g)
    for small in reps:
        for big in reps:
            if small.n <= big.n and is_subgraph_iso(small, big):
                assert has_minor(big, small)


def test_has_minor_reflexive_and_transitive_random():
    rng = random.Random(53)
    graphs = [random_graph(rng, rng.randint(3, 6), rng.uniform(0.3, 0.8)) for _ in range(12)]
    for g in graphs:
        assert has_minor(g, g)
    for a in graphs:
        for b in graphs:
            if not has_minor(b, a):
                continue
            for c in graphs:
                if has_minor(c, b):
                    assert has_minor(c, a)


def test_minor_via_contraction_not_subgraph():
    # C4 contracts to a triangle it does not contain as a subgraph.
    assert not is_subgraph_iso(complete_graph(3), cycle_graph(4))
    assert has_minor(cycle_graph(4), complete_graph(3))


def test_empty_pattern_minors():
    assert has_minor(complete_graph(3), Graph(2))
    assert not has_minor(complete_graph(3), Graph(4))


@pytest.mark.parametrize(
    "g", [Graph(0), complete_graph(3), petersen_graph()], ids=["empty", "K3", "P"]
)
def test_no_pattern_is_no_minor_and_memoizes_nothing(g):
    memo: dict[bytes, bool] = {}
    assert not contains_any_minor(g, (), memo)
    assert memo == {}


@pytest.mark.parametrize("host", [Graph(0), complete_graph(3)], ids=["empty", "K3"])
def test_empty_pattern_is_a_subgraph_of_every_host(host):
    assert is_subgraph_iso(Graph(0), host)
