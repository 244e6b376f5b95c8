import random
import time
from itertools import combinations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from torlink import (
    Graph,
    canonical_form,
    canonical_graph,
    complete_bipartite,
    complete_graph,
    cycle_graph,
    decode_graph6,
    disjoint_union,
    is_isomorphic,
    path_graph,
    petersen_graph,
)
from torlink.canonical import _refine, automorphisms, orbit_firsts
from torlink.oracles import order8_obstructions
from torlink.search import isomorphism_classes

from bruteforce import (
    _brute_refine,
    all_graphs_of_order,
    brute_automorphisms,
    brute_canonical_key,
    brute_isomorphic,
    complete_multipartite,
    pair_orbits,
    random_graph,
    vertex_orbits,
)


def shuffled(g: Graph, rng) -> Graph:
    perm = list(range(1, g.n + 1))
    rng.shuffle(perm)
    return g.relabel({i + 1: perm[i] for i in range(g.n)})


def test_canonical_form_permutation_invariant():
    rng = random.Random(11)
    pool = [
        complete_graph(8),
        petersen_graph(),
        cycle_graph(9),
        disjoint_union(complete_graph(4), cycle_graph(5)),
        *order8_obstructions(),
    ]
    for _ in range(150):
        pool.append(random_graph(rng, rng.randint(2, 9), rng.uniform(0.1, 0.9)))
    for g in pool:
        key = canonical_form(g)
        for _ in range(4):
            assert canonical_form(shuffled(g, rng)) == key


def test_canonical_form_invariant_after_contraction():
    # Contracted graphs exercise the mask-rebuild path.
    rng = random.Random(12)
    for _ in range(80):
        g = random_graph(rng, 8, 0.5)
        if not g.edges:
            continue
        c = g.contract_edge(rng.choice(g.edges))
        assert canonical_form(shuffled(c, rng)) == canonical_form(c)


def test_canonical_classes_order4():
    forms = {canonical_form(g) for g in all_graphs_of_order(4)}
    assert len(forms) == 11


def test_canonical_classes_order5():
    forms = {canonical_form(g) for g in all_graphs_of_order(5)}
    assert len(forms) == 34


def test_canonical_grouping_agrees_with_bruteforce_order4():
    graphs = list(all_graphs_of_order(4))
    for i, g in enumerate(graphs[:40]):
        for h in graphs[i : i + 25]:
            assert (canonical_form(g) == canonical_form(h)) == brute_isomorphic(
                g, h
            )


def test_k3_and_p3_differ():
    assert canonical_form(complete_graph(3)) != canonical_form(path_graph(3))


def test_is_isomorphic_identity():
    g = petersen_graph()
    assert is_isomorphic(g, g)


def test_c6_not_isomorphic_to_two_triangles():
    assert not is_isomorphic(
        cycle_graph(6), disjoint_union(complete_graph(3), complete_graph(3))
    )


def test_k8_minus_k23_relabeling():
    g = order8_obstructions()[2]
    rng = random.Random(3)
    assert is_isomorphic(g, shuffled(g, rng))


def test_is_isomorphic_matches_bruteforce():
    rng = random.Random(17)
    for _ in range(120):
        n = rng.randint(2, 5)
        g = random_graph(rng, n, rng.uniform(0.2, 0.8))
        if rng.random() < 0.5:
            h = shuffled(g, rng)
        else:
            h = random_graph(rng, n, rng.uniform(0.2, 0.8))
        assert is_isomorphic(g, h) == brute_isomorphic(g, h)


def test_canonical_graph_is_isomorphic_representative():
    rng = random.Random(23)
    for _ in range(60):
        g = random_graph(rng, rng.randint(1, 9), rng.uniform(0.1, 0.9))
        rep = canonical_graph(g)
        assert is_isomorphic(rep, g)
        assert canonical_graph(shuffled(g, rng)) == rep
        assert canonical_form(rep) == canonical_form(Graph(rep.n, rep.edges))


def test_dense_and_sparse_extremes():
    # Universal/isolated stripping must stay consistent with plain search.
    for n in range(2, 9):
        assert canonical_form(complete_graph(n)) != canonical_form(Graph(n))
    near = complete_graph(9).delete_edge((1, 2))
    rng = random.Random(5)
    assert canonical_form(shuffled(near, rng)) == canonical_form(near)
    star = Graph(7, [(1, i) for i in range(2, 8)])
    assert canonical_form(shuffled(star, rng)) == canonical_form(star)


def test_canonical_form_distinguishes_same_degree_sequence():
    # Both 3-regular on 6 vertices, not isomorphic.
    k33 = Graph(6, [(i, j + 3) for i in (1, 2, 3) for j in (1, 2, 3)])
    prism = Graph(6, [(1, 2), (2, 3), (3, 1), (4, 5), (5, 6), (6, 4),
                      (1, 4), (2, 5), (3, 6)])
    assert not is_isomorphic(k33, prism)
    assert brute_isomorphic(k33, prism) is False


def test_all_pairs_order4_exhaustive():
    graphs = []
    seen = set()
    for g in all_graphs_of_order(4):
        key = canonical_form(g)
        if key not in seen:
            seen.add(key)
            graphs.append(g)
    for g, h in combinations(graphs, 2):
        assert not brute_isomorphic(g, h)


def cube_graph() -> Graph:
    """The 3-cube: vertices 1..8, adjacent when labels-1 differ in one bit."""
    return Graph(
        8, [(u + 1, (u ^ b) + 1) for u in range(8) for b in (1, 2, 4) if u < u ^ b]
    )


SYMMETRIC = {
    "K4,4": complete_bipartite(4, 4),
    "K3,3,3": complete_multipartite(3, 3, 3),
    "K2,2,2,2,2": complete_multipartite(2, 2, 2, 2, 2),
    "petersen": petersen_graph(),
    "cube": cube_graph(),
    "C10": cycle_graph(10),
    "2K3,3": disjoint_union(complete_bipartite(3, 3), complete_bipartite(3, 3)),
    # Labeled graphs with nontrivial automorphisms on which pruning with a
    # permutation read off two leaves of unequal keys (not an automorphism)
    # misses the minimum.
    "trap9": Graph(9, [(1, 2), (1, 3), (1, 4), (1, 6), (2, 3), (2, 7), (2, 9),
                       (3, 7), (3, 9), (4, 5), (4, 6), (4, 8), (5, 6), (5, 7),
                       (5, 9), (6, 8), (7, 8), (8, 9)]),
    "trap10": Graph(10, [(1, 4), (1, 5), (1, 6), (1, 7), (1, 9), (1, 10), (2, 3),
                         (2, 4), (2, 6), (2, 8), (2, 9), (2, 10), (3, 4), (3, 5),
                         (3, 6), (3, 7), (3, 8), (4, 7), (4, 8), (4, 9), (5, 6),
                         (5, 7), (5, 9), (5, 10), (6, 8), (6, 10), (7, 8), (7, 10),
                         (8, 9), (9, 10)]),
    # Backjumping short of the two leaves' common ancestor misses the
    # minimum on these two.
    "jump10a": decode_graph6("I@TPASe_?"),
    "jump10b": decode_graph6("ITR?zO??G"),
    # The inputs on which backjumping visits the most leaves.
    "C4+C8": decode_graph6("Kl?GGC@?G?`@"),
    "co-(C5+C7)": decode_graph6("KUZ~vz}~v~^]"),
}


@pytest.mark.parametrize("n", range(1, 8))
def test_canonical_form_matches_exhaustive_walk_on_all_classes(n):
    for g in isomorphism_classes(n):
        assert canonical_form(g) == brute_canonical_key(g)


def test_canonical_form_matches_exhaustive_walk_on_random_graphs():
    rng = random.Random(29)
    for _ in range(200):
        g = random_graph(rng, rng.randint(8, 10), rng.uniform(0.1, 0.9))
        assert canonical_form(g) == brute_canonical_key(g)


@pytest.mark.parametrize("name", SYMMETRIC)
def test_canonical_form_matches_exhaustive_walk_on_symmetric_graphs(name):
    g = SYMMETRIC[name]
    assert canonical_form(g) == brute_canonical_key(g)


def circulant(n: int, jumps) -> Graph:
    return Graph(n, {tuple(sorted((v % n + 1, (v + j) % n + 1)))
                     for v in range(n) for j in jumps})


def complement(g: Graph) -> Graph:
    return Graph(g.n, g.non_edges())


def union(*parts: Graph) -> Graph:
    out = parts[0]
    for p in parts[1:]:
        out = disjoint_union(out, p)
    return out


def worst_case_graphs() -> list[Graph]:
    """Every circulant on 8..12 vertices (one per nonempty jump set) and
    the symmetric unions 3K4, 4K3, 2K6, 6K2, 3C4, 2C6, C5+C7, C4+C8 with
    their complements."""
    graphs = [
        circulant(n, [j for j in range(1, n // 2 + 1) if bits >> (j - 1) & 1])
        for n in range(8, 13)
        for bits in range(1, 1 << (n // 2))
    ]
    k, c = complete_graph, cycle_graph
    unions = [
        union(k(4), k(4), k(4)),
        union(k(3), k(3), k(3), k(3)),
        union(k(6), k(6)),
        union(*[k(2)] * 6),
        union(c(4), c(4), c(4)),
        union(c(6), c(6)),
        union(c(5), c(7)),
        union(c(4), c(8)),
    ]
    return graphs + unions + [complement(g) for g in unions]


def test_worst_case_sweep_relabeling_and_time():
    rng = random.Random(37)
    graphs = worst_case_graphs()
    assert len(graphs) == 155 + 16
    for g in graphs:
        h = shuffled(g, rng)
        start = time.perf_counter()
        key, rep = canonical_form(g), canonical_graph(h)
        elapsed = time.perf_counter() - start
        assert canonical_form(h) == key
        assert canonical_graph(g) == rep
        assert elapsed < 0.25, (g.edges, elapsed)


def test_refine_matches_full_signature_refinement():
    # _refine counts neighbours only in the cells split off in the previous
    # round; the brute refinement counts them in every cell, every round.
    rng = random.Random(31)
    graphs = [random_graph(rng, n, rng.uniform(0.1, 0.9))
              for n in range(2, 13) for _ in range(12)]
    graphs += SYMMETRIC.values()
    graphs += [
        complete_bipartite(6, 6),
        complete_multipartite(4, 4, 4),
        complete_multipartite(3, 3, 3, 3),
        complete_multipartite(2, 2, 2, 2, 2, 2),
        complete_bipartite(4, 6),
        complete_graph(12),
        *(cycle_graph(k) for k in range(3, 13)),
    ]
    for g in graphs:
        n, adj = g.n, g._adj
        unit = [tuple(range(n))]
        root = _refine(n, adj, unit, unit)
        assert root == _brute_refine(adj, unit)
        for t, cell in enumerate(root):
            if len(cell) == 1:
                continue
            for v in cell:
                rest = tuple(w for w in cell if w != v)
                split = root[:t] + [(v,), rest] + root[t + 1 :]
                assert _refine(n, adj, split, [(v,), rest]) == _brute_refine(
                    adj, split
                )


@st.composite
def _random_graphs(draw, max_n: int) -> Graph:
    n = draw(st.integers(1, max_n))
    pairs = list(combinations(range(1, n + 1), 2))
    bits = draw(st.lists(st.booleans(), min_size=len(pairs), max_size=len(pairs)))
    return Graph(n, [e for e, on in zip(pairs, bits) if on])


def _symmetric_families(max_n: int):
    parts = st.lists(st.integers(1, max_n), min_size=1, max_size=max_n).filter(
        lambda p: sum(p) <= max_n
    )
    return st.one_of(
        parts.map(lambda p: complete_multipartite(*p)),
        st.integers(3, max_n).map(cycle_graph),
        _random_graphs(min(max_n, 10)),
    )


@st.composite
def _graph_and_relabeling(draw):
    g = draw(
        st.one_of(
            _symmetric_families(12),
            _symmetric_families(6).map(lambda h: disjoint_union(h, h)),
        )
    )
    perm = draw(st.permutations(range(1, g.n + 1)))
    return g, g.relabel({i + 1: p for i, p in enumerate(perm)})


@settings(max_examples=200, deadline=None, derandomize=True, database=None)
@given(_graph_and_relabeling())
def test_canonical_form_and_graph_survive_relabeling(pair):
    g, h = pair
    assert canonical_form(h) == canonical_form(g)
    assert canonical_graph(h) == canonical_graph(g)


def assert_orbits_match_the_group(g: Graph):
    perms = automorphisms(g)
    assert g._canon == brute_canonical_key(g)
    edges = {(a - 1, b - 1) for a, b in g.edges}
    for p in perms:
        assert sorted(p) == list(range(g.n))
        assert {tuple(sorted((p[a], p[b]))) for a, b in edges} == edges, (g, p)
    group = brute_automorphisms(g)
    assert vertex_orbits(g.n, perms) == vertex_orbits(g.n, group), g
    assert pair_orbits(g.n, perms) == pair_orbits(g.n, group), g


def test_automorphisms_give_the_groups_orbits_on_small_classes():
    # Each permutation the canonical search reports is an automorphism, and
    # together they have the whole group's orbits on vertices and on vertex
    # pairs, so the census's orbit rule sees every sibling it could merge.
    # Classes with isolated or universal vertices, which the search strips,
    # are among these.
    for n in range(7):
        for g in isomorphism_classes(n):
            assert_orbits_match_the_group(g)


@pytest.mark.parametrize("name", ["C4+C8", "petersen", "cube", "K4,4"])
def test_automorphisms_give_the_groups_orbits_on_symmetric_graphs(name):
    rng = random.Random(53)
    for _ in range(3):
        assert_orbits_match_the_group(shuffled(SYMMETRIC[name], rng))


def test_orbits_of_pairs_split_the_given_pairs_by_the_groups_orbits():
    # With the automorphisms the canonical search meets, the firsts are the
    # first given pair of each of the whole group's pair orbits that meets
    # the given pairs, in the given order: for all pairs, the edges, or a
    # shuffled half of the pairs, whose orbits are closed over pairs that
    # are not listed. A single permutation gives finer orbits, never a
    # merge of two of the group's: each whole orbit still keeps its first.
    rng = random.Random(2601)
    graphs = [g for n in range(2, 7) for g in isomorphism_classes(n)]
    graphs += [shuffled(SYMMETRIC[name], rng) for name in ("C4+C8", "petersen", "cube", "K4,4")]
    for g in graphs:
        perms = automorphisms(g)
        group = pair_orbits(g.n, brute_automorphisms(g))
        every = list(combinations(range(g.n), 2))
        edges = [(a - 1, b - 1) for a, b in g.edges]
        for pairs in (every, edges, rng.sample(every, len(every) // 2)):
            place = {pair: i for i, pair in enumerate(pairs)}
            met = [orbit & place.keys() for orbit in group]
            expected = sorted((min(m, key=place.get) for m in met if m), key=place.get)
            assert orbit_firsts(pairs, perms) == expected, g
            few = orbit_firsts(pairs, perms[:1])
            assert few == sorted(few, key=place.get) and set(few) <= place.keys()
            assert set(expected) <= set(few)
