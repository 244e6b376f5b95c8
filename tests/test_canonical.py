import random
from itertools import combinations

import pytest

from torlink import (
    Graph,
    canonical_form,
    canonical_graph,
    complete_graph,
    cycle_graph,
    disjoint_union,
    is_isomorphic,
    path_graph,
    petersen_graph,
)
from torlink.oracles import order8_obstructions

from bruteforce import all_graphs_of_order, brute_isomorphic, random_graph


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
