import copy
import pickle
import random

import pytest

from torlink import (
    Graph,
    complete_bipartite,
    complete_graph,
    cycle_graph,
    disjoint_union,
    enumerate_cycles,
    is_isomorphic,
    path_graph,
)
from torlink.canonical import canonical_graph
from torlink.graph6 import decode_graph6, encode_graph6
from torlink.graphs import is_cycle_of

from bruteforce import (
    all_graphs_of_order,
    brute_cycles,
    canonical_cycle,
    random_graph,
    well_formed,
)


def test_construction_rejects_bad_edges():
    with pytest.raises(ValueError):
        Graph(3, [(1, 1)])
    with pytest.raises(ValueError):
        Graph(3, [(1, 4)])
    with pytest.raises(ValueError):
        Graph(13)


def test_copy_and_pickle_give_equal_graphs():
    g = complete_bipartite(3, 4)
    assert g.size == 12
    for h in (copy.copy(g), copy.deepcopy(g), pickle.loads(pickle.dumps(g))):
        assert h == g and h.size == 12 and h.edges == g.edges


def test_duplicate_edges_collapse():
    g = Graph(3, [(1, 2), (2, 1), (1, 2)])
    assert g.size == 1


def test_add_edge_completes_triangle():
    g = Graph(3, [(1, 2), (2, 3)])
    assert is_isomorphic(g.add_edge((1, 3)), complete_graph(3))


def test_add_then_delete_is_identity():
    g = Graph(4, [(1, 2), (3, 4)])
    assert g.add_edge((1, 3)).delete_edge((1, 3)) == g


def test_add_edge_errors():
    g = complete_graph(3)
    with pytest.raises(ValueError):
        g.add_edge((1, 2))
    with pytest.raises(ValueError):
        g.add_edge((1, 5))
    with pytest.raises(ValueError):
        g.add_edge((2, 2))


def test_delete_edge_gives_path():
    assert is_isomorphic(complete_graph(3).delete_edge((1, 3)), path_graph(3))


def test_delete_each_k4_edge_distinct():
    k4 = complete_graph(4)
    deleted = {k4.delete_edge(e) for e in k4.edges}
    assert len(deleted) == 6
    assert all(g.size == 5 for g in deleted)


def test_delete_edge_error():
    with pytest.raises(ValueError):
        path_graph(3).delete_edge((1, 3))


def test_vertices_outside_the_range_are_not_adjacent():
    # 0 and -1 once wrapped round to vertex n, and n + 1 raised IndexError.
    g = path_graph(4)
    for u, v in [(0, 3), (3, 0), (-1, 3), (5, 4), (4, 5), (0, 0), (5, 5)]:
        assert not g.has_edge(u, v)
    assert g.has_edge(3, 4) and g.has_edge(4, 3)
    for v in (0, -1, 5):
        with pytest.raises(ValueError, match=f"vertex {v} out of range"):
            g.neighbors(v)
    for e in [(0, 3), (3, 0), (4, 5), (-1, 3)]:
        with pytest.raises(ValueError, match=r"not present"):
            g.delete_edge(e)
        with pytest.raises(ValueError, match=r"not present"):
            g.contract_edge(e)
    assert not is_cycle_of(complete_graph(4), (0, 1, 2))
    assert not is_cycle_of(complete_graph(4), (2, 3, 5))


def test_non_edges_are_the_missing_pairs_in_order():
    rng = random.Random(92)
    for n in range(8):
        g = random_graph(rng, n, rng.uniform(0.2, 0.8))
        expected = tuple(
            (u, v)
            for u in range(1, n + 1)
            for v in range(u + 1, n + 1)
            if (u, v) not in set(g.edges)
        )
        assert g.non_edges() == expected


def test_contract_k3_gives_k2():
    assert is_isomorphic(complete_graph(3).contract_edge((2, 3)), complete_graph(2))


@pytest.mark.parametrize("n", [3, 4, 5, 6])
def test_contract_complete_stays_complete(n):
    g = complete_graph(n)
    for e in g.edges:
        assert is_isomorphic(g.contract_edge(e), complete_graph(n - 1))


def test_contract_c4_gives_c3():
    g = cycle_graph(4)
    assert is_isomorphic(g.contract_edge((1, 2)), complete_graph(3))


def test_contract_missing_edge_error():
    with pytest.raises(ValueError):
        cycle_graph(4).contract_edge((1, 3))


def test_mutations_keep_graphs_well_formed():
    rng = random.Random(20240)
    for _ in range(200):
        g = random_graph(rng, rng.randint(2, 9), rng.uniform(0.2, 0.9))
        assert well_formed(g)
        if g.non_edges():
            added = g.add_edge(rng.choice(g.non_edges()))
            assert well_formed(added)
        if g.edges:
            e = rng.choice(g.edges)
            assert well_formed(g.delete_edge(e))
            contracted = g.contract_edge(e)
            assert well_formed(contracted)
            assert contracted.n == g.n - 1
        assert well_formed(g.delete_vertex(rng.randint(1, g.n)))


def degree_sum(g: Graph) -> int:
    return sum(len(g.neighbors(v)) for v in range(1, g.n + 1))


def test_size_is_right_however_the_graph_is_made():
    # The edge count is cached on first use; read every parent's first, so
    # a derived graph that inherited a stale count would show it.
    def check(g):
        assert g.size == len(g.edges) == degree_sum(g) // 2
        return g

    rng = random.Random(4417)
    for _ in range(100):
        g = check(random_graph(rng, rng.randint(1, 12), rng.uniform(0.1, 0.9)))
        check(Graph._from_masks(g._adj))
        check(decode_graph6(encode_graph6(g)))
        check(canonical_graph(g))
        perm = rng.sample(range(1, g.n + 1), g.n)
        check(g.relabel({i + 1: p for i, p in enumerate(perm)}))
        check(g.delete_vertex(rng.randint(1, g.n)))
        if g.non_edges():
            assert check(g.add_edge(rng.choice(g.non_edges()))).size == g.size + 1
        if g.edges:
            e = rng.choice(g.edges)
            assert check(g.delete_edge(e)).size == g.size - 1
            check(g.contract_edge(e))


def test_degree_sum_even_after_contraction():
    rng = random.Random(99)
    for _ in range(100):
        g = random_graph(rng, 8, 0.5)
        if not g.edges:
            continue
        c = g.contract_edge(rng.choice(g.edges))
        assert degree_sum(c) % 2 == 0
        assert degree_sum(c) == 2 * c.size


def test_is_connected():
    assert complete_graph(1).is_connected()
    two_triangles = disjoint_union(complete_graph(3), complete_graph(3))
    assert not two_triangles.is_connected()
    assert complete_graph(6).delete_edge((1, 2)).is_connected()
    assert not Graph(2).is_connected()


def test_enumerate_cycles_k4_triangles():
    assert len(enumerate_cycles(complete_graph(4), 3, 3)) == 4


def test_enumerate_cycles_c5_short_window_empty():
    assert enumerate_cycles(cycle_graph(5), 3, 4) == []


def test_enumerate_cycles_k5_count():
    # 10 triangles + 15 four-cycles + 12 five-cycles
    assert len(enumerate_cycles(complete_graph(5), 3, 5)) == 37


def test_enumerate_cycles_representative_convention():
    for cyc in enumerate_cycles(complete_graph(5), 3, 5):
        assert cyc == canonical_cycle(cyc)


def test_enumerate_cycles_rejects_bad_range():
    with pytest.raises(ValueError):
        enumerate_cycles(complete_graph(4), 2, 3)
    with pytest.raises(ValueError):
        enumerate_cycles(complete_graph(4), 4, 3)
    with pytest.raises(ValueError):
        enumerate_cycles(complete_graph(4), 3, 5)


def test_enumerate_cycles_matches_bruteforce_small_orders():
    for n in range(3, 6):
        for g in all_graphs_of_order(n):
            mine = set(enumerate_cycles(g, 3, n))
            assert mine == brute_cycles(g, 3, n)


def test_enumerate_cycles_matches_bruteforce_order6_sample():
    rng = random.Random(6)
    for _ in range(40):
        g = random_graph(rng, 6, rng.uniform(0.3, 0.9))
        assert set(enumerate_cycles(g, 3, 6)) == brute_cycles(g, 3, 6)


def test_is_cycle_of():
    g = cycle_graph(5)
    assert is_cycle_of(g, (1, 2, 3, 4, 5))
    assert not is_cycle_of(g, (1, 2, 3))
    assert not is_cycle_of(g, (1, 2, 2, 3))
    assert not is_cycle_of(complete_bipartite(2, 2), (1, 2))
