"""The planarity kernel against networkx's planarity test."""

import random
from itertools import combinations

import networkx as nx
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import torlink.planarity
from torlink import (
    Graph,
    complete_bipartite,
    complete_graph,
    disjoint_union,
    is_apex,
    is_planar,
    petersen_graph,
)
from torlink.search import isomorphism_classes

from bruteforce import random_graph, to_nx


def nx_planar(g: Graph) -> bool:
    return nx.check_planarity(to_nx(g))[0]


def nx_apex(g: Graph) -> bool:
    return g.n == 0 or any(
        nx_planar(g.delete_vertex(v)) for v in range(1, g.n + 1)
    )


def relabeled(rng, g: Graph) -> Graph:
    perm = rng.sample(range(1, g.n + 1), g.n)
    return g.relabel({i + 1: p for i, p in enumerate(perm)})


def test_examples():
    assert is_planar(Graph(0)) and is_apex(Graph(0))
    assert is_planar(complete_graph(4))
    assert not is_planar(complete_graph(5)) and is_apex(complete_graph(5))
    assert not is_planar(complete_bipartite(3, 3))
    assert is_apex(complete_bipartite(3, 3))
    assert not is_apex(complete_graph(6))
    assert not is_planar(petersen_graph()) and not is_apex(petersen_graph())
    # Within Euler's bound (10 <= 3n - 6), yet not planar.
    assert not is_planar(complete_bipartite(3, 3).add_edge((1, 2)))
    # Triangle-free with 2n - 4 edges, the most a planar one can have.
    assert is_planar(cube()) and cube().size == 2 * 8 - 4


@pytest.mark.parametrize("n", range(8))
def test_planarity_matches_networkx_on_all_classes(n):
    for g in isomorphism_classes(n):
        assert is_planar(g) == nx_planar(g), g
        assert is_apex(g) == nx_apex(g), g


@pytest.mark.slow
def test_planarity_matches_networkx_on_order8_classes(order8_classes):
    assert len(order8_classes) == 12346
    for g in order8_classes:
        assert is_planar(g) == nx_planar(g), g


def stacked_triangulation(rng, n: int) -> Graph:
    """A random maximal planar graph: each new vertex goes into a face."""
    edges = [(1, 2), (1, 3), (2, 3)]
    faces = [(1, 2, 3), (1, 2, 3)]
    for v in range(4, n + 1):
        a, b, c = faces.pop(rng.randrange(len(faces)))
        edges += [(a, v), (b, v), (c, v)]
        faces += [(a, b, v), (a, c, v), (b, c, v)]
    return Graph(n, edges)


def near_planar(rng, n: int) -> Graph:
    """A triangulation with some edges removed and up to 3 random edges
    added, so that inputs fall on both sides of planarity."""
    g = stacked_triangulation(rng, n)
    for e in rng.sample(g.edges, rng.randint(0, len(g.edges) // 3)):
        g = g.delete_edge(e)
    for _ in range(rng.randint(0, 3)):
        if g.non_edges():
            g = g.add_edge(rng.choice(g.non_edges()))
    return g


def subdivided(rng, g: Graph, n: int) -> Graph:
    """g with random edges subdivided until it has n vertices."""
    while g.n < n:
        u, v = rng.choice(g.edges)
        g = Graph(g.n + 1, [*g.delete_edge((u, v)).edges, (u, g.n + 1), (g.n + 1, v)])
    return g


def near_planar_union(rng, g: Graph) -> Graph:
    """g plus the edges of a random near-planar graph on its vertices;
    still non-planar, since g is a subgraph."""
    h = near_planar(rng, g.n)
    return Graph(g.n, set(g.edges) | set(h.edges))


def glued(g: Graph, h: Graph) -> Graph:
    """g and h sharing vertex 1, which is then a cut vertex."""
    shift = {v: 1 if v == 1 else g.n + v - 1 for v in range(1, h.n + 1)}
    return Graph(g.n + h.n - 1, [*g.edges, *((shift[u], shift[v]) for u, v in h.edges)])


def cube() -> Graph:
    """Q3: planar and triangle-free, with exactly 2n - 4 = 12 edges."""
    return Graph(8, [(u + 1, u + 1 + b) for u in range(8) for b in (1, 2, 4) if not u & b])


def random_bipartite(rng, n: int, extra: int) -> Graph:
    """A random triangle-free graph on n vertices with 2n - 4 + extra
    edges (or every edge across its two sides, if that is fewer)."""
    side = set(rng.sample(range(1, n + 1), rng.randint(2, n - 2)))
    across = [(u, v) for u, v in combinations(range(1, n + 1), 2) if (u in side) != (v in side)]
    return Graph(n, rng.sample(across, min(2 * n - 4 + extra, len(across))))


def _random_cases():
    rng = random.Random(307)
    for _ in range(300):
        n = rng.randint(9, 12)
        yield "random", random_graph(rng, n, rng.uniform(0.15, 0.45))
        yield "near-planar", near_planar(rng, n)
    for _ in range(100):
        a = rng.randint(3, 9)
        parts = near_planar(rng, a), near_planar(rng, rng.randint(3, 12 - a))
        yield "disconnected", relabeled(rng, disjoint_union(*parts))
        a = rng.randint(4, 9)
        parts = near_planar(rng, a), near_planar(rng, rng.randint(4, 13 - a))
        yield "cut-vertex", relabeled(rng, glued(*parts))
    for _ in range(60):
        for base in (complete_graph(5), complete_bipartite(3, 3)):
            g = subdivided(rng, base, rng.randint(9, 12))
            yield "subdivision", relabeled(rng, g)
            yield "subdivision+", relabeled(rng, near_planar_union(rng, g))
    # Triangle-free graphs at and above 2n - 4 edges, the most a planar
    # triangle-free graph can have (Euler's formula with faces of at least
    # four sides), so both verdicts are common; drawn from a Random of
    # their own, so the groups above stay as they were.
    rng = random.Random(311)
    fixed = [cube(), complete_bipartite(3, 3), complete_bipartite(3, 4)]
    fixed += [complete_bipartite(4, 4).delete_edge((1, 5)), petersen_graph()]
    for g in fixed:
        yield "triangle-free", relabeled(rng, g)
    for _ in range(200):
        n = rng.randint(6, 12)
        yield "triangle-free", random_bipartite(rng, n, rng.randint(0, 3))


def test_is_apex_publishes_no_witness_before_it_decides(monkeypatch):
    # Another thread may read g's witness while is_apex is testing; until
    # the answer is known it must find none there, never a provisional -1.
    g = complete_graph(5)
    seen = []
    planar = torlink.planarity._planar

    def spy(adj, alive):
        seen.append(g._witness)
        return planar(adj, alive)

    monkeypatch.setattr(torlink.planarity, "_planar", spy)
    assert is_apex(g)
    assert seen and all(w is None for w in seen)
    assert g._witness >= 0


def test_planarity_matches_networkx_on_random_orders_9_to_12():
    seen = {}
    for kind, g in _random_cases():
        expected = nx_planar(g)
        assert is_planar(g) == expected, (kind, g)
        seen.setdefault(kind, set()).add(expected)
    assert seen.pop("subdivision") == {False}
    assert seen.pop("subdivision+") == {False}
    assert all(verdicts == {True, False} for verdicts in seen.values()), seen


def test_apex_matches_networkx_on_random_orders_9_to_12():
    rng = random.Random(311)
    verdicts = set()
    for _ in range(150):
        n = rng.randint(9, 12)
        g = near_planar(rng, n)
        for _ in range(rng.randint(0, 6)):
            g = g.add_edge(rng.choice(g.non_edges()))
        verdict = is_apex(g)
        assert verdict == nx_apex(g), g
        verdicts.add(verdict)
    assert verdicts == {True, False}


@st.composite
def _graph_and_relabeling(draw):
    n = draw(st.integers(1, 12))
    pairs = list(combinations(range(1, n + 1), 2))
    edges = draw(st.lists(st.sampled_from(pairs), max_size=3 * n)) if pairs else []
    g = Graph(n, set(edges))
    perm = draw(st.permutations(range(1, n + 1)))
    return g, g.relabel({i + 1: p for i, p in enumerate(perm)})


@settings(max_examples=300, deadline=None, derandomize=True, database=None)
@given(_graph_and_relabeling())
def test_planarity_survives_relabeling(pair):
    g, h = pair
    assert is_planar(g) == is_planar(h) == nx_planar(g)
    assert is_apex(g) == is_apex(h)
