import random
from collections import Counter
from itertools import combinations

import networkx as nx
import pytest

from torlink import (
    Graph,
    ObstructionDB,
    complete_bipartite,
    complete_graph,
    cycle_graph,
    decode_graph6,
    disjoint_union,
    encode_graph6,
    is_apex,
    is_isomorphic,
    is_maxnil,
    is_mtn,
    is_nil,
    is_planar,
    is_subgraph_iso,
    is_tn,
    is_toroidal,
    petersen_family,
    petersen_graph,
)
from torlink import containment, oracles
from torlink.canonical import canonical_form
from torlink.containment import contains_any_minor
from torlink.errors import DataValidationError, UnsupportedOrderError
from torlink.oracles import carry_witness, order8_obstructions
from torlink.planarity import apex_scan
from torlink.search import _top_children, isomorphism_classes

from bruteforce import (
    all_graphs_of_order,
    brute_core,
    brute_petersen_family,
    complete_multipartite,
    delta_y,
    min_degree,
    packed_entries,
    random_graph,
    to_nx,
    y_delta,
)

# The one nIL class of order 8 that is not apex: a maxnIL graph of size 21.
NON_APEX_MAXNIL = "G~qkz{"


def k6_minus_e() -> Graph:
    return complete_graph(6).delete_edge((1, 2))


def subdivided(g: Graph, k: int, rng) -> Graph:
    """g with k edges subdivided in turn, each new vertex numbered last."""
    for _ in range(k):
        u, v = rng.choice(g.edges)
        w = g.n + 1
        g = Graph(w, [e for e in g.edges if e != (u, v)] + [(u, w), (v, w)])
    return g


def with_edges(g: Graph, k: int, rng) -> Graph:
    """g plus k of its non-edges, or all of them if it has fewer."""
    for _ in range(min(k, len(g.non_edges()))):
        g = g.add_edge(rng.choice(g.non_edges()))
    return g


def relabeled(g: Graph, rng) -> Graph:
    perm = rng.sample(range(1, g.n + 1), g.n)
    return g.relabel({i + 1: p for i, p in enumerate(perm)})


def below_maders_bound(g: Graph) -> bool:
    return g.size < 4 * g.n - 9


# -- Petersen family ----------------------------------------------------------


def test_family_has_seven_members():
    assert len(petersen_family()) == 7


def test_family_table_is_the_exchange_closure_of_k6():
    # The same labeled graphs in the same order, not only the same classes.
    closure = brute_petersen_family()
    family = petersen_family()
    assert len(closure) == len(family)
    for computed, stored in zip(closure, family):
        assert (computed.n, computed.edges) == (stored.n, stored.edges)


def test_family_orders_and_sizes():
    fam = petersen_family()
    assert sorted(g.n for g in fam) == [6, 7, 7, 8, 8, 9, 10]
    assert all(g.size == 15 for g in fam)


def test_family_pairwise_non_isomorphic():
    fam = petersen_family()
    assert len({canonical_form(g) for g in fam}) == 7


def test_family_contains_seed_and_petersen_graph():
    fam = petersen_family()
    assert any(is_isomorphic(g, complete_graph(6)) for g in fam)
    assert any(is_isomorphic(g, petersen_graph()) for g in fam)


def test_family_closed_under_exchange_moves():
    fam = petersen_family()
    keys = {canonical_form(g) for g in fam}
    for g in fam:
        for tri in combinations(range(1, g.n + 1), 3):
            a, b, c = tri
            if g.has_edge(a, b) and g.has_edge(a, c) and g.has_edge(b, c):
                assert canonical_form(delta_y(g, tri)) in keys
        for v in range(1, g.n + 1):
            nbrs = g.neighbors(v)
            if len(nbrs) == 3 and not any(
                g.has_edge(x, y) for x, y in combinations(nbrs, 2)
            ):
                assert canonical_form(y_delta(g, v)) in keys


def test_delta_y_preserves_size():
    fam = petersen_family()
    g = fam[0]
    tri = next(
        t for t in combinations(range(1, g.n + 1), 3)
        if g.has_edge(t[0], t[1]) and g.has_edge(t[0], t[2]) and g.has_edge(t[1], t[2])
    )
    assert delta_y(g, tri).size == g.size


# -- nIL ----------------------------------------------------------------------


def test_is_nil_examples():
    assert is_nil(complete_graph(5))
    assert not is_nil(complete_graph(6))
    assert is_nil(k6_minus_e())
    assert not is_nil(order8_obstructions()[2])
    assert not is_nil(complete_graph(7))
    assert not is_nil(petersen_graph())


def test_nil_is_minor_closed_small():
    reps = {}
    for n in range(1, 6):
        for g in all_graphs_of_order(n):
            reps.setdefault(canonical_form(g), g)
    for g in reps.values():
        if not is_nil(g):
            continue
        for e in g.edges:
            assert is_nil(g.delete_edge(e))
            assert is_nil(g.contract_edge(e))


def test_nil_minor_closed_random_order6():
    rng = random.Random(71)
    for _ in range(30):
        g = random_graph(rng, 6, rng.uniform(0.4, 1.0))
        if not is_nil(g) or not g.edges:
            continue
        e = rng.choice(g.edges)
        assert is_nil(g.delete_edge(e))
        assert is_nil(g.contract_edge(e))


# -- nIL certificates -----------------------------------------------------------


def test_petersen_family_is_not_apex():
    # Apex graphs are minor-closed, so with this no apex graph has a
    # Petersen-family minor: an apex graph is nIL.
    for g in petersen_family():
        assert not is_apex(g)
        for v in range(1, g.n + 1):
            h = g.delete_vertex(v)
            assert not is_planar(h)
            assert not nx.check_planarity(to_nx(h))[0]


def test_graphs_past_maders_bound_are_il(order8_classes):
    memo = {}
    dense = [
        g
        for g in [*(g for n in (6, 7) for g in isomorphism_classes(n)), *order8_classes]
        if g.size >= 4 * g.n - 9
    ]
    # Complements of the graphs with at most 0, 2 and 5 edges.
    assert len(dense) == 1 + 4 + 44
    for g in dense:
        assert contains_any_minor(g, petersen_family(), memo), g


def _agrees_with_minor_dag(graphs):
    memo = {}
    for g in graphs:
        assert is_nil(g) == (not contains_any_minor(g, petersen_family(), memo)), g


def test_is_nil_matches_minor_dag_on_small_classes():
    _agrees_with_minor_dag(g for n in range(8) for g in isomorphism_classes(n))


@pytest.mark.slow
def test_is_nil_matches_minor_dag_on_order8_classes(order8_classes):
    _agrees_with_minor_dag(order8_classes)


def test_is_nil_on_relabeled_non_apex_maxnil_graph():
    g = decode_graph6(NON_APEX_MAXNIL)
    assert not is_apex(g)
    rng = random.Random(331)
    relabelings = []
    for _ in range(8):
        perm = rng.sample(range(1, 9), 8)
        h = g.relabel({i + 1: p for i, p in enumerate(perm)})
        relabelings += [h, *(h.add_edge(e) for e in h.non_edges())]
    _agrees_with_minor_dag(relabelings)
    assert all(is_maxnil(h) for h in relabelings[:: 1 + len(g.non_edges())])


def test_only_non_apex_inputs_reach_the_minor_dag(monkeypatch):
    memo = {}
    monkeypatch.setattr(oracles, "_nil_memo", memo)
    assert is_nil(k6_minus_e())  # apex
    assert is_nil(cycle_graph(9))  # planar
    assert not is_nil(complete_graph(7))  # past Mader's bound
    assert memo == {}
    g = decode_graph6(NON_APEX_MAXNIL)
    assert is_nil(g)
    assert memo[canonical_form(g)] is False


def test_is_nil_answers_witnessed_and_sparse_graphs_without_the_dag(monkeypatch):
    # An apex witness that names a vertex answers nIL, and so does having
    # fewer edges than every Petersen-family graph; contains_any_minor is
    # never called for either.
    calls = []

    def counted(g, *rest):
        calls.append(g)
        return contains_any_minor(g, *rest)

    monkeypatch.setattr(oracles, "contains_any_minor", counted)
    assert oracles._petersen_fewest_edges() == min(p.size for p in petersen_family()) == 15
    # K1,2,2,2: a vertex joined to the octahedron, apex with 18 edges.
    witnessed = complete_multipartite(1, 2, 2, 2)
    assert witnessed.size == 18 and is_apex(witnessed) and witnessed._witness >= 0
    rng = random.Random(43)
    sparse = [random_graph(rng, n, 0.5) for n in range(6, 13)]
    sparse = [g for g in sparse if g.size < 15] + [cycle_graph(12), k6_minus_e()]
    assert len(sparse) > 4
    assert is_nil(witnessed) and all(is_nil(g) for g in sparse)
    assert calls == []
    # The same graph without its witness goes to the minor DAG.
    fresh = Graph(witnessed.n, witnessed.edges)
    assert is_nil(fresh) and calls == [fresh]


def test_is_nil_trusts_only_a_witness_that_names_a_vertex():
    # Every Petersen-family graph has exactly the fewest edges, and the
    # apex test leaves -1 on it: neither early answer may call it nIL.
    rng = random.Random(47)
    for p in petersen_family():
        g = relabeled(p, rng)
        assert g._witness is None and g.size == 15
        assert not is_nil(g)
        assert not is_apex(g) and g._witness == -1
        assert not is_nil(g)


def test_a_pending_claim_is_not_a_witness():
    # P = K5 with a pendant vertex is apex through some vertex w; a child
    # P + uv with u, v != w holds the pending claim of w and uv. is_nil
    # answers it by size (12 edges) and leaves the claim, which names no
    # vertex: is_apex must test the child, not read the claim, and
    # carry_witness must hand a grandchild nothing.
    rng = random.Random(3101)
    k5_pendant = Graph(6, list(complete_graph(5).edges) + [(1, 6)])
    for _ in range(4):
        p = relabeled(k5_pendant, rng)
        assert is_apex(p)
        w = p._witness
        u, v = next((u - 1, v - 1) for u, v in p.non_edges() if w not in (u - 1, v - 1))
        child = carry_witness(p.add_edge((u + 1, v + 1)), p, u, v)
        claim = ~(w << 8 | u << 4 | v)
        assert child._witness == claim <= -2 and child.size < 15
        assert is_nil(child) and child._witness == claim
        x, y = child.non_edges()[0]
        grandchild = carry_witness(child.add_edge((x, y)), child, x - 1, y - 1)
        assert grandchild._witness is None
        fresh = Graph(child.n, child.edges)
        assert is_apex(fresh) and is_apex(child) == is_apex(fresh)
        assert child._witness >= 0
        assert is_planar(child.delete_vertex(child._witness + 1))


def test_a_decided_route_is_not_run_again(monkeypatch):
    # The non-apex maxnIL graph less its edge 12 is apex through vertex 4,
    # so adding 12 back gives a child with a pending claim. Its route ends
    # not apex, and leaves -1: a second is_nil goes straight to the minor
    # DAG's memo, with no planarity test and no pinned subgraph test.
    g = decode_graph6(NON_APEX_MAXNIL)
    p = g.delete_edge((1, 2))
    assert is_apex(p) and p._witness == 4
    child = carry_witness(p.add_edge((1, 2)), p, 0, 1)
    assert child == g and child._witness == ~(4 << 8 | 0 << 4 | 1)
    assert is_nil(child) and child._witness == -1
    planar_without = oracles.planar_without
    planar, pinned = [], []

    def counted_planar(adj, w):
        planar.append(w)
        return planar_without(adj, w)

    def counted_subgraph(pattern, host, pin=None):
        if pin is not None:
            pinned.append(pin)
        return is_subgraph_iso(pattern, host, pin)

    monkeypatch.setattr(oracles, "planar_without", counted_planar)
    monkeypatch.setattr(oracles, "is_subgraph_iso", counted_subgraph)
    assert is_nil(child) and child._witness == -1
    assert planar == [] and pinned == []


def test_reducible_inputs_keep_their_own_apex_witness():
    # is_nil settles an input as given before the search moves on to its
    # core, so the witness left on the input is the apex scan of the input
    # itself: a vertex for the apex graph, -1 for the IL and for the
    # non-apex nIL graph.
    rng = random.Random(3301)
    inputs = [
        (subdivided(complete_graph(6), 3, rng), False),
        (subdivided(k6_minus_e(), 3, rng), True),
        (subdivided(decode_graph6(NON_APEX_MAXNIL), 2, rng), True),
    ]
    witnesses = set()
    for g, nil in inputs:
        g = relabeled(g, rng)
        assert min_degree(g) == 2 and g.size >= 15 and g._witness is None
        assert is_nil(g) == nil
        assert g._witness == apex_scan(g._adj, -1)
        witnesses.add(g._witness >= 0)
    assert witnesses == {True, False}


def test_certificates_settle_every_minor_dag_state(monkeypatch):
    # Only states that neither Mader's bound nor the apex certificate
    # decides are canonized. The IL input has a degree-2 vertex: it is
    # settled as given, which leaves the apex scan's -1 on it, and its
    # core is canonized without being settled again. Every other state
    # canonized is the nIL input, a core, or a core below either.
    seen = []

    def recording(g):
        seen.append(g)
        return canonical_form(g)

    monkeypatch.setattr(oracles, "_nil_memo", {})
    monkeypatch.setattr(containment, "canonical_form", recording)
    rng = random.Random(8)
    k6 = subdivided(complete_graph(6), 5, rng)
    il = with_edges(k6, 8, rng)
    nil = relabeled(decode_graph6(NON_APEX_MAXNIL), rng)
    assert (il.n, il.size) == (11, 28) and min_degree(il) == 2
    assert il._witness is None
    assert min_degree(nil) >= 3
    assert not is_nil(il) and il._witness == -1
    assert is_nil(nil)
    core = canonical_form(brute_core(il))
    others = [g for g in seen if canonical_form(g) != core]
    assert il not in seen and len(others) == len(seen) - 1
    assert nil in others
    for g in others:
        assert below_maders_bound(g) and not is_apex(g), g
        assert min_degree(g) >= 3, g


def census_children(parents, rng):
    """The children `_top_children` makes of each parent and of a relabeling
    of it, each parent after its apex test, so that the children of an apex
    parent whose new edge misses the apex vertex take the relative route."""
    for g in parents:
        for h in (g, relabeled(g, rng)):
            is_apex(h)
            for _, child, _, _ in _top_children(h, packed_entries(h)):
                yield child


def assert_children_match_minor_dag(children) -> Counter:
    # The settle-free DAG shares no shortcut with the relative route. Every
    # witness a verdict leaves is checked from scratch. A pending claim
    # (<= -2) stays only on a child that a Petersen-family copy through
    # its new edge shows IL, or that is nIL by size.
    memo = {}
    kinds = Counter()
    for c in children:
        claim = c._witness if c._witness is not None and c._witness < -1 else None
        expected = not contains_any_minor(c, petersen_family(), memo)
        assert is_nil(c) == expected, c
        w = c._witness
        if w is not None and w >= 0:
            assert is_planar(c.delete_vertex(w + 1)), c
        elif w == -1:
            assert not any(is_planar(c.delete_vertex(v)) for v in range(1, c.n + 1)), c
        if claim is None:
            kinds["plain"] += 1
        elif not expected:
            kinds["IL"] += 1
            copy = any(is_subgraph_iso(p, c) for p in petersen_family())
            assert w == (claim if copy else -1), c
            if not copy:
                kinds["IL, no family subgraph"] += 1
        elif w == claim:
            assert c.size < 15, c
            kinds["nIL by size"] += 1
        elif w == ~claim >> 8:
            kinds["apex through w"] += 1
        elif w >= 0:
            kinds["apex through another vertex"] += 1
        else:
            kinds["nIL, not apex"] += 1
    return kinds


def test_is_nil_decides_census_children_through_the_new_edge():
    # Every child of every class of order <= 7 and of a relabeled copy of
    # it, and the children of the one non-apex nIL class of order 8, whose
    # witness is -1: they must not take the relative route.
    rng = random.Random(2501)
    classes = [g for n in range(8) for g in isomorphism_classes(n)]
    parents = classes + [relabeled(g, rng) for g in classes]
    parents += [relabeled(decode_graph6(NON_APEX_MAXNIL), rng) for _ in range(4)]
    kinds = assert_children_match_minor_dag(census_children(parents, rng))
    assert kinds["IL"] > 10 and kinds["IL, no family subgraph"] > 0
    assert kinds["apex through w"] > 100 and kinds["apex through another vertex"] > 0
    assert kinds["plain"] > 1000


@pytest.mark.slow
def test_is_nil_decides_order8_census_children_through_the_new_edge(order8_classes):
    kinds = assert_children_match_minor_dag(
        census_children(order8_classes, random.Random(2502))
    )
    assert kinds["IL"] > 500 and kinds["IL, no family subgraph"] > 10
    assert kinds["apex through another vertex"] > 100 and kinds["nIL, not apex"] > 0


def test_is_nil_matches_minor_dag_at_orders_9_to_11():
    # Non-apex graphs below Mader's bound are the ones the minor DAG
    # decides; each order must supply both verdicts among them.
    rng = random.Random(9011)
    graphs = []
    for n in (9, 10, 11):
        for _ in range(4):
            graphs.append(random_graph(rng, n, rng.uniform(0.25, 0.6)))
            g = subdivided(decode_graph6(NON_APEX_MAXNIL), n - 8, rng)
            graphs.append(relabeled(with_edges(g, rng.randint(0, 1), rng), rng))
            p = rng.choice([p for p in petersen_family() if p.n <= n])
            g = subdivided(p, n - p.n, rng)
            graphs.append(relabeled(with_edges(g, rng.randint(0, 8), rng), rng))
    _agrees_with_minor_dag(graphs)
    kinds = {
        (g.n, is_nil(g))
        for g in graphs
        if below_maders_bound(g) and not is_apex(g)
    }
    assert kinds == {(n, v) for n in (9, 10, 11) for v in (True, False)}


# -- obstructions and toroidality ---------------------------------------------


def test_order8_obstruction_sizes():
    assert [g.size for g in order8_obstructions()] == [25, 24, 22]
    assert all(g.n == 8 for g in order8_obstructions())


def test_order8_obstructions_pairwise_distinct():
    assert len({canonical_form(g) for g in order8_obstructions()}) == 3


def test_is_toroidal_examples():
    db = ObstructionDB.builtin()
    assert is_toroidal(complete_graph(7), db)
    assert is_toroidal(complete_graph(4), db)
    for obs in order8_obstructions():
        assert not is_toroidal(obs, db)


def test_obstruction_contractions_are_toroidal():
    db = ObstructionDB.builtin()
    for obs in order8_obstructions():
        for e in obs.edges:
            assert is_toroidal(obs.contract_edge(e), db)


def test_planar_order5_graphs_toroidal():
    db = ObstructionDB.builtin()
    for g in all_graphs_of_order(5):
        assert is_toroidal(g, db)


def test_toroidal_unsupported_order():
    db = ObstructionDB.builtin()
    with pytest.raises(UnsupportedOrderError):
        is_toroidal(complete_graph(9), db)


def test_toroidality_minor_closed_random_order8():
    db = ObstructionDB.builtin()
    rng = random.Random(73)
    for _ in range(15):
        g = random_graph(rng, 8, rng.uniform(0.6, 1.0))
        if not is_toroidal(g, db) or not g.edges:
            continue
        e = rng.choice(g.edges)
        assert is_toroidal(g.delete_edge(e), db)
        assert is_toroidal(g.contract_edge(e), db)


def test_db_supported_order_bookkeeping():
    assert ObstructionDB({}).max_supported_order == 7
    assert ObstructionDB.builtin().max_supported_order == 8
    with_gap = ObstructionDB({8: order8_obstructions(), 10: (complete_graph(10),)})
    assert with_gap.max_supported_order == 8
    both = ObstructionDB({8: order8_obstructions(), 9: ()})
    assert both.max_supported_order == 9


def test_db_rejects_bad_orders():
    with pytest.raises(DataValidationError):
        ObstructionDB({7: (complete_graph(7),)})
    with pytest.raises(DataValidationError):
        ObstructionDB({8: (complete_graph(7),)})


def test_db_from_dir(tmp_path):
    (tmp_path / "obstructions_order9.g6").write_text(
        encode_graph6(complete_graph(9)) + "\n"
    )
    db = ObstructionDB.from_dir(tmp_path)
    assert db.max_supported_order == 9
    assert len(db.by_order[8]) == 3


def test_db_by_order_is_read_only():
    # patterns, max_supported_order and memo are derived from by_order
    # once, so by_order must not change under them.
    db = ObstructionDB.builtin()
    with pytest.raises(TypeError):
        db.by_order[10] = ()
    assert list(db.by_order) == [8]
    assert db.patterns == db.by_order[8]


def test_db_from_dir_checks_order8_agreement(tmp_path):
    (tmp_path / "obstructions_order8.g6").write_text(
        encode_graph6(complete_graph(8)) + "\n"
    )
    with pytest.raises(DataValidationError):
        ObstructionDB.from_dir(tmp_path)
    good = tmp_path / "sub"
    good.mkdir()
    (good / "obstructions_order8.g6").write_text(
        "".join(encode_graph6(g) + "\n" for g in order8_obstructions())
    )
    assert ObstructionDB.from_dir(good).max_supported_order == 8
    # relabeled and reordered, the same three classes still agree
    moved = tmp_path / "moved"
    moved.mkdir()
    perm = {v: 9 - v for v in range(1, 9)}
    relabeled = [g.relabel(perm) for g in order8_obstructions()[::-1]]
    (moved / "obstructions_order8.g6").write_text(
        "".join(encode_graph6(g) + "\n" for g in relabeled)
    )
    assert ObstructionDB.from_dir(moved).max_supported_order == 8
    # three graphs, but one class three times: not the built-in set
    copies = tmp_path / "copies"
    copies.mkdir()
    (copies / "obstructions_order8.g6").write_text(
        (encode_graph6(order8_obstructions()[0]) + "\n") * 3
    )
    with pytest.raises(DataValidationError):
        ObstructionDB.from_dir(copies)


# -- TN and maximality ----------------------------------------------------------


def test_is_tn_examples():
    db = ObstructionDB.builtin()
    assert is_tn(k6_minus_e(), db)
    assert not is_tn(complete_graph(6), db)
    assert not is_tn(order8_obstructions()[2], db)


def test_is_maxnil_examples():
    assert is_maxnil(k6_minus_e())
    assert not is_maxnil(complete_graph(6))
    assert is_maxnil(complete_graph(3))
    assert is_maxnil(complete_graph(5))
    assert not is_maxnil(complete_graph(4).delete_edge((1, 2)))


def _maxnil_by_definition(g: Graph) -> bool:
    return is_nil(g) and all(not is_nil(g.add_edge(e)) for e in g.non_edges())


def test_is_maxnil_matches_definition_on_small_classes():
    # Each class and two relabelings of it, so that the apex vertex and the
    # extensions' witnesses move to other labels.
    rng = random.Random(2603)
    for n in range(3, 8):
        for g in isomorphism_classes(n):
            for h in (g, relabeled(g, rng), relabeled(g, rng)):
                assert is_maxnil(h) == _maxnil_by_definition(h), h


@pytest.mark.slow
def test_is_maxnil_matches_definition_on_order8_classes(order8_classes):
    for g in order8_classes:
        assert is_maxnil(g) == _maxnil_by_definition(g), g


# The order-9 maxnIL graphs that are not apex. Every nIL graph of order
# <= 7 is apex, and is_maxnil settles apex graphs by edge count, so only
# graphs like these (and G~qkz{ in the slow order-8 test) reach its
# per-orbit extension test.
NON_APEX_MAXNIL_ORDER9 = (
    "HHT{~Nz", "HHU^F~}", "Hjeh}vf", "HJ]\\]^v", "H`]u~^{", "HJ`|}~n"
)


def test_is_maxnil_matches_definition_past_the_apex_rule():
    # Each graph, two relabelings, and four one-edge deletions of each of
    # those. A deletion that is still not apex is nIL and not maxnIL, and
    # is_maxnil must find an extension that shows it. The definition runs
    # on a copy that carries no witness.
    rng = random.Random(2701)
    kinds = Counter()
    for g6 in NON_APEX_MAXNIL_ORDER9:
        g = decode_graph6(g6)
        for h in (g, relabeled(g, rng), relabeled(g, rng)):
            for k in [h] + [h.delete_edge(e) for e in rng.sample(h.edges, 4)]:
                fresh = Graph._from_masks(k._adj)
                expected = _maxnil_by_definition(fresh)
                assert is_maxnil(k) == expected, k
                kinds[expected, is_apex(fresh)] += 1
    assert kinds[True, False] == 18 and kinds[False, False] >= 18


def test_is_maxnil_decides_apex_graphs_by_edge_count(monkeypatch):
    def no_dag(g):
        raise AssertionError(f"is_nil asked about {g}")

    monkeypatch.setattr(oracles, "is_nil", no_dag)
    assert is_maxnil(k6_minus_e())  # apex, 14 = 4 * 6 - 10 edges
    assert not is_maxnil(k6_minus_e().delete_edge((3, 4)))
    assert is_maxnil(complete_graph(4))
    apex_over_planar = Graph(
        9, list(cycle_graph(8).edges) + [(9, v) for v in range(1, 9)]
    )
    assert not is_maxnil(apex_over_planar)


def test_is_mtn_examples():
    db = ObstructionDB.builtin()
    assert is_mtn(k6_minus_e(), db)
    assert not is_mtn(complete_graph(6), db)
    for obs in order8_obstructions():
        assert not is_mtn(obs, db)


def mtn_by_definition(g: Graph, db: ObstructionDB) -> bool:
    """`is_mtn` with no witness and no orbit rule: g is tested on a copy
    that carries nothing, and so is every extension by a non-edge."""
    fresh = Graph._from_masks(g._adj)
    return is_tn(fresh, db) and all(
        not is_tn(Graph._from_masks(g._adj).add_edge(e), db) for e in g.non_edges()
    )


def test_is_mtn_matches_definition_on_small_classes():
    # Each class of order <= 7 and two relabelings of it, and the order-8
    # obstructions less an edge, which are toroidal, with relabelings.
    # is_mtn hands each extension the witness g's own test left: a vertex,
    # -1, or none (no witness, or a pending claim) when is_nil decided g by
    # size (fewer than 15 edges, as K6 - e), and each kind must occur among
    # the MTN graphs.
    rng = random.Random(2604)
    db = ObstructionDB.builtin()
    graphs = [g for n in range(3, 8) for g in isomorphism_classes(n)]
    graphs += [obs.delete_edge(e) for obs in order8_obstructions() for e in obs.edges]
    graphs += [decode_graph6(NON_APEX_MAXNIL)]
    kinds = Counter()
    for g in graphs:
        expected = mtn_by_definition(g, db)
        for h in (g, relabeled(g, rng), relabeled(g, rng)):
            assert is_mtn(h, db) == expected, h
            if expected:
                w = h._witness
                kinds["none" if w is None or w < -1 else min(w, 0)] += 1
    assert kinds["none"] and kinds[0] and kinds[-1]


def test_maximality_implies_membership():
    db = ObstructionDB.builtin()
    rng = random.Random(79)
    for _ in range(40):
        g = random_graph(rng, rng.randint(3, 7), rng.uniform(0.3, 1.0))
        if is_maxnil(g):
            assert is_nil(g)
        if g.n <= db.max_supported_order and is_mtn(g, db):
            assert is_tn(g, db)


def test_padded_small_graph_not_maxnil():
    padded = disjoint_union(k6_minus_e(), Graph(3))
    assert padded.n == 9
    assert not is_maxnil(padded)


def test_mtn_unsupported_order_raises():
    db = ObstructionDB.builtin()
    with pytest.raises(UnsupportedOrderError):
        is_mtn(complete_graph(9).delete_edge((1, 2)), db)


def test_bipartite_k44_minus_e_is_il():
    # A Petersen-family member itself: must not be nIL.
    assert not is_nil(complete_bipartite(4, 4).delete_edge((1, 5)))


def test_cycle_graphs_are_nil():
    for n in range(3, 10):
        assert is_nil(cycle_graph(n))
