import dataclasses
import random
from collections import Counter
from itertools import combinations

import pytest

import torlink.canonical
import torlink.oracles
import torlink.planarity
import torlink.search
from torlink import (
    Graph,
    ObstructionDB,
    SearchContext,
    census_maxnil,
    certify_order,
    classify_maxnil,
    complete_bipartite,
    complete_graph,
    cycle_graph,
    decode_graph6,
    disjoint_union,
    encode_graph6,
    extract_obstruction_set,
    find_all_mtn_order9,
    find_links,
    is_apex,
    is_isomorphic,
    is_maxnil,
    is_mtn,
    is_nil,
    is_planar,
    is_subgraph_iso,
    is_tn,
    is_toroidal,
    mtn_search,
    parse_embedding,
    petersen_family,
    verify_size19_exclusion,
)
from torlink.canonical import automorphisms, canonical_form, canonical_graph
from torlink.errors import DataValidationError, UnsupportedOrderError
from torlink.oracles import order8_obstructions
from torlink.search import (
    CertificationEntry,
    _levels,
    _one_per_orbit,
    _top_children,
    isomorphism_classes,
)

from bruteforce import (
    _entries,
    brute_automorphisms,
    brute_fertile,
    brute_isomorphism_classes,
    packed_entries,
    pair_orbits,
    polya_graph_counts,
    random_graph,
    reference_top_children,
)
from test_canonical import cube_graph
from test_oracles import mtn_by_definition, relabeled
from test_torus import FIXTURE


def stacked_planar(n: int) -> Graph:
    """Planar triangulation built by repeatedly capping a facial triangle;
    planar, hence both nIL and embeddable anywhere we need."""
    g = complete_graph(4)
    faces = [(1, 2, 3), (1, 2, 4), (1, 3, 4), (2, 3, 4)]
    while g.n < n:
        a, b, c = faces.pop(0)
        v = g.n + 1
        g = Graph(v, list(g.edges) + [(a, v), (b, v), (c, v)])
        faces += [(a, b, v), (a, c, v), (b, c, v)]
    return g


def double_k5() -> Graph:
    """Two K5 blocks sharing the cut vertex 5: 20 edges, longest cycle 5."""
    block_a = [(u, v) for u in range(1, 6) for v in range(u + 1, 6)]
    block_b = [(u, v) for u in range(5, 10) for v in range(u + 1, 10)]
    return Graph(9, block_a + block_b)


def fake_db() -> ObstructionDB:
    """Synthetic database that forbids an 8-cycle minor; 'toroidal' then
    means circumference at most 7, which planar block graphs satisfy.
    The empty order-9 bucket declares order-9 queries supported."""
    return ObstructionDB({8: (cycle_graph(8),), 9: ()})


def make_ctx(toroidal=(), nontoroidal=(), db=None, floor=19) -> SearchContext:
    return SearchContext(
        tuple(toroidal), tuple(nontoroidal), db or fake_db(), floor
    )


def brute_search_keys(g: Graph, ctx: SearchContext) -> set[bytes]:
    """Literal unmemoized recursion; the oracle for mtn_search."""
    if (
        g.size <= ctx.size_floor
        or not g.is_connected()
        or any(is_subgraph_iso(g, m) for m in ctx.toroidal_maxnil)
    ):
        return set()
    if not is_toroidal(g, ctx.db):
        keys: set[bytes] = set()
        for e in g.edges:
            keys |= brute_search_keys(g.delete_edge(e), ctx)
        return keys
    return {canonical_form(g)}


# -- search guards -------------------------------------------------------------


def test_search_returns_toroidal_input():
    g = double_k5()
    assert g.size == 20 and is_nil(g)
    ctx = make_ctx()
    assert is_toroidal(g, ctx.db)
    result = mtn_search(g, ctx)
    assert len(result) == 1
    assert is_isomorphic(next(iter(result)), g)


def test_search_size_guard():
    g = double_k5()
    ctx = make_ctx(floor=20)
    assert mtn_search(g, ctx) == frozenset()


def test_search_connectivity_guard():
    apex = stacked_planar(7)
    apex = Graph(8, list(apex.edges) + [(8, v) for v in range(1, 8)])
    g = disjoint_union(apex, Graph(1))
    assert g.size == 22 and is_nil(g) and not g.is_connected()
    assert mtn_search(g, make_ctx()) == frozenset()


def test_search_subgraph_of_toroidal_maxnil_guard():
    g = stacked_planar(9)
    ctx = make_ctx(toroidal=(g,))
    assert mtn_search(g, ctx) == frozenset()


def test_search_preconditions():
    ctx = make_ctx()
    with pytest.raises(ValueError):
        mtn_search(complete_graph(8), ctx)
    with pytest.raises(ValueError):
        mtn_search(complete_graph(9), ctx)  # intrinsically linked


# -- recursion against the brute oracle ----------------------------------------


def bridged_double_k5() -> Graph:
    return double_k5().add_edge((1, 6))


def test_search_matches_bruteforce_depth2():
    g = bridged_double_k5()
    assert is_nil(g)
    ctx = make_ctx()
    assert not is_toroidal(g, ctx.db)
    result = {canonical_form(x) for x in mtn_search(g, ctx)}
    assert result == brute_search_keys(g, ctx)
    assert canonical_form(double_k5()) in result


def test_search_matches_bruteforce_depth3(monkeypatch):
    # Also: no state at or below the floor is canonized. The search
    # canonizes each state through `automorphisms`.
    sizes = []

    def recorder(g):
        sizes.append(g.size)
        return automorphisms(g)

    monkeypatch.setattr(torlink.search, "automorphisms", recorder)
    g = bridged_double_k5()
    ctx = make_ctx(floor=18)
    result = {canonical_form(x) for x in mtn_search(g, ctx)}
    assert sizes and min(sizes) > 18
    assert result == brute_search_keys(g, ctx)


def test_search_canonizes_each_labeled_state_once(monkeypatch):
    # Every state is an edge subset of the root, met once per order of its
    # deleted edges; only the first meeting may canonize it.
    states = []

    def recorder(g):
        states.append(g._adj)
        return automorphisms(g)

    monkeypatch.setattr(torlink.search, "automorphisms", recorder)
    g = bridged_double_k5()
    ctx = make_ctx(floor=17)
    result = {canonical_form(x) for x in mtn_search(g, ctx)}
    assert result == brute_search_keys(g, ctx)
    assert len(states) == len(set(states))
    # Every class above the floor is still keyed in ctx.cache.
    assert len(ctx.cache) == len({canonical_form(Graph._from_masks(a)) for a in states})


def circulant(n: int, jumps) -> Graph:
    return Graph(n, {tuple(sorted((i + 1, (i + j) % n + 1))) for i in range(n) for j in jumps})


def rook_graph() -> Graph:
    """K3 x K3, the 3x3 rook's graph: vertex-transitive, 18 edges."""
    cells = [(r, c) for r in range(3) for c in range(3)]
    return Graph(9, [
        (3 * a[0] + a[1] + 1, 3 * b[0] + b[1] + 1)
        for a, b in combinations(cells, 2)
        if a[0] == b[0] or a[1] == b[1]
    ])


@pytest.mark.parametrize(
    "root, floor, db",
    [
        (bridged_double_k5(), 17, fake_db()),
        # With C9 as the one obstruction, "toroidal" means non-Hamiltonian.
        (circulant(9, (1, 2)), 14, ObstructionDB({8: (), 9: (cycle_graph(9),)})),
        (circulant(9, (1, 3)), 14, ObstructionDB({8: (), 9: (cycle_graph(9),)})),
        (rook_graph(), 14, ObstructionDB({8: (), 9: (cycle_graph(9),)})),
    ],
    ids=["bridged-double-K5", "C9(1,2)", "C9(1,3)", "rook"],
)
def test_search_per_edge_orbit_matches_bruteforce_on_symmetric_roots(root, floor, db):
    # Symmetric roots give the orbit rule the most siblings to skip; the
    # relabelings move the orbits to other labels.
    assert is_nil(root)
    expected = brute_search_keys(root, SearchContext((), (), db, floor))
    assert expected
    rng = random.Random(2602)
    for _ in range(2):
        perm = rng.sample(range(1, 10), 9)
        h = root.relabel({i + 1: q for i, q in enumerate(perm)})
        assert automorphisms(h)
        ctx = SearchContext((), (), db, floor)
        assert {canonical_form(x) for x in mtn_search(h, ctx)} == expected


def test_search_result_ignores_the_root_labels():
    g = bridged_double_k5()
    expected = mtn_search(g, make_ctx(floor=18))
    shared = make_ctx(floor=18)
    rng = random.Random(1812)
    for _ in range(4):
        perm = rng.sample(range(1, 10), 9)
        h = g.relabel({i + 1: q for i, q in enumerate(perm)})
        assert mtn_search(h, make_ctx(floor=18)) == expected
        assert mtn_search(h, shared) == expected


# Upper bounds on the canonizations in the whole pipeline of the stand-in,
# and on the planarity tests in its is_mtn phase, from a cold is_nil memo.
# They are 12,477 and 1,351; they were 14,788 and 3,155 when the search
# tried every child, and is_mtn every extension, each tested for nIL from
# scratch.
PIPELINE_WORK = (12_500, 1_400)


@pytest.mark.slow
def test_search_at_workload_scale(monkeypatch):
    # The order-9 stand-in of the pipeline9 benchmark: cones over two
    # stacked triangulations as roots, C9 as the only order-9 obstruction
    # (so "toroidal" means non-Hamiltonian), floor 21.
    petersen_family()
    calls = Counter()
    core, planar = torlink.canonical._core_min_labeling, torlink.planarity._planar
    phase = []

    def counted_core(*args):
        calls["canonizations"] += 1
        return core(*args)

    def counted_planar(*args):
        if phase:
            calls["planar in is_mtn"] += 1
        return planar(*args)

    def in_phase(g, db):
        phase.append(g)
        try:
            return is_mtn(g, db)
        finally:
            phase.pop()

    monkeypatch.setattr(torlink.oracles, "_nil_memo", {})
    monkeypatch.setattr(torlink.canonical, "_core_min_labeling", counted_core)
    monkeypatch.setattr(torlink.planarity, "_planar", counted_planar)
    monkeypatch.setattr(torlink.search, "is_mtn", in_phase)
    roots = sorted(
        (canonical_graph(decode_graph6(g6)) for g6 in ("H~^edb~", "H~]rQr~")),
        key=canonical_form,
    )
    db = ObstructionDB({8: order8_obstructions(), 9: (cycle_graph(9),)})
    ctx = SearchContext((), tuple(roots), db, 21)
    calls.clear()
    report = find_all_mtn_order9(ctx)
    facts = {"search_candidates 79", "non_maxnil_mtn 11", "all_mtn 11"}
    assert facts <= set(report.to_text().splitlines())
    # One entry per distinct state above the floor that the search reached.
    assert len(ctx.cache) == 4441
    work = (calls["canonizations"], calls["planar in is_mtn"])
    assert all(a <= b for a, b in zip(work, PIPELINE_WORK)), work
    # The per-orbit, witness-carrying is_mtn agrees with the definition on
    # every candidate.
    kept = set(report.non_maxnil_mtn)
    for g in report.candidates:
        assert mtn_by_definition(g, db) == (g in kept), g


def test_context_fields_are_frozen():
    # The cache is keyed on the floor and the database it was filled
    # under, so neither may be swapped afterwards.
    ctx = make_ctx()
    with pytest.raises(dataclasses.FrozenInstanceError):
        ctx.size_floor = 18
    with pytest.raises(dataclasses.FrozenInstanceError):
        ctx.db = fake_db()
    # Nor can a filled cache be handed in: the search alone fills it.
    with pytest.raises(TypeError):
        SearchContext((), (), fake_db(), 19, {})
    assert ctx.cache == {}


def test_search_outputs_satisfy_guards():
    ctx = make_ctx(floor=18)
    for g in mtn_search(bridged_double_k5(), ctx):
        assert g.size > 18
        assert g.is_connected()
        assert is_toroidal(g, ctx.db)
        assert is_nil(g)


def test_search_idempotent_and_memo_consistent():
    g = bridged_double_k5()
    shared = make_ctx()
    first = mtn_search(g, shared)
    second = mtn_search(g, shared)
    fresh = mtn_search(g, make_ctx())
    assert first == second == fresh


def test_found_graph_recovered_from_extensions():
    # Soundness at test scale: a found graph all of whose nIL one-edge
    # extensions leave the family must reappear when searching from them.
    ctx = make_ctx()
    for h in mtn_search(bridged_double_k5(), ctx):
        for e in h.non_edges():
            extended = h.add_edge(e)
            if not is_nil(extended) or is_toroidal(extended, ctx.db):
                continue
            found = mtn_search(extended, ctx)
            assert any(is_isomorphic(x, h) for x in found)


# -- classify_maxnil ------------------------------------------------------------


def test_classify_rejects_wrong_count():
    with pytest.raises(DataValidationError):
        classify_maxnil([], fake_db())
    with pytest.raises(DataValidationError):
        classify_maxnil([complete_graph(9)] * 3, fake_db())


def test_classify_rejects_wrong_order():
    with pytest.raises(DataValidationError):
        classify_maxnil([complete_graph(8)] * 20, fake_db())


def test_classify_rejects_padded_non_maxnil():
    padded = disjoint_union(complete_graph(6).delete_edge((1, 2)), Graph(3))
    with pytest.raises(DataValidationError):
        classify_maxnil([padded] * 20, fake_db())


def test_classify_rejects_isomorphic_graphs():
    planar = stacked_planar(8)
    cone = Graph(9, list(planar.edges) + [(9, v) for v in range(1, 9)])
    relabeled = cone.relabel({v: 10 - v for v in range(1, 10)})
    assert relabeled != cone and is_maxnil(cone)
    with pytest.raises(DataValidationError, match="^graphs 1 and 2 are isomorphic$"):
        classify_maxnil([cone] * 20, fake_db())
    with pytest.raises(DataValidationError, match="^graphs 1 and 2 are isomorphic$"):
        classify_maxnil([cone, relabeled] + [cone] * 18, fake_db())


# -- obstruction extraction -----------------------------------------------------


def test_extract_requires_order9_data():
    ctx = make_ctx(db=ObstructionDB.builtin())
    with pytest.raises(UnsupportedOrderError):
        extract_obstruction_set(ctx)


def test_extract_synthetic():
    host = complete_graph(9).delete_edge((1, 2))
    db = ObstructionDB(
        {8: order8_obstructions(), 9: (cycle_graph(9), complete_graph(9))}
    )
    ctx = make_ctx(nontoroidal=(host,), db=db)
    hits = extract_obstruction_set(ctx)
    assert len(hits.subgraphs) == 1
    assert is_isomorphic(hits.subgraphs[0], cycle_graph(9))
    # K9-e keeps a K8, so every order-8 obstruction shows up as a minor.
    assert len(hits.order8_minors) == 3


def test_extract_empty_nontoroidal():
    db = ObstructionDB({8: order8_obstructions(), 9: (cycle_graph(9),)})
    hits = extract_obstruction_set(make_ctx(db=db))
    assert hits.subgraphs == ()
    assert hits.order8_minors == ()


# -- size-19 exclusion ----------------------------------------------------------


def test_exclusion_vacuous_on_empty_set():
    assert verify_size19_exclusion((), ObstructionDB.builtin())


def test_exclusion_fails_on_k9():
    db = ObstructionDB({8: order8_obstructions(), 9: ()})
    assert not verify_size19_exclusion((complete_graph(9),), db)


def test_exclusion_passes_on_recoverable_graph():
    # Deleting any edge of the 8-cycle "obstruction" leaves a path; putting
    # any chord back keeps the circumference below 8, restoring membership.
    db = fake_db()
    assert verify_size19_exclusion((cycle_graph(8),), db)


def exclusion_by_definition(obstructions, db: ObstructionDB) -> bool:
    """`verify_size19_exclusion` with no orbit rule: every edge of every
    obstruction is deleted, and every non-edge of what is left is tried.
    `delete_edge` and `add_edge` make graphs that carry no witness."""
    reduced = [h.delete_edge(e) for h in obstructions for e in h.edges]
    return all(any(is_tn(g.add_edge(f), db) for f in g.non_edges()) for g in reduced)


def test_exclusion_matches_definition():
    # The order-8 obstructions with the built-in set, C8 and C9 with a
    # database that forbids C8 and with one that forbids C9, K9 with the
    # built-in order-8 set, each on its own and relabeled twice. Also K8
    # less a net (a triangle with a pendant edge at each corner): some of
    # its deletions have TN extensions in one orbit of non-edges only,
    # which is not the first one tried.
    rng = random.Random(2702)
    builtin = ObstructionDB.builtin()
    c9_db = ObstructionDB({8: order8_obstructions(), 9: (cycle_graph(9),)})
    net = [(1, 2), (1, 3), (2, 3), (1, 4), (2, 5), (3, 6)]
    k8_less_net = Graph(8, [e for e in complete_graph(8).edges if e not in net])
    cases = [(obs, builtin) for obs in order8_obstructions() + (k8_less_net,)]
    cases += [(cycle_graph(n), db) for n in (8, 9) for db in (fake_db(), c9_db)]
    cases += [(complete_graph(9), ObstructionDB({8: order8_obstructions(), 9: ()}))]
    answers = Counter()
    for h, db in cases:
        for k in (h, relabeled(h, rng), relabeled(h, rng)):
            expected = exclusion_by_definition((k,), db)
            assert verify_size19_exclusion((k,), db) == expected, k
            answers[expected] += 1
    assert answers[True] and answers[False]
    # C9 less (1, 2) is the path 2, 3, ..., 9, 1. Its first non-edge
    # closes C9 again, so the exclusion needs a later one.
    path = cycle_graph(9).delete_edge((1, 2))
    assert not is_tn(path.add_edge(path.non_edges()[0]), c9_db)
    assert verify_size19_exclusion((cycle_graph(9),), c9_db)


# -- full pipeline on synthetic data ---------------------------------------------


def test_find_all_mtn_with_empty_roots():
    m = stacked_planar(9)
    ctx = make_ctx(toroidal=(m,))
    report = find_all_mtn_order9(ctx)
    assert report.candidates == ()
    assert report.non_maxnil_mtn == ()
    assert len(report.all_mtn) == 1
    assert is_isomorphic(report.all_mtn[0], m)
    assert "kind=maxnil" in report.to_text()


def test_find_all_mtn_synthetic_pipeline():
    ctx = make_ctx(nontoroidal=(bridged_double_k5(),))
    report = find_all_mtn_order9(ctx)
    keys = {canonical_form(g) for g in report.candidates}
    assert keys == brute_search_keys(bridged_double_k5(), ctx)
    assert canonical_form(double_k5()) in keys
    expected = tuple(g for g in report.candidates if is_mtn(g, ctx.db))
    assert report.non_maxnil_mtn == expected
    assert any(is_isomorphic(g, double_k5()) for g in report.non_maxnil_mtn)
    text = report.to_text()
    assert text == find_all_mtn_order9(make_ctx(nontoroidal=(bridged_double_k5(),))).to_text()
    assert "kind=search roots=1" in text


# -- small-order census -----------------------------------------------------------


def test_isomorphism_class_counts():
    expected = {1: 1, 2: 2, 3: 4, 4: 11, 5: 34, 6: 156, 7: 1044}
    for n, count in expected.items():
        assert len(isomorphism_classes(n)) == count


@pytest.mark.slow
def test_isomorphism_class_count_order8():
    classes = isomorphism_classes(8)
    assert len(classes) == 12346
    assert len({canonical_form(g) for g in classes}) == 12346


def test_isomorphism_classes_match_bruteforce():
    # The top-edge filter must keep one child of every class that the
    # unfiltered closure finds, and classes stay grouped by edge count.
    for n in range(8):
        classes = isomorphism_classes(n)
        keys = [canonical_form(g) for g in classes]
        assert len(set(keys)) == len(keys)
        assert set(keys) == {
            canonical_form(g) for g in brute_isomorphism_classes(n)
        }
        sizes = [g.size for g in classes]
        assert sizes == sorted(sizes)


def test_isomorphism_class_levels_match_polya_counts(order8_classes):
    # An oracle that shares nothing with the generator: every level's
    # class count is the Polya count of graphs by order and size.
    for n in range(9):
        classes = order8_classes if n == 8 else isomorphism_classes(n)
        sizes = Counter(g.size for g in classes)
        assert [sizes[m] for m in range(n * (n - 1) // 2 + 1)] == polya_graph_counts(n)


def invariant_of(g: Graph) -> tuple[int, ...]:
    return tuple(sorted(_entries(g._adj, [m.bit_count() for m in g._adj])))


def wagner_graph() -> Graph:
    """The 8-cycle with its four long diagonals: cubic and triangle-free,
    like the cube, but not bipartite."""
    return Graph(8, [(i, i % 8 + 1) for i in range(1, 9)] + [(i, i + 4) for i in range(1, 5)])


def test_invariant_survives_relabeling_and_packs_exactly():
    rng = random.Random(61)
    graphs = [random_graph(rng, n, rng.uniform(0.1, 0.9)) for n in range(1, 13) for _ in range(8)]
    # K12 and K1,11 reach the packing bounds: degree 11, degree sum 121,
    # common-neighbour sum 110.
    graphs += [complete_graph(12), complete_bipartite(1, 11)]
    for g in graphs:
        expected = invariant_of(g)
        # Unpacked, each vertex's entry is its triple, and the invariant is
        # the sorted entries.
        triples = [
            (
                len(g.neighbors(v)),
                sum(len(g.neighbors(w)) for w in g.neighbors(v)),
                sum(len(set(g.neighbors(v)) & set(g.neighbors(w))) for w in g.neighbors(v)),
            )
            for v in range(1, g.n + 1)
        ]
        entries = _entries(g._adj, [m.bit_count() for m in g._adj])
        assert [(x >> 16, x >> 8 & 255, x & 255) for x in entries] == triples
        assert expected == tuple(sorted(entries))
        for _ in range(3):
            labels = list(range(1, g.n + 1))
            rng.shuffle(labels)
            h = g.relabel(dict(zip(range(1, g.n + 1), labels)))
            assert invariant_of(h) == expected
    assert invariant_of(complete_graph(12)) == (11 << 16 | 121 << 8 | 110,) * 12


def test_cube_and_wagner_share_a_group_and_both_survive(order8_classes):
    cube, wagner = cube_graph(), wagner_graph()
    assert not is_isomorphic(cube, wagner)
    assert invariant_of(cube) == invariant_of(wagner)
    keys = {canonical_form(g) for g in order8_classes}
    assert canonical_form(cube) in keys and canonical_form(wagner) in keys


def test_grouping_canonizes_only_shared_invariants(monkeypatch):
    # The census canonizes in two places only: each member of a group that
    # holds two or more children, and a parent with two children in one
    # group, for the automorphisms that keep one child per orbit. At these
    # orders no two classes share an invariant, so every group it canonizes
    # holds copies of one class, from different parents; the first shared
    # invariants, the cube's and the Wagner graph's among them, have order 8.
    forms = []
    parents = []

    def recorder(g):
        forms.append(g)
        return canonical_form(g)

    def parent_recorder(g):
        parents.append(g)
        return automorphisms(g)

    monkeypatch.setattr(torlink.search, "canonical_form", recorder)
    monkeypatch.setattr(torlink.search, "automorphisms", parent_recorder)
    for n in range(4, 8):
        forms.clear()
        parents.clear()
        classes = isomorphism_classes(n)
        assert parents
        groups = {(g.size, invariant_of(g)) for g in classes}
        assert len(groups) == len(classes)
        shared = Counter((g.size, invariant_of(g)) for g in forms)
        assert all(count > 1 for count in shared.values())
        assert len({canonical_form(g) for g in forms}) == len(shared)
        # A parent is a class of the level below, not a child.
        ids = {id(g) for g in classes}
        assert all(id(g) in ids for g in parents)


def test_isomorphism_classes_order7_canonization_count(monkeypatch):
    # Canonizing every top-edge child made 1,896 calls here; grouping the
    # children by the invariant made 1,273, trying one non-edge per twin
    # orbit made 842, breaking top-edge ties by the entries made 556, and
    # keeping one sibling per orbit of its parent's automorphisms makes 30,
    # plus 139 canonizations of parents for their automorphisms.
    calls = []

    def recorder(g):
        calls.append(g)
        return canonical_form(g)

    def parent_recorder(g):
        calls.append(g)
        return automorphisms(g)

    monkeypatch.setattr(torlink.search, "canonical_form", recorder)
    monkeypatch.setattr(torlink.search, "automorphisms", parent_recorder)
    assert len(isomorphism_classes(7)) == 1044
    assert len(calls) <= 175


def test_siblings_are_kept_one_per_orbit_of_the_parents_automorphisms():
    # Of a parent's children in one group, _one_per_orbit keeps the first
    # of each orbit of the automorphism group on their new edges,
    # whole-group orbits taken by brute force.
    rng = random.Random(2519)
    merged = 0
    for g in [g for n in range(3, 8) for g in isomorphism_classes(n)]:
        h = g.relabel(dict(zip(range(1, g.n + 1), rng.sample(range(1, g.n + 1), g.n))))
        by_key = {}
        for key, top, child, edge, packed in _top_children(h, packed_entries(h)):
            if top:
                by_key.setdefault(key, []).append((edge, (child, 0, packed)))
        orbits = pair_orbits(h.n, brute_automorphisms(h))
        orbit_of = {pair: orbit for orbit in orbits for pair in orbit}

        for pairs in by_key.values():
            kept = _one_per_orbit(automorphisms(h), pairs)
            assert len(kept) == len({orbit_of[e] for e, _ in pairs})
            assert {orbit_of[e] for e, _ in kept} == {orbit_of[e] for e, _ in pairs}
            first = {}
            for pair in pairs:
                first.setdefault(orbit_of[pair[0]], pair)
            assert kept == list(first.values())
            merged += len(pairs) - len(kept)
    assert merged > 50


def assert_children_match_reference(classes, rng):
    # Each class and 3 relabelings of it, two of them with their apex witness,
    # so that the twin classes, the apex vertex and the prefilter's ends
    # move to other labels.
    for g in classes:
        parents = [g]
        for k in range(3):
            labels = list(range(1, g.n + 1))
            rng.shuffle(labels)
            h = g.relabel(dict(zip(range(1, g.n + 1), labels)))
            if k:
                is_apex(h)
            parents.append(h)
        for h in parents:
            children = list(_top_children(h, packed_entries(h)))
            assert [(key, top, c, c._apex) for key, top, c, _, _ in children] == [
                (key, top, c, c._apex) for key, top, c in reference_top_children(h)
            ], h.edges
            for _, _, c, edge, carried in children:
                assert [x for x in range(h.n) if c._adj[x] != h._adj[x]] == list(edge)
                assert carried == packed_entries(c), c.edges
                assert c.size == sum(m.bit_count() for m in c._adj) // 2


def test_top_children_match_reference():
    # The degree-only prefilter drops only children that _ties rejects,
    # and the entries carried from the parent are those of the child.
    rng = random.Random(2417)
    assert_children_match_reference(
        [g for n in range(8) for g in isomorphism_classes(n)], rng
    )


@pytest.mark.slow
def test_top_children_match_reference_order8(order8_classes):
    assert_children_match_reference(order8_classes, random.Random(2418))


# Per order: _ties calls, canonizations of children, canonizations of
# parents for their automorphisms. _ties made 4,957 and 75,286 calls before
# the degree-only prefilter, and the children were canonized 556 and 4,096
# times before siblings were kept one per orbit.
CENSUS_WORK = {7: (1995, 32, 138), 8: (24367, 721, 909)}


@pytest.mark.parametrize(
    "n, children", [(7, 1546), pytest.param(8, 17282, marks=pytest.mark.slow)]
)
def test_census_computes_each_child_key_once(monkeypatch, n, children):
    # A child's entries come from its parent's: the walk computes none
    # from scratch. The prefilter leaves _ties only the children it cannot
    # reject by degrees, and neither changes which children are yielded.
    # The orbit rule canonizes each parent with two children in one group
    # once, and only the siblings it leaves in groups of two or more are
    # canonized.
    calls = Counter()
    ties = torlink.search._ties
    top_children, form = torlink.search._top_children, torlink.search.canonical_form
    autos = torlink.search.automorphisms

    def counted_ties(masks, deg, u, v):
        calls["ties"] += 1
        return ties(masks, deg, u, v)

    def counted_children(g, packed):
        for item in top_children(g, packed):
            calls["children"] += 1
            yield item

    def counted_form(g):
        calls["forms"] += 1
        return form(g)

    def counted_autos(g):
        calls["parents"] += 1
        return autos(g)

    monkeypatch.setattr(torlink.search, "_ties", counted_ties)
    monkeypatch.setattr(torlink.search, "_top_children", counted_children)
    monkeypatch.setattr(torlink.search, "canonical_form", counted_form)
    monkeypatch.setattr(torlink.search, "automorphisms", counted_autos)
    census_maxnil(n)
    assert calls["children"] == children
    assert (calls["ties"], calls["forms"], calls["parents"]) == CENSUS_WORK[n]


@pytest.mark.parametrize("keep", [is_nil, is_planar])
def test_isomorphism_classes_keep_matches_bruteforce(keep):
    # keep is closed under subgraphs, so filtering the levels loses none of
    # the classes it accepts and keeps none it rejects.
    for n in range(8):
        classes = isomorphism_classes(n, keep)
        keys = [canonical_form(g) for g in classes]
        assert len(set(keys)) == len(keys)
        assert set(keys) == {
            canonical_form(g) for g in brute_isomorphism_classes(n) if keep(g)
        }
        sizes = [g.size for g in classes]
        assert sizes == sorted(sizes)


def nil_walk(n: int) -> tuple[int, list[Graph]]:
    """(number of nIL classes, the barren ones) from one walk of order n."""
    count = 0
    barren = []
    for level, level_barren in _levels(n, is_nil):
        count += len(level)
        barren.extend(level_barren)
    return count, barren


def test_every_maxnil_class_is_barren():
    for n in range(1, 8):
        count, barren = nil_walk(n)
        assert count == len(isomorphism_classes(n, is_nil))
        barren_keys = {canonical_form(g) for g in barren}
        assert len(barren_keys) == len(barren)
        maxnil = [g for g in isomorphism_classes(n) if is_maxnil(g)]
        assert maxnil
        assert {canonical_form(g) for g in maxnil} <= barren_keys
        # Barren is not maxnIL: some barren classes have a nIL extension
        # whose added edge is not a top edge.
        if n >= 5:
            assert len(barren_keys) > len(maxnil)


def test_barren_classes_match_bruteforce_fertility():
    # A class is barren iff no non-edge, every one tried, gives a nIL child
    # whose new edge is a top edge under the three-part f. Spare children,
    # which lose on the entries, are never grouped, so only the fallback
    # over them keeps the barren sets exact.
    for n in range(1, 8):
        barren = set()
        classes = []
        for level, level_barren in _levels(n, is_nil):
            classes += level
            barren |= {canonical_form(g) for g in level_barren}
        assert barren == {
            canonical_form(g) for g in classes if not brute_fertile(g, is_nil)
        }


def test_barren_counts_orders_6_and_7():
    assert len(nil_walk(6)[1]) == 65
    assert len(nil_walk(7)[1]) == 448


def apex_witness_holds(g: Graph) -> bool:
    """g's apex witness, checked from scratch."""
    if g._apex >= 0:
        return is_planar(g.delete_vertex(g._apex + 1))
    return not any(is_planar(g.delete_vertex(w)) for w in range(1, g.n + 1))


def test_inherited_apex_witnesses_hold():
    # A child whose new edge touches its parent's apex vertex inherits it,
    # and a child of a non-apex parent inherits that. keep sees each class
    # representative, IL ones included, with the witness it inherited.
    # Relabeled copies of every graph keep saw move the apex vertex and the
    # twin classes to other labels, and all their top-edge children are
    # checked too; the IL copies are the non-apex parents.
    rng = random.Random(2113)
    seen = []
    inherited = []

    def keep(g):
        seen.append(g)
        if g._apex is not None:
            inherited.append(g)
        return is_nil(g)

    for n in range(1, 8):
        seen.clear()
        for _ in _levels(n, keep):
            pass
        for g in seen:
            for _ in range(2):
                labels = list(range(1, n + 1))
                rng.shuffle(labels)
                h = g.relabel(dict(zip(range(1, n + 1), labels)))
                is_apex(h)
                inherited += [
                    c
                    for _, _, c, _, _ in _top_children(h, packed_entries(h))
                    if c._apex is not None
                ]
    assert all(apex_witness_holds(g) for g in inherited)
    kinds = Counter(g._apex >= 0 for g in inherited)
    assert kinds[True] > 1000 and kinds[False] > 10


def test_is_maxnil_reads_the_witness_keep_left(monkeypatch):
    # keep=is_nil runs the apex test on every class it accepts that has as
    # many edges as a Petersen-family graph, and leaves its witness there,
    # so is_maxnil on such a barren class needs no planarity test at all.
    # Sparser classes are settled by the size bound alone and carry none.
    # Every order-7 nIL class is apex.
    barren = [g for _, level_barren in _levels(7, is_nil) for g in level_barren]
    witnessed = [g for g in barren if g._apex is not None]
    assert all(g.size < 15 for g in barren if g._apex is None)
    assert witnessed and all(g._apex >= 0 for g in witnessed)
    calls = []
    planar = torlink.planarity._planar

    def counted(adj, alive):
        calls.append(alive)
        return planar(adj, alive)

    monkeypatch.setattr(torlink.planarity, "_planar", counted)
    verdicts = Counter(is_maxnil(g) for g in witnessed)
    assert not calls
    assert verdicts[True] == len(census_maxnil(7))


def test_is_maxnil_decides_sparse_graphs_by_size(monkeypatch):
    # A graph with a non-edge and fewer than 14 edges has a one-edge
    # extension below the 15 edges of every Petersen-family graph, which
    # is nIL, so is_maxnil rejects it with no planarity test, even on the
    # sparse barren classes that carry no apex witness.
    barren = [g for _, level_barren in _levels(7, is_nil) for g in level_barren]
    sparse = [g for g in barren if g.size < 14]
    assert any(g._apex is None for g in sparse)
    calls = []
    planar = torlink.planarity._planar

    def counted(adj, alive):
        calls.append(alive)
        return planar(adj, alive)

    monkeypatch.setattr(torlink.planarity, "_planar", counted)
    assert not any(is_maxnil(g) for g in sparse)
    assert not calls


@pytest.mark.slow
def test_order8_census_tests_only_barren_classes(order8_classes):
    count, barren = nil_walk(8)
    assert (count, len(barren)) == (11667, 5097)
    maxnil = {canonical_form(g) for g in order8_classes if is_maxnil(g)}
    assert len(maxnil) == 6
    assert {canonical_form(g) for g in barren if is_maxnil(g)} == maxnil
    assert {canonical_form(g) for g in census_maxnil(8)} == maxnil


def test_census_bounds():
    with pytest.raises(UnsupportedOrderError):
        census_maxnil(2)
    with pytest.raises(UnsupportedOrderError):
        census_maxnil(10)


def test_census_tiny_orders_are_complete_graphs():
    for n in (3, 4, 5):
        result = census_maxnil(n)
        assert len(result) == 1
        assert is_isomorphic(result[0], complete_graph(n))


def test_census_members_are_maxnil_and_distinct():
    from torlink import is_maxnil

    for n in (5, 6, 7):
        result = census_maxnil(n)
        assert len({canonical_form(g) for g in result}) == len(result)
        assert all(g.n == n for g in result)
        assert all(is_maxnil(g) for g in result)


def test_all_small_maxnil_graphs_are_mtn():
    db = ObstructionDB.builtin()
    for n in (6, 7):
        for g in census_maxnil(n):
            assert is_mtn(g, db)


@pytest.mark.slow
def test_all_order8_maxnil_graphs_are_mtn():
    db = ObstructionDB.builtin()
    graphs = census_maxnil(8)
    assert len(graphs) == 6
    assert [encode_graph6(g) for g in graphs] == [
        "Gtn^^k", "Gtvf~w", "G}r^^k", "G}ve~[", "G~zf^g", "GLvf~w"
    ]
    for g in graphs:
        assert is_mtn(g, db)


# -- certification -----------------------------------------------------------------


def k6_minus_e() -> Graph:
    return complete_graph(6).delete_edge((1, 2))


def test_certify_bundled_embedding_passes():
    diagram = parse_embedding(FIXTURE.read_text())
    report = certify_order([k6_minus_e()], [("k6_minus_e.emb", diagram)])
    assert report.overall_pass
    assert report.unmatched == ()
    assert report.entries[0].linkless
    assert "overall=pass" in report.to_text()


TWO_TRIANGLES = (
    "order 6\nedges 1-2 2-3 1-3 4-5 5-6 4-6\nup 1->2 4->5\nright 2->3 5->6\n"
)


def test_certify_flags_linked_embedding():
    g = Graph(6, [(1, 2), (2, 3), (1, 3), (4, 5), (5, 6), (4, 6)])
    linked = find_links(parse_embedding(TWO_TRIANGLES))
    assert linked
    diagram = parse_embedding(TWO_TRIANGLES)
    report = certify_order([g], [("two.emb", diagram)])
    assert not report.overall_pass
    assert not report.entries[0].linkless
    assert report.entries[0].witnesses
    assert "LINKED" in report.to_text()
    assert str(report.entries[0].witnesses[0]) == "[1 2 3] [4 5 6] slope=1/1"
    assert report.to_text() == (
        "certify graphs=1\n"
        "graph EJaG embedding=two.emb linkless=false -> LINKED\n"
        "  link: [1 2 3] [4 5 6] slope=1/1\n"
        "overall=fail\n"
    )


def test_certification_verdict_is_read_from_witnesses():
    entry = CertificationEntry(k6_minus_e(), "k6_minus_e.emb", (), ())
    assert entry.linkless and entry.verdict == "ok"
    linked = dataclasses.replace(
        entry, witnesses=tuple(find_links(parse_embedding(TWO_TRIANGLES)))
    )
    assert not linked.linkless and linked.verdict == "LINKED"
    invalid = dataclasses.replace(entry, warnings=("clash",))
    assert invalid.linkless and invalid.verdict == "INVALID"
    assert [f.name for f in dataclasses.fields(CertificationEntry)] == [
        "graph", "embedding_name", "witnesses", "warnings"
    ]


def test_certify_empty_set_vacuous_pass():
    report = certify_order([], [])
    assert report.overall_pass
    assert "overall=pass" in report.to_text()


def test_certify_first_isomorphic_diagram_wins():
    g = Graph(6, [(1, 2), (2, 3), (1, 3), (4, 5), (5, 6), (4, 6)])
    linked = parse_embedding(
        "order 6\nedges 1-2 2-3 1-3 4-5 5-6 4-6\nup 1->2 4->5\nright 2->3 5->6\n"
    )
    # The same two triangles, relabeled and drawn without crossings.
    unlinked = parse_embedding("order 6\nedges 1-4 4-6 1-6 2-3 3-5 2-5\nup\nright\n")
    report = certify_order(
        [g, k6_minus_e()], [("a.emb", linked), ("b.emb", unlinked)]
    )
    (entry,) = report.entries
    assert entry.embedding_name == "a.emb"
    assert not entry.linkless
    assert report.unmatched == (canonical_graph(k6_minus_e()),)
    assert "unmatched -> MISSING" in report.to_text()
    report = certify_order(
        [g, k6_minus_e()], [("a.emb", unlinked), ("b.emb", linked)]
    )
    (entry,) = report.entries
    assert entry.embedding_name == "a.emb"
    assert entry.linkless
    assert report.unmatched == (canonical_graph(k6_minus_e()),)


def test_certify_reports_unmatched():
    report = certify_order([k6_minus_e()], [])
    assert not report.overall_pass
    assert len(report.unmatched) == 1
    assert "MISSING" in report.to_text()
