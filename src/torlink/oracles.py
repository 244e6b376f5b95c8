"""Forbidden-minor predicates: intrinsic linking and toroidality.

A graph is nIL (admits a linkless spatial embedding) exactly when it has no
member of the Petersen family as a minor (Robertson, Seymour & Thomas,
*Sachs' linkless embedding conjecture*, JCTB 1995); it is toroidal exactly
when it has no toroidal obstruction as a minor. The Petersen family is
generated here as the triangle/star exchange closure of K6. The order-8
obstructions are built from their known descriptions; obstruction lists for
higher orders come from data files.

`is_nil` is the minor DAG of `contains_any_minor` over the Petersen family,
with the module memo and two certificates as its settling rule. Each is
exact on its own, and they are tried on every state of the DAG, the input
included, before that state is canonized:

1. Mader's bound. A graph with n >= 6 vertices and at least 4n - 9 edges
   has a K6 minor (Mader 1968), and K6 is in the Petersen family: IL.
2. The apex certificate. If deleting some vertex leaves a planar graph,
   the graph is apex and so nIL (Sachs 1983): apex graphs form a
   minor-closed class, and no Petersen-family graph is apex.

Only states that neither settles are canonized, pattern-tested, expanded
and memoized; the DAG stays the one decision procedure for them. Before
the DAG, `is_nil` answers an input that carries an apex witness naming a
vertex, or that has fewer edges than every Petersen-family graph, as nIL.

This module alone reads and writes the apex witness (see `Graph`), which
`is_apex`, `is_nil` and `carry_witness` fill. `carry_witness` fills
every one-edge extension C = P + uv from P's apex witness: the census
children of `search.isomorphism_classes`, and the extensions of
`is_maximal`, the maximality test of `is_maxnil`, `is_mtn` and
`search.verify_size19_exclusion`. A C whose P is apex through a vertex w
other than u and v carries w and uv (`Graph._grown`) and is
decided from what P proved, before it is canonized. First C is apex
through w when C - w = (P - w) + uv is planar: one planarity test, which
almost every such nIL child passes. Otherwise, since P is nIL, every
Petersen-family minor of C uses uv, so the subgraph test is pinned to
that edge (`is_subgraph_iso` with ``pin``); a copy found means IL. If
none is found, the rest of the apex scan runs, skipping w, and a graph
that is not apex goes to the minor DAG with ``edge`` = uv, which skips
C's own subgraph test and the reductions of C that are minors of P. Each
step is exact on its own, so the verdict and the witness left on C are
those of the plain route, up to which apex vertex is named.

`is_toroidal` answers for the database it is given, with no shortcut: a
database may hold stand-in obstructions, for which neither "planar implies
toroidal" nor an Euler bound holds.
"""

from __future__ import annotations

import re
from functools import lru_cache
from itertools import combinations
from pathlib import Path
from types import MappingProxyType

from .canonical import automorphisms, canonical_form, canonical_graph, orbits_of_pairs
from .containment import contains_any_minor, is_subgraph_iso
from .errors import DataValidationError, UnsupportedOrderError
from .graph6 import read_graph6_file
from .graphs import MAX_ORDER, Graph, complete_graph
from .planarity import apex_scan, planar_without

# No toroidal obstruction has fewer than 8 vertices.
SMALLEST_OBSTRUCTION_ORDER = 8


def delta_y(g: Graph, triangle: tuple[int, int, int]) -> Graph:
    """Replace a triangle by a new degree-3 vertex joined to its corners."""
    a, b, c = triangle
    out = g.delete_edge((a, b)).delete_edge((a, c)).delete_edge((b, c))
    new = g.n + 1
    return Graph(new, list(out.edges) + [(a, new), (b, new), (c, new)])


def y_delta(g: Graph, v: int) -> Graph:
    """Replace a degree-3 vertex with pairwise non-adjacent neighbors by a
    triangle on those neighbors."""
    nbrs = g.neighbors(v)
    if len(nbrs) != 3:
        raise ValueError(f"vertex {v} does not have degree 3")
    for x, y in combinations(nbrs, 2):
        if g.has_edge(x, y):
            raise ValueError("neighbors are not pairwise non-adjacent")
    out = g
    for x, y in combinations(nbrs, 2):
        out = out.add_edge((x, y))
    return out.delete_vertex(v)


@lru_cache(maxsize=1)
def petersen_family() -> tuple[Graph, ...]:
    """The closure of K6 under both exchange moves: seven graphs.

    Star moves that would need a parallel edge are skipped, keeping every
    intermediate graph simple; the closure is still complete.
    """
    seed = canonical_graph(complete_graph(6))
    found = {seed}
    frontier = [seed]
    while frontier:
        g = frontier.pop()
        candidates = []
        for tri in combinations(range(1, g.n + 1), 3):
            a, b, c = tri
            if g.has_edge(a, b) and g.has_edge(a, c) and g.has_edge(b, c):
                candidates.append(delta_y(g, tri))
        for v in range(1, g.n + 1):
            nbrs = g.neighbors(v)
            if len(nbrs) == 3 and not any(
                g.has_edge(x, y) for x, y in combinations(nbrs, 2)
            ):
                candidates.append(y_delta(g, v))
        for cand in candidates:
            rep = canonical_graph(cand)
            if rep not in found:
                found.add(rep)
                frontier.append(rep)
    return tuple(sorted(found, key=lambda g: (g.n, canonical_form(g))))


# Keyed by canonical form and only ever asked about the fixed Petersen
# family, so no entry goes stale; `check FILE` and `census_maxnil` share it.
# Only graphs that `_settle_nil` leaves open reach it.
_nil_memo: dict[bytes, bool] = {}


def is_apex(g: Graph) -> bool:
    """True iff deleting at most one vertex of g leaves a planar graph.

    The outcome is kept on g as its witness (see `Graph`): the vertex that
    `apex_scan` finds, or -1 for none. A witness already there is the
    answer.
    """
    if g.n == 0:
        return True
    if g._apex is None:
        # Set once, when decided, so a concurrent call never reads a
        # provisional witness.
        g._apex = apex_scan(g._adj, -1)
    return g._apex >= 0


def _settle_nil(g: Graph) -> bool | None:
    """Whether g has a Petersen-family minor, when a certificate says so.

    True past Mader's bound, False for an apex graph, None otherwise.
    """
    if g.n >= 6 and g.size >= 4 * g.n - 9:
        return True
    if is_apex(g):
        return False
    return None


@lru_cache(maxsize=1)
def _petersen_fewest_edges() -> int:
    """The fewest edges of any Petersen-family graph: a graph with fewer
    has none of them as a minor, since a minor has no more edges than its
    host."""
    return min(p.size for p in petersen_family())


def is_nil(g: Graph) -> bool:
    """True iff g has no Petersen-family minor (linkless embeddings exist).

    Two answers need no minor search: g is nIL when it carries an apex
    witness that names a vertex (see `Graph`), since apex graphs are
    nIL, and when it has fewer edges than every Petersen-family graph.
    A one-edge extension g = P + uv built from P's apex witness, where P
    has an apex vertex w other than u and v (`Graph._grown`; see
    `carry_witness`), is decided through its new edge; see the module
    docstring. Every other graph goes to the minor DAG, with Mader's bound
    and the apex certificate settling its states.
    """
    if g._apex is not None and g._apex >= 0:
        return True
    if g.size < _petersen_fewest_edges():
        return True
    family = petersen_family()
    edge = None
    if g._grown is not None:
        w, u, v = g._grown >> 8, g._grown >> 4 & 15, g._grown & 15
        if planar_without(g._adj, w):
            g._apex = w
            return True
        edge = (u, v)
        if any(is_subgraph_iso(p, g, edge) for p in family):
            return False
        g._apex = apex_scan(g._adj, w)
        if g._apex >= 0:
            return True
    return not contains_any_minor(g, family, _nil_memo, _settle_nil, edge)


def is_maxnil(g: Graph) -> bool:
    """True iff g is nIL and every single-edge addition destroys that.

    An apex graph with n >= 4 vertices is maxnIL iff it has exactly
    4n - 10 edges. Say G - v is planar. Then |E| <= (n - 1) + 3(n - 1) - 6
    = 4n - 10, since v has at most n - 1 neighbours and G - v, planar on
    n - 1 >= 3 vertices, at most 3(n - 1) - 6 edges. Below that bound
    either v has a non-neighbour w, and G + vw is apex through v; or G - v
    is planar but not a triangulation, so some edge e keeps G - v + e
    planar and G + e is apex through v. Either way G + e is nIL, so G is
    not maxnIL. At the bound G is nIL, and each G + e has 4n - 9 edges,
    which for n >= 6 gives a K6 minor by Mader's bound; for n = 4 and 5
    the bound is n(n - 1)/2, so G is complete and has no G + e to test.
    K3 (n = 3) takes the general path. `is_apex` answers from g's apex
    witness when one is there, as on the barren classes of
    `census_maxnil` that its `is_nil` call tested for apex.

    A graph with a non-edge e whose size + 1 is below the fewest edges of
    any Petersen-family graph is not maxnIL, with no apex test: g + e has
    too few edges for a Petersen-family minor, so it is nIL.

    Only a graph that is not apex reaches `is_maximal`, which hands each
    g + e the witness -1, so its `is_nil` runs no apex scan.
    """
    if g.size + 1 < _petersen_fewest_edges() and g.size < g.n * (g.n - 1) // 2:
        return False
    if g.n >= 4 and is_apex(g):
        return g.size == 4 * g.n - 10
    return is_nil(g) and is_maximal(g, is_nil)


def carry_witness(child: Graph, g: Graph, u: int, v: int) -> Graph:
    """Fill child = g + uv (0-based u, v) from g's apex witness w; return
    child. With w = -1 g is not apex, and neither is g + uv,
    since (g + uv) - x contains the non-planar g - x for every x. With
    w = u or v, (g + uv) - w = g - w is planar. With another vertex w, g
    is nIL, and child carries w and uv as `Graph._grown`, from which
    `is_nil` decides it through its new edge. With no witness, nothing."""
    w = g._apex
    if w is not None and (w < 0 or w == u or w == v):
        child._apex = w
    elif w is not None:
        child._grown = w << 8 | u << 4 | v
    return child


def is_maximal(g: Graph, has) -> bool:
    """True iff no g + e, e a non-edge of g, has the isomorphism-invariant
    property `has`. Each g + e is built by `carry_witness`, and one e per
    orbit of g's automorphisms is tried: an automorphism that maps e to e'
    is an isomorphism from g + e to g + e'. The automorphisms are computed
    only once the first g + e lacks the property."""
    pairs = [(u - 1, v - 1) for u, v in g.non_edges()]
    if not pairs:
        return True

    def extended_has(u: int, v: int) -> bool:
        return has(carry_witness(g.add_edge((u + 1, v + 1)), g, u, v))

    if extended_has(*pairs[0]):
        return False
    orbits = orbits_of_pairs(pairs, automorphisms(g))
    return not any(extended_has(u, v) for (u, v), *_ in orbits[1:])


def order8_obstructions() -> tuple[Graph, Graph, Graph]:
    """The three order-8 toroidal obstructions, sizes 25, 24 and 22.

    Each is K8 with a small edge set removed: a triangle; two disjoint
    edges plus a 2-edge path; all six edges between {1,2} and {3,4,5}.
    """
    k8 = complete_graph(8)
    minus_k3 = k8
    for e in [(1, 2), (1, 3), (2, 3)]:
        minus_k3 = minus_k3.delete_edge(e)
    minus_2k2_p3 = k8
    for e in [(1, 2), (3, 4), (5, 6), (6, 7)]:
        minus_2k2_p3 = minus_2k2_p3.delete_edge(e)
    minus_k23 = k8
    for u in (1, 2):
        for v in (3, 4, 5):
            minus_k23 = minus_k23.delete_edge((u, v))
    return (minus_k3, minus_2k2_p3, minus_k23)


class ObstructionDB:
    """Per-order toroidal obstruction sets with a shared minor-query cache.

    Orders below 8 are implicitly empty. A query of order n needs every
    order 8..n present; ``max_supported_order`` is the largest such n.
    ``patterns`` holds every order's graphs, lowest order first, and
    ``memo`` the minor-query cache that ``is_toroidal`` shares over them;
    ``by_order`` is read-only, so nothing derived from it can drift.
    """

    def __init__(self, by_order: dict[int, tuple[Graph, ...]]):
        for k, graphs in by_order.items():
            if not SMALLEST_OBSTRUCTION_ORDER <= k <= MAX_ORDER:
                raise DataValidationError(
                    f"obstruction order {k} outside the supported range 8..{MAX_ORDER}"
                )
            for g in graphs:
                if g.n != k:
                    raise DataValidationError(
                        f"order-{g.n} graph in the order-{k} obstruction set"
                    )
        self.by_order = MappingProxyType(
            {k: tuple(v) for k, v in sorted(by_order.items())}
        )
        limit = SMALLEST_OBSTRUCTION_ORDER - 1
        while limit < MAX_ORDER and limit + 1 in self.by_order:
            limit += 1
        self.max_supported_order = limit
        self.patterns = tuple(
            g for k in sorted(self.by_order) for g in self.by_order[k]
        )
        self.memo: dict[bytes, bool] = {}

    @classmethod
    def builtin(cls) -> "ObstructionDB":
        """Database holding only the programmatic order-8 set."""
        return cls({8: order8_obstructions()})

    @classmethod
    def from_dir(cls, data_dir) -> "ObstructionDB":
        """Built-in order-8 set plus any obstruction files found in data_dir.

        A provided order-8 file must agree with the built-in trio; a
        data_dir that is not a directory is an error.
        """
        data_dir = Path(data_dir)
        if not data_dir.is_dir():
            raise DataValidationError(f"{data_dir}: not a directory")
        by_order: dict[int, tuple[Graph, ...]] = {8: order8_obstructions()}
        pattern = re.compile(r"obstructions_order(\d+)\.g6$")
        for path in sorted(data_dir.glob("obstructions_order*.g6")):
            m = pattern.match(path.name)
            if not m:
                continue
            order = int(m.group(1))
            graphs = read_graph6_file(path)
            if order == 8:
                if sorted(map(canonical_form, graphs)) != sorted(
                    map(canonical_form, by_order[8])
                ):
                    raise DataValidationError(
                        f"{path.name} disagrees with the built-in order-8 set"
                    )
                continue
            by_order[order] = tuple(graphs)
        return cls(by_order)

    def check_supported(self, order: int) -> None:
        if order > self.max_supported_order:
            raise UnsupportedOrderError(
                f"order {order} exceeds the database's supported "
                f"maximum {self.max_supported_order}"
            )


def is_toroidal(g: Graph, db: ObstructionDB) -> bool:
    """True iff g has no obstruction minor; only valid for supported orders."""
    db.check_supported(g.n)
    return not contains_any_minor(g, db.patterns, db.memo)


def is_tn(g: Graph, db: ObstructionDB) -> bool:
    """Toroidal and nIL."""
    db.check_supported(g.n)
    return is_nil(g) and is_toroidal(g, db)


def is_mtn(g: Graph, db: ObstructionDB) -> bool:
    """TN, and every single-edge addition leaves the TN family.

    Once g is TN, `is_nil` has left g's apex witness on it, unless it
    decided g by size, and `is_maximal` hands it to each g + e."""
    return is_tn(g, db) and is_maximal(g, lambda h: is_tn(h, db))
