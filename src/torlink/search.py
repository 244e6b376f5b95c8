"""Recursive search and census pipeline for maximal TN graphs of order 9,
plus the exhaustive small-order maxnIL census and embedding certification.

The search takes a nIL order-9 graph and walks single-edge deletions,
pruned by an edge-count floor, connectivity, and containment in a known
toroidal maximal graph, returning the toroidal graphs where the recursion
bottoms out. Running it from every non-toroidal maximal root and filtering
by the maximality predicate yields the order-9 graphs that are maximally
toroidal-and-nIL without being maximally nIL.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from functools import lru_cache
from pathlib import Path

from .canonical import automorphisms, canonical_form, canonical_graph, orbit_firsts
from .errors import DataValidationError, UnsupportedOrderError
from .graph6 import encode_graph6, read_graph6_file
from .graphs import Graph
from .oracles import (
    ObstructionDB,
    carry_witness,
    is_maximal,
    is_maxnil,
    is_mtn,
    is_nil,
    is_tn,
    is_toroidal,
)
from .containment import has_minor, is_subgraph_iso, subgraph_copy
from .torus import TorusDiagram, verify_embedding

MAXNIL_ORDER9_FILE = "maxnil_order9.g6"
SEARCH_ORDER = 9
DEFAULT_SIZE_FLOOR = 19


@dataclass(frozen=True, eq=False)
class SearchContext:
    """Partitioned order-9 maximal-nIL graphs plus the obstruction data
    backing toroidality queries. ``size_floor`` is the edge-count guard of
    the search (candidates must have strictly more edges). ``cache`` maps
    canonical forms of the states above the floor to search results for
    the context's lifetime; states at or below it are never keyed, nor is
    a state with size_floor + 1 edges that holds a copy of an obstruction,
    whether its parent's copy survives the deleted edge or the state's own
    subgraph test finds one: it is non-toroidal, and at that size its
    result is empty whatever its class. The context is frozen, so no
    field the cache was filled from can change."""

    toroidal_maxnil: tuple[Graph, ...]
    nontoroidal_maxnil: tuple[Graph, ...]
    db: ObstructionDB
    size_floor: int = DEFAULT_SIZE_FLOOR
    cache: dict[bytes, frozenset[Graph]] = field(
        default_factory=dict, init=False, repr=False
    )


def classify_maxnil(maxnil_order9, db: ObstructionDB) -> SearchContext:
    """Strictly validate the 20 order-9 maxnIL graphs, pairwise
    non-isomorphic, and partition them by toroidality."""
    graphs = list(maxnil_order9)
    if len(graphs) != 20:
        raise DataValidationError(
            f"expected the 20 order-9 maxnIL graphs, got {len(graphs)}"
        )
    for i, g in enumerate(graphs, start=1):
        if g.n != SEARCH_ORDER:
            raise DataValidationError(
                f"graph {i} has order {g.n}, expected {SEARCH_ORDER}"
            )
        if not is_maxnil(g):
            raise DataValidationError(f"graph {i} is not maximally nIL")
    reps = [canonical_graph(g) for g in graphs]
    first: dict[Graph, int] = {}
    for i, rep in enumerate(reps, start=1):
        j = first.setdefault(rep, i)
        if j != i:
            raise DataValidationError(f"graphs {j} and {i} are isomorphic")
    toroidal = []
    nontoroidal = []
    for g, rep in zip(graphs, reps):
        (toroidal if is_toroidal(g, db) else nontoroidal).append(rep)
    toroidal.sort(key=canonical_form)
    nontoroidal.sort(key=canonical_form)
    return SearchContext(tuple(toroidal), tuple(nontoroidal), db)


def load_search_context(data_dir) -> SearchContext:
    data_dir = Path(data_dir)
    path = data_dir / MAXNIL_ORDER9_FILE
    if not path.exists():
        raise DataValidationError(f"missing data file {path}")
    db = ObstructionDB.from_dir(data_dir)
    graphs = read_graph6_file(path)
    try:
        return classify_maxnil(graphs, db)
    except UnsupportedOrderError:
        # Raised only past the maxnIL checks, by the first toroidality query.
        missing = data_dir / f"obstructions_order{SEARCH_ORDER}.g6"
        raise DataValidationError(f"missing data file {missing}") from None


def mtn_search(g: Graph, ctx: SearchContext) -> frozenset[Graph]:
    """Search the deletion tree below g for surviving toroidal graphs.

    Returns canonically labeled representatives, one per class; results
    are memoized in ctx.cache, so repeated and overlapping searches share
    work.
    """
    if g.n != SEARCH_ORDER:
        raise ValueError(f"search requires order {SEARCH_ORDER}, got {g.n}")
    if not is_nil(g):
        raise ValueError("search requires a nIL input graph")
    return _search(g, ctx, {})


# The one empty result, shared by every state that has one.
_NONE: frozenset[Graph] = frozenset()


def _search(
    g: Graph,
    ctx: SearchContext,
    seen: dict[int, frozenset[Graph]],
    witness: tuple[int, ...] | None = None,
) -> frozenset[Graph]:
    # No graph at or below the floor is a candidate, whatever its class, so
    # such a state needs no key and ctx.cache holds only states above it.
    if g.size <= ctx.size_floor:
        return _NONE
    # Every state is an edge subset of the root, reached once per order of
    # its deleted edges; seen, keyed by the labeled adjacency, answers all
    # but the first of those paths without canonizing. ctx.cache, keyed by
    # class, answers a state isomorphic to one met before. Every leaf is
    # canonical_graph(g), so a union holds one graph per class.
    #
    # The one canonization of a state also yields automorphisms of it, and
    # a state is expanded into one g - e per orbit of theirs on its edges.
    # An automorphism that maps e to e' is an isomorphism from g - e to
    # g - e', so a skipped child is isomorphic to a kept sibling. A state's
    # result, and whether it is expanded, depend only on its class, so the
    # classes reached below a skipped child are reached below the kept one:
    # the results and the keys of ctx.cache are those of expanding every
    # edge. Automorphisms that generate only part of the group split the
    # orbits finer, which only tries more children.
    #
    # witness, when not None, is the adjacency masks, on g's labels, of a
    # copy in g of one of ctx.db.patterns. is_toroidal(g, db) is False for
    # any g that holds a pattern of db as a subgraph, since a subgraph is a
    # minor, whatever the patterns are; so a state with a witness is
    # non-toroidal without asking. An expanded state without one looks for
    # a copy: the first pattern that has one, the first copy found. The
    # child g - uv keeps every edge of the copy unless uv is one of them,
    # so inheriting it then is exact for any database; a child whose uv is
    # in the copy starts without one. A state with size_floor + 1 edges
    # that holds a copy is non-toroidal and never expanded, so its result
    # is _NONE whatever its class, and it is never canonized or keyed: a
    # child that inherits a copy is not even built, its label going into
    # seen with that result, and a state built at that size asks each
    # pattern for a copy before it is canonized. A built state at that size
    # never carries a witness, since its parent would have settled it.
    label = 0
    for mask in g._adj:
        label = label << SEARCH_ORDER | mask
    result = seen.get(label)
    if result is not None:
        return result
    if g.size == ctx.size_floor + 1 and any(
        is_subgraph_iso(p, g) for p in ctx.db.patterns
    ):
        seen[label] = _NONE
        return _NONE
    perms = automorphisms(g)
    key = canonical_form(g)
    result = ctx.cache.get(key)
    if result is None:
        if not g.is_connected() or any(
            is_subgraph_iso(g, m) for m in ctx.toroidal_maxnil
        ):
            result = _NONE
        elif witness is None and is_toroidal(g, ctx.db):
            result = frozenset([canonical_graph(g)])
        elif g.size > ctx.size_floor + 1:
            if witness is None:
                copies = (subgraph_copy(p, g) for p in ctx.db.patterns)
                witness = next((w for w in copies if w is not None), None)
            edges = [(u - 1, v - 1) for u, v in g.edges]
            found = []
            for u, v in orbit_firsts(edges, perms):
                inherited = witness is not None and not witness[u] >> v & 1
                if inherited and g.size - 1 == ctx.size_floor + 1:
                    seen[label ^ _label_bit(u, v) ^ _label_bit(v, u)] = _NONE
                else:
                    child = g.delete_edge((u + 1, v + 1))
                    found.append(
                        _search(child, ctx, seen, witness if inherited else None)
                    )
            result = _NONE.union(*found) or _NONE
        else:
            # Every child would have size_floor edges.
            result = _NONE
        ctx.cache[key] = result
    seen[label] = result
    return result


def _label_bit(u: int, v: int) -> int:
    """The bit of a `_search` label that holds the 0-based edge end v in
    u's mask; the label packs the masks first vertex highest."""
    return 1 << (SEARCH_ORDER - 1 - u) * SEARCH_ORDER + v


@dataclass(frozen=True)
class ObstructionHits:
    """Obstructions found inside the non-toroidal maximal graphs.

    ``subgraphs`` are the order-9 obstructions appearing as subgraphs (the
    only way an order-9 graph holds an order-9 obstruction); an order-8
    obstruction occurring as a minor would be a surprise and is reported
    separately in ``order8_minors``.
    """

    subgraphs: tuple[Graph, ...]
    order8_minors: tuple[Graph, ...]


def extract_obstruction_set(ctx: SearchContext) -> ObstructionHits:
    """All obstructions contained in some non-toroidal maxnIL graph."""
    if SEARCH_ORDER not in ctx.db.by_order:
        raise UnsupportedOrderError(
            "order-9 obstruction data is required to extract the embedded set"
        )
    subgraphs = {
        canonical_graph(obs)
        for obs in ctx.db.by_order[SEARCH_ORDER]
        if any(is_subgraph_iso(obs, host) for host in ctx.nontoroidal_maxnil)
    }
    order8 = {
        canonical_graph(obs)
        for obs in ctx.db.by_order.get(8, ())
        if any(has_minor(host, obs) for host in ctx.nontoroidal_maxnil)
    }
    return ObstructionHits(
        tuple(sorted(subgraphs, key=canonical_form)),
        tuple(sorted(order8, key=canonical_form)),
    )


def verify_size19_exclusion(obstructions, db: ObstructionDB) -> bool:
    """Check that deleting any edge from any of the given obstructions
    leaves a graph that regains the TN property under some edge addition.

    A True result rules out candidates at the edge floor itself, which is
    what justifies the search's strict size guard. Each h - e is tested by
    `oracles.is_maximal`, one added edge per orbit of its automorphisms.
    """
    return not any(
        is_maximal(h.delete_edge(e), lambda g: is_tn(g, db))
        for h in obstructions
        for e in h.edges
    )


@dataclass(frozen=True)
class CensusReport:
    """Outcome of the order-9 search pipeline."""

    toroidal_maxnil: tuple[Graph, ...]
    nontoroidal_maxnil: tuple[Graph, ...]
    candidates: tuple[Graph, ...]
    non_maxnil_mtn: tuple[Graph, ...]
    all_mtn: tuple[Graph, ...]
    provenance: dict[str, tuple[int, ...]]
    seconds: float

    def to_text(self) -> str:
        """Deterministic line-oriented report (timing deliberately absent)."""
        lines = [
            f"order {SEARCH_ORDER}",
            f"toroidal_maxnil {len(self.toroidal_maxnil)}",
            f"nontoroidal_maxnil {len(self.nontoroidal_maxnil)}",
            f"search_candidates {len(self.candidates)}",
            f"non_maxnil_mtn {len(self.non_maxnil_mtn)}",
            f"all_mtn {len(self.all_mtn)}",
            "begin graphs",
        ]
        for g in self.all_mtn:
            g6 = encode_graph6(g)
            roots = self.provenance.get(g6)
            if roots is None:
                lines.append(f"{g6} kind=maxnil")
            else:
                lines.append(
                    f"{g6} kind=search roots=" + ",".join(map(str, roots))
                )
        lines.append("end graphs")
        return "\n".join(lines) + "\n"


def find_all_mtn_order9(ctx: SearchContext) -> CensusReport:
    """Union the searches from every non-toroidal root, keep the graphs that
    are maximally TN, and merge with the toroidal maximal graphs."""
    start = time.perf_counter()
    # Search results are canonical, one graph per class.
    provenance: dict[Graph, set[int]] = {}
    for idx, root in enumerate(ctx.nontoroidal_maxnil, start=1):
        for g in mtn_search(root, ctx):
            provenance.setdefault(g, set()).add(idx)
    candidates = tuple(sorted(provenance, key=canonical_form))
    non_maxnil = tuple(g for g in candidates if is_mtn(g, ctx.db))
    # Keyed by form: a hand-built context may hold non-canonical graphs.
    merged = {canonical_form(g): g for g in non_maxnil}
    for g in ctx.toroidal_maxnil:
        merged[canonical_form(g)] = g
    all_mtn = tuple(sorted(merged.values(), key=encode_graph6))
    prov_text = {
        encode_graph6(g): tuple(sorted(provenance[g])) for g in non_maxnil
    }
    return CensusReport(
        toroidal_maxnil=ctx.toroidal_maxnil,
        nontoroidal_maxnil=ctx.nontoroidal_maxnil,
        candidates=candidates,
        non_maxnil_mtn=non_maxnil,
        all_mtn=all_mtn,
        provenance=prov_text,
        seconds=time.perf_counter() - start,
    )


# -- exhaustive small-order census -------------------------------------------


def isomorphism_classes(n: int, keep=None) -> list[Graph]:
    """All order-n graphs up to isomorphism, one per class, grouped by edge
    count in increasing order; with `keep`, only the classes it accepts.
    Practical through n = 8, and through n = 9 with keep=is_nil.

    Level m + 1 is built from the representatives of level m by adding one
    edge. A child g + e is kept only if e is a top edge of it: f(e) >=
    f(e') for every edge e' of g + e, ties included, where f(a, b) =
    (larger endpoint degree, smaller endpoint degree, number of common
    neighbours of a and b, larger entry of a and b, smaller entry),
    compared lexicographically (McKay, *Isomorph-free exhaustive
    generation*, J. Algorithms 1998, uses the same canonical-deletion idea,
    with any isomorphism-invariant f). A vertex's entry is its triple
    (degree, sum of its neighbours' degrees, sum over its neighbours w of
    the common neighbours of it and w), packed as degree << 16 | degree
    sum << 8 | common sum, which is exact for n <= 12: degrees are below
    16 and both sums at most 11 * 11 < 256. The first three parts decide
    most children; the entries only break their ties, and the finer f is, the
    fewer parents reach each class, so the fewer children are canonized.

    A child is tested from what its parent knows. The parent's degrees,
    read as masks, confine the ends of a top edge to a window: each vertex
    within one of the largest degree is paired at once with the
    non-neighbours the window admits, and no other non-edge is looked at.
    A child's entries are its parent's with fixed increments at the ends
    of e and their neighbours. Both are derived in `_top_children`.

    The filter loses no class. Take a class of size m + 1, a member H and
    an edge e of H that maximizes f. H - e is isomorphic, by some map phi,
    to a representative P of level m (by induction over the levels). Then
    P + phi(e) is isomorphic to H, and since f, entries included, is an
    isomorphism invariant, phi(e) maximizes f in P + phi(e), so that child
    passes the filter.

    `keep`, if given, must be an isomorphism invariant and closed under
    subgraphs: a graph it accepts has every subgraph accepted. A class it
    rejects is dropped and never extended. That loses no accepted class:
    in the argument above H - e is a subgraph of H, so if keep accepts H
    it accepted the class of H - e, and P was extended.

    Not every non-edge of a parent P is tried; automorphisms of P already
    decide which of its children are isomorphic (McKay's observation).
    Two vertices are twins when their neighbourhoods agree apart from each
    other. Twinhood is an equivalence (see `containment`), and swapping
    two twins is an automorphism of P. Between two twin classes P has
    every possible edge or none, and within one class every pair or none,
    so the non-edges between two classes, and those within one class, each
    form one orbit of the twin swaps. Only one non-edge per orbit is
    tried: the first members of the two classes, or the first two members
    of the class. An automorphism phi of P that maps e to e' is an
    isomorphism from P + e to P + e' that maps e to e', and f is an
    isomorphism invariant, so e is a top edge of P + e iff e' is one of
    P + e', under the first three parts of f and under all of it alike.
    A skipped child is therefore isomorphic to a tried one with the same
    parent and passes the filter with it, so no class is lost.

    A parent also hands down its apex witness `Graph._witness`, which
    `keep=is_nil` leaves on each class it accepts with as many edges as a
    Petersen-family graph (it settles sparser ones by size alone), so the
    child's `keep` needs no apex test: `_top_children` passes each child
    with its parent to `oracles.carry_witness`, which owns the rule and
    the slot. The walk itself never reads a witness, and treats its
    children as opaque.

    The kept children of a level are grouped by the sorted entries that
    the tie-break already computed, and only a group that holds two or
    more of them is deduplicated by canonical form. The sorted entries are
    an isomorphism invariant, so isomorphic
    children always share a group: a child alone in its group is
    isomorphic to no other child and is a new class without being
    canonized, and children in different groups are never isomorphic.

    The twin swaps are not the whole of P's automorphism group, and two
    of P's children that share a group are often isomorphic through the
    rest of it. For such a P, the canonical search of P
    (`canonical.automorphisms`) hands back automorphisms, and of P's
    children in one group only the first of each orbit of the group they
    generate on the new edges is kept. The same argument as for twins
    applies to any automorphism phi: P + e and P + phi(e) are isomorphic
    children of P, with the same top status, so a dropped child's class is
    still generated, by the kept one.
    Any set of automorphisms prunes soundly, since it only ever drops a
    child isomorphic to a kept one; a set that misses part of the group
    leaves more children in the group, and the canonical forms dedupe them.

    Only the set of classes, grouped by size, is guaranteed: within one
    edge count the order of the classes and the labeled representative of
    each are unspecified.
    """
    return [g for level in _levels(n, keep) for g in level]


def _levels(n: int, keep):
    """Walk the levels of `isomorphism_classes(n, keep)`, yielding the list
    of classes with m edges for m = 0, 1, ... up to the last level that
    holds a class. Only two levels are held at a time, each class beside
    its entries, packed into one int at 20 bits per vertex (vertex x's
    entry is bits 20x and up), from which `_top_children` derives its
    children's.

    `keep` runs once per class, on its representative, and a yielded class
    is that representative, with whatever its `keep` call left on it.
    """
    level = [Graph(n)]
    if keep is not None and not keep(level[0]):
        return
    # Every entry of the empty graph is 0.
    packs = [0]
    while level:
        yield level
        level, packs = _next_level(level, packs, keep)


def _next_level(
    level: list[Graph], packs: list[int], keep
) -> tuple[list[Graph], list[int]]:
    """The classes with one edge more than those of `level`, and their
    packed entries; packs[i] holds the packed entries of level[i]. The
    level's groups and keys die with this call, before `_levels` yields.

    A parent's top-edge children are gathered by key first; of two or more
    with one key, only the first of each orbit of the parent's automorphisms
    (computed once, and only then) joins the group; see `isomorphism_classes`.
    """
    # Top-edge children grouped by key, each with its packed entries. Keys,
    # and the entries in them, are interned through `keys`, so equal keys
    # are one tuple and equal entries one int. (An int never equals a
    # tuple.)
    keys: dict = {}
    groups: dict[tuple[int, ...], list[tuple[Graph, int]]] = {}
    for g, packed in zip(level, packs):
        # g's top-edge children by key, each beside its new edge.
        mine: dict[tuple[int, ...], list] = {}
        for key, child, edge, carried in _top_children(g, packed):
            shared = keys.get(key)
            if shared is None:
                shared = tuple([keys.setdefault(x, x) for x in key])
                keys[shared] = shared
            mine.setdefault(shared, []).append((edge, (child, carried)))
        perms = None
        for key, pairs in mine.items():
            kept = groups.setdefault(key, [])
            if len(pairs) > 1:
                if perms is None:
                    perms = automorphisms(g)
                firsts = set(orbit_firsts([e for e, _ in pairs], perms))
                pairs = [pair for pair in pairs if pair[0] in firsts]
            for _, member in pairs:
                kept.append(member)
    nxt = []
    nxt_packs = []
    for group in groups.values():
        # One member per class, the last with its canonical form.
        reps = group
        if len(group) > 1:
            reps = {canonical_form(c): (c, packed) for c, packed in group}.values()
        for rep, packed in reps:
            if keep is None or keep(rep):
                nxt.append(rep)
                nxt_packs.append(packed)
    return nxt, nxt_packs


@lru_cache(maxsize=None)
def _spread(n: int) -> tuple[int, ...]:
    """_spread(n)[m] has bit 20x set for each bit x of the n-bit mask m,
    so adding k * _spread(n)[m] to packed entries adds k to the entry of
    every vertex in m."""
    table = [0]
    for x in range(n):
        table += [t + (1 << 20 * x) for t in table]
    return tuple(table)


def _top_children(g: Graph, packed: int):
    """(key, child, e, entries) for the children g + e of
    `isomorphism_classes` whose e is a top edge, in increasing order of
    e = (u, v), 0-based and u < v, drawn from one non-edge per orbit of the
    twin swaps of g, and with the child's `Graph._witness` filled from g's
    by `oracles.carry_witness`. `packed` holds g's entries, packed as in
    `_levels`, and `entries` the child's. key is the child's sorted
    entries.

    g's state is read once, as masks. ge[d] holds its vertices of degree d
    or more, and a vertex's twin class is looked up by its open and closed
    neighbourhoods: a class's first member, its head, is tried with every
    other head and with the class's second member, which is tried with it.

    No degree falls from g to g + e. Let H be g's largest degree, x an end
    of e of the larger degree in g and y the other; only pairs that no
    edge of g + e beats on the first two parts of f are touched.
    - If deg x < H - 1, an edge at a vertex of degree H beats e on the
      first part.
    - Otherwise x has the largest degree of g + e, and an edge from x to a
      neighbour of degree d > deg y + 1, not y as e is a non-edge, beats e
      on the second part. So does, when deg x = H - 1, an edge from a
      vertex of degree H, which keeps the largest degree, to a neighbour
      of degree d, which can only have grown.
    So each x of degree H - 1 or more takes as y, in one mask, its partners
    off its neighbourhood with degree in [d - 1, deg x], d the largest
    degree next to x or, when deg x = H - 1, next to a vertex of degree H.
    A pair of equal degrees is taken from its smaller end: d <= H <=
    deg x + 1 holds at both.

    `_ties` decides each pair left on the first three parts of f, from g's
    masks and degrees with the ends patched in place, and the child's
    entries then decide its ties. Until a child passes, only the entries
    of e's ends and of its ties are read, and it is not built; it is given
    its size, g's plus one.

    The child's entries are g's, changed only at three kinds of vertex. A
    vertex adjacent to exactly one of u and v gains 1 in its neighbours'
    degree sum (+0x100). A common neighbour x of u and v gains 2 there,
    and 1 in each of |N(x) & N(u)| and |N(x) & N(v)| (+0x202). u gains 1
    in degree, deg v + 1 in its neighbours' degree sum, and 2c in its
    common sum, where c = |N(u) & N(v)|: c through its new neighbour v
    and c through the old neighbours that v joins; the same holds for v.
    No other vertex's neighbourhood, or its neighbours' degrees or
    neighbourhoods, changes.
    """
    n = g.n
    adj = g._adj
    deg = [m.bit_count() for m in adj]
    peak = max(deg, default=0)
    # ge[d]: the vertices of degree d or more; around: the neighbours of
    # the vertices of degree peak.
    ge = [0] * (peak + 2)
    around = 0
    for x, d in enumerate(deg):
        ge[d] |= 1 << x
        if d == peak:
            around |= adj[x]
    for d in range(peak - 1, -1, -1):
        ge[d] |= ge[d + 1]
    # heads: the first member of each twin class, as bits; twin[h] is the
    # bit of the second member of h's class, and that member's twin h's.
    # No N(v) equals an N[w]: w would lie in N(v), so v in N(w) = N(v) - w.
    # A v whose class is found by N[w] = N[v] leaves N(v) filed, unread: no
    # later x has N(x) = N(v), as w in N(x) puts x in N[w] - v = N(x).
    heads = 0
    twin = [0] * n
    first: dict[int, int] = {}
    for v, mask in enumerate(adj):
        h = first.setdefault(mask, v)
        if h == v:
            h = first.setdefault(mask | 1 << v, v)
        if h == v:
            heads |= 1 << v
        elif not twin[h]:
            twin[h], twin[v] = 1 << v, 1 << h
    pairs = []
    for x, dx in enumerate(deg):
        if dx < peak - 1:
            continue
        bit = 1 << x
        # low: the bound d above, at least 1.
        near = adj[x] | around if dx < peak else adj[x]
        low = max(peak, 1)
        while low > 1 and not near & ge[low]:
            low -= 1
        ends = (
            (twin[x] | (heads ^ bit if heads & bit else 0))
            & ~adj[x]
            & (ge[low - 1] & ~ge[dx] | (ge[dx] ^ ge[dx + 1]) & -2 << x)
        )
        while ends:
            y = (ends & -ends).bit_length() - 1
            ends &= ends - 1
            pairs.append((x, y) if x < y else (y, x))
    pairs.sort()
    spread = _spread(n)
    shifts = range(0, 20 * n, 20)
    size = g.size + 1
    masks = list(adj)
    for u, v in pairs:
        du, dv = deg[u], deg[v]
        masks[u], masks[v] = adj[u] | 1 << v, adj[v] | 1 << u
        deg[u], deg[v] = du + 1, dv + 1
        ties = _ties(masks, deg, u, v)
        if ties is not None:
            common = adj[u] & adj[v]
            c2 = 2 * common.bit_count()
            carried = (
                packed
                + 0x100 * spread[adj[u] ^ adj[v]]
                + 0x202 * spread[common]
                + ((0x10000 | dv + 1 << 8 | c2) << 20 * u)
                + ((0x10000 | du + 1 << 8 | c2) << 20 * v)
            )
            mine = _ends(carried, u, v) if ties else 0
            if all(_ends(carried, a, b) <= mine for a, b in ties):
                child = Graph._from_masks(masks)
                child._size = size
                key = tuple(sorted(carried >> s & 0xFFFFF for s in shifts))
                yield key, carry_witness(child, g, u, v), (u, v), carried
        masks[u], masks[v] = adj[u], adj[v]
        deg[u], deg[v] = du, dv


def _ends(packed: int, a: int, b: int) -> int:
    """The larger entry of a and b in `packed` << 20 | the smaller one."""
    ea, eb = packed >> 20 * a & 0xFFFFF, packed >> 20 * b & 0xFFFFF
    return ea << 20 | eb if ea > eb else eb << 20 | ea


def _ties(masks: list[int], deg: list[int], u: int, v: int):
    """The head of f, (larger endpoint degree, smaller endpoint degree,
    common neighbours), for the edge (u, v), u < v, of the graph with these
    0-based adjacency masks and degrees, which `_top_children` passes as
    its parent's with (u, v) patched in: None when some edge has a larger
    head, else the other edges (a, b), a of the maximum degree, whose head
    equals it. An edge whose ends both have the maximum degree is listed
    once, from its smaller end, as its head is the same from either end.
    An end of (u, v) has the maximum degree."""
    hi = max(deg)
    # The head packed as lo << 4 | common (both < 16 for n <= 12); hi is
    # fixed.
    mine = min(deg[u], deg[v]) << 4 | (masks[u] & masks[v]).bit_count()
    new = 1 << u | 1 << v
    ties = []
    # done: the vertices of the maximum degree met so far.
    done = 0
    for a, mask in enumerate(masks):
        if deg[a] != hi:
            continue
        done |= 1 << a
        rest = mask & ~done
        if a == u or a == v:
            rest &= ~new
        while rest:
            low = rest & -rest
            b = low.bit_length() - 1
            head = deg[b] << 4 | (mask & masks[b]).bit_count()
            if head > mine:
                return None
            if head == mine:
                ties.append((a, b))
            rest ^= low
    return ties


def census_maxnil(n: int) -> tuple[Graph, ...]:
    """All maximally-nIL graphs of order n up to isomorphism (3 <= n <= 9).

    The levels of the nIL classes are walked with `keep=is_nil`, and every
    class is tested with `is_maxnil`, which rejects most of them by size or
    by the apex witness that `is_nil` left on the class. A maxnIL graph is
    nIL, so its class is one of them. Order 8 has 11,667 nIL classes and
    order 9 has 227,041.
    """
    if not 3 <= n <= 9:
        raise UnsupportedOrderError(
            f"exhaustive census supports orders 3..9, got {n}"
        )
    hits = [
        canonical_graph(g)
        for level in _levels(n, is_nil)
        for g in level
        if is_maxnil(g)
    ]
    hits.sort(key=canonical_form)
    return tuple(hits)


# -- certification ------------------------------------------------------------


@dataclass(frozen=True)
class CertificationEntry:
    graph: Graph
    embedding_name: str
    witnesses: tuple
    warnings: tuple

    @property
    def linkless(self) -> bool:
        return not self.witnesses

    @property
    def verdict(self) -> str:
        """INVALID when the diagram is not an embedding, else LINKED or ok."""
        if self.warnings:
            return "INVALID"
        return "ok" if self.linkless else "LINKED"


@dataclass(frozen=True)
class CertificationReport:
    entries: tuple[CertificationEntry, ...]
    unmatched: tuple[Graph, ...]

    @property
    def overall_pass(self) -> bool:
        return not self.unmatched and all(e.verdict == "ok" for e in self.entries)

    def to_text(self) -> str:
        lines = [f"certify graphs={len(self.entries) + len(self.unmatched)}"]
        for e in self.entries:
            lines.append(
                f"graph {encode_graph6(e.graph)} embedding={e.embedding_name} "
                f"linkless={str(e.linkless).lower()} -> {e.verdict}"
            )
            for w in e.warnings:
                lines.append(f"  warning: {w}")
            for w in e.witnesses:
                lines.append(f"  link: {w}")
        for g in self.unmatched:
            lines.append(f"graph {encode_graph6(g)} unmatched -> MISSING")
        lines.append(f"overall={'pass' if self.overall_pass else 'fail'}")
        return "\n".join(lines) + "\n"


def certify_order(mtn_graphs, embeddings) -> CertificationReport:
    """Match each graph to an embedding diagram of the same isomorphism
    class and verify the diagram is a linkless embedding. embeddings holds
    (name, diagram) pairs; failures are report entries, never exceptions."""
    entries = []
    unmatched = []
    # The first diagram of each class is the one used.
    named_by_form: dict[bytes, tuple[str, TorusDiagram]] = {}
    for name, d in embeddings:
        named_by_form.setdefault(canonical_form(d.graph), (name, d))
    ordered = sorted(
        (canonical_graph(g) for g in mtn_graphs), key=canonical_form
    )
    for g in ordered:
        named = named_by_form.get(canonical_form(g))
        if named is None:
            unmatched.append(g)
            continue
        name, diagram = named
        warnings, links = verify_embedding(diagram)
        entries.append(CertificationEntry(g, name, tuple(links), tuple(warnings)))
    return CertificationReport(tuple(entries), tuple(unmatched))
