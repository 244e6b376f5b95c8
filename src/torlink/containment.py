"""Subgraph and minor containment, exact, for small graphs.

Minor testing is a backtracking reduction search: while the host is larger
than the pattern, branch on single vertex deletions and edge contractions,
pruning by order and size; once orders agree the question reduces to a
spanning-subgraph embedding. The size bound is taken per order: a state
with k vertices is dropped, before it is canonized, when it has fewer
edges than every pattern of at most k vertices, so a collection that mixes
orders, as the toroidality obstructions do, is not bounded by its
smallest pattern at every order. One engine answers every minor query: it
tests a whole pattern collection at once and memoizes results by host
canonical form in a memo the caller owns. A repeated state is a memo hit,
since its first copy was answered False and memoized before the next was
made. A caller that keeps its memo for a fixed collection, as the nIL and
toroidality oracles do, turns repeated queries into a shared DAG
traversal; ``has_minor`` uses a fresh memo per call. A collection with
exact certificates, as the Petersen family has, may pass them as a
settling rule that answers states before they are canonized.

When every pattern has minimum degree 3 or more, as every Petersen-family
graph and the order-8 toroidal obstructions do, the search runs on cores.
The core of a graph is what `graphs.reduce_to_core`, the reduction the
planarity test also runs, leaves of it: vertices of degree at most 1 are
deleted and vertices of degree 2 smoothed until none is left, and a
smoothed vertex whose neighbours are already adjacent is deleted. A graph
has such a pattern as a minor iff its core has; Duffin, *Topology of
series-parallel networks* (J. Math. Anal. Appl. 1965), reduces
series-parallel graphs the same way. The core is a minor of the graph.
Conversely, take a minor model of the pattern, one connected branch set
per pattern vertex, and a vertex x of degree at most 2. x is not a branch
set on its own, since a pattern vertex has degree 3 or more. If x has
degree at most 1, it lies in no branch set, or is a leaf of a larger one
whose edges to other branch sets all start elsewhere, so G - x keeps the
model. If x has neighbours a and b, it lies in no branch set, or shares
one with a neighbour, say a, and G / xa keeps the model. Both
contractions at x give the same graph, G - x + ab (G - x when a and b are
adjacent), which is the step the reduction takes.
The input is bounded and settled as given, so a settling rule sees the
graph it was asked about; if it stays open, its core is searched, and not
settled again. Every state below it is reduced to its core first, then
bounded, settled, canonized and looked up in the memo, so the memo holds
only cores, and children that differ only in their degree-2 paths meet in
one entry.

Subgraph embedding is a backtracking search over pattern vertices in a
fixed order, each placed on a host vertex of large enough degree that is
adjacent to the images of its earlier-placed neighbours. What depends on
the pattern alone, its plan, is built once per pattern object and kept on
it: the order, each position's earlier-placed neighbours, the pattern
degrees and the sorted degree sequence. The plan also chains twins. Two
vertices are twins when their neighbourhoods agree apart from each other.
Twinhood is an equivalence: adjacent twins have equal closed
neighbourhoods, non-adjacent twins equal open ones, and no vertex has
twins of both kinds. Swapping two twins is an automorphism of the pattern,
so any permutation within twin classes is one. Given any embedding,
composing it with the automorphism that sorts each class's images gives
an embedding in which the images of each class increase in search order,
so the search need only look for those: a vertex's candidates are cut to
the host vertices above the image of the last twin placed before it
(Grochow & Kellis, *Network motif discovery using subgraph enumeration
and symmetry-breaking*, RECOMB 2007, break symmetry with such
conditions). K6 is one twin class, so the search tries each set of six
host vertices in one order instead of 720.

A spanning test, pattern and host of one order, pins host vertex 0, which
every copy covers. Composing a copy with a pattern automorphism sigma
moves the preimage of vertex 0 from x to sigma^-1(x), and automorphisms
map twin classes onto twin classes, so some copy puts vertex 0 in any
chosen class of the orbit of x's class. Sorting that copy's twin images
leaves vertex 0 in the same class, on its head (the class's first
position in search order), since 0 is the least host vertex. So with the
twin chains on, vertex 0 is tried only on the head of one class per orbit
of `canonical.automorphisms(pattern)` on the twin classes, kept in the
plan once first needed; every other position is denied it. As with arcs,
automorphisms that generate only part of the group split the orbits and
only add heads to try. C9 is one orbit of nine classes, so a failing
Hamiltonicity test runs one search from a fixed start instead of nine.

`subgraph_copy` runs the same search and, after a success, reads the
copy off the images the search placed: each pattern edge is the back
edge of its later-placed end, so the copy is the host edges between
those ends' images. It is the first copy the search finds, with twin
chains on, and is None exactly when `is_subgraph_iso` says False. The
search itself builds nothing more for it, so a plain test pays only the
call into the shared search.

A pinned test asks only for copies through one host edge ab: some pattern
edge xy goes to ab, as (x, y) -> (a, b) or (b, a). Composing a copy with
a pattern automorphism sigma gives a copy that maps sigma^-1(x, y) onto
(a, b), so one arc per orbit of the pattern's automorphisms on its arcs
(ordered adjacent pairs) is enough; the orbits come from the canonical
search of the pattern (`canonical.automorphisms`) and are kept in its
plan once first needed. Any set of automorphisms is sound here: one that
misses part of the group splits orbits and only adds arcs to try. With
x on a and y on b, every neighbour of x may go only to a neighbour of a,
and likewise for y and b, and the search runs in the plan's order with
those candidate sets. The twin chains are off in a pinned search: sorting
a copy's twins may move its pinned arc off the orbit's representative.
"""

from __future__ import annotations

from typing import Callable

from .canonical import automorphisms, canonical_form
from .graphs import Graph, reduce_to_core


def is_subgraph_iso(
    pattern: Graph, host: Graph, pin: tuple[int, int] | None = None
) -> bool:
    """True iff some injective vertex map sends pattern edges into host edges.

    With pin = (a, b), 0-based host vertices, True iff some such map sends
    a pattern edge onto ab: the pattern copies through edge ab.
    """
    return _embed(pattern, host, pin) is not None


def subgraph_copy(pattern: Graph, host: Graph) -> tuple[int, ...] | None:
    """The first copy of pattern in host that `is_subgraph_iso`'s search
    finds, as adjacency masks on host's 0-based vertices holding the host
    edges that the pattern's edges map to; None when there is no copy."""
    images = _embed(pattern, host, None)
    if images is None:
        return None
    copy = [0] * host.n
    # Each pattern edge is the back edge of its later-placed end once.
    for i, back in enumerate(pattern._plan[2]):
        a = images[i]
        for j in back:
            b = images[j]
            copy[a] |= 1 << b
            copy[b] |= 1 << a
    return tuple(copy)


def _embed(pattern: Graph, host: Graph, pin: tuple[int, int] | None):
    """The search behind `is_subgraph_iso`: the host vertex of each pattern
    position (the plan's order) in the first copy found, or None."""
    pn, hn = pattern.n, host.n
    if pn > hn or pattern.size > host.size:
        return None
    plan = pattern._plan
    if plan is None:
        plan = pattern._plan = _plan(pn, pattern._adj)
    pd, pdeg, back_edges, twin_prev, order, pinned, heads = plan
    hadj = host._adj
    hdeg = [m.bit_count() for m in hadj]
    if any(p > h for p, h in zip(pd, sorted(hdeg, reverse=True))):
        return None

    # at_least[d]: the host vertices of degree d or more.
    at_least = [0] * hn
    for u, d in enumerate(hdeg):
        at_least[d] |= 1 << u
    for d in range(hn - 2, -1, -1):
        at_least[d] |= at_least[d + 1]
    # ok[i]: the host vertices position i may take; chain[i]: the previous
    # twin's position, whose image position i must exceed (-1 for none).
    ok = [at_least[d] for d in pdeg]
    chain = twin_prev
    images = [0] * pn

    def place(i: int, used: int) -> bool:
        if i == pn:
            return True
        cand = ok[i] & ~used
        for j in back_edges[i]:
            cand &= hadj[images[j]]
        t = chain[i]
        if t >= 0:
            cand &= -2 << images[t]
        while cand:
            low = cand & -cand
            cand ^= low
            images[i] = low.bit_length() - 1
            if place(i + 1, used | low):
                return True
        return False

    if pin is None:
        if pn == hn:
            # A spanning copy covers host vertex 0: only the kept class
            # heads may take it; see the module docstring.
            if heads is None:
                heads = plan[6] = _spanning_heads(pattern, twin_prev, order)
            ok = [m & ~1 for m in ok]
            for i in heads:
                ok[i] |= at_least[pdeg[i]] & 1
        return images if place(0, 0) else None
    # One arc (x, y) per orbit, x on a and y on b, without twin chains; see
    # the module docstring.
    if pinned is None:
        pinned = plan[5] = _pinned_plan(pattern, order)
    nbrs, arcs = pinned
    a, b = pin
    deg_ok = ok
    free = [m & ~(1 << a | 1 << b) for m in deg_ok]
    chain = [-1] * pn
    for x, y in arcs:
        if deg_ok[x] >> a & 1 and deg_ok[y] >> b & 1:
            ok = free.copy()
            ok[x] = 1 << a
            ok[y] = 1 << b
            for k in nbrs[x]:
                ok[k] &= hadj[a]
            for k in nbrs[y]:
                ok[k] &= hadj[b]
            if all(ok) and place(0, 0):
                return images
    return None


def _plan(n: int, adj: tuple[int, ...]) -> list:
    """The pattern-only part of `is_subgraph_iso`, by search position: the
    sorted degree sequence, the degrees, the earlier-placed neighbours, the
    previous twin's position (-1 for none) and the vertex at each position;
    then the part only a pinned test reads and the part only a spanning
    test reads, each None until `_pinned_plan` or `_spanning_heads` fills
    it."""
    degs = [m.bit_count() for m in adj]
    # Greedy max-connectivity order: keeps the backtrack tree narrow.
    order: list[int] = []
    placed = 0
    for _ in range(n):
        best = max(
            (v for v in range(n) if not placed >> v & 1),
            key=lambda v: ((adj[v] & placed).bit_count(), degs[v]),
        )
        order.append(best)
        placed |= 1 << best
    pos = {v: i for i, v in enumerate(order)}
    back_edges = [
        [pos[w] for w in range(n) if adj[v] >> w & 1 and pos[w] < i]
        for i, v in enumerate(order)
    ]
    # Twinhood is an equivalence, so the latest earlier twin is the previous
    # link of the class's chain.
    twin_prev = []
    for i, v in enumerate(order):
        twins = [
            j
            for j, w in enumerate(order[:i])
            if adj[v] & ~(1 << w) == adj[w] & ~(1 << v)
        ]
        twin_prev.append(twins[-1] if twins else -1)
    return [
        sorted(degs, reverse=True),
        [degs[v] for v in order],
        back_edges,
        twin_prev,
        order,
        None,
        None,
    ]


def _pinned_plan(pattern: Graph, order: list[int]):
    """The neighbours of each position, and one arc (x, y), a pair of
    adjacent positions, per orbit of the pattern automorphisms that
    `canonical.automorphisms` finds, each the first of its orbit in
    position order, so that the pinned positions come early."""
    adj = pattern._adj
    pos = {v: i for i, v in enumerate(order)}
    nbrs = [[pos[w] for w in order if adj[v] >> w & 1] for v in order]
    moves = [[pos[p[v]] for v in order] for p in automorphisms(pattern)]
    arcs = []
    seen: set[tuple[int, int]] = set()
    for x, nb in enumerate(nbrs):
        for y in nb:
            if (x, y) in seen:
                continue
            arcs.append((x, y))
            seen.add((x, y))
            todo = [(x, y)]
            for s, t in todo:
                for q in moves:
                    arc = (q[s], q[t])
                    if arc not in seen:
                        seen.add(arc)
                        todo.append(arc)
    return nbrs, arcs


def _spanning_heads(pattern: Graph, twin_prev: list[int], order: list[int]):
    """The head (first position) of one twin class per orbit of the pattern
    automorphisms that `canonical.automorphisms` finds on the twin classes,
    each orbit's earliest head in position order."""
    pos = {v: i for i, v in enumerate(order)}
    # head[i]: the head of position i's twin class.
    head = []
    for t in twin_prev:
        head.append(len(head) if t < 0 else head[t])
    moves = [[head[pos[p[v]]] for v in order] for p in automorphisms(pattern)]
    heads = []
    seen: set[int] = set()
    for i, h in enumerate(head):
        if h != i or i in seen:
            continue
        heads.append(i)
        seen.add(i)
        todo = [i]
        for c in todo:
            for q in moves:
                if q[c] not in seen:
                    seen.add(q[c])
                    todo.append(q[c])
    return heads


def has_minor(g: Graph, h: Graph) -> bool:
    """True iff h is obtainable from g by deletions and contractions.

    Containment is up to isomorphism. Exact; practical for orders <= 12.
    One call of `contains_any_minor` with a fresh memo, so when h has
    minimum degree 3 or more the search runs on cores.
    """
    return contains_any_minor(g, (h,), {})


def _reductions(g: Graph, edge: tuple[int, int] | None = None):
    """Every order-reducing single step: each vertex deletion, then each
    edge contraction; with `edge`, less those that `contains_any_minor`
    skips for it."""
    gone: tuple[int, ...] = ()
    merged: set = set()
    if edge is not None:
        common = g._adj[edge[0]] & g._adj[edge[1]]
        gone = (edge[0] + 1, edge[1] + 1)
        merged = {tuple(sorted((w, x + 1))) for w in gone for x in range(g.n) if common >> x & 1}
    for x in range(1, g.n + 1):
        if x not in gone:
            yield g.delete_vertex(x)
    for e in g.edges:
        if e not in merged:
            yield g.contract_edge(e)


def _core(g: Graph) -> Graph:
    """g reduced by `reduce_to_core`, its remaining vertices in their
    order; g itself when no vertex has degree <= 2."""
    adj = g._adj
    if min(map(int.bit_count, adj), default=3) > 2:
        return g
    masks = list(adj)
    alive = reduce_to_core(masks, (1 << g.n) - 1)
    keep = [v for v in range(g.n) if alive >> v & 1]
    return Graph._from_masks(
        sum(1 << i for i, w in enumerate(keep) if masks[v] >> w & 1) for v in keep
    )


def contains_any_minor(
    g: Graph,
    patterns: tuple[Graph, ...],
    memo: dict[bytes, bool],
    settle: Callable[[Graph], bool | None] | None = None,
    edge: tuple[int, int] | None = None,
) -> bool:
    """Does g contain any of the given graphs as a minor?

    Equivalent to any(has_minor(g, p)), but explores the reduction DAG once
    for the whole collection, with a caller-owned memo keyed by canonical
    form. The collection backing a memo must never change.

    When every pattern has minimum degree 3 or more, the search runs on
    cores; see the module docstring. g is bounded and settled as given;
    if it stays open, its core, not settled again, is searched. Every
    state below it is reduced to its core first, then bounded, settled,
    canonized and looked up in the memo, so the memo holds only cores.

    ``settle`` is the collection's settling rule, if it has one. It is
    called on g and on every state below it that passes the size bound,
    before the state is canonized, and returns the exact verdict for that
    state (True iff it has a pattern minor) or None when it cannot tell.
    A settled state is answered by the rule alone: it is never canonized,
    tested or memoized. The rule must be exact on every graph, since a
    wrong verdict would reach the memo through the states above it. It is
    not called on g's core, which has g's verdict: a rule that holds for a
    graph iff it holds for its core, as the apex certificate does, would
    only repeat its work there.

    ``edge`` = (u, v), an edge of g by its 0-based ends, tells the engine
    that g - uv has none of the patterns as a minor and that none is a
    subgraph of g through uv (`is_subgraph_iso` with ``pin``), so none is a
    subgraph of g at all. The input then skips its subgraph test, and the
    reductions whose results are minors of g - uv: deleting u or v, and
    contracting an edge from u or v to a common neighbour x of both, which
    merges uv into the old edge xv or xu (g / ux = (g - uv) / ux). Those
    minors hold no pattern, so skipping them changes no answer. g / uv is
    searched, as it need not be a minor of g - uv, and so is every state
    below the input. g itself is searched as given, not as its core, since
    the claim names its edge.
    """
    # fewest[k]: the fewest edges of any pattern with at most k vertices, or
    # more edges than g has when no pattern is that small. A minor has no
    # more vertices or edges than its host, so a state with k vertices and
    # fewer than fewest[k] edges holds no pattern. smooth: every pattern
    # has minimum degree 3 or more, so a state and its core hold the same
    # patterns as minors.
    fewest = [g.size + 1] * (g.n + 1)
    smooth = True
    for p in patterns:
        smooth = smooth and all(m.bit_count() >= 3 for m in p._adj)
        for k in range(p.n, g.n + 1):
            if p.size < fewest[k]:
                fewest[k] = p.size
    verdict = _settled(g, fewest, settle)
    if verdict is None and smooth and edge is None:
        g = _core(g)
        verdict = _settled(g, fewest, None)
    if verdict is not None:
        return verdict
    return _contains_any(g, patterns, memo, fewest, settle, smooth, edge)


def _settled(g: Graph, fewest: list[int], settle) -> bool | None:
    """g's verdict without a search: False below the size bound, else the
    settling rule's, or None when g stays open."""
    if g.size < fewest[g.n]:
        return False
    if settle is None:
        return None
    return settle(g)


def _contains_any(g, patterns, memo, fewest, settle, smooth, edge=None) -> bool:
    """The search from the open state g, whose children are reduced to
    their cores when `smooth`, then bounded and settled."""
    key = canonical_form(g)
    cached = memo.get(key)
    if cached is not None:
        return cached
    result = False
    if edge is None:
        for p in patterns:
            if is_subgraph_iso(p, g):
                result = True
                break
    # Every reduction has one vertex fewer and no more edges.
    if not result and g.size >= fewest[g.n - 1]:
        for child in _reductions(g, edge):
            if smooth:
                child = _core(child)
            verdict = _settled(child, fewest, settle)
            if verdict is None:
                verdict = _contains_any(child, patterns, memo, fewest, settle, smooth)
            if verdict:
                result = True
                break
    memo[key] = result
    return result
