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
canonical form in a memo the caller owns. The memo is the only deduplication of
states: a repeated child is a memo hit, since its first copy was answered
False and memoized before the next child was made. A caller that keeps its
memo for a fixed collection, as the nIL and toroidality oracles do, turns
repeated queries into a shared DAG traversal; ``has_minor`` uses a fresh
memo per call. A collection with exact certificates, as the Petersen family
has, may pass them as a settling rule that answers states before they are
canonized.

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
"""

from __future__ import annotations

from typing import Callable

from .canonical import canonical_form
from .graphs import Graph


def is_subgraph_iso(pattern: Graph, host: Graph) -> bool:
    """True iff some injective vertex map sends pattern edges into host edges."""
    pn, hn = pattern.n, host.n
    if pn > hn or pattern.size > host.size:
        return False
    plan = pattern._plan
    if plan is None:
        plan = pattern._plan = _plan(pn, pattern._adj)
    pd, pdeg, back_edges, twin_prev = plan
    hadj = host._adj
    hdeg = [m.bit_count() for m in hadj]
    if any(p > h for p, h in zip(pd, sorted(hdeg, reverse=True))):
        return False

    deg_ok = [sum(1 << u for u in range(hn) if hdeg[u] >= d) for d in pdeg]
    images = [0] * pn

    def place(i: int, used: int) -> bool:
        if i == pn:
            return True
        cand = deg_ok[i] & ~used
        for j in back_edges[i]:
            cand &= hadj[images[j]]
        t = twin_prev[i]
        if t >= 0:
            cand &= -2 << images[t]
        while cand:
            low = cand & -cand
            cand ^= low
            images[i] = low.bit_length() - 1
            if place(i + 1, used | low):
                return True
        return False

    return place(0, 0)


def _plan(n: int, adj: tuple[int, ...]):
    """The pattern-only part of `is_subgraph_iso`, by search position: the
    sorted degree sequence, the degrees, the earlier-placed neighbours and
    the previous twin's position (-1 for none)."""
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
    return (
        sorted(degs, reverse=True),
        [degs[v] for v in order],
        back_edges,
        twin_prev,
    )


def has_minor(g: Graph, h: Graph) -> bool:
    """True iff h is obtainable from g by deletions and contractions.

    Containment is up to isomorphism. Exact; practical for orders <= 12.
    """
    return contains_any_minor(g, (h,), {})


def _reductions(g: Graph):
    """Every order-reducing single step: each vertex deletion, then each
    edge contraction."""
    for v in range(1, g.n + 1):
        yield g.delete_vertex(v)
    for e in g.edges:
        yield g.contract_edge(e)


def contains_any_minor(
    g: Graph,
    patterns: tuple[Graph, ...],
    memo: dict[bytes, bool],
    settle: Callable[[Graph], bool | None] | None = None,
) -> bool:
    """Does g contain any of the given graphs as a minor?

    Equivalent to any(has_minor(g, p)), but explores the reduction DAG once
    for the whole collection, with a caller-owned memo keyed by canonical
    form. The collection backing a memo must never change.

    ``settle`` is the collection's settling rule, if it has one. It is
    called on every state that passes the size bound, before the
    state is canonized, and returns the exact verdict for that state (True
    iff it has a pattern minor) or None when it cannot tell. A settled
    state is answered by the rule alone: it is never canonized, tested or
    memoized. The rule must be exact on every graph, since a wrong verdict
    would reach the memo through the states above it.
    """
    # fewest[k]: the fewest edges of any pattern with at most k vertices, or
    # more edges than g has when no pattern is that small. A minor has no
    # more vertices or edges than its host, so a state with k vertices and
    # fewer than fewest[k] edges holds no pattern.
    fewest = [g.size + 1] * (g.n + 1)
    for p in patterns:
        for k in range(p.n, g.n + 1):
            if p.size < fewest[k]:
                fewest[k] = p.size
    return _contains_any(g, patterns, memo, fewest, settle)


def _contains_any(g, patterns, memo, fewest, settle) -> bool:
    if g.size < fewest[g.n]:
        return False
    if settle is not None:
        verdict = settle(g)
        if verdict is not None:
            return verdict
    key = canonical_form(g)
    cached = memo.get(key)
    if cached is not None:
        return cached
    result = False
    for p in patterns:
        if is_subgraph_iso(p, g):
            result = True
            break
    # Every reduction has one vertex fewer and no more edges.
    if not result and g.size >= fewest[g.n - 1]:
        for child in _reductions(g):
            if _contains_any(child, patterns, memo, fewest, settle):
                result = True
                break
    memo[key] = result
    return result
