"""Subgraph and minor containment, exact, for small graphs.

Minor testing is a backtracking reduction search: while the host is larger
than the pattern, branch on single vertex deletions and edge contractions,
pruning by order and size; once orders agree the question reduces to a
spanning-subgraph embedding. One engine answers every minor query: it tests
a whole pattern collection at once and memoizes results by host canonical
form in a memo the caller owns. The memo is the only deduplication of
states: a repeated child is a memo hit, since its first copy was answered
False and memoized before the next child was made. A caller that keeps its
memo for a fixed collection, as the nIL and toroidality oracles do, turns
repeated queries into a shared DAG traversal; ``has_minor`` uses a fresh
memo per call. A collection with exact certificates, as the Petersen family
has, may pass them as a settling rule that answers states before they are
canonized.
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
    pd = pattern.degree_sequence()
    hd = host.degree_sequence()
    if any(p > h for p, h in zip(pd, hd)):
        return False
    if pn == 0:
        return True

    padj = pattern._adj
    hadj = host._adj
    order = _embedding_order(pn, padj)
    pos = {v: i for i, v in enumerate(order)}
    # Earlier-placed pattern neighbors of each vertex, by search position.
    back_edges = [
        [pos[w] for w in range(pn) if padj[v] >> w & 1 and pos[w] < i]
        for i, v in enumerate(order)
    ]
    pdeg = [padj[v].bit_count() for v in order]
    hdeg = [hadj[u].bit_count() for u in range(hn)]
    deg_ok = [
        sum(1 << u for u in range(hn) if hdeg[u] >= pdeg[i]) for i in range(pn)
    ]
    images = [0] * pn

    def place(i: int, used: int) -> bool:
        if i == pn:
            return True
        cand = deg_ok[i] & ~used
        for j in back_edges[i]:
            cand &= hadj[images[j]]
        while cand:
            low = cand & -cand
            cand ^= low
            images[i] = low.bit_length() - 1
            if place(i + 1, used | low):
                return True
        return False

    return place(0, 0)


def _embedding_order(n: int, adj: tuple[int, ...]) -> list[int]:
    """Greedy max-connectivity order: keeps the backtrack tree narrow."""
    degs = [adj[v].bit_count() for v in range(n)]
    order = [max(range(n), key=lambda v: degs[v])]
    placed = 1 << order[0]
    while len(order) < n:
        best = max(
            (v for v in range(n) if not placed >> v & 1),
            key=lambda v: ((adj[v] & placed).bit_count(), degs[v]),
        )
        order.append(best)
        placed |= 1 << best
    return order


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
    called on every state that passes the order and size guard, before the
    state is canonized, and returns the exact verdict for that state (True
    iff it has a pattern minor) or None when it cannot tell. A settled
    state is answered by the rule alone: it is never canonized, tested or
    memoized. The rule must be exact on every graph, since a wrong verdict
    would reach the memo through the states above it.
    """
    if not patterns:
        return False
    min_order = min(p.n for p in patterns)
    min_size = min(p.size for p in patterns)
    return _contains_any(g, patterns, memo, min_order, min_size, settle)


def _contains_any(g, patterns, memo, min_order, min_size, settle) -> bool:
    if g.n < min_order or g.size < min_size:
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
        if p.n <= g.n and p.size <= g.size and is_subgraph_iso(p, g):
            result = True
            break
    if not result and g.n > min_order:
        for child in _reductions(g):
            if _contains_any(child, patterns, memo, min_order, min_size, settle):
                result = True
                break
    memo[key] = result
    return result
