"""Canonical forms and isomorphism for small graphs.

The canonical form is an opaque byte string that is identical for two
graphs exactly when they are isomorphic. It is computed by iterative
color refinement followed by a backtracking search over the remaining
cell choices, keeping the lexicographically smallest adjacency bitstring.
Isolated and universal vertices are stripped first (they are mutually
interchangeable), which keeps the search shallow on very dense or very
sparse graphs.

Adequate for n <= 12; not a general-purpose canonizer.
"""

from __future__ import annotations

from .graphs import Graph


def canonical_form(g: Graph) -> bytes:
    """Permutation-invariant key, injective on isomorphism classes."""
    if g._canon is None:
        g._canon = _canon(g.n, g._adj)[0]
    return g._canon


def canonical_graph(g: Graph) -> Graph:
    """The canonically labeled representative of g's isomorphism class."""
    key, order = _canon(g.n, g._adj)
    rep = g.relabel({v + 1: i + 1 for i, v in enumerate(order)})
    # Isomorphic graphs share a key, so both can skip the recomputation.
    g._canon = rep._canon = key
    return rep


def is_isomorphic(g: Graph, h: Graph) -> bool:
    """True iff an edge-preserving bijection of vertex sets exists."""
    if g.n != h.n or g.size != h.size:
        return False
    if g.degree_sequence() != h.degree_sequence():
        return False
    return canonical_form(g) == canonical_form(h)


# -- internals ---------------------------------------------------------------


def _split_extremes(n: int, adj: tuple[int, ...]) -> tuple[list[int], list[int]]:
    iso = [v for v in range(n) if adj[v] == 0]
    univ = [v for v in range(n) if adj[v].bit_count() == n - 1]
    return iso, univ


def _induce(adj: tuple[int, ...], keep: list[int]) -> tuple[int, tuple[int, ...]]:
    pos = {v: i for i, v in enumerate(keep)}
    out = []
    for v in keep:
        m = 0
        row = adj[v]
        for w in keep:
            if row >> w & 1:
                m |= 1 << pos[w]
        out.append(m)
    return len(keep), tuple(out)


def _canon(n: int, adj: tuple[int, ...]) -> tuple[bytes, list[int]]:
    """Canonical key, and the vertices in canonical position order
    (universal, core, isolated)."""
    if n <= 1:
        return bytes([n]), list(range(n))
    iso, univ = _split_extremes(n, adj)
    if iso or univ:
        drop = set(iso) | set(univ)
        keep = [v for v in range(n) if v not in drop]
        key, inner = _canon(*_induce(adj, keep))
        head = bytes([n, len(iso), len(univ)])
        return head + key, univ + [keep[i] for i in inner] + iso
    key, order = _core_min_labeling(n, adj)
    nbytes = (n * (n - 1) // 2 + 7) // 8
    return bytes([n, 255]) + key.to_bytes(nbytes, "big"), order


def _refine(n: int, adj: tuple[int, ...], cells: list[tuple[int, ...]]):
    """Equitable refinement; new subcells ordered by signature."""
    while True:
        masks = [_mask(c) for c in cells]
        new_cells: list[tuple[int, ...]] = []
        changed = False
        for cell in cells:
            if len(cell) == 1:
                new_cells.append(cell)
                continue
            groups: dict[tuple[int, ...], list[int]] = {}
            for v in cell:
                row = adj[v]
                sig = tuple((row & m).bit_count() for m in masks)
                groups.setdefault(sig, []).append(v)
            if len(groups) == 1:
                new_cells.append(cell)
            else:
                changed = True
                for sig in sorted(groups):
                    new_cells.append(tuple(groups[sig]))
        if not changed:
            return new_cells
        cells = new_cells


def _mask(cell: tuple[int, ...]) -> int:
    m = 0
    for v in cell:
        m |= 1 << v
    return m


def _core_min_labeling(n: int, adj: tuple[int, ...]):
    """Smallest adjacency key over refined labelings, with its vertex order."""
    best_key = None
    best_order = None
    start = _refine(n, adj, [tuple(range(n))])
    stack = [start]
    while stack:
        cells = stack.pop()
        target = -1
        target_len = n + 1
        for i, c in enumerate(cells):
            if 1 < len(c) < target_len:
                target = i
                target_len = len(c)
        if target < 0:
            order = [c[0] for c in cells]
            key = 0
            for i in range(n):
                row = adj[order[i]]
                for j in range(i + 1, n):
                    key = key << 1 | (row >> order[j] & 1)
            if best_key is None or key < best_key:
                best_key = key
                best_order = order
            continue
        cell = cells[target]
        for v in cell:
            rest = tuple(w for w in cell if w != v)
            split = cells[:target] + [(v,), rest] + cells[target + 1 :]
            stack.append(_refine(n, adj, split))
    return best_key, best_order
