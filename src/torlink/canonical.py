"""Canonical forms and isomorphism for small graphs.

The canonical form is an opaque byte string that is identical for two
graphs exactly when they are isomorphic. Isolated and universal vertices
are stripped first (they are mutually interchangeable), which keeps the
search shallow on very dense or very sparse graphs. The rest is an
individualization-refinement search: refine the vertex partition to an
equitable one, individualize each vertex of the first smallest
non-singleton cell in turn, refine again, and so on down to discrete
partitions. Each discrete partition is a labeling; the key is the
lexicographically smallest adjacency bitstring over all of them.

Refinement splits every cell by each vertex's neighbour counts in the
cells and orders the subcells by those counts, round after round until
nothing splits. A round counts neighbours only in the cells the previous
round split off (the splitter idea of McKay and Piperno's refinement):
every cell at the root, and (v,) and the rest of its cell after
individualizing v out of an equitable partition. Against any other cell
the counts are constant within each cell, so dropping them changes
neither which vertices group together nor the order of the subcells, and
the partitions, labelings and keys are those of counting against every
cell (``tests/bruteforce.py`` keeps that refinement as the reference).

The search is depth-first and prunes by backjumping (McKay and Piperno,
Practical graph isomorphism II, 2014, section 3). Individualizing v puts
(v,) first in its cell's positions and refinement splits cells in place,
so an individualized vertex keeps its position down to the leaf. Two
leaves with equal bitstrings give an automorphism gamma: best_order[i]
-> order[i]. It fixes their common path prefix and, as both branch
vertices start the same target cell, maps the best leaf's branch onto
the current one. Refinement and the choice of target cell are
label-equivariant as an ordered partition into sets, so the current
branch holds the gamma-images of the leaves of that branch, which was
finished or skipped by the same argument, with the same bitstrings and
later in search order. So the search resumes at the common ancestor's
next child, and every key and labeling is that of visiting every leaf;
``tests/bruteforce.py`` keeps that exhaustive walk as the reference.

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
    """The canonically labeled representative of g's isomorphism class.

    Isomorphic graphs give equal representatives, so a set of them holds
    one graph per class; the search and the censuses rely on this.
    """
    key, order = _canon(g.n, g._adj)
    rep = g.relabel({v + 1: i + 1 for i, v in enumerate(order)})
    # Isomorphic graphs share a key, so both can skip the recomputation.
    g._canon = rep._canon = key
    return rep


def is_isomorphic(g: Graph, h: Graph) -> bool:
    """True iff an edge-preserving bijection of vertex sets exists."""
    if g.n != h.n or g.size != h.size:
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


def _refine(
    n: int,
    adj: tuple[int, ...],
    cells: list[tuple[int, ...]],
    fresh: list[tuple[int, ...]],
):
    """Equitable refinement of cells; new subcells ordered by signature.

    fresh lists, in partition order, the cells against which some cell
    may not yet be equitable: every cell for the unit partition, (v,) and
    rest after individualizing v out of a cell of an equitable partition.
    """
    bit_count = int.bit_count
    while True:
        masks = []
        for c in fresh:
            m = 0
            for v in c:
                m |= 1 << v
            masks.append(m)
        new_cells: list[tuple[int, ...]] = []
        fresh = []
        for cell in cells:
            if len(cell) == 1:
                new_cells.append(cell)
                continue
            # Counts packed 4 bits each (all < 16 for n <= 12), so int
            # order is the order of the count tuples.
            groups: dict[int, list[int]] = {}
            for v in cell:
                row = adj[v]
                sig = 0
                for m in masks:
                    sig = sig << 4 | bit_count(row & m)
                groups.setdefault(sig, []).append(v)
            if len(groups) == 1:
                new_cells.append(cell)
            else:
                for sig in sorted(groups):
                    sub = tuple(groups[sig])
                    new_cells.append(sub)
                    fresh.append(sub)
        if not fresh:
            return new_cells
        cells = new_cells


def _leaf_key(n: int, adj: tuple[int, ...], order: list[int]) -> int:
    key = 0
    for i in range(n):
        row = adj[order[i]]
        for j in range(i + 1, n):
            key = key << 1 | (row >> order[j] & 1)
    return key


def _core_min_labeling(n: int, adj: tuple[int, ...]):
    """Smallest adjacency key over refined labelings, with its vertex order."""
    unit = [tuple(range(n))]
    root = _refine(n, adj, unit, unit)
    best_key = None
    best_order: list[int] = []
    best_path: list[int] = []

    def search(cells: list[tuple[int, ...]], path: list[int]) -> int:
        """Visit the subtree at path; return the depth to resume at."""
        nonlocal best_key, best_order, best_path
        target = -1
        target_len = n + 1
        for i, c in enumerate(cells):
            if 1 < len(c) < target_len:
                target = i
                target_len = len(c)
        depth = len(path)
        if target < 0:
            order = [c[0] for c in cells]
            key = _leaf_key(n, adj, order)
            if best_key is None or key < best_key:
                best_key = key
                best_order = order
                best_path = path
            elif key == best_key:
                # An automorphism: back to the two leaves' common ancestor.
                k = 0
                while path[k] == best_path[k]:
                    k += 1
                return k
            return depth
        cell = cells[target]
        for v in cell:
            rest = tuple(w for w in cell if w != v)
            split = cells[:target] + [(v,), rest] + cells[target + 1 :]
            resume = search(_refine(n, adj, split, [(v,), rest]), path + [v])
            if resume < depth:
                return resume
        return depth

    search(root, [])
    return best_key, best_order
