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


def automorphisms(g: Graph) -> list[list[int]]:
    """Automorphisms of g that the canonical labeling search meets, each as
    a list p that maps 0-based vertex v to p[v]; fills g's canonical form.

    Each is read off two leaves with equal keys, or swaps two isolated or
    two universal vertices, which are stripped before the search. They
    need not generate the whole group, since backjumping skips leaves that
    could give more; on every graph the tests compare them with, their
    vertex and edge orbits are the group's.
    """
    pairs: list[tuple[list[int], list[int]]] = []
    g._canon = _canon(g.n, g._adj, pairs)[0]
    out = []
    for src, dst in pairs:
        p = list(range(g.n))
        for s, t in zip(src, dst):
            p[s] = t
        out.append(p)
    return out


def orbit_firsts(
    pairs: list[tuple[int, int]], perms: list[list[int]]
) -> list[tuple[int, int]]:
    """The first of the given 0-based vertex pairs (u, v), u <= v, in each
    of their orbits under the group that perms generate, in the given
    order.

    Each orbit is closed over every pair the perms reach, listed or not.
    With perms that generate only part of the group the orbits are finer,
    never wrong: two pairs share an orbit only when some automorphism maps
    one to the other, so a partial group only adds firsts. So with perms
    from `automorphisms(g)`, g + e and g + e' (or g - e and g - e') are
    isomorphic when e' is in the orbit of a first e, and a caller that
    tries only the firsts still tries a child of every class that the
    listed pairs give.
    """
    seen: set[tuple[int, int]] = set()
    out: list[tuple[int, int]] = []
    for pair in pairs:
        if pair in seen:
            continue
        out.append(pair)
        seen.add(pair)
        todo = [pair]
        for a, b in todo:
            for p in perms:
                x, y = p[a], p[b]
                e = (x, y) if x < y else (y, x)
                if e not in seen:
                    seen.add(e)
                    todo.append(e)
    return out


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


def _canon(n: int, adj: tuple[int, ...], pairs: list | None = None):
    """Canonical key, and the vertices in canonical position order
    (universal, core, isolated). When `pairs` is a list, the automorphisms
    met are appended to it, each as a pair (src, dst) of vertex lists:
    src[i] -> dst[i], every other vertex fixed."""
    if n <= 1:
        return bytes([n]), list(range(n))
    iso, univ = _split_extremes(n, adj)
    if iso or univ:
        drop = set(iso) | set(univ)
        keep = [v for v in range(n) if v not in drop]
        inner_pairs = None if pairs is None else []
        key, inner = _canon(*_induce(adj, keep), inner_pairs)
        head = bytes([n, len(iso), len(univ)])
        if pairs is not None:
            for s, t in inner_pairs:
                pairs.append(([keep[i] for i in s], [keep[i] for i in t]))
            # Any permutation of the isolated, or of the universal,
            # vertices is one: swaps of neighbours in each list generate
            # them.
            pairs += [
                ([a, b], [b, a]) for part in (iso, univ) for a, b in zip(part, part[1:])
            ]
        return head + key, univ + [keep[i] for i in inner] + iso
    key, order = _core_min_labeling(n, adj, pairs)
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


def _core_min_labeling(n: int, adj: tuple[int, ...], pairs: list | None):
    """Smallest adjacency key over refined labelings, with its vertex order;
    the automorphisms met go to `pairs`, when it is a list, as (best_order,
    order) pairs of leaves with equal keys."""
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
            if pairs is not None and key == best_key:
                # best_order[i] -> order[i] maps edges to edges both ways.
                pairs.append((best_order, order))
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
