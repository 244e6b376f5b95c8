"""Independent brute-force oracles used to validate the fast implementations.

Everything here is deliberately naive: permutations for isomorphism,
every leaf of the refinement tree for canonical keys, every edge-added
child for isomorphism classes, injections for subgraph containment,
unmemoized recursion (with networkx doing the bottom matching) for minors,
networkx node removals for cores, a networkx walk over every deletion
and contraction followed by a core for reduction closures,
all pairs of permutation-found cycles for torus link scans, the
triangle/star exchange closure of K6 for the Petersen family table. Only
usable at tiny orders.
"""

from itertools import combinations, permutations
from math import factorial, gcd

import networkx as nx

from torlink import Graph, canonical_form, canonical_graph, complete_graph


def to_nx(g: Graph) -> nx.Graph:
    out = nx.Graph()
    out.add_nodes_from(range(1, g.n + 1))
    out.add_edges_from(g.edges)
    return out


def well_formed(g: Graph) -> bool:
    """Adjacency masks symmetric, no self bits, no stray high bits."""
    for i, m in enumerate(g._adj):
        if m >> i & 1:
            return False
        if m >> g.n:
            return False
        for j in range(g.n):
            if (m >> j & 1) != (g._adj[j] >> i & 1):
                return False
    return True


def brute_isomorphic(g: Graph, h: Graph) -> bool:
    if g.n != h.n or g.size != h.size:
        return False
    gset = set(g.edges)
    for perm in permutations(range(1, h.n + 1)):
        mapping = {i + 1: perm[i] for i in range(h.n)}
        if {tuple(sorted((mapping[u], mapping[v]))) for u, v in g.edges} == set(
            h.edges
        ):
            return True
    return False


def brute_canonical_key(g: Graph) -> bytes:
    """canonical_form's bytes from a walk over every leaf of the
    individualization-refinement tree, with no pruning."""
    return _brute_canon(g.n, g._adj)


def _brute_canon(n: int, adj: tuple[int, ...]) -> bytes:
    if n <= 1:
        return bytes([n])
    iso = [v for v in range(n) if adj[v] == 0]
    univ = [v for v in range(n) if adj[v].bit_count() == n - 1]
    if iso or univ:
        keep = [v for v in range(n) if v not in iso and v not in univ]
        pos = {v: i for i, v in enumerate(keep)}
        inner = tuple(
            sum(1 << pos[w] for w in keep if adj[v] >> w & 1) for v in keep
        )
        return bytes([n, len(iso), len(univ)]) + _brute_canon(len(keep), inner)
    best = None
    stack = [_brute_refine(adj, [tuple(range(n))])]
    while stack:
        cells = stack.pop()
        open_cells = [i for i, c in enumerate(cells) if len(c) > 1]
        if not open_cells:
            order = [c[0] for c in cells]
            key = 0
            for i in range(n):
                for j in range(i + 1, n):
                    key = key << 1 | (adj[order[i]] >> order[j] & 1)
            if best is None or key < best:
                best = key
            continue
        target = min(open_cells, key=lambda i: len(cells[i]))
        cell = cells[target]
        for v in cell:
            rest = tuple(w for w in cell if w != v)
            split = cells[:target] + [(v,), rest] + cells[target + 1 :]
            stack.append(_brute_refine(adj, split))
    nbytes = (n * (n - 1) // 2 + 7) // 8
    return bytes([n, 255]) + best.to_bytes(nbytes, "big")


def _brute_refine(adj: tuple[int, ...], cells: list[tuple[int, ...]]):
    """Equitable refinement; new subcells ordered by signature."""
    while True:
        masks = [sum(1 << v for v in c) for c in cells]
        new_cells = []
        for cell in cells:
            groups: dict[tuple[int, ...], list[int]] = {}
            for v in cell:
                sig = tuple((adj[v] & m).bit_count() for m in masks)
                groups.setdefault(sig, []).append(v)
            new_cells.extend(tuple(groups[sig]) for sig in sorted(groups))
        if len(new_cells) == len(cells):
            return new_cells
        cells = new_cells


def brute_isomorphism_classes(n: int) -> list[Graph]:
    """All order-n graphs up to isomorphism, by edge-adding closure that
    canonizes every child of every class."""
    level = {canonical_form(Graph(n)): Graph(n)}
    out = list(level.values())
    while level:
        nxt: dict[bytes, Graph] = {}
        for g in level.values():
            for e in g.non_edges():
                cand = g.add_edge(e)
                nxt.setdefault(canonical_form(cand), cand)
        out.extend(nxt.values())
        level = nxt
    return out


def _entries(masks, deg: list[int]) -> list[int]:
    """The entry of each vertex v of the graph with these 0-based adjacency
    masks and vertex degrees: (deg v, sum of the degrees of v's
    neighbours, sum over neighbours w of |N(v) & N(w)|), packed as
    deg << 16 | degree sum << 8 | common sum. The packing is exact for
    n <= 12: degrees are below 16 and both sums at most 11 * 11 < 256.
    Packed or not, an entry is a function of its vertex's triple, so it is
    an isomorphism invariant of the vertex for any n.

    This is the definition, computed from scratch. The census walk never
    computes it: `torlink.search._top_children` carries each child's
    entries from its parent's, and the tests check them against this."""
    out = []
    for mask, d in zip(masks, deg):
        s = 0
        rest = mask
        while rest:
            low = rest & -rest
            w = low.bit_length() - 1
            s += deg[w] << 8 | (mask & masks[w]).bit_count()
            rest ^= low
        out.append(d << 16 | s)
    return out


def packed_entries(g: Graph) -> int:
    """g's entries packed as `torlink.search._levels` carries them, 20 bits
    per vertex."""
    entries = _entries(g._adj, [m.bit_count() for m in g._adj])
    return sum(x << 20 * v for v, x in enumerate(entries))


def _ties(masks, deg: list[int], u: int, v: int):
    """`torlink.search._ties` as first written, kept here so that the
    reference shares no code with what it checks: for the edge (u, v) of
    the graph with these 0-based adjacency masks and vertex degrees, None
    when some edge at a vertex of the maximum degree has a larger head
    (larger endpoint degree, smaller endpoint degree, common neighbours),
    else every such edge (a, b), a of the maximum degree, whose head
    equals that of (u, v), (u, v) itself among them."""
    hi = max(deg)
    mine = min(deg[u], deg[v]) << 4 | (masks[u] & masks[v]).bit_count()
    ties = []
    for a, mask in enumerate(masks):
        if deg[a] != hi:
            continue
        rest = mask
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


def reference_top_children(g: Graph):
    """`torlink.search._top_children` as first written: (key, top, child)
    for the same children, in the same order, and also those whose new
    edge loses on the entries (top False), with every non-edge of the
    twin rule copied into a full child, tested by the `_ties` above on
    the child's own masks and degrees, and given entries computed from
    scratch by `_entries`. Each child's apex witness is filled by the rule
    of `oracles.carry_witness`, restated: g's witness when it is -1 or an
    end of the new edge, the pending claim ~(w << 8 | u << 4 | v) for
    another apex vertex w, and nothing when g has no witness or only a
    claim."""
    n = g.n
    adj = g._adj
    deg = [m.bit_count() for m in adj]
    low = max(deg, default=0) - 1
    partners = [0] * n
    heads: list[int] = []
    paired = 0
    for v in range(n):
        for h in heads:
            if adj[h] & ~(1 << v) == adj[v] & ~(1 << h):
                if not paired >> h & 1:
                    paired |= 1 << h
                    partners[h] |= 1 << v
                break
        else:
            for h in heads:
                partners[h] |= 1 << v
            heads.append(v)
    apex = g._witness
    for u in range(n):
        rest = partners[u] & ~adj[u]
        while rest:
            bit = rest & -rest
            rest ^= bit
            v = bit.bit_length() - 1
            if deg[u] < low and deg[v] < low:
                continue
            masks = list(adj)
            masks[u] |= bit
            masks[v] |= 1 << u
            child_deg = deg.copy()
            child_deg[u] += 1
            child_deg[v] += 1
            ties = _ties(masks, child_deg, u, v)
            if ties is None:
                continue
            entries = _entries(masks, child_deg)
            eu, ev = entries[u], entries[v]
            mine = max(eu, ev) << 20 | min(eu, ev)
            top = all(
                max(entries[a], entries[b]) << 20 | min(entries[a], entries[b])
                <= mine
                for a, b in ties
            )
            entries.sort()
            child = Graph._from_masks(masks)
            if apex is not None and (apex == -1 or apex == u or apex == v):
                child._witness = apex
            elif apex is not None and apex >= 0:
                child._witness = ~(apex << 8 | u << 4 | v)
            yield tuple(entries), top, child


def polya_graph_counts(n: int) -> list[int]:
    """The number of order-n graphs with m edges up to isomorphism, for
    m = 0 .. n(n - 1)/2, from the cycle index of S_n acting on vertex
    pairs (Harary and Palmer, *Graphical Enumeration*, 1973, ch. 4).

    By Burnside's lemma the count is the average, over all permutations,
    of the edge sets they fix. A permutation fixes exactly the unions of
    its cycles on pairs, so it contributes the product of (1 + x^len) over
    those cycles, and the cycles depend only on its cycle type. A k-cycle
    moves its own pairs in (k - 1) // 2 cycles of length k, plus one of
    length k/2 when k is even; a k-cycle and an l-cycle move the pairs
    between them in gcd(k, l) cycles of length lcm(k, l).
    """
    pairs = n * (n - 1) // 2
    total = [0] * (pairs + 1)
    for parts in _partitions(n, n):
        lengths = []
        for i, k in enumerate(parts):
            lengths += [k] * ((k - 1) // 2)
            if k % 2 == 0:
                lengths.append(k // 2)
            for l in parts[i + 1 :]:
                lengths += [k * l // gcd(k, l)] * gcd(k, l)
        poly = [1] + [0] * pairs
        for c in lengths:
            for m in range(pairs, c - 1, -1):
                poly[m] += poly[m - c]
        # n! / z permutations have this cycle type, z = prod k^c_k c_k!.
        z = 1
        for k in set(parts):
            c = parts.count(k)
            z *= k**c * factorial(c)
        for m, fixed in enumerate(poly):
            total[m] += factorial(n) // z * fixed
    return [t // factorial(n) for t in total]


def _partitions(n: int, largest: int):
    """The partitions of n into parts of at most `largest`, largest first."""
    if n == 0:
        yield []
        return
    for k in range(min(n, largest), 0, -1):
        for rest in _partitions(n - k, k):
            yield [k, *rest]


def brute_subgraph_iso(pattern: Graph, host: Graph) -> bool:
    if pattern.n > host.n:
        return False
    # Every injection of the pattern's vertices, chosen[i] the image of i + 1.
    arcs = set(host.edges) | {(b, a) for a, b in host.edges}
    pedges = [(u - 1, v - 1) for u, v in pattern.edges]
    for chosen in permutations(range(1, host.n + 1), pattern.n):
        if all((chosen[u], chosen[v]) in arcs for u, v in pedges):
            return True
    return False


def brute_copy_edges(pattern: Graph, host: Graph) -> set[tuple[int, int]]:
    """The host edges (a, b), a < b, onto which some copy of the pattern
    maps a pattern edge, from every injection of the pattern's vertices."""
    covered = set()
    for chosen in permutations(range(1, host.n + 1), pattern.n):
        images = [
            tuple(sorted((chosen[u - 1], chosen[v - 1]))) for u, v in pattern.edges
        ]
        if all(host.has_edge(a, b) for a, b in images):
            covered.update(images)
    return covered


def brute_automorphisms(g: Graph) -> list[list[int]]:
    """Every automorphism of g, as a list p mapping 0-based v to p[v];
    networkx finds them."""
    matcher = nx.algorithms.isomorphism.GraphMatcher(to_nx(g), to_nx(g))
    return [
        [m[v] - 1 for v in range(1, g.n + 1)] for m in matcher.isomorphisms_iter()
    ]


def pair_orbits(n: int, perms) -> set[frozenset[tuple[int, int]]]:
    """The orbits of the group the permutations generate on the vertex
    pairs (a, b), a < b, of 0..n-1: edges and non-edges alike."""
    orbits = set()
    seen = set()
    for pair in combinations(range(n), 2):
        if pair in seen:
            continue
        orbit = {pair}
        todo = [pair]
        for a, b in todo:
            for p in perms:
                image = tuple(sorted((p[a], p[b])))
                if image not in orbit:
                    orbit.add(image)
                    todo.append(image)
        seen |= orbit
        orbits.add(frozenset(orbit))
    return orbits


def vertex_orbits(n: int, perms) -> set[frozenset[int]]:
    """The orbits of the group the permutations generate on 0..n-1."""
    orbits = set()
    seen = set()
    for v in range(n):
        if v in seen:
            continue
        orbit = {v}
        todo = [v]
        for x in todo:
            for p in perms:
                if p[x] not in orbit:
                    orbit.add(p[x])
                    todo.append(p[x])
        seen |= orbit
        orbits.add(frozenset(orbit))
    return orbits


def brute_minor(g: Graph, h: Graph) -> bool:
    """Unmemoized reduction recursion; networkx does the spanning check."""
    if g.n < h.n or g.size < h.size:
        return False
    if g.n == h.n:
        matcher = nx.algorithms.isomorphism.GraphMatcher(to_nx(g), to_nx(h))
        return matcher.subgraph_is_monomorphic()
    for v in range(1, g.n + 1):
        if brute_minor(g.delete_vertex(v), h):
            return True
    for e in g.edges:
        if brute_minor(g.contract_edge(e), h):
            return True
    return False


def from_nx(h: nx.Graph) -> Graph:
    """h as a Graph, its nodes numbered 1.. in h's node order."""
    pos = {v: i for i, v in enumerate(h, start=1)}
    return Graph(len(pos), [(pos[a], pos[b]) for a, b in h.edges])


def _nx_core(h: nx.Graph) -> nx.Graph:
    """A copy of h less each node of degree <= 1, and with each node of
    degree 2 replaced by an edge between its neighbours, until none is
    left. networkx keeps one edge per pair, so a node whose neighbours are
    adjacent is simply removed."""
    h = h.copy()
    while True:
        low = [v for v, d in h.degree if d <= 2]
        if not low:
            return h
        v = low[0]
        ends = list(h[v])
        h.remove_node(v)
        if len(ends) == 2:
            h.add_edge(*ends)


def brute_core(g: Graph) -> Graph:
    """g with vertices of degree <= 1 deleted and vertices of degree 2
    smoothed until none is left, a smoothed vertex whose neighbours are
    already adjacent deleted; networkx takes the steps."""
    return from_nx(_nx_core(to_nx(g)))


def brute_reduction_closure(g: Graph, min_order: int, min_size: int) -> set[bytes]:
    """Canonical forms of the core of g and of every core with at least
    min_order vertices and min_size edges that vertex deletions and edge
    contractions, each followed by `brute_core`, reach from it; networkx
    takes the steps."""
    found: set[bytes] = set()
    todo = [to_nx(g)]
    while todo:
        h = _nx_core(todo.pop())
        if h.number_of_nodes() < min_order or h.number_of_edges() < min_size:
            continue
        key = canonical_form(from_nx(h))
        if key in found:
            continue
        found.add(key)
        for v in h:
            child = h.copy()
            child.remove_node(v)
            todo.append(child)
        for a, b in h.edges:
            todo.append(nx.contracted_nodes(h, a, b, self_loops=False))
    return found


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


def brute_petersen_family() -> tuple[Graph, ...]:
    """The Petersen family, computed as the closure of K6 under both
    exchange moves: canonical representatives ordered by (order, canonical
    form).

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


def brute_cycles(g: Graph, min_len: int, max_len: int) -> set[tuple[int, ...]]:
    """All cycles as canonical tuples, from raw vertex-sequence filtering."""
    found = set()
    verts = range(1, g.n + 1)
    for k in range(min_len, max_len + 1):
        for seq in permutations(verts, k):
            if all(g.has_edge(seq[i], seq[(i + 1) % k]) for i in range(k)):
                found.add(canonical_cycle(seq))
    return found


def canonical_cycle(seq: tuple[int, ...]) -> tuple[int, ...]:
    """Rotate to the smallest vertex, then take the smaller direction."""
    k = len(seq)
    i = seq.index(min(seq))
    rotated = seq[i:] + seq[:i]
    reverse = (rotated[0],) + tuple(reversed(rotated[1:]))
    return min(rotated, reverse)


def all_graphs_of_order(n: int):
    """Every labeled graph on n vertices (2^C(n,2) of them)."""
    pairs = list(combinations(range(1, n + 1), 2))
    for bits in range(1 << len(pairs)):
        yield Graph(n, [p for i, p in enumerate(pairs) if bits >> i & 1])


def brute_crossing_sums(d, cycle: tuple[int, ...]) -> tuple[int, int]:
    """Signed boundary crossings along the traversal, read off the raw lists."""
    p = q = 0
    k = len(cycle)
    for i in range(k):
        step = (cycle[i], cycle[(i + 1) % k])
        back = step[::-1]
        p += (step in d.up_list) - (back in d.up_list)
        q += (step in d.right_list) - (back in d.right_list)
    return p, q


def brute_slope_text(p: int, q: int) -> str:
    """Reduced slope of a nonzero sum pair: q > 0, or p > 0 when q == 0."""
    g = gcd(p, q)
    p, q = p // g, q // g
    if q < 0 or (q == 0 and p < 0):
        p, q = -p, -q
    return f"{p}/{q}"


def brute_link_scan(d, min_len: int = 3, max_len: int | None = None):
    """Links and clashes among cycles of length min_len..max_len (default
    n-3), over all pairs.

    Links are vertex-disjoint pairs whose crossing sums are parallel with
    both components nonzero, as sorted (cycle_a, cycle_b, slope) triples.
    Clashes are vertex-disjoint pairs of nonzero sums that are not
    parallel, as (cycle_a, cycle_b, slope_a, slope_b) in the (length,
    tuple) order of their cycles.
    """
    hi = d.graph.n - 3 if max_len is None else max_len
    cycles = sorted(brute_cycles(d.graph, min_len, hi), key=lambda c: (len(c), c))
    essential = [(c, set(c), brute_crossing_sums(d, c)) for c in cycles]
    essential = [e for e in essential if e[2] != (0, 0)]
    links, clashes = [], []
    for i, (a, set_a, (pa, qa)) in enumerate(essential):
        for b, set_b, (pb, qb) in essential[i + 1 :]:
            if not set_a.isdisjoint(set_b):
                continue
            if pa * qb != pb * qa:
                clashes.append(
                    (a, b, brute_slope_text(pa, qa), brute_slope_text(pb, qb))
                )
            elif pa and qa:
                links.append((min(a, b), max(a, b), brute_slope_text(pa, qa)))
    return sorted(links), clashes


def random_graph(rng, n: int, p: float) -> Graph:
    edges = [e for e in combinations(range(1, n + 1), 2) if rng.random() < p]
    return Graph(n, edges)


def min_degree(g: Graph) -> int:
    """The least vertex degree of g, 0 for the empty graph."""
    return min((len(g.neighbors(v)) for v in range(1, g.n + 1)), default=0)


def complete_multipartite(*parts: int) -> Graph:
    """K_{parts[0], parts[1], ...}: every edge between different parts."""
    start = [sum(parts[:i]) for i in range(len(parts))]
    edges = [
        (start[i] + a, start[j] + b)
        for i, j in combinations(range(len(parts)), 2)
        for a in range(1, parts[i] + 1)
        for b in range(1, parts[j] + 1)
    ]
    return Graph(sum(parts), edges)
