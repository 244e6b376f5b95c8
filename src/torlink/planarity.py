"""The planarity test and the apex scan for small graphs, on adjacency
bitmasks. Nothing here is stored on a `Graph`; `oracles.is_apex` keeps the
scan's outcome as the graph's apex witness.

A graph is planar when it can be drawn in the plane without crossings, and
apex when deleting at most one vertex leaves a planar graph. The test is the
path addition algorithm of Demoucron, Malgrange and Pertuiset (1964): embed
a cycle H, then repeatedly take a fragment of the rest (a chord of H, or a
component of G - H with its edges to H), pick a face of H that holds all of
the fragment's attachment vertices, and embed a path of the fragment
between two attachments there, splitting the face in two. A fragment with
only one such face must go there; if none is forced, any fragment and any
of its faces will do. G is planar iff no fragment is ever left without a
face.

The path addition is only sound when every fragment has at least two
attachments, so a fragment that meets H in at most one vertex, a separate
block or component, is tested on its own and removed. Before any of this
the graph is reduced to its core without changing its planarity
(`graphs.reduce_to_core`): vertices of degree at most 1 are deleted,
vertices of degree 2 smoothed (a parallel edge never changes planarity,
so one is dropped), and Euler's bound m <= 3n - 6 rejects dense graphs.
Myrvold and Kocay, *Errors in graph embedding algorithms* (JCSS 2011),
list the pitfalls of such tests.
"""

from __future__ import annotations

from .graphs import Graph, reduce_to_core


def is_planar(g: Graph) -> bool:
    """True iff g has a crossing-free drawing in the plane."""
    return _planar(list(g._adj), (1 << g.n) - 1)


def apex_scan(adj: tuple[int, ...], tried: int) -> int:
    """The first vertex, by decreasing degree, whose deletion leaves the
    graph with these 0-based adjacency masks planar, or -1 for none.

    The scan stops at the first vertex whose deletion leaves more edges
    than Euler's bound allows, since every later deletion leaves at least
    as many. `tried` is a vertex whose deletion the caller already found
    to leave a non-planar graph, or -1; it is not tried again.
    """
    n = len(adj)
    m = sum(a.bit_count() for a in adj) // 2
    for v in sorted(range(n), key=lambda v: -adj[v].bit_count()):
        if n > 3 and m - adj[v].bit_count() > 3 * (n - 1) - 6:
            break
        if v != tried and planar_without(adj, v):
            return v
    return -1


def planar_without(adj: tuple[int, ...], v: int) -> bool:
    """Whether deleting the 0-based vertex v from the graph with these
    adjacency masks leaves a planar graph."""
    bit = 1 << v
    return _planar([a & ~bit for a in adj], (1 << len(adj)) - 1 & ~bit)


def _planar(adj: list[int], alive: int) -> bool:
    """Planarity of the graph on the vertex set `alive`, where adj[v] is the
    neighbour mask of v (a subset of alive) for every v in alive. The list
    is modified."""
    alive = reduce_to_core(adj, alive)
    n = alive.bit_count()
    if n <= 4:
        return True
    if sum(adj[v].bit_count() for v in _bits(alive)) > 2 * (3 * n - 6):
        return False
    if n == 5:
        return True  # only K5, which the bound excluded, is non-planar here
    # Every vertex now has degree >= 3, so a walk that never turns back
    # closes a cycle.
    v = prev = (alive & -alive).bit_length() - 1
    walk = [v]
    while True:
        nxt = adj[v] & ~(1 << prev)
        w = (nxt & -nxt).bit_length() - 1
        if w in walk:
            cycle = walk[walk.index(w):]
            break
        walk.append(w)
        prev, v = v, w
    placed = 0
    tree = [0] * len(adj)  # the embedded edges, as neighbour masks
    for i, u in enumerate(cycle):
        w = cycle[i - 1]
        placed |= 1 << u
        tree[u] |= 1 << w
        tree[w] |= 1 << u
    faces = [cycle, cycle[:]]
    face_masks = [placed, placed]
    while True:
        forced = free = None
        for attach, comp in _fragments(adj, alive, placed, tree):
            if attach & (attach - 1) == 0:
                # A separate block or component: test it alone, then drop it.
                # The generator has already left comp behind, so this is safe.
                sub = comp | attach
                if not _planar([a & sub for a in adj], sub):
                    return False
                alive &= ~comp
                for u in _bits(attach):
                    adj[u] &= ~comp
                continue
            room = [i for i, fm in enumerate(face_masks) if attach & ~fm == 0]
            if not room:
                return False
            if len(room) == 1:
                forced = (attach, comp, room[0])
            elif free is None:
                free = (attach, comp, room[0])
        pick = forced or free
        if pick is None:
            return True
        attach, comp, i = pick
        path = _fragment_path(adj, attach, comp)
        for a, b in zip(path, path[1:]):
            placed |= 1 << b
            tree[a] |= 1 << b
            tree[b] |= 1 << a
        face = faces[i]
        p, q = face.index(path[0]), face.index(path[-1])
        if p < q:
            there, back = face[p : q + 1], face[q:] + face[: p + 1]
        else:
            there, back = face[p:] + face[: q + 1], face[q : p + 1]
        inner = path[1:-1]
        faces[i] = there + inner[::-1]
        faces.append(back + inner)
        face_masks[i] = _mask(faces[i])
        face_masks.append(_mask(faces[-1]))


def _fragments(adj: list[int], alive: int, placed: int, tree: list[int]):
    """(attachments, inner vertices) of each fragment relative to the
    embedded subgraph: chords first (no inner vertices), then the
    components of the unplaced vertices."""
    for u in _bits(placed):
        for w in _bits(adj[u] & placed & ~tree[u] & ~((2 << u) - 1)):
            yield 1 << u | 1 << w, 0
    rest = alive & ~placed
    while rest:
        comp = frontier = rest & -rest
        while frontier:
            reach = 0
            for c in _bits(frontier):
                reach |= adj[c]
            frontier = reach & rest & ~comp
            comp |= frontier
        rest &= ~comp
        attach = 0
        for c in _bits(comp):
            attach |= adj[c]
        yield attach & placed, comp


def _fragment_path(adj: list[int], attach: int, comp: int) -> list[int]:
    """A path between two attachments of a fragment, with its inner
    vertices in comp. From the first attachment it steps into comp, never
    along a chord back to the embedded part, and searches comp breadth
    first until a vertex next to another attachment turns up."""
    a = (attach & -attach).bit_length() - 1
    if not comp:
        return [a, attach.bit_length() - 1]
    others = attach & ~(1 << a)
    first = adj[a] & comp
    s = (first & -first).bit_length() - 1
    parent = {s: a}
    queue = [s]
    for c in queue:
        hit = adj[c] & others
        if hit:
            path = [(hit & -hit).bit_length() - 1]
            while c != a:
                path.append(c)
                c = parent[c]
            path.append(a)
            return path
        for w in _bits(adj[c] & comp):
            if w not in parent:
                parent[w] = c
                queue.append(w)
    raise AssertionError("a fragment with two attachments has a path")


def _bits(mask: int):
    """The set bit positions of mask, lowest first."""
    while mask:
        low = mask & -mask
        yield low.bit_length() - 1
        mask ^= low


def _mask(vertices: list[int]) -> int:
    out = 0
    for v in vertices:
        out |= 1 << v
    return out
