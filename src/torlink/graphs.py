"""Immutable simple graphs of small order, with value semantics.

Vertices are the integers 1..n in every public interface. Internally each
vertex keeps an adjacency bitmask, which keeps the heavy combinatorial
routines (isomorphism, containment, enumeration) cheap at the orders this
package supports (n <= 12).
"""

from __future__ import annotations

from itertools import combinations
from typing import Iterable, Sequence

MAX_ORDER = 12

EdgePair = tuple[int, int]


class Graph:
    """A labeled simple undirected graph on vertices 1..n.

    Graphs are immutable values: every mutation-style operation returns a
    new graph. Equality and hashing are on the labeled structure.
    """

    # _from_masks sets every slot. _canon, _size and _plan are caches,
    # filled on first use by canonical_form, size and is_subgraph_iso.
    # _witness is the apex witness, which only oracles reads or writes:
    # None when unknown, -1 when g is not apex, or the 0-based vertex whose
    # deletion leaves a planar graph. A one-edge extension g = P + uv that
    # oracles.carry_witness builds from a P apex through a vertex w other
    # than u and v holds instead the pending new-edge claim
    # ~(w << 8 | u << 4 | v), 0-based and always <= -2, which is no
    # witness: is_nil replaces it with g's witness once it decides one.
    __slots__ = ("n", "_adj", "_canon", "_size", "_plan", "_witness")

    def __new__(cls, n: int, edges: Iterable[EdgePair] = ()):
        if not 0 <= n <= MAX_ORDER:
            raise ValueError(f"order must be between 0 and {MAX_ORDER}, got {n}")
        adj = [0] * n
        for u, v in edges:
            if u == v:
                raise ValueError(f"self-loop at vertex {u}")
            if not (1 <= u <= n and 1 <= v <= n):
                raise ValueError(f"edge ({u},{v}) out of range 1..{n}")
            adj[u - 1] |= 1 << (v - 1)
            adj[v - 1] |= 1 << (u - 1)
        return cls._from_masks(adj)

    @classmethod
    def _from_masks(cls, masks: Iterable[int]) -> "Graph":
        g = object.__new__(cls)
        g._adj = tuple(masks)
        g.n = len(g._adj)
        g._canon = None
        g._size = None
        g._plan = None
        g._witness = None
        return g

    # -- basic queries ----------------------------------------------------

    @property
    def edges(self) -> tuple[EdgePair, ...]:
        """All edges as sorted (u, v) pairs with u < v."""
        out = []
        for u in range(self.n):
            rest = self._adj[u] >> (u + 1)
            v = u + 1
            while rest:
                if rest & 1:
                    out.append((u + 1, v + 1))
                rest >>= 1
                v += 1
        return tuple(out)

    @property
    def size(self) -> int:
        """Number of edges, counted on first use."""
        if self._size is None:
            self._size = sum(m.bit_count() for m in self._adj) // 2
        return self._size

    def has_edge(self, u: int, v: int) -> bool:
        """True iff u and v are vertices joined by an edge, so False when
        either is outside 1..n."""
        n = self.n
        return 1 <= u <= n and 1 <= v <= n and self._adj[u - 1] >> (v - 1) & 1 == 1

    def neighbors(self, v: int) -> tuple[int, ...]:
        if not 1 <= v <= self.n:
            raise ValueError(f"vertex {v} out of range")
        m = self._adj[v - 1]
        return tuple(i + 1 for i in range(self.n) if m >> i & 1)

    def non_edges(self) -> tuple[EdgePair, ...]:
        """Vertex pairs not joined by an edge, in lexicographic order."""
        adj = self._adj
        return tuple(
            (u + 1, v + 1)
            for u, v in combinations(range(self.n), 2)
            if not adj[u] >> v & 1
        )

    # -- mutation-style operations (value semantics) ----------------------

    def add_edge(self, e: EdgePair) -> "Graph":
        """New graph with edge e added; e must not already be present."""
        u, v = e
        if u == v or not (1 <= u <= self.n and 1 <= v <= self.n):
            raise ValueError(f"invalid edge ({u},{v}) for order {self.n}")
        if self.has_edge(u, v):
            raise ValueError(f"edge ({u},{v}) already present")
        masks = list(self._adj)
        masks[u - 1] |= 1 << (v - 1)
        masks[v - 1] |= 1 << (u - 1)
        return Graph._from_masks(masks)

    def delete_edge(self, e: EdgePair) -> "Graph":
        """New graph with edge e removed; e must be present."""
        u, v = e
        if not self.has_edge(u, v):
            raise ValueError(f"edge ({u},{v}) not present")
        masks = list(self._adj)
        masks[u - 1] &= ~(1 << (v - 1))
        masks[v - 1] &= ~(1 << (u - 1))
        return Graph._from_masks(masks)

    def contract_edge(self, e: EdgePair) -> "Graph":
        """Merge the endpoints of e, dropping loops and parallel edges.

        The merged vertex takes the smaller endpoint's slot; remaining
        vertices are relabeled to 1..n-1 preserving their order.
        """
        u, v = e
        if not self.has_edge(u, v):
            raise ValueError(f"edge ({u},{v}) not present")
        keep, gone = (u - 1, v - 1) if u < v else (v - 1, u - 1)
        masks = list(self._adj)
        masks[keep] |= masks[gone]
        masks[keep] &= ~(1 << keep | 1 << gone)
        for w in range(self.n):
            if w != keep and masks[gone] >> w & 1:
                masks[w] |= 1 << keep
        return Graph._from_masks(_drop_slot(masks, gone, self.n))

    def delete_vertex(self, v: int) -> "Graph":
        """New graph without vertex v; others relabeled to 1..n-1."""
        if not 1 <= v <= self.n:
            raise ValueError(f"vertex {v} out of range")
        return Graph._from_masks(_drop_slot(list(self._adj), v - 1, self.n))

    def relabel(self, perm: dict[int, int]) -> "Graph":
        """Apply the bijection perm (old label -> new label) to vertices."""
        if sorted(perm) != list(range(1, self.n + 1)) or sorted(
            perm.values()
        ) != list(range(1, self.n + 1)):
            raise ValueError("perm must be a bijection of 1..n")
        return Graph(self.n, [(perm[u], perm[v]) for u, v in self.edges])

    # -- connectivity ------------------------------------------------------

    def is_connected(self) -> bool:
        """True iff the graph has exactly one component (n >= 1)."""
        if self.n == 0:
            return False
        seen = 1
        frontier = 1
        while frontier:
            nxt = 0
            while frontier:
                low = frontier & -frontier
                nxt |= self._adj[low.bit_length() - 1]
                frontier ^= low
            frontier = nxt & ~seen
            seen |= nxt
        return seen == (1 << self.n) - 1

    # -- value semantics ---------------------------------------------------

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, Graph)
            and self.n == other.n
            and self._adj == other._adj
        )

    def __hash__(self) -> int:
        return hash((self.n, self._adj))

    def __getnewargs__(self):
        # copy and pickle rebuild a graph by calling __new__ with these.
        return self.n, self.edges

    def __repr__(self) -> str:
        return f"Graph({self.n}, {list(self.edges)!r})"


def reduce_to_core(adj: list[int], alive: int) -> int:
    """Delete vertices of degree <= 1 and smooth vertices of degree 2 until
    none is left, in the graph on the vertex set `alive` where adj[v] is
    the neighbour mask of v (a subset of alive) for every v in alive;
    returns the remaining vertex set, the core. A smoothed vertex whose
    neighbours are already adjacent is deleted, as the edge it would leave
    is there. The list is modified: adj[v] is the core's neighbour mask of
    each v in the core, and stale for every other v.

    Neither planarity nor the minors of minimum degree 3 or more change;
    `planarity` and `containment` both reduce by this one function."""
    stack = [v for v in range(len(adj)) if alive >> v & 1]
    while stack:
        v = stack.pop()
        nbrs = adj[v]
        if not alive >> v & 1 or nbrs.bit_count() > 2:
            continue
        bit = 1 << v
        alive ^= bit
        if nbrs.bit_count() == 2:
            a = (nbrs & -nbrs).bit_length() - 1
            b = nbrs.bit_length() - 1
            if not adj[a] >> b & 1:
                adj[a] ^= bit | 1 << b
                adj[b] ^= bit | 1 << a
                continue
        while nbrs:
            low = nbrs & -nbrs
            nbrs ^= low
            u = low.bit_length() - 1
            adj[u] &= ~bit
            stack.append(u)
    return alive


def _drop_slot(masks: list[int], slot: int, n: int) -> list[int]:
    """Remove one vertex slot from a mask list, shifting higher bits down."""
    low = (1 << slot) - 1
    out = []
    for w in range(n):
        if w == slot:
            continue
        m = masks[w]
        out.append((m & low) | ((m >> (slot + 1)) << slot))
    return out


# -- standard constructions -----------------------------------------------


def complete_graph(n: int) -> Graph:
    return Graph(n, combinations(range(1, n + 1), 2))


def cycle_graph(n: int) -> Graph:
    if n < 3:
        raise ValueError("cycle needs at least 3 vertices")
    return Graph(n, [(i, i % n + 1) for i in range(1, n + 1)])


def path_graph(n: int) -> Graph:
    return Graph(n, [(i, i + 1) for i in range(1, n)])


def complete_bipartite(a: int, b: int) -> Graph:
    return Graph(a + b, [(i, a + j) for i in range(1, a + 1) for j in range(1, b + 1)])


def petersen_graph() -> Graph:
    """Outer 5-cycle 1..5, inner pentagram 6..10, spokes i -- i+5."""
    edges = [(i, i % 5 + 1) for i in range(1, 6)]
    edges += [(5 + i, 5 + (i + 1) % 5 + 1) for i in range(1, 6)]
    edges += [(i, i + 5) for i in range(1, 6)]
    return Graph(10, edges)


def disjoint_union(g: Graph, h: Graph) -> Graph:
    edges = list(g.edges) + [(u + g.n, v + g.n) for u, v in h.edges]
    return Graph(g.n + h.n, edges)


# -- cycle enumeration ------------------------------------------------------


def enumerate_cycles(g: Graph, min_len: int, max_len: int) -> list[tuple[int, ...]]:
    """All simple cycles with length in [min_len, max_len], once each.

    Each cycle is reported as a vertex tuple in its canonical traversal:
    the smallest vertex first, continuing toward the smaller of its two
    cycle neighbors. This fixes one representative per rotation/reflection
    class. Cycles come shortest first, and in tuple order within a length.
    """
    zero = [[0] * g.n] * g.n
    return [cycle for cycle, _, _ in cycle_walk(g, min_len, max_len, zero)]


def cycle_walk(
    g: Graph, min_len: int, max_len: int, weight: Sequence[Sequence[int]]
) -> list[tuple[tuple[int, ...], int, int]]:
    """(cycle, total, mask) for each cycle of enumerate_cycles, in its order.

    total sums weight[u][v] over the traversal's steps u -> v, where weight
    is an n x n table on 0-based vertices; mask has bit v - 1 set for each
    vertex v of the cycle. Both ride along the depth-first walk, so a cycle
    costs nothing beyond the step that closes it.
    """
    if not 3 <= min_len <= max_len <= max(g.n, 3):
        raise ValueError(f"invalid cycle length range [{min_len}, {max_len}]")
    adj = g._adj
    tails = [(v + 1,) for v in range(g.n)]
    by_len: list[list[tuple[tuple[int, ...], int, int]]] = [
        [] for _ in range(max_len + 1)
    ]
    # Paths from each start s use only vertices above s, so s is the cycle
    # minimum, and a cycle closes only at a last vertex above the first,
    # which picks one direction. A path closes its one-step-longer cycles
    # when it pops, lowest last vertex first, and pushes its extensions
    # highest first, so paths pop in tuple order and each length's list
    # fills sorted.
    for s in range(g.n):
        s_bit = 1 << s
        above = ~((s_bit << 1) - 1)
        start = adj[s] & above
        back = [row[s] for row in weight]
        firsts = start
        while firsts:
            f_bit = firsts & -firsts
            firsts ^= f_bit
            closers = start & ~((f_bit << 1) - 1)
            if not closers:
                continue
            f = f_bit.bit_length() - 1
            stack = [(f, s_bit | f_bit, weight[s][f], (s + 1, f + 1))]
            while stack:
                v, used, total, path = stack.pop()
                k = len(path) + 1
                ext = adj[v] & above & ~used
                row = weight[v]
                if k >= min_len:
                    close = ext & closers
                    cycles = by_len[k]
                    while close:
                        bit = close & -close
                        close ^= bit
                        w = bit.bit_length() - 1
                        cycles.append(
                            (path + tails[w], total + row[w] + back[w], used | bit)
                        )
                if k < max_len:
                    while ext:
                        w = ext.bit_length() - 1
                        bit = 1 << w
                        ext ^= bit
                        stack.append((w, used | bit, total + row[w], path + tails[w]))
    return [entry for bucket in by_len for entry in bucket]


def is_cycle_of(g: Graph, vertices: tuple[int, ...]) -> bool:
    """True iff the vertex tuple traces a simple cycle of g."""
    k = len(vertices)
    if k < 3 or len(set(vertices)) != k:
        return False
    return all(g.has_edge(vertices[i], vertices[(i + 1) % k]) for i in range(k))
