"""Torus diagrams: cycle slopes, link detection, linking numbers.

A diagram is a graph drawn in the unit square with opposite sides glued.
Each edge may cross the top boundary at most once and the right boundary
at most once; the crossing lists record which edges do, with orientation
(u, v) meaning the traversal u -> v exits through that boundary. Exiting
the top or the right counts +1, the reverse direction -1. Summing these
signed crossings along a cycle gives the pair (P, Q) that classifies the
cycle: (0, 0) is inessential, and two vertex-disjoint cycles link exactly
when they share a slope class with both components nonzero.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction
from math import gcd

from .errors import ParseError
from .graphs import Graph, cycle_walk, is_cycle_of


class _CrossingError(ValueError):
    """A crossing list that does not fit the graph; `boundary` names the
    list at fault, "up" or "right"."""

    def __init__(self, boundary: str, message: str):
        super().__init__(message)
        self.boundary = boundary


@dataclass(frozen=True)
class TorusDiagram:
    """A graph plus its oriented boundary-crossing edge lists, stored as
    tuples of (u, v) pairs, and ``weights``, the packed crossing table
    built from the lists (see CrossingMatrix, its entry view)."""

    graph: Graph
    up_list: tuple[tuple[int, int], ...]
    right_list: tuple[tuple[int, int], ...]
    weights: tuple[tuple[int, ...], ...] = field(init=False, compare=False, repr=False)

    def __post_init__(self):
        n = self.graph.n
        edges = set(self.graph.edges)
        rows = [[0] * n for _ in range(n)]
        for name, step in (("up", _Q_SPAN), ("right", 1)):
            pairs = tuple(tuple(p) for p in getattr(self, f"{name}_list"))
            object.__setattr__(self, f"{name}_list", pairs)
            seen = set()
            for u, v in pairs:
                key = (min(u, v), max(u, v))
                if key not in edges:
                    raise _CrossingError(
                        name, f"{name} crossing ({u},{v}) is not an edge"
                    )
                if key in seen:
                    raise _CrossingError(
                        name, f"edge ({u},{v}) crosses the {name} boundary twice"
                    )
                seen.add(key)
                rows[u - 1][v - 1] += step
                rows[v - 1][u - 1] -= step
        object.__setattr__(self, "weights", tuple(tuple(r) for r in rows))


# Every crossing sum is the one int P * _Q_SPAN + Q. An edge crosses the
# right boundary at most once, so |Q| is at most the cycle length, which is
# at most 12 for n <= 12; a span above 2 * 12 + 1 keeps the packing exact.
_Q_SPAN = 32


def _unpack(total: int) -> tuple[int, int]:
    """(P, Q) from the packed sum P * _Q_SPAN + Q."""
    p = (total + _Q_SPAN // 2) // _Q_SPAN
    return p, total - p * _Q_SPAN


@dataclass(frozen=True)
class CrossingMatrix:
    """Antisymmetric per-edge crossing contributions, packed.

    weights[u-1][v-1] is P * _Q_SPAN + Q for the step u -> v, where P and
    Q (each -1, 0 or 1) count its signed top and right crossings, so the
    sum of a cycle's steps packs the cycle's (P, Q). entry(u, v) is 1-based.
    """

    weights: tuple[tuple[int, ...], ...]

    def entry(self, u: int, v: int) -> tuple[int, int]:
        return _unpack(self.weights[u - 1][v - 1])


def crossing_matrix(d: TorusDiagram) -> CrossingMatrix:
    return CrossingMatrix(d.weights)


@dataclass(frozen=True)
class SlopeClass:
    """Reduced slope pair; (0, 0) is the inessential class.

    Reduction divides by gcd(|P|, |Q|) and normalizes the sign so that
    q > 0, or p > 0 when q == 0.
    """

    p: int
    q: int

    @classmethod
    def from_sums(cls, p: int, q: int) -> "SlopeClass":
        if p == 0 and q == 0:
            return cls(0, 0)
        g = gcd(abs(p), abs(q))
        p, q = p // g, q // g
        if q < 0 or (q == 0 and p < 0):
            p, q = -p, -q
        return cls(p, q)

    @property
    def is_inessential(self) -> bool:
        return self.p == 0 and self.q == 0

    @property
    def is_linking(self) -> bool:
        """A pair of disjoint cycles of this slope forms a nontrivial link."""
        return self.p != 0 and self.q != 0

    def __str__(self) -> str:
        if self.is_inessential:
            return "inessential"
        return f"{self.p}/{self.q}"


@dataclass(frozen=True)
class LinkWitness:
    """Two vertex-disjoint cycles sharing a linking slope class."""

    cycle_a: tuple[int, ...]
    cycle_b: tuple[int, ...]
    slope: SlopeClass

    def __str__(self) -> str:
        a, b = _cycle_text(self.cycle_a), _cycle_text(self.cycle_b)
        return f"{a} {b} slope={self.slope}"


def cycle_crossing_sums(d: TorusDiagram, cycle: tuple[int, ...]) -> tuple[int, int]:
    """Componentwise sum of crossing entries along the cycle traversal."""
    if not is_cycle_of(d.graph, tuple(cycle)):
        raise ValueError(f"{cycle!r} is not a cycle of the diagram's graph")
    steps = zip(cycle, cycle[1:] + cycle[:1])
    return _unpack(sum(d.weights[u - 1][v - 1] for u, v in steps))


def cycle_slope(d: TorusDiagram, cycle: tuple[int, ...]) -> SlopeClass:
    """Slope class of a cycle of the diagram's graph."""
    return SlopeClass.from_sums(*cycle_crossing_sums(d, cycle))


def _essential_cycles(
    d: TorusDiagram, min_len: int | None, max_len: int | None, linking: bool
) -> list[tuple[tuple[int, ...], SlopeClass, int]]:
    """(cycle, slope, vertex mask) for each relevant cycle of length
    min_len..max_len (default 3..n-3) that a disjoint pair of relevant
    cycles in that range can hold, in enumeration order. A cycle is
    relevant when it is linking, if `linking`, and else when it is
    essential.

    Only such pairs matter to the callers, and the bound on them is exact.
    The shorter cycle of a disjoint pair has at most n // 2 vertices, so
    the walk goes one length at a time, up to that bound, until a
    relevant cycle appears; if none does, no pair exists and the list is
    empty. Let L be that length, the shortest of any relevant cycle.
    Every cycle of a pair leaves its partner, of at least L vertices,
    outside it, so it has at most n - L; the walk goes on from L + 1 up
    to that bound only. The lengths walked come in order, so the list is
    the first part of the unbounded one, and a pair keeps its indices.

    Cycles of one slope class share one SlopeClass object, built once per
    distinct crossing sum, so slopes compare by identity.
    """
    for name, bound in (("minimum", min_len), ("maximum", max_len)):
        if bound is not None and bound < 3:
            raise ValueError(f"invalid {name} cycle length {bound}; must be >= 3")
    g, n = d.graph, d.graph.n
    lo = 3 if min_len is None else min_len
    hi = min(n - 3 if max_len is None else max_len, n)
    slopes: dict[int, SlopeClass] = {}
    classes: dict[SlopeClass, SlopeClass] = {}
    relevant = []

    def take(walk):
        for cycle, total, mask in walk:
            if total:
                slope = slopes.get(total)
                if slope is None:
                    slope = SlopeClass.from_sums(*_unpack(total))
                    slope = slopes[total] = classes.setdefault(slope, slope)
                if not linking or slope.is_linking:
                    relevant.append((cycle, slope, mask))

    length = lo
    while not relevant:
        if length > min(hi, n // 2):
            return []
        take(cycle_walk(g, length, length, d.weights))
        length += 1
    # The list holds lengths lo..L, and L is length - 1.
    top = min(hi, n - length + 1)
    if length <= top:
        take(cycle_walk(g, length, top, d.weights))
    return relevant


def find_links(
    d: TorusDiagram, min_len: int | None = None, max_len: int | None = None
) -> list[LinkWitness]:
    """All linked pairs among cycles of length min_len..max_len.

    Defaults cover lengths 3..n-3 (a disjoint partner needs 3 vertices).
    Only linking cycles, whose crossing sums have both components nonzero,
    are scanned; a link is a vertex-disjoint pair of them with the same
    reduced slope. The walk stops at n - L vertices, L the length of the
    shortest linking cycle in the range, or at n // 2 when no linking
    cycle has that few: a longer cycle leaves no room outside it for a
    linking partner (see `_essential_cycles`), so the links are those of
    the whole range. Output is sorted by the cycle representatives.
    """
    linking = _essential_cycles(d, min_len, max_len, True)
    return _pair_scan(d.graph.n, linking)[1]


def is_linkless(d: TorusDiagram) -> bool:
    """True iff the diagram contains no linked cycle pair."""
    return not find_links(d)


def verify_embedding(d: TorusDiagram) -> tuple[list[str], list[LinkWitness]]:
    """(warnings, find_links(d)) from one scan of the cycles.

    The warnings flag diagrams that cannot be genuine embeddings:
    vertex-disjoint cycles drawn without crossings on the torus must share
    one slope class, so a disjoint essential pair with different slopes
    means the crossing lists do not describe a real embedding.

    Both come from disjoint essential pairs, so the walk stops at n - L
    vertices, L the length of the shortest essential cycle, or at n // 2
    when no essential cycle has that few (see `_essential_cycles`): a
    longer cycle has no disjoint essential partner.
    """
    essential = _essential_cycles(d, None, None, False)
    clashes, witnesses = _pair_scan(d.graph.n, essential)
    return _warning_texts(essential, clashes), witnesses


def _pair_scan(
    n: int, essential: list[tuple[tuple[int, ...], SlopeClass, int]]
) -> tuple[list[tuple[int, int]], list[LinkWitness]]:
    """(clashes, witnesses) from one walk over the disjoint pairs of the
    essential cycles: a pair with different slopes is a clash, kept as its
    index pair, and a pair sharing a linking slope is a link."""
    clashes = []
    witnesses = []
    masks = [mask for _, _, mask in essential]
    for i, j in _disjoint_pairs(masks, (1 << n) - 1):
        (ci, si, _), (cj, sj, _) = essential[i], essential[j]
        if si is not sj:  # one SlopeClass object per class
            clashes.append((i, j))
        elif si.is_linking:
            witnesses.append(LinkWitness(*sorted((ci, cj)), si))
    witnesses.sort(key=lambda w: (w.cycle_a, w.cycle_b))
    return clashes, witnesses


def _warning_texts(
    essential: list[tuple[tuple[int, ...], SlopeClass, int]],
    clashes: list[tuple[int, int]],
) -> list[str]:
    """One warning per clashing pair; each cycle's text is built once."""
    texts = {}
    for pair in clashes:
        for i in pair:
            if i not in texts:
                cycle, slope, _ = essential[i]
                texts[i] = _cycle_text(cycle), str(slope)
    return [
        "disjoint essential cycles "
        f"{texts[i][0]} and {texts[j][0]} have slopes "
        f"{texts[i][1]} and {texts[j][1]}; not a valid embedding"
        for i, j in clashes
    ]


def _disjoint_pairs(masks: list[int], full: int) -> list[tuple[int, int]]:
    """Every (i, j) with i < j and masks[i] & masks[j] == 0, ordered by i
    and then j, where full covers every mask.

    Indices are bucketed by mask. Each distinct mask m looks up the
    submasks of its complement in full that are greater than m, so each
    pair of disjoint vertex sets is looked up once, from its smaller mask,
    and yields the index pairs of its two buckets.
    """
    by_mask: dict[int, list[int]] = {}
    for i, m in enumerate(masks):
        by_mask.setdefault(m, []).append(i)
    pairs = []
    for m, bucket in by_mask.items():
        free = full & ~m
        sub = free
        while sub > m:
            other = by_mask.get(sub)
            if other:
                pairs += [(i, j) if i < j else (j, i) for i in bucket for j in other]
            sub = (sub - 1) & free
    pairs.sort()
    return pairs


def torus_link_linking_number(m: int, n: int) -> Fraction:
    """Linking number of the torus link with parameters (m, n): the link
    made of gcd(m, n) parallel copies of a slope-m/n knot."""
    if m == 0 and n == 0:
        raise ValueError("(0, 0) does not define a torus link")
    d = gcd(abs(m), abs(n))
    return Fraction(m * n, 2) * (1 - Fraction(1, d))


# -- embedding file format ---------------------------------------------------
#
# line 1: order <n>
# line 2: edges <u>-<v> ...
# line 3: up <u>-><v> ...      (traversal u->v exits the top)
# line 4: right <u>-><v> ...   (traversal u->v exits the right)


def parse_embedding(text: str) -> TorusDiagram:
    lines = [ln for ln in text.splitlines()]
    while lines and not lines[-1].strip():
        lines.pop()
    if len(lines) != 4:
        raise ParseError(f"expected 4 lines, got {len(lines)}")
    order = _parse_keyword_line(lines[0], "order", 1)
    if len(order) != 1:
        raise ParseError("order line must hold a single integer", line=1)
    try:
        n = int(order[0])
    except ValueError:
        raise ParseError(f"bad order {order[0]!r}", line=1) from None
    edges = [_parse_pair(tok, "-", 2) for tok in _parse_keyword_line(lines[1], "edges", 2)]
    up = [_parse_pair(tok, "->", 3) for tok in _parse_keyword_line(lines[2], "up", 3)]
    right = [
        _parse_pair(tok, "->", 4) for tok in _parse_keyword_line(lines[3], "right", 4)
    ]
    _at_line(1, Graph, n)
    graph = _at_line(2, Graph, n, edges)
    seen: set[tuple[int, int]] = set()
    for u, v in edges:
        key = (min(u, v), max(u, v))
        if key in seen:
            raise ParseError(f"repeated edge {u}-{v}", line=2)
        seen.add(key)
    try:
        return TorusDiagram(graph, up, right)
    except _CrossingError as exc:
        raise ParseError(str(exc), line=3 if exc.boundary == "up" else 4) from None


def format_embedding(d: TorusDiagram) -> str:
    lines = [
        f"order {d.graph.n}",
        "edges " + " ".join(f"{u}-{v}" for u, v in d.graph.edges),
        "up " + " ".join(f"{u}->{v}" for u, v in d.up_list),
        "right " + " ".join(f"{u}->{v}" for u, v in d.right_list),
    ]
    return "\n".join(line.rstrip() for line in lines) + "\n"


def _parse_keyword_line(line: str, keyword: str, lineno: int) -> list[str]:
    tokens = line.split()
    if not tokens or tokens[0] != keyword:
        raise ParseError(f"expected line to start with {keyword!r}", line=lineno)
    return tokens[1:]


def _parse_pair(token: str, sep: str, lineno: int) -> tuple[int, int]:
    parts = token.split(sep)
    if len(parts) != 2:
        raise ParseError(f"bad pair {token!r}", line=lineno)
    try:
        return int(parts[0]), int(parts[1])
    except ValueError:
        raise ParseError(f"bad pair {token!r}", line=lineno) from None


def _at_line(lineno: int, make, *args):
    """make(*args), reporting its ValueError as a ParseError at lineno."""
    try:
        return make(*args)
    except ValueError as exc:
        raise ParseError(str(exc), line=lineno) from None


def _cycle_text(cycle: tuple[int, ...]) -> str:
    return "[" + " ".join(str(v) for v in cycle) + "]"
