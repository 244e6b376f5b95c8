"""Independent reference for the link scans that `verify-embedding` and
`find-links` print.

It reproduces the reports byte for byte from the diagram alone, without
calling the package: cycles are enumerated here, crossing sums are added up
here, and vertex-disjoint pairs are found by looking up every subset of the
complement of a cycle's vertex set, rather than by comparing all pairs.
"""

from __future__ import annotations

from math import gcd


def cycles(n: int, edges, lo: int, hi: int) -> list[tuple[int, ...]]:
    """Simple cycles of length lo..hi on vertices 1..n, each written from its
    smallest vertex toward the smaller of that vertex's two cycle
    neighbours, sorted by (length, vertices)."""
    nbrs = [0] * (n + 1)
    for u, v in edges:
        nbrs[u] |= 1 << v
        nbrs[v] |= 1 << u
    out = []

    def extend(start, path, used):
        last = path[-1]
        if len(path) >= lo and nbrs[last] >> start & 1 and path[1] < last:
            out.append(tuple(path))
        if len(path) == hi:
            return
        for w in range(start + 1, n + 1):
            if nbrs[last] >> w & 1 and not used >> w & 1:
                path.append(w)
                extend(start, path, used | 1 << w)
                path.pop()

    for s in range(1, n + 1):
        extend(s, [s], 1 << s)
    out.sort(key=lambda c: (len(c), c))
    return out


def slope_text(p: int, q: int) -> str:
    if p == 0 and q == 0:
        return "inessential"
    g = gcd(p, q)
    p, q = p // g, q // g
    if q < 0 or (q == 0 and p < 0):
        p, q = -p, -q
    return f"{p}/{q}"


def _crossings(up, right):
    step = {}
    for pairs, axis in ((up, 0), (right, 1)):
        for u, v in pairs:
            for a, b, sign in ((u, v, 1), (v, u, -1)):
                p, q = step.get((a, b), (0, 0))
                step[(a, b)] = (p + sign, q) if axis == 0 else (p, q + sign)
    return step


def _sums(cycle, step):
    p = q = 0
    k = len(cycle)
    for i in range(k):
        dp, dq = step.get((cycle[i], cycle[(i + 1) % k]), (0, 0))
        p += dp
        q += dq
    return p, q


def _mask(cycle) -> int:
    m = 0
    for v in cycle:
        m |= 1 << v
    return m


def _disjoint_later(masks: list[int], full: int):
    """For each index i, the indices j > i whose mask misses masks[i]."""
    by_mask: dict[int, list[int]] = {}
    for j, m in enumerate(masks):
        by_mask.setdefault(m, []).append(j)
    for i, m in enumerate(masks):
        free = full & ~m
        found = []
        sub = free
        while sub:
            for j in by_mask.get(sub, ()):
                if j > i:
                    found.append(j)
            sub = (sub - 1) & free
        found.sort()
        yield i, found


def _cycle_text(cycle) -> str:
    return "[" + " ".join(map(str, cycle)) + "]"


def _link_lines(cyc, slopes, full) -> list[str]:
    groups: dict[str, list[tuple[int, ...]]] = {}
    for c, (p, q) in zip(cyc, slopes):
        if p != 0 and q != 0:
            groups.setdefault(slope_text(p, q), []).append(c)
    pairs = []
    for slope, members in groups.items():
        masks = [_mask(c) for c in members]
        for i, later in _disjoint_later(masks, full):
            for j in later:
                a, b = sorted((members[i], members[j]))
                pairs.append((a, b, slope))
    pairs.sort()
    return [f"link: {_cycle_text(a)} {_cycle_text(b)} slope={s}\n" for a, b, s in pairs]


def _diagram_cycles(n, edges, up, right):
    cyc = cycles(n, edges, 3, n - 3) if n >= 6 else []
    step = _crossings(up, right)
    return cyc, [_sums(c, step) for c in cyc], (1 << (n + 1)) - 2


def verify_embedding_report(n, edges, up, right) -> tuple[int, str]:
    """Exit status and stdout of `torlink verify-embedding` on the diagram."""
    cyc, sums, full = _diagram_cycles(n, edges, up, right)
    essential = [(c, s) for c, s in zip(cyc, sums) if s != (0, 0)]
    lines = []
    masks = [_mask(c) for c, _ in essential]
    texts = [slope_text(*s) for _, s in essential]
    for i, later in _disjoint_later(masks, full):
        ci = essential[i][0]
        for j in later:
            if texts[i] != texts[j]:
                lines.append(
                    "warning: disjoint essential cycles "
                    f"{_cycle_text(ci)} and {_cycle_text(essential[j][0])} have "
                    f"slopes {texts[i]} and {texts[j]}; not a valid embedding\n"
                )
    links = _link_lines(cyc, sums, full)
    lines.append(f"linkless: {'false' if links else 'true'}\n")
    lines += links
    return (1 if links else 0), "".join(lines)


def find_links_report(n, edges, up, right) -> tuple[int, str]:
    """Exit status and stdout of `torlink find-links` on the diagram."""
    cyc, sums, full = _diagram_cycles(n, edges, up, right)
    links = _link_lines(cyc, sums, full)
    return 0, f"links: {len(links)}\n" + "".join(links)
