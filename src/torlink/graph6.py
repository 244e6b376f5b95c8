"""graph6 encoding and decoding (one graph per ASCII line).

Standard layout for n <= 62: one byte n+63, then ceil(n(n-1)/2 / 6) bytes
carrying the upper-triangle adjacency bits in column order, six bits per
byte (value + 63), zero-padded. Orders above the package limit are
rejected.
"""

from __future__ import annotations

from pathlib import Path

from .errors import ParseError
from .graphs import MAX_ORDER, Graph


def encode_graph6(g: Graph) -> str:
    n = g.n
    bits = []
    for j in range(1, n):
        col = 1 << j
        for i in range(j):
            bits.append(1 if g._adj[i] & col else 0)
    chars = [chr(n + 63)]
    for k in range(0, len(bits), 6):
        group = bits[k : k + 6] + [0] * (6 - len(bits[k : k + 6]))
        val = 0
        for b in group:
            val = val << 1 | b
        chars.append(chr(val + 63))
    return "".join(chars)


def decode_graph6(line: str) -> Graph:
    s = line.strip()
    if not s:
        raise ParseError("empty graph6 string")
    if any(not 63 <= ord(ch) <= 126 for ch in s):
        raise ParseError(f"invalid graph6 character in {s!r}")
    n = ord(s[0]) - 63
    if n > MAX_ORDER:
        raise ParseError(f"order {n} exceeds the supported maximum {MAX_ORDER}")
    nbits = n * (n - 1) // 2
    nbytes = (nbits + 5) // 6
    if len(s) - 1 != nbytes:
        raise ParseError(
            f"expected {nbytes} data bytes for order {n}, got {len(s) - 1}"
        )
    bits = []
    for ch in s[1:]:
        val = ord(ch) - 63
        bits.extend((val >> k) & 1 for k in range(5, -1, -1))
    if any(bits[nbits:]):
        raise ParseError("nonzero padding bits")
    edges = []
    idx = 0
    for j in range(1, n):
        for i in range(j):
            if bits[idx]:
                edges.append((i + 1, j + 1))
            idx += 1
    return Graph(n, edges)


def read_text(path: Path) -> str:
    """The file at path decoded as UTF-8, whatever the locale; a byte that
    does not decode is a ParseError naming its line, counted as
    `str.splitlines` counts them."""
    data = path.read_bytes()
    try:
        return data.decode()
    except UnicodeDecodeError as exc:
        line = len((data[: exc.start].decode() + "x").splitlines())
        raise ParseError(
            f"byte 0x{data[exc.start]:02x} is not UTF-8 text", line=line
        ) from None


def read_graph6_file(path) -> list[Graph]:
    """Parse a one-graph-per-line file; blank lines and the optional
    ``>>graph6<<`` header that may open the file are skipped."""
    path = Path(path)
    graphs = []
    try:
        text = read_text(path)
    except ParseError as exc:
        raise ParseError(f"{path.name}: {exc}") from None
    lines = text.removeprefix(">>graph6<<").splitlines()
    for lineno, line in enumerate(lines, start=1):
        if not line.strip():
            continue
        try:
            graphs.append(decode_graph6(line))
        except ParseError as exc:
            raise ParseError(f"{path.name}: line {lineno}: {exc}") from exc
    return graphs
