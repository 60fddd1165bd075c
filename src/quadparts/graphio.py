"""Reading and writing graphs as edge lists and graph6 lines.

Edge-list format: first significant line is the vertex count, then one
``u v`` pair per line, 0-based.  graph6: standard printable-ASCII encoding,
one graph per line, supported for n <= 62 (single-byte order field).  In
both, ``#`` starts a comment anywhere on a line; it is never a graph6 byte.
"""

from __future__ import annotations

from .graphs import SimpleGraph, norm_edge


class GraphParseError(ValueError):
    """Malformed graph text; carries a human-readable position."""

    def __init__(self, message: str, position: str):
        super().__init__(f"{position}: {message}")
        self.position = position


def parse_edge_list(text: str) -> SimpleGraph:
    n: int | None = None
    edges: set[tuple[int, int]] = set()
    for lineno, line in _significant_lines(text):
        pos = f"line {lineno}"
        fields = line.split()
        if n is None:
            if len(fields) != 1:
                raise GraphParseError("expected a single vertex count on the header line", pos)
            try:
                n = int(fields[0])
            except ValueError:
                raise GraphParseError(f"vertex count {fields[0]!r} is not an integer", pos) from None
            if n < 0:
                raise GraphParseError("vertex count must be nonnegative", pos)
            continue
        if len(fields) != 2:
            raise GraphParseError(f"expected 'u v', got {line!r}", pos)
        try:
            u, v = int(fields[0]), int(fields[1])
        except ValueError:
            raise GraphParseError(f"non-integer endpoint in {line!r}", pos) from None
        if u == v:
            raise GraphParseError(f"self-loop at vertex {u}", pos)
        if not (0 <= u < n and 0 <= v < n):
            raise GraphParseError(f"endpoint out of range 0..{n - 1} in {line!r}", pos)
        e = norm_edge(u, v)
        if e in edges:
            raise GraphParseError(f"duplicate edge {e}", pos)
        edges.add(e)
    if n is None:
        raise GraphParseError("no vertex count found", "end of input")
    return SimpleGraph(n, frozenset(edges))


def emit_edge_list(g: SimpleGraph) -> str:
    lines = [str(g.n)]
    lines.extend(f"{u} {v}" for u, v in g.sorted_edges())
    return "\n".join(lines) + "\n"


def parse_graph6(line: str) -> SimpleGraph:
    s = line.strip()
    if not s:
        raise GraphParseError("empty graph6 line", "byte 1")
    for i, ch in enumerate(s):
        if not 63 <= ord(ch) <= 126:
            raise GraphParseError(f"character {ch!r} outside graph6 range 63..126", f"byte {i + 1}")
    data = s.encode("ascii")
    if data[0] == 126:
        raise GraphParseError("multi-byte order field (n > 62) is not supported", "byte 1")
    n = data[0] - 63
    bits_needed = n * (n - 1) // 2
    bytes_needed = (bits_needed + 5) // 6
    if len(data) - 1 != bytes_needed:
        raise GraphParseError(
            f"expected {bytes_needed} payload bytes for n={n}, got {len(data) - 1}", f"byte {len(data)}"
        )
    bits: list[int] = []
    for b in data[1:]:
        val = b - 63
        bits.extend((val >> shift) & 1 for shift in range(5, -1, -1))
    if any(bits[bits_needed:]):
        raise GraphParseError("padding bits after the adjacency bits must be zero", f"byte {len(data)}")
    edges = set()
    idx = 0
    for v in range(1, n):
        for u in range(v):
            if bits[idx]:
                edges.add((u, v))
            idx += 1
    return SimpleGraph(n, frozenset(edges))


def emit_graph6(g: SimpleGraph) -> str:
    if g.n > 62:
        raise ValueError("graph6 emission supports n <= 62")
    bits: list[int] = []
    for v in range(1, g.n):
        for u in range(v):
            bits.append(1 if (u, v) in g.edges else 0)
    while len(bits) % 6:
        bits.append(0)
    out = [g.n + 63]
    for i in range(0, len(bits), 6):
        val = 0
        for b in bits[i:i + 6]:
            val = (val << 1) | b
        out.append(val + 63)
    return bytes(out).decode("ascii")


def _significant_lines(text: str) -> list[tuple[int, str]]:
    """The nonblank lines of `text` with comments stripped, each with its
    line number; "#" is never a graph6 byte, so this holds for both formats."""
    stripped = (raw.split("#", 1)[0].strip() for raw in text.splitlines())
    return [(lineno, ln) for lineno, ln in enumerate(stripped, start=1) if ln]


def looks_like_graph6(text: str) -> bool:
    # A bare integer or several fields on the first line mean edge-list.
    lines = _significant_lines(text)
    return bool(lines) and not lines[0][1].isdigit() and len(lines[0][1].split()) == 1


def parse_graph(text: str, fmt: str = "auto") -> SimpleGraph:
    """Parse one graph from text in edge-list or graph6 format; graph6 text
    holding a second graph is rejected at that graph's line.  One leading
    UTF-8 byte-order mark is dropped first."""
    text = text.removeprefix("\ufeff")
    if fmt == "auto":
        fmt = "graph6" if looks_like_graph6(text) else "edge-list"
    if fmt == "edge-list":
        return parse_edge_list(text)
    if fmt == "graph6":
        lines = _significant_lines(text)
        if not lines:
            raise GraphParseError("no graph6 line found", "end of input")
        g = parse_graph6(lines[0][1])
        if len(lines) > 1:
            raise GraphParseError("a second graph6 graph; the input must hold one graph", f"line {lines[1][0]}")
        return g
    raise ValueError(f"unknown graph format {fmt!r}")


def emit_graph(g: SimpleGraph, fmt: str = "edge-list") -> str:
    if fmt == "edge-list":
        return emit_edge_list(g)
    if fmt == "graph6":
        return emit_graph6(g) + "\n"
    raise ValueError(f"unknown graph format {fmt!r}")
