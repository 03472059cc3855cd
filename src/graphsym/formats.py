"""Graph interchange formats: edge-list text and graph6.

Edge-list format: '#' starts a comment line; the first data line is "n m";
each of the following m lines is "u v" with 0-based endpoints.

graph6 follows McKay's specification: one printable ASCII line, vertex count
followed by the upper triangle of the adjacency matrix in column-major order,
six bits per byte, offset 63.  The short size form covers n <= 62 and the
long form covers n <= 258047.
"""

from __future__ import annotations

from dataclasses import dataclass

from .errors import BadEdgeList, BadGraph6
from .graph import Graph, from_edge_list

_HEADER = ">>graph6<<"


@dataclass(frozen=True)
class ParseReport:
    """What the edge-list parser had to clean up."""

    duplicate_edges: int


def parse_edge_list(text: str) -> tuple[Graph, ParseReport]:
    lines = text.splitlines()
    header: tuple[int, int] | None = None
    edges: list[tuple[int, int]] = []
    for lineno, raw in enumerate(lines, 1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        parts = line.split()
        if header is None:
            if len(parts) != 2:
                raise BadEdgeList(lineno, f"expected 'n m' header, got {line!r}")
            try:
                header = (int(parts[0]), int(parts[1]))
            except ValueError:
                raise BadEdgeList(lineno, f"non-integer header {line!r}") from None
            if header[0] < 0 or header[1] < 0:
                raise BadEdgeList(lineno, "negative n or m")
            continue
        if len(parts) != 2:
            raise BadEdgeList(lineno, f"expected 'u v', got {line!r}")
        try:
            edges.append((int(parts[0]), int(parts[1])))
        except ValueError:
            raise BadEdgeList(lineno, f"non-integer endpoints {line!r}") from None
    if header is None:
        raise BadEdgeList(0, "missing 'n m' header")
    n, m = header
    if len(edges) != m:
        raise BadEdgeList(0, f"header says {m} edges, found {len(edges)}")
    g = from_edge_list(n, edges)  # deduplicates either orientation
    return g, ParseReport(duplicate_edges=len(edges) - g.m)


def format_edge_list(g: Graph) -> str:
    lines = [f"{g.n} {g.m}"]
    lines.extend(f"{u} {v}" for u, v in g.edges())
    return "\n".join(lines) + "\n"


def decode_graph6(text: str) -> Graph:
    s = text.strip()
    if s.startswith(_HEADER):
        s = s[len(_HEADER):]
    data = s.encode("ascii", errors="replace")
    for i, b in enumerate(data):
        if not 63 <= b <= 126:
            raise BadGraph6(i, f"byte {b} outside printable graph6 range")
    if not data:
        raise BadGraph6(0, "empty input")
    if data[0] == 126:  # '~' marks a size extension
        if len(data) >= 2 and data[1] == 126:
            raise BadGraph6(1, "8-byte size form (n > 258047) not supported")
        if len(data) < 4:
            raise BadGraph6(len(data), "truncated long-form size")
        n = ((data[1] - 63) << 12) | ((data[2] - 63) << 6) | (data[3] - 63)
        body = data[4:]
        offset = 4
    else:
        n = data[0] - 63
        body = data[1:]
        offset = 1
    nbits = n * (n - 1) // 2
    nbytes = (nbits + 5) // 6
    if len(body) != nbytes:
        raise BadGraph6(offset + len(body), f"expected {nbytes} data bytes, got {len(body)}")
    edges: list[tuple[int, int]] = []
    bit = 0
    i, j = 0, 1  # column-major upper triangle: (0,1),(0,2),(1,2),(0,3),...
    for b in body:
        val = b - 63
        for k in range(5, -1, -1):
            if bit >= nbits:
                if (val >> k) & 1:
                    raise BadGraph6(offset + bit // 6, "nonzero padding bits")
                bit += 1
                continue
            if (val >> k) & 1:
                edges.append((i, j))
            bit += 1
            i += 1
            if i == j:
                i, j = 0, j + 1
    return from_edge_list(n, edges)


def encode_graph6(g: Graph) -> str:
    n = g.n
    if n <= 62:
        head = chr(n + 63)
    elif n <= 258047:
        head = "~" + chr((n >> 12) + 63) + chr(((n >> 6) & 63) + 63) + chr((n & 63) + 63)
    else:
        raise BadGraph6(0, f"n = {n} too large for supported size forms")
    nbits = n * (n - 1) // 2
    bits = bytearray((nbits + 5) // 6)
    bit = 0
    for j in range(1, n):
        neighbors = set(g.adjacency[j])
        for i in range(j):
            if i in neighbors:
                bits[bit // 6] |= 1 << (5 - bit % 6)
            bit += 1
    return head + "".join(chr(b + 63) for b in bits)
