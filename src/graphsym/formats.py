"""Graph interchange formats: edge-list text and graph6.

Edge-list format: '#' starts a comment line; the first data line is "n m";
each of the following m lines is "u v" with 0-based endpoints.

graph6 follows McKay's specification: one printable ASCII line, vertex count
followed by the upper triangle of the adjacency matrix in column-major order,
six bits per byte, offset 63.  The short size form covers n <= 62 and the
long form covers n <= 258047; encode_graph6 writes at most
GRAPH6_MAX_BODY_BYTES of body, so n <= 14189.
"""

from __future__ import annotations

from typing import NamedTuple

from .errors import BadEdgeList, BadGraph6
from .graph import Graph, from_edge_list

_HEADER = ">>graph6<<"
# encode_graph6 refuses bodies above this many bytes (16 MiB, n <= 14189):
# the body grows as n^2 / 12 bytes, about 2 GB at n = 160000.
GRAPH6_MAX_BODY_BYTES = 1 << 24
_SIX_BITS_TO_TEXT = bytes(range(63, 127)) + bytes(192)  # value v -> byte v + 63


class ParseReport(NamedTuple):
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
    try:
        data = s.encode("ascii")
    except UnicodeEncodeError as exc:
        raise BadGraph6(exc.start, f"character {s[exc.start]!r} is not ASCII") from None
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
    """graph6 text of g, without header or newline.

    Raises BadGraph6, before allocating the body, when it would be longer
    than GRAPH6_MAX_BODY_BYTES.
    """
    n = g.n
    if n <= 62:
        head = chr(n + 63)
    elif n <= 258047:
        head = "~" + chr((n >> 12) + 63) + chr(((n >> 6) & 63) + 63) + chr((n & 63) + 63)
    else:
        raise BadGraph6(0, f"n = {n} too large for supported size forms")
    nbytes = (n * (n - 1) // 2 + 5) // 6
    if nbytes > GRAPH6_MAX_BODY_BYTES:
        raise BadGraph6(
            len(head), f"n = {n} needs {nbytes} body bytes, over {GRAPH6_MAX_BODY_BYTES}"
        )
    bits = bytearray(nbytes)
    for i, j in g.edges():  # i < j: bit j(j-1)/2 + i of the upper triangle
        bit = j * (j - 1) // 2 + i
        bits[bit // 6] |= 32 >> (bit % 6)
    return head + bits.translate(_SIX_BITS_TO_TEXT).decode("ascii")
