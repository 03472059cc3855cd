"""Graph interchange formats: edge-list text and graph6.

Edge-list format: '#' starts a comment line; the first data line is "n m";
each of the following m lines is "u v" with 0-based endpoints.  Numbers
are ASCII decimal digits with an optional '-' sign.  A negative value, or
a header with more than MAX_VERTICES vertices, is refused before anything
is built.

graph6 follows McKay's specification: one printable ASCII line, vertex count
followed by the upper triangle of the adjacency matrix in column-major order,
six bits per byte, offset 63.  The short size form covers n <= 62 and the
long form covers n <= 258047; encode_graph6 writes at most
GRAPH6_MAX_BODY_BYTES of body, so n <= 14189.
"""

from __future__ import annotations

from .errors import BadEdgeList, BadGraph6, OutOfRange, SelfLoop
from .graph import Graph, from_edge_list

_HEADER = ">>graph6<<"
# encode_graph6 refuses bodies above this many bytes (16 MiB, n <= 14189):
# the body grows as n^2 / 12 bytes, about 2 GB at n = 160000.
GRAPH6_MAX_BODY_BYTES = 1 << 24
# parse_edge_list refuses a header above this many vertices: every vertex
# gets a row, so "1000000000 0" alone would ask for hundreds of gigabytes.
MAX_VERTICES = 1 << 20
_GRAPH6_BYTES = bytes(range(63, 127))
_SIX_BITS_TO_TEXT = _GRAPH6_BYTES + bytes(192)  # value v -> byte v + 63
_BYTE_TO_BITS = [""] * 63 + [f"{v:06b}" for v in range(64)]  # byte v + 63 -> v's bits, high first


def parse_edge_list(text: str) -> tuple[Graph, int]:
    """The graph of an edge-list text and how many of its edges were
    duplicates (either orientation), which the graph holds once."""
    # plain text, as _plain_int takes it, pays no check per token
    to_int = int if text.isascii() and "+" not in text and "_" not in text else _plain_int
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
                header = (to_int(parts[0]), to_int(parts[1]))
            except ValueError:
                raise BadEdgeList(lineno, f"non-integer header {line!r}") from None
            if header[0] < 0 or header[1] < 0:
                raise BadEdgeList(lineno, "negative n or m")
            if header[0] > MAX_VERTICES:
                raise BadEdgeList(lineno, f"n = {header[0]} is over the limit of {MAX_VERTICES}")
            continue
        if len(parts) != 2:
            raise BadEdgeList(lineno, f"expected 'u v', got {line!r}")
        try:
            edges.append((to_int(parts[0]), to_int(parts[1])))
        except ValueError:
            raise BadEdgeList(lineno, f"non-integer endpoints {line!r}") from None
    if header is None:
        raise BadEdgeList(0, "missing 'n m' header")
    n, m = header
    if len(edges) != m:
        raise BadEdgeList(0, f"header says {m} edges, found {len(edges)}")
    try:
        g = from_edge_list(n, edges)  # deduplicates either orientation
    except (OutOfRange, SelfLoop) as exc:
        raise BadEdgeList(_refused_line(lines, n, edges), str(exc)) from None
    return g, len(edges) - g.m


def _plain_int(token: str) -> int:
    """int(token), refusing the '+', '_' and non-ASCII digits int() reads too."""
    if not token.isascii() or "+" in token or "_" in token:
        raise ValueError(token)
    return int(token)


def _refused_line(lines: list[str], n: int, edges: list[tuple[int, int]]) -> int:
    """The line of the first edge from_edge_list refuses.  Found again only
    once it has refused, so valid input pays no check per edge for it."""
    i = next(i for i, (u, v) in enumerate(edges) if u == v or not (0 <= u < n and 0 <= v < n))
    data = [lineno for lineno, raw in enumerate(lines, 1)
            if raw.strip() and not raw.strip().startswith("#")]
    return data[i + 1]  # data[0] is the header's line


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
    if data.translate(None, _GRAPH6_BYTES):  # a byte outside 63..126 is left
        i, b = next((i, b) for i, b in enumerate(data) if not 63 <= b <= 126)
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
    bits = "".join(map(_BYTE_TO_BITS.__getitem__, body))
    padding = bits.find("1", nbits)
    if padding >= 0:
        raise BadGraph6(offset + padding // 6, "nonzero padding bits")
    edges: list[tuple[int, int]] = []
    stop = 0
    for j in range(1, n):  # column j: bit start + i is the pair (i, j), i < j
        start, stop = stop, stop + j
        k = bits.find("1", start, stop)
        while k >= 0:
            edges.append((k - start, j))
            k = bits.find("1", k + 1, stop)
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
