"""Graph interchange formats: edge-list text and graph6.

Edge-list format: '#' starts a comment line; the first data line is "n m";
each of the following m lines is "u v" with 0-based endpoints.  Numbers
are ASCII decimal digits with an optional '-' sign.  A negative value, or
a header with more than MAX_VERTICES vertices, is refused before anything
is built.

A text in the plain subset is read in bulk: ASCII, lines split only by
"\n", each line blank, a '#' comment or two runs of ASCII digits split by
spaces or tabs.  It is tokenised once and converted by one map(int, ...).
Any other text, and any text the bulk read refuses, goes through the
per-line scan, which defines the grammar and names the line of every error.

graph6 follows McKay's specification: one printable ASCII line, vertex count
followed by the upper triangle of the adjacency matrix in column-major order,
six bits per byte, offset 63.  The short size form covers n <= 62 and the
long form covers n <= 258047; encode_graph6 writes at most
GRAPH6_MAX_BODY_BYTES of body, so n <= 14189.
"""

from __future__ import annotations

import re

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
# The first line outside the plain subset.  A comment holds none of the
# characters where str.splitlines, and so the per-line scan, breaks a line.
# A search, not a fullmatch over a repeated group, whose backtracking stack
# would grow with the text.  Both patterns are compiled on first use, by
# re's cache, so a call that reads only graph6 compiles neither.
_NOT_PLAIN = r"^(?![ \t]*(?:#[^\n\r\x0b\x0c\x1c-\x1e]*|[0-9]+[ \t]+[0-9]+[ \t]*)?$)"
_COMMENT = r"^[ \t]*#.*$"


def parse_edge_list(text: str) -> tuple[Graph, int]:
    """The graph of an edge-list text and how many of its edges were
    duplicates (either orientation), which the graph holds once."""
    parsed = _read_plain(text)
    return parsed if parsed is not None else _scan_lines(text)


def _read_plain(text: str) -> tuple[Graph, int] | None:
    """parse_edge_list(text) read in bulk, or None when text is outside the
    plain subset or is refused, for the per-line scan to read."""
    if not text.isascii() or re.search(_NOT_PLAIN, text, re.M):
        return None
    tokens = (re.sub(_COMMENT, "", text, flags=re.M) if "#" in text else text).split()
    try:
        n, m = map(int, tokens[:2])
        if n > MAX_VERTICES or 2 * m != len(tokens) - 2:
            return None
        del tokens[:2]
        ends = list(map(int, tokens))
    except ValueError:  # no header, or a number past int()'s digit limit
        return None
    del tokens  # freed before the rows are built
    it = iter(ends)
    try:
        g = from_edge_list(n, zip(it, it))
    except (OutOfRange, SelfLoop):
        return None
    return g, m - g.m


def _scan_lines(text: str) -> tuple[Graph, int]:
    """parse_edge_list(text) read line by line: the grammar's definition,
    and the read that names the line of every error."""
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
                header = (_plain_int(parts[0]), _plain_int(parts[1]))
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
            edges.append((_plain_int(parts[0]), _plain_int(parts[1])))
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
    # graph6 gives each edge once and in range, column by column: row v gets
    # its lower neighbours in column v, then its higher ones in later
    # columns, so every row comes out strictly increasing with no check or sort
    rows: list[list[int]] = [[] for _ in range(n)]
    stop = 0
    for j in range(1, n):  # column j: bit start + i is the pair (i, j), i < j
        start, stop = stop, stop + j
        k = bits.find("1", start, stop)
        while k >= 0:
            rows[k - start].append(j)
            rows[j].append(k - start)
            k = bits.find("1", k + 1, stop)
    return Graph(n, bits.count("1"), tuple(map(tuple, rows)))  # the padding is all zeros


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
