from __future__ import annotations

import tracemalloc

import networkx as nx
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from graphsym import decode_graph6, encode_graph6, format_edge_list, formats, parse_edge_list
from graphsym.errors import BadEdgeList, BadGraph6
from graphsym.generators import named, random_amenable
from graphsym.graph import Graph

from .conftest import graphs, smallest_n_over_graph6_bound


def _nx_graph6(g) -> str:
    G = nx.Graph()
    G.add_nodes_from(range(g.n))
    G.add_edges_from(g.edges())
    return nx.to_graph6_bytes(G, header=False).decode().strip()


def test_decode_k2():
    g = decode_graph6("A_")
    assert g.adjacency == ((1,), (0,))


def test_decode_k3():
    g = decode_graph6("Bw")
    assert (g.n, g.m) == (3, 3)


def test_roundtrip_empty_pair():
    assert encode_graph6(decode_graph6("A?")) == "A?"


def test_header_is_accepted():
    assert decode_graph6(">>graph6<<A_").m == 1


def test_reference_encodings():
    for g in (named("kn", 5), named("cn", 7), named("pn", 9), named("figure1")):
        assert encode_graph6(g) == _nx_graph6(g)


@settings(max_examples=80, deadline=None)
@given(graphs(max_n=12))
def test_roundtrip_and_reference(g):
    s = encode_graph6(g)
    assert decode_graph6(s) == g
    assert s == _nx_graph6(g)


def test_long_form():
    g = named("cn", 100)
    s = encode_graph6(g)
    assert s.startswith("~")
    assert s == _nx_graph6(g)
    assert decode_graph6(s) == g


def test_size_form_boundary():
    for n in (61, 62, 63, 64):
        g = named("cn", n)
        s = encode_graph6(g)
        assert s.startswith("~") == (n > 62)
        assert s == _nx_graph6(g)
        assert decode_graph6(s) == g


def _error(exc, call, *args):
    """(position or line, message) of the error that call(*args) raises."""
    with pytest.raises(exc) as info:
        call(*args)
    err = info.value
    return (err.position if exc is BadGraph6 else err.line), str(err)


def test_encode_refuses_a_body_over_the_bound():
    n = smallest_n_over_graph6_bound()
    assert n == 14190  # the limit the README states
    g = Graph(n=n, m=0, adjacency=((),) * n)
    with pytest.raises(BadGraph6, match=f"n = {n} needs"):
        encode_graph6(g)
    n = 258048  # past the long size form
    assert _error(BadGraph6, encode_graph6, Graph(n, 0, ((),) * n)) == (
        0, f"bad graph6 at byte 0: n = {n} too large for supported size forms")


def test_bad_graph6():
    cases = [
        ("", 0, "empty input"),
        ("B", 1, "expected 1 data bytes, got 0"),  # truncated body
        ("Dz?A", 4, "expected 2 data bytes, got 3"),  # body too long
        ("A\x19", 1, "byte 25 outside printable graph6 range"),
        ("Aé", 1, "character 'é' is not ASCII"),
        ("~~??????", 1, "8-byte size form (n > 258047) not supported"),
        ("~~", 1, "8-byte size form (n > 258047) not supported"),
        ("~", 1, "truncated long-form size"),
        ("~?A", 3, "truncated long-form size"),
        ("~??~" + "?" * 10, 14, "expected 326 data bytes, got 10"),
    ]
    for text, position, reason in cases:
        assert _error(BadGraph6, decode_graph6, text) == (
            position, f"bad graph6 at byte {position}: {reason}"), text


def test_nonzero_padding_rejected():
    # the body byte, or the last of them, with a stray padding bit set
    for text, position in [
        ("A" + chr(63 + 0b100001), 1),  # K2: one bit, five of padding
        ("D?@", 2),  # n = 5: bits 10 and 11 pad the second byte
        ("~??~" + "?" * 325 + "@", 329),  # n = 63: 1953 bits in 326 bytes
    ]:
        assert _error(BadGraph6, decode_graph6, text) == (
            position, f"bad graph6 at byte {position}: nonzero padding bits"), text


def test_edge_list_roundtrip(figure1):
    text = format_edge_list(figure1)
    assert parse_edge_list(text) == (figure1, 0)


def test_edge_list_comments_and_duplicates():
    text = "# triangle\n3 3\n0 1\n1 2\n# again\n1 0\n"
    g, duplicate_edges = parse_edge_list(text)
    assert g.m == 2
    assert duplicate_edges == 1


def test_edge_list_errors():
    with pytest.raises(BadEdgeList):
        parse_edge_list("")
    with pytest.raises(BadEdgeList):
        parse_edge_list("2 1\n0 1\n0 1\n0 1\n")  # edge count mismatch
    with pytest.raises(BadEdgeList):
        parse_edge_list("2 x\n")
    cases = [
        ("3\n", 1, "expected 'n m' header, got '3'"),
        ("# c\n\n1 2 3\n0 1\n", 3, "expected 'n m' header, got '1 2 3'"),
        ("-1 0\n", 1, "negative n or m"),
        ("# x\n2 -1\n", 2, "negative n or m"),
        ("+3 1\n0 1\n", 1, "non-integer header '+3 1'"),
        ("3 1\n0 \u0661\n", 2, "non-integer endpoints '0 \u0661'"),  # an Arabic-Indic 1
        ("3 1\n0 +1\n", 2, "non-integer endpoints '0 +1'"),
        ("# +1_0\n3 1\n0 1_0\n", 3, "non-integer endpoints '0 1_0'"),
    ]
    for text, line, reason in cases:
        assert _error(BadEdgeList, parse_edge_list, text) == (
            line, f"bad edge list at line {line}: {reason}"), text


# Where the bulk read and the per-line scan could part: every line break
# str.splitlines knows, whitespace that strip() and split() take beyond
# space and tab, and what int() reads beyond ASCII digits.
_RISKY = "0123456789 \t\n\r#-+_\x0b\x0c\x1c\x1f\x85\u2028\xa0\u0661"


def _read(read, text):
    """read(text), or the type, line and message of the BadEdgeList it raises."""
    try:
        return read(text)
    except BadEdgeList as exc:
        return type(exc), exc.line, str(exc)


@st.composite
def edge_lists(draw):
    """Edge lists of small graphs with duplicate edges in either orientation,
    comment and blank lines and spaces or tabs, now and then without a final
    newline or with one character replaced by a risky one."""
    g = draw(graphs(max_n=8))
    edges = list(g.edges())
    if edges:
        edges += draw(st.lists(st.sampled_from(edges), max_size=3))
    edges = [draw(st.sampled_from([(u, v), (v, u)])) for u, v in draw(st.permutations(edges))]
    gap = st.sampled_from([" ", "\t", "  \t"])
    lines = [f"{g.n}{draw(gap)}{len(edges)}"] + [f"{u}{draw(gap)}{v}" for u, v in edges]
    # a comment may hide an edge behind a line break of str.splitlines
    comment = st.builds("{}#{}{}".format, st.sampled_from(["", " \t"]),
                        st.sampled_from(" \r\x0b\x0c\x1c\x1d\x1e\x1f\x85"),
                        st.sampled_from(["", "c", "0 1"]))
    for _ in range(draw(st.integers(0, 3))):
        extra = draw(st.one_of(st.sampled_from(["", " \t"]), comment))
        lines.insert(draw(st.integers(0, len(lines))), extra)
    text = "\n".join(lines) + draw(st.sampled_from(["\n", ""]))
    if draw(st.booleans()):
        i = draw(st.integers(0, len(text) - 1))
        text = text[:i] + draw(st.sampled_from(_RISKY)) + text[i + 1:]
    return text


@settings(max_examples=400, deadline=None)
@given(st.one_of(st.text(_RISKY, max_size=40), edge_lists()))
def test_bulk_read_agrees_with_the_per_line_scan(text):
    assert _read(parse_edge_list, text) == _read(formats._scan_lines, text)


def test_plain_texts_are_read_in_bulk():
    for text in ("# triangle\n3 3\n0 1\n1 2\n# again\n1 0\n",  # a duplicate
                 "\t3  2 \n\n 2\t0\n  # c \x1f\n1 2",  # no final newline
                 "0 0\n", "2 0"):
        assert formats._read_plain(text) == formats._scan_lines(text), text
    for text in ("3 1\r\n0 1\r\n", "3 1\n0 1 # c\n", "3 1\n-0 1\n", "3 1\n0\xa01\n",
                 "3 1\n0 3\n", "3 1\n1 1\n", "3 2\n0 1\n", "1048577 0\n",
                 *(f"# a{c}b\n3 1\n0 1\n" for c in "\r\x0b\x0c\x1c\x1d\x1e")):
        assert formats._read_plain(text) is None, repr(text)


def test_numbers_past_the_digit_limit_are_refused_at_their_line(int_digit_limit):
    big = "1" * (int_digit_limit + 700)
    for text, line, what in ((f"{big} 0\n", 1, "header"),
                             (f"# c\n3 1\n0 {big}\n", 3, "endpoints")):
        reason = f"non-integer {what} {text.splitlines()[line - 1]!r}"
        assert _error(BadEdgeList, parse_edge_list, text) == (
            line, f"bad edge list at line {line}: {reason}")


def test_parse_peak_memory_stays_near_the_graph():
    """A per-vertex set or a whole-text regex stack would raise the peak
    of the parse to about four times the graph it returns."""
    g, _ = random_amenable(20000, seed=1)
    text = format_edge_list(g)
    tracemalloc.start()
    try:
        parsed = parse_edge_list(text)
        retained, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert parsed == (g, 0)
    assert peak <= 3 * retained, (peak, retained)
