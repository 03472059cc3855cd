from __future__ import annotations

import networkx as nx
import pytest
from hypothesis import given, settings

from graphsym import decode_graph6, encode_graph6, format_edge_list, parse_edge_list
from graphsym.errors import BadEdgeList, BadGraph6
from graphsym.generators import named
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
