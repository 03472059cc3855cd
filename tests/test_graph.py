from __future__ import annotations

import pytest
from hypothesis import given, settings

from graphsym import from_edge_list, relabel
from graphsym.errors import OutOfRange, SelfLoop

from .conftest import graphs, validate_graph


def test_k2():
    g = from_edge_list(2, [(0, 1)])
    assert g.adjacency == ((1,), (0,))
    assert (g.n, g.m) == (2, 1)


def test_k3():
    g = from_edge_list(3, [(0, 1), (1, 2), (0, 2)])
    assert g.m == 3
    assert g.adjacency == ((1, 2), (0, 2), (0, 1))


def test_figure1_edge_count(figure1):
    assert (figure1.n, figure1.m) == (11, 14)
    validate_graph(figure1)


def test_duplicate_edges_are_merged():
    g = from_edge_list(3, [(0, 1), (1, 0), (0, 1)])
    assert g.m == 1


def test_out_of_range_and_self_loop():
    with pytest.raises(OutOfRange):
        from_edge_list(2, [(0, 2)])
    with pytest.raises(SelfLoop):
        from_edge_list(2, [(1, 1)])


@settings(max_examples=60, deadline=None)
@given(graphs())
def test_constructed_graphs_validate(g):
    validate_graph(g)


def test_relabel_roundtrip(figure1):
    perm = [(v + 3) % figure1.n for v in range(figure1.n)]
    back = [0] * figure1.n
    for v, w in enumerate(perm):
        back[w] = v
    assert relabel(relabel(figure1, perm), back) == figure1


def test_the_first_bad_edge_in_input_order_is_refused():
    """A loop early, an out-of-range v later, then an edge with both ends
    out of range: the first bad edge decides, u before v, from a list and
    from a one-shot generator alike."""
    edges = [(0, 1), (2, 2), (1, 0), (3, 7), (9, 8), (-1, 0)]
    for bad, error, vertex in ((1, SelfLoop, 2), (3, OutOfRange, 7), (4, OutOfRange, 9),
                               (5, OutOfRange, -1)):
        rest = edges[:1] + edges[bad:]
        for given_as in (list, iter, lambda es: (e for e in es)):
            with pytest.raises(error) as info:
                from_edge_list(4, given_as(rest))
            assert info.value.vertex == vertex
            expected = (f"self-loop at vertex {vertex}" if error is SelfLoop
                        else f"vertex {vertex} out of range [0, 4)")
            assert str(info.value) == expected
