from __future__ import annotations

import pytest
from hypothesis import given, settings

from graphsym import (
    complement,
    disjoint_union,
    from_edge_list,
    induced_subgraph,
    relabel,
)
from graphsym.errors import OutOfRange, SelfLoop
from graphsym.generators import named

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


def test_induced_k3_minus_vertex():
    k3 = named("kn", 3)
    sub, mapping = induced_subgraph(k3, {0, 1})
    assert sub.adjacency == ((1,), (0,))
    assert mapping == {0: 0, 1: 1}


def test_induced_figure1_x3_x4(figure1):
    # the two star cells of the example graph induce two disjoint 2-leaf stars
    sub, mapping = induced_subgraph(figure1, {1, 8, 4, 5, 9, 10})
    assert (sub.n, sub.m) == (6, 4)
    assert sorted(sub.degree(v) for v in range(6)) == [1, 1, 1, 1, 2, 2]
    centers = [v for v in range(6) if sub.degree(v) == 2]
    assert not sub.has_edge(centers[0], centers[1])


def test_induced_empty_set(figure1):
    sub, mapping = induced_subgraph(figure1, set())
    assert (sub.n, sub.m) == (0, 0)
    assert mapping == {}


def test_union_two_k2():
    g = disjoint_union(named("rk2", 1), named("rk2", 1))
    assert (g.n, g.m) == (4, 2)
    # the first graph keeps its ids, the second follows shifted by its n
    assert g.adjacency == ((1,), (0,), (3,), (2,))


def test_union_c6_two_triangles():
    c3 = named("cn", 3)
    two_c3 = disjoint_union(c3, c3)
    g = disjoint_union(named("cn", 6), two_c3)
    assert g.n == 12
    assert all(g.degree(v) == 2 for v in range(12))


def test_complement_k3():
    assert complement(named("kn", 3)).m == 0


def test_complement_2k2_is_c4():
    g = complement(named("rk2", 2))
    assert (g.n, g.m) == (4, 4)
    assert all(g.degree(v) == 2 for v in range(4))
    assert not g.has_edge(0, 1) and not g.has_edge(2, 3)


@settings(max_examples=60, deadline=None)
@given(graphs())
def test_complement_involution(g):
    assert complement(complement(g)) == g


@settings(max_examples=60, deadline=None)
@given(graphs())
def test_constructed_graphs_validate(g):
    validate_graph(g)
    validate_graph(complement(g))


@settings(max_examples=40, deadline=None)
@given(graphs(min_n=1))
def test_induced_on_full_vertex_set_is_identity(g):
    sub, mapping = induced_subgraph(g, range(g.n))
    assert sub == g
    assert mapping == {v: v for v in range(g.n)}


def test_relabel_roundtrip(figure1):
    perm = [(v + 3) % figure1.n for v in range(figure1.n)]
    back = [0] * figure1.n
    for v, w in enumerate(perm):
        back[w] = v
    assert relabel(relabel(figure1, perm), back) == figure1
