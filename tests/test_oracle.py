from __future__ import annotations

from math import comb

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from graphsym import Component, Partition, check_amenable, from_edge_list, stable_partition
from graphsym.errors import NotAmenableComponent, TooLarge
from graphsym.generators import named
from graphsym.oracle import (
    RootedTree,
    automorphisms,
    dist_count_bf,
    dist_number_bf,
    find_isomorphism,
    fix_number_bf,
    materialize_jellyfish,
    rooted_tree_graph,
    tree_dist_count,
    tree_fix,
)

from .conftest import complement, graphs, induced, trees

# path plus a pendant whose three branches all differ, so nothing can move
RIGID_TREE = from_edge_list(7, [(0, 1), (1, 2), (2, 3), (3, 4), (4, 5), (2, 6)])


def compose(p, q):
    return tuple(p[q[v]] for v in range(len(p)))


def test_automorphism_orders():
    assert automorphisms(named("kn", 3)).order == 6
    assert automorphisms(named("cn", 5)).order == 10
    assert automorphisms(named("kab", 3, 3)).order == 72


def test_figure1_group_and_product_law(figure1):
    group = automorphisms(figure1, limit_n=11)
    assert group.order == 64
    p = stable_partition(figure1)
    assert automorphisms(figure1, p, limit_n=11).elements == group.elements
    # product over the three anisotropic components: 1 * 8 * 8
    orders = []
    for comp in check_amenable(figure1).components:
        verts = sorted(v for c in comp.cells for v in p.cells[c])
        orders.append(automorphisms(*induced(figure1, p, verts)).order)
    assert orders == [1, 8, 8]
    assert orders[0] * orders[1] * orders[2] == group.order


def test_group_guard():
    with pytest.raises(TooLarge):
        automorphisms(named("kn", 11))


def test_group_closure_spot_checks():
    from math import factorial

    group = automorphisms(named("cn", 6), limit_n=6)
    elements = set(group.elements)
    identity = tuple(range(6))
    assert identity in elements
    assert factorial(6) % group.order == 0
    for p in group.elements[:5]:
        inverse = tuple(sorted(range(6), key=lambda v: p[v]))
        assert inverse in elements
        for q in group.elements[:5]:
            assert compose(p, q) in elements


@settings(max_examples=40, deadline=None)
@given(graphs(max_n=7))
def test_aut_equals_cell_preserving_aut(g):
    full = automorphisms(g, limit_n=7)
    celled = automorphisms(g, stable_partition(g), limit_n=7)
    assert full.elements == celled.elements


def test_dist_number_bf_examples():
    assert dist_number_bf(named("kab", 3, 3)) == 4
    assert dist_number_bf(named("cn", 5)) == 3
    assert dist_number_bf(named("rk2", 2)) == 3
    with pytest.raises(TooLarge):
        dist_number_bf(named("kn", 9))


def test_dist_count_bf_examples():
    for c in range(2, 7):
        assert dist_count_bf(named("kn", 2), c=c) == comb(c, 2)
        assert dist_count_bf(named("kn", 1), c=c) == c
    assert dist_count_bf(named("pn", 3), c=2) == 2


def test_dist_count_bf_reports_a_remainder_as_a_bug(monkeypatch):
    from graphsym import oracle
    from graphsym.errors import InternalError

    # a checker passing every labeling counts 3^2 = 9, not divisible by |Aut(K2)| = 2
    monkeypatch.setattr(oracle, "_make_checker", lambda g, base: lambda coloring: True)
    with pytest.raises(InternalError, match="not divisible by"):
        dist_count_bf(named("kn", 2), c=3)


def test_fix_number_bf_examples():
    assert fix_number_bf(named("kab", 3, 3)) == 4
    assert fix_number_bf(named("cn", 5)) == 2
    assert automorphisms(RIGID_TREE).order == 1
    assert fix_number_bf(RIGID_TREE) == 0


def test_tree_dist_count_examples():
    single = RootedTree(parent=(-1,), root=0)
    for c in (1, 2, 5):
        assert tree_dist_count(single, c) == c
    star = RootedTree(parent=(-1, 0, 0, 0), root=0)
    assert tree_dist_count(star, 2) == 0  # three identical leaves need C(2,3)
    assert tree_dist_count(star, 3) == 3
    p3_mid = RootedTree(parent=(1, -1, 1), root=1)
    assert tree_dist_count(p3_mid, 3) == 9


def test_tree_fix_examples():
    assert tree_fix(RootedTree(parent=(-1,), root=0)) == 0
    assert tree_fix(RootedTree(parent=(-1, 0, 0, 0), root=0)) == 2
    # spider with two identical 2-leaf legs
    spider = RootedTree(parent=(-1, 0, 0, 1, 1, 2, 2), root=0)
    g, p = rooted_tree_graph(spider)
    assert tree_fix(spider) == fix_number_bf(g, p)


@pytest.mark.parametrize("parent, root", [
    ((-1, 2, 1), 0),  # 1 and 2 are each other's parent
    ((-1, 1), 0),  # 1 is its own parent
    ((-1, 3), 0),
    ((-1, -1), 0),
    ((0, -1), 0),
    ((-1,), 1),
])
def test_rooted_tree_rejects_a_bad_parent_array(parent, root):
    with pytest.raises(ValueError):
        RootedTree(parent=parent, root=root)


def test_tree_fix_of_a_long_path_is_zero():
    n = 10**5
    path = RootedTree(parent=(-1, *range(n - 1)), root=0)
    assert path.order == list(range(n))
    assert tree_fix(path) == 0
    assert tree_dist_count(path, 1) == 1


@settings(max_examples=40, deadline=None)
@given(trees(max_n=7), st.integers(1, 4))
def test_tree_count_matches_graph_oracle(t, c):
    parents = [-1] * t.n
    order = [0]
    seen = {0}
    while order:
        v = order.pop()
        for u in t.adjacency[v]:
            if u not in seen:
                seen.add(u)
                parents[u] = v
                order.append(u)
    rt = RootedTree(parent=tuple(parents), root=0)
    g, p = rooted_tree_graph(rt)
    count = tree_dist_count(rt, c)
    assert count == dist_count_bf(g, p, c=c)
    assert (count > 0) == (dist_number_bf(g, p) <= c)
    assert tree_fix(rt) == fix_number_bf(g, p)


def test_materialize_figure1_star_component(figure1):
    verdict = check_amenable(figure1)
    p = stable_partition(figure1)
    comp = verdict.components[1]  # cells {v1,v4,v5,v8} and {v9,v10}
    j = materialize_jellyfish(figure1, p, comp)
    # local order of sorted vertices [1,4,5,8,9,10]; the empty root cell
    # {v9,v10} gains its head edge, the stars stay
    assert set(j.edges()) == {(0, 4), (3, 4), (1, 5), (2, 5), (4, 5)}


def test_materialize_empty_cell_becomes_complete():
    g = from_edge_list(3, [])
    verdict = check_amenable(g)
    j = materialize_jellyfish(g, stable_partition(g), verdict.components[0])
    assert j.m == 3  # complement of the empty cell


def test_materialize_jellyfish_idempotent_on_normal_form():
    g = named("jellyfish_fig3")
    verdict = check_amenable(g)
    assert len(verdict.components) == 1
    j = materialize_jellyfish(g, stable_partition(g), verdict.components[0])
    assert j == g  # already normalized: head 5-cycle, stars, empty cells


def _component(cells: tuple[int, ...], root: int = 0) -> Component:
    """The cells as a component whose other cells all hang from the root."""
    rest = tuple(c for c in cells if c != root)
    return Component(cells=cells, root=root, order=(root, *rest),
                     parent=dict.fromkeys(rest, root), multiplicity=dict.fromkeys(rest, 1))


@pytest.mark.parametrize("g, colors, comp", [
    # a 6-cycle: its one cell, the root, is 2-regular on six vertices
    (named("cn", 6), [0] * 6, _component((0,))),
    # a 6-cycle beside six isolated vertices, which are the root: the
    # other cell is neither empty nor complete
    (from_edge_list(12, named("cn", 6).edges()), [0] * 6 + [1] * 6, _component((0, 1), root=1)),
    # the 8-cycle's two colour classes: 8 of 16 vertex pairs are edges,
    # neither stars (4) nor co-stars (12)
    (named("cn", 8), [0, 1] * 4, _component((0, 1))),
])
def test_materialize_refuses_what_no_amenable_kind_is(g, colors, comp):
    with pytest.raises(NotAmenableComponent):
        materialize_jellyfish(g, Partition.from_colors(colors), comp)


def test_find_isomorphism():
    assert find_isomorphism(named("kn", 3), named("pn", 3)) is None
    assert find_isomorphism(named("cn", 4), complement(named("rk2", 2))) is not None
