from __future__ import annotations

import pytest
from hypothesis import given, settings

from graphsym import (
    CellKind,
    PairKind,
    Partition,
    anisotropic_components,
    build_cell_graph,
    from_edge_list,
    stable_partition,
)
from graphsym.cells import component_rows
from graphsym.errors import NotEquitable
from graphsym.generators import generate, named

from .conftest import BRANCHED_SPEC, every_component, graphs


def cell_graph_of(g):
    return build_cell_graph(g, stable_partition(g))


def test_figure1_kinds_and_pairs(figure1):
    cg = cell_graph_of(figure1)
    # canonical cell ids: 0={c}, 1={v1,v4,v5,v8}, 2={v2,v3,v6,v7}, 3={v9,v10}
    assert cg.cell_kinds == (
        CellKind.EMPTY, CellKind.EMPTY, CellKind.MATCHING, CellKind.EMPTY,
    )
    assert cg.pair_kind(0, 1) is PairKind.ISO_COMPLETE
    assert cg.pair_kind(0, 2) is PairKind.ISO_COMPLETE
    assert cg.pair_kind(0, 3) is PairKind.ISO_EMPTY
    assert cg.pair_kind(1, 2) is PairKind.ISO_EMPTY
    assert cg.pair_kind(1, 3) is PairKind.ANISO_STARS
    assert cg.center_cell(1, 3) == 3


def test_c5_cell_kind():
    cg = cell_graph_of(named("cn", 5))
    assert cg.cell_kinds == (CellKind.FIVE_CYCLE,)


def test_k33_is_other():
    # 3-regular on one cell of six: none of the allowed kinds fits
    cg = cell_graph_of(named("kab", 3, 3))
    assert cg.cell_kinds == (CellKind.OTHER,)


def test_c4_is_co_matching():
    cg = cell_graph_of(named("cn", 4))
    assert cg.cell_kinds == (CellKind.CO_MATCHING,)


def test_size_two_clique_cell_is_complete():
    cg = cell_graph_of(named("rk2", 1))
    assert cg.cell_kinds == (CellKind.COMPLETE,)


def test_not_equitable_rejected():
    with pytest.raises(NotEquitable):
        build_cell_graph(named("pn", 3), Partition.from_colors([0] * 3))


def test_figure1_components(figure1):
    cg = cell_graph_of(figure1)
    comps = anisotropic_components(cg)  # ordered by lowest cell id
    rows = component_rows(cg.cell_sizes, comps)  # with singleton cell 0
    assert [c.cells for c in comps] == [(1, 3), (2,)]
    assert [r["cells"] for r in rows] == [[0], [1, 3], [2]]
    assert comps[0].root == 3
    assert comps[0].multiplicity == {1: 2}
    assert not rows[0]["heterogeneous"] and comps[1].het_cells


def test_single_cell_component():
    (comp,) = anisotropic_components(cell_graph_of(named("kn", 6)))
    assert comp.cells == (0,)
    assert comp.multiplicity == {}


def test_branched_component_multiplicities():
    g, intended = generate(BRANCHED_SPEC, seed=5)
    assert g.n == 100
    p = stable_partition(g)
    assert p == intended
    (comp,) = anisotropic_components(build_cell_graph(g, p))
    sizes = {c: len(p.cells[c]) for c in comp.cells}
    assert sizes[comp.root] == 5
    edge_profile = sorted(
        (sizes[comp.parent[child]], sizes[child], m)
        for child, m in comp.multiplicity.items()
    )
    assert edge_profile == [
        (5, 5, 1), (5, 10, 2), (5, 15, 3), (5, 15, 3), (10, 20, 2), (10, 30, 3),
    ]


def test_multiple_heterogeneous_reported():
    # two matching cells joined by stars: both heterogeneous, one component
    edges = [(0, 1), (2, 3)]
    edges += [(2 * i, 2 * i + 1) for i in range(2, 6)]
    edges += [(i, 4 + 2 * i) for i in range(4)]
    edges += [(i, 5 + 2 * i) for i in range(4)]
    g = from_edge_list(12, edges)
    cg = cell_graph_of(g)
    assert cg.cell_kinds == (CellKind.MATCHING, CellKind.MATCHING)
    (comp,) = anisotropic_components(cg)
    assert comp.is_tree and comp.het_cells == (0, 1)
    assert comp.findings() == [("D", "more than one heterogeneous cell", (0, 1))]


def _star_cycle_graph():
    """Three cells star-joined in a cycle: A(2)-B(4)-C(8)-A, all degrees distinct."""
    edges = [(0, 2), (0, 3), (1, 4), (1, 5)]
    edges += [(2 + i, 6 + 2 * i) for i in range(4)]
    edges += [(2 + i, 7 + 2 * i) for i in range(4)]
    edges += [(0, c) for c in range(6, 10)]
    edges += [(1, c) for c in range(10, 14)]
    return from_edge_list(14, edges)


def test_cyclic_anisotropic_component_reported():
    g = _star_cycle_graph()
    cg = cell_graph_of(g)
    assert len(cg.partition.cells) == 3
    assert all(kind is CellKind.EMPTY for kind in cg.cell_kinds)
    (comp,) = anisotropic_components(cg)
    assert comp.cells == (0, 1, 2) and not comp.is_tree
    assert comp.parent == {} and comp.multiplicity == {}
    assert comp.findings() == [("C", "not a tree", (0, 1, 2))]


def test_heterogeneous_cell_off_minimum_reported():
    # lone matching cell of non-minimal size: the root stays at the minimum
    edges = [(2, 3), (4, 5), (0, 2), (0, 3), (1, 4), (1, 5)]
    for i, m in enumerate((2, 3, 4, 5)):
        edges += [(m, 6 + 2 * i), (m, 7 + 2 * i)]
    g = from_edge_list(14, edges)
    cg = cell_graph_of(g)
    (comp,) = anisotropic_components(cg)
    assert cg.cell_sizes[comp.root] == 2 and cg.cell_kinds[comp.root] is CellKind.EMPTY
    het = comp.het_cells[0]
    assert cg.cell_kinds[het] is CellKind.MATCHING and cg.cell_sizes[het] == 4
    assert comp.is_tree and comp.decreasing == ()
    assert comp.findings() == [("D", "heterogeneous cell is not of minimum size", (het,))]


def test_decreasing_sizes_reported():
    # A(2) -> B(6) -> C(3) by star joins: from the minimum root, B to C shrinks
    edges = [(0, 2), (0, 3), (0, 4), (1, 5), (1, 6), (1, 7)]
    edges += [(8, 2), (8, 3), (9, 4), (9, 5), (10, 6), (10, 7)]
    cg = cell_graph_of(from_edge_list(11, edges))
    assert cg.cell_sizes == (2, 6, 3)
    (comp,) = anisotropic_components(cg)
    assert comp.root == 0 and comp.parent == {1: 0, 2: 1}
    assert comp.multiplicity == {1: 3} and comp.decreasing == ((1, 2),)
    assert comp.findings() == [("C", "cell sizes decrease along 1 -> 2", (1, 2))]


@settings(max_examples=60, deadline=None)
@given(graphs())
def test_double_counting_identity(g):
    cg = cell_graph_of(g)
    cell_of = cg.partition.cell_of
    # every ordered cell pair with an edge, singleton cells included
    pairs = {(cell_of[u], cell_of[v]) for u in range(g.n) for v in g.adjacency[u]}
    for i, j in pairs:
        dij = cg.degree_constant(i, j)
        assert dij > 0
        assert cg.cell_sizes[i] * dij == cg.cell_sizes[j] * cg.degree_constant(j, i)
        if i == j:
            assert (dij * cg.cell_sizes[i]) % 2 == 0


@settings(max_examples=60, deadline=None)
@given(graphs())
def test_multiplicities_positive_and_consistent(g):
    cg = cell_graph_of(g)
    for comp in every_component(cg, anisotropic_components(cg)):
        cells = set(comp.cells)
        aniso_pairs = sum(1 for (i, _j), kind in cg.pair_kinds.items()
                          if kind in (PairKind.ANISO_STARS, PairKind.ANISO_CO_STARS)
                          and i in cells)
        assert (comp.order == ()) == (aniso_pairs != len(comp.cells) - 1)
        if comp.order:  # the walk: the root first, every cell after its parent
            assert comp.order[0] == comp.root and sorted(comp.order) == list(comp.cells)
            assert set(comp.parent) == set(comp.order[1:])
            position = {x: k for k, x in enumerate(comp.order)}
            assert all(position[p] < position[c] for c, p in comp.parent.items())
        assert set(comp.multiplicity) | {c for _, c in comp.decreasing} == set(comp.parent)
        for child, m in comp.multiplicity.items():
            parent = comp.parent[child]
            assert m >= 1
            assert cg.cell_sizes[child] == m * cg.cell_sizes[parent]
