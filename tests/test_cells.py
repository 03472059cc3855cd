from __future__ import annotations

import json

import pytest
from hypothesis import given, settings

from graphsym import (
    CellKind,
    PairKind,
    Partition,
    analyze,
    anisotropic_components,
    build_cell_graph,
    check_amenable,
    from_edge_list,
    oracle,
    stable_partition,
)
from graphsym.cells import components_text
from graphsym.errors import NotEquitable
from graphsym.generators import generate, named, random_amenable

from .conftest import BRANCHED_SPEC, every_component, graphs
from .test_acceptance import _CountingRow


def cell_graph_of(g):
    return build_cell_graph(g, stable_partition(g))


def test_figure1_kinds_and_pairs(figure1):
    cg = cell_graph_of(figure1)
    # canonical cell ids: 0={c}, 1={v1,v4,v5,v8}, 2={v2,v3,v6,v7}, 3={v9,v10}
    assert cg.cell_kinds == (
        CellKind.EMPTY, CellKind.EMPTY, CellKind.MATCHING, CellKind.EMPTY,
    )
    # pairs (0, 3) and (1, 2) have no edge, so no row
    rows = json.loads(cg.pairs_text())
    assert [(q["i"], q["j"], q["kind"], q.get("centers")) for q in rows] == [
        (0, 1, "iso_complete", None), (0, 2, "iso_complete", None), (1, 3, "aniso_stars", 3)]
    assert cg.pair_kinds == {(1, 3): PairKind.ANISO_STARS}


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
    rows = json.loads(components_text(cg.cell_sizes, comps))  # with singleton cell 0
    assert [c.cells for c in comps] == [(1, 3), (2,)]
    assert [r["cells"] for r in rows] == [[0], [1, 3], [2]]
    assert comps[0].root == 3
    assert comps[0].multiplicity == {1: 2}
    assert not rows[0]["heterogeneous"] and comps[1].heterogeneous
    assert [c.findings for c in comps] == [(), ()]


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
    assert comp.is_tree and comp.heterogeneous
    assert comp.findings == (("D", "more than one heterogeneous cell", (0, 1)),)


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
    assert comp.findings == (("C", "not a tree", (0, 1, 2)),)


def test_heterogeneous_cell_off_minimum_reported():
    # lone matching cell of non-minimal size: the root stays at the minimum
    edges = [(2, 3), (4, 5), (0, 2), (0, 3), (1, 4), (1, 5)]
    for i, m in enumerate((2, 3, 4, 5)):
        edges += [(m, 6 + 2 * i), (m, 7 + 2 * i)]
    g = from_edge_list(14, edges)
    cg = cell_graph_of(g)
    (comp,) = anisotropic_components(cg)
    assert cg.cell_sizes[comp.root] == 2 and cg.cell_kinds[comp.root] is CellKind.EMPTY
    (het,) = (c for c in comp.cells if cg.cell_kinds[c] is not CellKind.EMPTY)
    assert cg.cell_kinds[het] is CellKind.MATCHING and cg.cell_sizes[het] == 4
    assert comp.is_tree and comp.heterogeneous
    assert comp.findings == (("D", "heterogeneous cell is not of minimum size", (het,)),)


def test_heterogeneous_cell_wins_a_size_tie():
    # empty cell 0 = {0..3} and matching cell 1 = {4..7}, joined by a perfect
    # matching: sizes tie, and the heterogeneous cell 1 is the root
    g = from_edge_list(8, [(4, 5), (6, 7)] + [(i, 4 + i) for i in range(4)])
    cg = cell_graph_of(g)
    assert cg.cell_sizes == (4, 4)
    assert cg.cell_kinds == (CellKind.EMPTY, CellKind.MATCHING)
    (comp,) = anisotropic_components(cg)
    assert comp.root == 1 and comp.heterogeneous and comp.findings == ()
    verdict = check_amenable(g)
    assert verdict.amenable and verdict.failure is None
    report = analyze(g, verdict=verdict)
    assert (report.dist_number, report.fix_number) == (2, 2)
    assert (oracle.dist_number_bf(g), oracle.fix_number_bf(g)) == (2, 2)


def test_decreasing_sizes_reported():
    # A(2) -> B(6) -> C(3) by star joins: from the minimum root, B to C shrinks
    edges = [(0, 2), (0, 3), (0, 4), (1, 5), (1, 6), (1, 7)]
    edges += [(8, 2), (8, 3), (9, 4), (9, 5), (10, 6), (10, 7)]
    cg = cell_graph_of(from_edge_list(11, edges))
    assert cg.cell_sizes == (2, 6, 3)
    (comp,) = anisotropic_components(cg)
    assert comp.root == 0 and comp.parent == {1: 0, 2: 1}
    assert comp.multiplicity == {1: 3}
    assert comp.findings == (("C", "cell sizes decrease along 1 -> 2", (1, 2)),)


# A(2) -> B(6) -> C(3): A's vertices 0, 1 are the centers of stars into B,
# and C's vertex 8 + k is matched to B's vertices 2 + 2k and 3 + 2k
A_TO_B = [(0, 2), (0, 3), (0, 4), (1, 5), (1, 6), (1, 7)]
B_STARS_C = [(8 + k, b) for k in range(3) for b in (2 + 2 * k, 3 + 2 * k)]
B_CO_STARS_C = [(8 + k, b) for k in range(3) for b in range(2, 8)
                if b not in (2 + 2 * k, 3 + 2 * k)]


@pytest.mark.parametrize("join, kind, d_bc, d_cb", [
    (B_STARS_C, PairKind.ANISO_STARS, 1, 2),
    (B_CO_STARS_C, PairKind.ANISO_CO_STARS, 2, 4),
], ids=["stars", "co_stars"])
def test_pair_classified_from_the_smaller_higher_cell(join, kind, d_bc, d_cb):
    # pair (1, 2) is classified when cell 2 is read, and cell 2 is the
    # smaller: d[1, 2] = |2| d[2, 1] / |1| by double counting
    cg = cell_graph_of(from_edge_list(11, A_TO_B + join))
    assert cg.cell_sizes == (2, 6, 3)
    assert cg.pair_kinds == {(0, 1): PairKind.ANISO_STARS, (1, 2): kind}
    (row,) = (q for q in json.loads(cg.pairs_text()) if (q["i"], q["j"]) == (1, 2))
    assert row == {"i": 1, "j": 2, "d_ij": d_bc, "d_ji": d_cb, "kind": kind.value, "centers": 2}


def test_cells_json_reads_one_adjacency_row_per_cell():
    # the degree constants come from each cell's lowest vertex, not from a
    # walk over every edge
    g, _ = random_amenable(2000, seed=1)
    cg = cell_graph_of(g)
    rows = tuple(map(_CountingRow, g.adjacency))
    _CountingRow.visits = 0
    counted = cg._replace(graph=g._replace(adjacency=rows))
    assert (counted.cells_text(), counted.pairs_text()) == (cg.cells_text(), cg.pairs_text())
    bound = sum(len(g.adjacency[cell[0]]) for cell in cg.partition.cells)
    assert bound < 2 * g.m and _CountingRow.visits <= bound


@settings(max_examples=60, deadline=None)
@given(graphs())
def test_double_counting_identity(g):
    cg = cell_graph_of(g)
    cell_of = cg.partition.cell_of
    # a row for every cell pair with an edge, singleton cells included
    pairs = {(cell_of[u], cell_of[v]) for u in range(g.n) for v in g.adjacency[u]}
    rows = json.loads(cg.pairs_text())
    assert [(q["i"], q["j"]) for q in rows] == sorted((i, j) for i, j in pairs if i < j)
    for q in rows:
        assert q["d_ij"] > 0
        assert cg.cell_sizes[q["i"]] * q["d_ij"] == cg.cell_sizes[q["j"]] * q["d_ji"]


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
        decreasing = {cells[1] for cond, reason, cells in comp.findings
                      if reason.startswith("cell sizes decrease")}
        assert set(comp.multiplicity) | decreasing == set(comp.parent)
        for child, m in comp.multiplicity.items():
            parent = comp.parent[child]
            assert m >= 1
            assert cg.cell_sizes[child] == m * cg.cell_sizes[parent]
