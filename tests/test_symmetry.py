from __future__ import annotations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from graphsym import (
    CellTree,
    HeadKind,
    HeadShape,
    analyze,
    check_amenable,
    complement,
    component_report,
    dist_number,
    fix_number,
    head_invariants,
    head_of_component,
    leg_dist_count,
    leg_fix,
    min_c_binom,
    oracle,
)
from graphsym.errors import BadCap, NotAmenable
from graphsym.generators import named, random_amenable

from .conftest import graphs

LEG_REGRESSION_NEST = (5, [(10, [(30, []), (20, [])]), (15, []), (5, [(15, [])])])


@st.composite
def cell_trees(draw, max_depth: int = 3, max_root: int = 3):
    def node(depth: int, size: int) -> tuple:
        kids = []
        if depth < max_depth:
            for _ in range(draw(st.integers(0, 2))):
                kids.append(node(depth + 1, size * draw(st.integers(1, 3))))
        return (size, kids)

    return CellTree.from_nested(node(0, draw(st.integers(1, max_root))))


def test_min_c_binom_examples():
    assert min_c_binom(1) == 2
    assert min_c_binom(3) == 3
    assert min_c_binom(7) == 5  # C(4,2)=6 < 7 <= C(5,2)=10


def test_min_c_binom_is_tight():
    for r in range(1, 500):
        c = min_c_binom(r)
        assert c * (c - 1) // 2 >= r
        assert (c - 1) * (c - 2) // 2 < r


def test_head_invariants():
    assert head_invariants(HeadKind(HeadShape.COMPLETE, 5)) == (5, 4)
    assert head_invariants(HeadKind(HeadShape.COMPLETE, 1)) == (1, 0)
    assert head_invariants(HeadKind(HeadShape.FIVE_CYCLE, 5)) == (3, 2)
    assert head_invariants(HeadKind(HeadShape.CO_MATCHING, 4)) == (3, 2)
    assert head_invariants(HeadKind(HeadShape.CO_MATCHING, 14)) == (5, 7)


def test_head_of_component(figure1):
    verdict = check_amenable(figure1)
    cg = verdict.cell_graph
    comps = verdict.components
    assert head_of_component(cg, comps[2]) == HeadKind(HeadShape.CO_MATCHING, 4)
    assert head_of_component(cg, comps[1]) == HeadKind(HeadShape.COMPLETE, 2)

    v5 = check_amenable(named("kn", 5))
    assert head_of_component(v5.cell_graph, v5.components[0]) == HeadKind(HeadShape.COMPLETE, 5)


def test_leg_count_branched_example():
    tree = CellTree.from_nested(LEG_REGRESSION_NEST)
    assert oracle.leg_dist_count_exact(tree, 3) == 324
    sat = leg_dist_count(tree, 3, cap=10**6)
    assert sat.value == 324 and not sat.saturated
    assert oracle.leg_dist_count_exact(tree, 2) == 0


def test_leg_count_single_cell():
    tree = CellTree.from_nested((4, []))
    for c in (1, 2, 5):
        assert oracle.leg_dist_count_exact(tree, c) == c
        assert leg_dist_count(tree, c, cap=100).value == min(c, 100)


def test_leg_count_bad_cap():
    tree = CellTree.from_nested(LEG_REGRESSION_NEST)
    with pytest.raises(BadCap):
        leg_dist_count(tree, 3, cap=50)  # cap must exceed the vertex count


def test_leg_fix_examples():
    assert leg_fix(CellTree.from_nested(LEG_REGRESSION_NEST)) == 10
    assert leg_fix(CellTree.from_nested((3, []))) == 0
    assert leg_fix(CellTree.from_nested((1, [(2, [])]))) == 1


def test_component_dist_examples(figure1):
    verdict = check_amenable(figure1)
    cg = verdict.cell_graph
    assert component_report(cg, verdict.components[1]).dist == 2  # star pair, head K2
    assert component_report(cg, verdict.components[2]).dist == 3  # matching cell

    v5 = check_amenable(named("kn", 5))
    assert component_report(v5.cell_graph, v5.components[0]).dist == 5


def test_component_fix_examples(figure1):
    verdict = check_amenable(figure1)
    cg = verdict.cell_graph
    assert component_report(cg, verdict.components[1]).fix == 2  # 2 * leg fix 1
    assert component_report(cg, verdict.components[2]).fix == 2  # co-matching head, r=2

    v5 = check_amenable(named("kn", 5))
    assert component_report(v5.cell_graph, v5.components[0]).fix == 4


def test_branched_component_values():
    from graphsym.generators import CellNode, ComponentSpec, GraphSpec, generate

    tree = CellNode(size=5, children=(
        CellNode(size=10, children=(
            CellNode(size=30), CellNode(size=20, fill="complete"),
        )),
        CellNode(size=15),
        CellNode(size=5, children=(CellNode(size=15),)),
    ))
    g, _ = generate(GraphSpec(components=(ComponentSpec(head="complete", tree=tree),)), seed=1)
    verdict = check_amenable(g)
    assert verdict.amenable and len(verdict.components) == 1
    comp = verdict.components[0]
    report = component_report(verdict.cell_graph, comp)
    assert report.dist == 3  # c=2 gives 0, c=3 gives 324
    assert report.fix == 50  # 5 * leg fix 10


def test_dist_number_closed_forms(figure1):
    assert dist_number(named("kn", 5)) == 5
    assert dist_number(named("pn", 4)) == 2
    assert dist_number(figure1) == 3


def test_fix_number_closed_forms(figure1):
    assert fix_number(named("kn", 5)) == 4
    assert fix_number(named("pn", 4)) == 1
    assert fix_number(figure1) == 4


def test_not_amenable_raises():
    for g in (named("cn", 6), named("kab", 3, 3)):
        with pytest.raises(NotAmenable) as exc_info:
            dist_number(g)
        assert not exc_info.value.verdict.amenable
        with pytest.raises(NotAmenable):
            fix_number(g)


def test_unsupported_root_kind_is_loud():
    from graphsym import build_cell_graph, stable_partition
    from graphsym.cells import Component
    from graphsym.errors import UnsupportedRootKind

    g = named("kab", 3, 3)  # single OTHER cell; never reaches here via check_amenable
    cg = build_cell_graph(g, stable_partition(g))
    comp = Component(cells=(0,), root=0, parent={}, children={0: ()},
                     multiplicity={}, het_cells=(0,))
    with pytest.raises(UnsupportedRootKind):
        head_of_component(cg, comp)


def test_degenerate_sizes():
    from graphsym import from_edge_list

    assert dist_number(from_edge_list(0, [])) == 0
    assert fix_number(from_edge_list(0, [])) == 0
    assert dist_number(from_edge_list(1, [])) == 1
    assert fix_number(from_edge_list(1, [])) == 0


def test_report_structure(figure1):
    report = analyze(figure1)
    assert report.dist_number == 3 and report.fix_number == 4
    assert [r.cells for r in report.components] == [(0,), (1, 3), (2,)]
    assert [r.dist for r in report.components] == [1, 2, 3]
    assert [r.fix for r in report.components] == [0, 2, 2]
    payload = report.to_json()
    assert payload["dist_number"] == 3
    assert payload["components"][2]["head"] == {"shape": "co_matching", "size": 4}


@settings(max_examples=60, deadline=None)
@given(cell_trees())
def test_leg_count_monotone_in_c(tree):
    values = [oracle.leg_dist_count_exact(tree, c) for c in range(1, 7)]
    assert all(a <= b for a, b in zip(values, values[1:]))


@settings(max_examples=120, deadline=None)
@given(cell_trees(), st.integers(1, 50), st.integers(1, 6))
def test_saturation_preserves_threshold(tree, d_star, c):
    cap = d_star + tree.total_size + 1
    sat = leg_dist_count(tree, c, cap=cap)
    exact = oracle.leg_dist_count_exact(tree, c)
    assert (sat.value >= d_star) == (exact >= d_star)
    if not sat.saturated:
        assert sat.value == exact
    else:
        assert exact >= cap


@settings(max_examples=30, deadline=None)
@given(graphs(max_n=7))
def test_complement_pairs_agree(g):
    h = complement(g)
    if check_amenable(g).amenable and check_amenable(h).amenable:
        assert dist_number(g) == dist_number(h)
        assert fix_number(g) == fix_number(h)


@settings(max_examples=30, deadline=None)
@given(st.integers(0, 500))
def test_dist_at_most_fix_plus_one(seed):
    g, _ = random_amenable(12, seed=seed)
    assert dist_number(g) <= fix_number(g) + 1
