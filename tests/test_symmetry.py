from __future__ import annotations

import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from graphsym import (
    CellGraph,
    CellKind,
    Component,
    Partition,
    analyze,
    check_amenable,
    component_report,
    dist_number,
    fix_number,
    from_edge_list,
    head,
    leg_dist_count,
    leg_fix,
    min_c_binom,
    oracle,
)
from graphsym import symmetry
from graphsym.errors import BadCap, InternalError, NotAmenable
from graphsym.generators import generate, named, random_amenable

from .conftest import BRANCHED_SPEC, cell_tree, complement, graphs

LEG_REGRESSION_NEST = (5, [(10, [(30, []), (20, [])]), (15, []), (5, [(15, [])])])


@st.composite
def cell_trees(draw, max_depth: int = 3, max_root: int = 3):
    def node(depth: int, size: int) -> tuple:
        kids = []
        if depth < max_depth:
            for _ in range(draw(st.integers(0, 2))):
                kids.append(node(depth + 1, size * draw(st.integers(1, 3))))
        return (size, kids)

    return cell_tree(node(0, draw(st.integers(1, max_root))))


def test_min_c_binom_examples():
    assert min_c_binom(1) == 2
    assert min_c_binom(3) == 3
    assert min_c_binom(7) == 5  # C(4,2)=6 < 7 <= C(5,2)=10


def test_min_c_binom_is_tight():
    for r in range(1, 10**5):
        c = min_c_binom(r)
        assert c * (c - 1) // 2 >= r
        assert (c - 1) * (c - 2) // 2 < r


def test_head_invariants():
    assert head(CellKind.COMPLETE, 5) == (CellKind.COMPLETE, 5, 4)
    assert head(CellKind.COMPLETE, 1) == (CellKind.COMPLETE, 1, 0)
    assert head(CellKind.FIVE_CYCLE, 5) == (CellKind.FIVE_CYCLE, 3, 2)
    assert head(CellKind.CO_MATCHING, 4) == (CellKind.CO_MATCHING, 3, 2)
    assert head(CellKind.CO_MATCHING, 14) == (CellKind.CO_MATCHING, 5, 7)


def test_head_of_component(figure1):
    verdict = check_amenable(figure1)
    cg = verdict.cell_graph
    comps = verdict.components  # cells 1 and 3, then cell 2
    assert component_report(cg, comps[1]).head == (CellKind.CO_MATCHING, 4)
    assert component_report(cg, comps[0]).head == (CellKind.COMPLETE, 2)

    v5 = check_amenable(named("kn", 5))
    assert component_report(v5.cell_graph, v5.components[0]).head == (CellKind.COMPLETE, 5)


def _head_graphs():
    """(graph, shape) for each head graph the table names: K_k, C5, and rK2
    and its complement, the co-matching."""
    for k in range(1, 7):
        yield named("kn", k), CellKind.COMPLETE
    yield named("cn", 5), CellKind.FIVE_CYCLE
    for r in (2, 3, 4):
        yield named("rk2", r), CellKind.CO_MATCHING
        yield complement(named("rk2", r)), CellKind.CO_MATCHING


def test_head_table_matches_the_definitions():
    """head's D and Fix equal the brute-force numbers of the head graph."""
    for g, shape in _head_graphs():
        cg = check_amenable(g).cell_graph
        assert cg.cell_sizes == (g.n,), g  # the head is the whole graph
        assert head(cg.cell_kinds[0], g.n) == (
            shape, oracle.dist_number_bf(g), oracle.fix_number_bf(g)), g


def test_leg_count_branched_example():
    sizes, comp = cell_tree(LEG_REGRESSION_NEST)
    assert oracle.leg_dist_count_exact(sizes, comp, 3) == 324
    cap = 10**6
    value = leg_dist_count(sizes, comp, 3, cap)
    assert value == 324 and value != cap  # exact, not saturated
    assert oracle.leg_dist_count_exact(sizes, comp, 2) == 0


def test_leg_count_single_cell():
    sizes, comp = cell_tree((4, []))
    for c in (1, 2, 5):
        assert oracle.leg_dist_count_exact(sizes, comp, c) == c
        assert leg_dist_count(sizes, comp, c, 100) == min(c, 100)


def test_leg_count_bad_cap():
    sizes, comp = cell_tree(LEG_REGRESSION_NEST)
    with pytest.raises(BadCap):
        leg_dist_count(sizes, comp, 3, 50)  # cap must exceed the vertex count
    with pytest.raises(ValueError):
        leg_dist_count(sizes, comp, 0, 10**6)


def test_leg_fix_examples():
    assert leg_fix(cell_tree(LEG_REGRESSION_NEST)[1]) == 10
    assert leg_fix(cell_tree((3, []))[1]) == 0
    assert leg_fix(cell_tree((1, [(2, [])]))[1]) == 1


def test_component_dist_examples(figure1):
    verdict = check_amenable(figure1)
    cg = verdict.cell_graph
    assert component_report(cg, verdict.components[0]).dist == 2  # star pair, head K2
    assert component_report(cg, verdict.components[1]).dist == 3  # matching cell

    v5 = check_amenable(named("kn", 5))
    assert component_report(v5.cell_graph, v5.components[0]).dist == 5


def test_component_fix_examples(figure1):
    verdict = check_amenable(figure1)
    cg = verdict.cell_graph
    assert component_report(cg, verdict.components[0]).fix == 2  # 2 * leg fix 1
    assert component_report(cg, verdict.components[1]).fix == 2  # co-matching head, r=2

    v5 = check_amenable(named("kn", 5))
    assert component_report(v5.cell_graph, v5.components[0]).fix == 4


def test_branched_component_values():
    g, _ = generate(BRANCHED_SPEC, seed=1)
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
    from graphsym.errors import InternalError

    g = named("kab", 3, 3)  # single OTHER cell; never reaches here via check_amenable
    cg = build_cell_graph(g, stable_partition(g))
    comp = Component(cells=(0,), root=0, order=(0,), parent={},
                     multiplicity={}, heterogeneous=True)
    with pytest.raises(InternalError, match="unsupported kind"):
        component_report(cg, comp)


def test_head_of_component_checks_the_root_size(figure1):
    verdict = check_amenable(figure1)
    cg, comp = verdict.cell_graph, verdict.components[1]  # cell 2, of 4 vertices
    kinds = list(cg.cell_kinds)
    kinds[comp.root] = CellKind.FIVE_CYCLE
    with pytest.raises(InternalError, match="five-cycle head of size 4"):
        component_report(cg._replace(cell_kinds=tuple(kinds)), comp)
    verdict = check_amenable(named("kn", 3))  # one cell of 3 vertices
    cg, (comp,) = verdict.cell_graph, verdict.components
    with pytest.raises(InternalError, match="co-matching head of size 3"):
        component_report(cg._replace(cell_kinds=(CellKind.CO_MATCHING,)), comp)
    with pytest.raises(InternalError, match="empty complete head"):
        head(CellKind.EMPTY, 0)


def test_component_report_rejects_a_bad_edge(figure1):
    verdict = check_amenable(figure1)
    comp = verdict.components[0]  # cells 1 and 3, a star pair
    (child,) = comp.order[1:]
    bad = Component(
        cells=comp.cells, root=comp.root, order=comp.order, parent=comp.parent,
        multiplicity={}, findings=(
            ("C", f"cell sizes decrease along {comp.root} -> {child}", (comp.root, child)),),
    )
    with pytest.raises(InternalError):
        component_report(verdict.cell_graph, bad)
    # a record without findings that is still no tree
    cyclic = Component(cells=comp.cells, root=comp.root, order=(), parent={},
                       multiplicity={})
    with pytest.raises(InternalError, match="fails condition C: not a tree"):
        component_report(verdict.cell_graph, cyclic)


def test_component_report_rejects_a_condition_d_failure(figure1):
    verdict = check_amenable(figure1)
    comp = verdict.components[0]  # cells 1 and 3, a star pair with no heterogeneous cell
    (child,) = comp.order[1:]
    for het, reason in (((child,), "heterogeneous cell is not of minimum size"),
                        ((comp.root, child), "more than one heterogeneous cell")):
        failing = comp._replace(heterogeneous=True, findings=(("D", reason, het),))
        with pytest.raises(InternalError, match=f"fails condition D: {reason}"):
            component_report(verdict.cell_graph, failing)


def test_degenerate_sizes():
    from graphsym import from_edge_list

    assert dist_number(from_edge_list(0, [])) == 0
    assert fix_number(from_edge_list(0, [])) == 0
    assert dist_number(from_edge_list(1, [])) == 1
    assert fix_number(from_edge_list(1, [])) == 0


def test_report_structure(figure1):
    report = analyze(figure1)
    assert report.dist_number == 3 and report.fix_number == 4
    assert [r.cells for r in report.components] == [(1, 3), (2,)]  # singleton cell 0 has none
    assert [r.dist for r in report.components] == [2, 3]
    assert [r.fix for r in report.components] == [2, 2]
    payload = report.to_json()
    assert payload["dist_number"] == 3
    assert [(r["cells"], r["dist"], r["fix"]) for r in payload["components"]] == [
        ([0], 1, 0), ([1, 3], 2, 2), ([2], 3, 2)]
    assert payload["components"][2]["head"] == {"shape": "co_matching", "size": 4}


@settings(max_examples=60, deadline=None)
@given(cell_trees())
def test_leg_count_monotone_in_c(tree):
    sizes, comp = tree
    values = [oracle.leg_dist_count_exact(sizes, comp, c) for c in range(1, 7)]
    assert all(a <= b for a, b in zip(values, values[1:]))


@settings(max_examples=120, deadline=None)
@given(cell_trees(), st.integers(1, 50), st.integers(1, 6))
def test_saturation_preserves_threshold(tree, d_star, c):
    sizes, comp = tree
    cap = d_star + sum(sizes) + 1
    value = leg_dist_count(sizes, comp, c, cap)
    exact = oracle.leg_dist_count_exact(sizes, comp, c)
    assert (value >= d_star) == (exact >= d_star)
    if value == cap:  # saturated
        assert exact >= cap
    else:
        assert value == exact


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


def test_analyze_reports_each_shape_once(monkeypatch):
    rng = random.Random(5)
    g = from_edge_list(400, [(v, rng.randrange(v)) for v in range(1, 400)])
    verdict = check_amenable(g)
    cg = verdict.cell_graph

    def shape(comp):
        children = {x: [y for y, p in comp.parent.items() if p == x] for x in comp.cells}

        def canon(x):
            return (cg.cell_sizes[x], tuple(sorted(canon(y) for y in children[x])))

        return cg.cell_kinds[comp.root], canon(comp.root)

    # a singleton cell has no record, so no report is computed: it adds D = 1, Fix = 0
    computed = verdict.components
    assert all(cg.cell_sizes[comp.root] > 1 for comp in computed)
    shapes = {shape(comp) for comp in computed}
    assert len(shapes) < len(computed) < len(verdict.to_json()["components"])
    calls = []

    def counted(cg_, comp):
        calls.append(comp.root)
        return component_report(cg_, comp)

    monkeypatch.setattr(symmetry, "component_report", counted)
    report = analyze(g, verdict=verdict)
    assert len(calls) == len(shapes)
    assert list(report.components) == [component_report(cg, c) for c in verdict.components]


def _other_walks(comp) -> list[tuple[int, ...]]:
    """Two more parent-first orders of a component's tree: breadth-first
    with siblings reversed, and depth-first preorder."""
    children: dict[int, list[int]] = {x: [] for x in comp.cells}
    for y in sorted(comp.parent):
        children[comp.parent[y]].append(y)
    backwards = [comp.root]
    for x in backwards:  # grows as the walk goes
        backwards.extend(reversed(children[x]))
    preorder, stack = [], [comp.root]
    while stack:
        x = stack.pop()
        preorder.append(x)
        stack.extend(reversed(children[x]))
    return [tuple(backwards), tuple(preorder)]


def test_leg_recursions_ignore_the_walk_order():
    # (nest, leg_fix worked by hand from the class recursion, distinct walks)
    cases = [
        (LEG_REGRESSION_NEST, 10, 3),
        ((1, [(2, [(4, []), (6, [])]), (3, [(3, [])])]), 8, 3),
        ((2, [(2, [(4, [(4, [])])])]), 1, 1),  # a path has one walk
    ]
    ids: dict = {}
    keys = []
    for nest, fix, walks in cases:
        sizes, comp = cell_tree(nest)
        n = sum(sizes)
        cg = CellGraph(
            graph=from_edge_list(n, []), partition=Partition.from_colors([0] * n), cell_sizes=sizes,
            nonsingleton=tuple(range(len(sizes))),
            cell_kinds=(CellKind.COMPLETE,) + (CellKind.EMPTY,) * (len(sizes) - 1),
            pair_kinds={},
        )
        cap = 2 * n + 1
        key = symmetry._shape_key(cg, comp, ids)
        counts = [leg_dist_count(sizes, comp, c, cap) for c in range(1, 5)]
        assert counts == [min(oracle.leg_dist_count_exact(sizes, comp, c), cap)
                          for c in range(1, 5)]
        assert leg_fix(comp) == fix
        assert len({comp.order, *_other_walks(comp)}) == walks
        for order in _other_walks(comp):
            other = Component(cells=comp.cells, root=comp.root, order=order,
                              parent=comp.parent, multiplicity=comp.multiplicity)
            assert symmetry._shape_key(cg, other, ids) == key
            assert [leg_dist_count(sizes, other, c, cap) for c in range(1, 5)] == counts
            assert leg_fix(other) == fix
        keys.append(key)
    assert len(set(keys)) == len(cases)


def test_shape_key_of_a_deep_path_is_flat():
    # A path's stable partition is one component of n/2 cells; build one of
    # 200k cells directly, without refinement.
    n = 200_000
    comp = Component(
        cells=tuple(range(n)), root=0, order=tuple(range(n)),
        parent={x + 1: x for x in range(n - 1)},
        multiplicity={x: 1 for x in range(1, n)},
    )
    cg = CellGraph(
        graph=from_edge_list(2 * n, []), partition=Partition.from_colors([0] * (2 * n)),
        cell_sizes=(2,) * n, nonsingleton=tuple(range(n)),
        cell_kinds=(CellKind.COMPLETE,) + (CellKind.EMPTY,) * (n - 1), pair_kinds={},
    )
    ids: dict = {}
    key = symmetry._shape_key(cg, comp, ids)
    # n cell labels, then the key interns the root's kind with the root label
    assert key == n and ids[("complete", n - 1)] == n and len(ids) == n + 1
    assert {key: 1}[symmetry._shape_key(cg, comp, ids)] == 1 and len(ids) == n + 1
    # the leg recursions walk the same path without recursing either
    assert leg_fix(comp) == 0
    cap = 2 * n + 2
    assert leg_dist_count(cg.cell_sizes, comp, 1, cap) == 1
    assert leg_dist_count(cg.cell_sizes, comp, 2, cap) == cap


def test_analyze_hashes_no_cell_kind(monkeypatch):
    # hundreds of components of many shapes: a memo keyed on a CellKind
    # would hash one per component through Enum.__hash__
    rng = random.Random(11)
    g = from_edge_list(3000, [(v, rng.randrange(v)) for v in range(1, 3000)])

    def refuse(self):
        raise AssertionError(f"{self} hashed")

    monkeypatch.setattr(CellKind, "__hash__", refuse)
    report = analyze(g)
    assert sum(1 for r in report.components if len(r.cells) > 1) > 50
    assert report.to_json()["fix_number"] == report.fix_number > 0


def test_long_path():
    report = analyze(named("pn", 20000))
    assert (report.dist_number, report.fix_number) == (2, 1)
