"""Singleton cells are kept in bulk: the cell graph reads and classifies only
cells of two or more vertices.  These tests check the ``cells`` JSON rows
and pair kinds against degree constants counted from the edges, that no
record is built for a singleton cell, and that verdicts, failure indices
and JSON read as if every singleton had one."""

from __future__ import annotations

import json
import random
from collections import Counter

import pytest
from hypothesis import given, settings

from graphsym import (
    CellKind,
    PairKind,
    analyze,
    anisotropic_components,
    build_cell_graph,
    check_amenable,
    from_edge_list,
    stable_partition,
)
from graphsym import cells as cells_module
from graphsym import symmetry as symmetry_module
from graphsym.cells import _lone_component, _lone_row, component_rows
from graphsym.cli import run
from graphsym.formats import format_edge_list
from graphsym.generators import named
from graphsym.symmetry import _singleton_row, component_report

from .conftest import disjoint_union, every_component, graphs, near_discrete
from .test_pinned_outputs import _atlas, _random_amenable

NEAR_DISCRETE = near_discrete()

# the smallest asymmetric tree: legs of 1, 2 and 3 edges from vertex 0
ASYMMETRIC_TREE = [(0, 1), (0, 2), (2, 3), (0, 4), (4, 5), (5, 6)]


def _reference_degrees(g, p) -> dict[tuple[int, int], int]:
    """(i, j) -> d[i, j], the edges between cells i and j over |i| (an edge
    inside cell i counted twice), for each ordered pair with an edge, i == j
    included; every quotient exact by double counting."""
    edges: Counter = Counter()
    for u, v in g.edges():
        a, b = p.cell_of[u], p.cell_of[v]
        edges[(a, b)] += 1
        edges[(b, a)] += 1
    assert all(count % len(p.cells[i]) == 0 for (i, _), count in edges.items())
    return {(i, j): count // len(p.cells[i]) for (i, j), count in edges.items()}


def _reference_pair(sizes, counts, i: int, j: int) -> tuple[PairKind, int | None]:
    """Kind and star centre of pair i < j, from the degree into the smaller cell."""
    small, large = (j, i) if sizes[j] < sizes[i] else (i, j)
    into_small = counts.get((large, small), 0)
    if into_small == 0:
        return PairKind.ISO_EMPTY, None
    if into_small == sizes[small]:
        return PairKind.ISO_COMPLETE, None
    if into_small == 1:
        return PairKind.ANISO_STARS, small
    if into_small == sizes[small] - 1:
        return PairKind.ANISO_CO_STARS, small
    return PairKind.OTHER, None


def _check_against_adjacency(g) -> None:
    p = stable_partition(g)
    cg = build_cell_graph(g, p)
    sizes = cg.cell_sizes
    degrees = _reference_degrees(g, p)
    rows = cg.to_json()["pairs"]
    assert [(q["i"], q["j"]) for q in rows] == sorted((i, j) for i, j in degrees if i < j)
    for q in rows:
        i, j = q["i"], q["j"]
        kind, centre = _reference_pair(sizes, degrees, i, j)
        assert (q["d_ij"], q["d_ji"], q["kind"], q.get("centers")) == (
            degrees[(i, j)], degrees[(j, i)], kind.value, centre)
        if sizes[i] > 1 and sizes[j] > 1:
            assert cg.pair_kinds[(i, j)] is kind
    assert set(cg.pair_kinds) == {
        (i, j) for i, j in degrees if i < j and sizes[i] > 1 and sizes[j] > 1}
    for i, size in enumerate(sizes):
        assert cg.cell_kinds[i] is cells_module._classify_cell(size, degrees.get((i, i), 0))
        if size == 1:
            assert cg.cell_kinds[i] is CellKind.EMPTY


@settings(max_examples=80, deadline=None)
@given(graphs(max_n=9))
def test_on_demand_answers_match_adjacency(g):
    _check_against_adjacency(g)


@pytest.mark.parametrize("index", range(len(NEAR_DISCRETE)))
def test_on_demand_answers_match_adjacency_near_discrete(index):
    _check_against_adjacency(NEAR_DISCRETE[index])


def test_check_amenable_classifies_only_nonsingleton_pairs(monkeypatch):
    g = NEAR_DISCRETE[3]  # a random recursive tree: about 220 of 1230 cells nonsingleton
    p = stable_partition(g)
    sizes = [len(c) for c in p.cells]
    edge_pairs = {(min(a, b), max(a, b)) for a, b in (
        (p.cell_of[u], p.cell_of[v]) for u, v in g.edges()) if a != b}
    nonsingleton = {(i, j) for i, j in edge_pairs if sizes[i] > 1 and sizes[j] > 1}
    pairs, cells = [], []
    classify_pair, classify_cell = cells_module._classify_pair, cells_module._classify_cell

    def counted_pair(s_small, into_small):
        pairs.append((s_small, into_small))
        return classify_pair(s_small, into_small)

    def counted_cell(size, dii):
        cells.append(size)
        return classify_cell(size, dii)

    monkeypatch.setattr(cells_module, "_classify_pair", counted_pair)
    monkeypatch.setattr(cells_module, "_classify_cell", counted_cell)
    verdict = check_amenable(g)
    assert verdict.amenable
    assert len(pairs) == len(nonsingleton) == len(verdict.cell_graph.pair_kinds)
    assert set(verdict.cell_graph.pair_kinds) == nonsingleton
    assert len(cells) == sum(1 for size in sizes if size > 1)
    assert 10 * len(pairs) < len(edge_pairs)


def _union(*parts):
    g = from_edge_list(0, [])
    for part in parts:
        g = disjoint_union(g, part)
    return g


def _condition_c_graph():
    # star chain whose sizes go 3 -> 6 -> 3 (as in test_amenability)
    edges = [(0, 3), (0, 4), (1, 5), (1, 6), (2, 7), (2, 8)]
    for c, excl in {9: (3, 4), 10: (5, 6), 11: (7, 8)}.items():
        edges += [(c, b) for b in range(3, 9) if b not in excl]
    return from_edge_list(12, edges)


def _condition_d_graph():
    # a matching cell of size 4 off the minimum size 2 (as in test_cells)
    edges = [(2, 3), (4, 5), (0, 2), (0, 3), (1, 4), (1, 5)]
    for i, m in enumerate((2, 3, 4, 5)):
        edges += [(m, 6 + 2 * i), (m, 7 + 2 * i)]
    return from_edge_list(14, edges)


@pytest.mark.parametrize("condition, failing, reason", [
    ("C", _condition_c_graph, "cell sizes decrease along 9 -> 10"),
    ("D", _condition_d_graph, "heterogeneous cell is not of minimum size"),
])
def test_failure_index_counts_singleton_components(condition, failing, reason):
    # cell 0 is a triangle, cells 1-7 the singletons of an asymmetric tree,
    # and the failing component starts at cell 8
    g = _union(named("kn", 3), from_edge_list(7, ASYMMETRIC_TREE), failing())
    verdict = check_amenable(g)
    assert verdict.failure.to_json() == {
        "condition": condition, "component": 8, "reason": reason}
    assert verdict.components is None
    cg = build_cell_graph(g, stable_partition(g))
    rows = component_rows(cg.cell_sizes, anisotropic_components(cg))
    assert [r["cells"] for r in rows[:8]] == [[c] for c in range(8)]
    failing = rows[verdict.failure.component]
    assert (condition, reason) in [(f["condition"], f["reason"]) for f in failing["findings"]]


@pytest.mark.parametrize("n, edges, dist, fix", [
    (0, [], 0, 0), (1, [], 1, 0), (7, ASYMMETRIC_TREE, 1, 0),
])
def test_all_singleton_graphs(tmp_path, capsys, n, edges, dist, fix):
    g = from_edge_list(n, edges)
    report = analyze(g)
    assert (report.dist_number, report.fix_number) == (dist, fix)
    assert report.components == ()
    assert [(r["cells"], r["dist"], r["fix"]) for r in report.to_json()["components"]] == [
        ([c], 1, 0) for c in range(n)]
    path = tmp_path / "g.txt"
    path.write_text(f"{n} {len(edges)}\n" + "".join(f"{u} {v}\n" for u, v in edges))
    assert run(["--json", "cells", str(path)]) == 0
    out = capsys.readouterr().out
    expected = {
        "cells": [{"id": c, "kind": "empty", "size": 1, "vertices": [c]} for c in range(n)],
        "components": [{"cells": [c], "heterogeneous": False, "multiplicities": {},
                        "parents": {}, "root": c} for c in range(n)],
        "pairs": [{"d_ij": 1, "d_ji": 1, "i": u, "j": v, "kind": "iso_complete"}
                  for u, v in sorted(edges)],
    }
    assert out == json.dumps(expected, sort_keys=True) + "\n"
    if n == 0:
        assert out == '{"cells": [], "components": [], "pairs": []}\n'


def _recursive_tree(n: int, seed: int):
    rng = random.Random(seed)
    return from_edge_list(n, [(v, rng.randrange(v)) for v in range(1, n)])


def _check_rows(g) -> None:
    """Every JSON component list holds the rows of all components in turn,
    singleton cells included, and the hand-written singleton rows equal the
    rows of records computed for them."""
    cg = build_cell_graph(g, stable_partition(g))
    records = anisotropic_components(cg)
    every = every_component(cg, records)
    assert component_rows(cg.cell_sizes, records) == [c.to_json() for c in every]
    for c in (c for c, size in enumerate(cg.cell_sizes) if size == 1):
        assert _lone_row(c) == _lone_component(c).to_json()
        assert _singleton_row(c) == component_report(cg, _lone_component(c)).to_json()
    verdict = check_amenable(g)
    if verdict.amenable:
        assert verdict.components == records
        assert verdict.to_json()["components"] == [c.to_json() for c in every]
        assert analyze(g, verdict=verdict).to_json()["components"] == [
            component_report(cg, c).to_json() for c in every]


@pytest.mark.parametrize("family", ["atlas", "random_amenable", "near_discrete", "tree_2000"])
def test_component_json_is_each_component_in_turn(family):
    draw = {"atlas": _atlas, "random_amenable": _random_amenable, "near_discrete": near_discrete,
            "tree_2000": lambda: [_recursive_tree(2000, 7)]}[family]
    for g in draw():
        _check_rows(g)


def test_component_json_makes_no_record_per_singleton_cell(tmp_path, capsys, monkeypatch):
    g = NEAR_DISCRETE[3]  # a random recursive tree: about 1010 of 1230 cells are singletons
    verdict = check_amenable(g)
    expected = verdict.to_json()
    expected_report = analyze(g, verdict=verdict).to_json()
    sizes = verdict.cell_graph.cell_sizes
    lone, report_of = _lone_component, component_report

    def no_singleton_component(cell, *args):
        if sizes[cell] == 1:
            raise RuntimeError(f"a record for singleton cell {cell}")
        return lone(cell, *args)

    def no_singleton_report(cg, comp):
        if sizes[comp.root] == 1:
            raise RuntimeError(f"a report for singleton cell {comp.root}")
        return report_of(cg, comp)

    monkeypatch.setattr(cells_module, "_lone_component", no_singleton_component)
    monkeypatch.setattr(symmetry_module, "component_report", no_singleton_report)
    verdict = check_amenable(g)
    assert verdict.to_json() == expected
    assert all(sizes[c] > 1 for comp in verdict.components for c in comp.cells)
    report = analyze(g, verdict=verdict)
    assert report.to_json() == expected_report
    assert len(report.components) == len(verdict.components) < len(expected["components"])
    path = tmp_path / "g.txt"
    path.write_text(format_edge_list(g))
    assert run(["--json", "cells", str(path)]) == 0
    assert json.loads(capsys.readouterr().out)["components"] == expected["components"]
    with pytest.raises(RuntimeError, match="a record for singleton cell"):
        cells_module._lone_component(sizes.index(1))  # the patch was in force
