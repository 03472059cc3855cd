"""Singleton cells are kept in bulk: the cell graph reads and classifies only
cells of two or more vertices, and answers for singleton cells from the
graph.  These tests check those answers against counts taken directly from
the adjacency, and that verdicts, failure indices and JSON read as if every
singleton had its own record."""

from __future__ import annotations

import json
import random

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
from graphsym.cli import run
from graphsym.formats import format_edge_list
from graphsym.generators import named

from .conftest import disjoint_union, graphs, near_discrete
from .test_pinned_outputs import _atlas, _random_amenable

NEAR_DISCRETE = near_discrete()

# the smallest asymmetric tree: legs of 1, 2 and 3 edges from vertex 0
ASYMMETRIC_TREE = [(0, 1), (0, 2), (2, 3), (0, 4), (4, 5), (5, 6)]


def _reference_counts(g, p) -> dict[tuple[int, int], int]:
    """(i, j) -> neighbours in cell j of the lowest vertex of cell i, for j
    with at least one; i == j included."""
    out: dict[tuple[int, int], int] = {}
    for i, cell in enumerate(p.cells):
        for u in g.adjacency[cell[0]]:
            key = (i, p.cell_of[u])
            out[key] = out.get(key, 0) + 1
    return out


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
    counts = _reference_counts(g, p)
    for (i, j), count in counts.items():
        assert cg.degree_constant(i, j) == count
        if i == j:
            continue
        assert cg.degree_constant(j, i) == counts[(j, i)]
        kind, centre = _reference_pair(sizes, counts, min(i, j), max(i, j))
        got = cg.pair_kind(i, j)
        stars = got in (PairKind.ANISO_STARS, PairKind.ANISO_CO_STARS)
        assert (got, cg.center_cell(i, j) if stars else None) == (kind, centre)
        assert (cg.pair_kind(j, i), cg.center_cell(j, i)) == (got, cg.center_cell(i, j))
    for i, size in enumerate(sizes):
        if size == 1:
            assert cg.cell_kinds[i] is CellKind.EMPTY and cg.degree_constant(i, i) == 0
    assert [(q["i"], q["j"]) for q in cg.to_json()["pairs"]] == sorted(
        (i, j) for i, j in counts if i < j)


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
    comps = anisotropic_components(build_cell_graph(g, stable_partition(g)))
    assert [c.cells for c in comps[:8]] == [(c,) for c in range(8)]
    assert any(cond == condition for cond, _r, _c in comps[8].findings())


@pytest.mark.parametrize("n, edges, dist, fix", [
    (0, [], 0, 0), (1, [], 1, 0), (7, ASYMMETRIC_TREE, 1, 0),
])
def test_all_singleton_graphs(tmp_path, capsys, n, edges, dist, fix):
    g = from_edge_list(n, edges)
    report = analyze(g)
    assert (report.dist_number, report.fix_number) == (dist, fix)
    assert [(r.cells, r.dist, r.fix) for r in report.components] == [
        ((c,), 1, 0) for c in range(n)]
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


def _check_merged(comps, lone) -> None:
    """comps holds its records and lone(cell) for each singleton cell, sorted
    by lowest cell id, alike through len, indexing and iteration; and its
    JSON is that of each component in turn."""
    sizes = comps.cg.cell_sizes
    merged = sorted([*comps.records, *(lone(i) for i, size in enumerate(sizes) if size == 1)],
                    key=lambda c: c.cells[0])
    assert list(comps) == [comps[i] for i in range(len(comps))] == merged
    assert list(comps[1:-1]) == merged[1:-1]
    assert comps.to_json() == [c.to_json() for c in merged]


@pytest.mark.parametrize("family", ["atlas", "random_amenable", "near_discrete", "tree_2000"])
def test_component_json_is_each_component_in_turn(family):
    draw = {"atlas": _atlas, "random_amenable": _random_amenable, "near_discrete": near_discrete,
            "tree_2000": lambda: [_recursive_tree(2000, 7)]}[family]
    for g in draw():
        _check_merged(anisotropic_components(build_cell_graph(g, stable_partition(g))),
                      cells_module._lone_component)
        verdict = check_amenable(g)
        if verdict.amenable:
            _check_merged(verdict.components, cells_module._lone_component)
            _check_merged(analyze(g, verdict=verdict).components, symmetry_module._singleton_report)


def test_component_json_makes_no_record_per_singleton_cell(tmp_path, capsys, monkeypatch):
    g = NEAR_DISCRETE[3]  # a random recursive tree: about 1010 of 1230 cells are singletons
    verdict = check_amenable(g)
    expected = [c.to_json() for c in verdict.components]
    expected_report = analyze(g, verdict=verdict).to_json()
    sizes = verdict.cell_graph.cell_sizes
    lone = cells_module._lone_component

    def no_singleton_component(cell, *args):
        if sizes[cell] == 1:
            raise RuntimeError(f"a record for singleton cell {cell}")
        return lone(cell, *args)

    def no_singleton_report(cell):
        raise RuntimeError(f"a report for singleton cell {cell}")

    monkeypatch.setattr(cells_module, "_lone_component", no_singleton_component)
    monkeypatch.setattr(symmetry_module, "_singleton_report", no_singleton_report)
    verdict = check_amenable(g)
    assert verdict.to_json() == {"amenable": True, "components": expected}
    report = analyze(g, verdict=verdict)
    assert report.to_json() == expected_report
    path = tmp_path / "g.txt"
    path.write_text(format_edge_list(g))
    assert run(["--json", "cells", str(path)]) == 0
    assert json.loads(capsys.readouterr().out)["components"] == expected
    with pytest.raises(RuntimeError, match="a record for singleton cell"):
        list(verdict.components)  # reading the records still makes them
    with pytest.raises(RuntimeError, match="a report for singleton cell"):
        len(report.components)
