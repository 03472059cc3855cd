from __future__ import annotations

import importlib

import pytest

import graphsym


def test_every_exported_name_resolves_and_stays():
    for name in graphsym.__all__:
        value = getattr(graphsym, name)
        assert vars(graphsym)[name] is value
        if name not in ("errors", "generators", "oracle"):
            assert getattr(importlib.import_module(value.__module__), name) is value


def test_star_import_matches_all():
    namespace: dict = {}
    exec("from graphsym import *", namespace)
    assert set(graphsym.__all__) <= set(namespace)


def test_unknown_name_raises_attribute_error():
    with pytest.raises(AttributeError):
        graphsym.no_such_name


def test_the_export_list():
    assert set(graphsym.__all__) == {
        "AmenabilityVerdict", "IsoVerdict", "amenable_iso", "check_amenable",
        "CellGraph", "CellKind", "Component", "PairKind", "anisotropic_components",
        "build_cell_graph",
        "Graph", "from_edge_list", "relabel",
        "decode_graph6", "encode_graph6", "format_edge_list", "parse_edge_list",
        "CrOutcome", "CrVerdict", "Partition", "cr_iso_test", "is_equitable", "refine",
        "stable_partition",
        "HeadKind", "HeadShape", "SymmetryReport", "analyze", "component_report",
        "dist_number", "fix_number", "head_invariants", "head_of_component",
        "leg_dist_count", "leg_fix", "min_c_binom",
        "errors", "generators", "oracle",
    }


def test_the_calls_the_benchmark_makes():
    """The shapes perfbench/run.py relies on."""
    text = graphsym.format_edge_list(graphsym.generators.named("figure1"))
    g = graphsym.parse_edge_list(text)[0]
    assert isinstance(g, graphsym.Graph)
    assert graphsym.cr_iso_test(g, g).outcome is graphsym.CrOutcome.CR_EQUIVALENT
    cg = graphsym.build_cell_graph(g, graphsym.stable_partition(g))
    assert isinstance(cg, graphsym.CellGraph)
    assert len(graphsym.anisotropic_components(cg)) == 3
    verdict = graphsym.check_amenable(g)
    assert verdict.amenable and verdict.cell_graph.partition.cells == cg.partition.cells
    report = graphsym.analyze(g, verdict=verdict)
    assert (report.dist_number, report.fix_number) == (3, 4)
    assert graphsym.amenable_iso(g, g).value == "Isomorphic"
    assert issubclass(graphsym.errors.NotAmenable, graphsym.errors.GraphSymError)
