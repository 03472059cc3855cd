from __future__ import annotations

import ast
import importlib
from pathlib import Path

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
        "SymmetryReport", "analyze", "component_report", "dist_number", "fix_number",
        "head", "leg_dist_count", "leg_fix", "min_c_binom",
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
    assert len(graphsym.anisotropic_components(cg)) == 2  # no record for singleton cell 0
    verdict = graphsym.check_amenable(g)
    assert verdict.amenable and verdict.cell_graph.partition.cells == cg.partition.cells
    report = graphsym.analyze(g, verdict=verdict)
    assert (report.dist_number, report.fix_number) == (3, 4)
    assert graphsym.amenable_iso(g, g).value == "Isomorphic"
    assert issubclass(graphsym.errors.NotAmenable, graphsym.errors.GraphSymError)


def test_readme_quick_start_runs(capsys):
    # the first python block of README.md, run as written
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text(encoding="utf-8")
    block = readme.split("```python\n", 1)[1].split("```", 1)[0]
    exec(compile(block, "README.md", "exec"), {})
    assert capsys.readouterr().out == "3 4\n"


def test_no_module_imports_a_name_it_never_uses():
    """Every name a module under src/graphsym imports is read somewhere in
    it.  Imports inside functions count too; ``__future__`` does not.  And
    every private name a module defines at its top level is read somewhere
    in the package, so no helper is kept in src/ for the tests alone."""
    unused, defined, read = [], {}, set()
    for path in sorted(Path(graphsym.__file__).parent.glob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"))
        imported = {}
        for node in ast.walk(tree):
            if isinstance(node, ast.ImportFrom) and node.module == "__future__":
                continue
            if isinstance(node, (ast.Import, ast.ImportFrom)):
                for alias in node.names:
                    name = alias.asname or alias.name.partition(".")[0]
                    imported[name] = node.lineno
        used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
        unused += [f"{path.name}:{line}: {name}" for name, line in imported.items()
                   if name not in used]
        read |= {getattr(node, "id", None) or getattr(node, "attr", None)
                 for node in ast.walk(tree) if isinstance(getattr(node, "ctx", None), ast.Load)}
        for node in tree.body:
            if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
                names = [node.name]
            else:  # assignments: the names they store
                names = [t.id for t in ast.walk(node)
                         if isinstance(t, ast.Name) and isinstance(t.ctx, ast.Store)]
            defined.update((name, f"{path.name}:{node.lineno}") for name in names
                           if name.startswith("_") and not name.startswith("__"))
    unused += [f"{where}: {name} is never read" for name, where in defined.items()
               if name not in read]
    assert unused == []


def test_no_class_has_two_json_writers():
    """A class under src/graphsym writes its JSON by ``to_json`` (a dict) or
    by ``json_text`` (the text), never both, so one writer owns each shape."""
    both = []
    for path in sorted(Path(graphsym.__file__).parent.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, ast.ClassDef):
                methods = {f.name for f in node.body if isinstance(f, ast.FunctionDef)}
                if {"to_json", "json_text"} <= methods:
                    both.append(f"{path.name}: {node.name}")
    assert both == []
