from __future__ import annotations

import json

import pytest

from graphsym.cli import run
from graphsym.formats import format_edge_list, parse_edge_list
from graphsym.generators import named


@pytest.fixture
def fig1_file(tmp_path):
    path = tmp_path / "fig1.txt"
    path.write_text(format_edge_list(named("figure1")))
    return str(path)


@pytest.fixture
def c6_file(tmp_path):
    path = tmp_path / "c6.txt"
    path.write_text(format_edge_list(named("cn", 6)))
    return str(path)


def test_dist_and_fix(fig1_file, capsys):
    assert run(["dist", "--format", "edgelist", fig1_file]) == 0
    assert capsys.readouterr().out.strip() == "3"
    assert run(["fix", fig1_file]) == 0
    assert capsys.readouterr().out.strip() == "4"


def test_dist_components_json(fig1_file, capsys):
    assert run(["--json", "dist", "--components", fig1_file]) == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["dist_number"] == 3 and payload["fix_number"] == 4
    assert len(payload["components"]) == 3


def test_refine_json_is_stable(fig1_file, capsys):
    assert run(["--json", "refine", fig1_file]) == 0
    first = capsys.readouterr().out
    assert run(["--json", "refine", fig1_file]) == 0
    assert capsys.readouterr().out == first
    assert json.loads(first) == {"cells": [[0], [1, 4, 5, 8], [2, 3, 6, 7], [9, 10]]}


def test_amenable_verdicts(fig1_file, c6_file, capsys):
    assert run(["--json", "amenable", fig1_file]) == 0
    assert json.loads(capsys.readouterr().out)["amenable"] is True
    assert run(["--json", "amenable", c6_file]) == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["amenable"] is False
    assert payload["failure"]["condition"] == "A"


def test_not_amenable_exit_code(c6_file, capsys):
    assert run(["dist", c6_file]) == 2
    capsys.readouterr()
    assert run(["--json", "fix", c6_file]) == 2
    payload = json.loads(capsys.readouterr().out)
    assert payload["error"] == "NotAmenable"
    assert payload["verdict"]["amenable"] is False


def test_iso_heuristic_equivalent(tmp_path, capsys):
    c6 = tmp_path / "c6.txt"
    c6.write_text(format_edge_list(named("cn", 6)))
    from graphsym import disjoint_union

    two_c3, _ = disjoint_union(named("cn", 3), named("cn", 3))
    other = tmp_path / "2c3.txt"
    other.write_text(format_edge_list(two_c3))
    assert run(["iso", str(c6), str(other)]) == 0
    assert capsys.readouterr().out.strip() == "HeuristicEquivalent"


def test_graph6_inferred_from_extension(tmp_path, capsys):
    from graphsym.formats import encode_graph6

    path = tmp_path / "k4.g6"
    path.write_text(encode_graph6(named("kn", 4)) + "\n")
    assert run(["dist", str(path)]) == 0
    assert capsys.readouterr().out.strip() == "4"


def test_oracle_subcommands(fig1_file, capsys):
    assert run(["oracle", "aut", fig1_file, "--max-oracle-n", "11"]) == 0
    assert capsys.readouterr().out.strip() == "64"
    assert run(["oracle", "aut", fig1_file]) == 2  # default guard is 8
    capsys.readouterr()
    k2 = "2 1\n0 1\n"
    path = fig1_file.replace("fig1.txt", "k2.txt")
    with open(path, "w") as fh:
        fh.write(k2)
    assert run(["oracle", "count", path, "-c", "4"]) == 0
    assert capsys.readouterr().out.strip() == "6"
    assert run(["oracle", "dist", path]) == 0
    assert capsys.readouterr().out.strip() == "2"
    assert run(["oracle", "fix", path]) == 0
    assert capsys.readouterr().out.strip() == "1"


def test_gen_named_roundtrip(tmp_path, capsys):
    out = tmp_path / "k5.txt"
    assert run(["gen", "named", "kn", "5", "--out", str(out)]) == 0
    g, _ = parse_edge_list(out.read_text())
    assert g == named("kn", 5)


def test_gen_random_and_spec(tmp_path, capsys):
    assert run(["gen", "random", "--n", "12", "--seed", "3"]) == 0
    text = capsys.readouterr().out
    g, _ = parse_edge_list(text)
    assert g.n <= 14

    spec_file = tmp_path / "spec.json"
    spec_file.write_text(json.dumps({
        "components": [
            {"head": "complete", "root_size": 2,
             "tree": {"size": 2, "children": [{"size": 4, "children": []}]}},
        ],
    }))
    assert run(["gen", "spec", str(spec_file), "--format", "graph6"]) == 0
    from graphsym.formats import decode_graph6

    g = decode_graph6(capsys.readouterr().out)
    assert g.n == 6


def test_stdin_input(capsys, monkeypatch):
    import io

    monkeypatch.setattr("sys.stdin", io.StringIO("3 3\n0 1\n1 2\n0 2\n"))
    assert run(["dist", "-"]) == 0
    assert capsys.readouterr().out.strip() == "3"


def test_missing_file_is_io_error(capsys):
    assert run(["dist", "/nonexistent/graph.txt"]) == 1


def test_bench_smoke(capsys):
    assert run(["bench", "--sizes", "1000,2000", "--seed", "5"]) == 0
    lines = capsys.readouterr().out.strip().splitlines()
    assert lines[0] == "n,m,refine_s,amenable_s,symmetry_s"
    assert len(lines) == 3


def test_cells_reports_non_tree_component(tmp_path, capsys):
    from .test_cells import _star_cycle_graph

    path = tmp_path / "cycle.txt"
    path.write_text(format_edge_list(_star_cycle_graph()))
    assert run(["--json", "cells", str(path)]) == 0
    payload = json.loads(capsys.readouterr().out)
    assert [c["size"] for c in payload["cells"]] == [2, 4, 8]
    (comp,) = payload["components"]
    assert comp["cells"] == [0, 1, 2] and comp["parents"] == {}
    assert comp["findings"] == [{"condition": "C", "reason": "not a tree", "cells": [0, 1, 2]}]
