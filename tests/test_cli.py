from __future__ import annotations

import json
import os
import subprocess
import sys

import pytest

import graphsym
from graphsym.cli import run
from graphsym.formats import format_edge_list, parse_edge_list
from graphsym.generators import named

from .conftest import smallest_n_over_graph6_bound


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


def test_refine_builds_its_cell_listing_only_when_printed(fig1_file, capsys, monkeypatch):
    from graphsym import cli

    humans = []
    emit = cli._emit

    def spy(args, payload, human=None):
        humans.append(human)
        emit(args, payload, human)

    monkeypatch.setattr(cli, "_emit", spy)
    assert run(["--json", "refine", fig1_file]) == 0
    assert run(["refine", fig1_file]) == 0
    printed = capsys.readouterr().out.splitlines()
    assert humans == [None, "\n".join(printed[1:])]


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

    two_c3 = disjoint_union(named("cn", 3), named("cn", 3))
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


def test_gen_graph6_over_the_bound_is_one_json_error(capsys):
    n = smallest_n_over_graph6_bound()
    assert run(["--json", "gen", "named", "pn", str(n), "--format", "graph6"]) == 1
    out = capsys.readouterr().out
    assert len(out.splitlines()) == 1
    assert json.loads(out)["error"] == "BadGraph6"


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


@pytest.mark.parametrize("name, command, error", [
    ("bad.json", ["dist"], "BadEdgeList"),
    ("bad.g6", ["dist"], "BadGraph6"),
    ("bad.json", ["gen", "spec"], "BadSpec"),
], ids=["edgelist", "graph6", "spec"])
def test_input_that_is_not_utf8_is_a_format_error(tmp_path, capsys, name, command, error):
    path = tmp_path / name
    path.write_bytes(b"\xff\xfe{")
    assert run(["--json", *command, str(path)]) == 1
    (line,) = capsys.readouterr().out.splitlines()
    payload = json.loads(line)
    assert payload["error"] == error and "not UTF-8" in payload["message"]


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


def _nested_spec(depth: int) -> str:
    tree = '{"size": 1}'
    for _ in range(depth - 1):
        tree = '{"size": 1, "children": [' + tree + ']}'
    return '{"components": [{"head": "complete", "tree": ' + tree + '}]}'


@pytest.mark.parametrize("text", [
    "{",
    '{"components": [{"head": "complete"}]}',
    _nested_spec(600),
], ids=["truncated", "no_tree", "nested_600"])
def test_gen_spec_malformed_is_bad_spec(tmp_path, capsys, text):
    spec_file = tmp_path / "spec.json"
    spec_file.write_text(text)
    assert run(["--json", "gen", "spec", str(spec_file)]) == 1
    assert json.loads(capsys.readouterr().out)["error"] == "BadSpec"


_VALID_SPEC = {
    "components": [
        {"head": "complete", "root_size": 2,
         "tree": {"size": 2, "children": [{"size": 4, "fill": "complete"}]}},
        {"head": "empty", "tree": {"size": 3}},
    ],
    "wiring": [{"components": [0, 1], "cells": [1, 0]}],
}
_REPLACEMENTS = [None, True, 0, -1, 2, 2.5, "x", "2", [], [0, 1], ["0", 1], {},
                 {"size": 2, "children": 3}]


def _value_paths(doc, path=()):
    """The key path of every value in a JSON document, the document's own first."""
    yield path
    items = doc.items() if isinstance(doc, dict) else enumerate(doc) if isinstance(doc, list) else ()
    for key, value in items:
        yield from _value_paths(value, path + (key,))


def _replaced(doc, path, value):
    if not path:
        return value
    doc = json.loads(json.dumps(doc))
    target = doc
    for key in path[:-1]:
        target = target[key]
    target[path[-1]] = value
    return doc


def test_gen_spec_never_exits_3_on_a_mutated_spec(tmp_path, capsys):
    spec_file = tmp_path / "spec.json"
    paths = list(_value_paths(_VALID_SPEC))
    assert len(paths) * len(_REPLACEMENTS) == 299
    for path in paths:
        for value in _REPLACEMENTS:
            spec_file.write_text(json.dumps(_replaced(_VALID_SPEC, path, value)))
            code = run(["--json", "gen", "spec", str(spec_file)])
            out = capsys.readouterr().out
            if code != 0:
                assert (code, json.loads(out)["error"]) == (1, "BadSpec"), (path, value)


def test_oracle_answers_past_the_recursion_limit(tmp_path, capsys):
    n = 1500
    assert n > sys.getrecursionlimit()
    path = tmp_path / "p1500.txt"
    path.write_text(format_edge_list(named("pn", n)))
    expected = {"aut": {"order": 2}, "dist": {"dist_number": 2}, "fix": {"fix_number": 1}}
    for op, payload in expected.items():
        assert run(["--json", "oracle", op, str(path), "--max-oracle-n", "100000"]) == 0
        assert json.loads(capsys.readouterr().out) == payload


def test_unexpected_exception_is_internal_error(fig1_file, capsys, monkeypatch):
    from graphsym import cli

    def broken(_g):
        return 1 // 0

    monkeypatch.setattr(cli, "check_amenable", broken)
    assert run(["--json", "amenable", fig1_file]) == 3
    payload = json.loads(capsys.readouterr().out)
    assert payload["error"] == "InternalError"
    assert payload["message"].startswith(
        "ZeroDivisionError: integer division or modulo by zero (in broken, ")


def test_internal_error_exit_code(fig1_file, capsys, monkeypatch):
    from graphsym import cli
    from graphsym.errors import InternalError

    def broken(_g):
        raise InternalError("invariant violated")

    monkeypatch.setattr(cli, "check_amenable", broken)
    assert run(["--json", "amenable", fig1_file]) == 3
    assert json.loads(capsys.readouterr().out) == {
        "error": "InternalError", "message": "invariant violated"}


def test_missing_argument_is_a_usage_error(capsys):
    assert run(["--json", "dist"]) == 1
    out = capsys.readouterr().out
    assert json.loads(out) == {
        "error": "UsageError",
        "message": "graphsym dist: the following arguments are required: graph"}
    assert run(["dist"]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("usage: graphsym dist")


def test_unknown_command_is_a_usage_error(capsys):
    for command in ("nosuch", "bench"):
        assert run(["--json", command]) == 1
        payload = json.loads(capsys.readouterr().out)
        assert payload["error"] == "UsageError"
        assert f"invalid choice: '{command}'" in payload["message"]


def test_help_exits_0(capsys):
    with pytest.raises(SystemExit) as exc_info:
        run(["--json", "dist", "--help"])
    assert exc_info.value.code == 0
    assert capsys.readouterr().out.startswith("usage: graphsym dist")


_LOADED = """
import contextlib, io, json, sys
from graphsym.cli import run
with contextlib.redirect_stdout(io.StringIO()):
    code = run(sys.argv[1:]) if sys.argv[1:] else 0
print(json.dumps([code, sorted(sys.modules)]))
"""


def test_commands_load_only_the_modules_they_run(fig1_file):
    src = os.path.dirname(os.path.dirname(graphsym.__file__))
    env = {**os.environ, "PYTHONPATH": src}

    def python(*args) -> str:
        return subprocess.run([sys.executable, "-c", *args], env=env,
                              capture_output=True, text=True, check=True).stdout

    # slow to import, and not needed by an answer; a bare interpreter may
    # load some of them already, such as through a site .pth file
    costly = {"dataclasses", "inspect", "traceback"}
    costly -= set(python("import sys; print(*sys.modules)").split())

    def loaded(*argv):
        code, modules = json.loads(python(_LOADED, *argv))
        assert code == 0
        assert not costly & set(modules), argv
        return {m for m in modules if m.startswith("graphsym.")}

    base = loaded()
    assert not base & {"graphsym.oracle", "graphsym.generators", "graphsym.symmetry"}
    assert loaded("amenable", fig1_file) == base
    assert loaded("iso", fig1_file, fig1_file) == base
    assert loaded("dist", fig1_file) == base | {"graphsym.symmetry"}


PAYLOAD_COMMANDS = [["cells"], ["dist", "--components"], ["fix", "--components"]]


@pytest.mark.parametrize("argv", PAYLOAD_COMMANDS, ids=lambda a: a[0])
def test_human_text_is_the_json_payload_indented(fig1_file, capsys, argv):
    assert run(["--json", *argv, fig1_file]) == 0
    compact = capsys.readouterr().out
    assert run([*argv, fig1_file]) == 0
    payload = json.loads(compact)
    assert compact == json.dumps(payload, sort_keys=True) + "\n"
    assert capsys.readouterr().out == json.dumps(payload, indent=2, sort_keys=True) + "\n"


def test_json_mode_builds_no_indented_text(fig1_file, capsys, monkeypatch):
    indented = []
    dumps = json.dumps

    def counting(obj, **kwargs):
        if kwargs.get("indent") is not None:
            indented.append(obj)
        return dumps(obj, **kwargs)

    monkeypatch.setattr(json, "dumps", counting)
    for argv in PAYLOAD_COMMANDS:
        assert run(["--json", *argv, fig1_file]) == 0
    assert indented == []
    assert run(["cells", fig1_file]) == 0  # the counter sees the human text
    assert len(indented) == 1
    capsys.readouterr()
