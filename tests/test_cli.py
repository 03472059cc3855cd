from __future__ import annotations

import errno
import hashlib
import json
import marshal
import os
import random
import signal
import subprocess
import sys
import time

import networkx as nx
import pytest

import graphsym
from graphsym import amenable_iso, check_amenable, formats, from_edge_list, relabel
from graphsym.cli import FORK_MIN_BYTES, run
from graphsym.formats import MAX_VERTICES, encode_graph6, format_edge_list, parse_edge_list
from graphsym.generators import named, random_amenable
from graphsym.graph import Graph
from graphsym.refinement import _quotient

from .conftest import disjoint_union, smallest_n_over_graph6_bound
from .test_pinned_outputs import _gnm
from .test_refinement_scale import gnm, recursive_tree, with_one_edge_moved


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


@pytest.mark.parametrize("draw, text", [
    (42, "condition A fails at cell 0"),
    (61, "condition B fails at cell pair 0, 1"),
    (185, "condition C fails in component 0: not a tree"),
    (269, "condition D fails in component 0: heterogeneous cell is not of minimum size"),
], ids="ABCD")
def test_the_failure_certificate_reads_as_text(tmp_path, capsys, draw, text):
    g = _gnm()[draw]  # the first pinned G(n, m) draw failing each condition
    path = tmp_path / "g.txt"
    path.write_text(format_edge_list(g))
    verdict = {"amenable": False, "failure": check_amenable(g).failure.to_json()}
    assert run(["amenable", str(path)]) == 0
    assert capsys.readouterr().out == f"not amenable: {text}\n"
    assert run(["--json", "amenable", str(path)]) == 0
    assert json.loads(capsys.readouterr().out) == verdict
    assert run(["dist", str(path)]) == 2
    assert capsys.readouterr().err == f"error: graph is not amenable: {text}\n"
    assert run(["--json", "fix", str(path)]) == 2
    assert json.loads(capsys.readouterr().out) == {
        "error": "NotAmenable", "message": f"graph is not amenable: {text}", "verdict": verdict}


def test_iso_heuristic_equivalent(tmp_path, capsys):
    c6 = tmp_path / "c6.txt"
    c6.write_text(format_edge_list(named("cn", 6)))
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


def _run_limited(*argv: str) -> dict:
    """The one JSON error of ``graphsym --json argv``, run to exit code 1 in
    a child under a 1 GiB address-space limit, so that a regression that
    allocates for what it should refuse fails instead of growing."""
    src = os.path.dirname(os.path.dirname(graphsym.__file__))
    script = ("import resource, sys; resource.setrlimit(resource.RLIMIT_AS, (1 << 30, 1 << 30));"
              "from graphsym.cli import run; sys.exit(run(sys.argv[1:]))")
    done = subprocess.run([sys.executable, "-c", script, "--json", *argv],
                          env={**os.environ, "PYTHONPATH": src}, capture_output=True, text=True)
    assert done.returncode == 1, done.stdout + done.stderr
    (line,) = done.stdout.splitlines()
    return json.loads(line)


@pytest.mark.parametrize("n", [10**9, MAX_VERTICES + 1])
def test_edge_list_header_over_the_vertex_limit_is_refused(tmp_path, n):
    """Refused before any row is built."""
    path = tmp_path / "big.txt"
    path.write_text(f"{n} 0\n")
    payload = _run_limited("amenable", str(path))
    assert payload["error"] == "BadEdgeList"
    assert payload["message"] == (
        f"bad edge list at line 1: n = {n} is over the limit of {MAX_VERTICES}")


def test_a_number_past_the_digit_limit_exits_1(tmp_path, capsys, int_digit_limit):
    """int() refuses it with a ValueError: a BadEdgeList at its line."""
    big = "1" * (int_digit_limit + 700)
    for text, line in ((f"{big} 0\n", 1), (f"3 1\n0 {big}\n", 2)):
        path = _write(tmp_path / "long.txt", text)
        for command in ("refine", "amenable", "dist"):
            assert run(["--json", command, path]) == 1, (line, command)
            error = json.loads(capsys.readouterr().out)
            assert error["error"] == "BadEdgeList"
            assert error["message"].startswith(f"bad edge list at line {line}: non-integer ")


def test_generator_over_the_size_limits_is_refused(tmp_path):
    """gen random and gen spec refuse a size over the limits before they build anything."""
    payload = _run_limited("gen", "random", "--n", str(10**9))
    assert payload == {"error": "BadParams",
                       "message": f"n_target {10**9} is over the limit of {MAX_VERTICES}"}
    path = tmp_path / "spec.json"
    path.write_text(json.dumps({"components": [{"head": "empty", "tree": {"size": 10**9}}]}))
    assert _run_limited("gen", "spec", str(path)) == {
        "error": "BadSpec",
        "message": f"bad generator spec: {10**9} vertices is over the limit of {MAX_VERTICES}"}
    path.write_text(json.dumps({"components": [{"head": "complete", "tree": {"size": 3000}}]}))
    assert _run_limited("gen", "spec", str(path)) == {
        "error": "BadSpec",
        "message": "bad generator spec: 4498500 edges is over the limit of 4194304"}


@pytest.mark.parametrize("params, message", [
    (["kn", "100000"], "kn: 4999950000 edges is over the limit of 4194304"),
    (["kab", "40000", "40000"], "kab: 1600000000 edges is over the limit of 4194304"),
    (["pn", str(10**9)], f"pn: {10**9} vertices is over the limit of {MAX_VERTICES}"),
    (["rk2", "600000000"], f"rk2: 1200000000 vertices is over the limit of {MAX_VERTICES}"),
], ids=["kn", "kab", "pn", "rk2"])
def test_gen_named_over_the_size_limits_is_refused(params, message):
    """gen named refuses a family too large to build before it builds it."""
    assert _run_limited("gen", "named", *params) == {"error": "BadParams", "message": message}


@pytest.mark.parametrize("params, message", [
    (["kn", "-1"], "kn: needs n >= 0"),
    (["cn", "2"], "cn: needs n >= 3"),
    (["figure1", "3"], "figure1: takes no parameters, got 1"),
    (["jellyfish_fig3", "1"], "jellyfish_fig3: takes no parameters, got 1"),
    (["pn"], "pn: takes 1 parameter, got 0"),
    (["rk2", "1", "2"], "rk2: takes 1 parameter, got 2"),
    (["kab", "3"], "kab: takes 2 parameters, got 1"),
    (["mystery"], "unknown family 'mystery'"),
], ids=lambda v: "-".join(v) if isinstance(v, list) else None)
def test_gen_named_bad_parameters_say_what_the_family_takes(capsys, params, message):
    assert run(["--json", "gen", "named", *params]) == 1
    assert json.loads(capsys.readouterr().out) == {"error": "BadParams", "message": message}


@pytest.mark.parametrize("edge, reason", [
    ("0 7", "vertex 7 out of range [0, 3)"),
    ("-1 2", "vertex -1 out of range [0, 3)"),
    ("2 2", "self-loop at vertex 2"),
], ids=["out_of_range", "negative", "self_loop"])
def test_a_refused_edge_is_reported_at_its_line(tmp_path, capsys, edge, reason):
    path = _write(tmp_path / "g.txt", f"# a comment\n\n3 2\n# another\n0 1\n\n   # indented\n{edge}\n")
    assert run(["--json", "amenable", path]) == 1
    assert json.loads(capsys.readouterr().out) == {
        "error": "BadEdgeList", "message": f"bad edge list at line 8: {reason}"}


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


def test_oracle_count_scans_at_most_n_colors(tmp_path, capsys):
    # 20 colours on P8: a scan of all 20^8 labelings would take hours
    path = tmp_path / "p8.txt"
    path.write_text(format_edge_list(named("pn", 8)))
    start = time.perf_counter()
    assert run(["oracle", "count", str(path), "-c", "20"]) == 0
    assert time.perf_counter() - start < 1.0
    assert capsys.readouterr().out.strip() == "12799920000"  # (20^8 - 20^4) / 2


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
    from graphsym import amenability

    def broken(_g):
        return 1 // 0

    monkeypatch.setattr(amenability, "check_amenable", broken)
    assert run(["--json", "amenable", fig1_file]) == 3
    payload = json.loads(capsys.readouterr().out)
    assert payload["error"] == "InternalError"
    assert payload["message"].startswith(
        "ZeroDivisionError: integer division or modulo by zero (in broken, ")


def test_internal_error_exit_code(fig1_file, capsys, monkeypatch):
    from graphsym import amenability
    from graphsym.errors import InternalError

    def broken(_g):
        raise InternalError("invariant violated")

    monkeypatch.setattr(amenability, "check_amenable", broken)
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


@pytest.mark.parametrize("argv, message", [
    (["gen", "named", "kn", "abc"], "invalid int value: 'abc'"),
    (["gen", "named", "kn", "1e3"], "invalid int value: '1e3'"),
    (["oracle", "count", "C6", "-c", "-1"], "--colors: must be at least 1, got -1"),
    (["oracle", "count", "C6", "--colors", "0"], "--colors: must be at least 1, got 0"),
    (["oracle", "aut", "C6", "--max-oracle-n", "-1"], "--max-oracle-n: must be at least 0, got -1"),
])
def test_a_bad_number_is_a_usage_error(c6_file, capsys, argv, message):
    assert run(["--json", *[c6_file if a == "C6" else a for a in argv]]) == 1
    payload = json.loads(capsys.readouterr().out)
    assert payload["error"] == "UsageError"
    assert message in payload["message"]


def test_the_least_oracle_numbers_are_accepted(c6_file, capsys):
    assert run(["--json", "oracle", "count", c6_file, "-c", "1"]) == 0
    assert json.loads(capsys.readouterr().out) == {"colors": 1, "dist_count": 0}
    assert run(["--json", "oracle", "aut", c6_file, "--max-oracle-n", "0"]) == 2
    assert json.loads(capsys.readouterr().out)["error"] == "TooLarge"


def test_help_exits_0(capsys):
    with pytest.raises(SystemExit) as exc_info:
        run(["--json", "dist", "--help"])
    assert exc_info.value.code == 0
    assert capsys.readouterr().out.startswith("usage: graphsym dist")


_LOADED = """
import contextlib, io, json, os, sys
exec(os.environ.get("SETUP", ""))
from graphsym.cli import build_parser, run
imported = set(sys.modules)
if sys.argv[1:]:
    build_parser().parse_args(sys.argv[1:])
parsed = sorted(m for m in set(sys.modules) - imported if m.startswith("graphsym"))
with contextlib.redirect_stdout(io.StringIO()):
    code = run(sys.argv[1:]) if sys.argv[1:] else 0
print(json.dumps([code, parsed, sorted(sys.modules)]))
"""


def test_commands_load_only_the_modules_they_run(fig1_file, big_files):
    src = os.path.dirname(os.path.dirname(graphsym.__file__))
    env = {**os.environ, "PYTHONPATH": src}

    def python(*args, setup: str = "") -> str:
        return subprocess.run([sys.executable, "-c", *args], env={**env, "SETUP": setup},
                              capture_output=True, text=True, check=True).stdout

    # slow to import, and not needed by an answer; a bare interpreter may
    # load some of them already, such as through a site .pth file
    costly = {"dataclasses", "inspect", "traceback",
              "multiprocessing", "subprocess", "pickle", "concurrent"}
    costly -= set(python("import sys; print(*sys.modules)").split())

    def loaded(*argv, setup: str = ""):
        code, parsed, modules = json.loads(python(_LOADED, *argv, setup=setup))
        assert code == 0
        assert parsed == [], argv  # the parser refers to commands, importing none
        if argv[:1] != ("oracle",):  # the brute-force cross-check is written with dataclasses
            assert not costly & set(modules), argv
        return {m for m in modules if m.startswith("graphsym.")}

    base = {"graphsym.cli", "graphsym.errors", "graphsym.formats", "graphsym.graph"}
    refinement = base | {"graphsym.refinement"}
    cells = refinement | {"graphsym.cells"}
    amenability = cells | {"graphsym.amenability"}
    assert loaded() == base
    assert loaded("refine", fig1_file) == refinement
    assert loaded("cells", fig1_file) == cells
    assert loaded("amenable", fig1_file) == amenability
    assert loaded("iso", fig1_file, fig1_file) == amenability
    assert loaded("iso", big_files["g"], big_files["copy"]) == amenability  # forks where it can
    forked = "os.sched_getaffinity = lambda pid: {0, 1}"  # _fork_pays on any host
    in_process = "del os.fork"
    for setup in (forked, in_process):  # the degrees differ: nothing is refined
        assert loaded("iso", big_files["g"], big_files["moved"], setup=setup) == base, setup
    for command in ("dist", "fix"):
        assert loaded(command, fig1_file) == amenability | {"graphsym.symmetry"}, command
    assert loaded("oracle", "aut", fig1_file, "--max-oracle-n", "11") == (
        cells | {"graphsym.oracle"})
    for argv in (["named", "kn", "3"], ["random", "--n", "5"]):
        assert loaded("gen", *argv) == refinement | {"graphsym.generators"}, argv


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


def test_json_mode_writes_per_cell_rows_from_templates(tmp_path, capsys, monkeypatch):
    """Under --json, ``amenable``, ``cells`` and ``dist --components`` write
    every row and record from its template: json.dumps never runs."""
    g = recursive_tree(random.Random(11), 2000)  # mostly singleton cells
    path = _write(tmp_path / "tree.txt", format_edge_list(g))
    records = check_amenable(g).components
    multi = [r for r in records if len(r.cells) > 1]
    assert multi and len(multi) < len(records) < g.n // 2  # every kind of row occurs
    calls = []
    dumps = json.dumps

    def counting(obj, **kwargs):
        calls.append(obj)
        return dumps(obj, **kwargs)

    monkeypatch.setattr(json, "dumps", counting)
    for argv in (["amenable"], ["cells"], ["dist", "--components"]):
        assert run(["--json", *argv, path]) == 0
        assert calls == [], argv
    capsys.readouterr()


def _pinned_cli_inputs() -> dict[str, Graph]:
    """File name -> graph: figure 1, C6, the first pinned G(n, m) draw that
    fails each of conditions A-D, an amenable atlas graph as graph6 and a seeded
    random recursive tree of 2000 vertices."""
    inputs = {"fig1.txt": named("figure1"), "c6.txt": named("cn", 6)}
    for g in _gnm():
        verdict = check_amenable(g)
        if not verdict.amenable:
            inputs.setdefault(f"fails_{verdict.failure.condition}.txt", g)
    atlas = nx.graph_atlas(1001)  # amenable, D = Fix = 2
    inputs["atlas.g6"] = from_edge_list(atlas.number_of_nodes(), list(atlas.edges()))
    inputs["tree.txt"] = recursive_tree(random.Random(11), 2000)
    assert len(inputs) == 8
    return inputs


CLI_DIGEST = "121cd9037b7bf818b5f20d5dc1424651cd587f329f1323a3493408e320c39fad"


def test_cli_outputs_match_pinned_digest(tmp_path, capsys, monkeypatch):
    """Exit code, stdout and stderr of every graph command, in human and
    --json mode, on a fixed set of inputs: a change meant to keep the CLI's
    bytes is checked by the suite.  A change that alters an output on
    purpose recomputes the digest and says why."""
    monkeypatch.chdir(tmp_path)  # relative names keep paths out of the outputs
    inputs = _pinned_cli_inputs()
    names = list(inputs)
    rng = random.Random(3)
    for name, g in inputs.items():
        stem, ext = name.rsplit(".", 1)
        perm = rng.sample(range(g.n), g.n)
        for path, h in ((name, g), (f"{stem}.perm.{ext}", relabel(g, perm))):
            _write(tmp_path / path, encode_graph6(h) + "\n" if ext == "g6" else format_edge_list(h))
    runs = []
    for i, name in enumerate(names):
        stem, ext = name.rsplit(".", 1)
        runs += [[*command, name] for command in (
            ["refine"], ["cells"], ["amenable"], ["dist"], ["fix"],
            ["dist", "--components"], ["fix", "--components"],
            ["oracle", "aut"], ["oracle", "dist"], ["oracle", "fix"], ["oracle", "count"])]
        runs += [["iso", name, other] for other in
                 (name, f"{stem}.perm.{ext}", names[(i + 1) % len(names)])]
    h = hashlib.sha256()
    for argv in runs:
        for flags in ([], ["--json"]):
            code = run([*flags, *argv])
            h.update(json.dumps([flags + argv, code, *capsys.readouterr()]).encode() + b"\n")
    assert h.hexdigest() == CLI_DIGEST


# ------------------------------------------------- iso with a forked child


def _write(path, text: str) -> str:
    path.write_text(text)
    return str(path)


def _degrees_changed(g: Graph) -> Graph:
    """g with its first edge uv moved to uw, w the first vertex for which
    the degree sequence changes."""
    u, v = next(g.edges())
    w = next(w for w in range(g.n) if w not in (u, v) and not g.has_edge(u, w)
             and len(g.adjacency[w]) != len(g.adjacency[v]) - 1)
    moved = from_edge_list(g.n, [e for e in g.edges() if e != (u, v)] + [(u, w)])
    assert (moved.m, moved.degree_sequence() != g.degree_sequence()) == (g.m, True)
    return moved


@pytest.fixture(scope="module")
def big_files(tmp_path_factory):
    """Edge lists above FORK_MIN_BYTES: a 5000-vertex random_amenable draw
    "g", a relabelled copy, the copy with one edge moved so that its degree
    sequence differs, and two malformed files of about the same size, one
    failing on its first line and one on its last."""
    d = tmp_path_factory.mktemp("big")
    g, _ = random_amenable(5000, seed=5)
    text = format_edge_list(g)
    copy = relabel(g, random.Random(5).sample(range(g.n), g.n))
    paths = {
        "g": _write(d / "g.txt", text),
        "copy": _write(d / "copy.txt", format_edge_list(copy)),
        "moved": _write(d / "moved.txt", format_edge_list(_degrees_changed(copy))),
        "bad_first": _write(d / "bad_first.txt", "x" + text),
        "bad_last": _write(d / "bad_last.txt", text + "0 x\n"),
    }
    assert min(map(os.path.getsize, paths.values())) >= FORK_MIN_BYTES
    return paths


def _no_child_left() -> None:
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


@pytest.fixture
def two_cpus(monkeypatch):
    """The process may run on two CPUs, whatever the host has."""
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1}, raising=False)


@pytest.fixture
def iso_both_ways(monkeypatch, capsys, two_cpus):
    """run(argv) with os.fork counted, then with os.fork failing as it does
    when the system is out of processes: (forks made, (exit code, stdout,
    stderr) with the fork, the same without it).  No child is left."""
    fork = os.fork

    def failing():
        raise OSError(errno.EAGAIN, os.strerror(errno.EAGAIN))

    def both(argv):
        forks = []

        def counted():
            forks.append(os.getpid())
            return fork()

        results = []
        for replacement in (counted, failing):
            monkeypatch.setattr(os, "fork", replacement)
            code = run(argv)
            results.append((code, *capsys.readouterr()))
        _no_child_left()
        return len(forks), results[0], results[1]

    return both


@pytest.mark.parametrize("g, h", [("g", "bad_last"), ("bad_first", "g"), ("bad_first", "bad_last")],
                         ids=["h_malformed", "g_malformed", "both_malformed"])
def test_iso_child_errors_are_those_in_process(big_files, iso_both_ways, g, h):
    """The child's failure, or the first graph's, gives the exit code and
    error of the path without a child; the first graph's error wins."""
    with open(big_files["bad_last"], encoding="utf-8") as fh:
        line = 1 if g == "bad_first" else len(fh.readlines())
    for flags in ([], ["--json"]):
        forks, forked, in_process = iso_both_ways([*flags, "iso", big_files[g], big_files[h]])
        assert forks == 1
        assert forked == in_process
        code, out, err = forked
        assert code == 1
        message = json.loads(out)["message"] if flags else err
        assert f"bad edge list at line {line}: " in message, message


@pytest.mark.parametrize("failure", ["raises", "killed", "short_header", "short_write"])
def test_iso_loads_in_process_when_the_child_fails(big_files, monkeypatch, capsys, two_cpus,
                                                   failure):
    """The child fails after its degree frame (raises, killed), sends a
    frame that cannot be read (short_header) or a quotient that cannot be
    read (short_write): the second graph is loaded and refined in process."""
    from graphsym import refinement

    parent = os.getpid()
    quotient, dumps = refinement._quotient, marshal.dumps
    truncated = {"short_header": tuple, "short_write": dict}.get(failure, ())
    in_parent = []

    def child_quotient(g):
        if os.getpid() == parent:
            in_parent.append(g.n)
        elif failure == "raises":
            raise RuntimeError("the child fails")
        elif failure == "killed":
            os.kill(os.getpid(), signal.SIGKILL)
        return quotient(g)

    def short_dumps(value):  # the degree sequence is a tuple, the quotient a dict
        data = dumps(value)
        if os.getpid() != parent and isinstance(value, truncated):
            return data[:len(data) // 2]
        return data

    monkeypatch.setattr(refinement, "_quotient", child_quotient)
    monkeypatch.setattr(marshal, "dumps", short_dumps)
    assert run(["--json", "iso", big_files["g"], big_files["copy"]]) == 0
    assert json.loads(capsys.readouterr().out) == {"verdict": "Isomorphic"}
    assert in_parent == [5000, 5000]  # the second graph too, once the child failed
    _no_child_left()


def test_iso_rejects_on_the_degree_sequences_before_either_quotient(big_files, iso_both_ways,
                                                                     monkeypatch):
    """A copy with one edge moved so that its degree sequence differs is
    NotIsomorphic, forked as in process, with no quotient built in the
    parent; the child, refining the second graph, is killed and reaped."""
    from graphsym import refinement

    parent, quotient = os.getpid(), refinement._quotient
    in_parent = []

    def counted(g):
        if os.getpid() == parent:
            in_parent.append(g.n)
        return quotient(g)

    monkeypatch.setattr(refinement, "_quotient", counted)
    for flags, out in (([], "NotIsomorphic\n"), (["--json"], '{"verdict": "NotIsomorphic"}\n')):
        argv = [*flags, "iso", big_files["g"], big_files["moved"]]
        forks, forked, in_process = iso_both_ways(argv)
        assert forks == 1
        assert forked == in_process == (0, out, "")
    assert in_parent == []
    _no_child_left()


def test_iso_reject_text_is_the_verdict_value(fig1_file, c6_file):
    """The degree reject answers with IsoVerdict's text without loading
    amenability; the literal must stay that value."""
    import argparse

    from graphsym import IsoVerdict
    from graphsym.cli import _cmd_iso

    text = IsoVerdict.NOT_ISOMORPHIC.value
    args = argparse.Namespace(graph=fig1_file, other=c6_file, format=None)
    assert _cmd_iso(args) == ({"verdict": text}, text)


def test_iso_kills_the_child_when_the_first_graph_fails(big_files, monkeypatch, capsys, two_cpus):
    """A bug while refining the first graph is reported as ever, and the
    child, still loading the second, is killed and reaped."""
    from graphsym import refinement

    parent, quotient = os.getpid(), refinement._quotient

    def broken(g):
        return 1 // 0 if os.getpid() == parent else quotient(g)

    monkeypatch.setattr(refinement, "_quotient", broken)
    assert run(["--json", "iso", big_files["g"], big_files["copy"]]) == 3
    assert json.loads(capsys.readouterr().out)["error"] == "InternalError"
    _no_child_left()


def test_iso_reads_stdin_in_process(big_files, monkeypatch, capsys, two_cpus):
    import io

    def no_fork():
        raise AssertionError("iso forked with stdin as an input")

    with open(big_files["g"], encoding="utf-8") as fh:
        monkeypatch.setattr("sys.stdin", io.StringIO(fh.read()))
    monkeypatch.setattr(os, "fork", no_fork)
    assert run(["iso", "-", big_files["copy"]]) == 0
    assert capsys.readouterr().out == "Isomorphic\n"


def test_iso_refuses_stdin_for_both_graphs(c6_file, monkeypatch, capsys):
    """stdin can feed one graph only: a usage error before anything is read."""
    import io

    def read(*_args):
        raise AssertionError("stdin was read")

    monkeypatch.setattr("sys.stdin", io.StringIO())
    monkeypatch.setattr(sys.stdin, "read", read)
    message = "graphsym iso: stdin can feed only one graph; give the other as a file"
    assert run(["--json", "iso", "-", "-"]) == 1
    assert json.loads(capsys.readouterr().out) == {"error": "UsageError", "message": message}
    assert run(["iso", "-", "-"]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("usage: graphsym iso")
    assert captured.err.endswith(f"error: {message}\n")
    monkeypatch.setattr("sys.stdin", io.StringIO(format_edge_list(named("cn", 6))))
    assert run(["iso", c6_file, "-"]) == 0  # C6 is not amenable
    assert capsys.readouterr().out == "HeuristicEquivalent\n"


@pytest.fixture(scope="module")
def pairs_above_the_threshold(tmp_path_factory):
    """Two random_amenable draws and a G(n, 3n), n >= 5000, each against a
    relabelled copy and against a relabelled copy with one edge moved."""
    d = tmp_path_factory.mktemp("pairs")
    rng = random.Random(17)
    graphs = [random_amenable(5000, seed=seed)[0] for seed in (11, 12)] + [gnm(rng, 5000, 15000)]
    pairs = []
    for i, g in enumerate(graphs):
        path = _write(d / f"g{i}.txt", format_edge_list(g))
        for name, h in (("copy", g), ("moved", with_one_edge_moved(rng, g))):
            h = relabel(h, rng.sample(range(h.n), h.n))
            pairs.append((g, h, path, _write(d / f"g{i}-{name}.txt", format_edge_list(h))))
    assert min(os.path.getsize(p) for pair in pairs for p in pair[2:]) >= FORK_MIN_BYTES
    return pairs


def _atlas_pairs(tmp_path) -> list:
    """The atlas graphs that CR does not tell apart, in both orders, as
    graph6 files, and every 25th atlas graph with a relabelled copy."""
    graphs = [from_edge_list(G.number_of_nodes(), list(G.edges())) for G in nx.graph_atlas_g()]
    classes: dict[tuple, list] = {}
    for g in graphs:
        classes.setdefault((g.n, repr(sorted(_quotient(g)[1].items()))), []).append(g)
    rng = random.Random(23)
    pairs = [(g, h) for cls in classes.values() for g in cls for h in cls if g is not h]
    pairs += [(g, relabel(g, rng.sample(range(g.n), g.n))) for g in graphs[1::25]]
    out = []
    for i, (g, h) in enumerate(pairs):
        out.append((g, h, _write(tmp_path / f"{i}a.g6", encode_graph6(g) + "\n"),
                    _write(tmp_path / f"{i}b.g6", encode_graph6(h) + "\n")))
    return out


def test_iso_forked_matches_in_process(pairs_above_the_threshold, tmp_path, iso_both_ways):
    """Byte for byte, with and without --json: pairs of files above
    FORK_MIN_BYTES fork, the atlas pairs below it do not."""
    atlas = _atlas_pairs(tmp_path)
    assert len(atlas) >= 52
    assert max(os.path.getsize(p) for pair in atlas for p in pair[2:]) < FORK_MIN_BYTES
    seen = set()
    for pairs, forks_each in ((pairs_above_the_threshold, 1), (atlas, 0)):
        for g, h, g_path, h_path in pairs:
            expected = amenable_iso(g, h).value
            seen.add(expected)
            printed = {(): f"{expected}\n", ("--json",): f'{{"verdict": "{expected}"}}\n'}
            for flags, out in printed.items():
                forks, forked, in_process = iso_both_ways([*flags, "iso", g_path, h_path])
                assert forks == forks_each
                assert forked == in_process == (0, out, "")
    assert seen == {"Isomorphic", "NotIsomorphic", "HeuristicEquivalent"}


# ------------------------------------------------------ byte-mutated inputs


def _mutated(data: bytes, rng: random.Random) -> bytes:
    """data with one to three bytes inserted, replaced or deleted, drawn
    mostly from the bytes that the two formats give meaning to."""
    out = bytearray(data)
    for _ in range(rng.randint(1, 3)):
        i = rng.randrange(len(out) + 1)
        byte = rng.choice(b"0123456789 \n#-~?@_x") if rng.random() < 0.8 else rng.randrange(256)
        op = rng.randrange(3) if out else 0
        if op == 0:
            out.insert(i, byte)
        elif op == 1:
            out[min(i, len(out) - 1)] = byte
        else:
            del out[min(i, len(out) - 1)]
    return bytes(out)


def _plain_mutations(text: str, rng: random.Random) -> list[str]:
    """Mutations of an edge list that stay inside the grammar read in bulk:
    two digits swapped, a line duplicated, an edge line moved above the
    header, and the final newline dropped."""
    lines = text.splitlines(keepends=True)
    digits = [i for i, c in enumerate(text) if c.isdigit()]
    out = [text[:-1]]
    for _ in range(4):
        i, j = sorted(rng.sample(digits, 2))
        out.append(text[:i] + text[j] + text[i + 1:j] + text[i] + text[j + 1:])
        k = rng.randrange(len(lines))
        out.append("".join(lines[:k + 1] + lines[k:]))
        k = rng.randrange(1, len(lines))
        out.append("".join([lines[k], *lines[:k], *lines[k + 1:]]))
    return out


def test_no_mutated_input_makes_a_command_exit_3(tmp_path, capsys, monkeypatch, big_files,
                                                 two_cpus):
    """Seeded byte mutations of an edge list and a graph6 file through every
    graph command, and of a file above FORK_MIN_BYTES through iso either
    side: each run exits 0, 1 or 2 with one JSON object.  Substitutions of
    what int() reads beyond plain digits exit 1 at their line.  Mutations
    inside the grammar read in bulk answer as the per-line scan does."""
    rng = random.Random(2024)
    runs = []
    for name, text in (("fig1.txt", format_edge_list(named("figure1"))),
                       ("jelly.g6", encode_graph6(named("jellyfish_fig3")) + "\n")):
        original = _write(tmp_path / name, text)
        path = tmp_path / f"mutated-{name}"
        for _ in range(50):
            path.write_bytes(_mutated(text.encode(), rng))
            p = str(path)
            runs += [[command, p] for command in ("refine", "cells", "amenable", "dist", "fix")]
            runs += [["iso", p, original], ["iso", original, p]]
            for argv in runs[-7:]:
                code = run(["--json", *argv])
                (line,) = capsys.readouterr().out.splitlines()
                assert code in (0, 1, 2), (argv, path.read_bytes())
                assert isinstance(json.loads(line), dict), argv
    # what int() reads beyond the format's digits: a sign, a digit separator
    # and a non-ASCII digit, each refused at its line
    text = format_edge_list(named("figure1"))
    for old, new, line in (("11 14", "+11 14", 1), ("\n0 1\n", "\n0 +1\n", 2),
                           ("\n0 1\n", "\n0 1_0\n", 2), ("\n1 9\n", "\n1 \u0669\n", 10)):
        path = tmp_path / "substituted.txt"
        path.write_bytes(text.replace(old, new, 1).encode())
        for command in ("refine", "cells", "amenable", "dist", "fix"):
            assert run(["--json", command, str(path)]) == 1, (old, new, command)
            error = json.loads(capsys.readouterr().out)
            assert error["error"] == "BadEdgeList" and f"at line {line}:" in error["message"]
    with open(big_files["g"], "rb") as fh:
        big = fh.read()
    path = tmp_path / "mutated-big.txt"
    for _ in range(8):
        path.write_bytes(_mutated(big, rng))
        for argv in (["iso", str(path), big_files["copy"]], ["iso", big_files["copy"], str(path)]):
            code = run(["--json", *argv])
            (line,) = capsys.readouterr().out.splitlines()
            assert code in (0, 1, 2) and isinstance(json.loads(line), dict), argv
    read_in_bulk = 0
    for mutated in _plain_mutations(text, random.Random(2025)):
        read_in_bulk += formats._read_plain(mutated) is not None
        path = _write(tmp_path / "plain.txt", mutated)
        for command in ("refine", "cells", "amenable", "dist", "fix"):
            answers = []
            for scan_only in (False, True):
                with monkeypatch.context() as patch:
                    if scan_only:
                        patch.setattr(formats, "_read_plain", lambda text: None)
                    code = run(["--json", command, path])
                (line,) = capsys.readouterr().out.splitlines()
                assert code in (0, 1, 2) and isinstance(json.loads(line), dict), (command, mutated)
                answers.append((code, line))
            assert answers[0] == answers[1], (command, mutated)
    assert read_in_bulk
    _no_child_left()


# ------------------------------------------------------- main() as a process


def _main(*argv: str, **kwargs) -> subprocess.CompletedProcess:
    """``python -m graphsym.cli argv`` with stdout block-buffered, as it is
    into a file or pipe, so that output main() leaves unflushed is lost."""
    src = os.path.dirname(os.path.dirname(graphsym.__file__))
    env = {k: v for k, v in os.environ.items() if k != "PYTHONUNBUFFERED"}
    env["PYTHONPATH"] = src
    kwargs.setdefault("stdout", subprocess.PIPE)
    return subprocess.run([sys.executable, "-m", "graphsym.cli", *argv], env=env,
                          stderr=subprocess.PIPE, **kwargs)


@pytest.fixture(scope="module")
def main_inputs(tmp_path_factory, big_files):
    d = tmp_path_factory.mktemp("main")
    return {**big_files,
            "fig1": _write(d / "fig1.txt", format_edge_list(named("figure1"))),
            "c6": _write(d / "c6.txt", format_edge_list(named("cn", 6))),
            "path": _write(d / "path.txt", format_edge_list(named("pn", 20000))),
            "bad": _write(d / "bad.txt", "3 1\n0 x\n")}


@pytest.mark.parametrize("argv, code", [
    (["refine", "path"], 0),
    (["amenable", "fig1"], 0),
    (["dist", "c6"], 2),
    (["amenable", "bad"], 1),
    (["dist"], 1),
    (["--help"], 0),
    (["iso", "g", "copy"], 0),
    (["iso", "g", "moved"], 0),
], ids=["refine_64k", "amenable", "not_amenable", "bad_edge_list", "usage", "help", "iso_fork",
        "iso_degree_reject"])
@pytest.mark.parametrize("flags", [[], ["--json"]], ids=["human", "json"])
def test_main_prints_what_run_prints(main_inputs, capsys, argv, code, flags):
    argv = [*flags, *(main_inputs.get(a, a) for a in argv)]
    if "--help" in argv:
        with pytest.raises(SystemExit) as exc_info:
            run(argv)
        assert exc_info.value.code == code
    else:
        assert run(argv) == code
    out = capsys.readouterr().out.encode()
    if "refine" in argv:
        assert len(out) > 64 << 10
    done = _main(*argv)
    assert (done.returncode, done.stdout) == (code, out)
    assert b"Traceback" not in done.stderr


# Without a stdout, argparse prints --help on stderr.
@pytest.mark.parametrize("argv, sink", [
    (argv, sink) for argv in (["refine", "fig1"], ["gen", "named", "pn", "50000"], ["--help"])
    for sink in ("closed_pipe", "dev_full", "no_fd") if argv != ["--help"] or sink != "no_fd"
], ids=lambda v: {"refine": "small", "gen": "large", "--help": "help"}.get(v[0], v))
@pytest.mark.parametrize("flags", [[], ["--json"]], ids=["human", "json"])
def test_a_closed_or_failing_stdout_exits_1(main_inputs, sink, argv, flags):
    """Into a pipe nobody reads, a full device or no stdout at all, a command
    exits 1 with one error line on stderr, whatever its output."""
    argv = [*flags, *(main_inputs.get(a, a) for a in argv)]
    if sink == "closed_pipe":
        r, w = os.pipe()
        os.close(r)
        try:
            done = _main(*argv, stdout=w)
        finally:
            os.close(w)
    elif sink == "dev_full":
        if not os.path.exists("/dev/full"):
            pytest.skip("no /dev/full")
        with open("/dev/full", "wb") as full:
            done = _main(*argv, stdout=full)
    else:
        done = _main(*argv, stdout=None, preexec_fn=lambda: os.close(1))
    assert done.returncode == 1
    (line,) = done.stderr.decode().splitlines()
    assert line.startswith("error: [Errno "), line


def test_a_closed_stdin_is_an_io_error():
    done = _main("--json", "amenable", "-", preexec_fn=lambda: os.close(0))
    assert done.returncode == 1 and done.stderr == b""
    (line,) = done.stdout.decode().splitlines()
    assert json.loads(line) == {"error": "OSError", "message": "[Errno 9] stdin is closed"}


@pytest.mark.parametrize("enabled", [True, False])
def test_run_leaves_the_collector_as_it_found_it(fig1_file, capsys, enabled):
    import gc

    was = gc.isenabled()
    try:
        (gc.enable if enabled else gc.disable)()
        assert run(["amenable", fig1_file]) == 0
        assert run(["--json", "dist", "/nonexistent/graph.txt"]) == 1
        assert gc.isenabled() is enabled
    finally:
        (gc.enable if was else gc.disable)()
    capsys.readouterr()
