"""Layered benchmark for graphsym.

Run from the root of a graphsym checkout:

    python3 perfbench/run.py --workload tree --seed 1 --seconds 20 --trace 0

With ``--trace 0`` it times the ``graphsym`` CLI on the workload's files and
the in-process pipeline, and prints the end-to-end metrics.  With
``--trace 1`` it calls each module's public functions in process inside
spans, writes the spans to ``.perfbench_work/``, and prints the per-layer
metrics.  Every answer is compared with the independent computations in
``reference``.  End-to-end times are scaled to a reference machine speed
by a probe that runs no graphsym code (``probe.py``).  The last line of
standard output is one JSON object with ``correct``, ``attempted``,
``failed`` and ``metrics``.  ``--workload all`` runs the four workloads in
turn and prints a table first.

Load model: one closed-loop client, running one CLI process or one library
call at a time.  A run repeats whole rounds of the same operations until
``--seconds`` have passed, so the share of failed operations is the same in
every run.
"""

from __future__ import annotations

import argparse
import gc
import json
import os
import statistics
import subprocess
import sys
import time
from contextlib import nullcontext

ROOT = os.getcwd()
SRC = os.path.join(ROOT, "src")
WORK = os.path.join(ROOT, ".perfbench_work")
HERE = os.path.dirname(os.path.abspath(__file__))
WORKLOADS = ("chain", "tree", "gnm", "atlas")
# End-to-end times are reported at the machine speed where probe.py takes
# this long (about its median on the 2-vCPU VM of the README figures); see
# end_to_end.
PROBE_REFERENCE_S = 0.2
# The in-process sweep behind graphs_per_s is the shortest sample of a round
# on the large workloads and spread the most with one pass a round.
SWEEPS_PER_ROUND = 2

END_TO_END = {
    "amenable_s": "s", "dist_s": "s", "fix_s": "s", "iso_s": "s", "iso_distinct_s": "s",
    "peak_rss_mb": "MB", "graphs_per_s": "1/s", "setup_s": "s",
}
LAYER_SPANS = (
    "formats.parse_edge_list", "graph.from_edge_list", "formats.decode_graph6",
    "refinement.stable_partition", "refinement.cr_iso_test", "refinement.cr_iso_test_distinct",
    "cells.build_cell_graph", "cells.anisotropic_components",
    "amenability.check_amenable", "amenability.amenable_iso",
    "amenability.amenable_iso_distinct", "symmetry.analyze",
)
PER_LAYER = [f"{name}_s" for name in LAYER_SPANS] + ["amenability.self_s", "cli.self_s"]
CLI_SELF_SPANS = ("formats.parse_edge_list", "formats.decode_graph6",
                  "amenability.check_amenable", "symmetry.analyze")


class Failed(Exception):
    """The operation raised or the CLI exited with an unexpected code."""


class Tally:
    """Operations attempted and failed."""

    def __init__(self) -> None:
        self.attempted = 0
        self.failed = 0
        self._reported: set[str] = set()

    def run(self, op, *args, count: int = 1):
        """Call op as ``count`` operations; on Failed count them all as failed
        and return None.  A wrong answer (reference.Mismatch) propagates."""
        self.attempted += count
        try:
            return op(*args)
        except Failed as exc:
            if str(exc) not in self._reported:  # each distinct failure once per run
                self._reported.add(str(exc))
                print(f"perfbench: failed: {exc}", file=sys.stderr)
            self.failed += count
            return None


# ----------------------------------------------------------------- the CLI


def cli_env() -> dict[str, str]:
    env = dict(os.environ)
    env["PYTHONPATH"] = SRC + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    return env


def timed_process(argv: list[str], env: dict[str, str]) -> tuple[float, float, int, str]:
    """Run one process to its end: (wall seconds, max RSS in MB, exit code, stdout)."""
    out_path = os.path.join(WORK, "process.out")
    with open(out_path, "wb") as out:
        start = time.perf_counter()
        proc = subprocess.Popen(argv, stdout=out, stderr=subprocess.DEVNULL, env=env, cwd=ROOT)
        _, status, usage = os.wait4(proc.pid, 0)
        seconds = time.perf_counter() - start
    proc.returncode = os.waitstatus_to_exitcode(status)
    with open(out_path, encoding="utf-8") as fh:
        return seconds, usage.ru_maxrss / 1024.0, proc.returncode, fh.read()


def cli_ops(w) -> list[tuple[str, list[str]]]:
    f, c, o = w.file.path, w.copy.path, w.other.path
    return [("amenable", ["amenable", f]), ("dist", ["dist", f]), ("fix", ["fix", f]),
            ("iso", ["iso", f, c]), ("iso_distinct", ["iso", f, o])]


def check_cli(ref, w, op: str, stdout: str) -> None:
    what = f"{w.name} CLI {op}"
    try:
        payload = json.loads(stdout.strip().splitlines()[-1])
        answer = payload[{"amenable": "amenable", "dist": "dist_number",
                          "fix": "fix_number"}.get(op, "verdict")]
    except (ValueError, IndexError, KeyError, TypeError):
        raise ref.Mismatch(f"{what}: unreadable output {stdout[:200]!r}") from None
    if op == "amenable":
        ref.check_verdict(w.expected, answer, what)
    elif op == "dist":
        ref.check_number(w.expected.dist, answer, "D", what)
    elif op == "fix":
        ref.check_number(w.expected.fix, answer, "Fix", what)
    else:
        ref.check_iso("Isomorphic" if op == "iso" else "NotIsomorphic", answer, what)


def run_cli(ref, w, env, op: str, args: list[str]) -> tuple[float, float]:
    """One CLI answer, checked: (wall seconds, max RSS in MB)."""
    seconds, rss, code, stdout = timed_process(
        [sys.executable, "-m", "graphsym.cli", "--json", *args], env)
    if code != 0:
        raise Failed(f"{w.name} CLI {op} exited with {code}")
    check_cli(ref, w, op, stdout)
    return seconds, rss


def setup_seconds(env) -> float:
    """Wall time of a fresh interpreter that only imports graphsym.cli."""
    seconds, _, code, _ = timed_process([sys.executable, "-c", "import graphsym.cli"], env)
    if code != 0:
        raise RuntimeError(f"importing graphsym.cli exited with {code}")
    return seconds


def probe_seconds(env) -> float:
    """Wall time of probe.py: the machine's speed right now, without graphsym."""
    seconds, _, code, _ = timed_process([sys.executable, os.path.join(HERE, "probe.py")], env)
    if code != 0:
        raise RuntimeError(f"probe.py exited with {code}")
    return seconds


def typical(samples: list[float]) -> float:
    """Mean of the middle three fifths of the samples.

    On shared CPUs the speed of a single sample swings by a third within a
    second, so one sample, and the fastest of a run, depend on luck; the
    trimmed mean uses most samples and drops the stalls at either end.
    """
    ordered = sorted(samples)
    cut = len(ordered) // 5
    return statistics.fmean(ordered[cut:len(ordered) - cut])


def rounds(seconds: float):
    """Yield round numbers while the next whole round should end within seconds."""
    start = time.perf_counter()
    done = 0
    while True:
        yield done
        done += 1
        elapsed = time.perf_counter() - start
        if elapsed + elapsed / done > seconds:
            return


# ------------------------------------------------------------ in-process ops


def call(fn, *args, **kwargs):
    """A library call inside an operation: whatever it raises fails the operation."""
    try:
        return fn(*args, **kwargs)
    except Exception as exc:  # operation boundary: count it and keep measuring
        raise Failed(f"{fn.__name__}: {type(exc).__name__}: {exc}") from exc


def analyze_or_refuse(gs, g, verdict):
    """analyze with the verdict passed in; None when it refuses with NotAmenable."""
    try:
        return gs.analyze(g, verdict=verdict)
    except gs.errors.NotAmenable:
        return None
    except Exception as exc:  # operation boundary, as in call()
        raise Failed(f"analyze: {type(exc).__name__}: {exc}") from exc


def load(gs, text: str, graph6: bool):
    return gs.decode_graph6(text) if graph6 else gs.parse_edge_list(text)[0]


def check_answers(ref, expected, verdict, report, what: str) -> None:
    ref.check_verdict(expected, verdict.amenable, what)
    if expected.amenable:
        if report is None:
            raise ref.Mismatch(f"{what}: analyze refused an amenable graph")
        ref.check_number(expected.dist, report.dist_number, "D", what)
        ref.check_number(expected.fix, report.fix_number, "Fix", what)
    elif report is not None:
        raise ref.Mismatch(f"{what}: analyze answered on a graph that is not amenable")


def pipeline(gs, ref, item, what: str, rec=None) -> float:
    """decode or parse -> check_amenable -> analyze; returns the seconds spent in graphsym."""
    start = time.perf_counter()
    with span(rec, "formats.decode_graph6" if item.graph6 else "formats.parse_edge_list"):
        g = call(load, gs, item.text, item.graph6)
    with span(rec, "amenability.check_amenable"):
        verdict = call(gs.check_amenable, g)
    with span(rec, "symmetry.analyze"):
        report = analyze_or_refuse(gs, g, verdict)
    seconds = time.perf_counter() - start
    check_answers(ref, item.expected, verdict, report, what)
    if verdict.amenable:
        ref.check_cells(item.cells, verdict.cell_graph.partition.cells, what)
    return seconds


def cell_report(gs, ref, item, what: str, rec=None) -> None:
    """The path of ``graphsym cells``: stable_partition -> build_cell_graph -> anisotropic_components."""
    g = call(load, gs, item.text, item.graph6)
    with span(rec, "refinement.stable_partition"):
        p = call(gs.stable_partition, g)
    ref.check_cells(item.cells, p.cells, what)
    with span(rec, "cells.build_cell_graph"):
        cg = call(gs.build_cell_graph, g, p)
    with span(rec, "cells.anisotropic_components"):
        call(gs.anisotropic_components, cg)


def equivalent_pair(gs, ref, pair, what: str) -> None:
    g, h = (call(gs.decode_graph6, text) for text in pair)
    ref.check_iso("HeuristicEquivalent", call(gs.amenable_iso, g, h).value, what)


def span(rec, name: str, tag: str | None = None):
    return nullcontext() if rec is None else rec.span(name, tag)


# ------------------------------------------------------------- untraced run


def end_to_end(gs, ref, w, seconds: float, tally: Tally) -> dict[str, float]:
    """Each round: one bare import, the five CLI answers, the in-process
    pipeline on every sweep graph SWEEPS_PER_ROUND times, and on atlas every
    cell-graph report and CR-equivalent pair, with a speed probe before the
    CLI answers and one after them.

    Each time is the trimmed mean of the run's samples (see ``typical``)
    and setup_s is the median of the run's imports.  graphs_per_s counts
    a sweep of one large graph at the trimmed mean of its passes, and a
    sweep of many small graphs at each graph's fastest pass: a pass of a
    small graph takes well under a millisecond, much less than a spell of
    slow execution, so over a run each graph gets at least one pass at the
    machine's full speed.

    Every time is then scaled by PROBE_REFERENCE_S over the median probe
    time of the run: the host's other tenants slow a whole run, probe
    included, by up to 40 % against a run a few minutes earlier.
    """
    env = cli_env()
    samples: dict[str, list[float]] = {"probe": [], "setup": [], "pipeline": []}
    samples.update((op, []) for op, _ in cli_ops(w))
    passes: list[list[float]] = [[] for _ in w.sweep]  # each sweep graph's pass times
    peak = 0.0
    for _ in rounds(seconds):
        samples["probe"].append(probe_seconds(env))
        samples["setup"].append(setup_seconds(env))
        for op, args in cli_ops(w):
            result = tally.run(run_cli, ref, w, env, op, args)
            if result is not None:
                samples[op].append(result[0])
                peak = max(peak, result[1])
        samples["probe"].append(probe_seconds(env))
        for _ in range(SWEEPS_PER_ROUND):
            spent = [tally.run(pipeline, gs, ref, item, f"{w.name} pipeline #{i}")
                     for i, item in enumerate(w.sweep)]
            samples["pipeline"].append(sum(t for t in spent if t is not None))
            for times, t in zip(passes, spent):
                if t is not None:
                    times.append(t)
        if w.atlas:
            for i, item in enumerate(w.sweep):
                tally.run(cell_report, gs, ref, item, f"atlas cells #{i}")
            for i, pair in enumerate(w.pairs):
                tally.run(equivalent_pair, gs, ref, pair, f"atlas pair #{i}")
    if w.check_copy:
        check_copy(gs, ref, w)
    with open(os.path.join(WORK, f"samples-{w.name}.json"), "w", encoding="utf-8") as fh:
        json.dump(samples, fh)
    scale = PROBE_REFERENCE_S / statistics.median(samples["probe"])
    metrics = {f"{op}_s": typical(samples[op]) * scale for op, _ in cli_ops(w) if samples[op]}
    if peak:
        metrics["peak_rss_mb"] = peak
    if all(passes):
        pick = typical if len(passes) == 1 else min
        metrics["graphs_per_s"] = len(passes) / (sum(pick(times) for times in passes) * scale)
    metrics["setup_s"] = statistics.median(samples["setup"]) * scale
    return metrics


def check_copy(gs, ref, w) -> None:
    """D and Fix of COPY must equal those of FILE."""
    try:
        g = gs.parse_edge_list(w.copy.text())[0]
        verdict = gs.check_amenable(g)
        report = analyze_or_refuse(gs, g, verdict)
    except (Failed, gs.errors.GraphSymError) as exc:
        raise ref.Mismatch(f"{w.name} COPY: {exc}") from exc
    check_answers(ref, w.expected, verdict, report, f"{w.name} COPY")


# --------------------------------------------------------------- traced run


def traced_case(gs, ref, w, rec) -> None:
    """Each layer on FILE, COPY and OTHER, as the CLI answers need them."""
    graphs = {}
    for tag, inp in (("FILE", w.file), ("COPY", w.copy), ("OTHER", w.other)):
        text = inp.text()
        if inp.graph6:
            with rec.span("formats.decode_graph6", tag):
                graphs[tag] = call(gs.decode_graph6, text)
        else:
            with rec.span("formats.parse_edge_list", tag):
                graphs[tag] = call(gs.parse_edge_list, text)[0]
            with rec.span("graph.from_edge_list", tag):
                call(gs.from_edge_list, inp.n, inp.edges)
    if w.piece is not None:
        with rec.span("formats.decode_graph6", "PIECE"):
            piece = call(gs.decode_graph6, w.piece[0])
        if list(piece.edges()) != w.piece[1]:
            raise ref.Mismatch(f"{w.name}: the graph6 piece decoded to other edges")
    g = graphs["FILE"]
    with rec.span("refinement.stable_partition", "FILE"):
        p = call(gs.stable_partition, g)
    ref.check_cells(w.cells, p.cells, f"{w.name} traced")
    with rec.span("cells.build_cell_graph", "FILE"):
        cg = call(gs.build_cell_graph, g, p)
    with rec.span("cells.anisotropic_components", "FILE"):
        call(gs.anisotropic_components, cg)
    with rec.span("amenability.check_amenable", "FILE"):
        verdict = call(gs.check_amenable, g)
    with rec.span("symmetry.analyze", "FILE"):
        report = analyze_or_refuse(gs, g, verdict)
    check_answers(ref, w.expected, verdict, report, f"{w.name} traced")
    for suffix, tag, expected in (("", "COPY", "Isomorphic"), ("_distinct", "OTHER", "NotIsomorphic")):
        with rec.span(f"refinement.cr_iso_test{suffix}", tag):
            cr = call(gs.cr_iso_test, g, graphs[tag])
        if (cr.outcome.value == "Distinguished") != (expected == "NotIsomorphic"):
            raise ref.Mismatch(f"{w.name} traced: cr_iso_test said {cr.outcome.value} on {tag}")
        with rec.span(f"amenability.amenable_iso{suffix}", tag):
            iso = call(gs.amenable_iso, g, graphs[tag])
        ref.check_iso(expected, iso.value, f"{w.name} traced {tag}")


def traced(gs, ref, w, seconds: float, tally: Tally) -> dict[str, float]:
    """The same operations as the untraced run, with one span per layer call.

    The CLI answers dist by a process, as in the untraced run, and amenable,
    fix and both iso answers in process by traced_case.  On large workloads
    traced_case also answers the pipeline on FILE; atlas runs its sweep.
    """
    from spans import Recorder

    env = cli_env()
    rec = Recorder()
    round_spans: list[int] = []
    for _ in rounds(seconds):
        with rec.span("round") as r:
            round_spans.append(r)
            with rec.span("cli.dist", "FILE"):
                tally.run(run_cli, ref, w, env, "dist", ["dist", w.file.path])
            with rec.span("case"):
                tally.run(traced_case, gs, ref, w, rec, count=4 if w.atlas else 5)
            if w.atlas:
                for i, item in enumerate(w.sweep):
                    tally.run(pipeline, gs, ref, item, f"atlas pipeline #{i}", rec)
                    tally.run(cell_report, gs, ref, item, f"atlas cells #{i}", rec)
                for i, pair in enumerate(w.pairs):
                    tally.run(equivalent_pair, gs, ref, pair, f"atlas pair #{i}")
    rec.dump(os.path.join(WORK, f"spans-{w.name}.json"))
    return layer_metrics(rec, round_spans)


def layer_metrics(rec, rounds: list[int]) -> dict[str, float]:
    """Per-layer seconds per round, as medians over rounds.

    amenability.self is check_amenable minus stable_partition minus
    build_cell_graph over the same graphs; cli.self is the CLI's dist time
    minus loading FILE, check_amenable and analyze on it in process.
    """
    totals: dict[int, dict[str, float]] = {r: {} for r in rounds}
    in_process: dict[int, float] = {r: 0.0 for r in rounds}
    for i, s in enumerate(rec.spans):
        r = rec.ancestor(i, "round")
        if r is None:
            continue
        totals[r][s.name] = totals[r].get(s.name, 0.0) + s.seconds
        if s.input == "FILE" and s.name in CLI_SELF_SPANS and rec.ancestor(i, "case") is not None:
            in_process[r] += s.seconds
    values: dict[str, list[float]] = {name: [] for name in PER_LAYER}
    for r in rounds:
        t = totals[r]
        for name in LAYER_SPANS:
            if name in t:
                values[f"{name}_s"].append(t[name])
        values["amenability.self_s"].append(
            t.get("amenability.check_amenable", 0.0) - t.get("refinement.stable_partition", 0.0)
            - t.get("cells.build_cell_graph", 0.0))
        values["cli.self_s"].append(t.get("cli.dist", 0.0) - in_process[r])
    return {name: statistics.median(v) for name, v in values.items() if v}


# -------------------------------------------------------------------- main


def run_one(workload: str, seed: int, seconds: float, trace: bool) -> int:
    sys.path.insert(0, SRC)
    import graphsym as gs
    import reference as ref
    import workloads

    os.makedirs(WORK, exist_ok=True)
    w = workloads.build(workload, seed, os.path.join(WORK, workload))
    # Keep the benchmark's own objects (networkx graphs, expected answers)
    # out of the collections that run inside timed library calls.
    gc.collect()
    gc.freeze()
    tally = Tally()
    units = {name: "s" for name in PER_LAYER} if trace else END_TO_END
    try:
        metrics = (traced if trace else end_to_end)(gs, ref, w, seconds, tally)
        correct = True
    except ref.Mismatch as exc:
        print(f"perfbench: wrong answer: {exc}", file=sys.stderr)
        metrics, correct = {}, False
    print(json.dumps({
        "correct": correct, "attempted": tally.attempted, "failed": tally.failed,
        "metrics": {k: {"value": v, "unit": units[k]} for k, v in metrics.items()},
    }))
    return 0 if correct else 1


def run_all(seed: int, seconds: float, trace: int) -> int:
    """Each workload in its own process, then one table and one JSON line."""
    results = {}
    for name in WORKLOADS:
        proc = subprocess.run(
            [sys.executable, os.path.join(HERE, "run.py"), "--workload", name, "--seed", str(seed),
             "--seconds", str(seconds), "--trace", str(trace)],
            stdout=subprocess.PIPE, text=True, cwd=ROOT)
        lines = proc.stdout.strip().splitlines()
        if not lines:
            print(f"perfbench: {name} printed no result (exit code {proc.returncode})", file=sys.stderr)
            return 1
        results[name] = json.loads(lines[-1])
    for name, res in results.items():
        print(f"{name}: correct={res['correct']} attempted={res['attempted']} failed={res['failed']}")
        for metric, m in res["metrics"].items():
            print(f"  {metric:38s} {m['value']:12.6g} {m['unit']}")
    print(json.dumps(results))
    return 0 if all(res["correct"] for res in results.values()) else 1


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description="Layered benchmark for graphsym.")
    parser.add_argument("--workload", choices=WORKLOADS + ("all",), default="all")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not os.path.isfile(os.path.join(SRC, "graphsym", "cli.py")):
        print(f"perfbench: no graphsym sources under {SRC}; run from the root of a checkout",
              file=sys.stderr)
        return 2
    if args.workload == "all":
        return run_all(args.seed, args.seconds, args.trace)
    return run_one(args.workload, args.seed, args.seconds, bool(args.trace))


if __name__ == "__main__":
    sys.exit(main())
