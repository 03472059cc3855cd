"""Command-line front end.

Exit codes: 0 success, 1 parse/IO or usage errors, 2 NotAmenable or TooLarge.
With --json every result and error is a single JSON object on stdout.
"""

from __future__ import annotations

import argparse
import json
import sys
import time

from . import generators, oracle
from .amenability import amenable_iso, check_amenable
from .cells import anisotropic_components, cell_graph_of_equitable
from .errors import GraphSymError, NotAmenable, TooLarge
from .formats import decode_graph6, encode_graph6, format_edge_list, parse_edge_list
from .graph import Graph
from .refinement import stable_partition
from .symmetry import analyze

EXIT_OK = 0
EXIT_IO = 1
EXIT_REFUSED = 2  # NotAmenable or TooLarge


def _read_text(path: str) -> str:
    if path == "-":
        return sys.stdin.read()
    with open(path, "r", encoding="utf-8") as fh:
        return fh.read()


def _load_graph(path: str, fmt: str | None) -> Graph:
    if fmt is None:
        fmt = "graph6" if path.endswith((".g6", ".graph6")) else "edgelist"
    text = _read_text(path)
    if fmt == "graph6":
        return decode_graph6(text)
    g, _report = parse_edge_list(text)
    return g


def _emit(args, payload: dict, human: str) -> None:
    if args.json:
        print(json.dumps(payload, sort_keys=True))
    else:
        print(human)


def _fail(args, exc: Exception, code: int) -> int:
    payload: dict = {"error": type(exc).__name__, "message": str(exc)}
    if isinstance(exc, NotAmenable):
        payload["verdict"] = exc.verdict.to_json()
    if args.json:
        print(json.dumps(payload, sort_keys=True))
    else:
        print(f"error: {exc}", file=sys.stderr)
    return code


def _cmd_refine(args) -> int:
    g = _load_graph(args.graph, args.format)
    p = stable_partition(g)
    _emit(args, p.to_json(), "\n".join(" ".join(map(str, c)) for c in p.cells))
    return EXIT_OK


def _cmd_cells(args) -> int:
    g = _load_graph(args.graph, args.format)
    cg = cell_graph_of_equitable(g, stable_partition(g))
    forest = anisotropic_components(cg)
    payload = cg.to_json()
    payload["components"] = forest.to_json()["components"]
    _emit(args, payload, json.dumps(payload, indent=2, sort_keys=True))
    return EXIT_OK


def _cmd_amenable(args) -> int:
    g = _load_graph(args.graph, args.format)
    verdict = check_amenable(g)
    human = "amenable" if verdict.amenable else f"not amenable ({verdict.failure.to_json()})"
    _emit(args, verdict.to_json(), human)
    return EXIT_OK


def _symmetry_command(args, field: str) -> int:
    g = _load_graph(args.graph, args.format)
    try:
        report = analyze(g)
    except NotAmenable as exc:
        return _fail(args, exc, EXIT_REFUSED)
    if args.components:
        _emit(args, report.to_json(), json.dumps(report.to_json(), indent=2, sort_keys=True))
    else:
        value = getattr(report, field)
        _emit(args, {field: value}, str(value))
    return EXIT_OK


def _cmd_dist(args) -> int:
    return _symmetry_command(args, "dist_number")


def _cmd_fix(args) -> int:
    return _symmetry_command(args, "fix_number")


def _cmd_iso(args) -> int:
    g = _load_graph(args.graph, args.format)
    h = _load_graph(args.other, args.format)
    verdict = amenable_iso(g, h)
    _emit(args, {"verdict": verdict.value}, verdict.value)
    return EXIT_OK


def _cmd_oracle(args) -> int:
    g = _load_graph(args.graph, args.format)
    limit = args.max_oracle_n
    try:
        if args.op == "aut":
            group = oracle.automorphisms(g, limit_n=limit)
            _emit(args, {"order": group.order}, str(group.order))
        elif args.op == "dist":
            value = oracle.dist_number_bf(g, limit=limit)
            _emit(args, {"dist_number": value}, str(value))
        elif args.op == "fix":
            value = oracle.fix_number_bf(g, limit=limit)
            _emit(args, {"fix_number": value}, str(value))
        else:  # count
            value = oracle.dist_count_bf(g, c=args.colors, limit=limit)
            _emit(args, {"dist_count": value, "colors": args.colors}, str(value))
    except TooLarge as exc:
        return _fail(args, exc, EXIT_REFUSED)
    return EXIT_OK


def _write_graph(args, g: Graph) -> None:
    text = encode_graph6(g) + "\n" if args.format == "graph6" else format_edge_list(g)
    if args.out == "-":
        sys.stdout.write(text)
    else:
        with open(args.out, "w", encoding="utf-8") as fh:
            fh.write(text)


def _cmd_gen(args) -> int:
    if args.source == "named":
        g = generators.named(args.family, *[int(p) for p in args.params])
    elif args.source == "random":
        g, _partition = generators.random_amenable(args.n, seed=args.seed)
    else:  # spec
        spec = generators.GraphSpec.from_json(json.loads(_read_text(args.spec_file)))
        g, _partition = generators.generate(spec, seed=args.seed)
    _write_graph(args, g)
    return EXIT_OK


def _cmd_bench(args) -> int:
    sizes = [int(s) for s in args.sizes.split(",")]
    print("n,m,refine_s,amenable_s,symmetry_s", flush=True)
    prev_total = None
    for size in sizes:
        g, _partition = generators.random_amenable(size, seed=args.seed)
        t0 = time.perf_counter()
        stable_partition(g)
        t1 = time.perf_counter()
        verdict = check_amenable(g)
        t2 = time.perf_counter()
        report = analyze(g, verdict=verdict)
        t3 = time.perf_counter()
        amenable_s, symmetry_s = t2 - t1, t3 - t2
        print(f"{g.n},{g.m},{t1 - t0:.4f},{amenable_s:.4f},{symmetry_s:.4f}", flush=True)
        total = amenable_s + symmetry_s
        note = ""
        if prev_total:
            note = f" (x{total / prev_total:.2f} vs previous size)"
        print(
            f"n={g.n} m={g.m} D={report.dist_number} Fix={report.fix_number} "
            f"amenable+symmetry {total:.3f}s{note}",
            file=sys.stderr,
        )
        prev_total = total
    return EXIT_OK


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="graphsym",
        description="Color refinement, amenability, distinguishing and fixing numbers.",
    )
    parser.add_argument("--json", action="store_true", help="machine-readable output")
    sub = parser.add_subparsers(dest="command", required=True)

    def add_graph_cmd(name: str, func, help_: str):
        p = sub.add_parser(name, help=help_)
        p.add_argument("graph", help="input file, or - for stdin")
        p.add_argument("--format", choices=["edgelist", "graph6"],
                       help="default: by extension (.g6 -> graph6)")
        p.set_defaults(func=func)
        return p

    add_graph_cmd("refine", _cmd_refine, "stable partition")
    add_graph_cmd("cells", _cmd_cells, "cell graph and anisotropic forest")
    add_graph_cmd("amenable", _cmd_amenable, "amenability verdict")
    for name, func in (("dist", _cmd_dist), ("fix", _cmd_fix)):
        p = add_graph_cmd(name, func, f"{name} number (amenable graphs)")
        p.add_argument("--components", action="store_true",
                       help="print the per-component breakdown")

    p = sub.add_parser("iso", help="isomorphism test, exact under amenability")
    p.add_argument("graph")
    p.add_argument("other")
    p.add_argument("--format", choices=["edgelist", "graph6"])
    p.set_defaults(func=_cmd_iso)

    p = sub.add_parser("oracle", help="brute-force ground truth (small graphs)")
    p.add_argument("op", choices=["aut", "dist", "fix", "count"])
    p.add_argument("graph")
    p.add_argument("--format", choices=["edgelist", "graph6"])
    p.add_argument("--max-oracle-n", type=int, default=oracle.SEARCH_LIMIT_DEFAULT,
                   help="size guard for exhaustive search")
    p.add_argument("-c", "--colors", type=int, default=2, help="colors for count")
    p.set_defaults(func=_cmd_oracle)

    p = sub.add_parser("gen", help="emit an instance")
    gen_sub = p.add_subparsers(dest="source", required=True)
    p_named = gen_sub.add_parser("named", help="kn, pn, cn, kab, rk2, figure1, jellyfish_fig3")
    p_named.add_argument("family")
    p_named.add_argument("params", nargs="*")
    p_random = gen_sub.add_parser("random", help="random validated amenable graph")
    p_random.add_argument("--n", type=int, required=True)
    p_spec = gen_sub.add_parser("spec", help="from a JSON component spec")
    p_spec.add_argument("spec_file")
    for q in (p_named, p_random, p_spec):
        q.add_argument("--seed", type=int, default=0)
        q.add_argument("--out", default="-")
        q.add_argument("--format", choices=["edgelist", "graph6"], default="edgelist")
        q.set_defaults(func=_cmd_gen)

    p = sub.add_parser("bench", help="timing table for generated instances (CSV on stdout)")
    p.add_argument("--sizes", default="10000,20000,40000,80000,160000")
    p.add_argument("--seed", type=int, default=0)
    p.set_defaults(func=_cmd_bench)

    return parser


def run(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except (NotAmenable, TooLarge) as exc:
        return _fail(args, exc, EXIT_REFUSED)
    except (OSError, GraphSymError) as exc:
        return _fail(args, exc, EXIT_IO)


def main() -> None:
    sys.exit(run())


if __name__ == "__main__":
    main()
