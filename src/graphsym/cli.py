"""Command-line front end.

Exit codes: 0 success; 1 parse/IO or usage errors, including BadSpec for a
malformed ``gen spec`` file; 2 NotAmenable or TooLarge; 3 InternalError, a
bug in graphsym reported in place of a traceback.  With --json every result
and error is a single JSON object on stdout.

Each command imports the modules it runs when it runs, so an answer does
not pay for loading the symmetry, oracle or generator code it never uses.
"""

from __future__ import annotations

import argparse
import json
import sys

from .amenability import amenable_iso, check_amenable
from .cells import anisotropic_components, cell_graph_of_equitable
from .errors import (
    BadEdgeList, BadGraph6, BadSpec, GraphSymError, InternalError, NotAmenable, TooLarge,
    UsageError,
)
from .formats import decode_graph6, encode_graph6, format_edge_list, parse_edge_list
from .graph import Graph
from .refinement import stable_partition

EXIT_OK = 0
EXIT_IO = 1
EXIT_REFUSED = 2  # NotAmenable or TooLarge
EXIT_INTERNAL = 3  # InternalError, or any other exception: a bug


def _read_text(path: str, fmt: str) -> str:
    """The text of path, or of stdin for "-".  Input that is not UTF-8
    raises the error of fmt: "graph6", "edgelist" or "spec"."""
    try:
        if path == "-":
            return sys.stdin.read()
        with open(path, "r", encoding="utf-8") as fh:
            return fh.read()
    except UnicodeDecodeError as exc:
        reason = f"not UTF-8 ({exc.reason})"
        if fmt == "graph6":
            raise BadGraph6(exc.start, reason) from None
        if fmt == "edgelist":
            raise BadEdgeList(exc.object.count(b"\n", 0, exc.start) + 1, reason) from None
        raise BadSpec(f"{reason} at byte {exc.start}") from None


def _load_graph(path: str, fmt: str | None) -> Graph:
    if fmt is None:
        fmt = "graph6" if path.endswith((".g6", ".graph6")) else "edgelist"
    text = _read_text(path, fmt)
    if fmt == "graph6":
        return decode_graph6(text)
    g, _report = parse_edge_list(text)
    return g


def _emit(args, payload: dict, human: str | None = None) -> None:
    """Print payload as one JSON line under --json, else the human text.
    No human text stands for the payload indented, built only when printed."""
    if args.json:
        print(json.dumps(payload, sort_keys=True))
    elif human is None:
        print(json.dumps(payload, indent=2, sort_keys=True))
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
    human = None if args.json else "\n".join(" ".join(map(str, c)) for c in p.cells)
    _emit(args, p.to_json(), human)
    return EXIT_OK


def _cmd_cells(args) -> int:
    g = _load_graph(args.graph, args.format)
    cg = cell_graph_of_equitable(g, stable_partition(g))
    payload = cg.to_json()
    payload["components"] = [c.to_json() for c in anisotropic_components(cg)]
    _emit(args, payload)
    return EXIT_OK


def _cmd_amenable(args) -> int:
    g = _load_graph(args.graph, args.format)
    verdict = check_amenable(g)
    human = "amenable" if verdict.amenable else f"not amenable ({verdict.failure.to_json()})"
    _emit(args, verdict.to_json(), human)
    return EXIT_OK


def _symmetry_command(args, field: str) -> int:
    from .symmetry import analyze

    g = _load_graph(args.graph, args.format)
    report = analyze(g)
    if args.components:
        _emit(args, report.to_json())
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
    from . import oracle

    g = _load_graph(args.graph, args.format)
    limit = args.max_oracle_n
    if limit is None:
        limit = oracle.SEARCH_LIMIT_DEFAULT
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
    return EXIT_OK


def _write_graph(args, g: Graph) -> None:
    text = encode_graph6(g) + "\n" if args.format == "graph6" else format_edge_list(g)
    if args.out == "-":
        sys.stdout.write(text)
    else:
        with open(args.out, "w", encoding="utf-8") as fh:
            fh.write(text)


def _load_spec(text: str):
    """Decode a JSON spec; generate checks what it holds."""
    try:
        return json.loads(text)
    except RecursionError as exc:
        raise BadSpec("nested too deeply") from exc
    except ValueError as exc:
        raise BadSpec(f"{type(exc).__name__}: {exc}") from exc


def _cmd_gen(args) -> int:
    from . import generators

    if args.source == "named":
        g = generators.named(args.family, *[int(p) for p in args.params])
    elif args.source == "random":
        g, _partition = generators.random_amenable(args.n, seed=args.seed)
    else:  # spec
        spec = _load_spec(_read_text(args.spec_file, "spec"))
        g, _partition = generators.generate(spec, seed=args.seed)
    _write_graph(args, g)
    return EXIT_OK


class _Parser(argparse.ArgumentParser):
    """Raises UsageError where argparse would print usage and exit 2."""

    def error(self, message: str):
        raise UsageError(self.prog, message, self.format_usage())


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
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
    p.add_argument("--max-oracle-n", type=int,
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

    return parser


def run(argv: list[str] | None = None) -> int:
    if argv is None:
        argv = sys.argv[1:]
    try:
        args = build_parser().parse_args(argv)
    except UsageError as exc:
        args = argparse.Namespace(json="--json" in argv)
        if not args.json:
            sys.stderr.write(exc.usage)
        return _fail(args, exc, EXIT_IO)
    try:
        return args.func(args)
    except (NotAmenable, TooLarge) as exc:
        return _fail(args, exc, EXIT_REFUSED)
    except InternalError as exc:
        return _fail(args, exc, EXIT_INTERNAL)
    except (OSError, GraphSymError) as exc:
        return _fail(args, exc, EXIT_IO)
    except Exception as exc:  # a bug: report it with where it was raised
        import traceback

        where = traceback.extract_tb(exc.__traceback__)[-1]
        bug = InternalError(
            f"{type(exc).__name__}: {exc} (in {where.name}, {where.filename}:{where.lineno})"
        )
        return _fail(args, bug, EXIT_INTERNAL)


def main() -> None:
    sys.exit(run())


if __name__ == "__main__":
    main()
