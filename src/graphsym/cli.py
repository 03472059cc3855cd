"""Command-line front end.

A graph command maps the loaded graph and ``args`` to its answer ``(payload,
human)``, and ``human=None`` means the payload is printed indented.
``amenable``, ``cells`` and ``dist``/``fix --components`` hand over the
payload as its JSON text, which the text writers beside the records write
byte for byte as ``json.dumps(payload, sort_keys=True)`` would: it is
printed as is under --json, and indented from its ``json.loads`` otherwise.
``run`` loads the input, except for ``iso`` (which forks before it loads)
and ``gen`` (which writes a graph and answers None), prints the answer and
maps errors to exit codes.

Exit codes: 0 success; 1 parse/IO or usage errors, including BadSpec for a
malformed ``gen spec`` file and a closed stdin, or a closed or failing
stdout (then with one ``error:`` line on stderr, even under --json); 2
NotAmenable or TooLarge; 3 InternalError, a bug in graphsym reported in
place of a traceback.  With --json every result and error is a single JSON
object on stdout.

``main`` is the ``graphsym`` script and ``python -m graphsym.cli``.  It
switches the cyclic collector off for the one command it runs (nothing
graphsym builds holds a cycle), flushes stdout and stderr, and leaves with
``os._exit``: the interpreter is not torn down, so no ``atexit`` handler
runs.  ``run`` is the entry for library callers and tests; it leaves the
collector as it found it and returns the exit code.

Each command imports the modules it runs when it runs, so an answer does
not pay for loading code it never uses.  Importing this module loads only
``errors``, ``formats`` and ``graph``; ``refine`` adds ``refinement``,
``cells`` adds ``refinement`` and ``cells``, ``amenable`` and ``iso`` on
equal degree sequences add those and ``amenability``, and ``dist`` and
``fix`` add ``symmetry`` as well.

``iso`` answers NotIsomorphic on differing sorted degree sequences before
the refinement code is loaded, and otherwise compares the two quotients.
It loads and refines its second graph in a forked child while it does the
first, when both inputs are regular files of at least FORK_MIN_BYTES, the
process may run on two or more CPUs and the platform has ``os.fork``.  The
child writes two frames to a pipe, each an 8-byte length and then the
marshalled bytes: its degree sequence, flushed before it loads the
refinement code and refines, and then its quotient.  The parent reads the
first before it loads the refinement code and refines the first graph;
without a child the stages keep that order.  If the fork fails or a frame
is missing or unreadable, the second graph is loaded in process, so every
answer, error and exit code is the one without a child.  The child is
killed and reaped once the answer is known or an error is raised.
"""

from __future__ import annotations

import argparse
import errno
import gc
import json
import marshal
import os
import stat
import sys
from typing import BinaryIO

from .errors import (
    BadEdgeList, BadGraph6, BadSpec, GraphSymError, InternalError, NotAmenable, TooLarge,
    UsageError,
)
from .formats import decode_graph6, encode_graph6, format_edge_list, parse_edge_list
from .graph import Graph

EXIT_OK = 0
EXIT_IO = 1
EXIT_REFUSED = 2  # NotAmenable or TooLarge
EXIT_INTERNAL = 3  # InternalError, or any other exception: a bug

# iso forks only when the smaller input file has at least this many bytes.
# Above it the gain depends on the graph: none on the benchmark's tree
# files, 14-17 % on its chain and gnm files (README, iso).  ROADMAP item 9
# sets the bound from the benchmark's recorded data.
FORK_MIN_BYTES = 16 << 10


def _std(name: str):
    """sys.stdin or sys.stdout; OSError if the process was started with it
    closed, when Python sets it to None."""
    stream = getattr(sys, name)
    if stream is None:
        raise OSError(errno.EBADF, f"{name} is closed")
    return stream


def _read_text(path: str, fmt: str) -> str:
    """The text of path, or of stdin for "-".  Input that is not UTF-8
    raises the error of fmt: "graph6", "edgelist" or "spec"."""
    try:
        if path == "-":
            return _std("stdin").read()
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
    return parse_edge_list(text)[0]


def _emit(args, payload: dict | str | None, human: str | None) -> None:
    """Print an answer (see the module docstring), the indented payload built only
    when printed, and flush it, so that a failing stdout raises inside run."""
    if isinstance(payload, str) and not args.json:  # JSON text, printed indented
        payload = json.loads(payload)
    if isinstance(payload, str):
        human = payload
    elif args.json or human is None:
        human = json.dumps(payload, indent=None if args.json else 2, sort_keys=True,
                           check_circular=False)  # a fresh tree of dicts and lists
    print(human, file=_std("stdout"), flush=True)


def _fail(args, exc: Exception, code: int) -> int:
    """Report exc and return code.  If stdout fails while it takes the JSON
    report, the failure is reported on stderr instead, with code 1."""
    if args.json:
        text = json.dumps({"error": type(exc).__name__, "message": str(exc)}, sort_keys=True)
        if isinstance(exc, NotAmenable):  # "verdict" sorts last
            text = '%s, "verdict": %s}' % (text[:-1], exc.verdict.json_text())
        try:
            print(text, file=_std("stdout"), flush=True)
            return code
        except OSError as write_error:
            exc, code = write_error, EXIT_IO
    print(f"error: {exc}", file=sys.stderr)
    return code


def _cmd_refine(g: Graph, args) -> tuple[dict, str | None]:
    from .refinement import stable_partition

    p = stable_partition(g)
    return p.to_json(), None if args.json else "\n".join(" ".join(map(str, c)) for c in p.cells)


def _cmd_cells(g: Graph, args) -> tuple[str, None]:
    from .cells import anisotropic_components, cell_graph_of_equitable, components_text
    from .refinement import stable_partition

    cg = cell_graph_of_equitable(g, stable_partition(g))
    return '{"cells": %s, "components": %s, "pairs": %s}' % (
        cg.cells_text(), components_text(cg.cell_sizes, anisotropic_components(cg)),
        cg.pairs_text()), None


def _cmd_amenable(g: Graph, args) -> tuple[str | None, str | None]:
    from .amenability import check_amenable

    verdict = check_amenable(g)
    if not args.json:
        return None, "amenable" if verdict.amenable else f"not amenable: {verdict.failure}"
    return verdict.json_text(), None


def _cmd_symmetry(g: Graph, args) -> tuple[dict | str, str | None]:
    from .symmetry import analyze

    report = analyze(g)
    if args.components:
        return report.json_text(), None
    value = getattr(report, args.field)
    return {args.field: value}, str(value)


def _fork_pays(*paths: str) -> bool:
    """True when iso should refine its second graph in a child: see the
    module docstring."""
    if "-" in paths or not hasattr(os, "fork"):
        return False
    try:
        stats = [os.stat(path) for path in paths]
    except OSError:  # the load in process reports it
        return False
    if not all(stat.S_ISREG(st.st_mode) and st.st_size >= FORK_MIN_BYTES for st in stats):
        return False
    if hasattr(os, "sched_getaffinity"):
        return len(os.sched_getaffinity(0)) > 1
    return (os.cpu_count() or 1) > 1


def _fork_quotient(path: str, fmt: str | None) -> tuple[int, BinaryIO] | None:
    """Fork a child that loads the graph at path and writes two frames to a
    pipe, its degree sequence and then its quotient dict: (pid, read end),
    or None if the fork fails.  A frame is an 8-byte little-endian length,
    then that many marshalled bytes.

    The child flushes the first frame before it refines, and leaves with
    os._exit, never returning into the caller; the parent reads only its
    frames, not its exit status."""
    try:
        fd, w = os.pipe()
    except OSError:
        return None
    try:
        pid = os.fork()
    except OSError:  # EAGAIN, ENOMEM: load in process
        os.close(fd)
        os.close(w)
        return None
    if pid == 0:
        try:
            os.close(fd)
            h = _load_graph(path, fmt)

            def quotient():  # called once the degree frame is flushed
                from .refinement import _quotient

                return _quotient(h)[1]

            with open(w, "wb") as out:
                for value in (h.degree_sequence, quotient):
                    data = marshal.dumps(value())
                    out.write(len(data).to_bytes(8, "little") + data)
                    out.flush()
        finally:
            os._exit(0)
    os.close(w)
    return pid, open(fd, "rb")


def _frame(pipe: BinaryIO):
    """The value in the child's next frame, or None if the frame is missing,
    shorter than its length or not marshalled.  The frame is read whole
    first: marshal.load would read the pipe piece by piece."""
    size = int.from_bytes(pipe.read(8), "little")  # 0 when the frame is missing
    data = pipe.read(size)
    try:
        return marshal.loads(data) if len(data) == size else None
    except (EOFError, ValueError, TypeError):  # no marshalled value, b"" included
        return None


def _cmd_iso(args) -> tuple[dict, str | None]:
    child = _fork_quotient(args.other, args.format) if _fork_pays(args.graph, args.other) else None
    h = None
    try:  # the first graph's errors come first, as without a child
        g = _load_graph(args.graph, args.format)
        degrees = None if child is None else _frame(child[1])
        if degrees is None:  # no child, or no frame: loading here raises what it met, if anything
            h = _load_graph(args.other, args.format)
            degrees = h.degree_sequence()
        if degrees != g.degree_sequence():  # so the degree partitions, and the quotients, differ
            verdict = "NotIsomorphic"  # IsoVerdict.NOT_ISOMORPHIC.value, amenability not loaded
        else:
            from .amenability import iso_from_quotients
            from .refinement import _quotient

            raw, q_g = _quotient(g)
            q_h = _frame(child[1]) if h is None else None
            if q_h is None:  # h was loaded here, or the child failed after its first frame
                q_h = _quotient(_load_graph(args.other, args.format) if h is None else h)[1]
            verdict = iso_from_quotients(g, raw, q_g, q_h).value
    finally:
        if child is not None:  # done, failed, or its quotient is not needed
            import signal

            pid, pipe = child
            pipe.close()
            os.kill(pid, signal.SIGKILL)  # not yet reaped, so pid is still the child
            os.waitpid(pid, 0)
    return {"verdict": verdict}, verdict


def _cmd_oracle(g: Graph, args) -> tuple[dict, str | None]:
    from . import oracle

    limit = oracle.SEARCH_LIMIT_DEFAULT if args.max_oracle_n is None else args.max_oracle_n
    if args.op == "aut":
        payload = {"order": oracle.automorphisms(g, limit_n=limit).order}
    elif args.op == "dist":
        payload = {"dist_number": oracle.dist_number_bf(g, limit=limit)}
    elif args.op == "fix":
        payload = {"fix_number": oracle.fix_number_bf(g, limit=limit)}
    else:  # count
        payload = {"dist_count": oracle.dist_count_bf(g, c=args.colors, limit=limit),
                   "colors": args.colors}
    return payload, str(next(iter(payload.values())))  # the first value is the answer


def _load_spec(text: str):
    """Decode a JSON spec; generate checks what it holds."""
    try:
        return json.loads(text)
    except RecursionError as exc:
        raise BadSpec("nested too deeply") from exc
    except ValueError as exc:
        raise BadSpec(f"{type(exc).__name__}: {exc}") from exc


def _cmd_gen(args) -> None:
    from . import generators

    if args.source == "named":
        g = generators.named(args.family, *args.params)
    elif args.source == "random":
        g, _partition = generators.random_amenable(args.n, seed=args.seed)
    else:  # spec
        spec = _load_spec(_read_text(args.spec_file, "spec"))
        g, _partition = generators.generate(spec, seed=args.seed)
    text = encode_graph6(g) + "\n" if args.format == "graph6" else format_edge_list(g)
    if args.out == "-":
        print(text, end="", file=_std("stdout"), flush=True)
    else:
        with open(args.out, "w", encoding="utf-8") as fh:
            fh.write(text)


class _Parser(argparse.ArgumentParser):
    """Raises UsageError where argparse would print usage and exit 2."""

    def error(self, message: str):
        raise UsageError(self.prog, message, self.format_usage())


class _OtherGraph(argparse.Action):
    """Stores iso's second graph: stdin can feed only one of the two."""

    def __call__(self, parser, namespace, value, option_string=None):
        if value == "-" == namespace.graph:
            parser.error("stdin can feed only one graph; give the other as a file")
        setattr(namespace, self.dest, value)


def _at_least(low: int):
    """An argparse type: an int of at least ``low``."""
    def count(text: str) -> int:
        if int(text) < low:
            raise argparse.ArgumentTypeError(f"must be at least {low}, got {text}")
        return int(text)
    return count


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
    for name, field in (("dist", "dist_number"), ("fix", "fix_number")):
        p = add_graph_cmd(name, _cmd_symmetry, f"{name} number (amenable graphs)")
        p.add_argument("--components", action="store_true",
                       help="print the per-component breakdown")
        p.set_defaults(field=field)  # the number _cmd_symmetry prints without --components

    p = sub.add_parser("iso", help="isomorphism test, exact under amenability")
    p.add_argument("graph")
    p.add_argument("other", action=_OtherGraph)
    p.add_argument("--format", choices=["edgelist", "graph6"])
    p.set_defaults(func=_cmd_iso)

    p = sub.add_parser("oracle", help="brute-force ground truth (small graphs)")
    p.add_argument("op", choices=["aut", "dist", "fix", "count"])
    p.add_argument("graph")
    p.add_argument("--format", choices=["edgelist", "graph6"])
    p.add_argument("--max-oracle-n", type=_at_least(0),
                   help="size guard for exhaustive search")
    p.add_argument("-c", "--colors", type=_at_least(1), default=2, help="colors for count")
    p.set_defaults(func=_cmd_oracle)

    p = sub.add_parser("gen", help="emit an instance")
    gen_sub = p.add_subparsers(dest="source", required=True)
    p_named = gen_sub.add_parser("named", help="kn, pn, cn, kab, rk2, figure1, jellyfish_fig3")
    p_named.add_argument("family")
    p_named.add_argument("params", nargs="*", type=int)
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
        if args.command in ("iso", "gen"):  # they load their own input
            answer = args.func(args)
        else:
            answer = args.func(_load_graph(args.graph, args.format), args)
        if answer is not None:
            _emit(args, *answer)
        return EXIT_OK
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
    """Run the command of sys.argv and leave with os._exit: see the module
    docstring."""
    gc.disable()
    try:
        code = run()
    except SystemExit as exc:  # --help: argparse printed it and exits 0
        code = exc.code
    try:
        if sys.stdout is not None:
            sys.stdout.flush()  # only --help left output unflushed
    except OSError as exc:
        if code == EXIT_OK:  # otherwise _fail has reported on stderr
            code = _fail(argparse.Namespace(json=False), exc, EXIT_IO)
    try:
        if sys.stderr is not None:
            sys.stderr.flush()
    finally:
        os._exit(code)


if __name__ == "__main__":
    main()
