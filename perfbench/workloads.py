"""The four workloads: input files drawn from a seed plus the answers they must get.

``build`` writes FILE, COPY (a random relabelling) and OTHER (COPY with one
edge moved) into a work directory and computes every expected answer with
``reference``, before anything of the fast path runs.
"""

from __future__ import annotations

import os
import random
from collections import Counter
from dataclasses import dataclass, field

import draw
import reference as ref

PIECE_N = 1000  # vertices of the graph6 piece decoded in traced runs of large workloads
REDRAWS = 50


@dataclass(frozen=True)
class Input:
    """One input file and the graph it holds."""

    path: str
    n: int
    edges: list[tuple[int, int]]

    @property
    def graph6(self) -> bool:
        return self.path.endswith(".g6")

    def text(self) -> str:
        with open(self.path, encoding="utf-8") as fh:
            return fh.read()


@dataclass(frozen=True)
class SweepItem:
    """One graph of the in-process pipeline: its text, answers and cells."""

    text: str
    graph6: bool
    expected: ref.Expected
    cells: ref.Cells


@dataclass
class Workload:
    name: str
    file: Input
    copy: Input
    other: Input
    expected: ref.Expected  # for FILE, and so for COPY
    cells: ref.Cells  # FILE's cells by naive refinement
    # Large workloads sweep FILE alone; atlas sweeps all its graphs and also
    # builds every cell-graph report and tests every CR-equivalent pair.
    sweep: list[SweepItem]
    atlas: bool = False
    pairs: list[tuple[str, str]] = field(default_factory=list)  # graph6 texts, CR-equivalent
    piece: tuple[str, list[tuple[int, int]]] | None = None  # graph6 text and its edges
    check_copy: bool = False  # require equal D and Fix on COPY


def _write(path: str, text: str) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(text)


def _edge_list_input(path: str, n: int, edges: list[tuple[int, int]]) -> Input:
    _write(path, draw.edge_list_text(n, edges))
    return Input(path, n, edges)


def _pair_files(rng: random.Random, workdir: str, n: int, edges) -> tuple[Input, Input]:
    _, copy_edges = draw.relabel(rng, n, edges)
    other_edges = draw.move_edge(rng, n, copy_edges)
    copy = _edge_list_input(os.path.join(workdir, "copy.txt"), n, copy_edges)
    other = _edge_list_input(os.path.join(workdir, "other.txt"), n, other_edges)
    return copy, other


def _large(name: str, rng: random.Random, workdir: str, n: int, edges, expected, cells) -> Workload:
    file = _edge_list_input(os.path.join(workdir, "file.txt"), n, edges)
    copy, other = _pair_files(rng, workdir, n, edges)
    head = [(u, v) for u, v in edges if u < PIECE_N and v < PIECE_N]
    piece_n = min(n, PIECE_N)
    return Workload(
        name=name, file=file, copy=copy, other=other, expected=expected, cells=cells,
        sweep=[SweepItem(file.text(), False, expected, cells)],
        piece=(draw.graph6(piece_n, head), sorted(tuple(sorted(e)) for e in head)),
        check_copy=name == "gnm",
    )


def _chain(rng: random.Random, workdir: str) -> Workload:
    for _ in range(REDRAWS):
        d = draw.draw_chain(rng)
        cells = ref.naive_cells(d.n, ref.adjacency(d.n, d.edges))
        if cells == ref.canonical(d.cells):
            return _large("chain", rng, workdir, d.n, d.edges,
                          ref.chain_expected(d.chains, d.isolated), cells)
    raise RuntimeError("no chain draw kept its construction cells under refinement")


def _tree(rng: random.Random, workdir: str) -> Workload:
    parent = draw.draw_tree(rng)
    edges = draw.tree_edges(parent)
    n = len(parent)
    cells = ref.naive_cells(n, ref.adjacency(n, edges))
    return _large("tree", rng, workdir, n, edges, ref.tree_expected(parent), cells)


def _gnm(rng: random.Random, workdir: str) -> Workload:
    """G(n, 3n), redrawn until every refinement cell is a twin class.

    That makes D, Fix and the verdict exact by the argument in
    ``reference.twin_expected``; draws that fail it (for example two isolated
    edges, whose four ends share a cell) are redrawn from the same stream.
    """
    n = draw.GNM_N
    for _ in range(REDRAWS):
        edges = draw.draw_gnm(rng)
        adj = ref.adjacency(n, edges)
        cells = ref.naive_cells(n, adj)
        if ref.cells_are_twin_classes(cells, adj):
            return _large("gnm", rng, workdir, n, edges, ref.twin_expected(cells), cells)
    raise RuntimeError("no G(n, m) draw had twin-class cells only")


def _atlas(rng: random.Random, workdir: str) -> Workload:
    """All atlas graphs in the sweep; one 7-vertex amenable graph for the CLI.

    A graph is amenable iff no other atlas graph of its order has the same
    1-WL hash, since the atlas lists each isomorphism class once and colour
    refinement only confuses graphs of equal order.
    """
    graphs = draw.atlas()
    hashes = [(n, draw.wl_hash(n, edges)) for n, edges in graphs]
    count = Counter(hashes)
    amenable = [count[h] == 1 for h in hashes]
    texts = [draw.graph6(n, edges) for n, edges in graphs]
    sweep = [
        SweepItem(text, True, ref.small_expected(n, edges, ok), ref.naive_cells(n, ref.adjacency(n, edges)))
        for text, (n, edges), ok in zip(texts, graphs, amenable)
    ]
    groups: dict[tuple, list[int]] = {}
    for i, h in enumerate(hashes):
        groups.setdefault(h, []).append(i)
    pairs = [(texts[a], texts[b]) for a, b in (g for g in groups.values() if len(g) == 2)]
    if any(len(g) > 2 for g in groups.values()):
        raise RuntimeError("an atlas CR class has more than two graphs")

    choices = [i for i, (n, edges) in enumerate(graphs)
               if n == 7 and amenable[i] and 0 < len(edges) < 21]
    while True:
        i = rng.choice(choices)
        n, edges = graphs[i]
        try:
            copy, other = _pair_files(rng, workdir, n, edges)
            break
        except ValueError:  # no edge move changes this graph's degree sequence
            continue
    file = Input(os.path.join(workdir, "file.g6"), n, edges)
    _write(file.path, texts[i] + "\n")
    return Workload(name="atlas", file=file, copy=copy, other=other, expected=sweep[i].expected,
                    cells=sweep[i].cells, sweep=sweep, atlas=True, pairs=pairs)


def build(name: str, seed: int, workdir: str) -> Workload:
    os.makedirs(workdir, exist_ok=True)
    rng = random.Random(f"{name}:{seed}")
    return {"chain": _chain, "tree": _tree, "gnm": _gnm, "atlas": _atlas}[name](rng, workdir)
