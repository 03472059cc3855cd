"""Color refinement (1-WL): coarsest equitable refinement and the CR isomorphism test."""

from __future__ import annotations

from bisect import bisect_left
from collections import defaultdict, deque
from enum import Enum
from itertools import accumulate, chain
from operator import itemgetter
from typing import Hashable, NamedTuple, Sequence

from .errors import InvalidPartition
from .graph import Graph, disjoint_union


class Partition(NamedTuple):
    """A partition of the vertex set 0..n-1.

    Canonical form: cells are numbered by their minimum vertex, and each
    cell lists its members in increasing order.  Use :meth:`from_cells` or
    :meth:`from_colors`; the constructor trusts its arguments.
    """

    cell_of: tuple[int, ...]
    cells: tuple[tuple[int, ...], ...]

    @property
    def n(self) -> int:
        return len(self.cell_of)

    @property
    def num_cells(self) -> int:
        return len(self.cells)

    @classmethod
    def from_colors(cls, colors: Sequence[int]) -> "Partition":
        """Group vertices by color value; colors need not be contiguous.

        One pass over the vertices: a cell is numbered when its lowest
        vertex is met, and its members are appended in increasing order.
        """
        index: dict[int, int] = {}
        cells: list[list[int]] = []
        cell_of: list[int] = []
        for v, col in enumerate(colors):
            c = index.get(col)
            if c is None:
                c = index[col] = len(cells)
                cells.append([v])
            else:
                cells[c].append(v)
            cell_of.append(c)
        return cls(cell_of=tuple(cell_of), cells=tuple(map(tuple, cells)))

    @classmethod
    def from_cells(cls, cells: Sequence[Sequence[int]], n: int | None = None) -> "Partition":
        members = [v for cell in cells for v in cell]
        if n is None:
            n = len(members)
        if sorted(members) != list(range(n)):
            raise InvalidPartition(f"cells do not partition 0..{n - 1}")
        colors = [0] * n
        for i, cell in enumerate(cells):
            for v in cell:
                colors[v] = i
        return cls.from_colors(colors)

    @classmethod
    def unit(cls, n: int) -> "Partition":
        return cls.from_colors([0] * n)

    @classmethod
    def discrete(cls, n: int) -> "Partition":
        return cls.from_colors(range(n))

    def to_json(self) -> dict:
        return {"cells": [list(c) for c in self.cells]}


class CrOutcome(Enum):
    DISTINGUISHED = "Distinguished"
    CR_EQUIVALENT = "CrEquivalent"


class CrVerdict(NamedTuple):
    outcome: CrOutcome
    witness_cell: int | None = None

    def to_json(self) -> dict:
        out: dict = {"outcome": self.outcome.value}
        if self.witness_cell is not None:
            out["witness_cell"] = self.witness_cell
        return out


def _check_initial(g: Graph, n: int) -> None:
    if n != g.n:
        raise InvalidPartition(f"partition covers {n} vertices, graph has {g.n}")


def _refine_colors(adj: Sequence[Sequence[int]], colors: Sequence[Hashable]) -> list[int]:
    """Worklist refinement core; returns a raw (non-canonical) cell id per vertex.

    The vertices of one color must have one degree.  Every equitable
    partition refines the degree partition, so this loses nothing, and it
    makes the whole vertex set a splitter already used: the neighbour counts
    into it are the degrees.  So, as when a used splitter splits, one initial
    cell is not queued, the one with the most neighbour entries.

    Splitters are whole current cells.  A splitter touches the vertices it
    has neighbours in; vertices of singleton cells are skipped, since those
    cells cannot split.  When a cell splits, its largest fragment keeps the
    old id, and with it the old id's place in the queue if it has one; every
    other fragment gets a new id and is queued.  A vertex is therefore queued
    anew only in a cell at most half the size of the one it left, which gives
    the (n + m) log n bound.  A cell splits in one of two ways:

    - touched against untouched, when all its touched vertices have the same
      count of splitter neighbours (always so for a singleton splitter, where
      the count is 1): no grouping, no sort;
    - by count, when they have two or more counts: the touched vertices are
      grouped by count and the groups ordered, after the untouched ones.
    """
    n = len(colors)
    index: dict[Hashable, int] = {}
    cell_of = [index.setdefault(col, len(index)) for col in colors]
    cell_size = [0] * len(index)
    for c in cell_of:
        cell_size[c] += 1
    cell_start = list(accumulate(cell_size, initial=0))[:-1]
    fill = cell_start[:]
    verts, pos = [0] * n, [0] * n
    for v, c in enumerate(cell_of):
        at = fill[c]
        fill[c] = at + 1
        verts[at], pos[v] = v, at

    heaviest = max(range(len(cell_size)), default=None,
                   key=lambda c: cell_size[c] * len(adj[verts[cell_start[c]]]))
    work = deque(c for c in range(len(cell_size)) if c != heaviest)
    cnt = [0] * n
    touched: defaultdict[int, list[int]] = defaultdict(list)
    while work:
        s = work.popleft()
        start = cell_start[s]
        touched.clear()
        counted = cell_size[s] > 1
        if counted:
            for v in verts[start: start + cell_size[s]]:
                for u in adj[v]:
                    if cnt[u]:
                        cnt[u] += 1
                    elif cell_size[c := cell_of[u]] > 1:
                        cnt[u] = 1
                        touched[c].append(u)
        else:
            for u in adj[verts[start]]:
                if cell_size[c := cell_of[u]] > 1:
                    touched[c].append(u)
        for c, tm in touched.items():
            groups = None
            if counted:
                first = cnt[tm[0]]
                for u in tm:
                    if cnt[u] != first:
                        groups = defaultdict(list)
                        for w in tm:
                            groups[cnt[w]].append(w)
                            cnt[w] = 0
                        break
                else:
                    for u in tm:
                        cnt[u] = 0
            lo, size, t = cell_start[c], cell_size[c], len(tm)
            rest = size - t
            if groups is not None:
                order = sorted(groups)
                moved = chain.from_iterable(map(groups.get, reversed(order)))
            elif rest:
                moved = tm
            else:
                continue
            end = lo + size
            for u in moved:  # the touched go to the end of the cell, counts ascending
                end -= 1
                pu, w = pos[u], verts[end]
                verts[end], verts[pu] = u, w
                pos[u], pos[w] = end, pu
            if groups is None:  # the touched are the new cell unless they outnumber the rest
                nid = len(cell_size)
                work.append(nid)
                if t <= rest:
                    cell_size[c] = rest
                    cell_start.append(end)
                    cell_size.append(t)
                    for u in tm:
                        cell_of[u] = nid
                else:
                    cell_start[c], cell_size[c] = end, t
                    cell_start.append(lo)
                    cell_size.append(rest)
                    for k in range(lo, end):
                        cell_of[verts[k]] = nid
                continue
            spans, at = [(lo, rest)] if rest else [], end
            for k in order:
                spans.append((at, len(groups[k])))
                at += len(groups[k])
            largest = spans.index(max(spans, key=itemgetter(1)))  # the first, on ties
            cell_start[c], cell_size[c] = spans.pop(largest)
            for at, sz in spans:
                nid = len(cell_size)
                cell_start.append(at)
                cell_size.append(sz)
                for k in range(at, at + sz):
                    cell_of[verts[k]] = nid
                work.append(nid)
    return cell_of


def refine(g: Graph, initial: Partition | Sequence[int]) -> Partition:
    """Coarsest equitable partition of g refining ``initial``.

    ``initial`` may be a Partition or a per-vertex color sequence.  The
    result is deterministic: cells are numbered by minimum vertex index.
    """
    colors = initial.cell_of if isinstance(initial, Partition) else initial
    _check_initial(g, len(colors))
    return Partition.from_colors(
        _refine_colors(g.adjacency, list(zip(colors, map(len, g.adjacency)))))


def stable_partition(g: Graph) -> Partition:
    """Coarsest equitable partition of g (refinement of the unit partition),
    refined from the degree partition, which the unit cell splits into first."""
    return Partition.from_colors(_refine_colors(g.adjacency, list(map(len, g.adjacency))))


def first_deviation(g: Graph, p: Partition) -> tuple[int, int] | None:
    """The first vertex, with its cell, whose per-cell neighbor counts differ
    from those of the lowest vertex in its cell; None if p is equitable."""
    _check_initial(g, p.n)
    cell_of, cells = p.cell_of, p.cells
    reference: dict[int, dict[int, int]] = {}
    profile: dict[int, int] = {}
    for v, c in enumerate(cell_of):
        if len(cells[c]) == 1:  # its own reference
            continue
        profile.clear()
        for u in g.adjacency[v]:
            cu = cell_of[u]
            profile[cu] = profile.get(cu, 0) + 1
        ref = reference.get(c)
        if ref is None:
            reference[c] = dict(profile)
        elif ref != profile:
            return v, c
    return None


def is_equitable(g: Graph, p: Partition) -> bool:
    """True iff all vertices of each cell have identical per-cell neighbor counts."""
    return first_deviation(g, p) is None


def cr_partition(g: Graph, h: Graph) -> tuple[CrVerdict, Partition]:
    """The CR verdict on g and h plus the stable partition of their disjoint
    union, in which g's vertices keep their ids and h's follow them."""
    p = stable_partition(disjoint_union(g, h))
    for i, cell in enumerate(p.cells):
        if 2 * bisect_left(cell, g.n) != len(cell):  # cells list their members in order
            return CrVerdict(outcome=CrOutcome.DISTINGUISHED, witness_cell=i), p
    return CrVerdict(outcome=CrOutcome.CR_EQUIVALENT), p


def cr_iso_test(g: Graph, h: Graph) -> CrVerdict:
    """The color-refinement isomorphism test on the disjoint union.

    Distinguished is always sound (the graphs are not isomorphic).
    CrEquivalent is definitive only when at least one input is amenable;
    see the amenability module.
    """
    return cr_partition(g, h)[0]
