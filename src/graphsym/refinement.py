"""Color refinement (1-WL): coarsest equitable refinement and the CR isomorphism test."""

from __future__ import annotations

from collections import defaultdict, deque
from enum import Enum
from typing import NamedTuple, Sequence

from .errors import InvalidPartition
from .graph import Graph


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

    def to_json(self) -> dict:
        return {"cells": [list(c) for c in self.cells]}


class CrOutcome(Enum):
    DISTINGUISHED = "Distinguished"
    CR_EQUIVALENT = "CrEquivalent"


class CrVerdict(NamedTuple):
    outcome: CrOutcome


def _check_initial(g: Graph, n: int) -> None:
    if n != g.n:
        raise InvalidPartition(f"partition covers {n} vertices, graph has {g.n}")


def _refine_colors(adj: Sequence[Sequence[int]],
                   colors: Sequence[int | tuple]) -> tuple[list[int], list[set[int]]]:
    """Worklist refinement core: a raw (non-canonical) cell id per vertex,
    and per raw id the set of its vertices.

    The vertices of one color must have one degree.  Every equitable
    partition refines the degree partition, so this loses nothing, and it
    makes the whole vertex set a splitter already used: the neighbour counts
    into it are the degrees.  So, as when a used splitter splits, one initial
    cell is not queued, the one with the most neighbour entries.

    Splitters are whole current cells.  A splitter touches the vertices it
    has neighbours in; vertices of singleton cells are skipped, since those
    cells cannot split.  When a cell splits, its first largest fragment keeps
    the old id, and with it the old id's place in the queue if it has one;
    the other fragments get new ids in order and are queued.  A vertex is
    therefore queued anew only in a cell at most half the size of the one it
    left, which gives the (n + m) log n bound.  Initial cells are numbered in
    sorted color order and queued lightest first, and touched cells split in
    ascending id, so ``raw(relabel(g, perm))[perm[v]] == raw(g)[v]``.  A cell
    splits in two ways, its untouched vertices first:

    - touched against untouched, when all its touched vertices have the same
      count of splitter neighbours (always so for a singleton splitter, where
      the count is 1): no grouping, no sort;
    - by count, when they have two or more counts: the touched vertices are
      grouped by count and the groups ordered by count.

    A split takes the touched vertices out of the cell's set in C, in time
    proportional to them.  A set's table never shrinks, yet the bound holds:
    each id is queued at most once, and its set never holds more vertices
    than when the id was queued.
    """
    index = {col: i for i, col in enumerate(sorted(set(colors)))}
    cell_of = list(map(index.__getitem__, colors))
    cells: list[set[int]] = [set() for _ in index]
    for v, c in enumerate(cell_of):
        cells[c].add(v)
    by_entries = sorted(range(len(cells)),  # stable: ties stay in id order
                        key=lambda c: len(cells[c]) * len(adj[next(iter(cells[c]))]))
    work = deque(by_entries[:-1])  # lightest first, the heaviest not at all
    cnt = [0] * len(cell_of)
    touched: defaultdict[int, list[int]] = defaultdict(list)
    while work:
        s = work.popleft()
        touched.clear()
        counted = len(cells[s]) > 1
        if counted:
            for v in cells[s]:
                for u in adj[v]:
                    if cnt[u]:
                        cnt[u] += 1
                    elif len(cells[c := cell_of[u]]) > 1:
                        cnt[u] = 1
                        touched[c].append(u)
        else:
            for v in cells[s]:
                for u in adj[v]:
                    if len(cells[c := cell_of[u]]) > 1:
                        touched[c].append(u)
        for c in sorted(touched) if len(touched) > 1 else touched:
            tm = touched[c]
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
            rest = cells[c]
            if groups is None:
                if len(tm) == len(rest):
                    continue
                new = set(tm)
                rest -= new
                if len(new) > len(rest):  # the touched keep the id
                    cells[c], new = new, rest
                nid = len(cells)
                cells.append(new)
                work.append(nid)
                for u in new:
                    cell_of[u] = nid
                continue
            frags = [set(groups[k]) for k in sorted(groups)]
            rest.difference_update(*frags)
            if rest:
                frags.insert(0, rest)
            cells[c] = keep = max(frags, key=len)  # the first, on ties
            for f in frags:
                if f is not keep:
                    nid = len(cells)
                    cells.append(f)
                    work.append(nid)
                    for u in f:
                        cell_of[u] = nid
    return cell_of, cells


def refine(g: Graph, initial: Partition | Sequence[int]) -> Partition:
    """Coarsest equitable partition of g refining ``initial``.

    ``initial`` may be a Partition or a per-vertex color sequence.  The
    result is deterministic: cells are numbered by minimum vertex index.
    """
    colors = initial.cell_of if isinstance(initial, Partition) else initial
    _check_initial(g, len(colors))
    return Partition.from_colors(
        _refine_colors(g.adjacency, list(zip(colors, map(len, g.adjacency))))[0])


def stable_partition(g: Graph) -> Partition:
    """Coarsest equitable partition of g (refinement of the unit partition),
    refined from the degree partition, which the unit cell splits into first."""
    return Partition.from_colors(_refine_colors(g.adjacency, list(map(len, g.adjacency)))[0])


def neighbour_counts(g: Graph, cell_of: Sequence[int], v: int) -> dict[int, int]:
    """Per cell id, how many neighbours v has in it, in order of first neighbour."""
    counts: dict[int, int] = {}
    for u in g.adjacency[v]:
        c = cell_of[u]
        counts[c] = counts.get(c, 0) + 1
    return counts


def first_deviation(g: Graph, p: Partition) -> tuple[int, int] | None:
    """The first vertex, with its cell, whose per-cell neighbor counts differ
    from those of the lowest vertex in its cell; None if p is equitable."""
    _check_initial(g, p.n)
    cell_of, cells = p.cell_of, p.cells
    reference: dict[int, dict[int, int]] = {}
    for v, c in enumerate(cell_of):
        if len(cells[c]) == 1:  # its own reference
            continue
        counts = neighbour_counts(g, cell_of, v)
        if reference.setdefault(c, counts) != counts:
            return v, c
    return None


def is_equitable(g: Graph, p: Partition) -> bool:
    """True iff all vertices of each cell have identical per-cell neighbor counts."""
    return first_deviation(g, p) is None


def _quotient(g: Graph) -> tuple[list[int], dict[int, tuple[int, list[int]]]]:
    """g's raw cell ids, one per vertex, and per raw id its row: the cell's
    size and the sorted raw ids of any one member's neighbours, which are
    the same for every member of a cell of an equitable partition.

    Raw ids are label-free, so g and h are CR-equivalent exactly when their
    quotients are equal: equal quotients merge into an equitable partition
    of the disjoint union with as many vertices of either graph in each
    cell, and CR-equivalent graphs make the same splits in the same order."""
    adj = g.adjacency
    raw, cells = _refine_colors(adj, list(map(len, adj)))
    return raw, {c: (len(cell), sorted(map(raw.__getitem__, adj[next(iter(cell))])))
                 for c, cell in enumerate(cells)}


def cr_iso_test(g: Graph, h: Graph) -> CrVerdict:
    """The color-refinement isomorphism test.  Distinguished is always sound
    (the graphs are not isomorphic); CrEquivalent is definitive only when at
    least one input is amenable, see the amenability module."""
    same = _quotient(g)[1] == _quotient(h)[1]
    return CrVerdict(CrOutcome.CR_EQUIVALENT if same else CrOutcome.DISTINGUISHED)
