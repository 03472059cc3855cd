"""Distinguishing and fixing numbers of amenable graphs.

Per anisotropic component the computation never materializes the modified
component graph: the head invariants come from the root cell's kind and
size, and the leg values come from recursions that fold over the walk order
recognition stored on the Component, children before parents, with child
cells as the isomorphism classes and multiplicities equal to the size
ratios recorded there.  Counts are evaluated in saturating arithmetic
capped just above the decision threshold so the linearithmic budget holds;
the big-integer recursion that checks them lives in the oracle module.
"""

from __future__ import annotations

from enum import Enum
from math import isqrt
from typing import NamedTuple, Sequence

from .amenability import AmenabilityVerdict, check_amenable
from .cells import CellGraph, CellKind, Component, Components
from .errors import BadCap, InternalError, NotAmenable
from .graph import Graph


class HeadShape(Enum):
    COMPLETE = "complete"
    FIVE_CYCLE = "five_cycle"
    CO_MATCHING = "co_matching"


class HeadKind(NamedTuple):
    """What the root cell looks like after its normalizing complement."""

    shape: HeadShape
    size: int

    @property
    def r(self) -> int:
        """Number of matched pairs; co-matching heads only."""
        return self.size // 2

    def to_json(self) -> dict:
        return {"shape": self.shape.value, "size": self.size}


def min_c_binom(r: int) -> int:
    """Least c with C(c, 2) >= r, in integer arithmetic only."""
    if r < 1:
        raise ValueError(f"r must be positive, got {r}")
    c = max(2, isqrt(2 * r))
    while c * (c - 1) // 2 < r:  # from below: C(c - 1, 2) < c^2 / 2 <= r
        c += 1
    return c


def _binom_capped(f: int, m: int, cap: int) -> int:
    """C(f, m) clamped at cap.

    Uses the symmetric index so partial products are non-decreasing, making
    the early clamp sound.
    """
    if m < 0 or m > f:
        return 0
    m = min(m, f - m)
    val = 1
    for k in range(1, m + 1):
        val = val * (f - m + k) // k
        if val >= cap:
            return cap
    return val


def head_of_component(cg: CellGraph, comp: Component) -> HeadKind:
    """Head shape after complementing an empty or matching root cell.

    Raises InternalError when the root cell's size cannot have its kind.
    """
    kind = cg.cell_kinds[comp.root]
    size = cg.cell_sizes[comp.root]
    if kind in (CellKind.EMPTY, CellKind.COMPLETE):
        if size < 1:
            raise InternalError("empty complete head")
        return HeadKind(shape=HeadShape.COMPLETE, size=size)
    if kind is CellKind.FIVE_CYCLE:
        if size != 5:
            raise InternalError(f"five-cycle head of size {size}")
        return HeadKind(shape=HeadShape.FIVE_CYCLE, size=size)
    if kind in (CellKind.MATCHING, CellKind.CO_MATCHING):
        if size < 4 or size % 2:
            raise InternalError(f"co-matching head of size {size}")
        return HeadKind(shape=HeadShape.CO_MATCHING, size=size)
    raise InternalError(
        f"root cell {comp.root} has unsupported kind {kind.value} (upstream amenability bug)"
    )


def head_invariants(head: HeadKind) -> tuple[int, int]:
    """(distinguishing number, fixing number) of the head graph."""
    if head.shape is HeadShape.COMPLETE:
        return head.size, head.size - 1
    if head.shape is HeadShape.FIVE_CYCLE:
        return 3, 2
    return min_c_binom(head.r), head.r


def leg_dist_count(sizes: Sequence[int], comp: Component, c: int, cap: int) -> int:
    """Number of inequivalent distinguishing leg labelings with <= c colors.

    ``sizes`` are the cell sizes of the cell graph holding ``comp``.
    Saturating evaluation: every intermediate is clamped at cap, so the
    result equals cap exactly when the true count is at least cap.  With
    cap > d* + the component's vertex count, the predicate (true count >= d*)
    is decided exactly.
    """
    total = sum(sizes[x] for x in comp.order)
    if cap <= total:
        raise BadCap(cap, total)
    if c < 1:
        raise ValueError(f"color count must be positive, got {c}")
    root, parent, mult = comp.root, comp.parent, comp.multiplicity
    val = dict.fromkeys(comp.order, min(c, cap))
    for y in reversed(comp.order):  # children first, so val[y] is final here
        if y != root:
            x = parent[y]
            val[x] = min(val[x] * _binom_capped(val[y], mult[y], cap), cap)
    return val[root]


def leg_fix(comp: Component) -> int:
    """Fixing number of one leg, via the child-class recursion.

    Leaves cost nothing; a class of m rigid children costs m - 1, and a
    class of m non-rigid children costs m times the child cost.
    """
    root, parent, mult = comp.root, comp.parent, comp.multiplicity
    val = dict.fromkeys(comp.order, 0)
    for y in reversed(comp.order):  # children first, so val[y] is final here
        if y != root:
            m = mult[y]
            val[parent[y]] += (m - 1) if val[y] == 0 else m * val[y]
    return val[root]


class ComponentReport(NamedTuple):
    cells: tuple[int, ...]
    root: int
    head: HeadKind
    d_head: int
    fix_head: int
    leg_fix: int
    dist: int
    fix: int

    def to_json(self) -> dict:
        return {
            "cells": list(self.cells), "root": self.root,
            "head": self.head.to_json(), "d_head": self.d_head,
            "fix_head": self.fix_head, "leg_fix": self.leg_fix,
            "dist": self.dist, "fix": self.fix,
        }


def _singleton_report(cell: int) -> ComponentReport:  # a head K1 without legs
    return ComponentReport(cells=(cell,), root=cell, head=HeadKind(HeadShape.COMPLETE, 1),
                           d_head=1, fix_head=0, leg_fix=0, dist=1, fix=0)


def _singleton_row(cell: int) -> dict:  # _singleton_report(cell).to_json()
    return {"cells": [cell], "root": cell, "head": {"shape": "complete", "size": 1},
            "d_head": 1, "fix_head": 0, "leg_fix": 0, "dist": 1, "fix": 0}


class SymmetryReport(NamedTuple):
    dist_number: int
    fix_number: int
    components: Components  # of ComponentReport

    def to_json(self) -> dict:
        return {
            "dist_number": self.dist_number,
            "fix_number": self.fix_number,
            "components": self.components.to_json(),
        }


def _least_colors(sizes: Sequence[int], comp: Component, d_star: int) -> int:
    """Least c whose leg count reaches d_star.

    Binary search over [1, component size], justified by monotonicity of
    the leg count in c.
    """
    n_i = sum(sizes[x] for x in comp.cells)
    cap = d_star + n_i + 1

    def reaches(c: int) -> bool:
        return leg_dist_count(sizes, comp, c, cap) >= d_star

    lo, hi = 1, n_i
    if not reaches(hi):
        raise InternalError(
            f"leg count below D(head) = {d_star} even with {hi} colors"
        )
    while lo < hi:
        mid = (lo + hi) // 2
        if reaches(mid):
            hi = mid
        else:
            lo = mid + 1
    return lo


def component_report(cg: CellGraph, comp: Component) -> ComponentReport:
    """D and Fix of one component from its head and its leg tree.

    D is the least c whose leg count reaches D(head); Fix is Fix(head) when
    the legs are rigid, else |head| times the leg fixing number.  The
    component must be a tree whose size ratios recognition has checked.
    """
    if not comp.is_tree or comp.decreasing:
        raise InternalError(f"component rooted at cell {comp.root} is not a monotone tree")
    head = head_of_component(cg, comp)
    d_head, fix_head = head_invariants(head)
    legs = leg_fix(comp)
    return ComponentReport(
        cells=comp.cells, root=comp.root, head=head,
        d_head=d_head, fix_head=fix_head, leg_fix=legs,
        dist=_least_colors(cg.cell_sizes, comp, d_head),
        fix=fix_head if legs == 0 else head.size * legs,
    )


def _shape_key(cg: CellGraph, comp: Component, ids: dict[tuple, int]) -> int:
    """What component_report depends on: the root cell's kind plus an AHU id
    (Aho, Hopcroft and Ullman 1974) of the size-labelled rooted tree.

    ``ids`` interns ``(size, sorted child ids)`` per cell, so equal ids mean
    isomorphic size-labelled subtrees, and then ``(kind value, root id)``,
    which is the key.  Keys are ints, flat however deep the tree, and
    hashing one runs no Python code, as hashing a CellKind would.
    """
    sizes, root, parent = cg.cell_sizes, comp.root, comp.parent
    kids: dict[int, list[int]] = {x: [] for x in comp.order}  # child labels
    for x in reversed(comp.order):  # the root comes last
        label = ids.setdefault((sizes[x], tuple(sorted(kids[x]))), len(ids))
        if x != root:
            kids[parent[x]].append(label)
    return ids.setdefault((cg.cell_kinds[root].value, label), len(ids))


def analyze(g: Graph, *, verdict: AmenabilityVerdict | None = None) -> SymmetryReport:
    """Full per-component symmetry report for an amenable graph.

    Raises NotAmenable (carrying the verdict) otherwise.  A precomputed
    verdict may be passed to avoid re-running recognition.  Each shape of a
    nonsingleton component is computed once per call; a singleton cell adds
    D = 1 and Fix = 0, its report made when the components are first read.
    """
    if verdict is None:
        verdict = check_amenable(g)
    if not verdict.amenable:
        raise NotAmenable(verdict)
    cg = verdict.cell_graph
    assert cg is not None and verdict.components is not None
    ids: dict[tuple, int] = {}
    memo: dict[int, ComponentReport] = {}
    reports = []
    for comp in verdict.components.records:
        key = _shape_key(cg, comp, ids)
        cached = memo.get(key)
        if cached is None:
            report = memo[key] = component_report(cg, comp)
        else:  # cells and root come first; the other fields are the shape's
            report = ComponentReport(comp.cells, comp.root, *cached[2:])
        reports.append(report)
    return SymmetryReport(
        dist_number=max((r.dist for r in reports), default=min(g.n, 1)),
        fix_number=sum(r.fix for r in reports),
        components=Components(cg, tuple(reports), _singleton_report, _singleton_row),
    )


def dist_number(g: Graph) -> int:
    """D(G) for amenable G; 0 and 1 vertex graphs return 0 and 1."""
    return analyze(g).dist_number


def fix_number(g: Graph) -> int:
    """Fix(G) for amenable G; rigid graphs return 0."""
    return analyze(g).fix_number
