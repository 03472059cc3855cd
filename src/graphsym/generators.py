"""Synthesis of amenable graphs from component specs, plus named instances.

A spec realizes each component in normalized form: the requested head graph
on the root cell, empty non-root cells, and star joins along tree edges
with centers toward the root.  Cross-component joins are complete or absent.
Generation makes no stability promise; pair it with validate_spec, which
simply re-runs refinement.
"""

from __future__ import annotations

import random
from dataclasses import dataclass

from .errors import BadParams, BadSpec, BudgetExhausted
from .graph import Graph, from_edge_list
from .refinement import Partition, stable_partition

HEAD_KINDS = ("empty", "complete", "matching", "co_matching", "five_cycle")


@dataclass(frozen=True)
class CellNode:
    """One cell of a component tree.

    ``fill`` is the induced structure inside a non-root cell: empty or
    complete, the two homogeneous options.  Refinement cannot tell two
    sibling leaf cells apart by the star edges alone, so a complete fill is
    how a spec keeps them separate; the root's structure comes from the
    component's head kind and its fill is ignored.
    """

    size: int
    children: tuple["CellNode", ...] = ()
    fill: str = "empty"

    def total_size(self) -> int:
        return self.size + sum(c.total_size() for c in self.children)

    def num_cells(self) -> int:
        return 1 + sum(c.num_cells() for c in self.children)

    def to_json(self) -> dict:
        out: dict = {"size": self.size, "children": [c.to_json() for c in self.children]}
        if self.fill != "empty":
            out["fill"] = self.fill
        return out

    @classmethod
    def from_json(cls, d: dict) -> "CellNode":
        return cls(
            size=int(d["size"]),
            children=tuple(cls.from_json(c) for c in d.get("children", [])),
            fill=d.get("fill", "empty"),
        )


@dataclass(frozen=True)
class ComponentSpec:
    head: str
    tree: CellNode

    def validate(self) -> None:
        if self.head not in HEAD_KINDS:
            raise BadSpec(f"unknown head kind {self.head!r}")
        size = self.tree.size
        if size < 1:
            raise BadSpec(f"root size {size} < 1")
        if self.head == "five_cycle" and size != 5:
            raise BadSpec(f"five-cycle root must have size 5, got {size}")
        if self.head in ("matching", "co_matching") and (size < 4 or size % 2):
            raise BadSpec(f"{self.head} root needs even size >= 4, got {size}")
        _validate_tree(self.tree)

    def shape_key(self) -> tuple:
        """Canonical shape identity: head kind plus the size- and fill-labeled tree."""
        def canon(node: CellNode) -> tuple:
            return (node.size, node.fill, tuple(sorted(canon(c) for c in node.children)))

        return (self.head, canon(self.tree))


def _validate_tree(node: CellNode) -> None:
    if node.fill not in ("empty", "complete"):
        raise BadSpec(f"unknown cell fill {node.fill!r}")
    for child in node.children:
        if child.size < node.size:
            raise BadSpec(f"child size {child.size} below parent size {node.size}")
        if child.size % node.size:
            raise BadSpec(f"parent size {node.size} does not divide child size {child.size}")
        if child.size < 1:
            raise BadSpec("cell sizes must be positive")
        _validate_tree(child)


@dataclass(frozen=True)
class Wiring:
    """A complete join between one cell of each of two components.

    Cells are addressed by preorder index within their component; every
    unwired cross-component pair stays empty.
    """

    comp_a: int
    cell_a: int
    comp_b: int
    cell_b: int


@dataclass(frozen=True)
class GraphSpec:
    components: tuple[ComponentSpec, ...]
    wiring: tuple[Wiring, ...] = ()

    def validate(self) -> None:
        if not self.components:
            raise BadSpec("no components")
        for comp in self.components:
            comp.validate()
        counts = [comp.tree.num_cells() for comp in self.components]
        for w in self.wiring:
            for comp, cell in ((w.comp_a, w.cell_a), (w.comp_b, w.cell_b)):
                if not 0 <= comp < len(self.components):
                    raise BadSpec(f"wiring references component {comp}")
                if not 0 <= cell < counts[comp]:
                    raise BadSpec(f"wiring references cell {cell} of component {comp}")
            if w.comp_a == w.comp_b:
                raise BadSpec("wiring must join different components")

    def total_size(self) -> int:
        return sum(c.tree.total_size() for c in self.components)

    def to_json(self) -> dict:
        return {
            "components": [
                {"head": c.head, "root_size": c.tree.size, "tree": c.tree.to_json()}
                for c in self.components
            ],
            "wiring": [
                {"components": [w.comp_a, w.comp_b], "cells": [w.cell_a, w.cell_b]}
                for w in self.wiring
            ],
        }

    @classmethod
    def from_json(cls, d: dict) -> "GraphSpec":
        comps = []
        for c in d.get("components", []):
            tree = CellNode.from_json(c["tree"])
            if "root_size" in c and int(c["root_size"]) != tree.size:
                raise BadSpec(
                    f"root_size {c['root_size']} disagrees with tree size {tree.size}"
                )
            comps.append(ComponentSpec(head=c["head"], tree=tree))
        wiring = tuple(
            Wiring(comp_a=w["components"][0], cell_a=w["cells"][0],
                   comp_b=w["components"][1], cell_b=w["cells"][1])
            for w in d.get("wiring", [])
        )
        return cls(components=tuple(comps), wiring=wiring)


def _preorder(node: CellNode) -> list[CellNode]:
    out = [node]
    for child in node.children:
        out.extend(_preorder(child))
    return out


def generate(spec: GraphSpec, seed: int = 0) -> tuple[Graph, Partition]:
    """Realize a spec into a graph plus its intended cell partition.

    Deterministic per seed.  The intended partition is equitable by
    construction but not necessarily stable; callers that need stability
    check with validate_spec.
    """
    spec.validate()
    rng = random.Random(seed)
    edges: list[tuple[int, int]] = []
    cells: list[list[int]] = []
    cell_index: dict[tuple[int, int], int] = {}  # (component, preorder idx) -> cell id
    next_vertex = 0

    for ci, comp in enumerate(spec.components):
        nodes = _preorder(comp.tree)
        ranges: dict[int, list[int]] = {}
        for pi, node in enumerate(nodes):
            verts = list(range(next_vertex, next_vertex + node.size))
            next_vertex += node.size
            ranges[id(node)] = verts
            cell_index[(ci, pi)] = len(cells)
            cells.append(verts)
            if pi > 0 and node.fill == "complete":
                edges.extend(
                    (verts[i], verts[j])
                    for i in range(node.size) for j in range(i + 1, node.size)
                )
        root_verts = ranges[id(comp.tree)]
        edges.extend(_head_edges(comp.head, root_verts))
        stack = [comp.tree]
        while stack:
            node = stack.pop()
            parents = ranges[id(node)]
            for child in node.children:
                kids = ranges[id(child)][:]
                rng.shuffle(kids)
                m = child.size // node.size
                for i, parent in enumerate(parents):
                    for kid in kids[i * m:(i + 1) * m]:
                        edges.append((parent, kid))
                stack.append(child)

    for w in spec.wiring:
        side_a = cells[cell_index[(w.comp_a, w.cell_a)]]
        side_b = cells[cell_index[(w.comp_b, w.cell_b)]]
        edges.extend((u, v) for u in side_a for v in side_b)

    g = from_edge_list(next_vertex, edges)
    return g, Partition.from_cells(cells, next_vertex)


def _head_edges(head: str, verts: list[int]) -> list[tuple[int, int]]:
    k = len(verts)
    if head == "empty":
        return []
    if head == "complete":
        return [(verts[i], verts[j]) for i in range(k) for j in range(i + 1, k)]
    if head == "matching":
        return [(verts[2 * i], verts[2 * i + 1]) for i in range(k // 2)]
    if head == "co_matching":
        matched = {(2 * i, 2 * i + 1) for i in range(k // 2)}
        return [
            (verts[i], verts[j])
            for i in range(k) for j in range(i + 1, k)
            if (i, j) not in matched
        ]
    if head == "five_cycle":
        return [(verts[i], verts[(i + 1) % 5]) for i in range(5)]
    raise BadSpec(f"unknown head kind {head!r}")


def validate_spec(g: Graph, intended: Partition) -> bool:
    """True iff refinement reproduces the intended partition cell-for-cell."""
    return stable_partition(g) == intended


# ------------------------------------------------------------ named instances


def named(family: str, *params: int) -> Graph:
    """Canonical instances: kn, pn, cn, kab, rk2, figure1, jellyfish_fig3."""
    try:
        if family == "kn":
            (n,) = params
            _require(n >= 0, "kn needs n >= 0")
            return from_edge_list(n, [(i, j) for i in range(n) for j in range(i + 1, n)])
        if family == "pn":
            (n,) = params
            _require(n >= 1, "pn needs n >= 1")
            return from_edge_list(n, [(i, i + 1) for i in range(n - 1)])
        if family == "cn":
            (n,) = params
            _require(n >= 3, "cn needs n >= 3")
            return from_edge_list(n, [(i, (i + 1) % n) for i in range(n)])
        if family == "kab":
            a, b = params
            _require(a >= 0 and b >= 0, "kab needs a, b >= 0")
            return from_edge_list(a + b, [(i, a + j) for i in range(a) for j in range(b)])
        if family == "rk2":
            (r,) = params
            _require(r >= 1, "rk2 needs r >= 1")
            return from_edge_list(2 * r, [(2 * i, 2 * i + 1) for i in range(r)])
        if family == "figure1":
            _require(not params, "figure1 takes no parameters")
            edges = [(0, i) for i in range(1, 9)]
            edges += [(1, 9), (8, 9), (4, 10), (5, 10), (2, 3), (6, 7)]
            return from_edge_list(11, edges)
        if family == "jellyfish_fig3":
            _require(not params, "jellyfish_fig3 takes no parameters")
            edges = [(i, (i + 1) % 5) for i in range(5)]  # head 5-cycle
            for i in range(5):
                edges += [(i, 5 + i), (i, 10 + i)]  # pendant leaf and inner child
                edges += [(10 + i, 15 + 2 * i), (10 + i, 16 + 2 * i)]
            return from_edge_list(25, edges)
    except ValueError as exc:
        raise BadParams(f"{family}: {exc}") from None
    raise BadParams(f"unknown family {family!r}")


def _require(cond: bool, message: str) -> None:
    if not cond:
        raise BadParams(message)


# --------------------------------------------------------- random instances


# Shape of the random sampler's draws, small enough that oracle cross-checks
# stay cheap, and how many draws random_amenable makes before giving up.
_MAX_COMPONENTS = 3
_MAX_ROOT_SIZE = 4
_MAX_DEPTH = 2
_MULTIPLICITIES = (1, 2, 3)
_MAX_CHILDREN = 2
_WIRE_PROB = 0.35
_HEAD_WEIGHTS = {"empty": 4, "complete": 3, "matching": 2, "co_matching": 1, "five_cycle": 1}
_ATTEMPTS = 300


def random_amenable(n_target: int, seed: int = 0) -> tuple[Graph, Partition]:
    """Sample spec shapes until one validates; deterministic per seed.

    The result has at most n_target + 2 vertices.  Raises BudgetExhausted
    when no sampled spec validates within the attempt budget.
    """
    if n_target < 1:
        raise BadParams(f"n_target must be >= 1, got {n_target}")
    rng = random.Random(seed)
    cap = n_target + 2
    for _ in range(_ATTEMPTS):
        spec = _sample_spec(rng, n_target, cap)
        if spec is None:
            continue
        g, intended = generate(spec, seed=rng.randrange(1 << 30))
        if validate_spec(g, intended):
            return g, intended
    raise BudgetExhausted(_ATTEMPTS)


def _sample_spec(rng: random.Random, n_target: int, cap: int) -> GraphSpec | None:
    if n_target >= 256:  # past what varied small shapes can fill
        return _sample_big_spec(rng, n_target)
    heads = list(_HEAD_WEIGHTS)
    weights = list(_HEAD_WEIGHTS.values())
    comps: list[ComponentSpec] = []
    keys: set[tuple] = set()
    total = 0
    budget = rng.randint(max(1, n_target // 2), n_target)
    n_comps = rng.randint(1, _MAX_COMPONENTS)
    for _ in range(n_comps):
        remaining = cap - total
        if remaining < 1:
            break
        head = rng.choices(heads, weights)[0]
        if head == "five_cycle":
            root_size = 5
        elif head in ("matching", "co_matching"):
            root_size = 2 * rng.randint(2, max(2, _MAX_ROOT_SIZE // 2))
        else:
            root_size = rng.randint(1, _MAX_ROOT_SIZE)
        if root_size > remaining:
            continue
        tree = _sample_tree(rng, root_size, remaining, depth=0)
        if tree is None:
            continue
        candidate = ComponentSpec(head=head, tree=tree)
        if candidate.shape_key() in keys:
            continue  # identical components merge under refinement
        keys.add(candidate.shape_key())
        comps.append(candidate)
        total += tree.total_size()
        if total >= budget:
            break
    if not comps or total > cap:
        return None
    wiring: list[Wiring] = []
    for i in range(len(comps)):
        for j in range(i + 1, len(comps)):
            if rng.random() < _WIRE_PROB:
                wiring.append(Wiring(
                    comp_a=i, cell_a=rng.randrange(comps[i].tree.num_cells()),
                    comp_b=j, cell_b=rng.randrange(comps[j].tree.num_cells()),
                ))
    return GraphSpec(components=tuple(comps), wiring=tuple(wiring))


def _sample_big_spec(rng: random.Random, n_target: int) -> GraphSpec:
    """Benchmark-scale draw: deep star chains with geometric sizes, linear edges.

    Chains are added until fewer than 16 vertices remain, so trivial padding
    stays negligible and refinement work scales with n.
    """
    comps: list[ComponentSpec] = []
    keys: set[tuple] = set()
    remaining = n_target
    while remaining >= 16:
        sizes = [rng.randint(1, 3)]
        total = sizes[0]
        while True:
            m = rng.choice((2, 3))
            nxt = sizes[-1] * m
            if total + nxt > remaining:
                break
            sizes.append(nxt)
            total += nxt
        chain: CellNode | None = None
        for size in reversed(sizes):
            chain = CellNode(size=size, children=(chain,) if chain else ())
        assert chain is not None
        comp = ComponentSpec(head="complete", tree=chain)
        if comp.shape_key() in keys:
            continue  # identical chains would merge under refinement
        keys.add(comp.shape_key())
        comps.append(comp)
        remaining -= total
    if remaining == 1:
        comps.append(ComponentSpec(head="complete", tree=CellNode(size=1)))
    elif remaining > 1:
        comps.append(ComponentSpec(head="empty", tree=CellNode(size=remaining)))
    return GraphSpec(components=tuple(comps))


def _sample_tree(rng: random.Random, size: int, budget: int, depth: int) -> CellNode | None:
    if size > budget:
        return None
    remaining = budget - size
    children: list[CellNode] = []
    if depth < _MAX_DEPTH and remaining > 0:
        n_children = rng.randint(0, _MAX_CHILDREN)
        mults = [m for m in _MULTIPLICITIES if m * size <= remaining]
        rng.shuffle(mults)
        for m in mults[:n_children]:  # distinct multiplicities keep siblings split
            child = _sample_tree(rng, m * size, remaining, depth + 1)
            if child is not None and child.total_size() <= remaining:
                children.append(child)
                remaining -= child.total_size()
    # sibling leaf cells are invisible to refinement through star edges
    # alone; alternating fills keeps them apart
    leaf_seen = 0
    filled: list[CellNode] = []
    for child in children:
        if not child.children:
            if leaf_seen % 2 == 1 and child.size >= 2:
                child = CellNode(size=child.size, children=(), fill="complete")
            leaf_seen += 1
        filled.append(child)
    return CellNode(size=size, children=tuple(filled))


