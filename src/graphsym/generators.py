"""Synthesis of amenable graphs from component specs, plus named instances.

A spec is a JSON document, the same in Python as in a ``gen spec`` file:
the dicts and lists ``json.loads`` returns.  It realizes each component in
normalized form: the requested head graph on the root cell, empty non-root
cells, and star joins along tree edges with centers toward the root.
Cross-component joins are complete or absent.  Generation makes no
stability promise; pair it with validate_spec, which simply re-runs
refinement.

A spec is refused with BadSpec, before anything is built, when its cells
hold more than formats.MAX_VERTICES vertices in all or it implies more than
MAX_EDGES edges; random_amenable refuses a target, and named parameters,
over the limits with BadParams.
"""

from __future__ import annotations

import random
from collections.abc import Iterable
from itertools import combinations

from .errors import BadParams, BadSpec, BudgetExhausted
from .formats import MAX_VERTICES
from .graph import Graph, from_edge_list
from .refinement import Partition, stable_partition

HEAD_KINDS = ("empty", "complete", "matching", "co_matching", "five_cycle")
# generate refuses a spec implying more edges than this: one complete head
# of 10^5 vertices alone implies 5 * 10^9, and every edge is a Python tuple.
MAX_EDGES = 1 << 22
_TYPE_NAMES = {dict: "an object", list: "a list", int: "an integer"}


def _typed(value, kind: type, what: str):
    """value, if it has the JSON type kind (a bool is no integer)."""
    if not isinstance(value, kind) or isinstance(value, bool):
        raise BadSpec(f"{what} must be {_TYPE_NAMES[kind]}, got {type(value).__name__}")
    return value


def _walk(tree) -> list[tuple[dict, int]]:
    """The cells of one component tree in preorder, each with its parent's
    index in the list (-1 for the root).

    A cell is ``{"size": int, "children": [cell, ...], "fill": str}`` with
    ``children`` and ``fill`` optional.  ``fill`` is the induced structure
    inside a non-root cell, empty or complete: refinement cannot tell two
    sibling leaf cells apart by the star edges alone, so a complete fill is
    how a spec keeps them separate.  Raises BadSpec at the first cell that
    breaks a rule.
    """
    out: list[tuple[dict, int]] = []
    stack = [(tree, -1)]
    while stack:
        node, parent = stack.pop()
        node = _typed(node, dict, "a cell")
        size = _typed(node.get("size"), int, "a cell size")
        if size < 1:
            raise BadSpec(f"cell size {size} < 1")
        # a positive size below its parent's is no multiple of it
        if parent >= 0 and size % out[parent][0]["size"]:
            raise BadSpec(f"cell size {size} is no multiple of its parent's "
                          f"{out[parent][0]['size']}")
        if node.get("fill", "empty") not in ("empty", "complete"):
            raise BadSpec("a cell fill must be empty or complete")
        out.append((node, parent))
        children = _typed(node.get("children", []), list, "children")
        stack.extend((child, len(out) - 1) for child in reversed(children))
    return out


def _read(spec) -> tuple[list, list]:
    """A spec's components, each ``(head, walk)``, and its joins, each
    ``((component, cell), (component, cell))``.

    The spec is ``{"components": [...], "wiring": [...]}`` with ``wiring``
    optional.  A component is ``{"head": kind, "root_size": int, "tree":
    cell}`` with ``root_size`` optional.  A join is ``{"components": [a,
    b], "cells": [i, j]}``: a complete join of cell i, by preorder index,
    of component a with cell j of component b, where a and b differ; every
    unwired cross-component pair stays empty.  Raises BadSpec on any rule
    that generation relies on.
    """
    spec = _typed(spec, dict, "a spec")
    comps = []
    for comp in _typed(spec.get("components"), list, "components"):
        comp = _typed(comp, dict, "a component")
        head = comp.get("head")
        if head not in HEAD_KINDS:
            raise BadSpec(f"a head must be one of {', '.join(HEAD_KINDS)}")
        walk = _walk(comp.get("tree"))
        size = walk[0][0]["size"]
        if _typed(comp.get("root_size", size), int, "root_size") != size:
            raise BadSpec(f"root_size {comp['root_size']} disagrees with tree size {size}")
        if head == "five_cycle" and size != 5:
            raise BadSpec(f"five-cycle root must have size 5, got {size}")
        if head in ("matching", "co_matching") and (size < 4 or size % 2):
            raise BadSpec(f"{head} root needs even size >= 4, got {size}")
        comps.append((head, walk))
    if not comps:
        raise BadSpec("no components")
    joins = []
    for join in _typed(spec.get("wiring", []), list, "wiring"):
        join = _typed(join, dict, "a join")
        pairs = [_typed(join.get(key), list, f"join {key}") for key in ("components", "cells")]
        if len(pairs[0]) != 2 or len(pairs[1]) != 2:
            raise BadSpec("a join names two components and two cells")
        ends = tuple(zip(*pairs))
        for comp, cell in ends:
            if not 0 <= _typed(comp, int, "a join's component") < len(comps):
                raise BadSpec(f"wiring references component {comp}")
            if not 0 <= _typed(cell, int, "a join's cell") < len(comps[comp][1]):
                raise BadSpec(f"wiring references cell {cell} of component {comp}")
        if ends[0][0] == ends[1][0]:
            raise BadSpec("wiring must join different components")
        joins.append(ends)
    n, m = _implied_size(comps, joins)
    if n > MAX_VERTICES:
        raise BadSpec(f"{n} vertices is over the limit of {MAX_VERTICES}")
    if m > MAX_EDGES:
        raise BadSpec(f"{m} edges is over the limit of {MAX_EDGES}")
    return comps, joins


def _implied_size(comps: list, joins: list) -> tuple[int, int]:
    """The vertex count of a read spec and the length of the edge list
    generate builds for it: the head's edges, one star edge per non-root
    vertex, a complete fill's edges and each join's product of sizes."""
    n = m = 0
    for head, walk in comps:
        k = walk[0][0]["size"]
        m += {"empty": 0, "complete": k * (k - 1) // 2, "matching": k // 2,
              "co_matching": k * (k - 1) // 2 - k // 2, "five_cycle": 5}[head]
        for node, parent in walk:
            size = node["size"]
            n += size
            if parent >= 0:
                m += size + (size * (size - 1) // 2 if node.get("fill") == "complete" else 0)
    for (ca, xa), (cb, xb) in joins:
        m += comps[ca][1][xa][0]["size"] * comps[cb][1][xb][0]["size"]
    return n, m


def generate(spec: dict, seed: int = 0) -> tuple[Graph, Partition]:
    """Realize a spec into a graph plus its intended cell partition.

    The spec is read, never changed; see _read for its form.  Deterministic
    per seed.  The intended partition is equitable by construction but not
    necessarily stable; callers that need stability check with
    validate_spec.
    """
    comps, joins = _read(spec)
    rng = random.Random(seed)
    edges: list[tuple[int, int]] = []
    cells: list[list[int]] = []
    first: list[int] = []  # per component, the index in cells of its root
    n = 0
    for head, walk in comps:
        first.append(len(cells))
        children: list[list[int]] = [[] for _ in walk]
        for i, (node, parent) in enumerate(walk):
            verts = list(range(n, n + node["size"]))
            n += node["size"]
            cells.append(verts)
            if parent >= 0:
                children[parent].append(i)
                if node.get("fill") == "complete":
                    edges.extend(_head_edges("complete", verts))
        ranges = cells[first[-1]:]
        edges.extend(_head_edges(head, ranges[0]))
        stack = [0]
        while stack:
            x = stack.pop()
            parents = ranges[x]
            for y in children[x]:
                kids = ranges[y][:]
                rng.shuffle(kids)
                m = len(kids) // len(parents)
                for k, center in enumerate(parents):
                    for kid in kids[k * m:(k + 1) * m]:
                        edges.append((center, kid))
                stack.append(y)

    for (ca, xa), (cb, xb) in joins:
        edges.extend((u, v) for u in cells[first[ca] + xa] for v in cells[first[cb] + xb])

    return from_edge_list(n, edges), Partition.from_cells(cells, n)


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
            (n,) = _counted(params, 1)
            _require(n >= 0, "needs n >= 0")
            return _bounded(n, n * (n - 1) // 2, combinations(range(n), 2))
        if family == "pn":
            (n,) = _counted(params, 1)
            _require(n >= 1, "needs n >= 1")
            return _bounded(n, n - 1, ((i, i + 1) for i in range(n - 1)))
        if family == "cn":
            (n,) = _counted(params, 1)
            _require(n >= 3, "needs n >= 3")
            return _bounded(n, n, ((i, (i + 1) % n) for i in range(n)))
        if family == "kab":
            a, b = _counted(params, 2)
            _require(a >= 0 and b >= 0, "needs a, b >= 0")
            return _bounded(a + b, a * b, ((i, a + j) for i in range(a) for j in range(b)))
        if family == "rk2":
            (r,) = _counted(params, 1)
            _require(r >= 1, "needs r >= 1")
            return _bounded(2 * r, r, ((2 * i, 2 * i + 1) for i in range(r)))
        if family == "figure1":
            _counted(params, 0)
            edges = [(0, i) for i in range(1, 9)]
            edges += [(1, 9), (8, 9), (4, 10), (5, 10), (2, 3), (6, 7)]
            return from_edge_list(11, edges)
        if family == "jellyfish_fig3":
            _counted(params, 0)
            edges = [(i, (i + 1) % 5) for i in range(5)]  # head 5-cycle
            for i in range(5):
                edges += [(i, 5 + i), (i, 10 + i)]  # pendant leaf and inner child
                edges += [(10 + i, 15 + 2 * i), (10 + i, 16 + 2 * i)]
            return from_edge_list(25, edges)
    except BadParams as exc:
        raise BadParams(f"{family}: {exc}") from None
    raise BadParams(f"unknown family {family!r}")


def _counted(params: tuple[int, ...], k: int) -> tuple[int, ...]:
    """params, if there are k of them."""
    _require(len(params) == k,
             f"takes {k or 'no'} parameter{'' if k == 1 else 's'}, got {len(params)}")
    return params


def _bounded(n: int, m: int, edges: Iterable[tuple[int, int]]) -> Graph:
    """from_edge_list(n, edges), refused before edges is read if n or m is over its limit."""
    _require(n <= MAX_VERTICES, f"{n} vertices is over the limit of {MAX_VERTICES}")
    _require(m <= MAX_EDGES, f"{m} edges is over the limit of {MAX_EDGES}")
    return from_edge_list(n, edges)


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
    if n_target > MAX_VERTICES:
        raise BadParams(f"n_target {n_target} is over the limit of {MAX_VERTICES}")
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


def _sample_spec(rng: random.Random, n_target: int, cap: int) -> dict | None:
    if n_target >= 256:  # past what varied small shapes can fill
        return _sample_big_spec(rng, n_target)
    heads = list(_HEAD_WEIGHTS)
    weights = list(_HEAD_WEIGHTS.values())
    comps: list[dict] = []
    counts: list[int] = []  # cells per component
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
        walk = _walk(tree)
        key = _shape_key(head, walk)
        if key in keys:
            continue  # identical components merge under refinement
        keys.add(key)
        comps.append({"head": head, "tree": tree})
        counts.append(len(walk))
        total += sum(node["size"] for node, _ in walk)
        if total >= budget:
            break
    if not comps or total > cap:
        return None
    wiring: list[dict] = []
    for i in range(len(comps)):
        for j in range(i + 1, len(comps)):
            if rng.random() < _WIRE_PROB:
                cells = [rng.randrange(counts[i]), rng.randrange(counts[j])]
                wiring.append({"components": [i, j], "cells": cells})
    return {"components": comps, "wiring": wiring}


def _sample_big_spec(rng: random.Random, n_target: int) -> dict:
    """Benchmark-scale draw: deep star chains with geometric sizes, linear edges.

    Chains are added until fewer than 16 vertices remain, so trivial padding
    stays negligible and refinement work scales with n.
    """
    comps: list[dict] = []
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
        chain: dict = {"size": sizes[-1], "children": []}
        for size in reversed(sizes[:-1]):
            chain = {"size": size, "children": [chain]}
        key = _shape_key("complete", _walk(chain))
        if key in keys:
            continue  # identical chains would merge under refinement
        keys.add(key)
        comps.append({"head": "complete", "tree": chain})
        remaining -= total
    if remaining == 1:
        comps.append({"head": "complete", "tree": {"size": 1}})
    elif remaining > 1:
        comps.append({"head": "empty", "tree": {"size": remaining}})
    return {"components": comps}


def _sample_tree(rng: random.Random, size: int, budget: int, depth: int) -> dict | None:
    if size > budget:
        return None
    remaining = budget - size
    children: list[dict] = []
    if depth < _MAX_DEPTH and remaining > 0:
        n_children = rng.randint(0, _MAX_CHILDREN)
        mults = [m for m in _MULTIPLICITIES if m * size <= remaining]
        rng.shuffle(mults)
        for m in mults[:n_children]:  # distinct multiplicities keep siblings split
            child = _sample_tree(rng, m * size, remaining, depth + 1)
            if child is not None:  # it fits: no draw exceeds its budget
                children.append(child)
                remaining -= sum(node["size"] for node, _ in _walk(child))
    # sibling leaf cells are invisible to refinement through star edges
    # alone; alternating fills keeps them apart
    leaves = [child for child in children if not child["children"]]
    for leaf in leaves[1::2]:
        if leaf["size"] >= 2:
            leaf["fill"] = "complete"
    return {"size": size, "children": children}


def _shape_key(head: str, walk: list[tuple[dict, int]]) -> tuple:
    """Identity of a sampled component up to isomorphism: its head kind plus
    the size- and fill-labelled tree, children unordered."""
    labels: list[list[tuple]] = [[] for _ in walk]  # child labels per cell
    for i in reversed(range(len(walk))):  # children come after their parent
        node, parent = walk[i]
        label = (node["size"], node.get("fill", "empty"), tuple(sorted(labels[i])))
        if parent >= 0:
            labels[parent].append(label)
    return (head, label)
