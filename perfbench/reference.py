"""Answers computed apart from graphsym's fast path, and the checks that use them.

Nothing here imports ``refinement``, ``cells``, ``amenability`` or
``symmetry``.  The only graphsym code used is ``oracle``'s rooted-tree
recursions (``RootedTree``, ``tree_dist_count``, ``tree_fix``) and its
brute-force ``dist_number_bf`` / ``fix_number_bf``, which the package keeps
independent of the fast path on purpose.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass
from typing import Sequence

from graphsym import oracle
from graphsym.graph import from_edge_list

from draw import Chain

Cells = tuple[tuple[int, ...], ...]


class Mismatch(AssertionError):
    """An answer of the program disagrees with the independent computation."""


@dataclass(frozen=True)
class Expected:
    """What every correct answer on one graph must be."""

    amenable: bool
    dist: int | None  # None when the graph is not amenable
    fix: int | None


def adjacency(n: int, edges: Sequence[tuple[int, int]]) -> list[list[int]]:
    adj: list[list[int]] = [[] for _ in range(n)]
    for u, v in edges:
        adj[u].append(v)
        adj[v].append(u)
    return adj


def canonical(cells) -> Cells:
    """Cells as sorted tuples, ordered by their least vertex."""
    return tuple(sorted((tuple(sorted(c)) for c in cells), key=lambda c: c[0]))


def naive_cells(n: int, adj: Sequence[Sequence[int]]) -> Cells:
    """Colour refinement by whole rounds.

    Each round recolours every vertex by its colour plus the sorted multiset
    of its neighbours' colours, until the number of colours stops growing.
    """
    colour = [0] * n
    count = 1 if n else 0
    while True:
        ids: dict[tuple, int] = {}
        new = [ids.setdefault((colour[v], tuple(sorted(colour[u] for u in adj[v]))), len(ids))
               for v in range(n)]
        if len(ids) == count:
            break
        colour, count = new, len(ids)
    groups: dict[int, list[int]] = {}
    for v, c in enumerate(colour):
        groups.setdefault(c, []).append(v)
    return canonical(groups.values())


def cells_are_twin_classes(cells: Cells, adj: Sequence[Sequence[int]]) -> bool:
    """True iff each cell has all members with equal open, or all with equal
    closed, neighbourhoods."""
    for cell in cells:
        if len(cell) < 2:
            continue
        opened = {frozenset(adj[v]) for v in cell}
        closed = {frozenset(adj[v]) | {v} for v in cell}
        if len(opened) > 1 and len(closed) > 1:
            return False
    return True


def twin_expected(cells: Cells) -> Expected:
    """D and Fix when every cell is a twin class.

    Automorphisms preserve colour-refinement cells, and any permutation inside
    a twin class is an automorphism, so Aut(G) is the product of the full
    symmetric groups on the cells: D is the largest cell and Fix is the sum of
    (size - 1).  Every cell is empty or complete and every cell pair is empty
    or complete bipartite, so the graph is also amenable.
    """
    return Expected(amenable=True, dist=max((len(c) for c in cells), default=0),
                    fix=sum(len(c) - 1 for c in cells))


def _least_colours(tree: oracle.RootedTree, needed: int) -> int:
    """Least c whose count of inequivalent distinguishing labelings reaches needed."""
    c = 1
    while oracle.tree_dist_count(tree, c) < needed:
        c += 1
    return c


def tree_expected(parent: Sequence[int]) -> Expected:
    """D and Fix of a free tree from AHU recursions rooted at its centre.

    Every automorphism fixes the centre.  A bicentral tree gets a virtual root
    on its central edge whose two children are the centres; when the two
    halves have equal codes the class recursion counts the swap.
    """
    n = len(parent)
    if n == 1:
        return Expected(amenable=True, dist=1, fix=0)
    adj = adjacency(n, [(p, v) for v, p in enumerate(parent) if p >= 0])
    centre = centres(adj)
    if len(centre) == 1:
        root = centre[0]
    else:
        root = n
        adj = [[u for u in row if u not in centre or v not in centre] for v, row in enumerate(adj)]
        adj.append([centre[0], centre[1]])
        for a in centre:
            adj[a].append(n)
    tree = rooted(adj, root)
    return Expected(amenable=True, dist=_least_colours(tree, 1), fix=oracle.tree_fix(tree))


def centres(adj: Sequence[Sequence[int]]) -> list[int]:
    """The one or two centre vertices of a tree, by peeling leaves."""
    n = len(adj)
    degree = [len(row) for row in adj]
    layer = [v for v in range(n) if degree[v] <= 1]
    left = n
    while left > 2:
        left -= len(layer)
        nxt = []
        for v in layer:
            for u in adj[v]:
                degree[u] -= 1
                if degree[u] == 1:
                    nxt.append(u)
        layer = nxt
    return sorted(layer)


def rooted(adj: Sequence[Sequence[int]], root: int) -> oracle.RootedTree:
    parent = [-1] * len(adj)
    seen = [False] * len(adj)
    seen[root] = True
    queue = deque([root])
    while queue:
        x = queue.popleft()
        for y in adj[x]:
            if not seen[y]:
                seen[y] = True
                parent[y] = x
                queue.append(y)
    return oracle.RootedTree(parent=tuple(parent), root=root)


def leg(chain: Chain) -> oracle.RootedTree:
    """The rooted tree below one head vertex: level i has the product of the
    first i multiplicities vertices, each with the next multiplicity children."""
    parent = [-1]
    level = [0]
    for m in chain.multiplicities:
        nxt = []
        for p in level:
            for _ in range(m):
                nxt.append(len(parent))
                parent.append(p)
        level = nxt
    return oracle.RootedTree(parent=tuple(parent), root=0)


def chain_expected(chains: Sequence[Chain], isolated: int) -> Expected:
    """D and Fix of a chain draw from its construction.

    Each chain is a clique K_r whose r vertices root identical legs, so its
    automorphisms permute the head freely and act on each leg.  It needs r
    pairwise inequivalent distinguishing leg labelings, and costs r - 1 fixed
    vertices when legs are rigid, else r times the leg's fixing number.  The
    chains are pairwise non-isomorphic components, and the isolated vertices
    are twins.  Heads are complete, other levels empty, joins are stars
    centred toward the head with sizes growing by whole factors, so the
    amenability conditions hold by construction.
    """
    dist = isolated
    fix = max(isolated - 1, 0)
    for chain in chains:
        r = chain.sizes[0]
        t = leg(chain)
        dist = max(dist, _least_colours(t, r))
        legs = oracle.tree_fix(t)
        fix += r - 1 if legs == 0 else r * legs
    return Expected(amenable=True, dist=dist, fix=fix)


def small_expected(n: int, edges: Sequence[tuple[int, int]], amenable: bool) -> Expected:
    """Brute-force D and Fix on an atlas graph; amenability comes from the caller."""
    if not amenable:
        return Expected(amenable=False, dist=None, fix=None)
    g = from_edge_list(n, edges)
    return Expected(amenable=True, dist=oracle.dist_number_bf(g), fix=oracle.fix_number_bf(g))


# ------------------------------------------------------------------ checks


def check_cells(expected: Cells, got: Cells, what: str) -> None:
    if expected != got:
        diff = sorted(set(expected) ^ set(got), key=lambda c: c[0])[:4]
        raise Mismatch(f"{what}: partition differs from naive refinement, e.g. {diff}")


def check_verdict(expected: Expected, amenable: bool, what: str) -> None:
    if amenable != expected.amenable:
        raise Mismatch(f"{what}: amenable={amenable}, expected {expected.amenable}")


def check_number(expected: int | None, got: int, name: str, what: str) -> None:
    if got != expected:
        raise Mismatch(f"{what}: {name}={got}, expected {expected}")


def check_iso(expected: str, got: str, what: str) -> None:
    if got != expected:
        raise Mismatch(f"{what}: iso verdict {got}, expected {expected}")
