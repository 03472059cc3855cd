"""Seeded inputs for the four workloads, drawn without any graphsym code.

Every draw takes a ``random.Random`` seeded from ``--seed``, so the same seed
gives the same files whatever the program under test does.  Graphs are plain
``(n, edges)`` pairs with 0-based endpoints.
"""

from __future__ import annotations

import random
import warnings
from dataclasses import dataclass

CHAIN_N = 20_000
TREE_N = 6_000
GNM_N = 4_000
GNM_DEGREE = 3  # m = GNM_DEGREE * n


@dataclass(frozen=True)
class Chain:
    """One star chain: a complete head of ``sizes[0]`` vertices, then star
    joins where each vertex of level i has ``sizes[i+1] // sizes[i]`` children
    in level i+1."""

    sizes: tuple[int, ...]

    @property
    def multiplicities(self) -> tuple[int, ...]:
        return tuple(b // a for a, b in zip(self.sizes, self.sizes[1:]))


@dataclass(frozen=True)
class ChainDraw:
    n: int
    edges: list[tuple[int, int]]
    cells: list[list[int]]  # the construction's cells, one per chain level
    chains: tuple[Chain, ...]
    isolated: int  # padding vertices of degree 0


def draw_chain(rng: random.Random, n: int = CHAIN_N) -> ChainDraw:
    """Star chains with complete heads and geometric cell sizes.

    Chains are drawn until fewer than 16 vertices remain; a chain whose size
    sequence was already drawn is skipped, because two equal chains would
    merge under refinement.  The rest becomes isolated vertices.
    """
    chains: list[Chain] = []
    remaining = n
    while remaining >= 16:
        sizes = [rng.randint(1, 3)]
        total = sizes[0]
        while True:
            nxt = sizes[-1] * rng.choice((2, 3))
            if total + nxt > remaining:
                break
            sizes.append(nxt)
            total += nxt
        if Chain(tuple(sizes)) not in chains:
            chains.append(Chain(tuple(sizes)))
            remaining -= total
    return build_chains(rng, tuple(chains), n)


def build_chains(rng: random.Random, chains: tuple[Chain, ...], n: int) -> ChainDraw:
    """The chains on consecutive vertices, padded with isolated vertices to n.

    Each level's vertices are shuffled before they are handed out as
    children, so the star joins are not aligned with vertex numbers.
    """
    edges: list[tuple[int, int]] = []
    cells: list[list[int]] = []
    first = 0
    for chain in chains:
        levels = []
        for size in chain.sizes:
            levels.append(list(range(first, first + size)))
            first += size
        head = levels[0]
        edges.extend((head[i], head[j]) for i in range(len(head)) for j in range(i + 1, len(head)))
        for parents, kids in zip(levels, levels[1:]):
            kids = kids[:]
            rng.shuffle(kids)
            k = len(kids) // len(parents)
            for i, p in enumerate(parents):
                edges.extend((p, c) for c in kids[i * k:(i + 1) * k])
        cells.extend(levels)
    if first < n:
        cells.append(list(range(first, n)))
    return ChainDraw(n=n, edges=edges, cells=cells, chains=chains, isolated=n - first)


def draw_tree(rng: random.Random, n: int = TREE_N) -> list[int]:
    """Uniform random recursive tree as a parent array (parent[0] == -1)."""
    return [-1] + [rng.randrange(v) for v in range(1, n)]


def tree_edges(parent: list[int]) -> list[tuple[int, int]]:
    return [(p, v) for v, p in enumerate(parent) if p >= 0]


def draw_gnm(rng: random.Random, n: int = GNM_N, m: int | None = None) -> list[tuple[int, int]]:
    """G(n, m): m distinct edges drawn uniformly, no self-loops."""
    m = GNM_DEGREE * n if m is None else m
    seen: set[tuple[int, int]] = set()
    edges: list[tuple[int, int]] = []
    while len(edges) < m:
        u, v = rng.randrange(n), rng.randrange(n)
        if u == v:
            continue
        key = (u, v) if u < v else (v, u)
        if key in seen:
            continue
        seen.add(key)
        edges.append((u, v))
    return edges


def relabel(rng: random.Random, n: int, edges: list[tuple[int, int]]) -> tuple[list[int], list[tuple[int, int]]]:
    """A uniformly random relabelling; returns (perm, edges), vertex v -> perm[v]."""
    perm = list(range(n))
    rng.shuffle(perm)
    out = [(perm[u], perm[v]) for u, v in edges]
    rng.shuffle(out)
    return perm, out


def move_edge(rng: random.Random, n: int, edges: list[tuple[int, int]]) -> list[tuple[int, int]]:
    """Move one edge so that the degree sequence changes.

    Edge uv becomes uw, with w not adjacent to u.  That lowers deg(v) and
    raises deg(w), which leaves the degree multiset unchanged only when
    deg(w) == deg(v) - 1, so such w are skipped.
    """
    adj: list[set[int]] = [set() for _ in range(n)]
    for u, v in edges:
        adj[u].add(v)
        adj[v].add(u)
    order = list(range(len(edges)))
    rng.shuffle(order)
    for i in order:
        u, v = edges[i]
        if rng.random() < 0.5:
            u, v = v, u
        candidates = [w for w in range(n)
                      if w != u and w not in adj[u] and len(adj[w]) != len(adj[v]) - 1]
        if candidates:
            w = rng.choice(candidates)
            out = edges[:]
            out[i] = (u, w)
            return out
    raise ValueError("no edge can be moved to change the degree sequence")


def atlas() -> list[tuple[int, list[tuple[int, int]]]]:
    """All 1253 graphs on 0 to 7 vertices from networkx's bundled atlas."""
    import networkx as nx

    return [(g.number_of_nodes(), sorted(tuple(sorted(e)) for e in g.edges()))
            for g in nx.graph_atlas_g()]


def graph6(n: int, edges: list[tuple[int, int]]) -> str:
    """graph6 text written by networkx, with no header and no newline."""
    import networkx as nx

    g = nx.Graph()
    g.add_nodes_from(range(n))
    g.add_edges_from(edges)
    return nx.to_graph6_bytes(g, header=False).decode("ascii").strip()


def wl_hash(n: int, edges: list[tuple[int, int]]) -> str:
    """networkx's 1-WL graph hash with n iterations (enough to stabilise)."""
    import networkx as nx

    g = nx.Graph()
    g.add_nodes_from(range(n))
    g.add_edges_from(edges)
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", UserWarning)
        return nx.weisfeiler_lehman_graph_hash(g, iterations=max(1, n))


def edge_list_text(n: int, edges: list[tuple[int, int]]) -> str:
    """The edge-list format graphsym reads: 'n m' then one 'u v' per line."""
    return f"{n} {len(edges)}\n" + "".join(f"{u} {v}\n" for u, v in edges)
