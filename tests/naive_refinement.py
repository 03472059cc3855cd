"""Round-based colour refinement, kept apart from graphsym's worklist core.

Each round gives every vertex the colour (own colour, sorted neighbour
colours) and renumbers the colours by first appearance, until a round
splits no class.  This is the textbook 1-WL iteration: O(rounds * (n + m)
log n) and slow, but too simple to share a bug with the fast path.  It
imports nothing from ``graphsym`` on purpose.
"""

from __future__ import annotations

from typing import Hashable, Sequence


def first_appearance(colors: Sequence[Hashable]) -> list[int]:
    """Renumber colours 0, 1, ... in order of their lowest vertex."""
    index: dict[Hashable, int] = {}
    return [index.setdefault(col, len(index)) for col in colors]


def refine_rounds(adj: Sequence[Sequence[int]], colors: Sequence[Hashable]) -> tuple[int, ...]:
    """The stable colouring refining ``colors``, numbered by lowest vertex:
    equal to the ``cell_of`` of graphsym's canonical partition."""
    current = first_appearance(colors)
    while True:
        nxt = first_appearance(
            [(current[v], tuple(sorted(current[u] for u in row))) for v, row in enumerate(adj)]
        )
        if nxt == current:  # no class split, so first-appearance ids repeat
            return tuple(current)
        current = nxt
