"""Exception types shared across the toolkit."""

from __future__ import annotations


class GraphSymError(Exception):
    """Base class for all graphsym errors."""


class OutOfRange(GraphSymError, ValueError):
    def __init__(self, vertex: int, n: int):
        super().__init__(f"vertex {vertex} out of range [0, {n})")
        self.vertex = vertex
        self.n = n


class SelfLoop(GraphSymError, ValueError):
    def __init__(self, vertex: int):
        super().__init__(f"self-loop at vertex {vertex}")
        self.vertex = vertex


class BadGraph6(GraphSymError, ValueError):
    def __init__(self, position: int, reason: str):
        super().__init__(f"bad graph6 at byte {position}: {reason}")
        self.position = position
        self.reason = reason


class BadEdgeList(GraphSymError, ValueError):
    def __init__(self, line: int, reason: str):
        super().__init__(f"bad edge list at line {line}: {reason}")
        self.line = line
        self.reason = reason


class InvalidPartition(GraphSymError, ValueError):
    pass


class NotEquitable(GraphSymError, ValueError):
    def __init__(self, vertex: int, cell: int):
        super().__init__(f"partition not equitable: vertex {vertex} deviates in cell {cell}")
        self.vertex = vertex
        self.cell = cell


class UnsupportedRootKind(GraphSymError):
    def __init__(self, cell: int, kind: str):
        super().__init__(f"root cell {cell} has unsupported kind {kind} (upstream amenability bug)")
        self.cell = cell
        self.kind = kind


class NotAmenable(GraphSymError):
    """Raised by the fast dist/fix path; carries the failing verdict."""

    def __init__(self, verdict):
        super().__init__(f"graph is not amenable: {verdict.failure}")
        self.verdict = verdict


class TooLarge(GraphSymError):
    def __init__(self, n: int, limit: int):
        super().__init__(f"instance size {n} exceeds oracle guard {limit} (override with a larger limit)")
        self.n = n
        self.limit = limit


class DivisibilityViolated(GraphSymError):
    """The automorphism action on distinguishing labelings was not free; signals a bug."""


class NotAmenableComponent(GraphSymError):
    def __init__(self, reason: str):
        super().__init__(f"component violates amenable structure: {reason}")
        self.reason = reason


class BadCap(GraphSymError, ValueError):
    def __init__(self, cap: int, needed: int):
        super().__init__(f"saturation cap {cap} too small, need > {needed}")
        self.cap = cap
        self.needed = needed


class BadSpec(GraphSymError, ValueError):
    def __init__(self, reason: str):
        super().__init__(f"bad generator spec: {reason}")
        self.reason = reason


class BadParams(GraphSymError, ValueError):
    pass


class BudgetExhausted(GraphSymError):
    def __init__(self, attempts: int):
        super().__init__(f"no validating instance found in {attempts} attempts")
        self.attempts = attempts


class InternalError(GraphSymError):
    """An invariant the algorithms rely on was violated; always a bug."""
