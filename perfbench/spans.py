"""In-memory span recorder for the traced run.

A span has a name, a start, an end, the index of its parent span and an
optional input tag.  Spans are kept in a list while the run goes and written
out once when it ends.
"""

from __future__ import annotations

import json
import time
from contextlib import contextmanager
from dataclasses import astuple, dataclass, fields


@dataclass
class Span:
    name: str
    start: float
    end: float
    parent: int | None
    input: str | None = None

    @property
    def seconds(self) -> float:
        return self.end - self.start


class Recorder:
    def __init__(self) -> None:
        self.spans: list[Span] = []
        self._open: list[int] = []

    @contextmanager
    def span(self, name: str, input: str | None = None):
        """Time the body as a child of the innermost open span; yields its index."""
        parent = self._open[-1] if self._open else None
        index = len(self.spans)
        self.spans.append(Span(name, time.perf_counter(), 0.0, parent, input))
        self._open.append(index)
        try:
            yield index
        finally:
            self._open.pop()
            self.spans[index].end = time.perf_counter()

    def ancestor(self, index: int, name: str) -> int | None:
        """Index of the nearest enclosing span called name, or None."""
        parent = self.spans[index].parent
        while parent is not None and self.spans[parent].name != name:
            parent = self.spans[parent].parent
        return parent

    def dump(self, path: str) -> None:
        """Write {"fields": [...], "spans": [[name, start, end, parent, input], ...]}."""
        with open(path, "w", encoding="utf-8") as fh:
            json.dump({"fields": [f.name for f in fields(Span)],
                       "spans": [astuple(s) for s in self.spans]}, fh)
