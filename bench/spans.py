"""Spans the benchmark records around its own calls into partcat's modules.

A span is named ``<module>.<call>``, carries the id of the query it belongs
to, its parent span, its start and end, and the work counts of that call.
Spans stay in memory until the timed section has ended; then they are
summarised per layer and written to the result file.
``NullTracer`` has the same interface and records nothing; untraced runs use
it, so that the end-to-end figures carry no tracing cost.
"""

from __future__ import annotations

import time
from contextlib import contextmanager, nullcontext
from dataclasses import dataclass, field


@dataclass
class Span:
    name: str
    query: int
    parent: int | None
    start: float
    end: float = 0.0
    counts: dict[str, float] = field(default_factory=dict)


class Tracer:
    def __init__(self) -> None:
        self.spans: list[Span] = []
        self.stack: list[int] = []
        self.query = 0

    @contextmanager
    def span(self, name: str):
        """Time the body; the yielded dict takes the call's work counts."""
        parent = self.stack[-1] if self.stack else None
        s = Span(name, self.query, parent, time.perf_counter())
        self.spans.append(s)
        self.stack.append(len(self.spans) - 1)
        try:
            yield s.counts
        finally:
            s.end = time.perf_counter()
            self.stack.pop()

    def self_times(self) -> list[float]:
        """Each span's duration minus the time its child spans cover."""
        out = [s.end - s.start for s in self.spans]
        for s in self.spans:
            if s.parent is not None:
                out[s.parent] -= s.end - s.start
        return out

    def export(self) -> list[list]:
        """Every span as [name, query, parent, start, end, counts], in start order."""
        return [[s.name, s.query, s.parent, s.start, s.end, s.counts] for s in self.spans]

    def totals(self) -> dict[str, float]:
        """Per span name: ``<name>_s`` self time, plus summed counts."""
        out: dict[str, float] = {}
        for s, own in zip(self.spans, self.self_times()):
            out[s.name + "_s"] = out.get(s.name + "_s", 0.0) + own
            layer = s.name.split(".", 1)[0]
            for key, value in s.counts.items():
                name = f"{layer}.{key}"
                out[name] = out.get(name, 0) + value
        return out


class NullTracer:
    query = 0

    def span(self, name: str):
        return nullcontext({})

    def export(self) -> list[list]:
        return []

    def totals(self) -> dict[str, float]:
        return {}
