"""In-memory span recorder and the statistics the benchmark reports.

A span is one call into a module's public function, recorded from the
benchmark's side: the benchmark replaces the name in the module where its
caller looks it up, and restores it afterwards. Nothing inside the
program changes. Spans nest through a stack, so each span knows its
parent, and every span carries the id of the op that was running when it
started (-1 outside the timed ops).
"""

from __future__ import annotations

import json
import statistics
from dataclasses import dataclass
from time import perf_counter


@dataclass
class Span:
    name: str
    start: float
    end: float
    parent: int
    op: int
    info: object = None


class Tracer:
    """Collects spans; `install` swaps traced wrappers into modules."""

    def __init__(self):
        self.spans: list[Span] = []
        self.op = -1
        self._stack: list[int] = []
        self._saved: list[tuple[object, str, object]] = []

    def wrap(self, name, fn, info=None):
        """`fn` recorded as span `name`; `name` may be a callable of the args.

        `info(args)` attaches one value to the span, such as a draw count.
        """

        def traced(*args, **kwargs):
            span = Span(name(args) if callable(name) else name, 0.0, 0.0,
                        self._stack[-1] if self._stack else -1, self.op,
                        info(args) if info else None)
            self._stack.append(len(self.spans))
            self.spans.append(span)
            span.start = perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                span.end = perf_counter()
                self._stack.pop()

        return traced

    def install(self, patches) -> None:
        """patches: (owner, attribute, span name[, info]) tuples."""
        for owner, attr, name, *info in patches:
            original = getattr(owner, attr)
            self._saved.append((owner, attr, original))
            setattr(owner, attr, self.wrap(name, original, *info))

    def uninstall(self) -> None:
        while self._saved:
            owner, attr, original = self._saved.pop()
            setattr(owner, attr, original)

    def dump(self, path, header: dict) -> None:
        with open(path, "w", encoding="ascii") as fh:
            fh.write(json.dumps(header) + "\n")
            for s in self.spans:
                fh.write(json.dumps({"name": s.name, "start": s.start, "end": s.end,
                                     "parent": s.parent, "op": s.op}) + "\n")


def self_times(spans: list[Span]) -> list[float]:
    """Each span's duration minus the durations of its direct children."""
    child = [0.0] * len(spans)
    for s in spans:
        if s.parent >= 0:
            child[s.parent] += s.end - s.start
    return [s.end - s.start - c for s, c in zip(spans, child)]


def median_ms(values: list[float]) -> float:
    """Median of durations in seconds, in ms; 0.0 for a layer that never ran."""
    return statistics.median(values) * 1e3 if values else 0.0


def throughput(items: int, seconds: float) -> float:
    return items / seconds if seconds > 0 else 0.0
