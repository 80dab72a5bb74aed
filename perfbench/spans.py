"""Spans and counters for the traced benchmark run.

Spans are recorded only in the benchmark's own code, around each call it
makes into a public function of one ``weylorbits`` module; the program
itself is not instrumented. A span is named after the per-layer time
metric it feeds (``"weyl.orbit_s"``, ``"cli.s"``, ...). Every job is a
root span named ``"bench.other_s"``, so its self time is the part of the
job that no layer span covers.

Counters are kept in both modes because they cost a dictionary update;
spans are kept only when tracing is on. Spans stay in memory and are
written once, when the run ends.
"""

from __future__ import annotations

import json
from collections import Counter, defaultdict
from time import perf_counter


class Tracer:
    def __init__(self, enabled: bool):
        self.enabled = enabled
        self.counts: Counter = Counter()
        # Each span is [name, start, end, parent index or None, job id].
        self.spans: list[list] = []
        self.job = -1
        self._stack: list[int] = []

    def count(self, name: str, n=1) -> None:
        self.counts[name] += n

    def open(self, name: str) -> None:
        parent = self._stack[-1] if self._stack else None
        self._stack.append(len(self.spans))
        self.spans.append([name, perf_counter(), None, parent, self.job])

    def close(self) -> None:
        self.spans[self._stack.pop()][2] = perf_counter()

    def call(self, name: str, fn, *args, **kwargs):
        """Call ``fn`` inside a span called ``name`` (a plain call when off)."""
        if not self.enabled:
            return fn(*args, **kwargs)
        self.open(name)
        try:
            return fn(*args, **kwargs)
        finally:
            self.close()

    def self_times(self) -> dict[str, float]:
        """Seconds per span name, each span minus the time its children cover."""
        covered = [0.0] * len(self.spans)
        for _, start, end, parent, _ in self.spans:
            if parent is not None:
                covered[parent] += end - start
        out: dict[str, float] = defaultdict(float)
        for (name, start, end, _, _), child in zip(self.spans, covered):
            out[name] += end - start - child
        return out

    def write(self, path) -> None:
        keys = ("name", "start", "end", "parent", "job")
        with open(path, "w", encoding="utf-8") as fh:
            json.dump([dict(zip(keys, s)) for s in self.spans], fh)
