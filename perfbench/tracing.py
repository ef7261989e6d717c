"""In-memory spans around the benchmark's calls into each hydrochain layer.

A span is (name, start, end, parent, job). Names are ``<layer>.<call>``; the
root span of every job is ``job``. Spans stay in memory while the benchmark
runs and are written out once, at the end.
"""

from __future__ import annotations

import contextlib
import json
import time
from collections import defaultdict


class Tracer:
    def __init__(self) -> None:
        self.spans: list[list] = []  # [name, start, end, parent index, job]
        self.job: int | None = None
        self._open: list[int] = []

    @contextlib.contextmanager
    def span(self, name: str):
        parent = self._open[-1] if self._open else None
        idx = len(self.spans)
        self.spans.append([name, time.perf_counter(), None, parent, self.job])
        self._open.append(idx)
        try:
            yield
        finally:
            self.spans[idx][2] = time.perf_counter()
            self._open.pop()

    def self_times(self) -> dict[str, dict]:
        """Per layer: calls and self time, i.e. span time not covered by child
        spans. The ``job`` layer's self time is the benchmark's own glue."""
        child_time = defaultdict(float)
        for _, start, end, parent, _ in self.spans:
            if parent is not None:
                child_time[parent] += end - start
        out: dict[str, dict] = {}
        for idx, (name, start, end, _, _) in enumerate(self.spans):
            layer = out.setdefault(name.split(".")[0], {"calls": 0, "self_s": 0.0})
            layer["calls"] += 1
            layer["self_s"] += end - start - child_time[idx]
        return out

    def write(self, path) -> None:
        keys = ("name", "start", "end", "parent", "job")
        with open(path, "w") as f:
            json.dump([dict(zip(keys, s)) for s in self.spans], f)


class NullTracer:
    """Tracer stand-in for untraced jobs: spans cost one method call."""

    _null = contextlib.nullcontext()

    def span(self, name: str):
        return self._null


NULL_TRACER = NullTracer()
