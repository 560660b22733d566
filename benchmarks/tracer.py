"""In-memory spans recorded by the benchmark around its calls into the library.

A span has a name, start, end, parent span and job id.  Span names are
``<module>.<step>`` (``metric.vr``, ``operations.image``); the per-layer
metric of a span name is its self time, reported as ``<name>_s``.
"""

from __future__ import annotations

import json
import time
from contextlib import contextmanager, nullcontext


class NullTracer:
    """Tracing off: every span is a shared no-op context."""

    _null = nullcontext()

    def span(self, name: str):
        return self._null


class Tracer:
    def __init__(self):
        self.spans: list[dict] = []
        self.job: int | None = None
        self._open: list[int] = []

    @contextmanager
    def span(self, name: str):
        record = {
            "name": name,
            "job": self.job,
            "parent": self._open[-1] if self._open else None,
            "start": time.perf_counter(),
            "end": None,
        }
        self._open.append(len(self.spans))
        self.spans.append(record)
        try:
            yield
        finally:
            record["end"] = time.perf_counter()
            self._open.pop()

    def self_times(self, job: int) -> dict[str, float]:
        """Seconds per span name in one job, minus time covered by child spans."""
        totals: dict[str, float] = {}
        child_time: dict[int, float] = {}
        for s in self.spans:
            if s["job"] != job:
                continue
            dur = s["end"] - s["start"]
            totals[s["name"]] = totals.get(s["name"], 0.0) + dur
            if s["parent"] is not None:
                child_time[s["parent"]] = child_time.get(s["parent"], 0.0) + dur
        for idx, covered in child_time.items():
            name = self.spans[idx]["name"]
            totals[name] -= covered
        return totals

    def write(self, path) -> None:
        with open(path, "w") as fh:
            json.dump({"spans": self.spans}, fh)
