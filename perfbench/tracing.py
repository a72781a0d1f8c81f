"""In-memory spans around the benchmark's calls into shakebal.

A span records a name, start, end and the span that caused it.  Hot
callbacks (the optimizer's objective, evaluate() in a sweep loop) would
produce tens of thousands of spans per run, so they are recorded as one
roll-up span per parent instead: ``count`` calls with ``busy`` seconds
between ``start`` (first call) and ``end`` (last call).  Nothing is written
until :meth:`Tracer.write`, once, when the benchmark ends.
"""

from __future__ import annotations

import json
import time
from contextlib import contextmanager


class Tracer:
    def __init__(self):
        self.spans: list[dict] = []
        self._stack: list[dict] = []
        self._rollups: dict[tuple[int, str], dict] = {}

    def _new(self, name: str, start: float, **attrs) -> dict:
        span = {
            "id": len(self.spans),
            "name": name,
            "parent": self._stack[-1]["id"] if self._stack else None,
            "start": start,
            "end": start,
            "count": 1,
            **attrs,
        }
        self.spans.append(span)
        return span

    @contextmanager
    def span(self, name: str, **attrs):
        span = self._new(name, time.perf_counter(), **attrs)
        self._stack.append(span)
        try:
            yield span
        finally:
            span["end"] = time.perf_counter()
            span["busy"] = span["end"] - span["start"]
            self._stack.pop()

    def rollup(self, name: str, fn):
        """Wrap ``fn`` so that its calls add to one roll-up span under the
        span open when the wrapper was made."""
        parent = self._stack[-1]["id"] if self._stack else -1
        key = (parent, name)
        if key not in self._rollups:
            span = self._new(name, time.perf_counter(), busy=0.0)
            span["count"] = 0
            self._rollups[key] = span
        span = self._rollups[key]

        def timed(*args):
            t0 = time.perf_counter()
            try:
                return fn(*args)
            finally:
                t1 = time.perf_counter()
                if span["count"] == 0:
                    span["start"] = t0
                span["count"] += 1
                span["busy"] += t1 - t0
                span["end"] = t1

        return timed

    def children(self, span: dict, name: str) -> list[dict]:
        return [s for s in self.spans if s["parent"] == span["id"] and s["name"] == name]

    def named(self, name: str) -> list[dict]:
        return [s for s in self.spans if s["name"] == name]

    def write(self, path) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            for span in self.spans:
                fh.write(json.dumps(span) + "\n")


class NullTracer:
    """Tracing off: the same calls as :class:`Tracer`, recording nothing."""

    @contextmanager
    def span(self, name: str, **attrs):
        yield {}

    def rollup(self, name: str, fn):
        return fn
