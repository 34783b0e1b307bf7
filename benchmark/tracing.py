"""In-memory span recorder for the traced benchmark run.

A span is (name, start, end, parent, request, attrs).  Spans of one
operation share a request id; the operation's root span is the parent of
every layer span timed under it.  Spans stay in memory and are written as
JSON lines when the run ends.
"""

from __future__ import annotations

import json
from contextlib import contextmanager
from time import perf_counter


class Tracer:
    def __init__(self):
        self.spans: list[dict] = []
        self._stack: list[int] = []
        self._requests = 0

    @contextmanager
    def request(self, name: str, **attrs):
        """Root span of one operation; opens a new request id."""
        self._requests += 1
        with self._span(name, self._requests, attrs) as span:
            yield span

    @contextmanager
    def span(self, name: str, **attrs):
        """Layer span under the innermost open span."""
        request = self.spans[self._stack[-1]]["request"]
        with self._span(name, request, attrs) as span:
            yield span

    @contextmanager
    def _span(self, name, request, attrs):
        span = {
            "id": len(self.spans),
            "name": name,
            "parent": self._stack[-1] if self._stack else None,
            "request": request,
            "start": 0.0,
            "end": 0.0,
            "attrs": attrs,
        }
        self.spans.append(span)
        self._stack.append(span["id"])
        span["start"] = perf_counter()
        try:
            yield span
        finally:
            span["end"] = perf_counter()
            self._stack.pop()

    def self_times(self) -> dict[int, float]:
        """Span id -> duration minus the part of it that its child spans cover.

        Spans never overlap their siblings (one thread), so the covered part
        is the sum of the children's durations clipped to the parent."""
        covered = [0.0] * len(self.spans)
        for s in self.spans:
            if s["parent"] is not None:
                p = self.spans[s["parent"]]
                covered[p["id"]] += min(s["end"], p["end"]) - max(s["start"], p["start"])
        return {s["id"]: (s["end"] - s["start"]) - covered[s["id"]] for s in self.spans}

    def write(self, path: str) -> None:
        selfs = self.self_times()
        with open(path, "w", encoding="utf-8") as fh:
            for s in self.spans:
                row = dict(s, duration=s["end"] - s["start"], self=selfs[s["id"]])
                fh.write(json.dumps(row, sort_keys=True) + "\n")
