"""In-memory spans around the benchmark's calls into circumsolve.

A span records its name, start, end, parent, the group (one cell) and the
phase of the run it belongs to; spans are kept in memory and written as JSON
lines when the run ends.  A span's layer is the part of its name before the
first dot, which is the circumsolve module the timed call belongs to.
"""

from __future__ import annotations

import json
import time
from collections import defaultdict


class Tracer:
    def __init__(self):
        self.spans: list[dict] = []
        self._stack: list[int] = []
        self._group = 0
        self.phase = "setup"

    def new_group(self) -> int:
        self._group += 1
        return self._group

    def span(self, name: str, **attrs) -> "_Span":
        return _Span(self, name, attrs)

    def children_ns(self) -> dict[int, int]:
        """Total duration of each span's direct children."""
        covered: dict[int, int] = defaultdict(int)
        for s in self.spans:
            if s["parent"] is not None:
                covered[s["parent"]] += s["end"] - s["start"]
        return covered

    def self_seconds(self) -> dict[str, float]:
        """Per layer: summed span time minus the time its child spans cover."""
        covered = self.children_ns()
        out: dict[str, float] = defaultdict(float)
        for s in self.spans:
            out[s["name"].split(".", 1)[0]] += (s["end"] - s["start"] - covered[s["id"]]) * 1e-9
        return dict(out)

    def write(self, path) -> None:
        with open(path, "w") as fh:
            for s in self.spans:
                fh.write(json.dumps(s) + "\n")


class _Span:
    __slots__ = ("tracer", "name", "attrs", "record")

    def __init__(self, tracer: Tracer, name: str, attrs: dict):
        self.tracer, self.name, self.attrs = tracer, name, attrs

    def __enter__(self) -> dict:
        t = self.tracer
        self.record = {"id": len(t.spans), "parent": t._stack[-1] if t._stack else None,
                       "group": t._group, "phase": t.phase, "name": self.name, "attrs": self.attrs}
        t.spans.append(self.record)
        t._stack.append(self.record["id"])
        self.record["start"] = time.perf_counter_ns()
        return self.record

    def __exit__(self, *exc) -> None:
        self.record["end"] = time.perf_counter_ns()
        self.tracer._stack.pop()
