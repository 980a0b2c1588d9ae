"""In-memory spans recorded around the benchmark's calls into each layer.

A span has a name, start and end (``time.perf_counter`` seconds), the
name of the span that caused it and the id of the op it belongs to.
With tracing off, ``span`` stores nothing.
"""

from __future__ import annotations

import json
import time
from contextlib import contextmanager


class Tracer:
    def __init__(self, enabled: bool):
        self.enabled = enabled
        self.spans: list[dict] = []
        self.op_id: int | None = None
        self._stack: list[str] = []

    @contextmanager
    def span(self, name: str):
        if not self.enabled:
            yield
            return
        rec = {"op": self.op_id, "name": name,
               "parent": self._stack[-1] if self._stack else None}
        self._stack.append(name)
        rec["start"] = time.perf_counter()
        try:
            yield rec
        finally:
            rec["end"] = time.perf_counter()
            self._stack.pop()
            self.spans.append(rec)

    def op_spans(self, op_id: int) -> list[dict]:
        return [s for s in self.spans if s["op"] == op_id]

    def write(self, path: str):
        with open(path, "w") as f:
            for s in self.spans:
                f.write(json.dumps(s) + "\n")


def duration(span: dict) -> float:
    return span["end"] - span["start"]


def layer_seconds(spans: list[dict], root: str = "op") -> dict[str, float]:
    """Seconds per child-of-``root`` span name, summed within one op."""
    out: dict[str, float] = {}
    for s in spans:
        if s["parent"] == root:
            out[s["name"]] = out.get(s["name"], 0.0) + duration(s)
    return out
