"""In-memory spans around the benchmark's calls into the cfmetric layers.

A span is one public call into one layer, named ``<layer>.<call>``.  The
benchmark opens a root span (layer ``bench``) per operation; the layer calls
made for that operation are its children and share its op id.  Spans stay in
memory until ``dump`` writes them once, at the end of the run.
"""

from __future__ import annotations

import json
import statistics
import time
from contextlib import contextmanager
from pathlib import Path

clock = time.perf_counter


class Tracer:
    def __init__(self):
        # each span is [name, start, end, parent index (-1 for none), op id
        # (0 outside any operation)]
        self.spans: list[list] = []
        self._open: list[int] = []
        self._ops = 0
        self._op = 0

    @contextmanager
    def span(self, name: str):
        parent = self._open[-1] if self._open else -1
        rec = [name, clock(), 0.0, parent, self._op]
        self._open.append(len(self.spans))
        self.spans.append(rec)
        try:
            yield
        finally:
            rec[2] = clock()
            self._open.pop()

    @contextmanager
    def op(self, name: str):
        """Root span of one benchmark operation; it and its children share a
        new op id."""
        self._ops += 1
        self._op = self._ops
        try:
            with self.span(name):
                yield
        finally:
            self._op = 0

    def durations(self, name: str) -> list[float]:
        return [end - start for n, start, end, _, _ in self.spans if n == name]

    def median(self, name: str, scale: float = 1.0) -> float:
        d = self.durations(name)
        return statistics.median(d) * scale if d else 0.0

    def self_times(self) -> dict[str, float]:
        """Seconds per layer, each span counted minus the time of its children."""
        child = [0.0] * len(self.spans)
        for name, start, end, parent, _ in self.spans:
            if parent >= 0:
                child[parent] += end - start
        out: dict[str, float] = {}
        for i, (name, start, end, _, _) in enumerate(self.spans):
            layer = name.split(".", 1)[0]
            out[layer] = out.get(layer, 0.0) + (end - start) - child[i]
        return out

    def dump(self, path: Path, header: dict) -> None:
        path.parent.mkdir(parents=True, exist_ok=True)
        doc = dict(header, fields=["name", "start", "end", "parent", "op"], spans=self.spans)
        path.write_text(json.dumps(doc))


class NoTracer:
    """Stands in for a Tracer where the run is not traced."""

    @contextmanager
    def span(self, name: str):
        yield


NO_TRACE = NoTracer()
