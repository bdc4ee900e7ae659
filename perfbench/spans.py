"""In-memory spans around calls into ppsim's layers.

A span is (name, start, end, parent, op): `parent` is the index of the
enclosing span or -1, `op` the id of the op it belongs to (-1 - k during
set-up build k, counting from 0). Spans stay in a list until the run ends
and are then written out.
"""

from __future__ import annotations

import json
import time
from collections import defaultdict
from pathlib import Path


class Tracer:
    def __init__(self) -> None:
        self.spans: list[list] = []
        self.op = -1
        self.totals: dict[str, float] = defaultdict(float)
        self._stack: list[int] = []

    def add(self, name: str, value: float) -> None:
        """Add to a counter kept beside the spans (cells, kets, nodes...)."""
        self.totals[name] += value

    def call(self, name: str, fn, *args, **kwargs):
        """Run fn(*args, **kwargs) inside a span called `name`."""
        index = len(self.spans)
        parent = self._stack[-1] if self._stack else -1
        span = [name, 0.0, 0.0, parent, self.op]
        self.spans.append(span)
        self._stack.append(index)
        span[1] = time.perf_counter()
        try:
            return fn(*args, **kwargs)
        finally:
            span[2] = time.perf_counter()
            self._stack.pop()

    def self_seconds(self) -> dict[tuple[int, str], list]:
        """[self seconds, span count] per (op id, span name).

        A span's self time is its duration less its children's. Children of
        one span run one after another, so their durations add.
        """
        child = [0.0] * len(self.spans)
        for _, start, end, parent, _ in self.spans:
            if parent >= 0:
                child[parent] += end - start
        out: dict[tuple[int, str], list] = defaultdict(lambda: [0.0, 0])
        for k, (name, start, end, _, op) in enumerate(self.spans):
            entry = out[op, name]
            entry[0] += end - start - child[k]
            entry[1] += 1
        return dict(out)

    def write(self, path: Path) -> None:
        path.parent.mkdir(parents=True, exist_ok=True)
        keys = ("name", "start", "end", "parent", "op")
        with open(path, "w", encoding="utf-8") as fh:
            json.dump([dict(zip(keys, s)) for s in self.spans], fh)
