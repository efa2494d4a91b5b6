"""Spans and counts for the benchmark's traced run (standard library only).

A span is ``[name, start, end, parent, job]``: perf_counter seconds, the index
of the enclosing span (or None) and the id of the job it belongs to.  On
Linux perf_counter reads CLOCK_MONOTONIC, which every process shares, so
spans recorded in a child process line up with the parent's.  Spans and
counts stay in memory and are written once, at the end of the run.
"""

from __future__ import annotations

import json
import time
from collections import Counter


class Tracer:
    def __init__(self):
        self.spans: list[list] = []
        self.counts: Counter = Counter()
        self.job = None
        self._stack: list[int] = []
        self._patches: list[tuple] = []

    def begin(self, name: str) -> int:
        parent = self._stack[-1] if self._stack else None
        self.spans.append([name, time.perf_counter(), None, parent, self.job])
        self._stack.append(len(self.spans) - 1)
        return len(self.spans) - 1

    def end(self, idx: int) -> None:
        self.spans[idx][2] = time.perf_counter()
        self._stack.pop()

    def add(self, name: str, start: float, end: float, parent) -> int:
        """Record a finished span, e.g. one reported by a child process."""
        self.spans.append([name, start, end, parent, self.job])
        return len(self.spans) - 1

    def wrap(self, owner, attr: str, name: str, measure=None, span: bool = True):
        """Replace owner.attr by a wrapper that counts calls and records a span.

        ``measure(*args, **kwargs)`` returns extra counts for the call, keyed
        by suffix (``{"points": 257}`` adds to ``<name>.points``).  With
        span=False the call is counted only.
        """
        orig = getattr(owner, attr)

        def wrapper(*args, **kwargs):
            self.counts[name + ".calls"] += 1
            if measure is not None:
                for key, value in measure(*args, **kwargs).items():
                    self.counts[f"{name}.{key}"] += value
            if not span:
                return orig(*args, **kwargs)
            idx = self.begin(name)
            try:
                return orig(*args, **kwargs)
            finally:
                self.end(idx)

        self._patches.append((owner, attr, orig))
        setattr(owner, attr, wrapper)

    def restore(self) -> None:
        while self._patches:
            owner, attr, orig = self._patches.pop()
            setattr(owner, attr, orig)

    def self_seconds(self) -> list[float]:
        """Each span's duration minus the part its direct children cover."""
        covered = [0.0] * len(self.spans)
        for _, start, end, parent, _ in self.spans:
            if parent is not None:
                covered[parent] += end - start
        return [s[2] - s[1] - c for s, c in zip(self.spans, covered)]

    def dump(self, path) -> None:
        keys = ("name", "start", "end", "parent", "job")
        with open(path, "w") as fh:
            json.dump(
                {
                    "spans": [dict(zip(keys, s)) for s in self.spans],
                    "counts": dict(sorted(self.counts.items())),
                },
                fh,
            )
