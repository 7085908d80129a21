"""In-memory spans around the benchmark's calls into margfit's modules.

A span holds its name, its parent's index (-1 for a root), and start and
end times from ``time.perf_counter``. Span names read ``<module>.<step>``;
the module part is the layer a span's time is charged to. Spans are kept
in a list while the run goes and written out once at the end.
"""

from __future__ import annotations

import time
from contextlib import contextmanager

import numpy as np


class Tracer:
    """Records nested spans; one tracer per workload."""

    def __init__(self) -> None:
        self.spans: list[list] = []  # [name, parent, start, end]
        self._open: list[int] = []

    @contextmanager
    def span(self, name: str):
        parent = self._open[-1] if self._open else -1
        record = [name, parent, time.perf_counter(), 0.0]
        self.spans.append(record)
        self._open.append(len(self.spans) - 1)
        try:
            yield
        finally:
            record[3] = time.perf_counter()
            self._open.pop()

    def durations(self, name: str) -> np.ndarray:
        """Durations in seconds of every span called ``name``."""
        return np.array([end - start for n, _, start, end in self.spans if n == name])

    def tree_stats(self, root: int = 0) -> tuple[float, float, dict[str, float]]:
        """(duration, uncovered seconds, self seconds per layer) under ``root``.

        A span's self time is its duration minus its children's; children
        of one span run one after another, so their durations never
        overlap. The uncovered seconds are the root's own self time.
        """
        n = len(self.spans)
        dur = np.array([end - start for _, _, start, end in self.spans])
        child = np.zeros(n)
        top = np.empty(n, dtype=int)
        for i, (_, parent, _, _) in enumerate(self.spans):
            top[i] = i if parent < 0 else top[parent]
            if parent >= 0:
                child[parent] += dur[i]
        own = dur - child
        layers: dict[str, float] = {}
        for i in np.flatnonzero(top == root):
            layer = self.spans[i][0].split(".", 1)[0]
            layers[layer] = layers.get(layer, 0.0) + float(own[i])
        return float(dur[root]), float(own[root]), layers
