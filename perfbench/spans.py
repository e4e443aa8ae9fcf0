"""In-memory spans around calls into the package's layers.

The tracer replaces a function under the module attribute its caller
looks up (``codec`` imports ``exists_bijection_within`` by name, so the
attribute to replace is ``dnacode.codec.exists_bijection_within``), and
records one span per call: name, start, end, parent span and iteration
id.  Spans stay in flat arrays until the run ends.  A layer's self time
is its spans' durations minus the time covered by their child spans.
"""

from __future__ import annotations

import gzip
import inspect
import time
from array import array
from collections import defaultdict
from typing import Callable, Iterable, Optional

# (result or items produced, args, kwargs) -> {count name: increment}
CountFn = Callable[[object, tuple, dict], dict]


class Tracer:
    def __init__(self) -> None:
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        self.name = array("i")
        self.start = array("d")
        self.end = array("d")
        self.parent = array("i")
        self.iteration = array("i")
        self.current_iteration = 0
        self.counts: dict[int, dict[str, float]] = defaultdict(lambda: defaultdict(float))
        self._stack: list[int] = []
        self._saved: list[tuple[object, str, object]] = []

    def name_id(self, name: str) -> int:
        if name not in self._ids:
            self._ids[name] = len(self.names)
            self.names.append(name)
        return self._ids[name]

    def begin(self, name_id: int) -> int:
        span = len(self.name)
        self.name.append(name_id)
        self.parent.append(self._stack[-1] if self._stack else -1)
        self.iteration.append(self.current_iteration)
        self.end.append(0.0)
        self._stack.append(span)
        self.start.append(time.perf_counter())
        return span

    def finish(self, span: int) -> None:
        self.end[span] = time.perf_counter()
        self._stack.pop()

    def wrap(self, fn, name: str, counter: Optional[CountFn] = None):
        nid = self.name_id(name)
        counts = self.counts

        if inspect.isgeneratorfunction(fn):

            def traced_gen(*args, **kwargs):
                span = self.begin(nid)
                produced = 0
                try:
                    for item in fn(*args, **kwargs):
                        produced += 1
                        yield item
                finally:
                    self.finish(span)
                    if counter is not None:
                        for key, value in counter(produced, args, kwargs).items():
                            counts[self.current_iteration][f"{name}.{key}"] += value

            return traced_gen

        def traced(*args, **kwargs):
            span = self.begin(nid)
            try:
                result = fn(*args, **kwargs)
            finally:
                self.finish(span)
            if counter is not None:
                for key, value in counter(result, args, kwargs).items():
                    counts[self.current_iteration][f"{name}.{key}"] += value
            return result

        return traced

    def install(self, targets: Iterable[tuple[object, str, str, Optional[CountFn]]]) -> None:
        """Replace ``module.attr`` with a traced wrapper for each target."""
        for module, attr, name, counter in targets:
            original = getattr(module, attr)
            self._saved.append((module, attr, original))
            setattr(module, attr, self.wrap(original, name, counter))

    def uninstall(self) -> None:
        while self._saved:
            module, attr, original = self._saved.pop()
            setattr(module, attr, original)

    def write(self, path) -> int:
        """Write every span as gzip CSV; returns the number of spans."""
        with gzip.open(path, "wt", encoding="utf-8", compresslevel=1) as fh:
            fh.write("span,name,start,end,parent,iteration\n")
            for i in range(len(self.name)):
                fh.write(
                    f"{i},{self.names[self.name[i]]},{self.start[i]:.9f},"
                    f"{self.end[i]:.9f},{self.parent[i]},{self.iteration[i]}\n"
                )
        return len(self.name)


def self_times(starts, ends, parents) -> list[float]:
    """Each span's duration minus the time its direct children cover.

    Children of one span run one after another on a single thread, so the
    time they cover is the sum of their durations, clipped to the parent.
    """
    covered = [0.0] * len(starts)
    for i, p in enumerate(parents):
        if p >= 0:
            lo = max(starts[i], starts[p])
            hi = min(ends[i], ends[p])
            if hi > lo:
                covered[p] += hi - lo
    return [ends[i] - starts[i] - covered[i] for i in range(len(starts))]


def per_iteration(tracer: Tracer) -> dict[int, dict[str, list[float]]]:
    """{iteration: {span name: [calls, self seconds]}}."""
    selfs = self_times(tracer.start, tracer.end, tracer.parent)
    out: dict[int, dict[str, list[float]]] = defaultdict(lambda: defaultdict(lambda: [0, 0.0]))
    for i, nid in enumerate(tracer.name):
        cell = out[tracer.iteration[i]][tracer.names[nid]]
        cell[0] += 1
        cell[1] += selfs[i]
    return out
