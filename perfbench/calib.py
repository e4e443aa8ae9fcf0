"""A fixed pure-Python workload that gauges the machine's speed during a run.

On a shared host the machine's speed can drift by tens of percent over
minutes, and every timing of a run moves with it.  ``work``
is a fixed computation of the same kind as the package's (integer bit
operations, list and dict building, sorting, augmenting-path matching),
written here and sharing no code with the package, so a change to the
package never changes its cost.  ``Speed`` times it between jobs all
through a run and scales each timing by ``REFERENCE_S`` over the median
time of ``work`` around it: the timing at the reference speed.
"""

from __future__ import annotations

import bisect
import statistics
import time

# a typical time of ``work`` on the machine the bounds were set on (shared
# 2-vCPU Intel Xeon VM, CPython 3.11.7); only its constancy matters
REFERENCE_S = 0.003
# calibrations within this many seconds of a timing gauge the speed during it
HALF_WINDOW_S = 0.5


def _graph(n: int, seed: int) -> list[list[int]]:
    """A fixed sparse bipartite graph from a linear congruential generator."""
    x = seed
    adj = []
    for _ in range(n):
        row = set()
        for _ in range(3):
            x = (x * 1103515245 + 12345) & 0x7FFFFFFF
            row.add(x % n)
        adj.append(sorted(row))
    return adj


def _matching(adj: list[list[int]], n_right: int) -> int:
    """Size of a maximum matching, by Kuhn's augmenting paths."""
    match_r = [-1] * n_right
    size = 0
    for root in range(len(adj)):
        seen: dict[int, int] = {}
        stack = [root]
        free = -1
        while stack and free == -1:
            u = stack.pop()
            for v in adj[u]:
                if v in seen:
                    continue
                seen[v] = u
                if match_r[v] == -1:
                    free = v
                    break
                stack.append(match_r[v])
        if free == -1:
            continue
        size += 1
        v = free
        while v != -1:
            u = seen[v]
            nxt = next((w for w, m in enumerate(match_r) if m == u), -1)
            match_r[v] = u
            v = nxt
    return size


def work() -> int:
    """The fixed computation; returns a checksum so nothing is optimised away."""
    strands = [(i * 2654435761) & 0xFFFFFF for i in range(300)]
    near = 0
    for a in strands[:60]:
        for b in strands:
            x = a ^ b
            if (x >> 16).bit_count() <= 2 and (x & 0xFFFF).bit_count() <= 6:
                near += 1
    groups: dict[int, list[int]] = {}
    for s in strands:
        groups.setdefault(s & 0xF, []).append(s >> 4)
    order = sorted((len(v), k, tuple(v)) for k, v in groups.items())
    return near + len(order) + _matching(_graph(120, 7), 120)


class Speed:
    """Calibration times over a run, and timings rescaled by them."""

    def __init__(self, every: float) -> None:
        self.every = every
        self.at: list[float] = []  # mid-points, ascending
        self.seconds: list[float] = []
        self.last = -float("inf")

    def sample(self) -> None:
        t0 = time.perf_counter()
        work()
        t1 = time.perf_counter()
        self.at.append((t0 + t1) / 2)
        self.seconds.append(t1 - t0)
        self.last = t1

    def due(self) -> None:
        """Sample if ``every`` seconds have passed since the last sample."""
        if time.perf_counter() - self.last >= self.every:
            self.sample()

    def scaled(self, start: float, end: float) -> float:
        """``end - start`` at the reference speed, gauged by the calibrations
        within HALF_WINDOW_S of the interval (the nearest one if none is)."""
        i = bisect.bisect_left(self.at, start - HALF_WINDOW_S)
        j = bisect.bisect_right(self.at, end + HALF_WINDOW_S)
        if i == j:
            k = min(range(len(self.at)), key=lambda k: abs(self.at[k] - (start + end) / 2))
            i, j = k, k + 1
        return (end - start) * REFERENCE_S / statistics.median(self.seconds[i:j])
