"""Small-instance code search.

Builds the compatibility graph over an enumerated message space (edge
iff the two balls are provably disjoint, i.e. the codec answers No;
Unknown pairs get no edge, so every clique is a certified code) and
extracts large cliques either greedily or exactly by branch and bound.
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from enum import Enum
from typing import Optional, Sequence

# balls_intersect is not called here: it stays importable under this
# module for the benchmark tracer, which counts pair tests by that name
from .codec import Answer, PairTest, Regime, VerdictKind, balls_intersect, is_dna_correcting
from .errors import TooLargeForExact, ValidationError
from .model import DEFAULT_SPACE_CAP, Message, SystemParams, enumerate_space

MAX_EXACT_VERTICES = 64


class Strategy(Enum):
    GREEDY = "greedy"
    EXACT = "exact"


@dataclass(frozen=True)
class CompatibilityGraph:
    """Vertices are messages in canonical enumeration order; adjacency
    is one bitmask per vertex (bit j set iff balls of i and j are
    provably disjoint)."""

    params: SystemParams
    vertices: tuple[Message, ...]
    adjacency: tuple[int, ...]

    def __post_init__(self) -> None:
        n = len(self.vertices)
        if len(self.adjacency) != n:
            raise ValidationError(
                f"adjacency has {len(self.adjacency)} masks for {n} vertices"
            )
        full = (1 << n) - 1 if n else 0
        for i, mask in enumerate(self.adjacency):
            if mask & ~full:
                raise ValidationError(f"adjacency mask of vertex {i} is out of range")
            if mask & (1 << i):
                raise ValidationError(f"vertex {i} has a self-loop")
        for i in range(n):
            for j in range(i + 1, n):
                if bool(self.adjacency[i] & (1 << j)) != bool(self.adjacency[j] & (1 << i)):
                    raise ValidationError(f"adjacency is not symmetric at ({i},{j})")

    @property
    def vertex_count(self) -> int:
        return len(self.vertices)

    @property
    def edge_count(self) -> int:
        return sum(mask.bit_count() for mask in self.adjacency) // 2

    def edges(self) -> list[tuple[int, int]]:
        out = []
        for i, mask in enumerate(self.adjacency):
            mask >>= i + 1
            j = i + 1
            while mask:
                if mask & 1:
                    out.append((i, j))
                mask >>= 1
                j += 1
        return out


def build_graph(
    params: SystemParams,
    restrict: Optional[tuple[int, int]] = None,
    cap: int = DEFAULT_SPACE_CAP,
) -> CompatibilityGraph:
    """Compatibility graph over the (optionally restricted) message space."""
    vertices = tuple(enumerate_space(params, restrict, cap))
    n = len(vertices)
    adjacency = [0] * n
    test = PairTest(params)
    if test.regime is not Regime.LOW_TAU:  # there every pair is Unknown
        for i, j, answer, _ in test.answers(vertices, test.flags(vertices)):
            if answer is Answer.NO:
                adjacency[i] |= 1 << j
                adjacency[j] |= 1 << i
    return CompatibilityGraph(params, vertices, tuple(adjacency))


def max_code(graph: CompatibilityGraph, strategy: Strategy) -> tuple[Message, ...]:
    """A large (Greedy) or maximum (Exact) clique, returned as a code.

    The result is re-verified to be correcting before it is returned.
    """
    n = graph.vertex_count
    if n == 0:
        return ()
    if strategy is Strategy.EXACT:
        if n > MAX_EXACT_VERTICES:
            raise TooLargeForExact(n, MAX_EXACT_VERTICES)
        mask = _exact_clique(graph.adjacency)
    else:
        mask = _greedy_clique(graph.adjacency)
    code = tuple(graph.vertices[i] for i in _bit_indices(mask))
    verdict = is_dna_correcting(code, graph.params)
    if verdict.kind is not VerdictKind.CORRECTING:
        raise AssertionError("cliques are certified codes")
    return code


def _bit_indices(mask: int) -> list[int]:
    out = []
    while mask:
        low = mask & -mask
        out.append(low.bit_length() - 1)
        mask ^= low
    return out


def _greedy_clique(adjacency: Sequence[int]) -> int:
    # repeatedly take the lowest-index vertex compatible with the clique
    clique = 0
    allowed = (1 << len(adjacency)) - 1
    while allowed:
        low = allowed & -allowed
        clique |= low
        allowed &= adjacency[low.bit_length() - 1]
    return clique


def _exact_clique(adjacency: Sequence[int]) -> int:
    """Maximum clique by branch and bound, vertices ordered by degree."""
    n = len(adjacency)
    order = sorted(range(n), key=lambda v: (-adjacency[v].bit_count(), v))
    position = {v: p for p, v in enumerate(order)}
    adj = [0] * n
    for v in range(n):
        for w in _bit_indices(adjacency[v]):
            adj[position[v]] |= 1 << position[w]

    best_mask = 0
    best_size = 0

    def expand(clique: int, size: int, candidates: int) -> None:
        nonlocal best_mask, best_size
        while candidates:
            if size + candidates.bit_count() <= best_size:
                return
            low = candidates & -candidates
            candidates ^= low
            v = low.bit_length() - 1
            grown = clique | low
            remaining = candidates & adj[v]
            if remaining:
                expand(grown, size + 1, remaining)
            elif size + 1 > best_size:
                best_size = size + 1
                best_mask = grown

    expand(0, 0, (1 << n) - 1)
    result = 0
    for p in _bit_indices(best_mask):
        result |= 1 << order[p]
    return result


@dataclass(frozen=True)
class SearchRow:
    """One summary-table row for a completed search."""

    params: SystemParams
    restrict: Optional[tuple[int, int]]
    space_size: int
    code_size: int
    strategy: Strategy
    seconds: float


def run_search(
    params: SystemParams,
    strategy: Strategy,
    restrict: Optional[tuple[int, int]] = None,
    cap: int = DEFAULT_SPACE_CAP,
) -> tuple[tuple[Message, ...], SearchRow]:
    """Build the graph, extract a code, and time the whole run."""
    started = time.perf_counter()
    graph = build_graph(params, restrict, cap)
    code = max_code(graph, strategy)
    elapsed = time.perf_counter() - started
    row = SearchRow(params, restrict, graph.vertex_count, len(code), strategy, elapsed)
    return code, row
