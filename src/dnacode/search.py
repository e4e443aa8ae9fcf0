"""Small-instance code search.

A code is a clique of the compatibility graph over an enumerated message
space (edge iff the two balls are provably disjoint, i.e. the codec
answers No; Unknown pairs get no edge, so every clique is a certified
code).  The exact search builds the graph and finds its lexicographically
first maximum clique by branch and bound under a greedy-colouring bound;
the greedy search takes vertices one at a time.

Both read the pair decision of ``PairTest.no_row``: an edge needs no
bijection, so none is built.  A row drops at once, with a few mask
operations per strand value, every vertex whose pair with the row's
vertex has a strand on either side with no partner within the bound,
and runs a perfect-matching test only on the vertices left.  The graph
stores each vertex's row among the vertices above it, so each edge once,
at its lower end, which is all the clique routines read.  The greedy
search builds no graph: it asks only for the rows of the vertices it
takes, among the vertices still compatible with its clique.  The
clique found is re-verified by ``is_dna_correcting``, which keeps the
bijection path that verify and intersect use for their witnesses.
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from enum import Enum
from itertools import islice
from typing import Callable, Optional, Sequence

# balls_intersect is not called here: it stays importable under this
# module for the benchmark tracer, which counts pair tests by that name
from .codec import PairTest, VerdictKind, _bit_indices, balls_intersect, is_dna_correcting
from .errors import TooLargeForExact, ValidationError
from .model import DEFAULT_SPACE_CAP, Message, SystemParams, enumerate_space

MAX_EXACT_VERTICES = 64


class Strategy(Enum):
    GREEDY = "greedy"
    EXACT = "exact"


@dataclass(frozen=True)
class CompatibilityGraph:
    """Vertices are messages in canonical enumeration order; bit j of
    adjacency mask i is set iff j > i and the balls of i and j are
    provably disjoint.  Each edge is stored once, at its lower end: the
    clique routines take vertices in ascending order and intersect a
    vertex's mask only with vertices above it."""

    params: SystemParams
    vertices: tuple[Message, ...]
    adjacency: tuple[int, ...]

    def __post_init__(self) -> None:
        n = len(self.vertices)
        if len(self.adjacency) != n:
            raise ValidationError(f"adjacency has {len(self.adjacency)} masks for {n} vertices")
        for i, mask in enumerate(self.adjacency):
            if mask >> n:
                raise ValidationError(f"adjacency mask of vertex {i} is out of range")
            if mask & ((2 << i) - 1):
                raise ValidationError(f"adjacency mask of vertex {i} has a bit at or below it")

    @property
    def vertex_count(self) -> int:
        return len(self.vertices)

    @property
    def edge_count(self) -> int:
        return sum(mask.bit_count() for mask in self.adjacency)

    def edges(self) -> list[tuple[int, int]]:
        return [(i, j) for i, mask in enumerate(self.adjacency) for j in _bit_indices(mask)]


def build_graph(
    params: SystemParams,
    restrict: Optional[tuple[int, int]] = None,
    cap: int = DEFAULT_SPACE_CAP,
    *,
    exact: bool = False,
) -> CompatibilityGraph:
    """Compatibility graph over the (optionally restricted) message space.

    With ``exact``, enumeration stops at the first message past
    MAX_EXACT_VERTICES, which the exact search refuses: TooLargeForExact
    is raised once that message is enumerated, before any pair is decided.
    """
    messages = enumerate_space(params, restrict, cap)
    vertices = tuple(islice(messages, MAX_EXACT_VERTICES + 1) if exact else messages)
    n = len(vertices)
    if exact:
        _check_exact(n)
    row = PairTest(params).no_row(vertices)
    full = (1 << n) - 1
    adjacency = tuple(row(i, full >> (i + 1) << (i + 1)) for i in range(n))
    return CompatibilityGraph(params, vertices, adjacency)


def max_code(graph: CompatibilityGraph, strategy: Strategy) -> tuple[Message, ...]:
    """A large (Greedy) or the lexicographically first maximum (Exact)
    clique, returned as a code.

    The result is re-verified to be correcting before it is returned.
    """
    n = graph.vertex_count
    if strategy is Strategy.EXACT:
        _check_exact(n)
        mask = _exact_clique(graph.adjacency)
    else:
        adjacency = graph.adjacency
        mask = _greedy_clique(n, lambda v, among: adjacency[v] & among)
    return _verified_code(graph.params, graph.vertices, mask)


def _check_exact(n: int) -> None:
    if n > MAX_EXACT_VERTICES:
        raise TooLargeForExact(MAX_EXACT_VERTICES)


def _verified_code(
    params: SystemParams, vertices: Sequence[Message], clique: int
) -> tuple[Message, ...]:
    """The vertices of ``clique`` as a code, re-verified to be correcting."""
    code = tuple(vertices[i] for i in _bit_indices(clique))
    if is_dna_correcting(code, params).kind is not VerdictKind.CORRECTING:
        raise AssertionError("cliques are certified codes")
    return code


def _greedy_clique(n: int, row: Callable[[int, int], int]) -> int:
    """Repeatedly take the lowest-index vertex compatible with the clique.

    ``row(v, among)`` is the mask of the vertices in ``among`` adjacent
    to v, so only the rows of the vertices taken are read, and each only
    among the vertices still compatible with the clique, which all lie
    above v: upper-half masks serve.
    """
    clique = 0
    allowed = (1 << n) - 1
    while allowed:
        low = allowed & -allowed
        clique |= low
        allowed = row(low.bit_length() - 1, allowed ^ low)
    return clique


def _exact_clique(adjacency: Sequence[int]) -> int:
    """The lexicographically first maximum clique, by branch and bound.

    Vertices are branched on in canonical order, each first taken and
    then left out, so cliques are met in lexicographic order.  A branch
    stops when its size plus the colour count of a greedy colouring of
    its candidates (Tomita & Seki, 2003), which bounds any clique among
    them, cannot beat the best clique; the cuts drop only branches that
    cannot strictly improve, so the first maximum clique met is kept.
    A vertex taken is the lowest candidate: upper-half masks serve.
    """
    best_mask = 0
    best_size = 0

    def expand(clique: int, size: int, candidates: int) -> None:
        nonlocal best_mask, best_size
        while candidates:
            if size + _colour_count(adjacency, candidates) <= best_size:
                return
            low = candidates & -candidates
            candidates ^= low
            grown = clique | low
            remaining = candidates & adjacency[low.bit_length() - 1]
            if remaining:
                expand(grown, size + 1, remaining)
            elif size + 1 > best_size:
                best_size = size + 1
                best_mask = grown

    expand(0, 0, (1 << len(adjacency)) - 1)
    return best_mask


def _colour_count(adjacency: Sequence[int], vertices: int) -> int:
    """Colours of a greedy colouring of ``vertices``, each colour class
    an independent set grown from its lowest uncoloured vertex.  Each
    vertex added is the lowest still free: upper-half masks serve."""
    colours = 0
    while vertices:
        colours += 1
        free = vertices
        while free:
            low = free & -free
            vertices ^= low
            free &= ~adjacency[low.bit_length() - 1] ^ low
    return colours


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
    """Extract a code from the (optionally restricted) message space, and
    time the whole run.

    The exact search builds the graph once the space is known to be
    small enough for it.  The greedy search builds no graph: it decides
    only the pairs of the rows its clique reads, and finds the clique
    ``max_code`` finds on the graph.
    """
    started = time.perf_counter()
    if strategy is Strategy.EXACT:
        graph = build_graph(params, restrict, cap, exact=True)
        vertices = graph.vertices
        code = max_code(graph, strategy)
    else:
        vertices = tuple(enumerate_space(params, restrict, cap))
        clique = _greedy_clique(len(vertices), PairTest(params).no_row(vertices))
        code = _verified_code(params, vertices, clique)
    elapsed = time.perf_counter() - started
    row = SearchRow(params, restrict, len(vertices), len(code), strategy, elapsed)
    return code, row
