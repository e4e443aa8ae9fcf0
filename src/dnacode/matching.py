"""Bipartite matching engine: perfect matchings, Hall violators,
threshold-constrained bijections between messages, bottleneck assignment,
and read-assignment feasibility.

Read-assignment feasibility is decided by integer max flow on the network

    source -> read value (cap = multiplicity)
    value  -> exact slot of strand s   iff value == s
    value  -> noisy slot of strand s   iff (0,0) < split_distance(value, s) <= (e_i, e_d)
    exact slot -> strand (cap K), noisy slot -> strand (cap floor(tau*K))
    strand -> sink (cap K)

and the pool is explainable by the message iff the max flow equals M*K.
Correctness of the reduction: a valid grouping (each strand gets exactly K
reads, every read within (e_i, e_d) of its strand, at most floor(tau*K) of
them differing from it) routes each read through its value node and the
exact or noisy slot of its strand, giving a flow of M*K within all
capacities.  Conversely an integral flow of M*K (integral because all
capacities are integers) assigns every read copy to a strand; strand -> sink
capacities force exactly K per strand, noisy-slot capacities cap the
differing reads at floor(tau*K), and noisy edges exist only within
(e_i, e_d).  The exact slot's capacity K never binds before the strand
capacity, so routing exact copies through it loses no generality.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass
from typing import Iterable, Iterator, Optional, Sequence, Union

from .errors import ShapeMismatch, SizeMismatch, ValidationError, WrongPoolSize
from .model import Message, ReadPool, Strand, SystemParams, check_shape, split_popcount


@dataclass(frozen=True)
class BipartiteGraph:
    """Adjacency per left vertex; no parallel edges, neighbors sorted."""

    left_size: int
    right_size: int
    adjacency: tuple[tuple[int, ...], ...]

    def __post_init__(self) -> None:
        if self.left_size < 0 or self.right_size < 0:
            raise ValidationError("vertex counts must be non-negative")
        if len(self.adjacency) != self.left_size:
            raise ValidationError(
                f"adjacency has {len(self.adjacency)} rows, expected {self.left_size}"
            )
        norm = []
        for nbrs in self.adjacency:
            uniq = tuple(sorted(set(nbrs)))
            if uniq and not (0 <= uniq[0] and uniq[-1] < self.right_size):
                raise ValidationError(f"neighbor out of range in {uniq}")
            norm.append(uniq)
        object.__setattr__(self, "adjacency", tuple(norm))

    @property
    def edge_count(self) -> int:
        return sum(len(nbrs) for nbrs in self.adjacency)


@dataclass(frozen=True)
class PerfectMatching:
    """A left-perfect matching, as (left, right) pairs sorted by left."""

    pairs: tuple[tuple[int, int], ...]

    def __post_init__(self) -> None:
        lefts = [u for u, _ in self.pairs]
        rights = [v for _, v in self.pairs]
        if lefts != sorted(set(lefts)) or len(set(rights)) != len(rights):
            raise ValidationError("matching pairs must pair distinct vertices")


@dataclass(frozen=True)
class HallViolator:
    """A left set Y with |Y| > |N(Y)|, certifying no left-perfect matching."""

    left_set: frozenset[int]
    neighborhood: frozenset[int]

    def __post_init__(self) -> None:
        if len(self.left_set) <= len(self.neighborhood):
            raise ValidationError(
                f"not a violator: |Y| = {len(self.left_set)} <= "
                f"|N(Y)| = {len(self.neighborhood)}"
            )


def maximum_matching(g: BipartiteGraph) -> tuple[tuple[int, ...], tuple[int, ...]]:
    """Hopcroft-Karp maximum matching.

    Returns (match_left, match_right) with -1 marking unmatched vertices.
    Deterministic: vertices are explored in index order.
    """
    return _hopcroft_karp(g.left_size, g.right_size, g.adjacency)


def _hopcroft_karp(
    nl: int, nr: int, adj: Sequence[Sequence[int]]
) -> tuple[tuple[int, ...], tuple[int, ...]]:
    # rows must be sorted and distinct, as BipartiteGraph makes them;
    # callers that build such rows themselves skip its normalisation
    match_l = [-1] * nl
    match_r = [-1] * nr
    infinity = nl + nr + 1
    dist = [0] * nl

    def bfs() -> bool:
        q: deque[int] = deque()
        for u in range(nl):
            if match_l[u] == -1:
                dist[u] = 0
                q.append(u)
            else:
                dist[u] = infinity
        reachable_free = False
        while q:
            u = q.popleft()
            for v in adj[u]:
                w = match_r[v]
                if w == -1:
                    reachable_free = True
                elif dist[w] == infinity:
                    dist[w] = dist[u] + 1
                    q.append(w)
        return reachable_free

    def dfs(root: int) -> None:
        # explicit stack, since an augmenting path can be as long as the
        # graph: it holds each vertex above u on the path, with its
        # iterator over the neighbors it has not tried yet
        stack: list[tuple[int, Iterator[int]]] = []
        u, nbrs, level = root, iter(adj[root]), dist[root] + 1
        while True:
            for v in nbrs:
                w = match_r[v]
                if w == -1:
                    # flip the path: u takes v, its old partner goes to its parent
                    while True:
                        prev = match_l[u]
                        match_l[u] = v
                        match_r[v] = u
                        if not stack:
                            return
                        u, v = stack.pop()[0], prev
                if dist[w] == level:
                    stack.append((u, nbrs))
                    u, nbrs, level = w, iter(adj[w]), level + 1
                    break
            else:
                dist[u] = infinity
                if not stack:
                    return
                u, nbrs = stack.pop()
                level -= 1

    while bfs():
        for u in range(nl):
            if match_l[u] == -1:
                dfs(u)
    return tuple(match_l), tuple(match_r)


def perfect_matching_or_violator(g: BipartiteGraph) -> Union[PerfectMatching, HallViolator]:
    """A left-perfect matching, or a Hall violator when none exists.

    The violator is the set of left vertices reachable by alternating
    paths from unmatched left vertices under a maximum matching; its
    neighborhood is then strictly smaller.
    """
    result = _matching_or_violator(g.left_size, g.right_size, g.adjacency)
    if isinstance(result, HallViolator):
        return result
    return PerfectMatching(tuple(enumerate(result)))


def _matching_or_violator(
    nl: int, nr: int, adj: Sequence[Sequence[int]]
) -> Union[tuple[int, ...], HallViolator]:
    """The right partner of each left vertex, or a Hall violator."""
    match_l, match_r = _hopcroft_karp(nl, nr, adj)
    if -1 not in match_l:
        return match_l
    reach_l = {u for u in range(nl) if match_l[u] == -1}
    reach_r: set[int] = set()
    queue = deque(sorted(reach_l))
    while queue:
        u = queue.popleft()
        for v in adj[u]:
            if v not in reach_r:
                reach_r.add(v)
                w = match_r[v]
                if w != -1 and w not in reach_l:
                    reach_l.add(w)
                    queue.append(w)
    return HallViolator(frozenset(reach_l), frozenset(reach_r))


def _rows_within(
    left: Sequence[int], right: Sequence[int], data_len: int, bound: tuple[int, int]
) -> Iterator[list[int]]:
    """For each packed strand of ``left`` in turn, the ascending positions
    of the strands of ``right`` within ``bound`` of it.

    The split distance is ``model.split_popcount`` written out inline:
    this is the innermost loop of every pair decision.
    """
    r1, r2 = bound
    mask = (1 << data_len) - 1
    for a in left:
        yield [
            j
            for j, b in enumerate(right)
            if ((x := a ^ b) >> data_len).bit_count() <= r1 and (x & mask).bit_count() <= r2
        ]


def bijection_graph(z1: Message, z2: Message, bound: tuple[int, int]) -> BipartiteGraph:
    """Graph on Z1 x Z2 with an edge iff the split distance is within ``bound``."""
    check_shape(z1, z2)
    rows = _rows_within(packed(z1), packed(z2), z1.data_len, bound)
    return BipartiteGraph(z1.m, z2.m, tuple(map(tuple, rows)))


Bijection = tuple[tuple[Strand, Strand], ...]


def match_within(
    left: Sequence[int], right: Sequence[int], data_len: int, bound: tuple[int, int]
) -> Union[tuple[int, ...], HallViolator]:
    """The position in ``right`` matched to each packed strand of ``left``,
    every matched pair within ``bound``, or a Hall violator when no such
    bijection exists.

    Rows of the bijection graph are built one at a time.  The first
    strand u with no partner within the bound ends the test with the
    violator ({u}, {}), since |{u}| = 1 > 0 = |N({u})|; Hopcroft-Karp
    runs only when every strand has a partner.  The caller has checked
    that both sides come from messages of one shape.
    """
    rows = []
    for u, row in enumerate(_rows_within(left, right, data_len, bound)):
        if not row:
            return HallViolator(frozenset((u,)), frozenset())
        rows.append(row)
    return _matching_or_violator(len(left), len(right), rows)


def bijection_within_or_violator(
    z1: Message, z2: Message, bound: tuple[int, int]
) -> Union[Bijection, HallViolator]:
    """A strand bijection within ``bound``, or the Hall violator that blocks one.

    Violator vertex indices refer to positions in the canonical (sorted)
    strand order of Z1 (left) and Z2 (right).  When some strand of Z1 has
    no partner within the bound, the violator is that one strand.
    """
    check_shape(z1, z2)
    result = match_within(packed(z1), packed(z2), z1.data_len, bound)
    if isinstance(result, HallViolator):
        return result
    return bijection_of(z1, z2, result)


def bijection_of(z1: Message, z2: Message, match: Sequence[int]) -> Bijection:
    """The strand pairs of a ``match_within`` result on Z1 and Z2."""
    right = z2.strands
    return tuple((x, right[v]) for x, v in zip(z1.strands, match))


def packed(z: Message) -> tuple[int, ...]:
    """The packed values of Z's strands, in canonical order."""
    return tuple(s.bits for s in z.strands)


def exists_bijection_within(
    z1: Message, z2: Message, bound: tuple[int, int]
) -> Optional[Bijection]:
    """A bijection pairing each strand of Z1 with one of Z2 within ``bound``,
    or None when no such bijection exists."""
    result = bijection_within_or_violator(z1, z2, bound)
    return None if isinstance(result, HallViolator) else result


def bottleneck_bijection(
    left: Iterable[int], right: Iterable[int]
) -> tuple[int, tuple[tuple[int, int], ...]]:
    """Minimize, over bijections left -> right, the maximum Hamming distance.

    Binary search on the sorted distinct pairwise distances, with one
    maximum matching per probe.  Returns the optimum and a perfect
    matching of the threshold graph at the optimum, as (left, right)
    value pairs sorted by left value; among several optimal bijections
    it is unspecified which one is returned.
    """
    lvals = sorted(left)
    rvals = sorted(right)
    if len(lvals) != len(rvals):
        raise SizeMismatch(f"sides have sizes {len(lvals)} and {len(rvals)}")
    if not lvals:
        raise SizeMismatch("bottleneck assignment needs non-empty sides")
    n = len(lvals)
    dist = [[(a ^ b).bit_count() for b in rvals] for a in lvals]

    def perfect_within(threshold: int) -> Optional[tuple[int, ...]]:
        rows = [[j for j, d in enumerate(row) if d <= threshold] for row in dist]
        match_l, _ = _hopcroft_karp(n, n, rows)
        return None if -1 in match_l else match_l

    thresholds = sorted({d for row in dist for d in row})
    lo, hi = 0, len(thresholds) - 1
    # a perfect matching at thresholds[hi]: every bijection stays within
    # the largest distance, so the identity serves until a probe succeeds
    match_hi = tuple(range(n))
    while lo < hi:
        mid = (lo + hi) // 2
        match = perfect_within(thresholds[mid])
        if match is None:
            lo = mid + 1
        else:
            hi, match_hi = mid, match
    return thresholds[hi], tuple((lvals[i], rvals[j]) for i, j in enumerate(match_hi))


def assignment_feasible(pool: ReadPool, z: Message, params: SystemParams) -> bool:
    """True iff the pool splits into M groups of K reads, one per strand,
    with every read within (e_i, e_d) of its strand and at most
    floor(tau*K) reads per group differing from it."""
    check_shape(z, params=params)
    if pool.length != params.length:
        raise ShapeMismatch(
            f"pool reads have length {pool.length}, expected {params.length}"
        )
    if pool.size != params.pool_size:
        raise WrongPoolSize(f"pool has {pool.size} reads, expected {params.pool_size}")

    k, budget = params.k, params.tau_budget
    data_len = params.data_len
    values = [v for v, _ in pool.entries]
    m = z.m

    # node layout: source, values, then (exact, noisy, strand) per strand, sink
    source = 0
    value_node = {v: 1 + i for i, v in enumerate(values)}
    base = 1 + len(values)
    exact_node = lambda j: base + 3 * j
    noisy_node = lambda j: base + 3 * j + 1
    strand_node = lambda j: base + 3 * j + 2
    sink = base + 3 * m
    net = _Dinic(sink + 1)

    for v, count in pool.entries:
        net.add_edge(source, value_node[v], count)
    big = params.pool_size
    for j, s in enumerate(z.strands):
        net.add_edge(exact_node(j), strand_node(j), k)
        net.add_edge(noisy_node(j), strand_node(j), budget)
        net.add_edge(strand_node(j), sink, k)
        for v in values:
            if v == s.bits:
                net.add_edge(value_node[v], exact_node(j), big)
            else:
                di, dd = split_popcount(v ^ s.bits, data_len)
                if di <= params.e_i and dd <= params.e_d:
                    net.add_edge(value_node[v], noisy_node(j), big)
    return net.max_flow(source, sink) == params.pool_size


class _Dinic:
    """Integer max flow; edges stored as [to, residual capacity, reverse index]."""

    def __init__(self, n: int) -> None:
        self.n = n
        self.adj: list[list[list[int]]] = [[] for _ in range(n)]

    def add_edge(self, u: int, v: int, cap: int) -> None:
        self.adj[u].append([v, cap, len(self.adj[v])])
        self.adj[v].append([u, 0, len(self.adj[u]) - 1])

    def max_flow(self, s: int, t: int) -> int:
        flow = 0
        while True:
            level = [-1] * self.n
            level[s] = 0
            q = deque([s])
            while q:
                u = q.popleft()
                for e in self.adj[u]:
                    if e[1] > 0 and level[e[0]] == -1:
                        level[e[0]] = level[u] + 1
                        q.append(e[0])
            if level[t] == -1:
                return flow
            iters = [0] * self.n

            def augment(u: int, pushed: int) -> int:
                if u == t:
                    return pushed
                while iters[u] < len(self.adj[u]):
                    e = self.adj[u][iters[u]]
                    v = e[0]
                    if e[1] > 0 and level[v] == level[u] + 1:
                        d = augment(v, min(pushed, e[1]))
                        if d > 0:
                            e[1] -= d
                            self.adj[v][e[2]][1] += d
                            return d
                    iters[u] += 1
                return 0

            while True:
                pushed = augment(s, 1 << 62)
                if pushed == 0:
                    break
                flow += pushed
