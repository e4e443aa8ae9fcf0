"""Bipartite matching engine: perfect matchings, Hall violators,
threshold-constrained bijections between messages, bottleneck assignment,
and read-assignment feasibility.

Read-assignment feasibility is decided by integer max flow on the network

    source -> read value (cap = multiplicity)
    value  -> strand s          iff value == s
    value  -> noisy slot of s   iff (0,0) < split_distance(value, s) <= (e_i, e_d)
    noisy slot -> strand (cap floor(tau*K))
    strand -> sink (cap K)

and the pool is explainable by the message iff the max flow equals M*K.
Correctness of the reduction: a valid grouping (each strand gets exactly K
reads, every read within (e_i, e_d) of its strand, at most floor(tau*K) of
them differing from it) routes each exact copy from its value node
straight to its strand and each differing read through the noisy slot of
its strand, giving a flow of M*K within all capacities.  Conversely an
integral flow of M*K (integral because all capacities are integers)
assigns every read copy to a strand; strand -> sink capacities force
exactly K per strand, noisy-slot capacities cap the differing reads at
floor(tau*K), and noisy edges exist only within (e_i, e_d).  Exact copies
need no slot of their own: the strand's edge to the sink already caps
them at K, so each strand has two nodes, its noisy slot and itself.

Strand rows come from one kernel, ``_rows_within``: for each strand of
one side, the ascending positions of the strands of the other side
within a bound (r1, r2).  It serves every pair decision (``match_within``),
the code verifier's screen (``codec.PairTest.candidates``), the search's
neighbourhood table (``near_masks``), ``bijection_graph`` and the value
edges of the read network.  A strand b is within the
bound of a only if b's index field is a's XOR some l-bit mask of weight
at most r1 (the mask 0 included), so a dict from index field to the
strands carrying it, probed with the V(l, r1) = sum_{i <= r1} C(l, i)
masks, finds each candidate once, and its data field then decides
(multi-index hashing: Norouzi, Punjani & Fleet, CVPR 2012).  The one
guard rule: look up only when V(l, r1) < min(len(right), 2^l), and
otherwise scan every strand of the other side through the full split
distance.  Either way a row comes out sorted, so matchings and
witnesses do not depend on which path built it.

One builder, ``_read_network``, lays this network out over given read
values with their source capacities at 0.  ``assignment_feasible`` sets
them to a pool's multiplicities and runs one max flow; the ball oracle
in ``channel`` raises them one read at a time and asks the same flow for
each extra unit, so membership and the oracle share one network layout
and one flow algorithm.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass
from functools import lru_cache
from typing import Iterable, Iterator, Optional, Sequence, Union

from .errors import ShapeMismatch, SizeMismatch, ValidationError, WrongPoolSize
from .model import Message, ReadPool, Strand, SystemParams, check_shape
from .model import _ball_volume as _model_ball_volume
from .model import _flip_masks as _all_flip_masks


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
    return _hopcroft_karp(g.left_size, g.right_size, g.adjacency)[:2]


def _hopcroft_karp(
    nl: int, nr: int, adj: Sequence[Sequence[int]]
) -> tuple[tuple[int, ...], tuple[int, ...], list[int]]:
    # rows must be sorted and distinct, as BipartiteGraph makes them;
    # callers that build such rows themselves skip its normalisation.
    # Also returns the last BFS's levels: it found no augmenting path, so
    # a level below nl + nr + 1 marks exactly the left vertices that
    # alternating paths reach from the unmatched ones
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
    return tuple(match_l), tuple(match_r), dist


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
    match_l, _, dist = _hopcroft_karp(nl, nr, adj)
    if -1 not in match_l:
        return match_l
    reach = [u for u in range(nl) if dist[u] < nl + nr + 1]
    return HallViolator(frozenset(reach), frozenset(v for u in reach for v in adj[u]))


def _rows_within(
    left: Sequence[int],
    right: Sequence[int],
    data_len: int,
    bound: tuple[int, int],
    index_len: int,
) -> Iterator[list[int]]:
    """For each packed strand of ``left`` in turn, the ascending positions
    of the strands of ``right`` within ``bound`` = (r1, r2) of it, for
    strands with ``index_len``-bit index fields.

    A partner's index field is the strand's XOR a mask of weight at most
    r1, so when those V(l, r1) masks are fewer than both the strands of
    ``right`` and the 2^l index fields, the partners are looked up in a
    dict from index field to the strands of ``right`` that carry it, and
    only their data fields are tested.  Each strand of ``right`` is found
    at most once, so the lookup never tests more pairs than a scan, and
    no ball of len(right) or more masks is enumerated.  Otherwise every
    strand of ``right`` is scanned, with ``model.split_popcount`` written
    out inline: this is the innermost loop of every pair decision.
    """
    r1, r2 = bound
    mask = (1 << data_len) - 1
    # plain loops: a comprehension pays for a frame per row, more than it
    # saves on the short rows and short scans met here
    # V(l, r1) < 2^l exactly when r1 < l, which is the cheaper test
    if r1 < index_len and _ball_volume(index_len, r1) < len(right):
        flips = _flip_masks(index_len, r1)
        by_index: dict[int, list[tuple[int, int]]] = {}
        for j, b in enumerate(right):
            by_index.setdefault(b >> data_len, []).append((j, b & mask))
        get = by_index.get
        for a in left:
            index, data = a >> data_len, a & mask
            row = []
            for f in flips:
                hits = get(index ^ f)
                if hits:
                    for j, d in hits:
                        if (data ^ d).bit_count() <= r2:
                            row.append(j)
            row.sort()
            yield row
        return
    for a in left:
        row = []
        j = 0
        for b in right:
            x = a ^ b
            if (x >> data_len).bit_count() <= r1 and (x & mask).bit_count() <= r2:
                row.append(j)
            j += 1
        yield row


def near_masks(
    values: Sequence[int], data_len: int, bound: tuple[int, int], index_len: int
) -> list[int]:
    """For each packed strand value in ``values``, the bitmask with bit j
    set iff ``values[j]`` is within ``bound`` of it, from the ascending
    rows of ``_rows_within``."""
    return [
        sum(1 << j for j in row)
        for row in _rows_within(values, values, data_len, bound, index_len)
    ]


def has_perfect_matching(rows: Sequence[int]) -> bool:
    """Whether each left vertex u can take its own right vertex from
    ``rows[u]``, the bitmask of its right neighbours.

    Kuhn's augmenting paths (Kuhn 1955), searched from each left vertex
    in turn.  A left vertex with no augmenting path at its turn never gets
    one, so the first such vertex ends the test.  A search takes a free
    neighbour where it can, marks each right vertex it tries, and so
    enters each matched left vertex at most once: its path, kept on an
    explicit stack, holds at most len(rows) vertices.
    """
    mate = [0] * len(rows)  # the right bit each matched left vertex holds
    owner: dict[int, int] = {}  # the left vertex holding each taken right bit
    taken = 0
    for root, row in enumerate(rows):
        path: list[tuple[int, int]] = []
        u, untried, seen = root, row, 0
        while True:
            free = untried & ~taken
            if free:
                # flip the path: u takes v, and each vertex above it takes
                # the bit of the vertex it reached
                v = free & -free
                taken |= v
                while True:
                    prev = mate[u]
                    mate[u] = v
                    owner[v] = u
                    if not path:
                        break
                    u, v = path.pop()[0], prev
                break
            untried &= ~seen
            if untried:
                v = untried & -untried
                seen |= v
                path.append((u, untried ^ v))
                u = owner[v]
                untried = rows[u]
            elif path:
                u, untried = path.pop()
            else:
                return False
    return True


def bijection_graph(z1: Message, z2: Message, bound: tuple[int, int]) -> BipartiteGraph:
    """Graph on Z1 x Z2 with an edge iff the split distance is within ``bound``."""
    check_shape(z1, z2)
    rows = _rows_within(packed(z1), packed(z2), z1.data_len, bound, z1.index_len)
    return BipartiteGraph(z1.m, z2.m, tuple(map(tuple, rows)))


Bijection = tuple[tuple[Strand, Strand], ...]


def match_within(
    left: Sequence[int],
    right: Sequence[int],
    data_len: int,
    bound: tuple[int, int],
    index_len: int,
) -> Union[tuple[int, ...], HallViolator]:
    """The position in ``right`` matched to each packed strand of ``left``,
    every matched pair within ``bound``, or a Hall violator when no such
    bijection exists.

    The strands have ``index_len``-bit index fields.  Rows of the
    bijection graph are built one at a time by ``_rows_within``, in
    ascending position order whether they were looked up or scanned, so
    Hopcroft-Karp explores them, and finds its matching, the same way on
    either path.  The first strand u with no partner within the bound
    ends the test with the violator ({u}, {}), since |{u}| = 1 > 0 =
    |N({u})|; Hopcroft-Karp runs only when every strand has a partner.
    The caller has checked that both sides come from messages of one
    shape.
    """
    rows = []
    for u, row in enumerate(_rows_within(left, right, data_len, bound, index_len)):
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
    result = match_within(packed(z1), packed(z2), z1.data_len, bound, z1.index_len)
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
        match_l = _hopcroft_karp(n, n, rows)[0]
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
    net, sources, sink = _read_network([v for v, _ in pool.entries], z, params)
    for edge, (_, count) in zip(sources, pool.entries):
        edge[1] = count
    return net.max_flow(0, sink) == params.pool_size


def _read_network(
    values: Sequence[int], z: Message, params: SystemParams
) -> tuple[_Dinic, list[list[int]], int]:
    """The read-assignment network of Z over the given distinct read
    values, with every value's source edge at capacity 0: returns the
    network, the source edges in the order of ``values`` and the sink.
    A caller sets the source capacities to a pool's multiplicities."""
    k, budget = params.k, params.tau_budget
    big = params.pool_size

    # node layout: source 0, read values 1..n, then (noisy slot, strand)
    # at base + 2*j for strand j, sink last
    base = 1 + len(values)
    sink = base + 2 * z.m
    net = _Dinic(sink + 1)
    strands = packed(z)
    for j in range(z.m):
        noisy = base + 2 * j
        net.add_edge(noisy, noisy + 1, budget)
        net.add_edge(noisy + 1, sink, k)

    # a read's candidate strands are those within (e_i, e_d) of it: an
    # exact copy goes straight to its strand, any other read to the noisy
    # slot.  The exact edge is added first, since the flow tries a node's
    # edges in the order they were added and the read most often belongs
    # to the strand it copies
    position = {s: j for j, s in enumerate(strands)}
    rows = _rows_within(
        values, strands, params.data_len, (params.e_i, params.e_d), params.index_len
    )
    for i, (v, row) in enumerate(zip(values, rows), 1):
        net.add_edge(0, i, 0)
        exact = position.get(v)
        if exact is not None:
            net.add_edge(i, base + 2 * exact + 1, big)
        for j in row:
            if j != exact:
                net.add_edge(i, base + 2 * j, big)
    return net, net.adj[0], sink


# the index masks of the row kernel ``_rows_within`` and their number
# V(l, radius), cached per (l, radius): the kernel's guard runs once per
# pair decision.  The guard bounds every mask tuple's size by the strands
# it is looked up among
_ball_volume = lru_cache(maxsize=32)(_model_ball_volume)
_flip_masks = lru_cache(maxsize=32)(_all_flip_masks)


class _Dinic:
    """Integer max flow; edges stored as [to, residual capacity, reverse index]."""

    def __init__(self, n: int) -> None:
        self.adj: list[list[list[int]]] = [[] for _ in range(n)]

    def add_edge(self, u: int, v: int, cap: int) -> None:
        self.adj[u].append([v, cap, len(self.adj[v])])
        self.adj[v].append([u, 0, len(self.adj[u]) - 1])

    def max_flow(self, s: int, t: int) -> int:
        adj = self.adj
        flow = 0
        while True:
            level = [-1] * len(adj)
            level[s] = 0
            q = deque([s])
            while q:
                u = q.popleft()
                for e in adj[u]:
                    if e[1] > 0 and level[e[0]] == -1:
                        level[e[0]] = level[u] + 1
                        q.append(e[0])
            if level[t] == -1:
                return flow

            # blocking flow along an explicit path from s, as a level graph
            # can be as deep as the network; a node left with no edge into
            # the next level is stepped back from and never entered again
            iters = [0] * len(adj)
            nodes, path = [s], []
            while True:
                u = nodes[-1]
                if u == t:
                    pushed = min(e[1] for e in path)
                    for e in path:
                        e[1] -= pushed
                        adj[e[0]][e[2]][1] += pushed
                    flow += pushed
                    del nodes[1:], path[:]
                    continue
                edges, i, nxt = adj[u], iters[u], level[u] + 1
                end = len(edges)
                while i < end:
                    e = edges[i]
                    if e[1] > 0 and level[e[0]] == nxt:
                        break
                    i += 1
                iters[u] = i
                if i < end:
                    path.append(e)
                    nodes.append(e[0])
                elif u == s:
                    break
                else:
                    nodes.pop()
                    path.pop()
                    iters[nodes[-1]] += 1
