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
within a bound (r1, r2).  Its sides are packed values, a message's
``bits``, so no strand object is made.  Only the bijection of a Yes
reads ``Message.strands``: ``bijection_of`` turns a matching into the
strand pairs that certify it.  The kernel serves every pair decision (``match_within``),
the code verifier's screen (``codec.PairTest.candidates``), the search's
neighbourhood table (``near_masks``), ``bijection_graph`` and the value
edges of the read network.  A strand b is within the
bound of a only if b's index field is a's XOR some l-bit mask of weight
at most r1 (the mask 0 included), so a store from index field to the
strands carrying it, probed with the V(l, r1) = sum_{i <= r1} C(l, i)
masks, finds each candidate once, and its data field then decides
(multi-index hashing: Norouzi, Punjani & Fleet, CVPR 2012).  The one
guard rule for the path: look up only when V(l, r1) < min(len(right),
2^l), and otherwise scan every strand of the other side through the
full split distance.  The one guard rule for the store: a table with
one slot per index field, read by list subscript, when its 2^l slots
are no more than the len(left) * V(l, r1) probes the rows make, so its
size is bounded by work the call does anyway, and a dict otherwise
(wide index fields, l = 40 say).  The same probe loop is written once
for each store: the table is read by list subscript and the dict by its
bound ``get``, since a dict read by subscript needs a ``__missing__``
hook that costs about twice a ``get`` on the misses most probes are.
On every path a row comes out sorted, so matchings and witnesses do not
depend on which path built it.

The kernel's one other argument, ``step``, makes its rows a triangle:
row u sees only the positions of the other side from u * step on.  The
verifier's screen asks for step M, so the first strand of codeword i
meets only the strands of later codewords, and each codeword pair is
screened once.  The scan starts row u at position u * step.  The store
holds each slot's positions from the last down, so the first position
left in a slot is its last entry, and after row u the lookup pops
positions u * step .. (u + 1) * step - 1 in turn, which the next row no
longer sees, each in O(1) even when every strand carries the same index
field.  The rows stay lazy: a code whose first pair answers Yes builds
one row.  Every other caller keeps step 0, where every row sees the
whole other side.

Bottleneck questions are threshold decisions: is there a bijection
between two groups of index values with every Hamming distance at most
t?  The bitmask Kuhn test ``has_perfect_matching`` answers each, over
one bitmask row per left value.  One builder, ``_threshold_rows``, makes
those rows at any threshold, and gives none at all when a row is empty
or the rows leave some right value uncovered.  ``has_bijection_within``
is one call of it and one test; the minimum code distance in
``metrics`` asks it whether a pair beats the best so far.  A value is a
threshold sweep: ``bottleneck_value`` raises t one step at a time from
a floor to the least threshold at which the test finds a perfect
matching, and the DNA-distance asks it for each data group's value with
the worst value so far as the floor.  The sweep has one bound rule, the
builder's: no row is empty and the rows cover every right value exactly
when t is at least the largest row minimum and the largest column
minimum of the distances, so every step below that bound, which is
usually the optimum, ends without a matching.  ``bottleneck_bijection``
takes the value at floor 0, builds the rows of the threshold graph at
it by one popcount per pair, and runs Hopcroft-Karp once on them for
the bijection it returns.  No value runs Hopcroft-Karp.

The builder checks the group sizes, raising SizeMismatch on groups of
two sizes, and makes its rows in one of two ways, by one guard rule on
the group size n and the lane width w, the smallest power of two above
the bit width of the values.  Groups of at most w values pay one
popcount per pair at each threshold (``_popcount_rows``).  Larger
groups use the lane kernel ``_lane_distances``, once per group: the
right group packed into one int of n lanes of w bits, and for each
left value a, n distances in a few big-int operations on n*w bits
(broadword sideways addition, Knuth, TAOCP 4A, 7.1.3).  Three more
operations read the row of any threshold off them, ``_lane_threshold``,
keeping one bit per right vertex, its lane's top bit, so
``has_perfect_matching`` runs on lane rows as on any others
(``_lane_rows``).  Both row functions are module-level and take
the group's state as an argument, so a decision builds no closure: on
the 1-3-value groups of most data groups, a call is mostly overhead.

Most read values lie within (e_i, e_d) of one strand only, and the
flow has nothing to decide for them, so ``assignment_feasible`` peels
them off first (the degree-1 rule of Karp & Sipser, FOCS 1981).  A
value with no candidate strand makes the pool infeasible.  A value
whose one candidate is strand j charges all its copies to j: they use
that many of j's K places and, unless they equal j, as many of its
floor(tau*K) noisy places, and a place count that drops below 0 makes
the pool infeasible.  This is exact, since every valid grouping sends
every copy of such a value to j, exact or noisy as it is, so it uses
the same capacities the peel takes away.  Only the values with two or
more candidates enter the network, with each strand's two capacities
set to what the peel left; when none is left the pool is feasible
without a flow, as the M*K reads then fill every strand's K places.

One builder, ``_read_network``, lays this network out over given read
values with their source capacities at 0, and every flow on it is grown
one unit at a time along augmenting paths (``_FlowNetwork``).
``assignment_feasible`` hands it the rows its peel read for the values
left after the peel, so no row is computed twice, sets the source
capacities to those values' multiplicities and runs ``max_flow``, which
augments through each source edge until the edge is full or no path
leads on from its head.  The ball oracle in ``channel`` builds the
network over its whole read universe with the full strand capacities,
raises the source capacities one read at a time and pushes each extra
unit with one ``augment``, taken back with ``undo`` when the walk
backtracks.  So membership and the oracle share one network layout and
one flow algorithm.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass
from functools import lru_cache
from typing import Any, Callable, Iterable, Iterator, Optional, Sequence, Union

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


# the (position, data field) pairs under one index field, or None
Slot = Optional[list[tuple[int, int]]]


def _index_table(index_len: int) -> list[Slot]:
    """An empty table: one slot, None, per ``index_len``-bit index field.
    The kernel's one allocation of 2^l slots, made only where
    ``_index_store``'s guard allows it."""
    return [None] * (1 << index_len)


def _index_store(
    right: Sequence[int], data_len: int, index_len: int, probes: int
) -> Union[list[Slot], dict[int, list[tuple[int, int]]]]:
    """The (position, data field) pairs of the packed strands of
    ``right``, from the last position down, under each ``index_len``-bit
    index field that carries any, for a lookup that makes ``probes``
    probes.  So the first position of a slot is its last entry, which
    ``_rows_within`` pops when its rows move past it.

    The one guard rule: a list with one slot per index field, None where
    no strand carries the field, when its 2^l slots are no more than
    ``probes``, so its size is bounded by work the lookup does anyway;
    otherwise a dict of the fields that strands carry.
    """
    mask = (1 << data_len) - 1
    if 1 << index_len > probes:
        by_index: dict[int, list[tuple[int, int]]] = {}
        for j in reversed(range(len(right))):
            b = right[j]
            by_index.setdefault(b >> data_len, []).append((j, b & mask))
        return by_index
    table = _index_table(index_len)
    for j in reversed(range(len(right))):
        b = right[j]
        index = b >> data_len
        hits = table[index]
        if hits is None:
            table[index] = [(j, b & mask)]
        else:
            hits.append((j, b & mask))
    return table


def _rows_within(
    left: Sequence[int],
    right: Sequence[int],
    data_len: int,
    bound: tuple[int, int],
    index_len: int,
    step: int = 0,
) -> Iterator[list[int]]:
    """For each packed strand left[u] of ``left`` in turn, the ascending
    positions p >= u * ``step`` of the strands of ``right`` within
    ``bound`` = (r1, r2) of it, for strands with ``index_len``-bit index
    fields.  At ``step`` 0 every row sees all of ``right``; at a positive
    ``step`` the rows form a triangle, row u seeing only the positions
    from u * step on, as the code verifier's screen wants (a row past the
    end of ``right`` is empty).

    A partner's index field is the strand's XOR a mask of weight at most
    r1.  When those V(l, r1) masks are fewer than both the strands of
    ``right`` and the 2^l index fields, and the lookup's work, a store of
    len(right) entries and len(left) * V(l, r1) probes, is no more than
    the len(left) * len(right) pairs a scan tests, the partners are
    looked up in the ``_index_store`` of ``right``, from index field to
    the strands that carry it, and only their data fields are tested.
    So a single strand on the left is always scanned.  The store is a
    table with one slot per index field when 2^l <= len(left) * V(l, r1),
    the probes the rows make, read by list subscript, and a dict
    otherwise, read by its bound ``get``.  Each strand of ``right`` is
    found at most once, so the lookup never tests more pairs than a
    scan.  Its slots hold their positions from the last down, so after
    row u it pops positions u * step .. (u + 1) * step - 1 in turn, which
    the next row no longer sees: each is then the last entry of its
    slot, and a pop costs O(1) even when every strand carries the same
    index field.  Otherwise row u scans ``right`` from position
    u * step, with ``model.split_popcount`` written out inline: this is
    the innermost loop of every pair decision.
    """
    r1, r2 = bound
    mask = (1 << data_len) - 1
    n_left, n_right = len(left), len(right)
    start = 0  # the first position the next row sees
    # plain loops: a comprehension pays for a frame per row, more than it
    # saves on the short rows and short scans met here
    # V(l, r1) < 2^l exactly when r1 < l, which is the cheaper test
    if (
        r1 < index_len
        and (volume := _ball_volume(index_len, r1)) < n_right
        and n_right + n_left * volume <= n_left * n_right
    ):
        flips = _flip_masks(index_len, r1)
        store = _index_store(right, data_len, index_len, n_left * len(flips))
        # one loop per store, each with the store's cheapest read
        if isinstance(store, list):
            for a in left:
                index, data = a >> data_len, a & mask
                row = []
                for f in flips:
                    hits = store[index ^ f]
                    if hits:
                        for j, d in hits:
                            if (data ^ d).bit_count() <= r2:
                                row.append(j)
                row.sort()
                yield row
                if step:
                    for b in right[start : start + step]:
                        store[b >> data_len].pop()
                    start += step
            return
        get = store.get
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
            if step:
                for b in right[start : start + step]:
                    store[b >> data_len].pop()
                start += step
        return
    for a in left:
        row = []
        j = start
        for b in right[start:] if start else right:
            x = a ^ b
            if (x >> data_len).bit_count() <= r1 and (x & mask).bit_count() <= r2:
                row.append(j)
            j += 1
        yield row
        start += step


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
    rows = _rows_within(z1.bits, z2.bits, z1.data_len, bound, z1.index_len)
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
    # Hopcroft-Karp, not has_perfect_matching, builds every matching returned:
    # the two pick different perfect matchings, and witnesses are printed
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
    result = match_within(z1.bits, z2.bits, z1.data_len, bound, z1.index_len)
    if isinstance(result, HallViolator):
        return result
    return bijection_of(z1, z2, result)


def bijection_of(z1: Message, z2: Message, match: Sequence[int]) -> Bijection:
    """The strand pairs of a ``match_within`` result on Z1 and Z2."""
    right = z2.strands
    return tuple((x, right[v]) for x, v in zip(z1.strands, match))


def _lane_distances(
    left: Sequence[int], right: Sequence[int], w: int
) -> tuple[int, Iterator[int]]:
    """The lane kernel of both index-group decisions below, for values of
    at most w - 1 bits and w a power of two: returns (rep, lanes).

    ``right`` is packed into one int with value j in lane j, bits
    j*w .. j*w + w - 1, and ``rep`` has a 1 in the low bit of every lane.
    ``lanes`` yields, for each value a of ``left`` in turn, the int whose
    lane j holds d(a, right[j]): the packed values XOR a * rep, with each
    lane's bits summed by log2(w) sideways additions (Knuth, TAOCP 4A,
    7.1.3).  A distance is below w, so no sum spills into the next lane.
    """
    ones = (1 << len(right) * w) - 1
    rep = ones // ((1 << w) - 1)
    packed_right = 0
    for b in reversed(right):
        packed_right = packed_right << w | b
    # the mask of step s keeps the low s bits of every 2s-bit field
    steps = []
    s = 1
    while s < w:
        steps.append((s, ones // ((1 << 2 * s) - 1) * ((1 << s) - 1)))
        s <<= 1

    def lanes() -> Iterator[int]:
        for a in left:
            x = a * rep ^ packed_right
            for shift, mask in steps:
                x = (x & mask) + (x >> shift & mask)
            yield x

    return rep, lanes()


def _lane_threshold(w: int, rep: int, threshold: int) -> tuple[int, int]:
    """(top, add) such that top & ~(x + add) is the row of a ``lanes``
    int x at ``threshold``, which lies in 0..w - 1: the top bit of lane j
    is set iff lane j holds at most the threshold, since adding
    2^(w-1) - 1 - threshold to a lane carries into its top bit exactly
    when the lane holds more.  Each right vertex keeps one bit, its
    lane's top bit, so ``has_perfect_matching`` runs on these rows as on
    any other bitmask rows."""
    return rep << (w - 1), rep * ((1 << (w - 1)) - 1 - threshold)


def _popcount_rows(items: Iterable[int], right: Sequence[int], t: int) -> Optional[list[int]]:
    """The rows of ``_threshold_rows`` for a group of at most w values,
    one popcount per pair: bit j of the row of a set iff
    d(a, right[j]) <= t."""
    rows = []
    cover = 0
    for a in items:
        row = 0
        bit = 1
        for b in right:
            if (a ^ b).bit_count() <= t:
                row |= bit
            bit <<= 1
        if not row:
            return None
        rows.append(row)
        cover |= row
    return rows if cover == (1 << len(right)) - 1 else None


def _lane_rows(items: Iterable[int], lanes: tuple[int, int], t: int) -> Optional[list[int]]:
    """The rows of ``_threshold_rows`` for a larger group, each read off
    a ``_lane_distances`` int; ``lanes`` is (w, rep) of those ints."""
    if t < 0:
        return None
    w, rep = lanes
    # a distance is below w, so every threshold from w - 1 up reads the
    # same rows, and the lane arithmetic needs one in 0..w - 1
    top, add = _lane_threshold(w, rep, min(t, w - 1))
    rows = []
    cover = 0
    for x in items:
        row = top & ~(x + add)
        if not row:
            return None
        rows.append(row)
        cover |= row
    return rows if cover == top else None


RowsAt = Callable[[Iterable[int], Any, int], Optional[list[int]]]


def _threshold_rows(
    left: Sequence[int], right: Sequence[int], index_len: int
) -> tuple[Iterable[int], RowsAt, Any]:
    """The row builder of both index-group decisions below, for the
    equal-size groups ``left`` and ``right`` of ``index_len``-bit values;
    groups of two sizes raise SizeMismatch.  Returns (items, rows_at,
    state): one item per left value, and ``rows_at(items, state, t)``,
    the bitmask rows at threshold t, bit j of row i set iff
    d(left[i], right[j]) <= t, or None as soon as a row is empty or once
    the rows leave some right value uncovered.  The items may be a
    one-pass iterator.

    The one guard rule: with w = 2^bit_length(index_len), the smallest
    power of two above ``index_len``, a group of at most w values is its
    own items and pays one popcount per pair (``_popcount_rows``, whose
    state is ``right``), and a larger group's items are the lanes of
    ``_lane_distances``, each row read off one in a few big-int
    operations on n*w bits (``_lane_rows``, whose state is (w, rep)).
    """
    n = len(left)
    if n != len(right):
        raise SizeMismatch(f"sides have sizes {n} and {len(right)}")
    w = 1 << index_len.bit_length()
    if n <= w:
        return left, _popcount_rows, right
    rep, lanes = _lane_distances(left, right, w)
    return lanes, _lane_rows, (w, rep)


def has_bijection_within(
    left: Sequence[int], right: Sequence[int], threshold: int, index_len: int
) -> bool:
    """Whether some bijection between the equal-size groups ``left`` and
    ``right`` of ``index_len``-bit values keeps every Hamming distance at
    most ``threshold``; groups of two sizes raise SizeMismatch.

    The rows of ``_threshold_rows`` at the threshold, and the bitmask
    Kuhn test ``has_perfect_matching`` on them; an empty row or an
    uncovered right value answers no before any matching.
    """
    items, rows_at, state = _threshold_rows(left, right, index_len)
    rows = rows_at(items, state, threshold)
    return rows is not None and has_perfect_matching(rows)


def bottleneck_value(
    left: Sequence[int], right: Sequence[int], floor: int, index_len: int
) -> int:
    """The least threshold t >= ``floor`` at which the equal-size groups
    ``left`` and ``right`` of ``index_len``-bit values admit a bijection
    with every Hamming distance at most t: max(floor, the bottleneck
    value).  Groups of two sizes raise SizeMismatch.  Threshold
    decisions alone find it, and no bijection is built.

    One sweep raises t one step at a time from ``floor`` over the rows of
    ``_threshold_rows``.  Every left value takes some right value and
    every right value some left value, so below max(largest row minimum,
    largest column minimum) the rows come out None, with no matching
    tried; from that bound on, which is usually the optimum,
    ``has_perfect_matching`` decides each step.
    """
    items, rows_at, state = _threshold_rows(left, right, index_len)
    items = list(items)
    value = floor
    while True:
        rows = rows_at(items, state, value)
        if rows is not None and has_perfect_matching(rows):
            return value
        value += 1


def bottleneck_bijection(
    left: Iterable[int], right: Iterable[int]
) -> tuple[int, tuple[tuple[int, int], ...]]:
    """Minimize, over bijections left -> right, the maximum Hamming distance.

    Returns the optimum and a perfect matching of the threshold graph at
    the optimum, as (left, right) value pairs sorted by left value; among
    several optimal bijections it is unspecified which one is returned.
    The values must be non-negative: a negative one raises
    ValidationError.  The optimum is ``bottleneck_value`` at floor 0,
    with the bit length of the largest value, free once the sides are
    sorted, as the width of the guard rule.  Hopcroft-Karp then runs
    once, on the rows of the threshold graph at the optimum in ascending
    right order, for the pairs.
    """
    lvals = sorted(left)
    rvals = sorted(right)
    if len(lvals) != len(rvals):
        raise SizeMismatch(f"sides have sizes {len(lvals)} and {len(rvals)}")
    if not lvals:
        raise SizeMismatch("bottleneck assignment needs non-empty sides")
    # sorted, so a side's first value is its least
    for v in (lvals[0], rvals[0]):
        if v < 0:
            raise ValidationError(f"values must be non-negative, got {v}")
    # the OR of the two largest values is as long as the larger
    value = bottleneck_value(lvals, rvals, 0, (lvals[-1] | rvals[-1]).bit_length())
    rows = [[j for j, b in enumerate(rvals) if (a ^ b).bit_count() <= value] for a in lvals]
    match_l = _hopcroft_karp(len(lvals), len(rvals), rows)[0]
    return value, tuple((lvals[i], rvals[j]) for i, j in enumerate(match_l))


def assignment_feasible(pool: ReadPool, z: Message, params: SystemParams) -> bool:
    """True iff the pool splits into M groups of K reads, one per strand,
    with every read within (e_i, e_d) of its strand and at most
    floor(tau*K) reads per group differing from it.

    The reads with one candidate strand are charged to it first, and the
    flow runs only over the rest (see the module docstring)."""
    check_shape(z, params=params)
    if pool.length != params.length:
        raise ShapeMismatch(
            f"pool reads have length {pool.length}, expected {params.length}"
        )
    if pool.size != params.pool_size:
        raise WrongPoolSize(f"pool has {pool.size} reads, expected {params.pool_size}")
    strands = z.bits
    room = [params.k] * z.m
    slack = [params.tau_budget] * z.m
    shared: list[tuple[int, int]] = []
    shared_rows: list[list[int]] = []
    values = [v for v, _ in pool.entries]
    rows = _rows_within(
        values, strands, params.data_len, (params.e_i, params.e_d), params.index_len
    )
    for (v, count), row in zip(pool.entries, rows):
        if not row:
            return False
        if len(row) > 1:
            shared.append((v, count))
            shared_rows.append(row)
            continue
        j = row[0]
        room[j] -= count
        if room[j] < 0:
            return False
        if v != strands[j]:
            slack[j] -= count
            if slack[j] < 0:
                return False
    if not shared:
        return True
    net, sources, sink = _read_network(
        [v for v, _ in shared], z, params, room, slack, shared_rows
    )
    for edge, (_, count) in zip(sources, shared):
        edge[1] = count
    return net.max_flow(0, sink) == sum(room)


def _read_network(
    values: Sequence[int],
    z: Message,
    params: SystemParams,
    room: Optional[Sequence[int]] = None,
    slack: Optional[Sequence[int]] = None,
    rows: Optional[Iterable[Sequence[int]]] = None,
) -> tuple[_FlowNetwork, list[list[int]], int]:
    """The read-assignment network of Z over the given distinct read
    values, with every value's source edge at capacity 0: returns the
    network, the source edges in the order of ``values`` and the sink.
    A caller sets the source capacities to a pool's multiplicities.
    Strand j takes ``room[j]`` reads, at most ``slack[j]`` of them through
    its noisy slot: K and floor(tau*K) when not given.  ``rows``, when
    given, are the values' ``_rows_within`` rows against Z's strands,
    which a caller that has already computed them passes on."""
    if room is None:
        room = [params.k] * z.m
    if slack is None:
        slack = [params.tau_budget] * z.m
    big = params.pool_size

    # node layout: source 0, read values 1..n, then (noisy slot, strand)
    # at base + 2*j for strand j, sink last
    base = 1 + len(values)
    sink = base + 2 * z.m
    net = _FlowNetwork(sink + 1)
    strands = z.bits
    for j in range(z.m):
        noisy = base + 2 * j
        net.add_edge(noisy, noisy + 1, slack[j])
        net.add_edge(noisy + 1, sink, room[j])

    # a read's candidate strands are those within (e_i, e_d) of it: an
    # exact copy goes straight to its strand, any other read to the noisy
    # slot.  The exact edge is added first, since the flow tries a node's
    # edges in the order they were added and the read most often belongs
    # to the strand it copies
    position = {s: j for j, s in enumerate(strands)}
    if rows is None:
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


class _FlowNetwork:
    """Integer max flow; edges stored as [to, residual capacity, reverse index].

    One algorithm, augmenting paths (Ford & Fulkerson 1956), serves every
    flow.  ``augment`` pushes one unit through a source edge and on along
    a residual path to the sink, and ``undo`` takes it back: a caller that
    grows a maximum flow one unit at a time and takes units back in LIFO
    order uses the two directly.  Once the flow is maximum, raising one
    source edge by 1 raises the max flow by at most 1, and by exactly 1
    iff a residual path leads from that edge's head to the sink without
    re-entering the source: a simple augmenting path leaves the source
    once, and only the raised edge can carry it out.

    ``max_flow`` augments through each source edge in turn until the edge
    is full or ``augment`` finds no path from its head.  That is exact.
    An augmentation raises residual capacity only on the reverses of its
    path's edges, which leave nodes of the path, and every node of the
    path reaches the sink.  So a node that cannot reach the sink without
    passing the source never can later, and once every source edge is
    full or leads to such a node, no augmenting path is left.
    """

    def __init__(self, n: int) -> None:
        self.adj: list[list[list[int]]] = [[] for _ in range(n)]

    def add_edge(self, u: int, v: int, cap: int) -> None:
        self.adj[u].append([v, cap, len(self.adj[v])])
        self.adj[v].append([u, 0, len(self.adj[u]) - 1])

    def max_flow(self, s: int, t: int) -> int:
        """The flow from ``s`` to ``t`` added to the current residual
        capacities until no augmenting path is left.  No edge out of
        ``s`` may lead straight to ``t`` (see ``augment``)."""
        flow = 0
        for e in self.adj[s]:
            while e[1] > 0 and self.augment(e, t) is not None:
                flow += 1
        return flow

    def augment(self, e: list[int], t: int) -> list[list[int]] | None:
        """Push one unit through edge ``e``, which must have residual
        capacity and a head other than ``t``, and on along a residual
        path from its head to ``t`` that avoids its tail.  The path is
        found by depth-first search with an explicit stack, as it can be
        as long as the network.  Returns the path's edges, ``e`` first,
        or None with nothing changed when there is no such path."""
        adj = self.adj
        head = e[0]
        seen = bytearray(len(adj))
        seen[adj[head][e[2]][0]] = seen[head] = 1
        # path[k] enters the node whose unscanned edges are stack[k]
        path = [e]
        stack = [iter(adj[head])]
        while stack:
            for f in stack[-1]:
                if f[1] > 0 and not seen[f[0]]:
                    path.append(f)
                    if f[0] == t:
                        for g in path:
                            g[1] -= 1
                            adj[g[0]][g[2]][1] += 1
                        return path
                    seen[f[0]] = 1
                    stack.append(iter(adj[f[0]]))
                    break
            else:
                stack.pop()
                path.pop()
        return None

    def undo(self, path: list[list[int]]) -> None:
        """Take back the unit ``augment`` pushed along ``path``.  Undone in
        the reverse order of their pushes, paths return every residual
        capacity exactly to its earlier value."""
        adj = self.adj
        for f in path:
            f[1] += 1
            adj[f[0]][f[2]][1] -= 1
