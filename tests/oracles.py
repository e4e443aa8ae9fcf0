"""Independent exhaustive oracles used as ground truth by the tests.

Every oracle here decides its question by brute enumeration
(permutations, full assignment search, subset scan) and never calls the
algorithm it is checking, so agreement is meaningful evidence.  The
references are the exception.  ``reference_balls_intersect`` is the
enumeration the library's oracle prunes, with every pool tested by the
partition search, and ``snapshot_balls_intersect`` is the library's
oracle as it was when each step ran a full max flow and a rejected step
wrote back saved residual capacities, run on a network and a
breadth-first max flow of its own that share no code with
``dnacode.matching``.  ``reference_read_network`` builds the
read-assignment flow network by comparing every read with every strand,
for networkx to solve.  ``reference_sample_ball`` is the channel
sampler's draw as it was, through ``randint`` and ``sample``, with each
read rebuilt from the positions it drew.  The per-pair
references near the end rebuild a code's verdict and a space's
compatibility graph from ``balls_intersect`` one pair at a time, the way
the library did before its pair loops computed per-code data once, so
they check that loop and not the pair decision itself.  ``reference_dna_distance`` finds each group's
bottleneck by trying every threshold with a backtracking matching, which
drops a partial bijection at its first pair beyond the threshold instead
of enumerating every permutation as ``oracle_dna_distance`` does; it
shares no code with ``dnacode.matching``.  The input references at the
end build messages one checked ``Strand`` at a time and run the message
checks on those objects, and read files one checked line at a time: the
per-object paths the library's packed-value builder and block checks
replace.  ``SnapshotMessage`` is a message as the frozen dataclass over
its tuple of ``Strand`` objects that ``Message`` was before it held
packed values, and ``reference_pool`` counts reads into the checked
``ReadPool`` constructor.  ``max_matching`` is no oracle: it runs the library's
Hopcroft-Karp on a ``BipartiteGraph`` for the tests to check.
"""

from __future__ import annotations

import math
import random
from collections import Counter, deque
from dataclasses import dataclass
from fractions import Fraction
from itertools import combinations, combinations_with_replacement, permutations, product
from typing import Iterable, Optional, Sequence, Union

from dnacode.channel import ChannelSample, read_neighborhood
from dnacode.codec import (
    Answer,
    Regime,
    RegimeTag,
    Verdict,
    VerdictKind,
    Witness,
    balls_intersect,
    budget_bound,
    classify_regime,
)
from dnacode.errors import (
    DuplicateIndex,
    DuplicateStrand,
    FileFormatError,
    ShapeMismatch,
    SpaceTooLarge,
    WrongCount,
    WrongLength,
)
from dnacode.io import merge_headers, params_header, parse_param_items
from dnacode.matching import BipartiteGraph, HallViolator, _hopcroft_karp
from dnacode.model import (
    DEFAULT_SPACE_CAP,
    Message,
    ReadPool,
    Strand,
    SystemParams,
    _ball_volume,
    check_shape,
    in_restricted_space,
    split_popcount,
)


def mk_params(
    m: int,
    length: int,
    index_len: int,
    k: int,
    tau: Union[Fraction, int, str],
    e_i: int,
    e_d: int,
) -> SystemParams:
    if isinstance(tau, str):
        num, _, den = tau.partition("/")
        tau = Fraction(int(num), int(den or 1))
    return SystemParams(m, length, index_len, k, Fraction(tau), e_i, e_d)


def mk_message(index_len: int, *strands: str) -> Message:
    return Message(tuple(Strand.from_string(s, index_len) for s in strands))


def strand_from_fields(index_bits: int, data_bits: int, length: int, index_len: int) -> Strand:
    """The strand with the given index field and data field."""
    return Strand((index_bits << (length - index_len)) | data_bits, length, index_len)


def oracle_has_perfect_matching(g: BipartiteGraph) -> bool:
    """Left-perfect matching existence by trying every injection."""
    if g.left_size > g.right_size:
        return False
    for perm in permutations(range(g.right_size), g.left_size):
        if all(perm[u] in g.adjacency[u] for u in range(g.left_size)):
            return True
    return False


def oracle_max_matching_size(g: BipartiteGraph) -> int:
    """Maximum matching size by branching over match/skip per left vertex."""
    best = 0

    def extend(u: int, used: int, size: int) -> None:
        nonlocal best
        if size > best:
            best = size
        if u == g.left_size or size + (g.left_size - u) <= best:
            return
        extend(u + 1, used, size)
        for v in g.adjacency[u]:
            if not used >> v & 1:
                extend(u + 1, used | (1 << v), size + 1)

    extend(0, 0, 0)
    return best


def oracle_bottleneck(
    left: Iterable[int], right: Iterable[int]
) -> tuple[int, tuple[tuple[int, int], ...]]:
    """Bottleneck assignment by enumerating every bijection; ties broken
    toward the lexicographically smallest right-value sequence."""
    lvals = sorted(left)
    rvals = sorted(right)
    best: Optional[tuple[int, tuple[int, ...]]] = None
    best_pairs: tuple[tuple[int, int], ...] = ()
    for perm in permutations(range(len(rvals))):
        value = max((lvals[i] ^ rvals[perm[i]]).bit_count() for i in range(len(lvals)))
        rights = tuple(rvals[perm[i]] for i in range(len(lvals)))
        key = (value, rights)
        if best is None or key < best:
            best = key
            best_pairs = tuple(zip(lvals, rights))
    assert best is not None
    return best[0], best_pairs


def is_optimal_bottleneck(
    left: Iterable[int],
    right: Iterable[int],
    result: tuple[int, tuple[tuple[int, int], ...]],
) -> bool:
    """True iff ``result`` = (value, pairs) carries the enumerated optimum
    and pairs sorted(left) one to one with right, every pair within it.
    Which optimal bijection is chosen is left open."""
    value, pairs = result
    return (
        value == oracle_bottleneck(left, right)[0]
        and [a for a, _ in pairs] == sorted(left)
        and sorted(b for _, b in pairs) == sorted(right)
        and all((a ^ b).bit_count() <= value for a, b in pairs)
    )


def scipy_has_perfect_matching(within: Sequence[Sequence[bool]]) -> bool:
    """Whether the square 0/1 matrix ``within`` (rows left, columns right)
    has a perfect matching, by scipy's maximum_bipartite_matching.  scipy
    is a test-only dependency; callers skip when it is missing."""
    from scipy.sparse import csr_matrix
    from scipy.sparse.csgraph import maximum_bipartite_matching

    match = maximum_bipartite_matching(csr_matrix(within, dtype=int), perm_type="column")
    return bool((match >= 0).all())


def networkx_has_perfect_matching(within: Sequence[Sequence[bool]]) -> bool:
    """The same question as ``scipy_has_perfect_matching``, by networkx's
    bipartite Hopcroft-Karp.  networkx is a test-only dependency; callers
    skip when it is missing."""
    import networkx as nx
    from networkx.algorithms import bipartite

    n = len(within)
    g = nx.Graph()
    g.add_nodes_from(range(2 * n))
    g.add_edges_from(
        (u, n + v) for u, row in enumerate(within) for v, near in enumerate(row) if near
    )
    match = bipartite.hopcroft_karp_matching(g, top_nodes=range(n))
    return all(u in match for u in range(n))


def oracle_assignment_feasible(pool: ReadPool, z: Message, params: SystemParams) -> bool:
    """Partition search: try every read-to-strand assignment."""
    reads = [value for value, count in pool.entries for _ in range(count)]
    strands = z.strands
    data_len = params.data_len
    data_mask = (1 << data_len) - 1

    def within(read: int, s: Strand) -> bool:
        di = ((read >> data_len) ^ s.index_bits).bit_count()
        dd = ((read & data_mask) ^ s.data_bits).bit_count()
        return di <= params.e_i and dd <= params.e_d

    for assignment in product(range(params.m), repeat=len(reads)):
        counts = [0] * params.m
        noisy = [0] * params.m
        valid = True
        for read, j in zip(reads, assignment):
            counts[j] += 1
            if counts[j] > params.k:
                valid = False
                break
            if read != strands[j].bits:
                noisy[j] += 1
                if noisy[j] > params.tau_budget or not within(read, strands[j]):
                    valid = False
                    break
        if valid and all(c == params.k for c in counts):
            return True
    return False


def reference_pools(
    z1: Message, z2: Message, params: SystemParams
) -> Optional[tuple[dict[int, int], list[int], int]]:
    """The plain enumeration the library's oracle prunes: the exact copies
    every strand keeps (K - floor(tau*K) of each strand value), the reads
    within (e_i, e_d) of a strand of each message, and how many of those
    complete a pool; None when the kept copies cannot lie in a common pool."""
    data_len = params.data_len
    mask = (1 << data_len) - 1

    def near(read: int, z: Message) -> bool:
        return any(
            ((read ^ s.bits) >> data_len).bit_count() <= params.e_i
            and ((read ^ s.bits) & mask).bit_count() <= params.e_d
            for s in z.strands
        )

    universe = [v for v in range(1 << params.length) if near(v, z1) and near(v, z2)]
    forced = params.k - params.tau_budget
    base = {s.bits: forced for s in z1.strands + z2.strands} if forced else {}
    remaining = params.pool_size - sum(base.values())
    if remaining < 0 or any(v not in universe for v in base):
        return None
    return base, universe, remaining


def reference_balls_intersect(z1: Message, z2: Message, params: SystemParams) -> bool:
    """Ball intersection by trying every pool of ``reference_pools`` against
    both messages with the partition search ``oracle_assignment_feasible``,
    never with a flow."""
    if z1 == z2:
        return True
    setup = reference_pools(z1, z2, params)
    if setup is None:
        return False
    base, universe, remaining = setup
    for extra in combinations_with_replacement(universe, remaining):
        pool = ReadPool(params.length, tuple(base.items()) + tuple((v, 1) for v in extra))
        if oracle_assignment_feasible(pool, z1, params) and oracle_assignment_feasible(
            pool, z2, params
        ):
            return True
    return False


def snapshot_balls_intersect(
    z1: Message, z2: Message, params: SystemParams, cap: int = DEFAULT_SPACE_CAP
) -> bool:
    """``oracle_balls_intersect`` as it was before its walk grew one
    augmenting path a step: the same caps, shortcuts, forced copies and
    walk order, but each step runs a full max flow on both read networks,
    and a step is undone by writing back every residual capacity saved at
    its depth.  The networks are ``_residual_network``s and the flows
    ``_bfs_max_flow``, so the walk shares no code with
    ``dnacode.matching``.  The reference for the oracle on shapes past
    ``reference_balls_intersect``'s reach."""
    check_shape(z1, z2, params=params)
    if z1 == z2:
        return True

    bound = (
        params.m
        * _ball_volume(params.index_len, params.e_i)
        * _ball_volume(params.data_len, params.e_d)
    )
    if bound > cap:
        raise SpaceTooLarge(bound, cap, what="read universe")
    shared = read_neighborhood(z1, params) & read_neighborhood(z2, params)
    if not shared:
        return False
    universe = sorted(shared)

    base: Counter[int] = Counter()
    forced = params.k - params.tau_budget
    if forced > 0:
        for v in {s.bits for s in z1.strands} | {s.bits for s in z2.strands}:
            if v not in shared:
                return False
            base[v] = forced
    remaining = params.pool_size - sum(base.values())
    if remaining < 0:
        return False

    count = math.comb(len(universe) + remaining - 1, remaining)
    if count > cap:
        raise SpaceTooLarge(count, cap, what="candidate pools")

    entries = [(v, base[v]) for v in universe]
    net1, sink = _residual_network(entries, z1, params)
    net2, _ = _residual_network(entries, z2, params)
    placed = sum(base.values())
    if _bfs_max_flow(net1, sink) < placed or _bfs_max_flow(net2, sink) < placed:
        return False

    def snapshot() -> list[list[dict[int, int]]]:
        return [[dict(row) for row in net] for net in (net1, net2)]

    saved = [snapshot()]
    picks: list[int] = []
    i = 0
    while len(picks) < remaining:
        if i < len(universe):
            net1[0][i + 1] += 1
            net2[0][i + 1] += 1
            if _bfs_max_flow(net1, sink) and _bfs_max_flow(net2, sink):
                picks.append(i)
                saved.append(snapshot())
                continue
            i += 1
        elif picks:
            saved.pop()
            i = picks.pop() + 1
        else:
            return False
        for net, rows in zip((net1, net2), saved[-1]):
            net[:] = [dict(row) for row in rows]

    candidate = base + Counter(universe[j] for j in picks)
    for z in (z1, z2):
        net, pool_sink = _residual_network(sorted(candidate.items()), z, params)
        if _bfs_max_flow(net, pool_sink) != params.pool_size:
            raise AssertionError("a pool both read networks accept must lie in both balls")
    return True


def _read_network_edges(
    entries: Sequence[tuple[int, int]], z: Message, params: SystemParams
) -> list[tuple[int, int, int]]:
    """The edges (u, v, capacity) of the read-assignment network of Z over
    the (value, source capacity) ``entries``, found by comparing every
    value with every strand through ``split_popcount``.  Nodes: source 0,
    the values 1..n in the given order, then (noisy slot, strand) at
    base + 2*j for strand j, where base = n + 1, and the sink at
    base + 2*M.  An exact copy goes straight to its strand."""
    base = 1 + len(entries)
    sink = base + 2 * params.m
    edges = [(0, i, count) for i, (_, count) in enumerate(entries, 1)]
    for j, s in enumerate(z.strands):
        noisy = base + 2 * j
        edges += [(noisy, noisy + 1, params.tau_budget), (noisy + 1, sink, params.k)]
        for i, (v, _) in enumerate(entries, 1):
            di, dd = split_popcount(v ^ s.bits, params.data_len)
            if v == s.bits:
                edges.append((i, noisy + 1, params.pool_size))
            elif di <= params.e_i and dd <= params.e_d:
                edges.append((i, noisy, params.pool_size))
    return edges


def reference_read_network(
    pool: ReadPool, z: Message, params: SystemParams
) -> list[tuple[int, int, int]]:
    """The edges (u, v, capacity) of ``assignment_feasible``'s flow network,
    numbered as there, with the read values in pool order: the way the
    library built it before it looked strands up by index."""
    return _read_network_edges(pool.entries, z, params)


def _residual_network(
    entries: Sequence[tuple[int, int]], z: Message, params: SystemParams
) -> tuple[list[dict[int, int]], int]:
    """``_read_network_edges`` as residual capacities: row u maps each
    neighbour v to the capacity left on u -> v, reverse edges at 0 (no
    two nodes are joined both ways).  Returns the rows and the sink."""
    edges = _read_network_edges(entries, z, params)
    sink = 1 + len(entries) + 2 * params.m
    net: list[dict[int, int]] = [{} for _ in range(sink + 1)]
    for u, v, c in edges:
        net[u][v] = c
        net[v][u] = 0
    return net, sink


def _bfs_max_flow(net: list[dict[int, int]], sink: int) -> int:
    """The flow from node 0 to ``sink`` added to the residual capacities
    ``net`` in place: augment along a shortest residual path, found by
    breadth-first search, until none is left (Edmonds & Karp 1972)."""
    flow = 0
    while True:
        parent: dict[int, int] = {0: 0}
        queue = deque([0])
        while queue and sink not in parent:
            u = queue.popleft()
            for v, c in net[u].items():
                if c > 0 and v not in parent:
                    parent[v] = u
                    queue.append(v)
        if sink not in parent:
            return flow
        path = [sink]
        while path[-1]:
            path.append(parent[path[-1]])
        push = min(net[u][v] for v, u in zip(path, path[1:]))
        for v, u in zip(path, path[1:]):
            net[u][v] -= push
            net[v][u] += push
        flow += push


def networkx_max_flow(edges: Iterable[tuple[int, int, int]], sink: int) -> int:
    """The maximum flow from node 0 to ``sink`` by networkx.  networkx is
    a test-only dependency; callers skip when it is missing."""
    import networkx as nx

    g = nx.DiGraph()
    g.add_weighted_edges_from(edges, weight="capacity")
    return nx.maximum_flow_value(g, 0, sink)


def flip_positions(bits: int, length: int, positions: Iterable[int]) -> int:
    """Flip string positions (0 = leftmost) in a packed bit vector."""
    for p in positions:
        bits ^= 1 << (length - 1 - p)
    return bits


def reference_sample_ball(
    z: Message, params: SystemParams, seed: int
) -> tuple[ChannelSample, list[tuple[int, ...]]]:
    """``sample_ball``'s draw one read at a time, as the library made it
    when each read was stored with its flip positions: ``randint`` for
    every count and weight, every ``sample`` call made even when it draws
    nothing, and each read rebuilt from its positions.  Returns the
    sample and every read's drawn positions, sorted, in pool order.
    ``randint(0, n)`` and ``randrange(n + 1)`` make the same draw, and a
    sample of 0 items draws nothing, so the two samplers must agree read
    for read."""
    check_shape(z, params=params)
    rng = random.Random(seed)
    groups, drawn = [], []
    for s in z.strands:
        flips: list[tuple[int, ...]] = [()] * params.k
        corrupt = rng.randint(0, params.tau_budget)
        for copy in sorted(rng.sample(range(params.k), corrupt)):
            wi = rng.randint(0, params.e_i)
            ipos = rng.sample(range(params.index_len), wi)
            wd = rng.randint(0, params.e_d)
            dpos = rng.sample(range(params.index_len, params.length), wd)
            flips[copy] = tuple(sorted(ipos + dpos))
        groups.append(tuple(flip_positions(s.bits, params.length, f) for f in flips))
        drawn += flips
    return ChannelSample(z, tuple(groups), seed), drawn


def reference_sample_lines(
    sample: ChannelSample, flips: Sequence[tuple[int, ...]], params: SystemParams
) -> tuple[list[str], list[str]]:
    """The pool file and provenance sidecar lines of a sample, each read
    and each row formatted on its own, the flips from the positions
    ``reference_sample_ball`` drew."""
    width = f"0{params.length}b"
    reads = [r for group in sample.groups for r in group]
    sources = [s for s, group in zip(sample.message.strands, sample.groups) for _ in group]
    pool = [params_header(params)] + [format(r, width) for r in reads]
    rows = [f"# seed={sample.seed} rng={sample.rng}"] + [
        f"{i}\t{format(s.bits, width)}\t{','.join(map(str, f)) or '-'}"
        for i, (s, f) in enumerate(zip(sources, flips))
    ]
    return pool, rows


def oracle_exists_bijection(z1: Message, z2: Message, bound: tuple[int, int]) -> bool:
    r1, r2 = bound
    for perm in permutations(z2.strands):
        if all(
            (x.index_bits ^ y.index_bits).bit_count() <= r1
            and (x.data_bits ^ y.data_bits).bit_count() <= r2
            for x, y in zip(z1.strands, perm)
        ):
            return True
    return False


def oracle_dna_distance(z1: Message, z2: Message) -> Union[int, float]:
    """DNA-distance by enumerating every per-group bijection."""
    data1 = sorted(s.data_bits for s in z1.strands)
    if data1 != sorted(s.data_bits for s in z2.strands):
        return math.inf
    worst = 0
    for u in set(data1):
        g1 = sorted(s.index_bits for s in z1.strands if s.data_bits == u)
        g2 = sorted(s.index_bits for s in z2.strands if s.data_bits == u)
        best = min(
            max((a ^ b).bit_count() for a, b in zip(g1, perm))
            for perm in permutations(g2)
        )
        worst = max(worst, best)
    return worst


def oracle_min_dna_distance(
    code: Sequence[Message], distance=oracle_dna_distance
) -> tuple[Union[int, float], tuple[Message, Message]]:
    """Minimum DNA-distance over every pair in listing order, with the
    first pair attaining it (the first pair when every pair is infinite),
    each pair measured by ``distance``."""
    pairs = list(combinations(code, 2))
    distances = [distance(a, b) for a, b in pairs]
    best = min(distances)
    return best, pairs[distances.index(best)]


def _backtrack_bijection_within(left: Sequence[int], right: Sequence[int], threshold: int) -> bool:
    """Whether some bijection left -> right keeps every Hamming distance
    within ``threshold``, by trying every free right value for each left
    value in turn."""

    def extend(u: int, used: int) -> bool:
        if u == len(left):
            return True
        return any(
            not used >> j & 1
            and (left[u] ^ b).bit_count() <= threshold
            and extend(u + 1, used | 1 << j)
            for j, b in enumerate(right)
        )

    return extend(0, 0)


def reference_dna_distance(z1: Message, z2: Message) -> Union[int, float]:
    """DNA-distance with each data group's bottleneck found as the least
    threshold at which a backtracking search finds a bijection: a brute
    force per threshold, fast on groups of a few strands."""
    g1: dict[int, list[int]] = {}
    g2: dict[int, list[int]] = {}
    for z, g in ((z1, g1), (z2, g2)):
        for s in z.strands:
            g.setdefault(s.data_bits, []).append(s.index_bits)
    if sorted((u, len(v)) for u, v in g1.items()) != sorted((u, len(v)) for u, v in g2.items()):
        return math.inf
    worst = 0
    for u in g1:
        t = 0
        while not _backtrack_bijection_within(g1[u], g2[u], t):
            t += 1
        worst = max(worst, t)
    return worst


def is_real_violator(
    z1: Message, z2: Message, bound: tuple[int, int], violator: HallViolator
) -> bool:
    """True iff ``violator``'s left set Y (positions in Z1) has exactly the
    recorded neighbourhood in Z2 within ``bound`` and |Y| > |N(Y)|, with
    N(Y) recomputed from the strands through ``split_popcount`` alone."""
    data_len = z1.data_len
    r1, r2 = bound
    neighbours = set()
    for u in violator.left_set:
        for v, y in enumerate(z2.strands):
            di, dd = split_popcount(z1.strands[u].bits ^ y.bits, data_len)
            if di <= r1 and dd <= r2:
                neighbours.add(v)
    return (
        all(0 <= u < z1.m for u in violator.left_set)
        and violator.neighborhood == frozenset(neighbours)
        and len(violator.left_set) > len(neighbours)
    )


def pairwise_verdict(code: Sequence[Message], params: SystemParams) -> Verdict:
    """The verdict of ``is_dna_correcting``, from ``balls_intersect`` on every
    pair of the sorted code and the regime tag recomputed per codeword."""
    codewords = sorted(code)
    regime = classify_regime(params)
    one_e = (params.e_i, params.e_d)
    two_e = (2 * params.e_i, 2 * params.e_d)
    if regime is Regime.HIGH_TAU:
        tag = RegimeTag(
            regime,
            restricted2e=all(in_restricted_space(z, *two_e) for z in codewords),
            restricted1e_bound=params.tau_budget < budget_bound(params)
            and all(in_restricted_space(z, *one_e) for z in codewords),
        )
    else:
        tag = RegimeTag(regime)
    bound = two_e if regime is Regime.TAU_ONE else one_e
    first_unknown = None
    for z1, z2 in combinations(codewords, 2):
        result = balls_intersect(z1, z2, params)
        if result.answer is Answer.YES:
            witness = Witness((z1, z2), result.bijection, bound)
            return Verdict(VerdictKind.NOT_CORRECTING, tag, witness=witness)
        if result.answer is Answer.UNKNOWN and first_unknown is None:
            first_unknown = result.reason
    if first_unknown is not None:
        return Verdict(VerdictKind.INDETERMINATE, tag, reason=first_unknown)
    return Verdict(VerdictKind.CORRECTING, tag)


def pairwise_adjacency(vertices: Sequence[Message], params: SystemParams) -> tuple[int, ...]:
    """Compatibility masks from ``balls_intersect`` on every pair: bit j of
    mask i is set iff j > i and the pair (i, j) answers No."""
    adjacency = [0] * len(vertices)
    for i, j in combinations(range(len(vertices)), 2):
        if balls_intersect(vertices[i], vertices[j], params).answer is Answer.NO:
            adjacency[i] |= 1 << j
    return tuple(adjacency)


def reference_space(
    params: SystemParams, restrict: Optional[tuple[int, int]] = None
) -> list[Message]:
    """Every message of the space, by brute force over all sets of M strand
    values: those with distinct index fields and, with ``restrict``, no two
    strands within (r1, r2), sorted by their index fields and then their
    data fields."""
    data_len = params.data_len
    mask = (1 << data_len) - 1

    def allowed(values: tuple[int, ...]) -> bool:
        if len({v >> data_len for v in values}) != len(values):
            return False
        return restrict is None or not any(
            ((a ^ b) >> data_len).bit_count() <= restrict[0]
            and ((a ^ b) & mask).bit_count() <= restrict[1]
            for a, b in combinations(values, 2)
        )

    sets = [s for s in combinations(range(1 << params.length), params.m) if allowed(s)]
    sets.sort(key=lambda s: ([v >> data_len for v in s], [v & mask for v in s]))
    return [
        Message(tuple(Strand(v, params.length, params.index_len) for v in s)) for s in sets
    ]


def first_max_clique(adjacency: Sequence[int]) -> tuple[int, ...]:
    """The lexicographically first maximum clique, by scanning subsets
    largest first, each size in lexicographic order."""
    n = len(adjacency)
    for size in range(n, 0, -1):
        for subset in combinations(range(n), size):
            if all(adjacency[a] >> b & 1 for a, b in combinations(subset, 2)):
                return subset
    return ()


def oracle_max_clique_size(adjacency: Sequence[int]) -> int:
    return len(first_max_clique(adjacency))


def all_bipartite_graphs(left_size: int, right_size: int):
    """Every bipartite graph on the given vertex counts, one per edge set."""
    cells = [(u, v) for u in range(left_size) for v in range(right_size)]
    for mask in range(1 << len(cells)):
        adjacency = [[] for _ in range(left_size)]
        for bit, (u, v) in enumerate(cells):
            if mask >> bit & 1:
                adjacency[u].append(v)
        yield BipartiteGraph(left_size, right_size, tuple(map(tuple, adjacency)))


def random_graph(rng: random.Random, max_side: int = 6) -> BipartiteGraph:
    nl = rng.randint(1, max_side)
    nr = rng.randint(1, max_side)
    adjacency = tuple(
        tuple(v for v in range(nr) if rng.random() < 0.5) for _ in range(nl)
    )
    return BipartiteGraph(nl, nr, adjacency)


def max_matching(g: BipartiteGraph) -> tuple[tuple[int, ...], tuple[int, ...]]:
    """The library's Hopcroft-Karp maximum matching of ``g``, as
    (match_left, match_right) with -1 marking unmatched vertices: the
    algorithm under test, for comparison with the oracles above."""
    return _hopcroft_karp(g.left_size, g.right_size, g.adjacency)[:2]


def random_message(rng: random.Random, params: SystemParams) -> Message:
    indices = rng.sample(range(1 << params.index_len), params.m)
    return Message(
        tuple(
            strand_from_fields(
                ind, rng.randrange(1 << params.data_len), params.length, params.index_len
            )
            for ind in indices
        )
    )


def message_of(params: SystemParams, fields: Iterable[tuple[int, int]]) -> Message:
    """The message with the given (index field, data field) strands."""
    return Message(
        tuple(strand_from_fields(i, d, params.length, params.index_len) for i, d in fields)
    )


def random_same_ms_pair(rng: random.Random, params: SystemParams) -> tuple[Message, Message]:
    """Two messages sharing a data-field multiset: permute the data fields
    over freshly drawn index fields."""
    z1 = random_message(rng, params)
    data = [s.data_bits for s in z1.strands]
    rng.shuffle(data)
    indices = rng.sample(range(1 << params.index_len), params.m)
    z2 = Message(
        tuple(
            strand_from_fields(ind, dat, params.length, params.index_len)
            for ind, dat in zip(indices, data)
        )
    )
    return z1, z2


def _checked_strand_tuple(given: tuple[Strand, ...]) -> tuple[Strand, ...]:
    """The strands of ``given`` in canonical order, after the checks run
    on the strand objects: at least one strand, one shape, then every
    repeated strand (first repeat in the given order) before any shared
    index field (first pair in sorted order)."""
    ordered = tuple(sorted(given))
    if not ordered:
        raise WrongCount("a message needs at least one strand")
    first = ordered[0]
    for s in ordered:
        if (s.length, s.index_len) != (first.length, first.index_len):
            raise ShapeMismatch(
                f"strand {s} has shape ({s.length},{s.index_len}), "
                f"expected ({first.length},{first.index_len})"
            )
    seen: set[int] = set()
    for s in given:
        if s.bits in seen:
            raise DuplicateStrand(f"strand {s} appears twice")
        seen.add(s.bits)
    by_index: dict[int, Strand] = {}
    for s in ordered:
        index = s.bits >> first.data_len
        if index in by_index:
            raise DuplicateIndex(
                f"strands {by_index[index]} and {s} share index field "
                f"{format(index, f'0{s.index_len}b')}"
            )
        by_index[index] = s
    return ordered


def reference_message(strands: Sequence[Strand]) -> Message:
    """The message of these strands, after ``_checked_strand_tuple``'s
    checks on the strand objects."""
    given = tuple(strands)
    _checked_strand_tuple(given)
    return Message(given)


@dataclass(frozen=True, order=True)
class SnapshotMessage:
    """A message as a frozen dataclass over its canonical tuple of
    ``Strand`` objects, checked on those objects: the representation
    ``Message`` had before it held packed values, whose equality,
    hashing, order, text and errors it keeps."""

    strands: tuple[Strand, ...]

    def __post_init__(self) -> None:
        object.__setattr__(self, "strands", _checked_strand_tuple(tuple(self.strands)))

    @property
    def m(self) -> int:
        return len(self.strands)

    @property
    def length(self) -> int:
        return self.strands[0].length

    @property
    def index_len(self) -> int:
        return self.strands[0].index_len

    @property
    def data_len(self) -> int:
        return self.strands[0].data_len

    def __str__(self) -> str:
        return "{" + ",".join(str(s) for s in self.strands) + "}"


def reference_validate_message(raw: Sequence[Union[int, Strand]], params: SystemParams) -> Message:
    """``validate_message`` one strand object at a time: each item made a
    checked Strand (a Strand is shape-checked), the count, then
    ``reference_message``."""
    strands = []
    for item in raw:
        if isinstance(item, Strand):
            if (item.length, item.index_len) != (params.length, params.index_len):
                raise WrongLength(
                    f"strand {item} has shape ({item.length},{item.index_len}), "
                    f"expected ({params.length},{params.index_len})"
                )
            strands.append(item)
        else:
            strands.append(Strand(item, params.length, params.index_len))
    if len(strands) != params.m:
        raise WrongCount(f"expected {params.m} strands, got {len(strands)}")
    return reference_message(strands)


def reference_bare_message(block: Sequence[str], index_len: int) -> Message:
    """A message read with no M or L in force, as ``distance`` and
    ``min-distance`` may read their files: ``Strand.from_string`` per
    token."""
    return reference_message([Strand.from_string(token, index_len) for token in block])


def reference_enumerate_space(
    params: SystemParams, restrict: Optional[tuple[int, int]] = None
) -> Iterable[Message]:
    """The enumeration order of ``enumerate_space`` with one Strand object
    per column entry and ``reference_message`` per message."""
    length, index_len = params.length, params.index_len
    for combo in combinations(range(1 << index_len), params.m):
        columns = [
            [strand_from_fields(i, d, length, index_len) for d in range(1 << params.data_len)]
            for i in combo
        ]
        for strands in product(*columns):
            msg = reference_message(strands)
            if restrict is None or in_restricted_space(msg, *restrict):
                yield msg


def reference_pool(reads: Iterable[int], length: int) -> ReadPool:
    """The pool of the given packed reads, counted, through the checked
    ``ReadPool`` constructor: the tests' pool builder."""
    return ReadPool(length, tuple(Counter(reads).items()))


def reference_read_blocks(path: str) -> tuple[dict, list[list[str]]]:
    """``io.read_blocks`` checking each line as it comes: a bad token or
    directive raises at its own line, so errors come in line order."""
    with open(path, encoding="utf-8") as fh:
        text = fh.read()
    header: dict = {}
    blocks: list[list[str]] = []
    current: list[str] = []
    token_len = None
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if line.startswith("#"):
            continue
        if not line:
            if current:
                blocks.append(current)
                current = []
            continue
        if line.startswith("%"):
            if not (line == "%params" or line.startswith("%params ")):
                raise FileFormatError(
                    f"unknown directive {line.split()[0]!r}", path=path, line=lineno
                )
            items = parse_param_items(line[len("%params"):], path=path, line=lineno)
            header = merge_headers(header, items, where=f"{path}:{lineno}: ")
            continue
        if set(line) - {"0", "1"}:
            raise FileFormatError(
                f"bit string may contain only 0 and 1, got {line!r}", path=path, line=lineno
            )
        if token_len is None:
            token_len = len(line)
        elif len(line) != token_len:
            raise FileFormatError(
                f"length {len(line)} differs from {token_len} used above", path=path, line=lineno
            )
        current.append(line)
    if current:
        blocks.append(current)
    if token_len is not None and header.get("L", token_len) != token_len:
        raise FileFormatError(
            f"lines have length {token_len} but the header says L={header['L']}", path=path
        )
    return header, blocks
