"""Independent exhaustive oracles used as ground truth by the tests.

Every oracle here decides its question by brute enumeration
(permutations, full assignment search, subset scan) and never calls the
algorithm it is checking, so agreement is meaningful evidence.  The
per-pair references near the end are the exception: they rebuild a
code's verdict and a space's compatibility graph from ``balls_intersect``
one pair at a time, the way the library did before its pair loops
computed per-code data once, so they check that loop and not the pair
decision itself.
"""

from __future__ import annotations

import math
import random
from fractions import Fraction
from itertools import combinations, permutations, product
from typing import Iterable, Optional, Sequence, Union

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
from dnacode.matching import BipartiteGraph, HallViolator
from dnacode.model import (
    Message,
    ReadPool,
    Strand,
    SystemParams,
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


def oracle_assignment_feasible(pool: ReadPool, z: Message, params: SystemParams) -> bool:
    """Partition search: try every read-to-strand assignment."""
    reads = pool.to_reads()
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
    code: Sequence[Message],
) -> tuple[Union[int, float], tuple[Message, Message]]:
    """Minimum DNA-distance over every pair in listing order, with the
    first pair attaining it (the first pair when every pair is infinite)."""
    pairs = list(combinations(code, 2))
    distances = [oracle_dna_distance(a, b) for a, b in pairs]
    best = min(distances)
    return best, pairs[distances.index(best)]


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
    mask i is set iff the pair (i, j) answers No."""
    adjacency = [0] * len(vertices)
    for i, j in combinations(range(len(vertices)), 2):
        if balls_intersect(vertices[i], vertices[j], params).answer is Answer.NO:
            adjacency[i] |= 1 << j
            adjacency[j] |= 1 << i
    return tuple(adjacency)


def oracle_max_clique_size(adjacency: Sequence[int]) -> int:
    """Maximum clique size by scanning subsets, largest first."""
    n = len(adjacency)
    for size in range(n, 0, -1):
        for subset in combinations(range(n), size):
            if all(adjacency[a] >> b & 1 for a, b in combinations(subset, 2)):
                return size
    return 0


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


def random_message(rng: random.Random, params: SystemParams) -> Message:
    indices = rng.sample(range(1 << params.index_len), params.m)
    return Message(
        tuple(
            Strand.from_fields(
                ind, rng.randrange(1 << params.data_len), params.length, params.index_len
            )
            for ind in indices
        )
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
            Strand.from_fields(ind, dat, params.length, params.index_len)
            for ind, dat in zip(indices, data)
        )
    )
    return z1, z2
