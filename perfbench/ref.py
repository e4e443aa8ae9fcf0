"""Reference answers the benchmark checks the program's outputs against.

Everything here is written from the model's definitions and shares no
code with the package: a message is a tuple of packed strand values
(index field in the high bits), matchings use Kuhn's augmenting paths
rather than Hopcroft-Karp, DNA-distance tries thresholds upward rather
than binary search, and a sampled pool is checked through its
provenance rather than a max-flow.
"""

from __future__ import annotations

import math
from fractions import Fraction
from typing import NamedTuple


class Params(NamedTuple):
    m: int
    length: int
    index_len: int
    k: int
    tau: Fraction
    e_i: int
    e_d: int

    @property
    def data_len(self) -> int:
        return self.length - self.index_len

    @property
    def budget(self) -> int:
        return math.floor(self.tau * self.k)

    @property
    def regime(self) -> str:
        if self.budget == self.k:
            return "tau-one"
        return "high-tau" if 2 * self.budget >= self.k else "low-tau"

    def spec(self) -> str:
        tau = "1" if self.tau == 1 else f"{self.tau.numerator}/{self.tau.denominator}"
        return (
            f"M={self.m},L={self.length},l={self.index_len},K={self.k},"
            f"tau={tau},ei={self.e_i},ed={self.e_d}"
        )


def within(a: int, b: int, data_len: int, bound: tuple[int, int]) -> bool:
    """Whether two packed strands differ in at most bound[0] index bits and
    bound[1] data bits."""
    x = a ^ b
    return (x >> data_len).bit_count() <= bound[0] and (
        x & ((1 << data_len) - 1)
    ).bit_count() <= bound[1]


def has_perfect_matching(adj: list[list[int]], n_right: int) -> bool:
    """Kuhn's algorithm, one iterative augmenting-path search per left vertex."""
    match_l = [-1] * len(adj)
    match_r = [-1] * n_right
    for root in range(len(adj)):
        reached_from: dict[int, int] = {}
        stack = [root]
        free = -1
        while stack and free == -1:
            u = stack.pop()
            for v in adj[u]:
                if v in reached_from:
                    continue
                reached_from[v] = u
                if match_r[v] == -1:
                    free = v
                    break
                # a matched left vertex is reachable only through its own right
                stack.append(match_r[v])
        if free == -1:
            return False
        v = free
        while v != -1:
            u = reached_from[v]
            previous = match_l[u]
            match_l[u] = v
            match_r[v] = u
            v = previous
    return True


def neighbours(z1, z2, data_len: int, bound: tuple[int, int]) -> list[list[int]]:
    """For each strand of z1, the positions of the z2 strands within ``bound``."""
    mask = (1 << data_len) - 1
    r1, r2 = bound
    return [
        [j for j, y in enumerate(z2) if ((x ^ y) >> data_len).bit_count() <= r1
         and ((x ^ y) & mask).bit_count() <= r2]
        for x in z1
    ]


def bijection_exists(z1, z2, data_len: int, bound: tuple[int, int]) -> bool:
    adj = neighbours(z1, z2, data_len, bound)
    return all(adj) and has_perfect_matching(adj, len(z2))


def restricted(z, data_len: int, r1: int, r2: int) -> bool:
    """No two strands of z within (r1, r2) of each other."""
    return not any(
        within(z[i], z[j], data_len, (r1, r2))
        for i in range(len(z))
        for j in range(i + 1, len(z))
    )


def decide(z1, z2, p: Params) -> str:
    """'yes', 'no' or 'unknown' for ball intersection, by the README rules."""
    if z1 == z2:
        return "yes"
    one_e, two_e = (p.e_i, p.e_d), (2 * p.e_i, 2 * p.e_d)
    if p.regime == "tau-one":
        return "yes" if bijection_exists(z1, z2, p.data_len, two_e) else "no"
    if p.regime == "low-tau":
        return "unknown"
    if bijection_exists(z1, z2, p.data_len, one_e):
        return "yes"
    if restricted(z1, p.data_len, *two_e) and restricted(z2, p.data_len, *two_e):
        return "no"
    if (
        p.budget < Fraction(p.m * p.k, 2 * p.m - 1)
        and restricted(z1, p.data_len, *one_e)
        and restricted(z2, p.data_len, *one_e)
    ):
        return "no"
    return "unknown"


def data_multiset(z, data_len: int) -> tuple[int, ...]:
    mask = (1 << data_len) - 1
    return tuple(sorted(s & mask for s in z))


def dna_distance(z1, z2, data_len: int) -> float:
    """Worst, over data values, of the least threshold admitting a perfect
    matching between the two index groups; inf when multisets differ."""
    if data_multiset(z1, data_len) != data_multiset(z2, data_len):
        return math.inf
    mask = (1 << data_len) - 1
    worst = 0
    for u in sorted(set(s & mask for s in z1)):
        g1 = [s >> data_len for s in z1 if s & mask == u]
        g2 = [s >> data_len for s in z2 if s & mask == u]
        t = worst
        while not has_perfect_matching(
            [[j for j, y in enumerate(g2) if (x ^ y).bit_count() <= t] for x in g1], len(g2)
        ):
            t += 1
        worst = t
    return worst


def read_neighborhood(z, p: Params) -> set[int]:
    """Every read value within (e_i, e_d) of some strand of z."""
    out = set()
    for s in z:
        for r in range(1 << p.length):
            if within(s, r, p.data_len, (p.e_i, p.e_d)):
                out.add(r)
    return out
