"""The benchmark's workloads.

Every workload runs all eight user jobs, so that each end-to-end metric
exists on each workload and is never zero.  The jobs that define a
workload (``primary``) carry most of its time; the others run the same
commands at the workload's shape so a change that helps one shape and
hurts another shows on both.  Oracle and search need enumerable spaces,
so outside small-space they run on the smallest spaces of the right kind.

The oracle's work on a pair depends on more than the pair's answer and
shared read neighbourhood: on some keys it doubles between pairs (where
the first common pool falls, how many candidates lie in the first ball).
The oracle batches use only keys whose work barely varies between pairs,
so that oracle_s does not hang on the seed; that leaves YES pairs only in
verify-many's two-strand space.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Callable

from jobs import Distance, Intersect, Job, Member, MinDistance, Oracle, Search, Simulate, Verify
from ref import Params

ONE = Fraction(1)


@dataclass(frozen=True)
class Workload:
    why: str
    stresses: str
    bypasses: str
    primary: tuple[str, ...]
    build: Callable[[], list[Job]]


def _verify_many() -> list[Job]:
    code = Params(8, 24, 8, 10, ONE, 1, 1)
    ed0 = Params(8, 16, 8, 10, ONE, 1, 0)
    simulate = Simulate(Params(8, 24, 8, 10, Fraction(1, 2), 1, 1), reps=40)
    return [
        Verify(code, 150),
        MinDistance(ed0, buckets=30, size=5, distinct=3, reps=3),
        Intersect(code, near=30, random_pairs=30, reps=30),
        Distance(ed0, 60, distinct=3, reps=15),
        simulate,
        Member(simulate, reps=40),
        Search([("greedy", Params(2, 3, 2, 2, ONE, 1, 0), None)], reps=20),
        Oracle(
            Params(2, 4, 2, 2, ONE, 1, 0),
            {("no", 0): 2, ("no", 2): 14, ("yes", 4): 2, ("yes", 5): 1},
            reps=20,
        ),
    ]


def _large_m() -> list[Job]:
    big = Params(512, 20, 11, 10, ONE, 1, 1)
    ed0 = Params(512, 20, 11, 10, ONE, 1, 0)
    simulate = Simulate(Params(512, 20, 11, 10, Fraction(1, 2), 1, 1))
    space = Params(4, 3, 2, 2, ONE, 1, 0)
    return [
        Intersect(big, near=1, random_pairs=1),
        Distance(ed0, 2, distinct=8),
        simulate,
        Member(simulate),
        Verify(big, 2, mode="collide-last"),
        MinDistance(ed0, buckets=1, size=2, distinct=8),
        Search([("exact", space, None)], reps=10),
        Oracle(space, {("no", 0): 2, ("no", 6): 1}),
    ]


def _small_space() -> list[Job]:
    high = Params(3, 4, 2, 4, Fraction(3, 4), 1, 0)
    ed0 = Params(3, 4, 2, 4, ONE, 1, 0)
    simulate = Simulate(high, reps=50)
    # search and oracle take about 3 s a round; the oracle batch is small and
    # runs twice a round, and the other jobs' repetitions are kept low, so
    # that a 25-second run holds five searches and ten oracle batches
    return [
        Search([
            ("greedy", Params(3, 4, 2, 2, ONE, 1, 0), None),
            ("greedy", high, None),
            ("exact", Params(2, 4, 3, 2, ONE, 1, 0), "2,0"),
        ]),
        Oracle(
            Params(4, 4, 2, 2, ONE, 1, 0),
            {("no", 3): 1, ("no", 4): 2, ("no", 5): 2, ("no", 6): 3},
            reps=2,
        ),
        Verify(high, 12, mode="disjoint", reps=20),
        MinDistance(ed0, buckets=8, size=5, distinct=2, reps=10),
        Intersect(high, near=100, random_pairs=300, reps=8),
        Distance(ed0, 300, distinct=2, reps=5),
        simulate,
        Member(simulate, reps=50),
    ]


WORKLOADS = {
    "verify-many": Workload(
        why="many message pairs with small M: the pair loop and per-pair overhead dominate",
        stresses="codec pair loop, matching.bijection_graph, Hopcroft-Karp on 8x8 graphs, "
        "metrics.dna_distance bucket misses, cli/io parsing of a 150-codeword file",
        bypasses="model.in_restricted_space (tau = 1), enumeration, large flows",
        primary=("verify_s", "min_distance_s"),
        build=_verify_many,
    ),
    "large-m": Workload(
        why="few pairs with M=512: the M^2 strand scan, large matchings and large flow "
        "networks dominate; a write job runs beside a read job",
        stresses="matching.bijection_graph, perfect_matching_or_violator, "
        "bottleneck_bijection on 64-strand groups, Dinic flow in assignment_feasible",
        bypasses="per-pair overhead across many codewords, enumeration, restricted-space checks",
        primary=("intersect_s", "distance_s", "simulate_s", "member_s"),
        build=_large_m,
    ),
    "small-space": Workload(
        why="enumerated tiny spaces: per-call overhead, enumeration, restricted-space "
        "checks, clique search and many tiny flows dominate",
        stresses="model.enumerate_space, in_restricted_space, search.build_graph and "
        "max_code, oracle read neighbourhoods and thousands of small Dinic flows",
        bypasses="large matchings and large flow networks",
        primary=("search_s", "oracle_s"),
        build=_small_space,
    ),
}
