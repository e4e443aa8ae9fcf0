"""The user-facing jobs the benchmark times, and their output checks.

Each job writes or builds its inputs once (``setup``), runs one pass of
the program on them (``call``, the timed part), renders what the program
produced as text (``output``), and re-derives the expected result with
``ref`` (``check``), never through the code path it timed.  ``props``
counts the input properties the program's cost depends on.
"""

from __future__ import annotations

import io
import math
import random
from collections import Counter
from contextlib import redirect_stderr, redirect_stdout
from fractions import Fraction
from pathlib import Path

import gen
import ref
from ref import Params

REASON_UNPROVED = "necessity unproved outside restricted spaces"
REASON_LOW_TAU = "regime not characterized; use oracle"


def bits(s: int, p: Params) -> str:
    return format(s, f"0{p.length}b")


def text(z, p: Params) -> str:
    return "{" + ",".join(bits(s, p) for s in z) + "}"


def write_code(path: Path, code, p: Params) -> None:
    lines = [f"%params {p.spec()}"]
    for z in code:
        lines.append("")
        lines.extend(bits(s, p) for s in z)
    path.write_text("\n".join(lines) + "\n", encoding="utf-8")


def parse_map(line: str) -> list[tuple[int, int]]:
    """'x->y x->y ...' into packed strand pairs."""
    pairs = []
    for token in line.split():
        x, _, y = token.partition("->")
        pairs.append((int(x, 2), int(y, 2)))
    return pairs


def bijection_problem(pairs, z1, z2, p: Params, bound) -> str | None:
    """Re-check a claimed strand bijection strand by strand."""
    if sorted(x for x, _ in pairs) != list(z1) or sorted(y for _, y in pairs) != list(z2):
        return "map does not pair the two messages' strands one to one"
    for x, y in pairs:
        if not ref.within(x, y, p.data_len, bound):
            return f"map pair {bits(x, p)}->{bits(y, p)} exceeds {bound}"
    return None


def regime_bound(p: Params) -> tuple[int, int]:
    if p.regime == "tau-one":
        return (2 * p.e_i, 2 * p.e_d)
    return (p.e_i, p.e_d)


class Job:
    metric = ""

    def __init__(self, reps: int = 1) -> None:
        self.reps = reps
        self.props: Counter = Counter()

    def setup(self, dn, work: Path, rng: random.Random) -> None:
        self.dn = dn

    def cli(self, argv: list[str]) -> tuple[int, str, str]:
        out, err = io.StringIO(), io.StringIO()
        with redirect_stdout(out), redirect_stderr(err):
            code = self.dn.cli.run(argv)
        return code, out.getvalue(), err.getvalue()

    def message(self, z, p: Params):
        model = self.dn.model
        return model.Message(tuple(model.Strand(s, p.length, p.index_len) for s in z))

    def system(self, p: Params):
        return self.dn.model.SystemParams(*p)

    def count_pairs(self, pairs, p: Params, answers) -> None:
        """Input properties of a pair set, from reference answers."""
        bound = regime_bound(p)
        for (z1, z2), answer in zip(pairs, answers):
            self.props["pairs"] += 1
            self.props[answer] += 1
            self.props["high_tau"] += p.regime == "high-tau"
            self.props["shared_multiset"] += ref.data_multiset(
                z1, p.data_len
            ) == ref.data_multiset(z2, p.data_len)
            self.props["edges"] += sum(map(len, ref.neighbours(z1, z2, p.data_len, bound)))
            self.props["strands"] += p.m

    def output(self, value) -> str:
        code, out, err = value
        return f"exit={code}\n{out}{err}"

    def call(self):
        raise NotImplementedError

    def check(self, out: str) -> list[str]:
        raise NotImplementedError


class Verify(Job):
    """``dnacode verify`` on one code file.

    ``mode`` shapes the code so that verify tests every pair on every seed:
    "random" (collisions are negligible at this size), "collide-last" (one
    near copy, placed so the colliding pair is the last pair tested) or
    "disjoint" (no pair whose balls provably meet).
    """

    metric = "verify_s"

    def __init__(self, p: Params, n: int, mode: str = "random", reps: int = 1) -> None:
        super().__init__(reps)
        self.p, self.n, self.mode = p, n, mode

    def setup(self, dn, work, rng):
        super().setup(dn, work, rng)
        p, n = self.p, self.n
        if self.mode == "random":
            self.code = gen.code(rng, p, n)
        elif self.mode == "disjoint":
            self.code = gen.disjoint_code(rng, p, n)
        else:
            while True:
                code = gen.code(rng, p, n - 1)
                copy = gen.near_copy(rng, code[0], p)
                if set(sorted(code + [copy])[-2:]) == {code[0], copy}:
                    break
            self.code = code + [copy]
        self.path = work / "verify.txt"
        write_code(self.path, self.code, p)

    def call(self):
        return self.cli(["verify", "--code", str(self.path)])

    def check(self, out):
        p = self.p
        ordered = sorted(self.code)
        pairs = [
            (ordered[i], ordered[j]) for i in range(len(ordered)) for j in range(i + 1, len(ordered))
        ]
        answers = [ref.decide(a, b, p) for a, b in pairs]
        self.count_pairs(pairs, p, answers)
        first_yes = next((pair for pair, a in zip(pairs, answers) if a == "yes"), None)
        regime = f"regime: {p.regime}"
        if p.regime == "high-tau":
            two_e, one_e = (2 * p.e_i, 2 * p.e_d), (p.e_i, p.e_d)
            if all(ref.restricted(z, p.data_len, *two_e) for z in ordered):
                regime += " +restricted2e"
            if p.budget < Fraction(p.m * p.k, 2 * p.m - 1) and all(
                ref.restricted(z, p.data_len, *one_e) for z in ordered
            ):
                regime += " +restricted1e-bound"
        lines = out.split("\n")
        if first_yes is not None:
            z1, z2 = first_yes
            if lines[:5] != ["exit=0", "NOT_CORRECTING", regime, f"pair A: {text(z1, p)}",
                             f"pair B: {text(z2, p)}"]:
                return [f"verify: expected NOT_CORRECTING on {text(z1, p)}, got {lines[:5]}"]
            problem = bijection_problem(
                parse_map(lines[5].removeprefix("map: ")), z1, z2, p, regime_bound(p)
            )
            return [f"verify witness: {problem}"] if problem else []
        if "unknown" in answers:
            reason = REASON_LOW_TAU if p.regime == "low-tau" else REASON_UNPROVED
            expected = ["exit=0", "INDETERMINATE", regime, f"reason: {reason}", ""]
        else:
            expected = ["exit=0", "CORRECTING", regime, ""]
        return [] if lines == expected else [f"verify: expected {expected}, got {lines}"]


class MinDistance(Job):
    """``dnacode min-distance`` on a code whose codewords share data multisets in buckets."""

    metric = "min_distance_s"

    def __init__(self, p: Params, buckets: int, size: int, distinct: int, reps: int = 1):
        super().__init__(reps)
        self.p, self.buckets, self.size, self.distinct = p, buckets, size, distinct

    def setup(self, dn, work, rng):
        super().setup(dn, work, rng)
        self.code = gen.bucketed_code(rng, self.p, self.buckets, self.size, self.distinct)
        self.path = work / "min_distance.txt"
        write_code(self.path, self.code, self.p)

    def call(self):
        return self.cli(["min-distance", "--code", str(self.path)])

    def check(self, out):
        p = self.p
        keys = [ref.data_multiset(z, p.data_len) for z in self.code]
        best, witness = math.inf, None
        for i in range(len(self.code)):
            for j in range(i + 1, len(self.code)):
                self.props["pairs"] += 1
                if keys[i] != keys[j]:
                    d = math.inf
                else:
                    self.props["shared_multiset"] += 1
                    d = ref.dna_distance(self.code[i], self.code[j], p.data_len)
                if witness is None or d < best:
                    best, witness = d, (self.code[i], self.code[j])
        shown = "inf" if math.isinf(best) else str(best)
        expected = f"exit=0\nD={shown}\npair A: {text(witness[0], p)}\npair B: {text(witness[1], p)}\n"
        return [] if out == expected else [f"min-distance: expected {expected!r}, got {out!r}"]


class PairJob(Job):
    """One pass of a library call over a fixed list of message pairs."""

    def __init__(self, p: Params, reps: int = 1) -> None:
        super().__init__(reps)
        self.p = p

    def make_pairs(self, rng):
        raise NotImplementedError

    def setup(self, dn, work, rng):
        super().setup(dn, work, rng)
        self.pairs = self.make_pairs(rng)
        self.objects = [(self.message(a, self.p), self.message(b, self.p)) for a, b in self.pairs]
        self.params = self.system(self.p)


class Intersect(PairJob):
    """``balls_intersect`` over near-copy pairs (balls meet) and random pairs."""

    metric = "intersect_s"

    def __init__(self, p: Params, near: int, random_pairs: int, reps: int = 1):
        super().__init__(p, reps)
        self.near, self.random_pairs = near, random_pairs

    def make_pairs(self, rng):
        return gen.intersect_pairs(rng, self.p, self.near, self.random_pairs)

    def call(self):
        decide = self.dn.codec.balls_intersect
        return [decide(a, b, self.params) for a, b in self.objects]

    def output(self, value):
        rows = []
        for r in value:
            detail = " ".join(f"{x}->{y}" for x, y in r.bijection) if r.bijection else r.reason
            rows.append(f"{r.answer.value} {detail}")
        return "\n".join(rows)

    def check(self, out):
        p = self.p
        answers = [ref.decide(a, b, p) for a, b in self.pairs]
        self.count_pairs(self.pairs, p, answers)
        problems = []
        for (z1, z2), expected, row in zip(self.pairs, answers, out.split("\n")):
            answer, _, detail = row.partition(" ")
            if answer != expected:
                problems.append(f"intersect {text(z1, p)}: expected {expected}, got {answer}")
            elif answer == "yes":
                problem = bijection_problem(parse_map(detail), z1, z2, p, regime_bound(p))
                if problem:
                    problems.append(f"intersect certificate: {problem}")
        return problems


class Distance(PairJob):
    """``dna_distance`` over pairs that share a data multiset."""

    metric = "distance_s"

    def __init__(self, p: Params, n: int, distinct: int, reps: int = 1):
        super().__init__(p, reps)
        self.n, self.distinct = n, distinct

    def make_pairs(self, rng):
        return gen.shared_multiset_pairs(rng, self.p, self.n, self.distinct)

    def call(self):
        distance = self.dn.metrics.dna_distance
        return [distance(a, b) for a, b in self.objects]

    def output(self, value):
        return " ".join("inf" if math.isinf(d) else str(d) for d in value)

    def check(self, out):
        p = self.p
        expected = []
        for z1, z2 in self.pairs:
            d = ref.dna_distance(z1, z2, p.data_len)
            expected.append("inf" if math.isinf(d) else str(d))
            self.props["pairs"] += 1
            self.props["shared_multiset"] += not math.isinf(d)
        got = out.split(" ")
        wrong = sum(a != b for a, b in zip(expected, got)) + abs(len(expected) - len(got))
        return [f"distance: {wrong} of {len(expected)} values differ"] if wrong else []


class Oracle(PairJob):
    """``oracle_balls_intersect`` over a batch with fixed (answer, shared
    read-neighbourhood size) quotas."""

    metric = "oracle_s"

    def __init__(self, p: Params, quota: dict[tuple[str, int], int], reps: int = 1):
        super().__init__(p, reps)
        self.quota = quota

    def make_pairs(self, rng):
        return gen.oracle_batch(rng, self.p, self.quota)

    def call(self):
        oracle = self.dn.channel.oracle_balls_intersect
        return [oracle(a, b, self.params) for a, b in self.objects]

    def output(self, value):
        return " ".join("YES" if hit else "NO" for hit in value)

    def check(self, out):
        # the analytic decision, not the oracle's enumeration, is the reference
        answers = [
            self.dn.codec.balls_intersect(a, b, self.params).answer.value
            for a, b in self.objects
        ]
        self.count_pairs(self.pairs, self.p, answers)
        expected = " ".join("YES" if a == "yes" else "NO" for a in answers)
        return [] if out == expected else [f"oracle: expected {expected}, got {out}"]


class Simulate(Job):
    """``dnacode simulate --out --provenance``: writes a pool and its sidecar."""

    metric = "simulate_s"

    def __init__(self, p: Params, reps: int = 1) -> None:
        super().__init__(reps)
        self.p = p

    def setup(self, dn, work, rng):
        super().setup(dn, work, rng)
        self.z = gen.message(rng, self.p)
        self.seed = rng.randrange(1 << 31)
        self.message_path = work / "message.txt"
        self.pool_path = work / "pool.txt"
        self.prov_path = work / "prov.txt"
        write_code(self.message_path, [self.z], self.p)

    def call(self):
        return self.cli([
            "simulate", "--message", str(self.message_path), "--seed", str(self.seed),
            "--out", str(self.pool_path), "--provenance", str(self.prov_path),
        ])

    def output(self, value):
        files = self.pool_path.read_text(encoding="utf-8") + self.prov_path.read_text(encoding="utf-8")
        return super().output(value) + files

    def check(self, out):
        """The provenance must rebuild the pool, and describe a legal channel
        output: K reads per strand, at most floor(tau*K) of them altered, each
        within (e_i, e_d) of its strand."""
        p = self.p
        pool = self.pool_path.read_text(encoding="utf-8").split("\n")
        prov = self.prov_path.read_text(encoding="utf-8").split("\n")
        if pool[0] != f"%params {p.spec()}" or prov[0] != f"# seed={self.seed} rng=mt19937":
            return ["simulate: unexpected pool or provenance header"]
        reads, rows = pool[1:-1], prov[1:-1]
        if len(reads) != p.m * p.k or len(rows) != len(reads):
            return [f"simulate: {len(reads)} reads and {len(rows)} provenance rows"]
        per_source: Counter = Counter()
        altered: Counter = Counter()
        for i, (read, row) in enumerate(zip(reads, rows)):
            number, source, flips = row.split("\t")
            s = int(source, 2)
            positions = [] if flips == "-" else [int(f) for f in flips.split(",")]
            rebuilt = s
            for pos in positions:
                rebuilt ^= 1 << (p.length - 1 - pos)
            if int(number) != i or s not in self.z or read != bits(rebuilt, p):
                return [f"simulate: provenance row {i} does not rebuild read {read}"]
            if not ref.within(s, rebuilt, p.data_len, (p.e_i, p.e_d)):
                return [f"simulate: read {read} is too far from its strand"]
            per_source[s] += 1
            altered[s] += rebuilt != s
        if any(per_source[s] != p.k or altered[s] > p.budget for s in self.z):
            return ["simulate: a strand lacks K reads or exceeds the corruption budget"]
        return [] if out.startswith("exit=0\nOK\n") else [f"simulate: stdout {out[:20]!r}"]


class Member(Job):
    """``dnacode member`` on the pool the workload's Simulate job wrote."""

    metric = "member_s"

    def __init__(self, simulate: Simulate, reps: int = 1) -> None:
        super().__init__(reps)
        self.simulate = simulate

    def call(self):
        sim = self.simulate
        return self.cli(["member", "--pool", str(sim.pool_path), "--message", str(sim.message_path)])

    def check(self, out):
        # Simulate's check proves the pool lies in the ball
        return [] if out == "exit=0\nYES\n" else [f"member: expected YES, got {out!r}"]


class Search(Job):
    """``dnacode search`` runs over enumerated spaces: (strategy, params, restrict)."""

    metric = "search_s"

    def __init__(self, runs: list[tuple[str, Params, str | None]], reps: int = 1):
        super().__init__(reps)
        self.runs = runs

    def setup(self, dn, work, rng):
        super().setup(dn, work, rng)
        self.paths = [work / f"found{i}.txt" for i in range(len(self.runs))]

    def call(self):
        results = []
        for (strategy, p, restrict), path in zip(self.runs, self.paths):
            argv = ["search", "--strategy", strategy, "--params", p.spec(), "--out", str(path)]
            if restrict:
                argv += ["--restrict", restrict]
            results.append(self.cli(argv))
        return results

    def output(self, value):
        return "".join(
            super(Search, self).output(v) + (path.read_text(encoding="utf-8") if v[0] == 0 else "")
            for v, path in zip(value, self.paths)
        )

    def check(self, out):
        """Every pair of a found code must be an edge of its graph: both
        codewords in the (restricted) space and their balls provably disjoint."""
        problems = []
        expected = ""
        for (strategy, p, restrict), path in zip(self.runs, self.paths):
            found = path.read_text(encoding="utf-8")
            code = [tuple(sorted(int(s, 2) for s in b.split())) for b in found.split("\n\n")[1:]]
            expected += f"exit=0\nSIZE={len(code)}\n{found}"
            bound = tuple(map(int, restrict.split(","))) if restrict else None
            for z in code:
                if len(z) != p.m or len({s >> p.data_len for s in z}) != p.m:
                    problems.append(f"search: {text(z, p)} is not a message")
                if bound and not ref.restricted(z, p.data_len, *bound):
                    problems.append(f"search: {text(z, p)} is outside the restricted space")
            pairs = [(code[i], code[j]) for i in range(len(code)) for j in range(i + 1, len(code))]
            answers = [ref.decide(a, b, p) for a, b in pairs]
            self.count_pairs(pairs, p, answers)
            problems += [
                f"search {strategy}: {text(a, p)} and {text(b, p)} are not an edge ({ans})"
                for (a, b), ans in zip(pairs, answers)
                if ans != "no"
            ]
        if out != expected:
            problems.append("search: SIZE lines or exit codes do not match the code files")
        return problems
