"""Fast checks of the benchmark's own logic.

    python3 -m pytest -q perfbench/tests
"""

from __future__ import annotations

import random
import sys
import types
from fractions import Fraction
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(HERE))

import gen  # noqa: E402
import jobs  # noqa: E402
import ref  # noqa: E402
import run  # noqa: E402
import stats  # noqa: E402
from spans import Tracer, per_iteration, self_times  # noqa: E402
from workloads import WORKLOADS  # noqa: E402


def test_self_time_subtracts_direct_children_only():
    # parent [0,10] > a [1,3], b [4,8] > c [5,6]
    starts = [0.0, 1.0, 4.0, 5.0]
    ends = [10.0, 3.0, 8.0, 6.0]
    parents = [-1, 0, 0, 2]
    assert self_times(starts, ends, parents) == [4.0, 2.0, 3.0, 1.0]


def test_tracer_nests_counts_and_restores():
    mod = types.SimpleNamespace()
    mod.inner = lambda x: x + 1
    mod.outer = lambda x: mod.inner(x) * 2

    def gen_fn(n):
        yield from range(n)

    mod.gen_fn = gen_fn
    tracer = Tracer()
    originals = (mod.inner, mod.outer, mod.gen_fn)
    tracer.current_iteration = 3
    tracer.install([
        (mod, "inner", "m.inner", lambda r, a, k: {"seen": r}),
        (mod, "outer", "m.outer", None),
        (mod, "gen_fn", "m.gen", lambda n, a, k: {"items": n}),
    ])
    assert mod.outer(1) == 4
    assert list(mod.gen_fn(5)) == [0, 1, 2, 3, 4]
    tracer.uninstall()
    assert (mod.inner, mod.outer, mod.gen_fn) == originals

    names = [tracer.names[i] for i in tracer.name]
    assert names == ["m.outer", "m.inner", "m.gen"]
    assert list(tracer.parent) == [-1, 0, -1]
    assert list(tracer.iteration) == [3, 3, 3]
    assert tracer.counts[3] == {"m.inner.seen": 2, "m.gen.items": 5}
    cells = per_iteration(tracer)[3]
    assert cells["m.outer"][0] == 1 and cells["m.inner"][0] == 1
    assert all(value[1] >= 0 for value in cells.values())


@pytest.mark.parametrize(
    "n, expected",
    [(5, None), (19, None), (20, 50.0), (40, 75.0), (100, 90.0), (1000, 99.0), (10000, 99.9)],
)
def test_tail_is_highest_level_with_ten_samples_beyond(n, expected):
    found = stats.tail([float(i) for i in range(n)])
    if expected is None:
        assert found is None
    else:
        level, value = found
        assert level == expected
        assert sum(1 for i in range(n) if i > value) >= 10


@pytest.mark.parametrize("name", sorted(WORKLOADS))
def test_inputs_depend_only_on_the_seed(name, tmp_path):
    dn = run.import_package()

    def inputs(seed: int, sub: str):
        work = tmp_path / sub
        work.mkdir()
        built = run.build(dn, name, seed, work)
        files = {path.name: path.read_bytes() for path in work.iterdir()}
        return files, [(getattr(j, "pairs", None), getattr(j, "seed", None)) for j in built]

    assert inputs(7, "a") == inputs(7, "b")
    assert inputs(7, "c") != inputs(8, "d")


def test_near_copy_stays_within_bound_and_keeps_indices_distinct():
    p = ref.Params(64, 12, 7, 2, Fraction(1), 1, 1)
    rng = random.Random(0)
    for _ in range(20):
        z = gen.message(rng, p)
        copy = gen.near_copy(rng, z, p)
        assert len({s >> p.data_len for s in copy}) == p.m
        assert ref.bijection_exists(z, copy, p.data_len, (p.e_i, p.e_d))


class _Job:
    metric = "fake_s"
    reps = 1

    def __init__(self, results):
        self.results = iter(results)

    def call(self):
        value = next(self.results)
        if isinstance(value, Exception):
            raise value
        return value

    def output(self, value):
        return str(value)


def test_tally_counts_exceptions_and_changed_outputs_as_failures():
    tally = run.Tally()
    job = _Job(["ok", RuntimeError("boom"), "ok", "different"])
    reference = tally.attempt(job)[1]
    assert tally.attempt(job) == (None, None)
    for _ in range(2):
        tally.compare(job, tally.attempt(job)[1], reference, trusted=True)
    assert (tally.attempted, tally.failed) == (4, 2)
    assert "boom" in tally.errors[0]


def test_untrusted_reference_fails_every_execution():
    tally = run.Tally()
    job = _Job(["x", "x"])
    reference = tally.attempt(job)[1]
    tally.compare(job, tally.attempt(job)[1], reference, trusted=False)
    assert (tally.attempted, tally.failed) == (2, 1)


def test_checks_reject_wrong_outputs(tmp_path):
    dn = run.import_package()
    p = ref.Params(2, 4, 2, 2, Fraction(1), 1, 0)
    member = jobs.Member(jobs.Simulate(p))
    assert member.check("exit=0\nYES\n") == []
    assert member.check("exit=0\nNO\n")

    job = jobs.Intersect(p, near=3, random_pairs=3)
    job.setup(dn, tmp_path, random.Random(0))
    good = job.output(job.call())
    assert job.check(good) == []
    rows = good.split("\n")
    answer, detail = rows[0].split(" ", 1)
    rows[0] = ("no" if answer == "yes" else "yes") + " " + detail
    assert job.check("\n".join(rows))

    dist = jobs.Distance(p, 4, distinct=1)
    dist.setup(dn, tmp_path, random.Random(0))
    values = dist.output(dist.call()).split(" ")
    values[0] = str(int(values[0]) + 1)
    assert dist.check(" ".join(values))


def test_speed_scales_by_the_calibrations_around_an_interval():
    import calib

    speed = calib.Speed(every=0.1)
    # calibration twice the reference time around t=10, the reference time around t=20
    speed.at = [9.8, 10.2, 10.4, 19.9, 20.1]
    ref_s = calib.REFERENCE_S
    speed.seconds = [2 * ref_s, 2 * ref_s, 3 * ref_s, ref_s, ref_s]
    assert speed.scaled(10.0, 10.1) == pytest.approx(0.1 / 2)  # median of 9.8, 10.2
    assert speed.scaled(10.0, 10.3) == pytest.approx(0.3 / 2)  # median of 2, 2, 3
    assert speed.scaled(20.0, 20.05) == pytest.approx(0.05)
    # no calibration within the window: the nearest one gauges the speed
    assert speed.scaled(15.6, 15.7) == pytest.approx(0.1)
    assert speed.scaled(14.0, 14.1) == pytest.approx(0.1 / 3)


def test_speed_samples_only_when_due():
    import calib

    speed = calib.Speed(every=float("inf"))
    speed.sample()
    speed.due()
    assert len(speed.seconds) == 1 and speed.seconds[0] > 0
    eager = calib.Speed(every=0.0)
    eager.due()
    eager.due()
    assert len(eager.seconds) == 2 and eager.at == sorted(eager.at)
