"""Benchmark for the dnacode toolkit.

    python3 perfbench/run.py --workload verify-many --seed 1 --seconds 25 --trace 0
    python3 perfbench/run.py                  # every workload, one fresh interpreter each
    python3 perfbench/run.py --workload large-m --bless   # rewrite golden digests (seed 1)

One run imports the package from ``src/`` of the checkout and sets up:
builds the workload's inputs from ``--seed`` and runs each job once as
warm-up.  The warm-up's outputs are checked against ``ref`` (and, at the
default seed, the golden digests); every later output must repeat them.
Then it repeats rounds of all jobs for ``--seconds`` seconds on one
thread, setting up twice more on the way for the median set-up time.

``--trace 0`` reports the end-to-end metrics: the median time of one pass
of each job, set-up time and peak memory.  The host's speed drifts, so
every time is given at a reference speed: a fixed calibration workload
(``calib``) runs between jobs all through the run, and each wall time is
scaled by the calibration's reference time over its median time around
that execution.  The wall-clock medians go to the results file beside
them.  ``--trace 1`` alternates
untraced rounds with rounds traced at the package's layer boundaries and
reports per-layer counts and self times, and the traced/untraced ratio.
The last line of stdout is one JSON object; the lines above it are the
human-readable report, and the full result, with the environment, goes
to ``.perfbench/results/`` (spans as gzip CSV beside it).

No input reaches Hopcroft-Karp's recursive depth limit: no bipartite
graph here has more than 512 left vertices, below Python's default
recursion limit of 1000, so a fix to that recursion is not expected to
move any metric.
"""

from __future__ import annotations

import argparse
import gc
import hashlib
import importlib
import json
import math
import os
import platform
import random
import resource
import shutil
import statistics
import subprocess
import sys
import time
import traceback
from pathlib import Path

import calib
import stats
from spans import Tracer, per_iteration, self_times
from workloads import WORKLOADS

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
DEFAULT_SEED = 1
SETUP_REPS = 3
CALIBRATE_EVERY_S = 0.1
GOLDEN = HERE / "golden.json"

E2E_UNITS = {
    "setup_s": "s",
    "peak_rss_mb": "MB",
    "verify_s": "s",
    "min_distance_s": "s",
    "intersect_s": "s",
    "distance_s": "s",
    "simulate_s": "s",
    "member_s": "s",
    "search_s": "s",
    "oracle_s": "s",
}

# (layer span name, [(per-layer metric suffix, unit)])
LAYERS = [
    ("matching.bijection_graph", [("calls", "count"), ("self_s", "s"), ("edges", "count")]),
    ("matching.perfect_matching_or_violator", [("self_s", "s"), ("violators", "count")]),
    ("matching.bottleneck_bijection", [("calls", "count"), ("self_s", "s")]),
    ("matching.assignment_feasible", [("calls", "count"), ("self_s", "s")]),
    ("metrics.dna_distance", [("calls", "count"), ("self_s", "s"), ("finite_ratio", "ratio")]),
    ("model.in_restricted_space", [("calls", "count"), ("self_s", "s")]),
    ("model.enumerate_space", [("self_s", "s"), ("messages", "count")]),
    ("model.validate_message", [("self_s", "s")]),
    ("codec.balls_intersect", [("calls", "count"), ("self_s", "s"), ("decided_ratio", "ratio")]),
    ("codec.is_dna_correcting", [("self_s", "s")]),
    ("search.build_graph", [("self_s", "s"), ("edges", "count")]),
    ("search.max_code", [("self_s", "s")]),
    ("channel.sample_ball", [("self_s", "s")]),
    ("channel.read_neighborhood", [("self_s", "s")]),
    ("channel.oracle_balls_intersect", [("self_s", "s")]),
    ("channel.in_ball", [("calls", "count")]),
    ("io.read_blocks", [("self_s", "s")]),
    ("io.write_text", [("self_s", "s"), ("bytes", "B")]),
    ("cli.run", [("self_s", "s")]),
]
RATIOS = {"finite_ratio": "finite", "decided_ratio": "decided"}


def parse_args(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", help="one workload; omit to run all of them")
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=25)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--bless", action="store_true", help="rewrite the golden digests")
    return parser.parse_args(argv)


def import_package():
    """Import dnacode from this checkout's src/, never from elsewhere."""
    src = ROOT / "src"
    if not (src / "dnacode" / "__init__.py").is_file():
        raise SystemExit(f"error: no package source under {src}")
    sys.path.insert(0, str(src))
    dn = importlib.import_module("dnacode")
    for name in ("channel", "cli", "codec", "io", "matching", "metrics", "model", "search"):
        importlib.import_module(f"dnacode.{name}")
    if Path(dn.__file__).resolve().parent != (src / "dnacode").resolve():
        raise SystemExit(f"error: imported dnacode from {dn.__file__}, not {src}")
    return dn


def trace_targets(dn):
    """(module, attribute the caller looks up, layer span name, counter)."""
    def edges(result, args, kwargs):
        return {"edges": result.edge_count}

    def violators(result, args, kwargs):
        return {"violators": isinstance(result, dn.matching.HallViolator)}

    def finite(result, args, kwargs):
        return {"finite": not math.isinf(result)}

    def decided(result, args, kwargs):
        return {"decided": result.answer is not dn.codec.Answer.UNKNOWN}

    def messages(produced, args, kwargs):
        return {"messages": produced}

    def written(result, args, kwargs):
        return {"bytes": len(("\n".join(args[1]) + "\n").encode("utf-8"))}

    c = dn.cli
    return [
        (c, "run", "cli.run", None),
        (dn.matching, "bijection_graph", "matching.bijection_graph", edges),
        (dn.matching, "perfect_matching_or_violator", "matching.perfect_matching_or_violator",
         violators),
        (dn.metrics, "bottleneck_bijection", "matching.bottleneck_bijection", None),
        (dn.channel, "assignment_feasible", "matching.assignment_feasible", None),
        (dn.metrics, "dna_distance", "metrics.dna_distance", finite),
        (c, "dna_distance", "metrics.dna_distance", finite),
        (dn.model, "in_restricted_space", "model.in_restricted_space", None),
        (dn.codec, "in_restricted_space", "model.in_restricted_space", None),
        (dn.search, "enumerate_space", "model.enumerate_space", messages),
        (c, "validate_message", "model.validate_message", None),
        (dn.codec, "balls_intersect", "codec.balls_intersect", decided),
        (dn.search, "balls_intersect", "codec.balls_intersect", decided),
        (c, "balls_intersect", "codec.balls_intersect", decided),
        (c, "is_dna_correcting", "codec.is_dna_correcting", None),
        (dn.search, "is_dna_correcting", "codec.is_dna_correcting", None),
        (dn.search, "build_graph", "search.build_graph", edges),
        (dn.search, "max_code", "search.max_code", None),
        (c, "sample_ball", "channel.sample_ball", None),
        (dn.channel, "read_neighborhood", "channel.read_neighborhood", None),
        (dn.channel, "oracle_balls_intersect", "channel.oracle_balls_intersect", None),
        (c, "oracle_balls_intersect", "channel.oracle_balls_intersect", None),
        (dn.channel, "in_ball", "channel.in_ball", None),
        (c, "in_ball", "channel.in_ball", None),
        (dn.io, "read_blocks", "io.read_blocks", None),
        (c, "write_text", "io.write_text", written),
    ]


def environment() -> dict:
    model = ""
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            model = next((l.split(":", 1)[1].strip() for l in fh if l.startswith("model name")), "")
    except OSError:
        pass
    return {
        "python": platform.python_version(),
        "implementation": platform.python_implementation(),
        "platform": platform.platform(),
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_model": model or platform.machine(),
        "execution": "one process, one thread, a fresh interpreter per workload run",
        "hk_recursion": "not reached: no graph has more than 512 left vertices",
    }


def digest(text: str) -> str:
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


class Tally:
    """Operations attempted and failed: an exception, or an output that is
    wrong or differs from the checked reference, is a failure."""

    def __init__(self) -> None:
        self.attempted = 0
        self.failed = 0
        self.errors: list[str] = []

    def fail(self, message: str) -> None:
        self.failed += 1
        if len(self.errors) < 5:
            self.errors.append(message)

    def attempt(self, job):
        """(seconds, output text) of one timed execution, or (None, None)."""
        self.attempted += 1
        t0 = time.perf_counter()
        try:
            value = job.call()
            elapsed = time.perf_counter() - t0
            return elapsed, job.output(value)
        except Exception:
            self.fail(f"{job.metric}: {traceback.format_exc()}")
            return None, None

    def compare(self, job, out: str, reference: str, trusted: bool) -> None:
        if not trusted:
            self.failed += 1
        elif out != reference:
            self.fail(f"{job.metric}: output changed between executions")


def build(dn, name: str, seed: int, work: Path):
    jobs = WORKLOADS[name].build()
    for job in jobs:
        job.setup(dn, work, random.Random(f"{name}/{job.metric}/{seed}"))
    return jobs


def check_reference(args, jobs, reference, tally) -> list[bool]:
    """Check each warm-up output with ``ref`` and, at the default seed, against
    the golden digests; returns which outputs later executions may be compared to."""
    golden = json.loads(GOLDEN.read_text()) if GOLDEN.is_file() else {}
    digests = {job.metric: digest(out) for job, out in zip(jobs, reference) if out is not None}
    trusted = []
    for job, out in zip(jobs, reference):
        try:
            problems = ["no output"] if out is None else job.check(out)
        except Exception:
            problems = [f"{job.metric}: check raised {traceback.format_exc()}"]
        if args.seed == DEFAULT_SEED and not args.bless:
            if digests.get(job.metric) != golden.get(args.workload, {}).get(job.metric):
                problems.append(f"{job.metric}: output differs from the golden digest")
        if problems and out is not None:
            tally.fail("; ".join(problems[:3]))
        trusted.append(not problems)
    if args.bless:
        golden[args.workload] = digests
        GOLDEN.write_text(json.dumps(golden, indent=1, sort_keys=True) + "\n")
    return trusted


def measure(jobs, reference, trusted, tally, seconds, speed, tracer, targets, set_up_again):
    """Repeat rounds of every job until ``seconds`` of rounds have run; with a
    tracer, every other round is traced.  The remaining set-ups run between
    rounds, spread over the run, so that their median does not hang on the
    machine's state during one stretch of it.  ``speed`` calibrates between
    jobs when it is due.
    Returns ((start, end) of each execution per metric, round times by traced, rounds)."""
    samples: dict[str, list[tuple[float, float]]] = {job.metric: [] for job in jobs}
    round_s: dict[bool, list[float]] = {False: [], True: []}
    # each job's executions spread evenly over a round, so a job with many
    # short executions samples the whole round, not one stretch of it
    schedule = [
        item[2:]
        for item in sorted(
            ((k + 0.5) / job.reps, i, job, ref_out, ok)
            for i, (job, ref_out, ok) in enumerate(zip(jobs, reference, trusted))
            for k in range(job.reps)
        )
    ]
    setups_due = [seconds * k / SETUP_REPS for k in range(1, SETUP_REPS)]
    measured = 0.0
    rounds = 0
    gc.collect()
    while measured < seconds or (tracer is not None and rounds < 2):
        traced = tracer is not None and rounds % 2 == 1
        if traced:
            tracer.current_iteration = rounds
            tracer.install(targets)
        r0 = time.perf_counter()
        for job, ref_out, ok in schedule:
            if traced:
                span = tracer.begin(tracer.name_id(f"job.{job.metric}"))
            elapsed, out = tally.attempt(job)
            end = time.perf_counter()
            if traced:
                tracer.finish(span)
            if elapsed is not None:
                tally.compare(job, out, ref_out, ok)
                samples[job.metric].append((end - elapsed, end))
            speed.due()
        round_s[traced].append(time.perf_counter() - r0)
        measured += round_s[traced][-1]
        if traced:
            tracer.uninstall()
        rounds += 1
        gc.collect()
        while setups_due and measured >= setups_due[0]:
            setups_due.pop(0)
            set_up_again()
    for _ in setups_due:
        set_up_again()
    return samples, round_s, rounds


def end_to_end(samples, setup: dict, speed, lines: list[str]) -> tuple[dict, dict]:
    """(metrics, timing summaries) for an untraced run; appends report lines.
    Every time is at the reference speed (``calib.Speed.scaled``); the
    summaries keep the wall-clock median beside it."""
    lines.append(
        f"  {'calibration':<16} {statistics.median(speed.seconds):12.6f} s  n={len(speed.seconds)}"
        f"  (times below at the reference speed, {calib.REFERENCE_S:g} s)"
    )
    timings = {}
    for m, spans in samples.items():
        if spans:
            scaled = [speed.scaled(a, b) for a, b in spans]
            timings[m] = {**stats.summary(scaled), "wall_median": statistics.median(
                b - a for a, b in spans), "samples": scaled}
    timings["setup_s"] = setup
    metrics = {}
    for name, unit in E2E_UNITS.items():
        if name == "peak_rss_mb":
            peak = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
            metrics[name] = {"value": peak, "unit": unit}
            lines.append(f"  {name:<16} {peak:12.1f} {unit}")
        elif name in timings:
            t = timings[name]
            metrics[name] = {"value": t["median"], "unit": unit}
            tail = f"p{t['tail_level']:g}={t['tail']:.6f}" if t.get("tail_level") else "no tail (n<20)"
            lines.append(f"  {name:<16} {t['median']:12.6f} {unit}  {tail}  n={t['n']}"
                         f"  (wall {t['wall_median']:.6f})")
    return metrics, timings


def run_workload(args) -> int:
    if args.workload not in WORKLOADS:
        print(f"error: unknown workload {args.workload!r}", file=sys.stderr)
        return 2
    workload = WORKLOADS[args.workload]
    # traced runs report no times that need the machine's speed
    speed = calib.Speed(math.inf if args.trace else CALIBRATE_EVERY_S)
    for _ in range(3):
        speed.sample()
    started = time.perf_counter()
    dn = import_package()
    imported = time.perf_counter()
    speed.sample()
    out_dir = ROOT / ".perfbench"
    work = out_dir / f"work-{os.getpid()}"
    work.mkdir(parents=True, exist_ok=True)
    try:
        tally = Tally()
        setups: list[tuple[float, float]] = []

        def set_up():
            """Build the inputs and warm up with one execution per job."""
            speed.sample()
            t0 = time.perf_counter()
            built = build(dn, args.workload, args.seed, work)
            outputs = [tally.attempt(job)[1] for job in built]
            setups.append((t0, time.perf_counter()))
            speed.sample()
            return built, outputs

        # the first warm-up's outputs are checked; every later output must repeat them
        jobs, reference = set_up()
        trusted = check_reference(args, jobs, reference, tally)

        def set_up_again():
            for job, out, ref_out, ok in zip(jobs, set_up()[1], reference, trusted):
                if out is not None:
                    tally.compare(job, out, ref_out, ok)

        tracer = Tracer() if args.trace else None
        targets = trace_targets(dn) if tracer else []
        samples, round_s, rounds = measure(
            jobs, reference, trusted, tally, args.seconds, speed, tracer, targets, set_up_again
        )
    finally:
        shutil.rmtree(work)

    results_dir = out_dir / "results"
    results_dir.mkdir(parents=True, exist_ok=True)
    tag = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    report = {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "rounds": rounds,
        "environment": environment(),
        "why": workload.why,
        "stresses": workload.stresses,
        "bypasses": workload.bypasses,
        "primary_jobs": list(workload.primary),
        "input_properties": input_properties(jobs),
        "attempted": tally.attempted,
        "failed": tally.failed,
        "failed_ratio": tally.failed / tally.attempted,
        "errors": tally.errors,
    }
    lines = [f"workload {args.workload}  seed {args.seed}  rounds {rounds}"]
    if tracer is None:
        import_s = speed.scaled(started, imported)
        scaled = [speed.scaled(a, b) for a, b in setups]
        setup = {"median": import_s + statistics.median(scaled), "n": SETUP_REPS,
                 "import_s": import_s, "samples": scaled,
                 "wall_median": imported - started + statistics.median(b - a for a, b in setups)}
        metrics, report["timings"] = end_to_end(samples, setup, speed, lines)
        report["calibration"] = {"reference_s": calib.REFERENCE_S, "n": len(speed.seconds),
                                 "median_s": statistics.median(speed.seconds)}
        lines.append(
            f"  {'failed_ratio':<16} {tally.failed / tally.attempted:12.6f} ratio"
            f"  ({tally.failed}/{tally.attempted})"
        )
    else:
        metrics = layer_metrics(tracer, per_iteration(tracer), round_s)
        for name, m in metrics.items():
            lines.append(f"  {name:<48} {m['value']:14.6f} {m['unit']}")
        spans_path = results_dir / f"{tag}-spans.csv.gz"
        report["spans"] = {"path": str(spans_path.relative_to(ROOT)), "count": tracer.write(spans_path)}
        report["self_s_by_job"] = self_by_job(tracer)
    report["metrics"] = metrics
    (results_dir / f"{tag}.json").write_text(json.dumps(report, indent=1, default=str) + "\n")

    for metric, props in report["input_properties"].items():
        lines.append(f"  inputs of {metric}: " + json.dumps(props))
    for line in lines + [f"  error: {e.strip()}" for e in tally.errors]:
        print(line)
    print(json.dumps({
        "correct": tally.failed == 0,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "metrics": metrics,
    }))
    return 0


def input_properties(jobs) -> dict:
    """Per job: shares of its message pairs with the properties its cost depends on."""
    out = {}
    for job in jobs:
        c = job.props
        pairs = c["pairs"]
        if not pairs:
            continue
        shares = {
            f"{k}_share": v / pairs for k, v in c.items() if k not in ("pairs", "edges", "strands")
        }
        out[job.metric] = {"pairs": pairs, **shares}
        if c["strands"]:
            out[job.metric]["edges_per_strand"] = c["edges"] / c["strands"]
    return out


def layer_metrics(tracer, iterations, round_s) -> dict[str, dict]:
    """Per-layer metrics: the median, over traced rounds, of each round's value."""
    traced = sorted(iterations)
    values: dict[str, list[float]] = {}
    for layer, fields in LAYERS:
        for field, unit in fields:
            per_round = []
            for it in traced:
                calls, self_s = iterations[it].get(layer, (0, 0.0))
                counts = tracer.counts[it]
                if field == "calls":
                    v = calls
                elif field == "self_s":
                    v = self_s
                elif field in RATIOS:
                    v = counts[f"{layer}.{RATIOS[field]}"] / calls if calls else 0.0
                else:
                    v = counts[f"{layer}.{field}"]
                per_round.append(v)
            values[f"{layer}.{field}"] = [statistics.median(per_round), unit]
    values["trace.overhead_ratio"] = [
        statistics.median(round_s[True]) / statistics.median(round_s[False]), "ratio"
    ]
    return {name: {"value": v, "unit": unit} for name, (v, unit) in values.items()}


def self_by_job(tracer) -> dict[str, dict[str, float]]:
    """Self seconds of each layer under each job, summed over traced rounds."""
    selfs = self_times(tracer.start, tracer.end, tracer.parent)
    job_of = [None] * len(tracer.name)
    out: dict[str, dict[str, float]] = {}
    for i, nid in enumerate(tracer.name):
        name = tracer.names[nid]
        p = tracer.parent[i]
        job_of[i] = name if p < 0 else job_of[p]
        cell = out.setdefault(job_of[i], {})
        cell[name] = cell.get(name, 0.0) + selfs[i]
    return out


def run_all(args) -> int:
    """Run each workload in its own interpreter and print every metric."""
    table: dict[str, dict] = {}
    status = 0
    for name in WORKLOADS:
        cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", name,
               "--seed", str(args.seed), "--seconds", str(args.seconds), "--trace", str(args.trace)]
        proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True)
        lines = proc.stdout.strip().split("\n")
        sys.stderr.write(proc.stderr)
        if proc.returncode != 0:
            print("\n".join(lines))
            status = proc.returncode
            continue
        print("\n".join(lines[:-1]))
        result = json.loads(lines[-1])
        if not result["correct"]:
            status = 1
        ratio = result["failed"] / result["attempted"]
        result["metrics"]["failed_ratio"] = {"value": ratio, "unit": "ratio"}
        table[name] = result
    names = sorted({m for r in table.values() for m in r["metrics"]})
    print(f"{'metric':<48}" + "".join(f"{w:>16}" for w in table))
    for m in names:
        unit = next(r["metrics"][m]["unit"] for r in table.values() if m in r["metrics"])
        row = "".join(
            f"{r['metrics'].get(m, {}).get('value', float('nan')):16.6f}" for r in table.values()
        )
        print(f"{m + ' (' + unit + ')':<48}{row}")
    return status


def main(argv=None) -> int:
    args = parse_args(argv)
    if args.workload is None:
        return run_all(args)
    return run_workload(args)


if __name__ == "__main__":
    sys.exit(main())
