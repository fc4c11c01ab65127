"""The repository's benchmark: two workloads, both clocks, one command.

    python3 perfbench/run.py --workload hot_row_grouped --seed 1 \
        --seconds 56 --trace 0

Run it from the repository root.  Each run starts one unit at a time, every
unit in a fresh single-threaded process (``perfbench/unit.py``): first
the unit that runs the timed window of each of the run's sub-seeds (see
``workloads.json``), which are drawn from ``--seed``, ``repeats`` times
over in rounds, each time on a freshly built cluster; then set-up-only
units until ``--seconds`` of wall time are used.

``--trace 0`` reports the end-to-end metrics.  ``setup_s`` is the median
set-up time over every unit of the run, and ``peak_rss_mb`` the peak
resident size of the unit that ran the windows.  The other metrics pool
the sub-seeds' first windows.  ``commits_per_wall_s`` divides their
commits by the sum of the sub-seeds' best wall times.  A sub-seed's best
wall time adds up, segment by segment of its window, the fastest of its
repeats: they do identical work, so the fastest one is the program's
cost with the least host noise in it.  The simulated quantiles (latency
percentiles, and the median over sub-seeds of each one's longest commit
gap) use the Harrell-Davis estimator: commits cluster on the group-commit
and log-force grid, and a single order statistic would sit on one of a
few exact values whatever the seed.

``--trace 1`` also runs a traced unit for each of the first four
sub-seeds, and for the first one a second time; it reports the per-layer
metrics of :mod:`perfbench.layers`, the tracing overhead, the
unattributed wall share and the per-quarter throughput (best wall times
as above).  The spans of the first traced unit are written to
``.perfbench/spans-<workload>-<seed>.csv.gz``.

Every run audits the program: each sub-seed's first window is followed
by its workload's correctness checks, every repeat of a sub-seed must
agree with its first window byte for byte on the simulated clock, a
traced unit must replay its untraced twin, and two traced units of one
sub-seed must agree on every per-layer count.  Any failure, a run in
which nothing commits included, prints ``"correct": false`` and exits
with status 1.  The last line of standard output is the JSON result.
"""

from __future__ import annotations

import argparse
import json
import math
import random
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(ROOT))
from perfbench.layers import metrics as layer_metrics  # noqa: E402

OUT = ROOT / ".perfbench"
DESIGN = json.loads((HERE / "workloads.json").read_text())
SPEC_PATH = ROOT / "BENCHMARK.json"
#: a unit that takes longer than this has hung
UNIT_TIMEOUT_S = 150.0
#: sub-seeds a traced run pairs up (per-layer metrics pool their spans)
TRACED_SUBSEEDS = 4
#: fewest set-up times a run takes the median of
MIN_SETUPS = 7


class BenchmarkFailure(Exception):
    """A unit failed, a correctness check failed, or determinism broke."""


def hd_quantile(values: list[float], p: float) -> float:
    """The Harrell-Davis estimate of the ``p`` quantile.

    A weighted mean of the order statistics with Beta((n+1)p, (n+1)(1-p))
    weights (each interval's mass taken at its midpoint).
    """
    xs = sorted(values)
    n = len(xs)
    if n == 0:
        raise BenchmarkFailure("nothing to take a quantile of: no "
                               "transaction committed")
    a, b = p * (n + 1), (1 - p) * (n + 1)
    logs = [(a - 1) * math.log(x) + (b - 1) * math.log1p(-x)
            for x in ((i + 0.5) / n for i in range(n))]
    top = max(logs)
    weights = [math.exp(log - top) for log in logs]
    return sum(w * x for w, x in zip(weights, xs)) / sum(weights)


def run_unit(workload: str, seeds: list[int], traced: bool = False,
             checks: bool = False, setup_only: bool = False,
             spans: Path | None = None) -> dict:
    repeats = 1 if traced else DESIGN[workload]["repeats"]
    command = [sys.executable, str(HERE / "unit.py"), "--workload", workload,
               "--seeds", ",".join(map(str, seeds)),
               "--repeats", str(repeats)]
    for flag, wanted in (("--traced", traced), ("--checks", checks),
                         ("--setup-only", setup_only)):
        if wanted:
            command.append(flag)
    if spans is not None:
        command += ["--spans", str(spans)]
    command += ["--spawned-at", repr(time.monotonic())]
    try:
        done = subprocess.run(command, cwd=ROOT, capture_output=True,
                              text=True, timeout=UNIT_TIMEOUT_S)
    except subprocess.TimeoutExpired as error:
        raise BenchmarkFailure(f"{workload} seeds {seeds}: unit hung") \
            from error
    if done.returncode != 0:
        raise BenchmarkFailure(f"{workload} seeds {seeds}: unit exited "
                               f"{done.returncode}\n{done.stderr[-3000:]}")
    reading = json.loads(done.stdout.splitlines()[-1])
    checks_run = []
    for seeded in reading.get("seeds", ()):
        if seeded["diverged_repeats"]:
            raise BenchmarkFailure(
                f"determinism: {workload} seed {seeded['seed']} repeats "
                f"{seeded['diverged_repeats']} diverged from the first on "
                "the simulated clock")
        checks_run += seeded["checks"]
    failed = [check for check in checks_run if not check["ok"]]
    if failed:
        raise BenchmarkFailure(f"{workload} seeds {seeds}: check failed: "
                               f"{failed}")
    return reading


def subseeds(workload: str, seed: int) -> list[int]:
    """The run's sub-seeds; the metrics pool the first window of each."""
    rng = random.Random(seed)
    return [rng.randrange(1, 2 ** 31)
            for _ in range(DESIGN[workload]["subseeds"])]


def run_units(workload: str, seed: int, traced: bool,
              ) -> tuple[dict, list[dict]]:
    """The unit that runs every sub-seed, and when ``traced`` a traced
    twin of each of the first sub-seeds, then a second twin of the first."""
    seeds = subseeds(workload, seed)
    unit = run_unit(workload, seeds, checks=True)
    twins = []
    if traced:
        traced_seeds = seeds[:TRACED_SUBSEEDS]
        for index, sub in enumerate([*traced_seeds, traced_seeds[0]]):
            spans = OUT / f"spans-{workload}-{seed}.csv.gz" if index == 0 \
                else None
            twins.append(run_unit(workload, [sub], traced=True,
                                  spans=spans)["seeds"][0])
    return unit, twins


def setup_times(workload: str, unit: dict, deadline: float) -> list[float]:
    """The unit's set-up time, plus those of set-up-only units until the
    deadline, :data:`MIN_SETUPS` in all at least."""
    times = [unit["setup_s"]]
    first_seed = [unit["seeds"][0]["seed"]]
    longest = 1.0
    while len(times) < MIN_SETUPS or time.monotonic() + longest < deadline:
        started = time.monotonic()
        times.append(run_unit(workload, first_seed,
                              setup_only=True)["setup_s"])
        longest = max(longest, time.monotonic() - started)
    return times


def check_determinism(plains: list[dict], twins: list[dict],
                      workload: str) -> None:
    """A traced unit replays its untraced twin on the simulated clock, and
    traced units of one sub-seed agree on every per-layer count."""
    plain_of = {plain["seed"]: plain for plain in plains}
    counts: dict[int, str] = {}
    for twin in twins:
        if twin["sim_digest"] != plain_of[twin["seed"]]["sim_digest"]:
            raise BenchmarkFailure(
                f"determinism: {workload} sub-seed {twin['seed']} traced "
                "unit diverged from its untraced twin")
        if counts.setdefault(twin["seed"], twin["count_digest"]) != \
                twin["count_digest"]:
            raise BenchmarkFailure(
                f"determinism: {workload} sub-seed {twin['seed']} "
                "per-layer counts differ between traced units")


def end_to_end(workload: str, unit: dict, setups: list[float],
               ) -> tuple[dict, dict]:
    """The end-to-end metrics, plus what is printed beside them."""
    readings = unit["seeds"]
    samples = [reading["sample"] for reading in readings]
    latencies = [x for sample in samples for x in sample["latencies_ms"]]
    tail_pct = DESIGN[workload]["tail_percentile"]
    tail = hd_quantile(latencies, tail_pct / 100)
    offered = sum(sample["offered"] for sample in samples)
    committed = sum(sample["committed"] for sample in samples)
    if committed == 0:
        raise BenchmarkFailure(f"{workload}: no transaction committed "
                               f"out of {offered} offered")
    metrics = {
        "commits_per_wall_s": committed / sum(reading["best_wall_s"]
                                              for reading in readings),
        "setup_s": statistics.median(setups),
        "peak_rss_mb": unit["peak_rss_kb"] / 1024,
        "sim_tps": 1000.0 * sum(s["committed_in_window"] for s in samples)
        / sum(s["window_ms"] for s in samples),
        "sim_commit_p50_ms": hd_quantile(latencies, 0.5),
        "sim_commit_tail_ms": tail,
        "sim_max_commit_gap_ms": hd_quantile(
            [s["max_gap_ms"] for s in samples], 0.5),
    }
    beside = {
        "setup_s": f"median of {len(setups)}",
        "sim_commit_p50_ms": f"n={len(latencies)}",
        "sim_commit_tail_ms": f"p{tail_pct}, "
        f"{sum(1 for x in latencies if x > tail)} commits beyond, "
        f"n={len(latencies)}",
        "failed_frac": f"{(offered - committed) / offered:.6f} "
        f"(aborted+failed+unknown+skipped / offered = "
        f"{offered - committed}/{offered})",
        "host calibration": calibration_line(unit),
    }
    return metrics, beside


def calibration_line(unit: dict) -> str:
    start, end = unit["calibration_ms"]
    return (f"start {start:.3f} ms, end {end:.3f} ms (fixed pure-Python "
            "loop, before and after the timed windows; raw, never used to "
            "rescale)")


def per_layer(unit: dict, twins: list[dict]) -> tuple[dict, list[str]]:
    """The traced run's metrics, plus the growth table printed beside."""
    plains = unit["seeds"]
    first_twins = twins[:-1]  # the last one re-traces the first sub-seed
    out = layer_metrics([twin["layers"] for twin in first_twins])
    plain_wall = {plain["seed"]: plain["timed_wall_s"] for plain in plains}
    out["trace.overhead_frac"] = (
        sum(twin["timed_wall_s"] for twin in first_twins)
        / sum(plain_wall[twin["seed"]] for twin in first_twins) - 1)
    lines = [f"{'quarter':>8s} {'commits_per_wall_s':>19s} "
             f"{'kernel.ports_outstanding':>25s}"]
    for quarter in range(4):
        rate = (sum(plain["quarters"][quarter]["commits"] for plain in plains)
                / sum(plain["quarters"][quarter]["best_wall_s"]
                      for plain in plains))
        ports = statistics.mean(twin["quarters"][quarter]["ports_outstanding"]
                                for twin in first_twins)
        out[f"growth.q{quarter + 1}_commits_per_wall_s"] = rate
        out[f"growth.q{quarter + 1}_ports_outstanding"] = ports
        lines.append(f"{quarter + 1:>8d} {rate:>19.3f} {ports:>25.1f}")
    out["host.calibration_start_ms"], out["host.calibration_end_ms"] = \
        unit["calibration_ms"]
    return out, lines


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (ROOT / "src" / "repro").is_dir():
        print(f"no program to measure: {ROOT / 'src' / 'repro'} is missing",
              file=sys.stderr)
        return 2
    spec = json.loads(SPEC_PATH.read_text())
    if args.workload not in {w["name"] for w in spec["workloads"]}:
        parser.error(f"unknown workload {args.workload!r}")

    deadline = time.monotonic() + args.seconds
    units = 0
    try:
        reading, twins = run_units(args.workload, args.seed,
                                   traced=bool(args.trace))
        check_determinism(reading["seeds"], twins, args.workload)
        setups = setup_times(args.workload, reading, deadline)
        units = len(setups) + len(twins)
        metrics, beside = end_to_end(args.workload, reading, setups)
    except BenchmarkFailure as failure:
        print(f"FAILED: {failure}", file=sys.stderr)
        print(json.dumps({"correct": False, "attempted": max(units, 1),
                          "failed": 1, "metrics": {}}))
        return 1

    print(f"workload {args.workload}  seed {args.seed}  sub-seeds "
          f"{[seeded['seed'] for seeded in reading['seeds']]}, each run "
          f"{DESIGN[args.workload]['repeats']} times"
          f"{f', {len(twins)} traced units' if args.trace else ''}")
    end_to_end_units = {m["name"]: m["unit"] for m in spec["end_to_end"]}
    for name, unit in end_to_end_units.items():
        note = beside.get(name, "")
        print(f"  {name:<24s} {metrics[name]:>14.4f} {unit:<4s} {note}")
    for name in ("failed_frac", "host calibration"):
        print(f"  {name:<24s} {beside[name]}")
    print("  checks: every unit's audits passed; simulated clock identical "
          "across the repeats of a unit"
          + (" and between traced and untraced units" if args.trace else ""))
    if args.trace:
        reported, growth = per_layer(reading, twins)
        for name, value in sorted(reported.items()):
            print(f"  {name:<40s} {value:>16.6f}")
        print("\n".join("  " + line for line in growth))
        units_of = {m["name"]: m["unit"] for m in spec["per_layer"]}
        if set(reported) != set(units_of):
            raise RuntimeError(f"per-layer metrics differ from {SPEC_PATH}: "
                               f"{sorted(set(reported) ^ set(units_of))}")
        result = {name: {"value": reported[name], "unit": unit}
                  for name, unit in units_of.items()}
    else:
        result = {name: {"value": metrics[name], "unit": unit}
                  for name, unit in end_to_end_units.items()}
    print(json.dumps({"correct": True, "attempted": units, "failed": 0,
                      "metrics": result}))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
