"""Run one workload unit in this process and print its reading as JSON.

``run.py`` starts one of these at a time, so every unit pays its own
interpreter start, imports and cluster build::

    python3 perfbench/unit.py --workload hot_row_grouped --seeds 7,8,9 \
        --spawned-at <time.monotonic() of the parent> \
        [--repeats 3] [--traced] [--checks] [--setup-only]

The unit runs the timed window of every seed ``--repeats`` times over,
each time on a freshly built cluster, in rounds: every seed once, then
every seed again, so that the repeats of one seed are spread over the
whole unit.  Every repeat must replay the seed's first on the simulated
clock.  The window is timed in short segments, and each segment's
reading is the fastest of its repeats, so a slow spell of the host does
not count unless it lasts the whole unit.  The last line of standard
output is the unit's JSON reading.
"""

from __future__ import annotations

import argparse
import gc
import hashlib
import json
import resource
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
CALIBRATION_LOOPS = 300_000


def calibration_ms() -> float:
    """Wall time of a fixed pure-Python loop: a host-noise reading."""
    started = time.perf_counter()
    total = 0
    for i in range(CALIBRATION_LOOPS):
        total += i * i % 7
    return (time.perf_counter() - started) * 1000.0


def digest(payload) -> str:
    return hashlib.sha256(json.dumps(payload, sort_keys=True)
                          .encode()).hexdigest()


def counter_totals(cluster) -> dict[str, int]:
    totals: dict[str, int] = {}
    for (_node, metric), counter in cluster.metrics.counters().items():
        totals[metric] = totals.get(metric, 0) + counter.value
    return totals


def timed_window(unit, tracer, traced: bool) -> dict:
    """Run ``unit``'s timed window; return what it did on both clocks."""
    from perfbench.workloads import SEGMENTS
    engine = unit.engine
    before = counter_totals(unit.cluster)
    events_before = (engine.events_executed, engine.events_scheduled)
    tracer.active = traced
    unit.start()
    segment_walls = []
    quarters = []
    previous = 0
    for index in range(SEGMENTS):
        segment_started = time.perf_counter()
        unit.run_segment(index)
        segment_walls.append(time.perf_counter() - segment_started)
        if (index + 1) % (SEGMENTS // 4):
            continue
        so_far = unit.commits_by(engine.now)
        quarters.append({
            "commits": so_far - previous,
            "ports_outstanding": (
                tracer.counts.get("kernel.ports_registered", 0)
                - tracer.counts.get("kernel.ports_released", 0))})
        previous = so_far
    tracer.active = False
    after = counter_totals(unit.cluster)
    sample = unit.sample()
    events = {"executed": engine.events_executed - events_before[0],
              "scheduled": engine.events_scheduled - events_before[1]}
    counters = {name: after[name] - before.get(name, 0)
                for name in sorted(after)
                if after[name] != before.get(name, 0)}
    return {
        "segment_walls_s": segment_walls,
        "quarters": quarters,
        "sample": sample,
        "events": events,
        "counters": counters,
        "sim_digest": digest([sample, events, counters,
                              [q["commits"] for q in quarters]]),
    }


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seeds", required=True,
                        help="comma-separated seeds, one window each")
    parser.add_argument("--spawned-at", type=float, required=True)
    parser.add_argument("--repeats", type=int, default=1,
                        help="run every seed's window this many times over")
    parser.add_argument("--traced", action="store_true")
    parser.add_argument("--checks", action="store_true",
                        help="audit the program's state after each seed's "
                        "first window")
    parser.add_argument("--setup-only", action="store_true",
                        help="stop after set-up and report its time")
    parser.add_argument("--spans", type=Path, default=None,
                        help="write the traced spans to this gzipped CSV file")
    args = parser.parse_args(argv)
    seeds = [int(seed) for seed in args.seeds.split(",")]
    if args.traced and (args.repeats != 1 or len(seeds) != 1):
        parser.error("a traced unit runs one window")

    sys.path.insert(0, str(ROOT / "src"))
    sys.path.insert(0, str(ROOT))
    from perfbench import layers, tracing
    from perfbench.workloads import WORKLOADS

    tracer = tracing.Tracer()
    if args.traced:
        tracing.install(tracer)

    def build(seed: int):
        unit = WORKLOADS[args.workload](seed)
        unit.build()
        engine = unit.engine
        tracer.now = lambda: engine.now
        if args.traced:
            layers.watch_failure_detection(tracer, unit.cluster)
        gc.collect()  # set-up's garbage is set-up's cost
        return unit

    def first_reading(seed: int, window: dict, unit) -> dict:
        """A seed's reading from its first window, audited if asked."""
        reading = {
            "seed": seed,
            "timed_wall_s": sum(window["segment_walls_s"]),
            "diverged_repeats": [],
            "quarters": window["quarters"],
            "sample": window["sample"],
            "events": window["events"],
            "sim_digest": window["sim_digest"],
        }
        if args.traced:
            reading["layers"] = layers.summarize(
                tracer, window["sample"]["committed"], window["counters"],
                window["events"], reading["timed_wall_s"])
            reading["count_digest"] = digest([reading["layers"]["counts"],
                                              reading["layers"]["samples"]])
            if args.spans is not None:
                layers.write_spans(tracer, args.spans)
        checks = unit.check() if args.checks else []
        reading["checks"] = [{"name": name, "ok": ok, "detail": detail}
                             for name, ok, detail in checks]
        return reading

    unit = build(seeds[0])
    setup_done = time.monotonic()
    if args.setup_only:
        print(json.dumps({"setup_s": setup_done - args.spawned_at}))
        return 0
    calib_start = calibration_ms()  # after set-up, so never part of it

    readings: dict[int, dict] = {}
    walls: dict[int, list[list[float]]] = {seed: [] for seed in seeds}
    for _round in range(args.repeats):
        for seed in seeds:
            unit = unit or build(seed)
            window = timed_window(unit, tracer, args.traced)
            walls[seed].append(window["segment_walls_s"])
            reading = readings.get(seed)
            if reading is None:
                readings[seed] = reading = first_reading(seed, window, unit)
            elif window["sim_digest"] != reading["sim_digest"]:
                reading["diverged_repeats"].append(len(walls[seed]) - 1)
            unit = None
            gc.collect()
    peak_rss_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss

    for seed, reading in readings.items():
        best = [min(segment) for segment in zip(*walls[seed])]
        span = len(best) // 4  # segments per quarter
        for index, quarter in enumerate(reading["quarters"]):
            quarter["best_wall_s"] = sum(best[index * span:
                                              (index + 1) * span])
        reading["best_wall_s"] = sum(best)
        reading["repeat_walls_s"] = [sum(repeat) for repeat in walls[seed]]
    print(json.dumps({
        "workload": args.workload,
        "traced": args.traced,
        "setup_s": setup_done - args.spawned_at,
        "peak_rss_kb": peak_rss_kb,
        "calibration_ms": [calib_start, calibration_ms()],
        "seeds": [readings[seed] for seed in seeds],
    }))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
