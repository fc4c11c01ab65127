"""Command-line demo runner: ``python -m repro <command>``.

Commands:

- ``inventory`` -- print the Figure 3-1 component map of a running node
- ``primitives`` -- measure and print Table 5-1 against the paper
- ``benchmark [keys...]`` -- run Table 5-4 rows (default: a quick subset)
- ``paths`` -- print the longest-path commit analysis (Table 5-3 method)
- ``trace <scenario>`` -- run a scenario with the flight recorder on;
  emit Chrome trace-event JSON (load it at https://ui.perfetto.dev) and
  optionally compact JSONL
- ``metrics <scenario>`` -- run a scenario and print its per-node
  counters, gauges, and latency histograms
- ``profile <scenario>`` -- run a scenario under the wall-clock
  self-profiler; print the hot-handler table, fabric churn, and the
  events/sec meter, and optionally write a collapsed-stack flamegraph and
  a pstats dump
- ``sweep <scenario>`` -- fan ``(counts, seeds)`` cells of a scenario
  across worker processes and print the rows as JSON

A scenario is any name in :data:`repro.perf.scenarios.SCENARIOS`: a paper
benchmark key, ``chaos``, ``chaos_soak``, ``throughput``,
``debitcredit``, ``replicated``, ``availability`` or ``reconfig``.

The heavier artifacts (all fourteen benchmarks under three configurations,
ablations, throughput) live in ``pytest benchmarks/``.
"""

from __future__ import annotations

import argparse
import sys

from repro import TabsCluster, TabsConfig
from repro.kernel.costs import MEASURED_1985
from repro.perf.model import PAPER_TABLE_5_3
from repro.perf.pathmodel import TABLE_5_3_PATHS
from repro.perf.primitives import measure_primitives
from repro.perf.projections import run_table_5_4
from repro.perf.report import (
    render_metrics,
    render_table_5_1,
    render_table_5_4,
)
from repro.perf.runner import (
    Cell,
    run_cell,
    run_cells,
    sweep_cells,
    sweep_payload,
)
from repro.perf.scenarios import SCENARIOS
from repro.servers.int_array import IntegerArrayServer


def write_report(text: str, stream=None) -> None:
    """Write one report to ``stream``, defaulting to the *current* stdout.

    Every command funnels its output through here; resolving
    ``sys.stdout`` at call time (not import time) keeps the commands
    observable under pytest's ``capsys`` and honest under redirection.
    """
    out = stream if stream is not None else sys.stdout
    out.write(text)
    if not text.endswith("\n"):
        out.write("\n")


def cmd_inventory(_args) -> int:
    cluster = TabsCluster(TabsConfig())
    cluster.add_node("demo")
    cluster.add_server("demo", IntegerArrayServer.factory("array"))
    cluster.start()
    lines = ["Figure 3-1: the components of a TABS node", ""]
    for name, role in cluster.node("demo").component_inventory().items():
        lines.append(f"  {name:24s} {role}")
    write_report("\n".join(lines))
    return 0


def cmd_primitives(_args) -> int:
    measured = measure_primitives(repetitions=20)
    write_report(render_table_5_1(measured, MEASURED_1985))
    return 0


def cmd_benchmark(args) -> int:
    keys = args.keys or ["r1", "w1", "r1r1", "w1w1"]
    rows = run_table_5_4(keys=keys, iterations=args.iterations)
    write_report(render_table_5_4(rows))
    return 0


def cmd_paths(_args) -> int:
    lines = ["Longest-path commit counts (ours | paper), per Table 5-3", ""]
    for protocol, path in TABLE_5_3_PATHS.items():
        paper = PAPER_TABLE_5_3[protocol]
        lines.append(f"  {protocol:14s} dg {path.datagrams:>4} | "
                     f"{paper.datagrams:>4}   small {path.small:>4.0f} | "
                     f"{paper.small:>4.0f}   stable {path.stable_writes:>2.0f} | "
                     f"{paper.stable_writes:>2.0f}")
    write_report("\n".join(lines))
    return 0


# -- scenario targets -----------------------------------------------------------

def _knobs(target: str, **values) -> dict:
    """The CLI values that name a parameter of scenario ``target``."""
    defaults = SCENARIOS[target].defaults
    return {name: value for name, value in values.items()
            if name in defaults}


def _instrumented_run(args, traced: bool = False,
                      profiled: bool = False) -> TabsCluster:
    """Run scenario ``args.target``; return its cluster, captured through
    the scenario's ``instrument`` hook with tracing/profiling switched on
    before any traffic."""
    captured: list[TabsCluster] = []

    def instrument(cluster: TabsCluster) -> None:
        captured.append(cluster)
        if traced:
            cluster.enable_tracing()
        if profiled:
            cluster.enable_profiling()

    knobs = _knobs(args.target, iterations=args.iterations)
    run_cell(Cell.of(args.target, seed=args.seed, **knobs),
             instrument=instrument)
    return captured[0]


def cmd_trace(args) -> int:
    from repro.obs import chrome_trace_json, jsonl_events

    cluster = _instrumented_run(args, traced=True)
    tracer = cluster.ctx.tracer
    payload = chrome_trace_json(tracer)
    summary = (f"{len(tracer.spans)} spans, {len(tracer.events)} events, "
               f"{tracer.last_time_ms():.1f} simulated ms")
    if args.jsonl:
        with open(args.jsonl, "w") as handle:
            handle.write(jsonl_events(tracer))
        write_report(f"wrote JSONL flight record to {args.jsonl} "
                     f"({summary})")
    if args.out:
        with open(args.out, "w") as handle:
            handle.write(payload)
        write_report(f"wrote Chrome trace to {args.out} ({summary}); "
                     "load it at https://ui.perfetto.dev")
    elif not args.jsonl:
        write_report(payload)
    return 0


def cmd_metrics(args) -> int:
    from repro.obs import metrics_json

    cluster = _instrumented_run(args)
    if args.json:
        with open(args.json, "w") as handle:
            handle.write(metrics_json(cluster.metrics))
        write_report(f"wrote metrics snapshot to {args.json}")
    else:
        write_report(render_metrics(cluster.metrics))
    return 0


def cmd_profile(args) -> int:
    from repro.obs import collapsed_stacks, render_profile, write_pstats

    cluster = _instrumented_run(args, profiled=True)
    profiler = cluster.ctx.profiler
    write_report(render_profile(profiler, top=args.top))
    if args.flame:
        with open(args.flame, "w") as handle:
            handle.write(collapsed_stacks(profiler))
        write_report(f"wrote collapsed-stack flamegraph text to "
                     f"{args.flame} (feed it to flamegraph.pl or "
                     "speedscope)")
    if args.pstats:
        write_pstats(profiler, args.pstats)
        write_report(f"wrote pstats dump to {args.pstats} "
                     "(load with pstats.Stats or snakeviz)")
    return 0


def cmd_sweep(args) -> int:
    import json

    counts = [int(part) for part in args.counts.split(",") if part]
    seeds = [int(part) for part in args.seeds.split(",") if part]
    cells = sweep_cells(args.sweep, counts, seeds,
                        **_knobs(args.sweep, duration_ms=args.duration_ms,
                                 workload=args.workload))
    results = run_cells(cells, workers=args.workers)
    payload = sweep_payload(cells, results, workers=args.workers)
    text = json.dumps(payload, indent=1, sort_keys=True)
    if args.json:
        with open(args.json, "w") as handle:
            handle.write(text + "\n")
        write_report(f"wrote {len(cells)} cells to {args.json}")
    else:
        write_report(text)
    return 0


def _add_target_arguments(parser: argparse.ArgumentParser) -> None:
    parser.add_argument(
        "target", choices=sorted(SCENARIOS),
        help="scenario: a paper benchmark key (e.g. w1w1), chaos, "
             "chaos_soak, throughput, debitcredit, replicated, "
             "availability or reconfig")
    parser.add_argument("--seed", type=int, default=1985)
    parser.add_argument("--iterations", type=int, default=3,
                        help="paper benchmark iterations (the other "
                             "scenarios ignore it)")


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(
        prog="repro",
        description="TABS reproduction demo runner (SOSP 1985)")
    sub = parser.add_subparsers(dest="command", required=True)
    sub.add_parser("inventory").set_defaults(run=cmd_inventory)
    sub.add_parser("primitives").set_defaults(run=cmd_primitives)
    bench = sub.add_parser("benchmark")
    bench.add_argument("keys", nargs="*",
                       help="benchmark keys (e.g. r1 w1 r1r1)")
    bench.add_argument("--iterations", type=int, default=10)
    bench.set_defaults(run=cmd_benchmark)
    sub.add_parser("paths").set_defaults(run=cmd_paths)
    trace = sub.add_parser(
        "trace", help="run a target with the flight recorder on")
    _add_target_arguments(trace)
    trace.add_argument("--out", help="write Chrome trace-event JSON here "
                                     "(default: print to stdout)")
    trace.add_argument("--jsonl", help="also write compact JSONL events")
    trace.set_defaults(run=cmd_trace)
    metrics = sub.add_parser(
        "metrics", help="run a target and print its metrics registry")
    _add_target_arguments(metrics)
    metrics.add_argument("--json", help="write the JSON snapshot here "
                                        "instead of rendering tables")
    metrics.set_defaults(run=cmd_metrics)
    profile = sub.add_parser(
        "profile", help="run a target under the wall-clock self-profiler")
    _add_target_arguments(profile)
    profile.add_argument("--top", type=int, default=10,
                         help="rows in the hot-handler and contention "
                              "tables")
    profile.add_argument("--flame", help="write collapsed-stack "
                                         "flamegraph text here")
    profile.add_argument("--pstats", help="write a pstats-compatible "
                                          "dump here")
    profile.set_defaults(run=cmd_profile)
    sweep = sub.add_parser(
        "sweep", help="fan a (config, seed) experiment sweep across "
                      "worker processes (deterministic aggregation)")
    sweep.add_argument("sweep", choices=sorted(SCENARIOS),
                       help="which scenario to sweep")
    sweep.add_argument("--counts", default="1,2,4,8",
                       help="comma-separated throughput concurrencies or "
                            "debitcredit client counts (other scenarios: "
                            "one cell per seed)")
    sweep.add_argument("--seeds", default="1985",
                       help="comma-separated seeds")
    sweep.add_argument("--duration-ms", type=float, default=10_000.0)
    sweep.add_argument("--workload", default="disjoint",
                       choices=["disjoint", "shared"],
                       help="throughput workload")
    sweep.add_argument("--workers", type=int, default=1,
                       help="worker processes (results are identical "
                            "for any value)")
    sweep.add_argument("--json", help="write the JSON document here "
                                      "instead of printing it")
    sweep.set_defaults(run=cmd_sweep)
    args = parser.parse_args(argv)
    return args.run(args)


if __name__ == "__main__":
    sys.exit(main())
