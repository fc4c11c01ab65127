"""Shared fixtures and CLI plumbing for the benchmark harness.

Each ``bench_table_*`` module regenerates one table of the paper's
evaluation.  The rendered paper-versus-reproduction tables are written to
``benchmarks/results/`` and echoed to stdout (run with ``-s`` to see them
live); EXPERIMENTS.md summarizes the outcomes.

The expensive work (running all fourteen benchmarks under three
configurations) is done once per session and shared.

Workload benches (``bench_throughput``, ``bench_debitcredit``,
``bench_degraded``, ``bench_sim_speed``) double as scripts that
regenerate committed ``BENCH_*.json`` baselines at the repo root;
:func:`baseline_main` is the shared ``--json/--smoke/--output`` entry
point so each bench file only supplies its payload functions and smoke
gates.
"""

import json
from pathlib import Path
from typing import Callable

import pytest

from repro.perf.benchmarks import BENCHMARKS, run_benchmark
from repro.core.config import TabsConfig, WorkloadConfig
from repro.perf.projections import run_table_5_4

RESULTS_DIR = Path(__file__).parent / "results"
#: the repository root, where committed ``BENCH_*.json`` baselines live
REPO_ROOT = Path(__file__).resolve().parent.parent


def write_result(name: str, text: str) -> None:
    RESULTS_DIR.mkdir(exist_ok=True)
    (RESULTS_DIR / name).write_text(text + "\n")
    print("\n" + text)


def workload_fields(workload: WorkloadConfig) -> dict:
    """The DebitCredit schema block a workload bench's payload records."""
    return {"schema": workload.schema,
            "branches": workload.branches,
            "branches_per_node": workload.branches_per_node,
            "tellers_per_branch": workload.tellers_per_branch,
            "accounts_per_branch": workload.accounts_per_branch,
            "locality": workload.locality}


def baseline_main(argv: list[str] | None, *, description: str,
                  baselines: dict[Path, tuple[Callable[[float], dict],
                                              Callable[[dict],
                                                       tuple[bool, str]]]],
                  full_duration_ms: float,
                  smoke_duration_ms: float,
                  json_filter: Callable[[dict], dict] | None = None) -> int:
    """Shared CLI for baseline-regenerating benches.

    ``baselines`` maps each committed baseline the bench owns to its
    ``(payload_fn, smoke_check)``.  ``payload_fn(duration_ms)`` produces
    the JSON-ready payload (the simulation is deterministic, so payloads
    carry no timestamps and regenerating an unchanged tree is a no-op
    diff).  ``smoke_check`` returns ``(ok, summary_line)`` for the
    shortened CI variant; ``--smoke --json`` writes each payload to
    ``BENCH_<name>.smoke.json`` beside its baseline, and CI uploads
    those as artifacts.

    ``json_filter`` (if given) maps the payload to what ``--json``
    writes: benches that *measure wall-clock time* (``bench_sim_speed``)
    keep the nondeterministic wall section out of the committed baseline
    while the smoke gate still sees it.
    """
    import argparse

    names = ", ".join(path.name for path in baselines)
    parser = argparse.ArgumentParser(description=description)
    parser.add_argument("--json", action="store_true",
                        help=f"write {names} at the repo root "
                             "(*.smoke.json with --smoke)")
    parser.add_argument("--smoke", action="store_true",
                        help="short windows (CI); exit nonzero if the "
                             "smoke gate fails")
    parser.add_argument("--output", type=Path, default=None,
                        help="override the output path for --json "
                             "(benches with one baseline)")
    args = parser.parse_args(argv)
    if args.output and len(baselines) > 1:
        parser.error(f"--output names one file; this bench writes {names}")

    duration_ms = smoke_duration_ms if args.smoke else full_duration_ms
    failed = False
    for path, (payload_fn, smoke_check) in baselines.items():
        payload = payload_fn(duration_ms)
        written = json_filter(payload) if json_filter is not None else payload
        text = json.dumps(written, indent=2) + "\n"
        if args.json:
            output = args.output or (path.with_suffix(".smoke.json")
                                     if args.smoke else path)
            output.write_text(text)
            print(f"wrote {output}")
        print(text, end="")
        if args.smoke:
            ok, summary = smoke_check(payload)
            print(f"smoke {'PASS' if ok else 'FAIL'}: {summary}")
            failed = failed or not ok
    return 1 if failed else 0


@pytest.fixture(scope="session")
def measured_results():
    """All fourteen benchmarks under the measured-1985 configuration."""
    return [run_benchmark(spec, TabsConfig.measured(), iterations=10)
            for spec in BENCHMARKS]


@pytest.fixture(scope="session")
def table_5_4_rows():
    """All fourteen benchmarks under all three configurations."""
    return run_table_5_4(iterations=10)
