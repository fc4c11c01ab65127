"""The scenario registry: every name runs, deterministically, anywhere.

Every CLI target, sweep cell and bench run resolves through
:data:`repro.perf.scenarios.SCENARIOS`, so each entry must run at a short
size, return a result the runner can turn into a JSON row, and give the
same row for the same seed -- in this process or in a worker pool.
"""

import json

import pytest

from repro.perf.benchmarks import BENCHMARKS
from repro.perf.runner import Cell, result_row, run_cell, run_cells
from repro.perf.scenarios import SCENARIOS, max_commit_gap

#: short sizes for whichever of these parameters a scenario takes
SHORT = {"iterations": 1, "duration_ms": 1_500.0, "transfers": 3,
         "episodes": 1, "plan_ms": 1_000.0, "run_ms": 1_500.0}


def short_cell(name: str, seed: int = 11) -> Cell:
    defaults = SCENARIOS[name].defaults
    return Cell.of(name, seed=seed, **{key: value for key, value
                                       in SHORT.items() if key in defaults})


def test_registry_holds_every_scenario():
    assert set(SCENARIOS) == {spec.key for spec in BENCHMARKS} | {
        "chaos", "chaos_soak", "throughput", "debitcredit", "replicated",
        "availability", "reconfig"}


@pytest.mark.parametrize("name", sorted(SCENARIOS))
def test_every_scenario_runs_and_replays(name):
    cell = short_cell(name)
    captured = []
    first = result_row(cell, run_cell(cell, instrument=captured.append))
    assert len(captured) == 1, "instrument must see exactly one cluster"
    json.dumps(first)  # rows must be JSON-able
    assert first["kind"] == name
    assert result_row(cell, run_cell(cell)) == first


def test_degraded_cells_identical_across_workers():
    cells = [Cell.of(name, seed=1985, duration_ms=6_000.0)
             for name in ("availability", "reconfig")]
    reference = run_cells(cells, workers=1)
    assert run_cells(cells, workers=2) == reference
    availability, reconfig = reference
    assert len(availability["plan"]) == 2
    assert reconfig["migration_committed"] is True
    assert availability["audits_ok"] and reconfig["audits_ok"]


def test_commit_gap_spans_the_traffic_window_only():
    """Traffic runs from the boot time (here 1.5 s), not from 0, and a
    commit the finale lands after the window does not count."""
    commits = [2_000.0, 2_600.0, 3_400.0, 9_000.0]
    assert max_commit_gap(commits, 1_500.0, 3_500.0) == 800.0
    assert max_commit_gap([], 1_500.0, 3_500.0) == 2_000.0
