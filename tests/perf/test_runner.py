"""The parallel experiment runner's core promise: worker-count invariance.

``run_cells`` must return byte-identical results for ``workers=1`` (the
inline reference path), ``workers=2``, and any oversubscribed count --
that is what makes a parallel sweep trustworthy.  These tests prove it on
real multi-process pools (the pool genuinely forks even on one core) and
pin the cell/aggregation plumbing around it.
"""

import json

import pytest

from repro.core.config import CommitConfig, TabsConfig
from repro.errors import TabsError
from repro.perf.runner import (
    Cell,
    result_row,
    run_cell,
    run_cells,
    sweep_cells,
    sweep_payload,
)

#: short windows: these tests are about plumbing, not steady-state TPS
FAST = {"duration_ms": 1_500.0}


def test_cell_params_are_canonical():
    a = Cell.of("throughput", seed=7, concurrency=2, workload="shared")
    b = Cell.of("throughput", seed=7, workload="shared", concurrency=2)
    assert a == b
    assert a.param_dict() == {"concurrency": 2, "workload": "shared"}


def test_unknown_cell_kind_raises():
    with pytest.raises(TabsError, match="unknown cell kind"):
        run_cell(Cell.of("tachyon_sweep"))


def test_workers_must_be_positive():
    with pytest.raises(TabsError, match="workers"):
        run_cells([Cell.of("throughput", concurrency=1)], workers=0)


def test_run_cells_empty_list():
    assert run_cells([], workers=1) == []
    assert run_cells([], workers=4) == []


def test_throughput_results_identical_for_any_worker_count():
    """The acceptance test: 1, 2, and oversubscribed worker counts
    produce bit-identical aggregated sweeps."""
    cells = sweep_cells("throughput", [1, 2, 3], workload="disjoint", **FAST)
    reference = run_cells(cells, workers=1)
    for workers in (2, 8):
        parallel = run_cells(cells, workers=workers)
        assert parallel == reference, f"workers={workers} diverged"
    # ... and the JSON document is byte-identical modulo the recorded
    # worker count (provenance only).
    doc_1 = sweep_payload(cells, reference, workers=1)
    doc_2 = sweep_payload(cells, run_cells(cells, workers=2), workers=1)
    assert json.dumps(doc_1, sort_keys=True) == \
        json.dumps(doc_2, sort_keys=True)
    # results come back in cell order: concurrency 1, 2, 3
    assert [r.concurrency for r in reference] == [1, 2, 3]
    assert all(r.committed > 0 for r in reference)


def test_chaos_soak_cells_identical_across_workers():
    """Chaos cells cross the pickle boundary as plain dicts; the audited
    summary must be a pure function of the seed."""
    cells = sweep_cells("chaos_soak", seeds=[41, 42], transfers=4,
                        episodes=2, plan_ms=2_000.0, run_ms=2_500.0)
    reference = run_cells(cells, workers=1)
    assert run_cells(cells, workers=2) == reference
    assert [row["seed"] for row in reference] == [41, 42]
    for row in reference:
        assert row["ok"], f"soak seed {row['seed']}: {row['violations']}"
        assert row["events_executed"] > 0


def test_debitcredit_cells_carry_the_whole_config():
    """A sweep must not silently drop config knobs on the way into the
    worker: the full frozen ``TabsConfig`` rides inside the cell."""
    config = TabsConfig(seed=77, commit=CommitConfig.grouped())
    cells = sweep_cells("debitcredit", [1], config=config, **FAST)
    (result,) = run_cells(cells, workers=1)
    assert result.pipeline == "grouped"
    assert result.clients == 1


def test_result_rows_are_json_able():
    cells = sweep_cells("debitcredit", [1], commit=CommitConfig.grouped(),
                        **FAST)
    (result,) = run_cells(cells, workers=1)
    row = result_row(cells[0], result)
    json.dumps(row)  # must not raise on the CommitConfig param
    assert row["kind"] == "debitcredit"
    assert row["clients"] == 1
    assert row["tps"] == pytest.approx(
        result.committed / (result.duration_ms / 1000.0), abs=0.01)


def test_compare_pipelines_split_is_worker_invariant():
    """The flat fan-out + slice split inside ``compare_pipelines`` must
    reassemble the same per-pipeline dict for any worker count."""
    from repro.perf.throughput import compare_pipelines

    reference = compare_pipelines([1, 2], duration_ms=1_500.0, workers=1)
    parallel = compare_pipelines([1, 2], duration_ms=1_500.0, workers=2)
    assert reference == parallel
    assert set(reference) == {"paper", "grouped"}
    for name, results in reference.items():
        assert [r.concurrency for r in results] == [1, 2]
        assert all(r.pipeline == name for r in results)
