"""Unit tests for the throughput harness (kept short; the full sweep runs
in benchmarks/bench_throughput.py)."""

import pytest

from repro.perf.throughput import ThroughputResult, run_throughput


def test_result_rate_arithmetic():
    result = ThroughputResult(concurrency=2, workload="disjoint",
                              duration_ms=10_000.0, committed=25, aborted=0)
    assert result.commits_per_second == 2.5


def test_unknown_workload_rejected():
    with pytest.raises(ValueError):
        run_throughput(1, workload="nonsense")


def test_single_app_throughput_matches_latency():
    result = run_throughput(1, "disjoint", duration_ms=5_000.0)
    # One write transaction is ~244 ms, so ~20 commits in 5 seconds.
    assert result.committed == pytest.approx(20, abs=2)
    assert result.aborted == 0


def test_shared_cell_serializes():
    disjoint = run_throughput(3, "disjoint", duration_ms=5_000.0)
    shared = run_throughput(3, "shared", duration_ms=5_000.0)
    assert shared.committed < disjoint.committed


def test_runs_complete_within_duration():
    result = run_throughput(2, "disjoint", duration_ms=2_000.0)
    assert result.duration_ms == 2_000.0
    assert result.committed > 0


# -- programming errors fail the run instead of counting as aborts ------------


def test_debitcredit_driver_raises_on_a_defect(monkeypatch):
    import repro.perf.debitcredit as driver
    from repro.perf.debitcredit import run_debitcredit

    def broken_txn(app, topology, spec, tid):
        raise KeyError("defect in the transaction body")
        yield  # a generator, like the real body

    monkeypatch.setattr(driver, "debitcredit_txn", broken_txn)
    with pytest.raises(KeyError, match="defect"):
        run_debitcredit(1, duration_ms=1_000.0)


def test_throughput_driver_raises_on_a_defect(monkeypatch):
    from repro.app.library import ApplicationLibrary

    def broken_call(self, ref, op, body=None, tid=None):
        raise KeyError("defect in the call path")
        yield  # a generator, like the real call

    monkeypatch.setattr(ApplicationLibrary, "call", broken_call)
    with pytest.raises(KeyError, match="defect"):
        run_throughput(1, "disjoint", duration_ms=1_000.0)
