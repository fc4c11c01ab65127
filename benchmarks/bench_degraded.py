"""Commit continuity under degraded service -- the rf=2 fault family.

Two branches sharded over two nodes with rf=2 (every key-space has a
copy on both), driven by steady open-loop DebitCredit traffic while one
fault disturbs the cluster.  The fault is the family's one parameter:

- ``availability`` -- a seeded rolling plan derived from the placement
  map crashes one replica of every shard in turn (stagger wider than the
  restart window, so no shard ever loses both copies at once).  A
  replica crash must be *degraded service* -- writes fan out to fewer
  copies, reads fail over, commits keep flowing -- never an outage.
- ``reconfig`` -- a third node joins the *running* cluster and one
  account shard migrates onto it as a crash-safe transaction (durable
  intent, extend epoch, chunked copy behind the read barrier,
  commit-sequence bump, shrink epoch).  Reconfiguration must be an
  online operation, its disruption bounded to the epoch-bump abort
  windows and the copy's fan-in.

Both runs are scenarios of :mod:`repro.perf.scenarios`, and both payloads
record, besides committed TPS, the **maximum commit gap**: the longest
stretch of simulated time with no commit anywhere in the cluster.

``python benchmarks/bench_degraded.py --json`` regenerates
``BENCH_availability.json`` and ``BENCH_reconfig.json`` at the repository
root; ``--smoke`` runs a shortened variant whose gate also checks TPS
against the committed baselines, and ``--smoke --json`` writes the
``BENCH_*.smoke.json`` payloads CI uploads as artifacts.
"""

import json
import sys
from functools import partial
from pathlib import Path

if __package__ in (None, ""):  # running as a script, not under pytest
    _ROOT = Path(__file__).resolve().parent.parent
    sys.path.insert(0, str(_ROOT / "src"))
    sys.path.insert(0, str(_ROOT))

import pytest

from benchmarks.conftest import (REPO_ROOT, baseline_main, workload_fields,
                                 write_result)
from repro.perf.runner import Cell, run_cell
from repro.perf.scenarios import (RECONFIG, REPLICATED_WORKLOAD, REPLICATION,
                                  SPACING_MS)

#: fault -> (report title, the payload fields that show its effect)
FAULTS = {
    "availability": ("DebitCredit under rolling replica crashes (rf=2, "
                     "one replica per shard)",
                     ("read_failovers", "degraded_writes", "catchup_pages")),
    "reconfig": ("DebitCredit through a live shard migration (join + "
                 "move, rf=2)",
                 ("migration_committed", "placement_epoch", "copy_chunks")),
}
SEED = 1985
FULL_DURATION_MS = 24_000.0
#: long enough that the fixed-cost windows (1.5 s failure detection,
#: 5 s in-doubt inquiry, catch-up retries) stay well under the gap bar,
#: which scales with duration while those costs do not
SMOKE_DURATION_MS = 18_000.0
#: no commit gap may exceed this fraction of the run: the crash windows
#: (detection + in-doubt resolution) and the epoch-bump abort windows
#: bound it well below a full outage
MAX_GAP_FRACTION = 0.4
#: smoke TPS may drift this much from the committed full-run baseline
#: (shorter window, same fault schedule -> coarser quantization)
SMOKE_TPS_TOLERANCE = 0.5


def baseline_path(fault: str) -> Path:
    return REPO_ROOT / f"BENCH_{fault}.json"


def payload_from(fault: str, result: dict) -> dict:
    """The committed baseline (timestamp-free: deterministic simulation,
    so regenerating an unchanged tree is a no-op diff)."""
    head = {
        "workload": workload_fields(REPLICATED_WORKLOAD),
        "replication": {
            "replication_factor": REPLICATION.replication_factor,
            "prepared_inquiry_ms": REPLICATION.prepared_inquiry_ms,
            "catchup_retry_ms": REPLICATION.catchup_retry_ms,
        },
    }
    if fault == "reconfig":
        head["reconfig"] = {"copy_retry_ms": RECONFIG.copy_retry_ms,
                            "copy_max_retries": RECONFIG.copy_max_retries}
    return {**head, "seed": SEED, "spacing_ms": SPACING_MS, **result}


def baseline_payload(fault: str, duration_ms: float) -> dict:
    return payload_from(fault, run_cell(
        Cell.of(fault, seed=SEED, duration_ms=duration_ms)))


def gate(fault: str, r: dict) -> list[str]:
    """Every reason a run is not degraded service: no commits, a failed
    audit, an outage-sized commit gap, or a fault that never took
    effect."""
    problems = []
    if r["committed"] <= 0:
        problems.append(f"no transaction committed through the {fault} "
                        "fault")
    if not r["audits_ok"]:
        problems.append(f"audits failed: {r['violations']}")
    gap_limit = MAX_GAP_FRACTION * r["duration_ms"]
    if r["max_commit_gap_ms"] >= gap_limit:
        problems.append(
            f"commit gap {r['max_commit_gap_ms']} ms exceeds "
            f"{gap_limit} ms: that is an outage window")
    if fault == "availability":
        if r["degraded_writes"] <= 0:
            problems.append("no write ran degraded: the crashes missed")
        if r["catchup_pages"] <= 0:
            problems.append("no restarted replica caught up")
    elif not r["migration_committed"]:
        problems.append("the live migration did not commit")
    elif r["final_replicas"][-1] != "bank2":
        problems.append("the shard did not land on the joining node")
    return problems


def smoke_check(fault: str, payload: dict) -> tuple[bool, str]:
    """Gate the shortened CI run against the committed full baseline."""
    problems = gate(fault, payload)
    committed = json.loads(baseline_path(fault).read_text())
    if committed["tps"] > 0:
        drift = abs(payload["tps"] - committed["tps"]) / committed["tps"]
        if drift > SMOKE_TPS_TOLERANCE:
            problems.append(
                f"tps drifted {drift:.0%} from baseline "
                f"({payload['tps']} vs {committed['tps']})")
    summary = (f"{fault}: tps={payload['tps']}, "
               f"max_gap={payload['max_commit_gap_ms']}ms")
    if problems:
        summary += "; " + "; ".join(problems)
    return not problems, summary


@pytest.fixture(scope="module", params=list(FAULTS))
def degraded(request):
    fault = request.param
    return fault, baseline_payload(fault, FULL_DURATION_MS)


def test_render_degraded(degraded, benchmark):
    benchmark.pedantic(lambda: None, iterations=1, rounds=1)
    fault, r = degraded
    title, evidence = FAULTS[fault]
    lines = [title, "=" * 72,
             f"offered {r['offered']}  committed {r['committed']}  "
             f"tps {r['tps']}",
             f"max commit gap {r['max_commit_gap_ms']} ms of "
             f"{r['duration_ms']} ms",
             "  ".join(f"{name.replace('_', ' ')} {r[name]}"
                       for name in evidence),
             f"audits ok: {r['audits_ok']}"]
    write_result(f"{fault}.txt", "\n".join(lines))


def test_service_degrades_but_never_stops(degraded):
    """The acceptance bar: commits keep flowing through the fault, no
    gap is outage-sized, the fault visibly took effect, and every audit
    passes after the repair."""
    fault, r = degraded
    assert not gate(fault, r)


def test_baseline_json_matches_current_tree(degraded):
    """BENCH_<fault>.json is regenerated, not hand-edited."""
    fault, r = degraded
    assert json.loads(baseline_path(fault).read_text()) == r


def main(argv: list[str] | None = None) -> int:
    return baseline_main(
        argv,
        description="Regenerate the degraded-service baselines "
                    "(availability, reconfig).",
        baselines={baseline_path(fault): (partial(baseline_payload, fault),
                                          partial(smoke_check, fault))
                   for fault in FAULTS},
        full_duration_ms=FULL_DURATION_MS,
        smoke_duration_ms=SMOKE_DURATION_MS)


if __name__ == "__main__":
    raise SystemExit(main())
