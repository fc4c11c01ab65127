"""Per-layer readings from a traced unit, and how they pool into metrics.

:func:`summarize` turns one traced unit's spans into counts and simulated
times (deterministic for a seed) plus per-layer busy wall time;
:func:`metrics` pools several units' summaries into the per-layer metrics
that ``BENCHMARK.json`` lists.
"""

from __future__ import annotations

import csv
import gzip
import statistics
from collections import defaultdict
from pathlib import Path

#: layers whose self wall time is reported per commit
WALL_LAYERS = ("kernel", "comm", "wal", "txn", "servers", "workloads")


def watch_failure_detection(tracer, cluster) -> None:
    """Record every suspicion the failure detectors raise while tracing."""
    def observe(time_ms, local, event, peer):
        if tracer.active and event == "suspect":
            tracer.suspects.append((time_ms, peer))

    for tabs_node in cluster.nodes.values():
        tabs_node.fd_observers.append(observe)


def _detection_delays(tracer) -> list[float]:
    """Crash to the first suspicion of the crashed node, per crash."""
    delays = []
    for crashed_at, node in tracer.crashes:
        later = [time for time, peer in tracer.suspects
                 if peer == node and time >= crashed_at]
        if later:
            delays.append(min(later) - crashed_at)
    return delays


def summarize(tracer, commits: int, counters: dict, events: dict,
              timed_wall: float) -> dict:
    """One traced unit's per-layer reading."""
    by_name: dict[str, list] = defaultdict(list)
    self_wall: dict[str, float] = defaultdict(float)
    for span in tracer.spans:
        by_name[span.name].append(span)
        self_wall[span.layer] += span.self_wall

    def n(name: str) -> int:
        return len(by_name[name])

    def sim(name: str) -> float:
        return sum(span.sim_ms for span in by_name[name])

    locks = by_name["locking.lock"]
    waits = [span for span in locks if span.resumes > 1]
    counts = {
        "units": 1,
        "commits": commits,
        "sim.events_executed": events["executed"],
        "sim.events_scheduled": events["scheduled"],
        "sim.schedule_now": tracer.counts.get("sim.schedule_now", 0),
        "kernel.port_sends": n("kernel.port_send"),
        "kernel.ports_registered":
            tracer.counts.get("kernel.ports_registered", 0),
        "kernel.ports_released":
            tracer.counts.get("kernel.ports_released", 0),
        "kernel.page_faults": sum(1 for span
                                  in by_name["kernel.ensure_resident"]
                                  if span.resumes > 1),
        "kernel.disk_reads": n("kernel.disk_read"),
        "kernel.disk_sim_ms": sim("kernel.disk_read")
        + sim("kernel.disk_write"),
        "comm.datagrams": tracer.counts.get("comm.datagrams", 0),
        "rpc.calls": n("rpc.call"),
        "rpc.retries": counters.get("rpc.retries", 0),
        "nameserver.lookups": n("nameserver.lookup"),
        "nameserver.repeat_lookups":
            tracer.counts.get("nameserver.repeat_lookups", 0),
        "nameserver.sim_ms": sim("nameserver.lookup"),
        "locking.acquires": len(locks),
        "locking.waits": len(waits),
        "locking.wait_sim_ms": sum(span.sim_ms for span in waits),
        "locking.timeouts": sum(1 for span in locks
                                if span.error == "LockTimeout"),
        "wal.appends": n("wal.append"),
        "wal.forces": n("wal.physical_force"),
        "wal.force_sim_ms": sim("wal.force"),
        "wal.device_sim_ms": sim("wal.physical_force"),
        "txn.end_calls": n("app.end"),
        "txn.end_committed": tracer.counts.get("txn.end_committed", 0),
        "servers.ops": n("servers.dispatch"),
        "replication.writes": n("replication.write_all"),
        "replication.copies": sum(
            1 for span in by_name["rpc.call"]
            if span.parent is not None
            and span.parent.name == "replication.write_all"),
        "replication.reads": n("replication.read"),
        "replication.read_failovers":
            counters.get("replication.read_failover", 0),
        "replication.validation_aborts":
            counters.get("replication.validation_abort", 0),
        "replication.catchup_pages": counters.get("replica.catchup_pages", 0),
        "replication.catchup_sim_ms": sim("replication.catchup"),
        "recovery.runs": n("recovery.recover_node"),
        "recovery.records_replayed":
            tracer.counts.get("recovery.records_replayed", 0),
        "recovery.recover_sim_ms": sim("recovery.recover_node"),
        "spans": len(tracer.spans),
    }
    samples = {
        "rpc.call_sim_ms": [span.sim_ms for span in by_name["rpc.call"]],
        "app.end_sim_ms": [span.sim_ms for span in by_name["app.end"]],
        "server.op_sim_ms": [span.sim_ms for span in by_name["server.op"]],
        "comm.detect_sim_ms": _detection_delays(tracer),
    }
    wall = {f"{layer}.self_s": seconds
            for layer, seconds in sorted(self_wall.items())}
    wall["timed_s"] = timed_wall
    wall["covered_s"] = tracer.covered
    return {"counts": counts, "samples": samples, "wall": wall}


def _pool(summaries: list[dict]) -> dict:
    pooled = {"counts": defaultdict(float), "samples": defaultdict(list),
              "wall": defaultdict(float)}
    for summary in summaries:
        for section in ("counts", "wall"):
            for key, value in summary[section].items():
                pooled[section][key] += value
        for key, values in summary["samples"].items():
            pooled["samples"][key].extend(values)
    return pooled


def _ratio(numerator: float, denominator: float) -> float:
    return numerator / denominator if denominator else 0.0


def _median(values: list[float]) -> float:
    return statistics.median(values) if values else 0.0


def metrics(summaries: list[dict]) -> dict[str, float]:
    """The per-layer metrics, pooled over the traced units."""
    pooled = _pool(summaries)
    c, s, w = pooled["counts"], pooled["samples"], pooled["wall"]
    commits, units = c["commits"], c["units"]

    def per_commit(value: float) -> float:
        return _ratio(value, commits)

    def wall_ms_per_commit(layer: str) -> float:
        return per_commit(w[f"{layer}.self_s"] * 1000.0)

    unattributed = w["timed_s"] - w["covered_s"]
    out = {
        "sim.events_per_commit": per_commit(c["sim.events_executed"]),
        "sim.same_instant_frac": _ratio(c["sim.schedule_now"],
                                        c["sim.events_scheduled"]),
        "sim.loop_wall_ms_per_commit": per_commit(unattributed * 1000.0),
        "kernel.port_sends_per_commit": per_commit(c["kernel.port_sends"]),
        "kernel.ports_outstanding": _ratio(
            c["kernel.ports_registered"] - c["kernel.ports_released"], units),
        "kernel.page_faults_per_commit": per_commit(c["kernel.page_faults"]),
        "kernel.disk_reads_per_commit": per_commit(c["kernel.disk_reads"]),
        "kernel.disk_sim_ms_per_commit": per_commit(c["kernel.disk_sim_ms"]),
        "comm.datagrams_per_commit": per_commit(c["comm.datagrams"]),
        "comm.detect_sim_ms": _median(s["comm.detect_sim_ms"]),
        "rpc.calls_per_commit": per_commit(c["rpc.calls"]),
        "rpc.retries_frac": _ratio(c["rpc.retries"], c["rpc.calls"]),
        "rpc.call_sim_ms_p50": _median(s["rpc.call_sim_ms"]),
        "nameserver.lookups_per_commit": per_commit(c["nameserver.lookups"]),
        "nameserver.repeat_lookup_frac": _ratio(c["nameserver.repeat_lookups"],
                                                c["nameserver.lookups"]),
        "nameserver.sim_ms_per_commit": per_commit(c["nameserver.sim_ms"]),
        "locking.acquires_per_commit": per_commit(c["locking.acquires"]),
        "locking.wait_frac": _ratio(c["locking.waits"], c["locking.acquires"]),
        "locking.wait_sim_ms_per_commit":
            per_commit(c["locking.wait_sim_ms"]),
        "locking.timeout_frac": _ratio(c["locking.timeouts"],
                                       c["locking.acquires"]),
        "wal.appends_per_commit": per_commit(c["wal.appends"]),
        "wal.forces_per_commit": per_commit(c["wal.forces"]),
        "wal.records_per_force": _ratio(c["wal.appends"], c["wal.forces"]),
        "wal.queue_sim_ms_per_commit":
            per_commit(c["wal.force_sim_ms"] - c["wal.device_sim_ms"]),
        "wal.device_sim_ms_per_commit": per_commit(c["wal.device_sim_ms"]),
        "app.end_sim_ms_p50": _median(s["app.end_sim_ms"]),
        "txn.commit_frac": _ratio(c["txn.end_committed"], c["txn.end_calls"]),
        "servers.ops_per_commit": per_commit(c["servers.ops"]),
        "server.op_sim_ms_p50": _median(s["server.op_sim_ms"]),
        "replication.copies_per_write": _ratio(c["replication.copies"],
                                               c["replication.writes"]),
        "replication.read_failover_frac":
            _ratio(c["replication.read_failovers"], c["replication.reads"]),
        "replication.validation_abort_frac":
            _ratio(c["replication.validation_aborts"], c["txn.end_calls"]),
        "replication.catchup_pages": _ratio(c["replication.catchup_pages"], units),
        "replication.catchup_sim_ms": _ratio(c["replication.catchup_sim_ms"], units),
        "recovery.records_replayed": _ratio(c["recovery.records_replayed"], units),
        "recovery.recover_sim_ms": _ratio(c["recovery.recover_sim_ms"], units),
        "recovery.wall_ms": _ratio(w["recovery.self_s"] * 1000.0, units),
        "trace.unattributed_wall_frac": _ratio(unattributed, w["timed_s"]),
        "trace.spans": _ratio(c["spans"], units),
    }
    for layer in WALL_LAYERS:
        key = ("workloads.driver_wall_ms_per_commit" if layer == "workloads"
               else f"{layer}.wall_ms_per_commit")
        out[key] = wall_ms_per_commit(layer)
    return out


def _self_sim(span, children) -> float:
    """A span's simulated time minus the union its children cover."""
    covered, reach = 0.0, span.sim_start
    for child in sorted(children, key=lambda c: c.sim_start):
        start = max(child.sim_start, reach)
        end = min(child.sim_end, span.sim_end)
        if end > start:
            covered += end - start
            reach = end
    return span.sim_ms - covered


def write_spans(tracer, path: Path) -> None:
    """Write every span, with self time on both clocks, as gzipped CSV."""
    children: dict[int, list] = defaultdict(list)
    for span in tracer.spans:
        if span.parent is not None:
            children[span.parent.index].append(span)
    path.parent.mkdir(parents=True, exist_ok=True)
    with gzip.open(path, "wt", newline="") as handle:
        writer = csv.writer(handle)
        writer.writerow(["index", "name", "layer", "tid", "parent",
                         "wall_start_s", "wall_end_s", "sim_start_ms",
                         "sim_end_ms", "busy_wall_ms", "self_wall_ms",
                         "self_sim_ms", "error"])
        for span in tracer.spans:
            writer.writerow([
                span.index, span.name, span.layer,
                "" if span.tid is None else str(span.tid),
                "" if span.parent is None else span.parent.index,
                span.wall_start, span.wall_end, span.sim_start,
                span.sim_end, span.busy * 1000.0, span.self_wall * 1000.0,
                _self_sim(span, children[span.index]), span.error or ""])
