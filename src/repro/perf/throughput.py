"""Throughput measurement -- the Section 7 future-work methodology.

The paper's microscopic analysis predicts *latency* under no load and
explicitly defers throughput ("we would like to develop a performance
methodology for measuring and predicting throughput").  This module adds
the measuring half: N concurrent applications run update transactions
against one node for a fixed window of simulated time, and the harness
reports committed transactions per second and physical log forces per
commit.

Two workload shapes expose the first-order locking effect:

- **disjoint**: every application writes its own cell.  Nothing conflicts;
  throughput scales with concurrency until the log device saturates.
- **shared**: every application writes the same cell.  Two-phase locking
  serializes the writers; added concurrency buys nothing.

:func:`compare_pipelines` runs the same multi-client workload under the
``paper`` commit pipeline (one log force per commit record) and the
``grouped`` pipeline (group commit + coalesced 2PC datagrams), both over
a *serial* log device -- one force in flight at a time, which is what a
real log disk does.  Under that device model the paper pipeline saturates
at 1000/79 ms ≈ 12.7 commits/second however many clients run, while group
commit amortizes one force over every commit in the window: committed
transactions per second keep scaling and forces-per-commit drop below 1.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

from repro.core.cluster import TabsCluster
from repro.core.config import CommitConfig, TabsConfig
from repro.errors import TabsError
from repro.servers.int_array import IntegerArrayServer
from repro.sim import Timeout


@dataclass
class ThroughputResult:
    concurrency: int
    workload: str
    duration_ms: float
    committed: int
    aborted: int
    #: physical log forces performed during the window
    forces: int = 0
    #: which commit pipeline produced this result
    pipeline: str = "paper"

    @property
    def commits_per_second(self) -> float:
        return self.committed / (self.duration_ms / 1000.0)

    @property
    def forces_per_commit(self) -> float:
        return self.forces / self.committed if self.committed else 0.0


def run_throughput(concurrency: int, workload: str = "disjoint",
                   duration_ms: float = 60_000.0,
                   config: TabsConfig | None = None,
                   commit: CommitConfig | None = None,
                   instrument: Callable[[TabsCluster], None] | None = None,
                   ) -> ThroughputResult:
    """Measure committed transactions/second at a given concurrency.

    ``commit`` overrides the commit-pipeline configuration of ``config``
    (or of a default config) -- the sweep harnesses use it to hold every
    other knob fixed while swapping pipelines.  ``instrument`` (if given)
    receives the started cluster before the workers spawn, mirroring
    ``run_benchmark`` -- the observability harnesses use it to enable
    tracing or profiling.
    """
    if workload not in ("disjoint", "shared"):
        raise ValueError(f"unknown workload {workload!r}")
    base = config or TabsConfig()
    if commit is not None:
        base = base.with_(commit=commit)
    cluster = TabsCluster(base)
    cluster.add_node("n1")
    cluster.add_server("n1", IntegerArrayServer.factory("array"))
    cluster.start()
    if instrument is not None:
        instrument(cluster)
    forces_before = cluster.nodes["n1"].rm.wal.forces

    committed = [0]
    aborted = [0]
    deadline = cluster.engine.now + duration_ms

    def worker(index: int):
        app = cluster.application("n1")
        ref = yield from app.lookup_one("array")
        cell = 1 if workload == "shared" else index + 1
        iteration = 0
        while cluster.engine.now < deadline:
            iteration += 1
            tid = yield from app.begin_transaction()
            try:
                yield from app.call(ref, "set_cell",
                                    {"cell": cell, "value": iteration},
                                    tid)
            except TabsError:
                yield from app.abort_transaction(tid)
                aborted[0] += 1
                continue
            ok = yield from app.end_transaction(tid)
            if ok and cluster.engine.now <= deadline:
                committed[0] += 1
            elif not ok:
                aborted[0] += 1

    workers = [cluster.spawn_on("n1", worker(index), name=f"app{index}")
               for index in range(concurrency)]

    def sentinel():
        # Keeps time advancing even if every worker blocks on a lock.
        yield Timeout(cluster.engine, duration_ms)

    cluster.spawn_on("n1", sentinel(), name="sentinel")
    for process in workers:
        cluster.engine.run_until(process)
    forces = cluster.nodes["n1"].rm.wal.forces - forces_before
    return ThroughputResult(concurrency=concurrency, workload=workload,
                            duration_ms=duration_ms,
                            committed=committed[0], aborted=aborted[0],
                            forces=forces,
                            pipeline=base.commit.pipeline)


#: the two pipeline configurations compared by :func:`compare_pipelines`;
#: both run over a serial log device so only the pipeline differs
PIPELINE_CONFIGS: dict[str, CommitConfig] = {
    "paper": CommitConfig(serial_log_device=True),
    "grouped": CommitConfig.grouped(),
}


def compare_pipelines(concurrencies: list[int],
                      workload: str = "disjoint",
                      duration_ms: float = 30_000.0,
                      workers: int = 1,
                      ) -> dict[str, list[ThroughputResult]]:
    """The group-commit study: both pipelines, same serial log device.

    Both pipelines' cells go into one flat fan-out (a single pool ride),
    then are split back per pipeline -- the result is identical to the
    sequential nested loops for any ``workers``.
    """
    from repro.perf.runner import run_cells, sweep_cells

    names = list(PIPELINE_CONFIGS)
    cells = [cell for name in names
             for cell in sweep_cells(
                 "throughput", concurrencies, workload=workload,
                 duration_ms=duration_ms, commit=PIPELINE_CONFIGS[name])]
    results = run_cells(cells, workers=workers)
    step = len(concurrencies)
    return {name: results[i * step:(i + 1) * step]
            for i, name in enumerate(names)}
