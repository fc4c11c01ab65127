"""The benchmark's two workloads, each one self-contained unit of work.

A unit is built from a seed (:meth:`Unit.build`, the set-up), driven
through the :data:`SEGMENTS` segments of its timed window
(:meth:`Unit.run_segment`), summarised on the simulated clock
(:meth:`Unit.sample`) and then audited (:meth:`Unit.check`).  The seed reaches the program only as generated
inputs: ``TabsConfig(seed=...)`` and the transaction, arrival and think-time
draws made here.
"""

from __future__ import annotations

import random

from repro.chaos import ChaosController, FaultPlan, crash_one_replica_per_shard
from repro.core.cluster import TabsCluster
from repro.core.config import (
    CommitConfig,
    ReplicationConfig,
    TabsConfig,
    WorkloadConfig,
)
from repro.replication.audit import audit_replica_convergence
from repro.sim import Timeout
from repro.workloads import DebitCreditWorkload
from repro.workloads.debitcredit import DebitCreditRecord, draw_spec

#: equal slices of a timed window, each timed on its own; a multiple of 4,
#: so that the window's quarters are whole runs of segments
SEGMENTS = 64


class TimedDebitCredit(DebitCreditWorkload):
    """DebitCredit traffic that stamps when each transaction was due and
    when it finished, on the simulated clock."""

    def _spawn(self, record: DebitCreditRecord) -> None:
        record.due_ms = self.engine.now
        super()._spawn(record)

    def _transaction(self, record: DebitCreditRecord):
        if not hasattr(record, "due_ms"):  # closed loop: due at begin
            record.due_ms = self.engine.now
        yield from super()._transaction(record)
        record.done_ms = self.engine.now

    def schedule_arrivals(self, window_ms: float, gap_ms: float) -> None:
        """Open loop at a fixed rate: one arrival every ``gap_ms`` over
        ``window_ms`` from a seeded phase, homes and specs drawn from this
        workload's seeded generator.

        A fixed rate keeps idle stretches of the offered load out of the
        commit-gap metric: a long gap is then the system stalling.
        """
        at_ms = gap_ms * self.rng.random()
        while at_ms < window_ms:
            home = self.rng.randrange(self.workload.branches)
            record = DebitCreditRecord(len(self.stats.records),
                                       draw_spec(self.rng, self.workload,
                                                 home))
            self.stats.records.append(record)
            self.engine.schedule(at_ms, self._spawn, args=(record,))
            at_ms += gap_ms


class Unit:
    """One workload run: set-up, a timed window in segments, audits."""

    #: simulated length of the offered window
    window_ms = 0.0

    def __init__(self, seed: int) -> None:
        self.seed = seed
        self.cluster: TabsCluster | None = None
        self.start_ms = 0.0

    @property
    def engine(self):
        return self.cluster.engine

    def build(self) -> None:
        raise NotImplementedError

    def start(self) -> None:
        """Begin offering traffic (the end of set-up)."""
        self.start_ms = self.engine.now

    def run_segment(self, index: int) -> None:
        self.engine.run(until=self.start_ms
                        + self.window_ms * (index + 1) / SEGMENTS)
        if index == SEGMENTS - 1:
            self.finish()

    def finish(self) -> None:
        """Let the traffic offered in the window complete."""
        self.cluster.settle()

    def records(self) -> list:
        raise NotImplementedError

    def sample(self) -> dict:
        """Simulated-clock outcome of the timed window."""
        end_ms = self.start_ms + self.window_ms
        outcomes: dict[str, int] = {}
        latencies, commits = [], []
        for record in self.records():
            outcomes[record.outcome] = outcomes.get(record.outcome, 0) + 1
            if record.outcome == "committed":
                latencies.append(record.done_ms - record.due_ms)
                if record.done_ms <= end_ms:
                    commits.append(record.done_ms)
        commits.sort()
        points = [self.start_ms, *commits, end_ms]
        return {
            "window_ms": self.window_ms,
            "offered": sum(outcomes.values()),
            "outcomes": dict(sorted(outcomes.items())),
            "committed": outcomes.get("committed", 0),
            "committed_in_window": len(commits),
            "latencies_ms": latencies,
            "max_gap_ms": max(b - a for a, b in zip(points, points[1:])),
        }

    def commits_by(self, sim_ms: float) -> int:
        return sum(1 for record in self.records()
                   if record.outcome == "committed"
                   and record.done_ms <= sim_ms)

    def check(self) -> list[tuple[str, bool, str]]:
        raise NotImplementedError


def _audit(name: str, report) -> tuple[str, bool, str]:
    return (name, report.ok,
            "; ".join(f"{v.kind}: {v.detail}" for v in report.violations[:5]))


class HotRowGrouped(Unit):
    """16 closed-loop clients on 8 co-hosted branches, grouped commit.

    Each client thinks for a seeded exponential time before each
    transaction.  Without it every client would re-issue in lock step
    with the group-commit batches, and most latencies would be one exact
    value.
    """

    window_ms = 15_000.0
    clients = 16
    mean_think_ms = 50.0
    schema = WorkloadConfig(branches=8, branches_per_node=8,
                            accounts_per_branch=1_000)

    def build(self) -> None:
        config = TabsConfig(seed=self.seed, commit=CommitConfig.grouped(),
                            workload=self.schema)
        self.cluster = TabsCluster(config)
        self.topology = self.cluster.build_workload()
        self.driver = TimedDebitCredit(self.cluster, self.topology,
                                       seed=self.seed)

    def start(self) -> None:
        super().start()
        deadline = self.start_ms + self.window_ms
        for index in range(self.clients):
            home = self.topology.client_home(index)
            rng = random.Random(self.seed * 1_000_003 + index)
            self.cluster.spawn_on(self.topology.node_name(home),
                                  self._client(rng, home, deadline),
                                  name=f"client{index}")

    def _client(self, rng: random.Random, home: int, deadline: float):
        records = self.driver.stats.records
        while self.engine.now < deadline:
            yield Timeout(self.engine, rng.expovariate(1 / self.mean_think_ms))
            if self.engine.now >= deadline:
                return
            record = DebitCreditRecord(
                len(records), draw_spec(rng, self.schema, home))
            records.append(record)
            yield from self.driver._transaction(record)

    def records(self) -> list:
        return self.driver.stats.records

    def check(self):
        self.driver.crash_and_recover_all()
        return [_audit("debitcredit invariants",
                       self.driver.check_invariants())]


class RollingCrash(Unit):
    """rf=2 available copies, 2 branches over 2 nodes, fixed-rate arrivals,
    while one replica of every shard crashes in turn; then repair and
    quiesce.

    Every 60 s cycle of the window replays the availability bench's
    rolling plan for a 60 s run: one crash per shard at 15% and 60% of
    the cycle, each node down for 20% of it.
    """

    window_ms = 120_000.0
    arrival_gap_ms = 1_000.0
    cycle_ms = 60_000.0
    schema = WorkloadConfig(branches=2, accounts_per_branch=200,
                            tellers_per_branch=4, locality=0.3)

    def build(self) -> None:
        config = TabsConfig(seed=self.seed, workload=self.schema,
                            replication=ReplicationConfig.available_copies())
        self.cluster = TabsCluster(config)
        self.topology = self.cluster.build_workload()
        cycle = self.cycle_ms
        actions = []
        for start in range(0, int(self.window_ms), int(cycle)):
            actions += crash_one_replica_per_shard(
                self.cluster.placement, at_ms=start + 0.15 * cycle,
                restart_after_ms=0.20 * cycle, stagger_ms=0.45 * cycle)
        self.chaos = ChaosController(self.cluster, FaultPlan(tuple(actions)),
                                     seed=self.seed)
        self.driver = TimedDebitCredit(self.cluster, self.topology,
                                       controller=self.chaos, seed=self.seed)

    def start(self) -> None:
        self.chaos.install()
        super().start()
        self.driver.schedule_arrivals(self.window_ms, self.arrival_gap_ms)

    def finish(self) -> None:
        self.chaos.repair_all()
        self.quiet = self.chaos.quiesce()

    def records(self) -> list:
        return self.driver.stats.records

    def check(self):
        """Money conservation, history == committed, atomicity, and
        single-copy serializability: every replica agrees on every cell."""
        report = self.driver.check_invariants(quiet=self.quiet)
        report.extend(audit_replica_convergence(self.cluster))
        return [_audit("debitcredit invariants and replica convergence",
                       report)]


WORKLOADS = {
    "hot_row_grouped": HotRowGrouped,
    "rolling_crash": RollingCrash,
}
