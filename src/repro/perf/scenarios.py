"""The scenario registry: every runnable experiment, by name.

A scenario is a module-level function ``run(params, seed, instrument)``
that builds a cluster, drives it and returns a picklable result:

- ``params`` is the scenario's :attr:`Scenario.defaults` overridden by
  the caller (a :class:`~repro.perf.runner.Cell`'s parameters);
- ``instrument`` (or None) receives the cluster before the traffic
  starts -- the hook ``trace``, ``metrics`` and ``profile`` use to turn
  the flight recorder or the profiler on, and the benches use to read
  the engine's churn counters afterwards;
- the result may cross a process boundary in a parallel sweep, so it is
  a plain dict or a perf result dataclass, never the live cluster.

:data:`SCENARIOS` is the one table that the ``trace``/``metrics``/
``profile``/``sweep`` CLI targets, the :mod:`repro.perf.runner` cells and
the ``benchmarks/`` runs are drawn from: the fourteen Section 5
benchmark keys, the canned ``chaos`` plan and the random-plan
``chaos_soak``, the closed-loop ``throughput`` and ``debitcredit``
drivers, and the rf=2 DebitCredit family -- fault-free ``replicated``,
rolling replica crashes (``availability``) and a live join plus shard
migration (``reconfig``).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import partial
from typing import Callable

from repro.chaos import (
    ChaosController,
    ChaosWorkload,
    CrashAt,
    FaultPlan,
    LinkFaultWindow,
    PartitionAt,
    crash_one_replica_per_shard,
    random_plan,
)
from repro.chaos.workload import build_cluster
from repro.core.cluster import TabsCluster
from repro.core.config import (
    ReconfigConfig,
    ReplicationConfig,
    TabsConfig,
    WorkloadConfig,
)
from repro.perf.benchmarks import BENCHMARKS, run_benchmark
from repro.perf.debitcredit import run_debitcredit
from repro.perf.throughput import run_throughput
from repro.reconfig import ReconfigManager
from repro.workloads import DebitCreditWorkload

Instrument = Callable[[TabsCluster], None] | None


@dataclass(frozen=True)
class Scenario:
    """One registry entry: a run function plus its parameter defaults."""

    run: Callable[[dict, int, Instrument], object]
    #: the parameters a caller may leave out; the CLI's ``--iterations``,
    #: ``--duration-ms`` and ``--workload`` reach a scenario only through
    #: these names (a run may also read optional overrides with ``get``)
    defaults: dict = field(default_factory=dict)
    #: the parameter ``sweep --counts`` fans over (None: one cell per seed)
    count: str | None = None


def _paper(spec, params: dict, seed: int, instrument: Instrument):
    """One Section 5 benchmark transaction, repeated under no load."""
    return run_benchmark(spec, TabsConfig(seed=seed),
                         iterations=params["iterations"],
                         instrument=instrument)


def _throughput(params: dict, seed: int, instrument: Instrument):
    """Closed-loop ``set_cell`` writers on one node (optional ``commit``)."""
    return run_throughput(params["concurrency"],
                          workload=params["workload"],
                          duration_ms=params["duration_ms"],
                          config=TabsConfig(seed=seed),
                          commit=params.get("commit"),
                          instrument=instrument)


def _debitcredit(params: dict, seed: int, instrument: Instrument):
    """Closed-loop DebitCredit clients.  Optional overrides: ``config`` (a
    whole TabsConfig, which then supplies the seed), ``commit``,
    ``workload``."""
    return run_debitcredit(params["clients"],
                           duration_ms=params["duration_ms"],
                           config=params.get("config") or TabsConfig(seed=seed),
                           commit=params.get("commit"),
                           workload=params.get("workload"),
                           instrument=instrument)


# -- chaos: transfer/queue traffic under a fault plan, then every audit -------

#: the canned plan: a crash, a partition and a lossy link -- the failure
#: detection, aborts, session breaks and crash-recovery replay the flight
#: recorder exists to show
CHAOS_PLAN = FaultPlan.of(
    CrashAt(350.0, "n1", restart_after_ms=450.0),
    PartitionAt(1_000.0, (("n0",), ("n1", "n2")), heal_after_ms=500.0),
    LinkFaultWindow(1_800.0, 2_600.0, "n0", "n2", loss=0.3,
                    duplicate=0.2, reorder=0.2))


def _chaos_run(plan: FaultPlan, node_count: int, params: dict, seed: int,
               instrument: Instrument) -> dict:
    cluster = build_cluster(node_count, seed=seed)
    if instrument is not None:
        instrument(cluster)
    controller = ChaosController(cluster, plan, seed=seed)
    workload = ChaosWorkload(cluster, controller, seed=seed)
    workload.setup()
    controller.install()
    workload.schedule_traffic(transfers=params["transfers"])
    workload.run(params["run_ms"])
    quiet = workload.finale()
    report = workload.check_invariants(quiet=quiet)
    return {
        "seed": seed,
        "quiet": quiet,
        "ok": report.ok,
        "violations": sorted(str(v) for v in report.violations),
        "trace_events": len(controller.trace),
        "events_executed": cluster.engine.events_executed,
    }


def _chaos(params: dict, seed: int, instrument: Instrument) -> dict:
    """:data:`CHAOS_PLAN` on three nodes."""
    return _chaos_run(CHAOS_PLAN, 3, params, seed, instrument)


def _chaos_soak(params: dict, seed: int, instrument: Instrument) -> dict:
    """A seeded random fault plan: one cell of a soak fleet."""
    nodes = [f"n{i}" for i in range(params["node_count"])]
    plan = random_plan(seed=seed, nodes=nodes,
                       duration_ms=params["plan_ms"],
                       episodes=params["episodes"])
    return _chaos_run(plan, len(nodes), params, seed, instrument)


# -- the rf=2 DebitCredit family ------------------------------------------------

#: two branches sharded over two nodes, every shard on both; 70% of the
#: account traffic is remote, so most transactions fan writes out
REPLICATED_WORKLOAD = WorkloadConfig(branches=2, accounts_per_branch=200,
                                     tellers_per_branch=4, locality=0.3)
REPLICATION = ReplicationConfig.available_copies()
RECONFIG = ReconfigConfig.online()
#: mean spacing of the family's open-loop arrivals
SPACING_MS = 300.0
#: the live migration starts this far into the run -- late enough that
#: the steady-state TPS is established, early enough that the copy, the
#: barrier drop, and both epoch bumps land well inside the window
MIGRATE_AT_FRACTION = 0.35


def _replicated_cluster(seed: int, instrument: Instrument,
                        **config) -> tuple[TabsCluster, object]:
    cluster = TabsCluster(TabsConfig(seed=seed, workload=REPLICATED_WORKLOAD,
                                     replication=REPLICATION, **config))
    topology = cluster.build_workload()
    if instrument is not None:
        instrument(cluster)
    return cluster, topology


def _traffic(driver: DebitCreditWorkload, duration_ms: float) -> int:
    offered = int(duration_ms / SPACING_MS)
    driver.schedule_traffic(txns=offered, spacing_ms=SPACING_MS)
    return offered


def _outcomes(driver: DebitCreditWorkload, offered: int,
              duration_ms: float) -> dict:
    outcomes = driver.stats.outcomes()
    fields = {"offered": offered}
    for outcome in ("committed", "aborted", "skipped", "unknown"):
        fields[outcome] = outcomes.get(outcome, 0)
    fields["tps"] = round(fields["committed"] / (duration_ms / 1000.0), 3)
    return fields


def _counter_sum(cluster: TabsCluster, name: str) -> int:
    return sum(counter.value for (node, metric), counter
               in cluster.metrics.counters().items() if metric == name)


def max_commit_gap(commit_times: list[float], start_ms: float,
                   end_ms: float) -> float:
    """The longest stretch of the traffic window ``[start_ms, end_ms]``
    with no commit anywhere in the cluster.  Commits outside the window
    (the finale's) do not count."""
    inside = sorted(t for t in commit_times if start_ms <= t <= end_ms)
    points = [start_ms, *inside, end_ms]
    return max(later - earlier for earlier, later in zip(points, points[1:]))


def _replicated(params: dict, seed: int, instrument: Instrument) -> dict:
    """Fault-free rf=2 DebitCredit, drained to quiescence."""
    cluster, topology = _replicated_cluster(seed, instrument)
    driver = DebitCreditWorkload(cluster, topology, seed=seed)
    offered = _traffic(driver, params["duration_ms"])
    driver.run(params["duration_ms"])
    driver.drain()
    return _outcomes(driver, offered, params["duration_ms"])


def _degraded(params: dict, seed: int, instrument: Instrument,
              migrate: bool) -> dict:
    """rf=2 DebitCredit through one fault: a seeded rolling plan that
    crashes one replica of every shard in turn (stagger wider than the
    restart window, so no shard loses both copies at once), or -- with
    ``migrate`` -- a third node joining the running cluster and one
    account shard migrating onto it.  A chaos controller records the
    commits; the run ends with the repair-and-recover finale and every
    audit, and reports the longest commit gap."""
    duration_ms = params["duration_ms"]
    cluster, topology = _replicated_cluster(
        seed, instrument, **({"reconfig": RECONFIG} if migrate else {}))
    migrations: list = []
    if migrate:
        manager = ReconfigManager(cluster, "bank0")
        manager.join("bank2")  # live join; hosts nothing until the migration
        fault = {"migrate_at_ms": MIGRATE_AT_FRACTION * duration_ms,
                 "keyspace": topology.account_server(1)}
        cluster.engine.schedule(
            fault["migrate_at_ms"],
            lambda: migrations.append(manager.spawn_migration(
                fault["keyspace"], "bank0", "bank2")))
        # No faults: the controller rides along purely for its commit trace.
        plan = FaultPlan(())
    else:
        plan = FaultPlan(crash_one_replica_per_shard(
            cluster.placement, at_ms=0.15 * duration_ms,
            restart_after_ms=0.20 * duration_ms,
            stagger_ms=0.45 * duration_ms))
        fault = {"plan": [{"node": action.node, "at_ms": action.at_ms,
                           "restart_after_ms": action.restart_after_ms}
                          for action in plan]}
    controller = ChaosController(cluster, plan, seed=seed)
    controller.install()
    driver = DebitCreditWorkload(cluster, topology, controller=controller,
                                 seed=seed)
    offered = _traffic(driver, duration_ms)
    # Traffic starts now (after boot and any live join), not at 0.
    window = (cluster.engine.now, cluster.engine.now + duration_ms)
    driver.run(duration_ms)
    quiet = driver.finale()
    report = driver.check_invariants(quiet=quiet)

    commit_times = [event[0] for event in controller.trace
                    if event[1] == "txn" and event[4] == "committed"]
    if migrate:
        events = [[round(t, 1), phase] for t, phase, *_ in manager.events]
        evidence = {
            "migration_committed": migrations[0].result is True,
            "migration_events": events,
            "placement_epoch": cluster.placement_epoch,
            "final_replicas": list(
                cluster.placement.replicas(fault["keyspace"])),
            "copy_chunks": sum(1 for _, phase in events if phase == "copy"),
            "epoch_installs": _counter_sum(cluster,
                                           "reconfig.epoch_installs"),
        }
    else:
        evidence = {
            "read_failovers": _counter_sum(cluster,
                                           "replication.read_failover"),
            "degraded_writes": _counter_sum(
                cluster, "replication.write_all_degraded"),
        }
    return {
        "duration_ms": duration_ms,
        **fault,
        **_outcomes(driver, offered, duration_ms),
        "max_commit_gap_ms": round(
            max_commit_gap(commit_times, *window), 3),
        **evidence,
        "validation_aborts": _counter_sum(cluster,
                                          "replication.validation_abort"),
        "catchup_pages": _counter_sum(cluster, "replica.catchup_pages"),
        "audits_ok": report.ok,
        "violations": [v.kind for v in report.violations],
    }


SCENARIOS: dict[str, Scenario] = {
    **{spec.key: Scenario(partial(_paper, spec), {"iterations": 3})
       for spec in BENCHMARKS},
    "chaos": Scenario(_chaos, {"transfers": 10, "run_ms": 4_000.0}),
    "chaos_soak": Scenario(_chaos_soak, {
        "node_count": 3, "transfers": 24, "episodes": 5,
        "plan_ms": 8_000.0, "run_ms": 10_000.0}),
    "throughput": Scenario(_throughput, {
        "concurrency": 1, "workload": "disjoint", "duration_ms": 60_000.0},
        count="concurrency"),
    "debitcredit": Scenario(_debitcredit, {
        "clients": 1, "duration_ms": 30_000.0}, count="clients"),
    "replicated": Scenario(_replicated, {"duration_ms": 10_000.0}),
    "availability": Scenario(partial(_degraded, migrate=False),
                             {"duration_ms": 24_000.0}),
    "reconfig": Scenario(partial(_degraded, migrate=True),
                         {"duration_ms": 24_000.0}),
}
