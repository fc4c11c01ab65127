"""Span tracing for the benchmark's traced run, installed from outside ``src``.

:func:`install` wraps the public entry points of each ``repro`` layer on
their classes or modules before a cluster is built.  Every wrapped call
becomes a span carrying its name, its layer, the transaction it acts for,
its parent span, wall start and end, simulated start and end, and its busy
wall time.  Generator entry points are timed at every resumption, so a
span's busy time is the wall time spent inside it, not the wall time
between its first and last resumption.

The wrappers are passive: they yield exactly what the wrapped generator
yields, forward every send, throw and close, draw no randomness and
schedule nothing, so a traced run replays the untraced run's simulated
history.  The benchmark checks that by comparing the two runs' digests.
"""

from __future__ import annotations

import inspect
from time import perf_counter

from repro.kernel.messages import Message
from repro.txn.ids import TransactionID


class Span:
    __slots__ = ("index", "name", "layer", "tid", "parent", "wall_start",
                 "wall_end", "sim_start", "sim_end", "busy", "child_busy",
                 "resumes", "error", "result")

    def __init__(self, index, name, layer, tid, parent, wall, sim):
        self.index = index
        self.name = name
        self.layer = layer
        self.tid = tid
        self.parent = parent
        self.wall_start = self.wall_end = wall
        self.sim_start = self.sim_end = sim
        self.busy = 0.0
        self.child_busy = 0.0
        self.resumes = 0
        self.error = None
        self.result = None

    @property
    def sim_ms(self) -> float:
        return self.sim_end - self.sim_start

    @property
    def self_wall(self) -> float:
        return self.busy - self.child_busy


def _tid_of(args, kwargs, parent):
    for value in (*args, *kwargs.values()):
        if isinstance(value, TransactionID):
            return value
        if isinstance(value, Message):
            tid = value.tid if value.tid is not None else value.body.get("tid")
            if tid is not None:
                return tid
    return parent.tid if parent is not None else None


class Tracer:
    """Keeps spans and counts in memory while :attr:`active` is set."""

    def __init__(self) -> None:
        self.active = False
        self.spans: list[Span] = []
        self.stack: list[Span] = []
        self.counts: dict[str, int] = {}
        #: wall seconds spent inside an outermost span (the rest of the
        #: timed wall is the event loop and unwrapped callbacks)
        self.covered = 0.0
        #: (sim ms, node) of every crash, and (sim ms, peer) of every
        #: failure-detector suspicion, while active
        self.crashes: list[tuple[float, str]] = []
        self.suspects: list[tuple[float, str]] = []
        #: name lookups already resolved, to count repeats
        self.lookups_seen: set[tuple] = set()
        self.now = lambda: 0.0

    # -- recording -------------------------------------------------------------

    def count(self, key: str, amount: int = 1) -> None:
        if self.active:
            self.counts[key] = self.counts.get(key, 0) + amount

    def _open(self, name, layer, args, kwargs) -> Span:
        stack = self.stack
        parent = stack[-1] if stack else None
        span = Span(len(self.spans), name, layer,
                    _tid_of(args, kwargs, parent), parent, perf_counter(),
                    self.now())
        self.spans.append(span)
        return span

    def _timed(self, span, fn, arg):
        stack = self.stack
        outer = stack[-1] if stack else None
        stack.append(span)
        started = perf_counter()
        try:
            return fn(arg)
        finally:
            ended = perf_counter()
            stack.pop()
            elapsed = ended - started
            span.busy += elapsed
            span.resumes += 1
            span.wall_end = ended
            span.sim_end = self.now()
            if outer is None:
                self.covered += elapsed
            else:
                outer.child_busy += elapsed

    def _traced_generator(self, gen, name, layer, args, kwargs, on_end):
        span = self._open(name, layer, args, kwargs)
        value, error = None, None
        while True:
            try:
                if error is None:
                    target = self._timed(span, gen.send, value)
                else:
                    target = self._timed(span, gen.throw, error)
            except StopIteration as stop:
                span.result = stop.value
                if on_end is not None:
                    on_end(self, span, args, kwargs)
                return stop.value
            except BaseException as exc:
                span.error = type(exc).__name__
                if on_end is not None:
                    on_end(self, span, args, kwargs)
                raise
            try:
                value, error = (yield target), None
            except GeneratorExit:
                span.error = "GeneratorExit"
                gen.close()
                raise
            except BaseException as exc:  # forwarded like ``yield from``
                value, error = None, exc

    # -- installation ----------------------------------------------------------

    def wrap(self, owner, attr: str, name: str, layer: str,
             on_end=None) -> None:
        """Replace ``owner.attr`` with a span-recording wrapper.

        ``on_end(tracer, span, args, kwargs)`` runs when the span
        finishes, for counts that need the call's arguments or result.
        """
        original = owner.__dict__[attr] if isinstance(owner, type) \
            else getattr(owner, attr)
        is_generator_function = inspect.isgeneratorfunction(original)
        tracer = self

        def wrapper(*args, **kwargs):
            if not tracer.active:
                return original(*args, **kwargs)
            if is_generator_function:
                inner = original(*args, **kwargs)
                traced = tracer._traced_generator(inner, name, layer, args,
                                                  kwargs, on_end)
                # Process names default to the generator's name.
                traced.__name__ = inner.__name__
                traced.__qualname__ = inner.__qualname__
                return traced
            span = tracer._open(name, layer, args, kwargs)
            try:
                span.result = tracer._timed(
                    span, lambda _: original(*args, **kwargs), None)
            except BaseException as exc:
                span.error = type(exc).__name__
                raise
            finally:
                if on_end is not None:
                    on_end(tracer, span, args, kwargs)
            return span.result

        setattr(owner, attr, wrapper)

    def count_calls(self, owner, attr: str, key: str) -> None:
        """Replace ``owner.attr`` with a wrapper that only counts calls."""
        original = owner.__dict__[attr]
        tracer = self

        def wrapper(*args, **kwargs):
            if tracer.active:
                tracer.counts[key] = tracer.counts.get(key, 0) + 1
            return original(*args, **kwargs)

        setattr(owner, attr, wrapper)


# -- the layer map ----------------------------------------------------------------


def _lookup_end(tracer, span, args, kwargs):
    # (asking node, name, node hint): a repeat could have been cached
    hint = args[2] if len(args) > 2 else kwargs.get("node_name", "")
    key = (args[0].node.name, args[1], hint)
    if key in tracer.lookups_seen:
        tracer.count("nameserver.repeat_lookups")
    tracer.lookups_seen.add(key)


def _datagram_end(tracer, span, args, kwargs):
    if args[2].body.get("service") != "failure_detector":
        tracer.count("comm.datagrams")


def _crash_end(tracer, span, args, kwargs):
    tracer.crashes.append((span.sim_start, args[0].name))


def _recovery_end(tracer, span, args, kwargs):
    report = span.result
    if report is not None:
        tracer.count("recovery.records_replayed",
                     report.values_restored + report.operations_redone
                     + report.operations_undone)


def _end_txn_end(tracer, span, args, kwargs):
    if span.result is True:
        tracer.count("txn.end_committed")


def install(tracer: Tracer) -> None:
    """Wrap each layer's public entry points (call before building)."""
    import repro.core.facility as facility
    import repro.replication.catchup as catchup
    import repro.rpc.stubs as stubs
    import repro.wal.store as store
    from repro.app.library import ApplicationLibrary
    from repro.comm.manager import CommunicationManager
    from repro.comm.network import Network
    from repro.core.facility import TabsNode
    from repro.kernel.disk import Disk
    from repro.kernel.node import Node
    from repro.kernel.ports import Port
    from repro.kernel.vm import VirtualMemory
    from repro.locking.manager import LockManager
    from repro.nameserver.library import NameServerLibrary
    from repro.replication.router import ReplicatedApp
    from repro.server.library import DataServerLibrary
    from repro.servers.base import BaseDataServer
    from repro.sim.engine import Engine
    from repro.txn.manager import TransactionManager
    from repro.wal.log import WriteAheadLog
    from repro.workloads import DebitCreditWorkload

    wrap = tracer.wrap
    # sim: the engine is counted, not spanned -- its time is what the
    # spans leave uncovered
    tracer.count_calls(Engine, "schedule_now", "sim.schedule_now")
    # kernel: ports, messages, paging
    wrap(Port, "send", "kernel.port_send", "kernel")
    tracer.count_calls(Node, "register_port", "kernel.ports_registered")
    tracer.count_calls(Node, "release_port", "kernel.ports_released")
    wrap(VirtualMemory, "ensure_resident", "kernel.ensure_resident",
         "kernel")
    wrap(Disk, "read_page", "kernel.disk_read", "kernel")
    wrap(Disk, "write_page", "kernel.disk_write", "kernel")
    # comm
    wrap(Network, "deliver_datagram", "comm.deliver_datagram", "comm",
         on_end=_datagram_end)
    wrap(CommunicationManager, "deliver_inbound_datagram",
         "comm.deliver_inbound", "comm")
    wrap(CommunicationManager, "_forward_inbound", "comm.forward_inbound",
         "comm")
    # rpc
    wrap(stubs, "call", "rpc.call", "rpc")
    # nameserver
    wrap(NameServerLibrary, "lookup", "nameserver.lookup", "nameserver",
         on_end=_lookup_end)
    # locking
    wrap(LockManager, "lock", "locking.lock", "locking")
    # wal: spool, force, the physical device write, and the codec
    wrap(WriteAheadLog, "append", "wal.append", "wal")
    wrap(WriteAheadLog, "force", "wal.force", "wal")
    wrap(WriteAheadLog, "physical_force", "wal.physical_force", "wal")
    wrap(store, "encode_record", "wal.encode", "wal")
    wrap(store, "frame_checksum", "wal.crc", "wal")
    # app / txn
    wrap(ApplicationLibrary, "begin_transaction", "app.begin", "app")
    wrap(ApplicationLibrary, "end_transaction", "app.end", "app",
         on_end=_end_txn_end)
    for attr in sorted(vars(TransactionManager)):
        if attr.startswith("_handle_"):
            wrap(TransactionManager, attr, "txn." + attr[len("_handle_"):],
                 "txn")
    # server library / data servers
    wrap(DataServerLibrary, "_serve_traced", "server.op", "server")
    wrap(BaseDataServer, "dispatch", "servers.dispatch", "servers")
    # replication
    wrap(ReplicatedApp, "read", "replication.read", "replication")
    wrap(ReplicatedApp, "write_all", "replication.write_all", "replication")
    wrap(catchup, "catchup_server", "replication.catchup", "replication")
    # recovery
    wrap(facility, "recover_node", "recovery.recover_node", "recovery",
         on_end=_recovery_end)
    # the workload drivers (harness cost, kept apart from system cost)
    wrap(DebitCreditWorkload, "_transaction", "workloads.debitcredit",
         "workloads")
    # the fault injector, only to time detection from each crash
    wrap(TabsNode, "crash", "faults.crash", "faults", on_end=_crash_end)
