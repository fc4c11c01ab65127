"""The discrete-event simulation loop.

Time is a float measured in *milliseconds* to match the units of the paper's
Table 5-1 primitive-operation times.  Callbacks run in ``(time, seq)``
order: earliest first, and FIFO in schedule order among callbacks due at
the same instant.

Two containers hold the pending callbacks:

- a binary heap of ``(time, seq, callback, args, daemon)`` entries due at
  a *later* instant than the one they were scheduled at;
- a FIFO lane (a deque) of ``(callback, args, daemon)`` entries due at
  exactly the current instant -- every ``schedule_now``, and every
  ``schedule`` whose delay leaves ``now + delay == now``.

The loop pops heap entries due at ``now`` first, then the lane, then the
heap front.  That is the exact ``(time, seq)`` order: a heap entry due at
instant *t* was scheduled before the clock reached *t*, so its ``seq`` is
lower than that of every lane entry at *t*; and the lane is empty
before the clock moves on.

Daemon entries are background housekeeping -- failure-detector probe ticks,
mainly -- that must never keep the simulation "busy": ``run()``, ``drain()``
and ``run_until()`` treat the queue as quiescent once only daemon entries
remain, exactly as daemon threads do not keep a process alive.  While real
work is in flight, daemon entries execute normally and interleave
deterministically with it.
"""

from __future__ import annotations

from collections import deque
from heapq import heappop as _heappop, heappush as _heappush
from typing import Callable

from repro.errors import SimulationError

#: the shared empty argument tuple for argument-free callbacks
_NO_ARGS: tuple = ()
_FOREVER = float("inf")


class Engine:
    """A deterministic event loop with a simulated millisecond clock."""

    def __init__(self) -> None:
        self._now = 0.0
        self._heap: list[tuple] = []
        self._lane: deque[tuple] = deque()
        self._seq = 0
        #: queued entries that are *not* daemons; quiescence means zero
        self._real = 0
        self._running = False
        #: fabric churn accounting -- always on (plain integer bumps), read
        #: by the sim-speed meta-benchmark and the profiler snapshot.  Kept
        #: off the metrics registry so its snapshot (golden-hashed by the
        #: determinism suite) is unchanged.  ``heap_high_water`` counts
        #: lane plus heap entries.
        self.events_scheduled = 0
        self.daemon_scheduled = 0
        self.events_executed = 0
        self.daemon_executed = 0
        self.heap_high_water = 0
        #: wall-clock profiler (:class:`repro.obs.profile.SimProfiler`) or
        #: None; the loop guards on it so the disabled path costs one
        #: attribute check, mirroring ``ctx.tracer``
        self.profiler = None

    @property
    def now(self) -> float:
        """Current simulated time in milliseconds."""
        return self._now

    def schedule(self, delay: float, callback: Callable[..., None],
                 daemon: bool = False, args: tuple = _NO_ARGS) -> None:
        """Run ``callback(*args)`` after ``delay`` milliseconds of simulated
        time.

        ``args`` lets hot callers schedule a bound method plus arguments
        instead of allocating a closure per event.  A ``daemon`` entry never
        counts toward quiescence: ``run()`` with no deadline, ``drain()``
        and ``run_until()`` all ignore it when deciding whether the
        simulation has gone quiet.
        """
        if delay < 0:
            raise SimulationError(f"cannot schedule into the past (delay={delay})")
        now = self._now
        time = now + delay
        # ``==``, not ``delay == 0``: a tiny delay added to a large clock
        # can leave the time unchanged, and such an entry is due now.
        if time == now:
            self._lane.append((callback, args, daemon))
        else:
            seq = self._seq
            self._seq = seq + 1
            _heappush(self._heap, (time, seq, callback, args, daemon))
        self.events_scheduled += 1
        if daemon:
            self.daemon_scheduled += 1
        else:
            self._real += 1
        pending = len(self._heap) + len(self._lane)
        if pending > self.heap_high_water:
            self.heap_high_water = pending

    def schedule_now(self, callback: Callable[..., None],
                     args: tuple = _NO_ARGS) -> None:
        """Run ``callback`` at the current instant, after pending same-time work.

        Inlines :meth:`schedule` with ``delay=0``: event triggering and
        process resumption funnel through here, so the extra frame is
        measurable.
        """
        lane = self._lane
        lane.append((callback, args, False))
        self.events_scheduled += 1
        self._real += 1
        pending = len(self._heap) + len(lane)
        if pending > self.heap_high_water:
            self.heap_high_water = pending

    def _loop(self, deadline: float, quiesce: bool, limit: int) -> bool:
        """The one dispatch loop behind :meth:`step`, :meth:`run` and
        :meth:`drain`.

        Executes entries due at or before ``deadline`` in ``(time, seq)``
        order.  Stops and returns True after ``limit`` entries (a negative
        limit never runs out) or, with ``quiesce``, once only daemon
        entries remain; returns False when nothing is due by ``deadline``.
        """
        heap, lane = self._heap, self._lane
        while self._real or not quiesce:
            if heap and heap[0][0] <= self._now:
                _time, _seq, callback, args, daemon = _heappop(heap)
            elif lane:
                callback, args, daemon = lane.popleft()
            elif heap and heap[0][0] <= deadline:
                self._now, _seq, callback, args, daemon = _heappop(heap)
            else:
                return False
            if daemon:
                self.daemon_executed += 1
            else:
                self._real -= 1
            self.events_executed += 1
            # The profiler only *measures* the callback (wall clock never
            # feeds back into simulated state), so both branches are
            # equivalent to the simulation.
            if self.profiler is None:
                callback(*args)
            else:
                self.profiler.run_step(callback, daemon, self._now, args)
            limit -= 1
            if not limit:
                return True
        return True

    def step(self) -> bool:
        """Execute the next scheduled callback.  Returns False when idle."""
        return self._loop(_FOREVER, False, 1)

    def run(self, until: float | None = None) -> None:
        """Run until the event queue quiesces or the clock passes ``until``.

        With ``until`` set, the clock is advanced exactly to ``until`` when
        the queue quiesces early or the next event lies beyond it.  Without
        ``until``, pending daemon entries do not count as work -- the loop
        stops once only housekeeping remains.
        """
        if until is not None and until < self._now:
            raise SimulationError(f"until={until} is before now={self._now}")
        self._enter("run")
        try:
            if until is None:
                self._loop(_FOREVER, True, -1)
            else:
                self._loop(until, False, -1)
                self._now = until
        finally:
            self._running = False

    def drain(self, max_ms: float) -> bool:
        """Run until the queue quiesces, giving up ``max_ms`` from now.

        The bounded form of :meth:`run` for driving a simulation to
        quiescence when some process may never stop (a retry loop waiting
        on a node that never recovers, say): returns True when the queue
        went quiet -- the clock then rests at the last event, not at the
        deadline -- and False when work remained at the deadline.  Daemon
        entries alone do not count as remaining work.
        """
        if max_ms < 0:
            raise SimulationError(f"cannot drain for negative time ({max_ms})")
        self._enter("drain")
        try:
            return self._loop(self._now + max_ms, True, -1)
        finally:
            self._running = False

    def _enter(self, caller: str) -> None:
        if self._running:
            raise SimulationError(
                f"engine is already running (re-entrant {caller}())")
        self._running = True

    def run_until(self, event: "object") -> object:
        """Run until ``event`` has been processed; return its value.

        Raises the event's exception if it failed, and ``SimulationError`` if
        the queue quiesces (only daemon entries left) while the event is
        still pending (deadlock).
        """
        # Local import to avoid a cycle at module-import time.
        from repro.sim.events import Event

        if not isinstance(event, Event):
            raise SimulationError(f"run_until() needs an Event, got {event!r}")
        step = self.step
        while not event.processed:
            # Re-checked every iteration: a callback chain may retire the
            # last real entry mid-run, leaving a daemon-only queue that
            # could otherwise spin the clock forever on probe ticks.
            if not self._real:
                daemons = len(self._heap) + len(self._lane)
                detail = (
                    f"only {daemons} daemon entr"
                    f"{'y' if daemons == 1 else 'ies'} left"
                    if daemons else "event queue drained")
                raise SimulationError(
                    f"{detail} while {event!r} was still pending "
                    "(simulated deadlock)"
                )
            step()
        return event.result()

    def pending_count(self) -> int:
        """Number of non-daemon callbacks still queued (diagnostic)."""
        return self._real
