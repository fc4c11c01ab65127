"""Edge-case and differential tests for the engine's event queue.

The engine promises one thing above all: callbacks pop in exact
``(time, seq)`` order.  It keeps that order with a heap plus a FIFO lane
for entries due at the current instant, so these tests attack the
promise where the two containers meet -- same-instant FIFO, the
``run(until=...)`` boundary, a parked clock, delays that float addition
absorbs -- and check the daemon and deadlock rules.
"""

import heapq

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.errors import SimulationError
from repro.sim import Engine, Event


# -- ordering ----------------------------------------------------------------


@settings(max_examples=60, deadline=None)
@given(delays=st.lists(st.sampled_from([0.0, 1.0, 2.5]),
                       min_size=1, max_size=40))
def test_same_instant_fifo_property(delays):
    """Entries scheduled for the same instant run in schedule order --
    whatever mix of instants surrounds them."""
    engine = Engine()
    seen = []
    for index, delay in enumerate(delays):
        engine.schedule(delay, seen.append, args=((delay, index),))
    engine.run()
    assert seen == sorted(seen), "pop order broke (time, seq) sorting"


#: delays that exercise both routes: zero and float-absorbed delays go to
#: the lane, the rest to the heap; ``1e-300`` is absorbed by any clock
#: above zero, ``1e-9`` only once the clock passes ~1e7
DELAYS = st.sampled_from([0.0, 1e-300, 1e-9, 0.5, 1.0, 3.0, 1e7])
#: one follow-up a callback may schedule: ``None`` means ``schedule_now``
FOLLOW_UP = st.one_of(st.none(), DELAYS)
#: past every entry the differential can schedule, so both sides run
#: everything -- daemons included, which a quiescing ``run()`` would skip
HORIZON = 1e9


@settings(max_examples=150, deadline=None)
@given(ops=st.lists(st.tuples(DELAYS, st.booleans(),
                              st.lists(FOLLOW_UP, max_size=3)),
                    min_size=1, max_size=30))
def test_engine_matches_reference_heap(ops):
    """Differential: the engine executes any workload -- daemons mixed
    in -- in the order of a reference ``heapq`` of ``(time, seq)``
    entries, including ``schedule(0)`` and ``schedule_now`` issued from
    callbacks."""

    def execute(schedule, schedule_now, now, drain):
        order = []

        def record(tag, follow_ups):
            order.append((tag, now()))
            for index, delay in enumerate(follow_ups):
                child = (tag, index)
                if delay is None:
                    schedule_now(record, (child, ()))
                else:
                    schedule(delay, record, (child, ()))

        for tag, (delay, daemon, follow_ups) in enumerate(ops):
            schedule(delay, record, (tag, follow_ups), daemon)
        drain()
        return order

    engine = Engine()
    actual = execute(
        lambda delay, fn, args, daemon=False: engine.schedule(
            delay, fn, daemon=daemon, args=args),
        lambda fn, args: engine.schedule_now(fn, args=args),
        lambda: engine.now, lambda: engine.run(until=HORIZON))

    reference: list = []
    clock = [0.0]
    seq = [0]

    def ref_schedule(delay, fn, args, daemon=False):
        heapq.heappush(reference, (clock[0] + delay, seq[0], fn, args))
        seq[0] += 1

    def ref_drain():
        while reference and reference[0][0] <= HORIZON:
            clock[0], _seq, fn, args = heapq.heappop(reference)
            fn(*args)

    expected = execute(ref_schedule,
                       lambda fn, args: ref_schedule(0.0, fn, args),
                       lambda: clock[0], ref_drain)
    assert actual == expected
    assert engine.events_executed == len(expected)


def test_absorbed_delay_runs_at_the_current_instant():
    """A delay too small to move a large clock is due now: it runs after
    the entries already due at this instant, and before later ones."""
    engine = Engine()
    seen = []
    engine.schedule(1e9, lambda: None)
    engine.run()
    engine.schedule(1.0, seen.append, args=("later",))
    engine.schedule_now(seen.append, args=("now",))
    engine.schedule(1e-9, seen.append, args=("absorbed",))
    engine.run()
    assert seen == ["now", "absorbed", "later"]


# -- run(until=...) boundaries ----------------------------------------------


def test_event_at_exactly_until_runs():
    """``run(until=t)`` is inclusive: an event at exactly ``t`` runs."""
    engine = Engine()
    seen = []
    engine.schedule(10.0, seen.append, args=("at",))
    engine.schedule(10.0 + 1e-9, seen.append, args=("after",))
    engine.run(until=10.0)
    assert seen == ["at"]
    assert engine.now == 10.0
    engine.run()
    assert seen == ["at", "after"]


def test_parked_clock_then_schedule_below_the_front():
    """Parking the clock before a far-future entry, then scheduling
    *below* it, must pop the near entry first."""
    engine = Engine()
    seen = []
    engine.schedule(5_000.0, seen.append, args=("far",))
    engine.run(until=100.0)  # leaves the far entry queued, parks at 100
    assert seen == []
    engine.schedule(1.0, seen.append, args=("near",))  # below the front
    engine.schedule_now(seen.append, args=("now",))
    engine.run()
    assert seen == ["now", "near", "far"]
    assert engine.now == 5_000.0


def test_run_until_repeatedly_across_idle_gaps():
    """Successive bounded runs across empty stretches stay exact."""
    engine = Engine()
    seen = []
    for delay in [50.0, 2_048.0, 7_000.5]:
        engine.schedule(delay, seen.append, args=(delay,))
    for until in [10.0, 60.0, 2_048.0, 6_000.0, 8_000.0]:
        engine.run(until=until)
        assert engine.now == until
    assert seen == [50.0, 2_048.0, 7_000.5]


# -- daemon semantics --------------------------------------------------------


def test_drain_leaves_daemon_only_remainder():
    """``drain`` reports quiescence while daemon ticks are still queued."""
    engine = Engine()
    ticks = []

    def tick():
        ticks.append(engine.now)
        engine.schedule(500.0, tick, daemon=True)

    engine.schedule(500.0, tick, daemon=True)
    engine.schedule(1_200.0, lambda: None)
    assert engine.drain(10_000.0) is True
    assert engine.now == 1_200.0
    assert engine.pending_count() == 0  # daemons excluded
    assert ticks == [500.0, 1_000.0]
    engine.run(until=1_500.0)  # the next tick is still queued
    assert ticks == [500.0, 1_000.0, 1_500.0]


def test_run_until_daemon_only_queue_raises_deadlock():
    """A waited-on event that can never trigger (only daemon housekeeping
    left) must raise a simulated-deadlock error, not spin forever."""
    engine = Engine()

    def tick():
        engine.schedule(5.0, tick, daemon=True)

    engine.schedule(5.0, tick, daemon=True)
    event = Event(engine, "never")
    with pytest.raises(SimulationError, match="daemon"):
        engine.run_until(event)


def test_run_until_empty_queue_raises_deadlock():
    engine = Engine()
    event = Event(engine, "never")
    with pytest.raises(SimulationError, match="drained"):
        engine.run_until(event)
