"""Event-calendar tie-breaking and dead-entry compaction.

The calendar is a binary heap on the ``(time, priority, seq)`` key;
``tests/sim/test_properties.py`` checks its pop order against a sorted
oracle over generated schedules pushed through ``Environment._schedule``.
The tests below drive the public ``timeout``/``cancel``/``reschedule``
path (``Timeout`` pushes onto the heap inline) over fixed seeded
schedules, and pin the explicit same-instant priority order.

Compaction: lazy deletion leaves dead entries in the calendar; the
kernel compacts whenever more than half of a non-trivial queue is dead,
so rebalance-style churn (the flow solver reschedules every affected
completion on every perturbation) cannot grow the calendar without
bound.
"""

import random

import pytest

from repro.sim import Environment, EventPriority
from repro.sim.core import _COMPACT_MIN


def _timeout_schedule(env, delays):
    """Schedule one tagged timeout per delay; return (events, pop log)."""
    log = []
    events = []
    for i, delay in enumerate(delays):
        ev = env.timeout(delay, value=i)
        ev.callbacks.append(lambda e: log.append((e.env.now, e._value)))
        events.append(ev)
    return events, log


@pytest.mark.parametrize("seed", [42, 7, 2024])
def test_timeouts_pop_in_time_then_insertion_order(seed):
    """Timeouts fire by time, same-instant ones in creation order."""
    rng = random.Random(seed)
    delays = [
        rng.choice([0.0, 0.25, 1.0, rng.random() * 20]) for _ in range(500)
    ]
    env = Environment()
    _, log = _timeout_schedule(env, delays)
    env.run()
    assert log == sorted((delay, i) for i, delay in enumerate(delays))


def test_cancel_and_reschedule_churn_through_public_api():
    """Cancelled timeouts never fire; rescheduled ones fire at their new
    time, ordered after every entry scheduled before the reschedule."""
    env = Environment()
    rng = random.Random(7)
    delays = [rng.random() * 10 for _ in range(300)]
    events, log = _timeout_schedule(env, delays)
    # Oracle key per live timeout: (fire time, order of its last push).
    live = {i: (delay, i) for i, delay in enumerate(delays)}
    pushes = len(delays)
    for i in range(0, 300, 3):
        env.cancel(events[i])
        del live[i]
    for i in range(1, 300, 3):
        delay = rng.random() * 5
        env.reschedule(events[i], delay)
        live[i] = (delay, pushes)
        pushes += 1
    env.run()
    assert len(log) == 200
    assert log == [(live[i][0], i) for i in sorted(live, key=live.get)]
    assert all(not events[i].processed for i in range(0, 300, 3))


def test_infinite_delay_stays_queued():
    """An inf-delay timeout is accepted and never fires before ``until``."""
    env = Environment()
    never = env.timeout(float("inf"), value="never")
    soon = env.timeout(1.0, value="soon")
    fired = []
    soon.callbacks.append(lambda e: fired.append(e._value))
    env.run(until=10.0)
    assert fired == ["soon"]
    assert env.now == 10.0
    assert not never.processed
    assert env.queued == 1  # the inf entry is still held


def test_environment_takes_only_initial_time():
    """The heap is the only calendar: no backend selection remains."""
    assert Environment(initial_time=5.0).now == 5.0
    with pytest.raises(TypeError):
        Environment(queue="bucket")
    with pytest.raises(TypeError):
        Environment(bucket_width=1.0)


def test_priority_ties_at_same_timestamp():
    """URGENT < NORMAL < LOW at one instant, insertion order within."""
    env = Environment()
    log = []
    prios = [
        EventPriority.LOW,
        EventPriority.NORMAL,
        EventPriority.URGENT,
        EventPriority.NORMAL,
        EventPriority.URGENT,
        EventPriority.LOW,
    ]
    for i, prio in enumerate(prios):
        ev = env.event()
        ev._ok = True
        ev._value = i
        ev.callbacks.append(lambda e: log.append((e.env.now, e._value)))
        env._schedule(ev, prio, 1.0)
    env.run()
    # URGENT pair first (insertion order), then NORMAL, then LOW.
    assert log == [(1.0, tag) for tag in [2, 4, 1, 3, 0, 5]]


class TestCompaction:
    def test_reschedule_churn_keeps_queue_bounded(self):
        """S3: heavy reschedule churn cannot grow the calendar unboundedly.

        Every reschedule lazily kills one entry and pushes a fresh one;
        without compaction N reschedules leave N dead entries behind.
        The 50%-dead threshold bounds the calendar at O(live).
        """
        env = Environment()
        live = 64
        events = [env.timeout(1000.0 + i) for i in range(live)]
        for round_ in range(100):
            for ev in events:
                env.reschedule(ev, 1000.0 + round_)
        # 6400 reschedules happened; the queue must stay O(live), far
        # below the dead-entry pile lazy deletion alone would leave.
        assert env.queued <= 2 * live + 1
        assert env._dead * 2 <= env.queued + 1

    def test_no_compaction_below_minimum(self):
        """Tiny calendars skip compaction (not worth the heapify)."""
        env = Environment()
        ev = env.timeout(5.0)
        other = env.timeout(7.0)
        env.cancel(ev)
        # One dead of two entries: over 50% threshold but under the
        # size floor, so the dead entry is still in the queue.
        assert env.queued == 2
        assert _COMPACT_MIN > 2
        assert not other.processed

    def test_compaction_preserves_pop_order(self):
        env = Environment()
        keep = []
        events = []
        for i in range(_COMPACT_MIN * 2):
            ev = env.timeout(float(i), value=i)
            ev.callbacks.append(lambda e: keep.append(e._value))
            events.append(ev)
        # Cancel every other event to push past the 50% dead mark.
        for ev in events[::2]:
            env.cancel(ev)
        env.run()
        assert keep == list(range(1, _COMPACT_MIN * 2, 2))
