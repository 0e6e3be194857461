"""Property-based tests for the DES kernel (hypothesis)."""

from itertools import count
from unittest import mock

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.sim import AllOf, AnyOf, Environment, EventPriority, Resource
from repro.sim import core


@given(
    delays=st.lists(
        st.floats(min_value=0.0, max_value=1e5, allow_nan=False),
        min_size=1,
        max_size=50,
    )
)
def test_completion_times_monotonic(delays):
    """Process completion order always matches scheduled-delay order."""
    env = Environment()
    finished = []

    def proc(d):
        yield env.timeout(d)
        finished.append(env.now)

    for d in delays:
        env.process(proc(d))
    env.run()
    assert finished == sorted(finished)
    assert len(finished) == len(delays)
    assert env.now == max(delays)


@given(
    delays=st.lists(
        st.floats(min_value=0.0, max_value=100, allow_nan=False),
        min_size=1,
        max_size=30,
    )
)
def test_all_of_equals_max_any_of_equals_min(delays):
    env = Environment()

    def wait_all():
        yield AllOf(env, [env.timeout(d) for d in delays])
        return env.now

    assert env.run(until=env.process(wait_all())) == max(delays)

    env2 = Environment()

    def wait_any():
        yield AnyOf(env2, [env2.timeout(d) for d in delays])
        return env2.now

    assert env2.run(until=env2.process(wait_any())) == min(delays)


@given(
    service_times=st.lists(
        st.floats(min_value=0.01, max_value=10, allow_nan=False),
        min_size=1,
        max_size=20,
    ),
    capacity=st.integers(min_value=1, max_value=4),
)
@settings(max_examples=50)
def test_resource_conservation(service_times, capacity):
    """A bounded resource never exceeds its capacity and serves everyone."""
    env = Environment()
    res = Resource(env, capacity=capacity)
    in_service = [0]
    max_in_service = [0]
    served = [0]

    def user(d):
        with res.request() as req:
            yield req
            in_service[0] += 1
            max_in_service[0] = max(max_in_service[0], in_service[0])
            yield env.timeout(d)
            in_service[0] -= 1
        served[0] += 1

    for d in service_times:
        env.process(user(d))
    env.run()
    assert max_in_service[0] <= capacity
    assert served[0] == len(service_times)
    # Makespan bounds: at least the longest job, at most the serial sum.
    assert max(service_times) <= env.now <= sum(service_times) + 1e-9


_PRIORITIES = st.sampled_from(
    [EventPriority.URGENT, EventPriority.NORMAL, EventPriority.LOW]
)
# A few fixed instants make same-time ties (where priority and seq
# decide) common instead of measure-zero.
_DELAYS = st.sampled_from([0.0, 1.0, 2.0]) | st.floats(
    min_value=0, max_value=50, allow_nan=False
)


@given(
    events=st.lists(st.tuples(_DELAYS, _PRIORITIES), min_size=1, max_size=60),
    # (event index, cancel?, delay, new priority or None); a cancel
    # ends an event's churn, so it is drawn one time in four.
    churn=st.lists(
        st.tuples(
            st.integers(min_value=0, max_value=59),
            st.sampled_from([False, False, False, True]),
            _DELAYS,
            st.none() | _PRIORITIES,
        ),
        max_size=60,
    ),
    # 0 compacts whenever half the calendar is dead, so small generated
    # calendars exercise compaction too.
    compact_min=st.sampled_from([core._COMPACT_MIN, 0]),
)
def test_event_loop_matches_reference_heap(events, churn, compact_min):
    """Pop order is the sorted ``(time, priority, seq)`` order under churn."""
    with mock.patch.object(core, "_COMPACT_MIN", compact_min):
        _check_pop_order(events, churn)


def _check_pop_order(events, churn):
    env = Environment()
    observed = []
    handles = []
    live = {}  # tag -> (time, priority, seq) of its one live entry
    seq = count()
    for tag, (delay, prio) in enumerate(events):
        ev = env.event()
        ev._ok = True
        ev._value = tag
        ev.callbacks.append(lambda e: observed.append((e.env.now, e._value)))
        env._schedule(ev, prio, delay)
        handles.append(ev)
        live[tag] = (delay, prio, next(seq))
    for idx, cancel, delay, prio in churn:
        tag = idx % len(events)
        if tag not in live:
            continue
        if cancel:
            env.cancel(handles[tag])
            del live[tag]
        else:
            env.reschedule(handles[tag], delay, prio)
            old_prio = live[tag][1]
            live[tag] = (
                delay, old_prio if prio is None else prio, next(seq)
            )
    env.run()
    expected = sorted(live, key=live.__getitem__)
    assert observed == [(live[tag][0], tag) for tag in expected]
