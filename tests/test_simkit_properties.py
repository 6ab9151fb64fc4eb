"""Property-based tests for the simulation kernel."""

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.simkit.core import Simulator
from repro.simkit.resources import Resource, Store


@settings(max_examples=100, deadline=None)
@given(st.lists(st.floats(min_value=0.0, max_value=1e6,
                          allow_nan=False, allow_infinity=False),
                min_size=1, max_size=50))
def test_events_always_execute_in_time_order(delays):
    sim = Simulator()
    executed = []
    for delay in delays:
        sim.schedule(delay, lambda d=delay: executed.append((sim.now, d)))
    sim.run()
    times = [t for t, _ in executed]
    assert times == sorted(times)
    assert len(executed) == len(delays)
    # Each callback ran exactly at its scheduled time.
    assert all(t == d for t, d in executed)


@settings(max_examples=50, deadline=None)
@given(st.lists(st.floats(min_value=0.0, max_value=100.0,
                          allow_nan=False), min_size=1, max_size=30),
       st.integers(min_value=1, max_value=5))
def test_resource_never_exceeds_capacity(hold_times, capacity):
    sim = Simulator()
    resource = Resource(sim, capacity)
    concurrency = [0]
    peak = [0]

    def worker(sim, hold):
        yield resource.acquire()
        concurrency[0] += 1
        peak[0] = max(peak[0], concurrency[0])
        yield sim.timeout(hold)
        concurrency[0] -= 1
        resource.release()

    for hold in hold_times:
        sim.process(worker(sim, hold))
    sim.run()
    assert peak[0] <= capacity
    assert concurrency[0] == 0
    assert resource.in_use == 0


@settings(max_examples=50, deadline=None)
@given(st.lists(st.integers(min_value=0, max_value=1000),
                min_size=1, max_size=40),
       st.integers(min_value=1, max_value=8))
def test_store_delivers_every_item_exactly_once(items, consumers):
    sim = Simulator()
    store = Store(sim)
    received = []
    total = len(items)
    claimed = [0]

    def consumer(sim):
        while claimed[0] < total:
            claimed[0] += 1
            item = yield store.get()
            received.append(item)

    for _ in range(consumers):
        sim.process(consumer(sim))
    for offset, item in enumerate(items):
        sim.schedule(offset * 0.1, store.put, item)
    sim.run()
    assert sorted(received) == sorted(items)
    assert len(store) == 0


@settings(max_examples=30, deadline=None)
@given(st.lists(st.tuples(st.floats(min_value=0, max_value=100,
                                    allow_nan=False),
                          st.booleans()),
                min_size=1, max_size=30))
def test_cancelled_events_never_fire(schedule):
    sim = Simulator()
    fired = []
    events = []
    for delay, cancel in schedule:
        event = sim.schedule(delay, lambda d=delay: fired.append(d))
        events.append((event, cancel))
    for event, cancel in events:
        if cancel:
            event.cancel()
    sim.run()
    expected = sorted(d for (d, cancel) in schedule if not cancel)
    assert sorted(fired) == expected
