"""Property-based tests (hypothesis) for the DES kernel."""

from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.simkit import Resource, Simulator, Store


@given(delays=st.lists(st.floats(min_value=0.0, max_value=1e6), min_size=1, max_size=30))
@settings(max_examples=60, deadline=None)
def test_clock_equals_max_delay(delays):
    """After draining the queue, the clock sits at the latest event time."""
    sim = Simulator()

    def proc(d):
        yield sim.timeout(d)

    for d in delays:
        sim.process(proc(d))
    sim.run()
    assert sim.now == max(delays)


@given(
    delays=st.lists(
        st.floats(min_value=0.0, max_value=100.0), min_size=2, max_size=25
    )
)
@example(delays=[1.0, 0.5, 1.0, 0.0, 0.5, 1.0, 0.0])  # exact same-instant ties
@settings(max_examples=60, deadline=None)
def test_completion_order_sorted_by_delay(delays):
    """Processes finish in non-decreasing delay order, FIFO on ties."""
    sim = Simulator()
    finished = []

    def proc(index, delay):
        yield sim.timeout(delay)
        finished.append((delay, index))

    for i, d in enumerate(delays):
        sim.process(proc(i, d))
    sim.run()
    assert finished == sorted(finished)


@given(
    capacity=st.integers(min_value=1, max_value=5),
    holds=st.lists(st.floats(min_value=0.01, max_value=10.0), min_size=1, max_size=20),
)
@settings(max_examples=50, deadline=None)
def test_resource_never_exceeds_capacity(capacity, holds):
    """Peak concurrent holders never exceeds the declared capacity and every
    request is eventually granted."""
    sim = Simulator()
    res = Resource(sim, capacity=capacity)
    granted = []

    def worker(hold):
        req = res.request()
        yield req
        granted.append(1)
        assert res.in_use <= capacity
        yield sim.timeout(hold)
        res.release(req)

    for h in holds:
        sim.process(worker(h))
    sim.run()
    assert res.peak_in_use <= capacity
    assert len(granted) == len(holds)
    assert res.in_use == 0


@given(items=st.lists(st.integers(), min_size=1, max_size=30))
@settings(max_examples=50, deadline=None)
def test_store_preserves_fifo_and_conservation(items):
    """Everything put into a Store comes out exactly once, in order."""
    sim = Simulator()
    store = Store(sim)
    out = []

    def producer():
        for item in items:
            yield store.put(item)

    def consumer():
        for _ in items:
            out.append((yield store.get()))

    sim.process(producer())
    sim.process(consumer())
    sim.run()
    assert out == items


@given(seed=st.integers(min_value=0, max_value=2**32 - 1))
@settings(max_examples=25, deadline=None)
def test_seeded_runs_are_reproducible(seed):
    """Identical seeds yield identical event traces."""

    def run():
        sim = Simulator(seed=seed)
        trace = []

        def proc(name):
            for _ in range(4):
                yield sim.timeout(sim.random.exponential(1.0))
                trace.append((name, sim.now))

        sim.process(proc("a"))
        sim.process(proc("b"))
        sim.run()
        return trace

    assert run() == run()
