"""The kernel's event queue: same-seed twin runs and pop order.

Events pop in ``(time, priority, tie, seq)`` order.  ``tie`` is 0 unless a
tie-shuffle stream is installed (the race detector), in which case it is a
seeded draw that reorders only same-``(time, priority)`` events.  Two
same-seed simulators, with or without the same tie-shuffle seed, must
produce identical event traces.
"""

import pytest

from repro.analysis.trace import TraceRecorder, first_divergence
from repro.simkit import Simulator, SimkitError
from repro.simkit.rand import RandomSource


def _twin_workload(sim: Simulator) -> None:
    """A workload touching the ordering-sensitive kernel features: timer
    chains, exact same-instant ties, priorities, cancellation (an
    interrupted process abandoning a pending timer) and far-future events
    that never fire inside the horizon."""
    from repro.simkit import Interrupt
    from repro.simkit.events import LOW

    def ticker(period, count):
        for _ in range(count):
            yield sim.timeout(period)

    def interruptee():
        try:
            yield sim.timeout(100.0)
        except Interrupt:
            # The abandoned timer entry still pops from the queue (there
            # is no remove); only its callback is inert.
            yield sim.timeout(0.5)

    def sleeper():
        yield sim.timeout(1e12)  # far beyond every stop horizon

    for i in range(5):
        sim.process(ticker(0.25 * (i + 1), 20))
        sim.process(ticker(0.25 * (i + 1), 20))  # exact ties with the twin
    victim = sim.process(interruptee())

    def canceller():
        yield sim.timeout(2.0)
        victim.interrupt("cancelled")

    sim.process(canceller())
    sim.process(sleeper())
    sim.event(name="hi").succeed(delay=3.0, priority=0)
    sim.event(name="lo").succeed(delay=3.0, priority=LOW)


def _traced_run(tie_seed=None) -> TraceRecorder:
    sim = Simulator(seed=42)
    recorder = TraceRecorder().install(sim)
    if tie_seed is not None:
        sim.enable_tie_shuffle(RandomSource(tie_seed).spawn("tie-shuffle"))
    _twin_workload(sim)
    sim.run(until=40.0)
    return recorder


def _tie_inversions(recorder: TraceRecorder) -> int:
    """Consecutive same-``(time, priority)`` pops out of insertion order."""
    entries = recorder.entries
    return sum(1 for a, b in zip(entries, entries[1:])
               if (a.time, a.priority) == (b.time, b.priority) and a.seq > b.seq)


def test_kernel_twin_traces_identical():
    for tie_seed in (None, 7):
        first, second = _traced_run(tie_seed), _traced_run(tie_seed)
        assert first_divergence(first, second) is None
        assert first.digest() == second.digest()
        assert len(first) > 100
        times = [e.time for e in first.entries]
        assert times == sorted(times)
        # Same-instant ties pop in insertion order unless shuffled.
        assert (_tie_inversions(first) > 0) == (tie_seed is not None)


# -- queue edge cases -------------------------------------------------------

def _popped_names(sim: Simulator) -> list:
    names: list = []
    sim.trace_hooks.append(lambda when, prio, seq, event: names.append((when, event.name)))
    return names


def test_empty_pop_raises_and_peek_is_inf():
    sim = Simulator()
    assert sim.peek() == float("inf")
    with pytest.raises(SimkitError):
        sim.step()


def test_infinite_entries_pop_last():
    sim = Simulator()
    popped = _popped_names(sim)
    inf = float("inf")
    sim.event(name="inf-a").succeed(delay=inf)
    sim.event(name="finite").succeed(delay=3.0)
    sim.event(name="inf-b").succeed(delay=inf)
    for _ in range(3):
        sim.step()
    assert popped == [(3.0, "finite"), (inf, "inf-a"), (inf, "inf-b")]
    assert sim.queue_empty


def test_push_earlier_than_cursor_rewinds():
    """An event scheduled after the queue head was inspected, but earlier
    than it, becomes the new head."""
    sim = Simulator()
    popped = _popped_names(sim)
    sim.event(name="late").succeed(delay=50.0)
    assert sim.peek() == 50.0
    sim.event(name="early").succeed(delay=2.0)
    assert sim.peek() == 2.0
    sim.step()
    sim.step()
    assert popped == [(2.0, "early"), (50.0, "late")]
