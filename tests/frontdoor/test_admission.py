"""Tests for token buckets, fair queueing and the shed controller."""

import pytest

from repro.frontdoor import (
    BATCH,
    BULK,
    INTERACTIVE,
    NO_SHED_FLOOR,
    AdmissionQueue,
    Deadline,
    Request,
    ShedController,
    TokenBucket,
)


class Clock:
    """A hand-cranked clock."""

    def __init__(self):
        self.now = 0.0

    def __call__(self) -> float:
        return self.now


@pytest.fixture
def clock():
    return Clock()


def _request(tenant, clock, priority=BATCH, budget=1e9, seq=0):
    return Request(tenant=tenant, op="get", url=f"adal://s/{tenant}/x",
                   nbytes=0.0, priority=priority,
                   deadline=Deadline(clock.now, budget),
                   submitted=clock.now, seq=seq)


class TestTokenBucket:
    def test_unlimited_when_rate_is_none(self, clock):
        bucket = TokenBucket(clock, rate=None)
        assert all(bucket.try_take() for _ in range(1000))

    def test_rate_must_be_positive(self, clock):
        with pytest.raises(ValueError, match="rate"):
            TokenBucket(clock, rate=0.0)

    def test_burst_defaults_to_two_seconds_of_refill(self, clock):
        assert TokenBucket(clock, rate=10.0).burst == 20.0

    def test_exhausts_then_refills_on_the_clock(self, clock):
        bucket = TokenBucket(clock, rate=1.0, burst=2.0)
        assert bucket.try_take()
        assert bucket.try_take()
        assert not bucket.try_take()
        clock.now = 1.0
        assert bucket.try_take()
        assert not bucket.try_take()

    def test_refill_capped_at_burst(self, clock):
        bucket = TokenBucket(clock, rate=10.0, burst=3.0)
        for _ in range(3):
            assert bucket.try_take()
        clock.now = 1000.0
        assert bucket.tokens == 3.0


class TestShedController:
    def test_validation(self):
        with pytest.raises(ValueError):
            ShedController(target=0.0, interval=1.0)
        with pytest.raises(ValueError):
            ShedController(target=1.0, interval=0.0)

    def test_escalates_one_class_per_interval(self, clock):
        shed = ShedController(target=0.5, interval=2.0)
        shed.observe(1.0, now=0.0)
        assert not shed.shedding
        shed.observe(1.0, now=2.0)
        assert shed.shed_floor == BULK          # bulk now shed
        shed.observe(1.0, now=4.0)
        assert shed.shed_floor == BATCH         # batch too
        shed.observe(1.0, now=6.0)
        assert shed.shed_floor == BATCH         # never the interactive class
        assert shed.should_shed(_request("t", clock, priority=BULK))
        assert shed.should_shed(_request("t", clock, priority=BATCH))
        assert not shed.should_shed(_request("t", clock, priority=INTERACTIVE))

    def test_sub_target_sojourn_resets_instantly(self, clock):
        shed = ShedController(target=0.5, interval=2.0)
        shed.observe(1.0, now=0.0)
        shed.observe(1.0, now=2.0)
        assert shed.shedding
        shed.observe(0.1, now=2.5)
        assert not shed.shedding
        assert shed.shed_floor == NO_SHED_FLOOR


class TestAdmissionQueue:
    def _queue(self, clock, tenants=None, capacity=4, **kwargs):
        return AdmissionQueue(clock, tenants or {"a": 1.0, "b": 1.0},
                              capacity=capacity, **kwargs)

    def test_validation(self, clock):
        with pytest.raises(ValueError, match="capacity"):
            self._queue(clock, capacity=0)
        with pytest.raises(ValueError, match="weight"):
            self._queue(clock, tenants={"a": 0.5})

    def test_per_tenant_capacity_bound(self, clock):
        queue = self._queue(clock, capacity=2)
        assert queue.offer(_request("a", clock))
        assert queue.offer(_request("a", clock))
        assert not queue.offer(_request("a", clock))   # a is full
        assert queue.offer(_request("b", clock))       # b unaffected
        assert queue.depth == 3
        assert queue.tenant_depth("a") == 2

    def test_weighted_fair_dequeue_ratio(self, clock):
        queue = AdmissionQueue(clock, {"heavy": 3.0, "light": 1.0},
                               capacity=100)
        for seq in range(40):
            queue.offer(_request("heavy", clock, seq=seq))
            queue.offer(_request("light", clock, seq=seq))
        first16 = [queue.pop().tenant for _ in range(16)]
        # Start-time fair queueing serves 3 heavy per light.
        assert first16.count("heavy") == 12
        assert first16.count("light") == 4

    def test_priority_classes_drain_most_urgent_first(self, clock):
        queue = self._queue(clock, tenants={"a": 1.0})
        queue.offer(_request("a", clock, priority=BULK, seq=1))
        queue.offer(_request("a", clock, priority=INTERACTIVE, seq=2))
        queue.offer(_request("a", clock, priority=BATCH, seq=3))
        assert [queue.pop().seq for _ in range(3)] == [2, 3, 1]

    def test_idle_tenant_banks_no_burst(self, clock):
        """A tenant that was idle re-joins at the current virtual time; it
        must not be owed an unbounded catch-up burst."""
        queue = self._queue(clock, tenants={"a": 1.0, "b": 1.0},
                            capacity=100)
        for seq in range(20):
            queue.offer(_request("a", clock, seq=seq))
        for _ in range(10):                      # a alone advances vtime
            queue.pop()
        for seq in range(10):                    # b wakes up late
            queue.offer(_request("b", clock, seq=seq))
        next10 = [queue.pop().tenant for _ in range(10)]
        # Fair interleave from here on, not 10 b's in a row.
        assert next10.count("b") == 5

    def test_drain_returns_everything(self, clock):
        queue = self._queue(clock)
        for seq in range(3):
            queue.offer(_request("a", clock, seq=seq))
        queue.offer(_request("b", clock, seq=9))
        drained = queue.drain()
        assert len(drained) == 4
        assert queue.depth == 0
        assert queue.pop() is None

    def test_peak_depth_high_water_mark(self, clock):
        queue = self._queue(clock)
        for seq in range(3):
            queue.offer(_request("a", clock, seq=seq))
        queue.pop()
        queue.pop()
        assert queue.depth == 1
        assert queue.peak_depth == 3
