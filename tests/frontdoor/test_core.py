"""Unit tests for the sans-IO :class:`AdmissionCore` on a hand-cranked clock."""

import pytest

from repro.frontdoor import (
    BATCH,
    BULK,
    INTERACTIVE,
    AdmissionCore,
    Request,
    TenantSpec,
)
from repro.telemetry.events import EventBus


class Clock:
    """A hand-cranked clock."""

    def __init__(self):
        self.now = 0.0

    def __call__(self) -> float:
        return self.now


@pytest.fixture
def clock():
    return Clock()


def _core(clock, tenants=None, enabled=True, capacity=4, drops=None,
          bus=None):
    drops = [] if drops is None else drops
    return AdmissionCore(
        clock, tenants or (TenantSpec("t"),), queue_capacity=capacity,
        codel_target=0.5, codel_interval=2.0, brownout_target=1.0,
        deadlines=(4.0, 15.0, 60.0),
        on_drop=lambda request, reason: drops.append((request.seq, reason)),
        bus=EventBus(clock) if bus is None else bus, name="core",
        enabled=enabled)


def _request(core, tenant="t", op="get", priority=BATCH, budget=None):
    deadline, seq = core.stamp(priority, budget)
    return Request(tenant=tenant, op=op, url=f"adal://s/{tenant}/{seq}",
                   nbytes=0.0, priority=priority, deadline=deadline,
                   submitted=deadline.start, seq=seq)


def _brown_out(core):
    for _ in range(60):
        core.brownout.observe(10.0)
    assert core.brownout.rejects_writes()


class TestStamp:
    def test_class_budgets_and_sequence(self, clock):
        core = _core(clock)
        clock.now = 3.0
        stamps = [core.stamp(p) for p in (INTERACTIVE, BATCH, BULK)]
        assert [d.budget for d, _seq in stamps] == [4.0, 15.0, 60.0]
        assert [d.start for d, _seq in stamps] == [3.0, 3.0, 3.0]
        assert [seq for _d, seq in stamps] == [1, 2, 3]

    def test_explicit_budget_overrides_the_class(self, clock):
        deadline, _seq = _core(clock).stamp(BULK, 0.25)
        assert deadline.budget == 0.25


class TestRejectLadder:
    def test_admitted_request_is_queued(self, clock):
        core = _core(clock)
        assert core.admit(_request(core), writes=False) is None
        assert core.queue.depth == 1

    def test_brownout_refuses_writes_before_taking_a_token(self, clock):
        core = _core(clock, tenants=(TenantSpec("t", rate_limit=1.0,
                                                burst=1.0),))
        _brown_out(core)
        assert core.admit(_request(core, op="put"), writes=True) == "brownout"
        # The refused write left the only token for the read.
        assert core.admit(_request(core), writes=False) is None

    def test_rate_limit_before_the_queue_bound(self, clock):
        core = _core(clock, capacity=1,
                     tenants=(TenantSpec("t", rate_limit=1.0, burst=2.0),))
        assert core.admit(_request(core), writes=False) is None
        assert core.admit(_request(core), writes=False) == "queue_full"
        assert core.admit(_request(core), writes=False) == "rate_limited"

    def test_cost_is_taken_from_the_bucket(self, clock):
        core = _core(clock, tenants=(TenantSpec("t", rate_limit=1.0,
                                                burst=4.0),))
        assert core.admit(_request(core), writes=False, cost=3) is None
        assert core.admit(_request(core), writes=False,
                          cost=2) == "rate_limited"
        assert core.admit(_request(core), writes=False, cost=1) is None

    def test_naive_arm_keeps_only_the_queue_bound(self, clock):
        core = _core(clock, enabled=False, capacity=2,
                     tenants=(TenantSpec("t", rate_limit=1.0, burst=1.0),))
        _brown_out(core)
        verdicts = [core.admit(_request(core, op="put"), writes=True)
                    for _ in range(3)]
        assert verdicts == [None, None, "queue_full"]


class TestDequeue:
    def test_pop_counts_in_flight_until_release(self, clock):
        core = _core(clock)
        core.admit(_request(core), writes=False)
        assert core.pop() is not None
        assert core.in_flight == 1
        assert core.pop() is None
        core.release()
        assert core.in_flight == 0

    def test_sojourn_feeds_the_brownout_signal(self, clock):
        core = _core(clock)
        core.admit(_request(core), writes=False)
        clock.now = 5.0
        core.pop()
        assert core.brownout.signal == pytest.approx(0.2 * 5.0)

    def test_naive_arm_observes_nothing(self, clock):
        core = _core(clock, enabled=False)
        core.admit(_request(core), writes=False)
        clock.now = 5.0
        core.pop()
        assert core.brownout.signal == 0.0
        assert core.in_flight == 1

    def test_brownout_transition_published_once(self, clock):
        bus = EventBus(clock)
        core = _core(clock, bus=bus)
        _brown_out(core)
        events = bus.events(kind="frontdoor.brownout")
        assert [(e.subject, e.data["old"], e.data["new"]) for e in events] \
            == [("core", "normal", "no_writes"),
                ("core", "no_writes", "metadata_only")]


class TestDrops:
    def test_expired_requests_fail_fast_via_on_drop(self, clock):
        drops = []
        core = _core(clock, drops=drops)
        core.admit(_request(core, budget=5.0), writes=False)
        clock.now = 10.0
        core.admit(_request(core, budget=5.0), writes=False)
        popped = core.pop()
        assert popped is not None and popped.seq == 2
        assert drops == [(1, "expired")]
        assert core.in_flight == 1

    def test_naive_arm_hands_expired_requests_to_workers(self, clock):
        drops = []
        core = _core(clock, enabled=False, drops=drops)
        core.admit(_request(core, budget=5.0), writes=False)
        clock.now = 10.0
        assert core.pop() is not None   # the server "doesn't know"
        assert drops == []

    def test_shed_controller_drops_at_the_floor(self, clock):
        drops = []
        core = _core(clock, drops=drops, capacity=100)
        for _ in range(4):
            for priority in (BULK, INTERACTIVE):
                core.admit(_request(core, priority=priority, budget=1e9),
                           writes=False)
        clock.now = 5.0   # every queued request now has sojourn 5 > target
        served = [core.pop() for _ in range(4)]
        # Interactive drains first, priming the controller without shedding.
        assert all(r.priority == INTERACTIVE for r in served)
        clock.now = 7.5   # past the 2 s escalation interval: bulk is shed
        assert core.pop() is None
        assert drops == [(seq, "shed") for seq in (1, 3, 5, 7)]


class TestBalance:
    def test_silent_loss_identity(self, clock):
        core = _core(clock)
        for _ in range(3):
            core.admit(_request(core), writes=False)
        core.pop()
        # 5 received, 1 answered inline, 2 queued, 1 in flight: 1 lost.
        assert core.balance(received=5, answered=1) == {
            "queued": 2, "in_flight": 1, "silent_loss": 1}
        assert core.balance(received=4, answered=1)["silent_loss"] == 0
