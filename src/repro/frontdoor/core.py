"""The sans-IO admission core behind both front-door drivers.

One overload pipeline, two transports: the simkit
:class:`~repro.frontdoor.service.FrontDoor` and the asyncio
:class:`~repro.adal.wire.server.WireServer` both drive
:class:`AdmissionCore`, which does no I/O and reads an injected clock.  It
is the one place that builds the token buckets, the fair admission queue,
the CoDel-style shed controller and the brownout controller, and it owns
deadline stamping, the reject ladder, the drops at pop, the
``frontdoor.brownout`` event and the silent-loss identity.  A driver keeps
its transport, worker loop, service logic and metrics, and maps the
core's reasons onto its own terminal vocabulary.
"""

from __future__ import annotations

from typing import Any, Callable, Optional, Sequence

from repro.frontdoor.admission import AdmissionQueue, ShedController, TokenBucket
from repro.frontdoor.brownout import TIER_NAMES, BrownoutController
from repro.frontdoor.request import Deadline, TenantSpec
from repro.telemetry.events import INFO, WARNING, EventBus

#: Reasons :meth:`AdmissionCore.admit` refuses a request with (label order).
REJECT_REASONS = ("rate_limited", "queue_full", "brownout")


class AdmissionCore:
    """One admission pipeline on an injected clock.

    ``tenants`` gives each community's fair-share weight, rate limit and
    burst.  ``codel_target``/``codel_interval`` tune the shed controller,
    ``brownout_target`` normalises the brownout signal and ``deadlines``
    are the default budgets of the (interactive, batch, bulk) classes, all
    in seconds.  ``on_drop(request, reason)`` is called inside :meth:`pop`
    for each request dropped there, with reason ``"expired"`` or ``"shed"``.
    Tier changes are published on ``bus`` with subject ``name``.
    ``enabled=False`` turns every defence off (the naive ablation arm): no
    brownout, rate limits, shedding or fail-fast.
    """

    def __init__(
        self,
        clock: Callable[[], float],
        tenants: Sequence[TenantSpec],
        *,
        queue_capacity: int,
        codel_target: float,
        codel_interval: float,
        brownout_target: float,
        deadlines: tuple[float, float, float],
        on_drop: Callable[[Any, str], None],
        bus: EventBus,
        name: str,
        enabled: bool = True,
    ):
        self._clock = clock
        self._on_drop = on_drop
        self._bus = bus
        self.name = name
        self.enabled = enabled
        self.deadlines = deadlines
        self.shed = ShedController(target=codel_target, interval=codel_interval)
        self.brownout = BrownoutController(
            target=brownout_target, on_change=self._on_brownout_change)
        self.queue = AdmissionQueue(
            clock, {spec.name: spec.weight for spec in tenants},
            queue_capacity)
        self.buckets = {
            spec.name: TokenBucket(clock, spec.rate_limit, spec.burst)
            for spec in tenants
        }
        #: Requests popped and not yet :meth:`release`d.
        self.in_flight = 0
        self._seq = 0

    def stamp(self, priority: int,
              budget: Optional[float] = None) -> tuple[Deadline, int]:
        """A deadline starting now (the class budget unless ``budget`` is
        given) and the next sequence number."""
        now = self._clock()
        if budget is None:
            budget = self.deadlines[priority]
        self._seq += 1
        return Deadline(now, budget), self._seq

    def admit(self, request: Any, writes: bool,
              cost: float = 1.0) -> Optional[str]:
        """Run the reject ladder; ``None`` means the request is queued.

        ``writes`` says whether the request carries a write (refused while
        brownout is at tier 1 or above); ``cost`` is the tokens it takes
        from its tenant's bucket.
        """
        if self.enabled:
            if writes and self.brownout.rejects_writes():
                return "brownout"
            if not self.buckets[request.tenant].try_take(cost):
                return "rate_limited"
        if not self.queue.offer(request):
            return "queue_full"
        return None

    def pop(self) -> Optional[Any]:
        """The next request to serve (now counted in flight), or ``None``.

        Expired requests fail fast and the shed controller's floor drops
        lower classes; both reach ``on_drop`` before the next request is
        tried.  Each served request's sojourn feeds the brownout signal.
        """
        now = self._clock()
        while (request := self.queue.pop()) is not None:
            if self.enabled:
                if request.deadline.expired(now):
                    self._on_drop(request, "expired")
                    continue
                sojourn = now - request.enqueued
                self.shed.observe(sojourn, now)
                if self.shed.should_shed(request):
                    self._on_drop(request, "shed")
                    continue
                self.brownout.observe(sojourn)
            self.in_flight += 1
            return request
        return None

    def release(self) -> None:
        """Account the end of service of one popped request."""
        self.in_flight -= 1

    def balance(self, received: int, answered: int) -> dict:
        """The zero-silent-loss identity: ``silent_loss`` is received minus
        answered minus queued minus in flight, and must always be 0."""
        queued = self.queue.depth
        return {
            "queued": queued,
            "in_flight": self.in_flight,
            "silent_loss": received - answered - queued - self.in_flight,
        }

    def _on_brownout_change(self, old: int, new: int, signal: float) -> None:
        self._bus.publish(
            "frontdoor.brownout", subject=self.name,
            severity=WARNING if new > old else INFO,
            old=TIER_NAMES[old], new=TIER_NAMES[new], signal=signal)
