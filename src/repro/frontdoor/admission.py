"""Admission control: token buckets, fair queueing, CoDel-style shedding.

Three mechanisms keep the front door alive under overload:

* :class:`TokenBucket` — per-tenant rate limits (refilled lazily on the
  simulation clock, so an idle bucket costs nothing);
* :class:`AdmissionQueue` — bounded per-tenant, priority-segmented queues
  drained by *start-time fair queueing*: each tenant accumulates virtual
  time at ``1/weight`` per served request and the smallest virtual time is
  served next, which converges to weighted fair shares at per-request
  granularity and is fully deterministic (ties break on tenant name);
* :class:`ShedController` — a CoDel-style drop controller keyed on queue
  *sojourn time*: when the delay of dequeued requests stays above
  ``target`` for a full ``interval``, the controller lowers its shed floor
  one priority class at a time (bulk first, never interactive) and
  recovers the moment sojourn falls back under target.
"""

from __future__ import annotations

from collections import deque
from typing import Callable, Dict, Optional

from repro.frontdoor.request import BATCH, BULK, INTERACTIVE, Request

#: Priority classes in dequeue order (most urgent first).
_CLASSES = (INTERACTIVE, BATCH, BULK)

#: A shed floor of this value drops nothing (all classes admitted).
NO_SHED_FLOOR = BULK + 1


class TokenBucket:
    """A lazily-refilled token bucket on an external clock.

    ``rate`` is tokens/second, ``burst`` the bucket depth.  ``rate=None``
    disables limiting (every take succeeds).
    """

    def __init__(self, clock: Callable[[], float], rate: Optional[float],
                 burst: Optional[float] = None):
        if rate is not None and rate <= 0:
            raise ValueError("rate must be > 0 (or None for unlimited)")
        self._clock = clock
        self.rate = rate
        self.burst = burst if burst is not None else (
            2.0 * rate if rate is not None else 0.0)
        self._tokens = self.burst
        self._stamp = clock()

    def _refill(self) -> None:
        now = self._clock()
        if self.rate is not None and now > self._stamp:
            self._tokens = min(self.burst,
                               self._tokens + (now - self._stamp) * self.rate)
        self._stamp = now

    def try_take(self, n: float = 1.0) -> bool:
        """Take ``n`` tokens if available; never blocks."""
        if self.rate is None:
            return True
        self._refill()
        if self._tokens >= n:
            self._tokens -= n
            return True
        return False

    @property
    def tokens(self) -> float:
        """Tokens currently available (after a lazy refill)."""
        self._refill()
        return self._tokens


class ShedController:
    """CoDel-style adaptive load shedding on queue sojourn time.

    Observed sojourns above ``target`` for a sustained ``interval`` lower
    the shed floor one class at a time; the first sub-target observation
    resets it.  The floor never reaches the interactive class: latency-
    sensitive traffic is protected by shedding everything else first.
    """

    def __init__(self, target: float, interval: float):
        if target <= 0 or interval <= 0:
            raise ValueError("target and interval must be > 0")
        self.target = target
        self.interval = interval
        self.shed_floor = NO_SHED_FLOOR
        self._above_since: Optional[float] = None
        self._next_escalation: Optional[float] = None

    @property
    def shedding(self) -> bool:
        """Whether any class is currently being shed."""
        return self.shed_floor < NO_SHED_FLOOR

    def observe(self, sojourn: float, now: float) -> None:
        """Feed one dequeue's queue delay into the controller."""
        if sojourn < self.target:
            self.shed_floor = NO_SHED_FLOOR
            self._above_since = None
            self._next_escalation = None
            return
        if self._above_since is None:
            self._above_since = now
            self._next_escalation = now + self.interval
            return
        if now >= self._next_escalation:
            # Escalate: drop one more class, but never the interactive one.
            self.shed_floor = max(BATCH, self.shed_floor - 1)
            self._next_escalation = now + self.interval

    def should_shed(self, request: Request) -> bool:
        """Whether the current floor drops this request's class."""
        return request.priority >= self.shed_floor


class _TenantQueue:
    """Internal per-tenant state: priority-segmented deques + fair-queue pass."""

    def __init__(self, name: str, weight: float, capacity: int):
        self.name = name
        self.weight = weight
        self.capacity = capacity
        self.lanes: Dict[int, deque] = {cls: deque() for cls in _CLASSES}
        self.depth = 0
        #: Start-time fair-queueing virtual time.
        self.vtime = 0.0

    def push(self, request: Request) -> None:
        self.lanes[request.priority].append(request)
        self.depth += 1

    def pop(self) -> Request:
        for cls in _CLASSES:
            lane = self.lanes[cls]
            if lane:
                self.depth -= 1
                return lane.popleft()
        raise IndexError("pop from empty tenant queue")


class AdmissionQueue:
    """Bounded per-tenant queues with weighted fair dequeue.

    ``offer`` returns ``False`` when the tenant's queue is full (the caller
    rejects and accounts the request); ``pop`` serves start-time fair
    queueing across tenants.  Deadline fail-fast and shedding at pop are
    the :class:`~repro.frontdoor.core.AdmissionCore`'s policy.
    """

    def __init__(self, clock: Callable[[], float], tenants: Dict[str, float],
                 capacity: int):
        if capacity < 1:
            raise ValueError("capacity must be >= 1")
        for name, weight in sorted(tenants.items()):
            if weight < 1.0:
                raise ValueError(f"tenant {name!r} weight must be >= 1")
        self._clock = clock
        self.capacity = capacity
        self._tenants = {
            name: _TenantQueue(name, weight, capacity)
            for name, weight in sorted(tenants.items())
        }
        self._order = sorted(self._tenants)
        self._global_vtime = 0.0
        self.depth = 0
        self.peak_depth = 0

    def tenant_depth(self, name: str) -> int:
        """Queued requests for one tenant."""
        return self._tenants[name].depth

    def offer(self, request: Request) -> bool:
        """Enqueue a request; ``False`` if the tenant's queue is full."""
        tq = self._tenants[request.tenant]
        if tq.depth >= tq.capacity:
            return False
        if tq.depth == 0:
            # A newly-active tenant joins at the current virtual time so an
            # idle period never banks an unbounded service burst.
            tq.vtime = max(tq.vtime, self._global_vtime)
        request.enqueued = self._clock()
        tq.push(request)
        self.depth += 1
        if self.depth > self.peak_depth:
            self.peak_depth = self.depth
        return True

    def pop(self) -> Optional[Request]:
        """Dequeue the next request under fair sharing (``None`` if empty)."""
        best: Optional[_TenantQueue] = None
        for name in self._order:
            tq = self._tenants[name]
            if tq.depth and (best is None or tq.vtime < best.vtime):
                best = tq
        if best is None:
            return None
        self.depth -= 1
        best.vtime += 1.0 / best.weight
        self._global_vtime = best.vtime
        return best.pop()

    def drain(self) -> list[Request]:
        """Remove and return every queued request (drill finalisation)."""
        out: list[Request] = []
        for name in self._order:
            tq = self._tenants[name]
            for cls in _CLASSES:
                out.extend(tq.lanes[cls])
                tq.lanes[cls].clear()
            tq.depth = 0
        self.depth = 0
        return out
