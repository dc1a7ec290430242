"""Test oracles for netsim: naive solvers and a rebuild-per-event network.

Every netsim optimisation is trusted only because a naive twin lives here
and an *exact*-equality test (``test_differential.py``) holds the
production code to it:

* :func:`_reference_maxmin_rates` — progressive filling that recomputes
  every loaded link's weight sum from scratch each round.  It shares
  :func:`repro.netsim.fairshare._setup` with
  :func:`~repro.netsim.fairshare.maxmin_rates`, so both iterate the same
  insertion-ordered maps; the optimized solver must match it bit for bit.
* :func:`_reference_equal_split_rates` — the naive twin of
  :func:`~repro.netsim.fairshare.equal_split_rates`.
* :class:`ReferenceNetwork` — a :class:`~repro.netsim.Network` that keeps
  no solver state between events: every arrival and every completion pass
  rebuilds the flow -> links, capacity and weight maps from the live flow
  set and solves with the reference solver, with no same-instant batching
  and no skipped solves.
"""

from __future__ import annotations

from typing import Callable, Hashable, Mapping, Sequence

from repro.netsim import Network
from repro.netsim.fairshare import _EPS, _INF, _setup


def _reference_maxmin_rates(
    flow_links: Mapping[Hashable, Sequence[Hashable]],
    capacities: Mapping[Hashable, float],
    weights: Mapping[Hashable, float] | None = None,
) -> dict[Hashable, float]:
    """The retained naive max-min solver (differential-test oracle).

    Every progressive-filling round recomputes every loaded link's weight
    sum from scratch — O(flows x links) per round, quadratic over a run —
    which is exactly what :func:`maxmin_rates` avoids.  Kept deliberately
    simple so its correctness is obvious; the optimized solver must match
    it bit-for-bit (see the module docstring).
    """
    rates, active, w, remaining, members = _setup(flow_links, capacities, weights)

    while active:
        shares: dict[Hashable, float] = {}
        bottleneck = None
        for lid, fids in members.items():
            if not fids:
                continue
            total = 0.0
            for fid in fids:
                total += w[fid]
            share = remaining[lid] / total
            shares[lid] = share
            if bottleneck is None or share < bottleneck:
                bottleneck = share
        if bottleneck is None:
            for fid in active:
                rates[fid] = _INF
            break

        threshold = bottleneck + _EPS
        frozen: dict[Hashable, None] = {}
        for lid, share in shares.items():
            if share <= threshold:
                for fid in members[lid]:
                    frozen[fid] = None
        for fid in frozen:
            rate = bottleneck * w[fid]
            rates[fid] = rate
            for lid in active[fid]:
                members[lid].pop(fid, None)
                left = remaining[lid] - rate
                remaining[lid] = left if left > 0.0 else 0.0
            del active[fid]

    return rates



def _reference_equal_split_rates(
    flow_links: Mapping[Hashable, Sequence[Hashable]],
    capacities: Mapping[Hashable, float],
    weights: Mapping[Hashable, float] | None = None,
) -> dict[Hashable, float]:
    """The retained naive equal-split implementation (differential oracle).

    Recomputes the per-flow weight lookup inside both passes instead of
    caching it — the seed repo's original shape.  Arithmetic mirrors
    :func:`equal_split_rates` exactly.
    """
    weights = weights or {}
    link_load: dict[Hashable, float] = {}
    for fid, links in flow_links.items():
        wf = float(weights.get(fid, 1.0))
        for lid in links:
            if lid not in capacities:
                raise KeyError(f"flow {fid!r} crosses unknown link {lid!r}")
            link_load[lid] = link_load.get(lid, 0.0) + wf

    rates: dict[Hashable, float] = {}
    for fid, links in flow_links.items():
        if len(links) == 0:
            rates[fid] = _INF
            continue
        wf = float(weights.get(fid, 1.0))
        best = None
        for lid in links:
            offer = capacities[lid] * wf / link_load[lid]
            if best is None or offer < best:
                best = offer
        rates[fid] = best
    return rates


#: Naive twins of :data:`repro.netsim.network.SHARING_MODELS`.
REFERENCE_SHARING_MODELS: dict[str, Callable] = {
    "maxmin": _reference_maxmin_rates,
    "equal": _reference_equal_split_rates,
}


class ReferenceNetwork(Network):
    """Rebuild-per-event network: the differential oracle for :class:`Network`.

    It reuses the production event handling (progress integration,
    completion, rerouting, timers) and replaces only the solve: the
    persistent solver inputs are never maintained, same-instant arrivals
    are not batched and no rebalance reuses the previous rates.
    """

    def __init__(self, sim, topology, sharing: str = "maxmin",
                 efficiency: float = 1.0):
        super().__init__(sim, topology, sharing=sharing, efficiency=efficiency)
        self._reference_fn = REFERENCE_SHARING_MODELS[sharing]
        self._share_fn = self._solve_from_scratch

    def _solve_from_scratch(self, _flow_links, _caps, _weights):
        flows = self._flows.values()
        flow_links = {f.fid: [lk.key for lk in f.links] for f in flows}
        capacities = {}
        for flow in flows:
            for link in flow.links:
                capacities[link.key] = link.capacity * self.efficiency
        weights = {f.fid: f.weight for f in flows}
        return self._reference_fn(flow_links, capacities, weights)

    def _track_flow(self, flow) -> None:
        pass

    def _untrack_flow(self, flow) -> None:
        pass

    def _rebuild_tracking(self) -> None:
        pass

    def _request_rebalance(self) -> None:
        # Every arrival solves at once instead of one batched solve per instant.
        self._advance_progress()
        self._rebalance()

    def _rebalance(self) -> None:
        self._dirty = True  # never reuse the previous rates
        super()._rebalance()
