"""Bandwidth-sharing models for the fluid network simulator.

:func:`maxmin_rates` implements weighted max-min fairness by progressive
filling — the standard model of what long-lived TCP flows converge to on a
shared network, and the default for all experiments.  It is the optimized
production solver: per-link weight sums are cached between filling rounds
and recomputed only for links whose membership changed, and frozen flows
are collected from the saturated links directly instead of rescanning the
whole active set.

Its differential-test oracle, a naive solver that recomputes every link's
weight sum from scratch each round, lives in ``tests/netsim/oracles.py``.
Both perform *bit-identical arithmetic*: they build the same
insertion-ordered membership maps (:func:`_setup`), sum weights
left-to-right over the same element order, freeze flows in the same order,
and apply capacity subtractions in the same sequence.  The differential
property tests (``tests/netsim/test_differential.py``) assert **exact**
equality of their outputs, which is what makes the optimized solver
trustworthy.  If you touch :func:`maxmin_rates`, keep the arithmetic order
mirrored or those tests will catch you.

:func:`equal_split_rates` is the ablation alternative (DESIGN.md §4): each
link naively divides its capacity equally among crossing flows and a flow
gets the minimum along its path.  It underestimates achievable rates because
capacity "freed" by flows bottlenecked elsewhere is not redistributed.
Its naive twin lives next to the max-min oracle.

All are pure functions of ``(flow -> links)`` and ``(link -> capacity)``,
which makes them directly property-testable (see
``tests/netsim/test_fairshare.py``).

Determinism note: no bare sets are iterated anywhere (REP008) — every
ordered container is an insertion-ordered dict, so results are identical
across processes regardless of hash randomization.
"""

from __future__ import annotations

from typing import Hashable, Mapping, Sequence

_EPS = 1e-12

_INF = float("inf")


def _setup(
    flow_links: Mapping[Hashable, Sequence[Hashable]],
    capacities: Mapping[Hashable, float],
    weights: Mapping[Hashable, float] | None,
):
    """Validated setup shared by :func:`maxmin_rates` and its test oracle.

    Returns ``(rates, active, w, remaining, members)`` where ``rates`` is
    pre-populated with the unconstrained (empty-path) flows, ``active``
    maps constrained flow ids to their link tuples, ``w`` holds validated
    float weights, ``remaining`` the validated float capacities and
    ``members`` the per-link insertion-ordered membership maps
    (``lid -> {fid: None}``).  All containers are insertion-ordered dicts;
    the solver and its oracle iterate them identically, which is what
    guarantees bit-identical results.
    """
    weights = weights or {}
    rates: dict[Hashable, float] = {}
    active: dict[Hashable, tuple[Hashable, ...]] = {}
    w: dict[Hashable, float] = {}
    for fid, links in flow_links.items():
        if len(links) == 0:
            rates[fid] = _INF
            continue
        wf = float(weights.get(fid, 1.0))
        if wf <= 0:
            raise ValueError(f"flow {fid!r}: weight must be > 0")
        active[fid] = tuple(links)
        w[fid] = wf
    remaining: dict[Hashable, float] = {}
    for lid, cap in capacities.items():
        cap = float(cap)
        if cap <= 0:
            raise ValueError(f"link {lid!r}: capacity must be > 0")
        remaining[lid] = cap
    members: dict[Hashable, dict[Hashable, None]] = {}
    for fid, links in active.items():
        for lid in links:
            if lid not in remaining:
                raise KeyError(f"flow {fid!r} crosses unknown link {lid!r}")
            group = members.get(lid)
            if group is None:
                members[lid] = {fid: None}
            else:
                group[fid] = None
    return rates, active, w, remaining, members


def maxmin_rates(
    flow_links: Mapping[Hashable, Sequence[Hashable]],
    capacities: Mapping[Hashable, float],
    weights: Mapping[Hashable, float] | None = None,
) -> dict[Hashable, float]:
    """Weighted max-min fair rates by progressive filling (optimized).

    Parameters
    ----------
    flow_links:
        Maps each flow id to the links (hashable ids) on its path.  A flow
        with an empty path is unconstrained and gets ``float('inf')``.
    capacities:
        Maps each link id to its capacity (> 0).
    weights:
        Optional per-flow weights (> 0, default 1.0).  A flow's share of a
        bottleneck is proportional to its weight.

    Returns
    -------
    dict mapping each flow id to its rate.

    Invariants (property-tested)
    ----------------------------
    * no link's total allocated rate exceeds its capacity (within epsilon);
    * every flow is bottlenecked: it crosses at least one saturated link
      (or is unconstrained);
    * with equal weights, flows sharing identical paths get equal rates;
    * output is bit-identical to the naive oracle in
      ``tests/netsim/oracles.py``.
    """
    rates, active, w, remaining, members = _setup(flow_links, capacities, weights)

    if len(active) == 1:
        # Single constrained flow: its rate is its weighted share of the
        # tightest link.  Arithmetic mirrors the general round exactly
        # (share = remaining / wsum, then rate = bottleneck * weight).
        for fid, links in active.items():
            wf = w[fid]
            bottleneck = None
            for lid in members:
                share = remaining[lid] / wf
                if bottleneck is None or share < bottleneck:
                    bottleneck = share
            rates[fid] = bottleneck * wf
        return rates

    # Per-link weight sums, cached across rounds; only the links touched by
    # a freezing round are recomputed (over an unchanged membership map a
    # recomputation would reproduce the cached value bit-for-bit, so the
    # cache never diverges from the reference's recompute-everything loop).
    wsum: dict[Hashable, float] = {}
    for lid, fids in members.items():
        total = 0.0
        for fid in fids:
            total += w[fid]
        wsum[lid] = total
    loaded: dict[Hashable, None] = dict.fromkeys(members)

    while active:
        shares: dict[Hashable, float] = {}
        bottleneck = None
        for lid in loaded:
            share = remaining[lid] / wsum[lid]
            shares[lid] = share
            if bottleneck is None or share < bottleneck:
                bottleneck = share
        if bottleneck is None:
            # All remaining flows cross only unloaded links (cannot happen,
            # every active flow loads its links) — defensive exit.
            for fid in active:
                rates[fid] = _INF
            break

        threshold = bottleneck + _EPS
        frozen: dict[Hashable, None] = {}
        for lid, share in shares.items():
            if share <= threshold:
                for fid in members[lid]:
                    frozen[fid] = None
        touched: dict[Hashable, None] = {}
        for fid in frozen:
            rate = bottleneck * w[fid]
            rates[fid] = rate
            for lid in active[fid]:
                members[lid].pop(fid, None)
                left = remaining[lid] - rate
                remaining[lid] = left if left > 0.0 else 0.0
                touched[lid] = None
            del active[fid]
        for lid in touched:
            fids = members[lid]
            if fids:
                total = 0.0
                for fid in fids:
                    total += w[fid]
                wsum[lid] = total
            else:
                del loaded[lid]

    return rates


def equal_split_rates(
    flow_links: Mapping[Hashable, Sequence[Hashable]],
    capacities: Mapping[Hashable, float],
    weights: Mapping[Hashable, float] | None = None,
) -> dict[Hashable, float]:
    """Naive equal-split sharing (ablation baseline).

    Each link offers ``capacity / n_flows`` to every crossing flow
    (weight-proportionally when weights are given); a flow's rate is the
    minimum offer along its path.  Never exceeds link capacities, but wastes
    capacity relative to max-min fairness.
    """
    weights = weights or {}
    w: dict[Hashable, float] = {}
    link_load: dict[Hashable, float] = {}
    for fid, links in flow_links.items():
        wf = float(weights.get(fid, 1.0))
        w[fid] = wf
        for lid in links:
            if lid not in capacities:
                raise KeyError(f"flow {fid!r} crosses unknown link {lid!r}")
            link_load[lid] = link_load.get(lid, 0.0) + wf

    rates: dict[Hashable, float] = {}
    for fid, links in flow_links.items():
        if len(links) == 0:
            rates[fid] = _INF
            continue
        wf = w[fid]
        best = None
        for lid in links:
            offer = capacities[lid] * wf / link_load[lid]
            if best is None or offer < best:
                best = offer
        rates[fid] = best
    return rates
