"""One admission core, two drivers: the same scenarios through both.

Each scenario pushes the simkit :class:`~repro.frontdoor.FrontDoor` and
the asyncio :class:`~repro.adal.wire.WireServer` into one decision of the
shared :class:`~repro.frontdoor.AdmissionCore` — a rejection or a queue
drop — and checks that each driver reports it under the same core reason,
with a closed balance sheet (``silent_loss == 0``).  The wire arm runs a
real server on an ephemeral localhost port.
"""

import asyncio

import pytest

from repro.adal import AdalClient, BackendRegistry, MemoryBackend
from repro.adal.wire import RequestRejectedError, WireClient, WireServer
from repro.frontdoor import BULK, FrontDoor, TenantSpec
from repro.metadata.store import MetadataStore
from repro.resilience.errors import DeadlineExceededError
from repro.telemetry.hub import TelemetryHub

SCENARIOS = ("rate_limited", "queue_full", "brownout", "expired", "shed")

#: FrontDoor terminal outcome of each queue-side drop reason.
_DOOR_DROPS = {"timed_out": "expired", "shed": "shed"}


def _brown_out(brownout):
    for _ in range(60):
        brownout.observe(10.0)
    assert brownout.rejects_writes()


# -- the simkit driver --------------------------------------------------------

def _door(sim, **kwargs):
    registry = BackendRegistry()
    registry.register("s", MemoryBackend())
    client = AdalClient(registry, telemetry=TelemetryHub.for_sim(sim))
    kwargs.setdefault("tenants", (TenantSpec("t"),))
    return FrontDoor(sim, client, **kwargs)


def _door_reasons(sim, door, submissions):
    """Submit ``(op, make_request kwargs)`` pairs, run to quiescence and
    translate the door's terminal accounting back into core reasons."""
    for index, (op, kwargs) in enumerate(submissions):
        door.submit(door.make_request("t", op, f"adal://s/t/o{index}",
                                      **kwargs))
    sim.run()
    reasons = []
    reg = TelemetryHub.for_sim(sim).registry
    for labels, counter in reg.samples("frontdoor.rejected_total"):
        reasons += [labels["reason"]] * int(counter.value)
    acct = door.accounting()
    for outcome, reason in _DOOR_DROPS.items():
        reasons += [reason] * acct["terminal"][outcome]
    return reasons, acct["silent_loss"]


def _run_frontdoor(sim, scenario):
    if scenario == "rate_limited":
        door = _door(sim, tenants=(TenantSpec("t", rate_limit=1.0,
                                              burst=1.0),))
        return _door_reasons(sim, door, [("get", {})] * 2)
    if scenario == "queue_full":
        door = _door(sim, queue_capacity=1)
        return _door_reasons(sim, door, [("get", {})] * 2)
    if scenario == "brownout":
        door = _door(sim)
        _brown_out(door.brownout)
        return _door_reasons(sim, door, [("put", {"nbytes": 1.0}),
                                         ("get", {})])
    if scenario == "expired":
        # A 2.05 s request holds the only worker past the second's budget.
        door = _door(sim, workers=1)
        return _door_reasons(sim, door, [("get", {"nbytes": 100e6}),
                                         ("get", {"budget": 1.0})])
    # shed: 0.3 s per request keeps bulk sojourn above the 0.5 s CoDel
    # target for the 2 s interval, then the rest of the backlog is shed.
    door = _door(sim, workers=1, service_overhead=0.3)
    return _door_reasons(sim, door, [("get", {"priority": BULK})] * 12)


# -- the asyncio driver -------------------------------------------------------

def _wire_reason(outcome):
    """The core reason behind one client-side call outcome (None = served)."""
    if isinstance(outcome, RequestRejectedError):
        return outcome.reason
    if isinstance(outcome, DeadlineExceededError):
        return "expired"
    if isinstance(outcome, BaseException):
        raise outcome
    return None


async def _staggered(client, calls, gap=0.05):
    """Issue ``(op, args, call kwargs)`` calls ``gap`` seconds apart, then
    await them all; returns each call's result or exception."""
    futures = []
    for op, args, kwargs in calls:
        futures.append(asyncio.ensure_future(
            client.call(op, args, batch=False, **kwargs)))
        await asyncio.sleep(gap)
    return await asyncio.gather(*futures, return_exceptions=True)


def _run_wire(scenario):
    # Half a second of stall leaves ample margin for the 0.05 s gaps.
    stall = ("stall", {"seconds": 0.5}, {})
    ping = ("ping", {}, {})
    if scenario == "rate_limited":
        kwargs = {"tenants": [TenantSpec("public", rate_limit=0.001,
                                         burst=1.0)]}
        calls = [ping, ping]
    elif scenario == "queue_full":
        # Four tenants keep the total depth under the backpressure mark
        # while tenant "a" fills its one-slot queue behind a stalled worker.
        kwargs = {"tenants": [TenantSpec(name) for name in "abcd"],
                  "queue_capacity": 1, "workers": 1, "debug_ops": True}
        calls = [("stall", {"seconds": 0.5}, {"tenant": "a"}),
                 ("stall", {"seconds": 0.01}, {"tenant": "a"}),
                 ("ping", {}, {"tenant": "a"})]
    elif scenario == "brownout":
        kwargs = {}
        calls = [("tag", {"dataset_id": "d0", "tags": ["x"]}, {}), ping]
    elif scenario == "expired":
        kwargs = {"workers": 1, "debug_ops": True}
        calls = [stall, ("ping", {}, {"budget": 0.1})]
    else:
        # 0.15 s stalls keep bulk sojourn above the 0.25 s CoDel target for
        # the 1 s interval, then the rest of the backlog is shed.
        kwargs = {"workers": 1, "debug_ops": True}
        calls = [("stall", {"seconds": 0.15}, {"priority": BULK})] * 16

    async def go():
        store = MetadataStore()
        server = WireServer(store, **kwargs)
        if scenario == "brownout":
            _brown_out(server.brownout)
        await server.start()
        client = WireClient("127.0.0.1", server.port)
        try:
            gap = 0.0 if scenario == "shed" else 0.05
            outcomes = await _staggered(client, calls, gap)
            return outcomes, server.accounting()["silent_loss"]
        finally:
            await client.close()
            await server.stop()

    outcomes, silent_loss = asyncio.run(go())
    reasons = [_wire_reason(o) for o in outcomes]
    return [r for r in reasons if r is not None], silent_loss


# -- the shared suite ---------------------------------------------------------

@pytest.mark.parametrize("driver", ["frontdoor", "wire"])
@pytest.mark.parametrize("scenario", SCENARIOS)
def test_same_reason_and_zero_silent_loss(sim, driver, scenario):
    if driver == "frontdoor":
        reasons, silent_loss = _run_frontdoor(sim, scenario)
    else:
        reasons, silent_loss = _run_wire(scenario)
    assert reasons, f"{driver} never reached {scenario}"
    assert set(reasons) == {scenario}
    assert silent_loss == 0
