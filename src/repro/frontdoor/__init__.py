"""The overload-safe ADAL front door.

A request-serving layer between clients and the ADAL data path that stays
predictable when offered load exceeds capacity: bounded per-tenant
admission queues drained by weighted fair queueing, token-bucket rate
limits, CoDel-style adaptive shedding, brownout degradation tiers, and
end-to-end deadline propagation — plus the open-loop load generator and
the overload drill that prove it all works under a 5x saturation ramp.
"""

from repro.frontdoor.admission import (
    NO_SHED_FLOOR,
    AdmissionQueue,
    ShedController,
    TokenBucket,
)
from repro.frontdoor.brownout import TIER_NAMES, BrownoutController
from repro.frontdoor.core import REJECT_REASONS, AdmissionCore
from repro.frontdoor.drill import DrillResult, PhaseStat, run_overload_drill
from repro.frontdoor.loadgen import LoadGenerator
from repro.frontdoor.request import (
    BATCH,
    BULK,
    INTERACTIVE,
    OUTCOMES,
    PRIORITY_NAMES,
    Deadline,
    Request,
    TenantSpec,
    default_tenants,
    scaled_tenants,
)
from repro.frontdoor.service import FrontDoor

__all__ = [
    "AdmissionCore",
    "AdmissionQueue",
    "BrownoutController",
    "BATCH",
    "BULK",
    "Deadline",
    "DrillResult",
    "FrontDoor",
    "INTERACTIVE",
    "LoadGenerator",
    "NO_SHED_FLOOR",
    "OUTCOMES",
    "PRIORITY_NAMES",
    "PhaseStat",
    "REJECT_REASONS",
    "Request",
    "ShedController",
    "TIER_NAMES",
    "TenantSpec",
    "TokenBucket",
    "default_tenants",
    "run_overload_drill",
    "scaled_tenants",
]
