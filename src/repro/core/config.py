"""Facility configuration.

:func:`lsdf_2011_config` encodes the deployment the paper describes:
slide 7's "currently 2 PB in 2 storage systems" (DDN 0.5 PB + IBM 1.4 PB),
the tape library, the dedicated 10 GE backbone with redundant routers, and
slide 11's "dedicated 60 nodes cluster ... + 110 TB Hadoop filesystem".
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.simkit import units


@dataclass(frozen=True)
class ArraySpec:
    """One disk storage system."""

    name: str
    capacity: float
    bandwidth: float
    op_overhead: float = 0.005


@dataclass
class FacilityConfig:
    """Everything needed to build a :class:`~repro.core.facility.Facility`."""

    # -- storage (slide 7) ----------------------------------------------------
    arrays: list[ArraySpec] = field(default_factory=list)
    tape_drives: int = 6
    tape_drive_bw: float = 120 * units.MB
    tape_cartridge_bytes: float = 1 * units.TB
    tape_mount_time: float = 45.0
    hsm_high_water: float = 0.85
    hsm_low_water: float = 0.70

    # -- network (slide 7) -------------------------------------------------------
    daq_count: int = 4
    trunk_gbits: float = 10.0
    storage_gbits: float = 10.0
    wan_gbits: float = 10.0
    sharing: str = "maxmin"
    network_efficiency: float = 1.0

    # -- fluid-event kernel -------------------------------------------------------
    #: Run ingest in fluid (rate-interval) mode: deterministic microscopes
    #: are coalesced into chunked bulk arrivals — exact for arrival_cv ==
    #: size_cv == 0, refused otherwise.
    fluid_ingest: bool = False
    #: Frames per fluid-mode rate interval.
    fluid_chunk_frames: int = 64

    # -- analysis cluster (slide 11) ------------------------------------------------
    cluster_racks: int = 4
    nodes_per_rack: int = 15
    cluster_node_gbits: float = 1.0
    rack_uplink_gbits: float = 10.0
    hdfs_node_capacity: float = 2 * units.TB  # 60 x 2 TB ≈ 110 TB usable
    hdfs_block_size: float = 64 * units.MiB
    hdfs_replication: int = 3
    hdfs_placement: str = "rack_aware"
    node_disk_bw: float = 80 * units.MB

    # -- MapReduce ---------------------------------------------------------------------
    map_slots_per_node: int = 2
    reduce_slots_per_node: int = 2
    mr_scheduler: str = "delay"
    mr_speculation: bool = True

    # -- cloud (slide 11) -----------------------------------------------------------------
    cloud_host_cpus: int = 8
    cloud_host_mem: float = 24 * units.GB
    cloud_scheduler: str = "rank"
    cloud_boot_time: float = 25.0
    cloud_image_cache: bool = True

    # -- resilience layer ---------------------------------------------------------------
    #: Master switch: when False the facility behaves exactly like the seed
    #: code paths (no retries, no breakers, no dead-letter queue).
    resilience_enabled: bool = True
    retry_max_attempts: int = 5
    retry_base_delay: float = 2.0
    retry_multiplier: float = 2.0
    retry_max_delay: float = 30.0
    retry_jitter: float = 0.1
    breaker_failure_threshold: int = 3
    breaker_reset_timeout: float = 120.0
    #: Half-open probe lease in seconds: a probe slot that produced no
    #: verdict for this long is reclaimed by the next caller (None = the
    #: reset timeout, which preserves pre-lease behaviour bounds).
    breaker_probe_timeout: float | None = None
    #: Bound of the shared dead-letter queue (None = unbounded, the
    #: historical behaviour; bounded queues evict oldest-first).
    dlq_capacity: int | None = None
    #: Optional per-batch ingest transfer deadline in seconds (None = off).
    ingest_transfer_timeout: float | None = None

    # -- durability layer ---------------------------------------------------------------
    #: Master switch: when False the scrubber neither archives nor repairs
    #: (detection-only) — the E14 ablation's "off" arm.
    durability_enabled: bool = True
    #: Back the metadata repository with a write-ahead log (crash recovery).
    metadata_wal: bool = True
    #: Auto-checkpoint the WAL every N appends (None = only explicit snapshots).
    metadata_snapshot_every: int | None = 256
    #: Integrity-scrub budget in bytes/second of simulated time.
    scrub_bandwidth: float = 500 * units.MB
    #: Sleep between scrub passes when the daemon runs.
    scrub_interval: float = 6 * units.HOUR
    #: ADAL stores under durability management (scrubbed and audited).
    audit_stores: tuple[str, ...] = ("lsdf",)

    # -- placement policy ---------------------------------------------------------------
    #: Master switch: when False the convergence daemon detects drift but
    #: executes nothing (detection-only ablation arm).
    policy_enabled: bool = True
    #: Off-system replica stores, in declaration order (registered as ADAL
    #: backends and used as repair-planner restore sources).
    policy_replica_stores: tuple[str, ...] = ("replica-a",)
    #: Install the paper's per-community default placement rules.
    policy_default_rules: bool = True
    #: Convergence budget in bytes/second of simulated time.
    policy_bandwidth: float = 500 * units.MB
    #: Sleep between convergence passes when the daemon runs.
    policy_interval: float = 6 * units.HOUR
    #: Strikes before a persistently failing drift is abandoned (dead-
    #: lettered with a ``policy.gave_up`` event).
    policy_max_retries: int = 3
    #: Re-detection rounds per convergence pass.
    policy_max_rounds: int = 8
    #: Per-community replica byte budget (None = unlimited).
    policy_quota_bytes: float | None = None

    # -- overload-safe front door -------------------------------------------------------
    #: Master switch: when False the door still serves but with every
    #: overload defence off (no rate limits, shedding, brownout or
    #: deadline fail-fast) — the E18 ablation's naive arm.
    frontdoor_enabled: bool = True
    #: Worker processes draining the admission queue.
    frontdoor_workers: int = 4
    #: Bound of each tenant's admission queue.
    frontdoor_queue_capacity: int = 256
    #: Multiplier on tenant client counts *and* rate limits (tiny CI arms).
    frontdoor_scale: float = 1.0
    #: CoDel-style shed controller: sojourn target and escalation interval.
    frontdoor_codel_target: float = 0.5
    frontdoor_codel_interval: float = 2.0
    #: Queue-delay level (seconds) the brownout signal is normalised to.
    frontdoor_brownout_target: float = 1.0
    #: Service-time model: overhead + nbytes / bandwidth per attempt.
    frontdoor_service_overhead: float = 0.05
    frontdoor_service_bandwidth: float = 50 * units.MB
    #: Deadline budgets (seconds) by priority class (interactive, batch, bulk).
    frontdoor_deadlines: tuple[float, float, float] = (4.0, 15.0, 60.0)
    #: Bound of the door's private dead-letter queue.
    frontdoor_dlq_capacity: int | None = 512
    #: The door's own breaker board (gentler than the facility board).
    frontdoor_breaker_threshold: int = 6
    frontdoor_breaker_reset: float = 20.0
    frontdoor_breaker_probe_timeout: float = 10.0

    # -- telemetry spine ----------------------------------------------------------------
    #: Master switch: when False the metrics registry and event bus become
    #: no-ops (instruments still exist, recording is skipped) — the E15
    #: overhead benchmark's "off" arm.
    telemetry_enabled: bool = True

    # -- workflow director --------------------------------------------------------------
    #: Bounded retries for failed actor firings (0 = fire once, seed behaviour).
    director_retry_attempts: int = 2
    #: Base delay between firing retries, seconds (exponential backoff).
    director_retry_base_delay: float = 5.0

    @property
    def cluster_nodes(self) -> int:
        """Total analysis-cluster node count."""
        return self.cluster_racks * self.nodes_per_rack

    @property
    def disk_capacity(self) -> float:
        """Total disk-array capacity."""
        return sum(a.capacity for a in self.arrays)


def lsdf_2011_config() -> FacilityConfig:
    """The canonical deployment of the paper (May 2011)."""
    return FacilityConfig(
        arrays=[
            ArraySpec("ddn", capacity=0.5 * units.PB, bandwidth=3 * units.GB),
            ArraySpec("ibm", capacity=1.4 * units.PB, bandwidth=5 * units.GB),
        ]
    )
