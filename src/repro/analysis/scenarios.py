"""Sanitizer scenarios: small, bounded facility runs with a known shape.

A scenario is a named callable that builds a :class:`Facility` for a
seed, drives a representative slice of the workload (ingest, HDFS
staging, a MapReduce job), and finishes with a drained or bounded event
queue.  The sanitizer runs scenarios repeatedly — same seed twice for
the determinism check, and once under a randomized tie-shuffle for the
race check — so they must be cheap (seconds, not minutes).

``tiny`` honours the same spirit as the benchmarks' ``LSDF_BENCH_TINY``
knob: the smallest run that still pushes events through every subsystem
layer the invariant claims cover.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Optional

from repro.core.config import FacilityConfig, lsdf_2011_config
from repro.core.facility import Facility
from repro.simkit import units


@dataclass(frozen=True)
class Scenario:
    """A named sanitizer scenario.

    Most scenarios are one-phase: :attr:`run` drives a freshly built
    facility and returns the snapshot.  Scenarios whose *construction*
    already schedules work (the frontdoor drill populates its load
    generator and chaos schedule before the first sim step) use the
    two-phase :attr:`prepare` instead, so the sanitizer can install its
    trace recorder between construction and execution.
    """

    name: str
    description: str
    #: Drives the facility; returns the final state snapshot (a dict) whose
    #: canonical serialisation is the run's outcome digest.
    run: Optional[Callable[[Facility], dict]] = None
    #: Facility config factory (None = the canonical 2011 deployment).
    config: Optional[Callable[[], FacilityConfig]] = None
    #: Two-phase driver: ``prepare(seed) -> (facility, finish)`` where
    #: ``finish()`` advances the clock to quiescence and returns the
    #: snapshot.  When set, :attr:`run` and :attr:`config` are unused.
    prepare: Optional[
        Callable[[int], tuple[Facility, Callable[[], dict]]]] = None
    #: Event-name glob patterns whose same-timestamp reorderings are known
    #: benign and accepted (the runtime analogue of a lint pragma; each
    #: entry should be justified in docs/static_analysis.md).
    races_allowed: tuple[str, ...] = field(default=())

    def build(self, seed: int) -> Facility:
        """Construct the facility this scenario drives, for one seed."""
        if self.prepare is not None:
            raise TypeError(
                f"scenario {self.name!r} is two-phase; use prepare(seed)")
        cfg = self.config() if self.config is not None else None
        return Facility(config=cfg, seed=seed)

    def execute(self, facility: Facility) -> dict:
        """Drive the scenario and return its invariant snapshot."""
        if self.run is None:
            raise TypeError(
                f"scenario {self.name!r} is two-phase; use prepare(seed)")
        return self.run(facility)


def _no_speculation_config() -> FacilityConfig:
    """The canonical facility minus MapReduce speculative execution.

    Speculation is an *intentional* race — idle slots re-run straggling
    attempts and the first finisher wins — so a marginal speculation
    decision legitimately flips under epsilon timing shifts; E7 studies
    it on purpose.  The race sanitizer ablates it to keep the check
    meaningful for everything else.
    """
    cfg = lsdf_2011_config()
    cfg.mr_speculation = False
    return cfg


def _invariants(stats: dict) -> dict:
    """Project a full :meth:`Facility.stats` snapshot onto conservation
    invariants: frame/byte/block accounting, replication health, and
    resilience/durability counters.

    Micro-timing aggregates (wall-clock ``time``, time-integrated
    ``net_bytes``/``cloud_running_vms``, job durations) are deliberately
    excluded: an accepted same-timestamp reordering of symmetric
    consumers changes batch composition, which legitimately shifts those
    by epsilon without any data-path consequence.  Every real race the
    sanitizer has caught so far moved one of the retained counters
    (extra block reads, lost locality, changed task stats).
    """
    hdfs = stats.get("hdfs", {})
    metadata = stats.get("metadata", {})
    resilience = stats.get("resilience", {})
    durability = stats.get("durability", {})
    return {
        "pool_used": stats.get("pool_used"),
        "tape_cartridges": stats.get("tape_cartridges"),
        "hdfs_files": hdfs.get("files"),
        "hdfs_bytes_written": hdfs.get("bytes_written"),
        "hdfs_bytes_read": hdfs.get("bytes_read"),
        "hdfs_node_local_read_fraction": hdfs.get("node_local_read_fraction"),
        "hdfs_under_replicated": hdfs.get("under_replicated"),
        "metadata_datasets": metadata.get("datasets"),
        "metadata_processing_records": metadata.get("processing_records"),
        "metadata_bytes": metadata.get("total_bytes"),
        "resilience_retries": resilience.get("retries"),
        "resilience_timeouts": resilience.get("timeouts"),
        "resilience_dlq_depth": resilience.get("dlq_depth"),
        "resilience_lost_bytes": resilience.get("lost_bytes"),
        "durability_corruptions_detected": durability.get("corruptions_detected"),
        "durability_unrepairable": durability.get("unrepairable"),
        "wal_records": durability.get("metadata", {}).get("wal_records"),
    }


def _run_tiny(facility: Facility) -> dict:
    """Two simulated minutes of zebrafish ingest (all four microscopes,
    metadata registration on) — the smallest end-to-end data path."""
    report = facility.simulate_microscopy_day(duration=120.0)
    snapshot = _invariants(facility.stats())
    snapshot["ingest_frames"] = report.frames_ingested
    snapshot["ingest_unaccounted"] = report.frames_unaccounted
    return snapshot


def _run_standard(facility: Facility) -> dict:
    """Ingest plus the analysis side: a 10-minute screen, a dataset staged
    into HDFS, and one locality-scheduled MapReduce pass over it."""
    from repro.mapreduce.sim import JobSpec

    report = facility.simulate_microscopy_day(duration=600.0)
    staged = facility.load_into_hdfs("/screens/day0", 2 * units.GiB)
    facility.run()
    assert staged.ok
    job = facility.mapreduce.submit(JobSpec(
        name="segment", input_path="/screens/day0", reduces=4,
    ))
    facility.run()
    result = job.value
    snapshot = _invariants(facility.stats())
    snapshot["ingest_frames"] = report.frames_ingested
    snapshot["ingest_unaccounted"] = report.frames_unaccounted
    snapshot["job_completed"] = result is not None
    snapshot["job_locality"] = dict(result.locality_counts)
    snapshot["job_locality_fallbacks"] = result.locality_fallbacks
    snapshot["job_attempts"] = result.attempts
    return snapshot


def _fluid_config() -> FacilityConfig:
    """The canonical facility in fluid-event mode: rate-interval ingest
    with bulk buffer and storage operations."""
    cfg = lsdf_2011_config()
    cfg.fluid_ingest = True
    return cfg


def _run_fluid(facility: Facility) -> dict:
    """Three sim-minutes of fluid-mode (zero-jitter, bulk-batched) ingest
    with an array brown-out in the middle: rate intervals must break at
    the incident boundary, placement must fail over, and conservation
    must still close exactly."""
    from repro.core.chaos import ChaosSchedule, Incident

    schedule = ChaosSchedule([
        Incident(at=60.0, kind="array_degraded",
                 target=(facility.arrays[0].name,), repair_after=60.0),
    ])
    schedule.run(facility)
    report = facility.simulate_microscopy_day(duration=180.0)
    snapshot = _invariants(facility.stats())
    snapshot["ingest_frames"] = report.frames_ingested
    snapshot["ingest_frames_acquired"] = report.frames_acquired
    snapshot["ingest_unaccounted"] = report.frames_unaccounted
    return snapshot


def _prepare_frontdoor(seed: int):
    """A shrunken overload drill (20% scale and duration): admission
    control, fair queueing, deadline propagation and chaos injection all
    exercised on the front-door path, with the drill's own accounting
    gates folded into the snapshot."""
    from repro.frontdoor.drill import prepare_overload_drill

    facility, finish = prepare_overload_drill(
        seed=seed, scale=0.2, duration_scale=0.2)

    def snapshot() -> dict:
        result = finish()
        return {
            "phases": [
                (p.name, p.submitted, p.admitted, p.served)
                for p in result.phases
            ],
            "terminal": dict(sorted(
                result.accounting.get("terminal", {}).items())),
            "submitted": result.accounting.get("submitted"),
            "peak_queue_depth": result.peak_queue_depth,
            "flushed": result.flushed,
            "client_retries": result.client_retries,
            "admitted_retries": result.admitted_retries,
            "silent_loss": result.accounting.get("silent_loss"),
            "failures": list(result.failures),
        }

    return facility, snapshot


SCENARIOS: dict[str, Scenario] = {
    scenario.name: scenario
    for scenario in (
        Scenario(
            name="tiny",
            description="2 sim-minutes of zebrafish ingest (CI smoke)",
            run=_run_tiny,
        ),
        Scenario(
            name="standard",
            description="10-minute ingest + HDFS staging + one MapReduce job "
                        "(speculation ablated: it races by design)",
            run=_run_standard,
            config=_no_speculation_config,
        ),
        Scenario(
            name="fluid",
            description="3-minute fluid-mode ingest (rate intervals + "
                        "bulk operations) with an array brown-out",
            run=_run_fluid,
            config=_fluid_config,
        ),
        Scenario(
            name="frontdoor",
            description="shrunken overload drill: admission control + fair "
                        "queueing + deadlines under backend chaos",
            prepare=_prepare_frontdoor,
        ),
    )
}


def get_scenario(name: str) -> Scenario:
    """Look a scenario up by name (KeyError lists the alternatives)."""
    try:
        return SCENARIOS[name]
    except KeyError:
        raise KeyError(
            f"unknown scenario {name!r}; available: {', '.join(sorted(SCENARIOS))}"
        ) from None
