"""The three simulated workloads: fluid ingest, per-frame ingest and
cluster staging.

Each *episode* builds a fresh facility from ``lsdf_2011_config()`` (the
scheduler, the solver threshold and the snapshot cadence stay at their
defaults), feeds it the workload's inputs and lets the program drive the
simulator: ``pipeline.run(horizon)`` for ingest, ``facility.run()`` for
the cluster.  A timed episode installs :class:`harness.SteppedRun` on the
simulator, which splits those calls into fixed simulated steps and times
each step; the traced run's traced episode runs unsliced under the
profiler, and its fingerprint must equal the sliced episodes'.
"""

from __future__ import annotations

import cProfile
import gc
import hashlib
import pstats
from statistics import fmean

from harness import (
    Speed,
    SteppedRun,
    StoreProbe,
    Tracer,
    check_repeat,
    compare,
    dataset_to_dict_calls,
    layer_self_times,
    median,
    now,
    percentile,
    run_budget,
    safe_div,
    total_calls,
)
from repro.core import Facility
from repro.core.config import lsdf_2011_config
from repro.netsim.traffic import TrafficConfig, TrafficGenerator
from repro.simkit.units import GB, HOUR
from repro.workloads import viz3d_cluster_job, zebrafish_microscopes

#: Simulated seconds the simulator advances between two wall-clock reads.
STEP_S = 15.0

INGEST = {
    # Deterministic scopes: the only input fluid mode accepts.  Two
    # simulated hours so the catalog grows to ~16.7k records and the
    # per-frame cost of its snapshots shows in ingest.cost_growth.
    "ingest_fluid": {"fluid": True, "horizon": 2 * HOUR},
    # Jittered scopes through the per-frame path; netsim and simkit
    # dominate, so one simulated hour already gives ~8.3k frames.
    "ingest_discrete": {"fluid": False, "horizon": 1 * HOUR},
}
#: The catalog calls a traced ingest episode puts spans around.
INGEST_SPANS = {"register_dataset": "metadata.register",
                "snapshot": "durability.snapshot"}
#: Bytes staged into HDFS for cluster_stage: the smallest round size
#: whose viz3d job still lands in E9's 12-28 min band on 60 nodes.
CLUSTER_BYTES = 0.7e12
CLUSTER_PATH = "/data/volume"
#: E9's acceptance band for the simulated job, in minutes.
JOB_BAND_MIN = (12.0, 28.0)
#: Inputs (facility seeds) every run averages over.  cluster_stage's
#: wall time depends most on the input (0.36k-0.76k blocks/s over 30
#: inputs), so it takes four.
INPUTS = {"ingest_fluid": 2, "ingest_discrete": 2, "cluster_stage": 4}
#: Facility builds timed per run for ``setup_s``.
SETUPS = 41


# -- facility set-up ----------------------------------------------------------
def build_ingest(seed: int, fluid: bool, horizon: float):
    """Facility, pipeline and background traffic for one ingest episode."""
    fac = Facility(lsdf_2011_config(), seed=seed)
    pipeline = fac.ingest_pipeline(
        zebrafish_microscopes(instruments=6, deterministic=fluid),
        agents=4, fluid=fluid)
    endpoints = (fac.names.daq + fac.names.storage + [fac.names.heidelberg]
                 + fac.names.cluster[:8])
    traffic = TrafficGenerator(
        fac.sim, fac.net, endpoints,
        TrafficConfig(mean_interarrival=2.0, size_lo=0.5 * GB,
                      size_hi=10 * GB))
    traffic.start(duration=horizon)
    return fac, pipeline


def build_cluster(seed: int):
    """Facility with the staging-then-viz3d scenario process scheduled."""
    fac = Facility(lsdf_2011_config(), seed=seed)
    holder: dict = {}

    def scenario():
        yield fac.load_into_hdfs(CLUSTER_PATH, CLUSTER_BYTES)
        holder["staged_at"] = fac.sim.now
        holder["job"] = yield fac.mapreduce.submit(
            viz3d_cluster_job(CLUSTER_PATH))

    holder["process"] = fac.sim.process(scenario(), name="cluster_stage")
    return fac, holder


def _sim_counters(fac) -> dict:
    net = fac.net
    return {
        "events": fac.sim.events_scheduled,
        "solves": int(net.solves.value),
        "vector_solves": int(net.vector_solves.value),
        "solves_skipped": int(net.solves_skipped.value),
        "rebalances": int(net.rebalances.value),
        "route_hits": net.topology.route_cache_hits,
        "route_misses": net.topology.route_cache_misses,
        "snapshots": fac.metadata.snapshots,
        "wal_records": fac.metadata.wal.appended,
    }


def _sha(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def _drive(run, profiler: cProfile.Profile | None):
    """Call the program's ``run``, under the profiler if one is given, and
    return its result and wall seconds."""
    started = now()
    if profiler is not None:
        profiler.enable()
    try:
        result = run()
    finally:
        if profiler is not None:
            profiler.disable()
    return result, now() - started


def _scaled(setup: float, wall: float, stepper: SteppedRun | None) -> dict:
    """Raw and reference-scaled times of one episode.

    Each step is scaled by the machine speed sampled around it, the rest
    of the driving (report, stopping agents) by the episode's median
    speed.  ``timed_steps`` are the steps of the program's first
    ``sim.run`` call: the acquisition horizon for ingest (not the drain),
    the whole run for the cluster.  An unsliced episode keeps raw times.
    """
    if stepper is None:
        return {"setup": setup, "wall": wall, "scaled_wall": wall,
                "scaled_setup": setup, "timed_steps": [], "progress": []}
    speed = stepper.speed
    scales = speed.rolling_scales()
    steps = stepper.all_steps()
    scaled = [w * k for w, k in zip(steps, scales)]
    rest = wall - sum(steps) - speed.spent
    first = len(stepper.steps[0])
    return {"setup": setup, "wall": wall - speed.spent,
            "scaled_wall": sum(scaled) + rest * speed.scale(),
            "scaled_setup": setup * speed.scale(),
            "timed_steps": scaled[:first], "progress": stepper.progress[0]}


# -- one episode ----------------------------------------------------------
def ingest_episode(seed: int, fluid: bool, horizon: float, sliced: bool,
                   tracer: Tracer | None = None,
                   profiler: cProfile.Profile | None = None) -> dict:
    started = now()
    fac, pipeline = build_ingest(seed, fluid, horizon)
    setup = now() - started
    store = fac.metadata
    probe = StoreProbe(store, tracer, INGEST_SPANS) if tracer else None
    stepper = SteppedRun(fac.sim, STEP_S, lambda: int(
        sum(a.ingested.value for a in pipeline.agents))) if sliced else None
    report, wall = _drive(lambda: pipeline.run(horizon), profiler)
    if probe is not None:
        probe.remove()

    problems = []
    if report.frames_unaccounted:
        problems.append(f"{report.frames_unaccounted} frames unaccounted")
    if len(store) != report.frames_ingested:
        problems.append(f"catalog holds {len(store)} records for "
                        f"{report.frames_ingested} ingested frames")
    state = store.state_bytes()
    fingerprint = {
        "frames_acquired": report.frames_acquired,
        "frames_ingested": report.frames_ingested,
        "bytes_ingested": report.bytes_ingested,
        "latency_p95": report.latency_p95,
        "backlog_peak": report.backlog_peak_bytes,
        "catalog_sha256": _sha(state),
    }
    counters = _sim_counters(fac)
    tick = now()
    store.crash()
    replayed = store.recover()
    recover_s = now() - tick
    if store.state_bytes() != state:
        problems.append("catalog state changed across crash()/recover()")
    failed = (report.frames_dropped + report.frames_dead_lettered
              + report.frames_lost)
    return {
        **_scaled(setup, wall, stepper),
        "ops": report.frames_ingested, "attempted": report.frames_acquired,
        "failed": failed, "fingerprint": fingerprint, "counters": counters,
        "problems": problems, "recover_s": recover_s, "replayed": replayed,
        "wal_bytes_per_record": probe.wal_bytes_per_record() if probe else 0,
        "snapshot_bytes": len(store.wal.snapshot or b""),
    }


def cluster_episode(seed: int, sliced: bool,
                    profiler: cProfile.Profile | None = None) -> dict:
    started = now()
    fac, holder = build_cluster(seed)
    setup = now() - started
    process = holder["process"]
    stepper = SteppedRun(fac.sim, STEP_S) if sliced else None
    _, wall = _drive(fac.run, profiler)

    problems = []
    if process.failed:
        problems.append(f"scenario failed: {process.exception!r}")
        return {**_scaled(setup, wall, stepper), "problems": problems,
                "ops": 0, "attempted": 1, "failed": 1, "fingerprint": {},
                "counters": {}}
    job = holder["job"]
    minutes = job.duration / 60.0
    if not JOB_BAND_MIN[0] <= minutes <= JOB_BAND_MIN[1]:
        problems.append(f"viz3d job took {minutes:.1f} simulated min, "
                        f"outside E9's {JOB_BAND_MIN} band")
    blocks = len(fac.hdfs.namenode.file_blocks(CLUSTER_PATH))
    fingerprint = {
        "staged_at": holder["staged_at"],
        "job_duration": job.duration,
        "locality": job.locality_fraction,
        "maps": job.maps,
        "bytes_shuffled": job.bytes_shuffled,
        "blocks": blocks,
        "catalog_sha256": _sha(fac.metadata.state_bytes()),
    }
    return {
        **_scaled(setup, wall, stepper), "ops": blocks,
        "attempted": job.attempts + 1,
        # The staging process and every map/reduce attempt must succeed;
        # failed attempts would surface as a failed scenario above.
        "failed": 0, "fingerprint": fingerprint,
        "counters": _sim_counters(fac), "problems": problems,
        "job": job,
    }


# -- metrics -------------------------------------------------------------------
def _cost_growth(episodes: list[dict]) -> float:
    """µs per frame in the horizon's last quarter / first quarter, pooled
    over episodes, from reference-scaled step times."""
    first_s = first_frames = last_s = last_frames = 0.0
    for ep in episodes:
        steps, progress = ep["timed_steps"], ep["progress"]
        n = len(steps)
        quarter = n // 4
        first_s += sum(steps[:quarter])
        first_frames += progress[quarter] - progress[0]
        last_s += sum(steps[n - quarter:])
        last_frames += progress[n] - progress[n - quarter]
    return safe_div(safe_div(last_s, last_frames),
                    safe_div(first_s, first_frames))


def _episode(kind: str, seed: int, sliced: bool, tracer=None,
             profiler=None) -> dict:
    if kind == "cluster_stage":
        return cluster_episode(seed, sliced, profiler)
    spec = INGEST[kind]
    return ingest_episode(seed, spec["fluid"], spec["horizon"], sliced,
                          tracer, profiler)


def _inputs(kind: str, seed: int) -> list[int]:
    """Facility seeds of a run's inputs, all derived from ``seed``.

    Wall time depends on the input by up to 2x on cluster_stage and 1.4x
    on ingest_discrete (see the README's "Costs that depend on the
    input"), so every run averages ``INPUTS[kind]`` inputs.
    """
    n = INPUTS[kind]
    return [seed * n + i for i in range(n)]


def _setup_times(kind: str, seed: int, builds: int) -> list[float]:
    """Reference-scaled times of ``builds`` facility builds, each from a
    collected heap so garbage of the previous build is not charged."""
    times = []
    speed = Speed()
    for _ in range(builds):
        gc.collect()
        speed.sample()
        started = now()
        if kind == "cluster_stage":
            build_cluster(seed)
        else:
            spec = INGEST[kind]
            build_ingest(seed, spec["fluid"], spec["horizon"])
        times.append(now() - started)
    return [t * speed.scale() for t in times]


def measure(kind: str, seed: int, seconds: float) -> dict:
    """Untraced run: the end-to-end metrics."""
    _setup_times(kind, seed, 3)  # warm imports and lazy set-up, untimed
    setups = _setup_times(kind, seed, SETUPS)
    inputs = _inputs(kind, seed)
    n = len(inputs)
    episodes = run_budget(
        seconds, lambda i: _episode(kind, inputs[i % n], sliced=True),
        min_episodes=n)
    problems = [p for ep in episodes for p in ep["problems"]]
    for i, ep in enumerate(episodes[n:], start=n):
        first = episodes[i % n]
        compare(f"{kind} fingerprint (episode {i} vs its first run)",
                first["fingerprint"], ep["fingerprint"], problems)
        compare(f"{kind} deterministic counters",
                first["counters"], ep["counters"], problems)
    # Shared with the traced run, whose traced episode is unsliced:
    # timed, traced and unsliced fingerprints of one input must agree.
    for input_seed, ep in zip(inputs, episodes):
        check_repeat(f"{kind}-fingerprint", input_seed, ep["fingerprint"],
                     problems)
    steps_ms = [s * 1e3 for ep in episodes for s in ep["timed_steps"]]
    metrics = {
        "setup_s": median(setups),
        # Mean over the inputs of each input's median episode.
        "ops_per_s": fmean(
            median(ep["ops"] / ep["scaled_wall"] for ep in episodes[i::n])
            for i in range(n)),
        "latency_p50_ms": percentile(steps_ms, 50),
        "latency_p99_ms": percentile(steps_ms, 99),
    }
    return {
        "metrics": metrics, "problems": problems,
        "attempted": sum(ep["attempted"] for ep in episodes),
        "failed": sum(ep["failed"] for ep in episodes),
        "detail": "raw wall ops/s per episode: " + ", ".join(
            f"{ep['ops'] / ep['wall']:.1f}" for ep in episodes),
    }


def trace(kind: str, seed: int, seconds: float) -> dict:
    """Traced run: an untraced sliced baseline, then the same episode
    traced and driven without slicing.

    The profiler runs only while the program drives the simulator, so
    building the facility and the benchmark's own output checks (catalog
    fingerprint, crash/recover) stay out of the per-layer figures.
    """
    _setup_times(kind, seed, 3)
    seed = _inputs(kind, seed)[0]
    baseline = _episode(kind, seed, sliced=True)
    tracer = Tracer()
    profiler = cProfile.Profile()
    traced = _episode(kind, seed, sliced=False, tracer=tracer,
                      profiler=profiler)
    stats = pstats.Stats(profiler)
    problems = baseline["problems"] + traced["problems"]
    compare(f"{kind} fingerprint (untraced sliced vs traced unsliced)",
            baseline["fingerprint"], traced["fingerprint"], problems)
    compare(f"{kind} deterministic counters (untraced vs traced)",
            baseline["counters"], traced["counters"], problems)
    check_repeat(f"{kind}-fingerprint", seed, traced["fingerprint"],
                 problems)

    ops = traced["ops"]
    layers = layer_self_times(stats)
    spans = tracer.self_times()
    counters = traced["counters"]
    route_total = counters["route_hits"] + counters["route_misses"]
    deterministic = {
        "simkit.events_per_op": safe_div(counters["events"], ops),
        "interp.calls_per_op": safe_div(total_calls(stats), ops),
        "netsim.solves": counters["solves"],
        "netsim.vector_solves": counters["vector_solves"],
        "netsim.solves_skipped": counters["solves_skipped"],
        "durability.snapshots": counters["snapshots"],
        "metadata.serialisations_per_op": safe_div(
            dataset_to_dict_calls(stats), ops),
        "durability.wal_bytes_per_record": traced.get(
            "wal_bytes_per_record", 0),
    }
    check_repeat(f"{kind}-counters", seed, deterministic, problems)
    metrics = dict(deterministic)
    metrics.update({
        "simkit.self_s": layers.get("simkit", 0.0),
        "netsim.route_cache_hit_ratio": safe_div(counters["route_hits"],
                                                 route_total),
        "netsim.self_s": layers.get("netsim", 0.0),
        "ingest.self_s": layers.get("ingest", 0.0),
        "storage.write_calls_per_op": safe_div(
            _storage_write_calls(stats), ops),
        "storage.self_s": layers.get("storage", 0.0),
        "telemetry.self_s": layers.get("telemetry", 0.0),
        "metadata.self_s": layers.get("metadata", 0.0),
        "metadata.register_s": spans.get("metadata.register", 0.0),
        "durability.self_s": layers.get("durability", 0.0),
        "durability.snapshot_s": spans.get("durability.snapshot", 0.0),
        "durability.snapshot_bytes": traced.get("snapshot_bytes", 0),
        "durability.replayed_records": traced.get("replayed", 0),
        "catalog.recover_s": traced.get("recover_s", 0.0),
        "hdfs.self_s": layers.get("hdfs", 0.0),
        "mapreduce.self_s": layers.get("mapreduce", 0.0),
        "stdlib.self_s": layers.get("stdlib", 0.0),
        "trace.overhead_s": traced["wall"] - baseline["wall"],
    })
    if kind in INGEST:
        metrics["ingest.cost_growth"] = _cost_growth([baseline])
    else:
        job = traced["job"]
        metrics.update({
            "hdfs.blocks_written": ops,
            "mapreduce.tasks": job.maps + job.reduces,
            "mapreduce.locality": job.locality_fraction,
        })
    tracer.dump(f".perfbench/spans-{kind}-{seed}.json")
    return {"metrics": metrics, "problems": problems,
            "attempted": baseline["attempted"] + traced["attempted"],
            "failed": baseline["failed"] + traced["failed"]}


def _storage_write_calls(stats: pstats.Stats) -> int:
    return sum(row[1] for (filename, _line, name), row in stats.stats.items()
               if name.startswith("write")
               and "/repro/storage/" in filename.replace("\\", "/"))
