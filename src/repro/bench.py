"""Hot-path benchmark scenarios and a parallel sweep runner.

This module is the shared home of the **E16 hot-path scenario** — a
high-concurrency mix of microscopy ingest (many DAQ transfer agents) plus a
Poisson background traffic matrix over the whole backbone — used by
``benchmarks/bench_e16_hotpath.py``, the CI perf gate and ad-hoc profiling.
Keeping the scenario in the package (rather than inside the bench file)
means the CLI, the bench and the profiler all measure exactly the same
workload.

It also provides :func:`run_sweep`, a ``--jobs N`` multiprocessing fan-out
for multi-seed sweeps.  Each worker process runs one fully seeded,
single-threaded simulation (no threads are ever spawned; all randomness
derives from the seed passed to the worker), and results are merged in
**seed order** regardless of completion order — so a sweep's merged output
is byte-identical whether it ran with ``--jobs 1`` or ``--jobs 8``.

CLI::

    PYTHONPATH=src python -m repro.bench --seeds 16 17 18 --jobs 3 --profile

Wall-clock readings here are host-side measurements *around* simulations,
never inside them, hence the REP001 pragmas.
"""

from __future__ import annotations

import argparse
import cProfile
import functools
import multiprocessing
import pstats
import time
from dataclasses import dataclass, fields
from typing import Callable, Iterable, Optional, Sequence, TypeVar

from repro.core import Facility
from repro.netsim.traffic import TrafficConfig, TrafficGenerator
from repro.simkit.units import GB, HOUR
from repro.workloads import zebrafish_microscopes

T = TypeVar("T")


@dataclass(frozen=True)
class HotpathResult:
    """Measurements from one seeded run of the E16 hot-path scenario.

    Every field except :attr:`wall_seconds` (and
    :attr:`interpreter_calls`, which is 0 unless profiling was requested)
    is a pure function of the seed and scenario parameters — that is what
    :meth:`deterministic` exposes for jobs-invariance checks.
    """

    seed: int
    #: Microscopy frames acquired by the ingest pipeline.
    frames: int
    #: Background flows started by the traffic generator.
    background_flows: int
    #: Events scheduled by the kernel over the run.
    events_scheduled: int
    #: Simulated horizon in seconds.
    sim_seconds: float
    #: Payload bytes delivered end-to-end by the network.
    bytes_delivered: float
    #: Network rebalance passes (solved or skipped).
    rebalances: int
    #: Fair-share solves actually executed.
    solves: int
    #: Rebalances that reused the previous rates.
    solves_skipped: int
    #: Topology route-cache hits / misses.
    route_cache_hits: int
    route_cache_misses: int
    #: Total interpreter function calls (cProfile), 0 when not profiled.
    interpreter_calls: int
    #: Host-side wall-clock of the simulation run (seconds).
    wall_seconds: float

    def deterministic(self) -> tuple:
        """The seed-determined fields, for jobs-invariance comparisons."""
        skip = ("wall_seconds", "interpreter_calls")
        return tuple(
            getattr(self, f.name) for f in fields(self) if f.name not in skip
        )

    @property
    def events_per_second(self) -> float:
        """Kernel events scheduled per wall-clock second."""
        if self.wall_seconds <= 0:
            return float("inf")
        return self.events_scheduled / self.wall_seconds

    @property
    def calls_per_frame(self) -> float:
        """Interpreter calls per ingested frame (the E16 gate metric)."""
        if not self.frames:
            return float("inf")
        return self.interpreter_calls / self.frames


def run_hotpath(
    seed: int = 16,
    hours: float = 1.0,
    instruments: int = 6,
    agents: int = 4,
    profile: bool = False,
    fluid: bool = False,
) -> HotpathResult:
    """Run the E16 high-concurrency ingest+backbone scenario once.

    ``instruments`` zebrafish microscopes feed the ingest pipeline through
    ``agents`` parallel transfer agents while a Poisson traffic generator
    (mean interarrival 2 s, 0.5–10 GB flows) keeps the whole backbone —
    DAQ hosts, storage heads, the Heidelberg WAN endpoint and eight
    cluster nodes — busy with crossing flows.  That mix maximises netsim
    rebalance pressure, which is exactly what the incremental engine
    optimises.

    ``fluid=True`` runs the fluid-event arm: deterministic (zero-jitter)
    microscopes coalesced into rate intervals and bulk buffer/storage
    operations.  The deterministic workload is an arm *parameter* — the
    fluid-off and fluid-on arms are only comparable to each other within
    the same workload shape, which is why the bench runs both arms itself.

    With ``profile=True`` the simulation runs under :mod:`cProfile` and
    :attr:`HotpathResult.interpreter_calls` carries the deterministic
    total-call count (the perf-gate metric; wall-clock is informational).
    """
    from repro.core.config import lsdf_2011_config

    cfg = lsdf_2011_config()
    cfg.fluid_ingest = fluid
    fac = Facility(config=cfg, seed=seed)
    pipeline = fac.ingest_pipeline(
        zebrafish_microscopes(instruments=instruments, deterministic=fluid),
        agents=agents,
    )
    endpoints = (
        fac.names.daq
        + fac.names.storage
        + [fac.names.heidelberg]
        + fac.names.cluster[:8]
    )
    generator = TrafficGenerator(
        fac.sim,
        fac.net,
        endpoints,
        TrafficConfig(
            mean_interarrival=2.0, size_lo=0.5 * GB, size_hi=10 * GB
        ),
    )
    generator.start(duration=hours * HOUR)
    profiler = cProfile.Profile() if profile else None
    # lint: disable=wall-clock -- host-side harness timing around the
    # simulation (reported informationally), never inside it.
    started = time.perf_counter()
    if profiler is not None:
        profiler.enable()
    report = pipeline.run(duration=hours * HOUR)
    if profiler is not None:
        profiler.disable()
    # lint: disable=wall-clock -- host-side harness timing (see above).
    wall = time.perf_counter() - started
    calls = 0
    if profiler is not None:
        calls = sum(v[0] for v in pstats.Stats(profiler).stats.values())
    net = fac.net
    return HotpathResult(
        seed=seed,
        frames=report.frames_acquired,
        background_flows=int(generator.flows_started.value),
        events_scheduled=fac.sim.events_scheduled,
        sim_seconds=fac.sim.now,
        bytes_delivered=net.bytes_delivered.value,
        rebalances=int(net.rebalances.value),
        solves=int(net.solves.value),
        solves_skipped=int(net.solves_skipped.value),
        route_cache_hits=net.topology.route_cache_hits,
        route_cache_misses=net.topology.route_cache_misses,
        interpreter_calls=calls,
        wall_seconds=wall,
    )


def run_sweep(
    worker: Callable[[int], T],
    seeds: Sequence[int],
    jobs: int = 1,
) -> list[T]:
    """Run ``worker(seed)`` for every seed, optionally across processes.

    With ``jobs <= 1`` the sweep runs sequentially in this process.  With
    ``jobs > 1`` a :class:`multiprocessing.Pool` fans the seeds out;
    ``worker`` must be picklable (a module-level function or a
    :func:`functools.partial` of one).  Each worker stays single-threaded
    and derives all randomness from its seed argument, and the returned
    list is **always in input seed order** (``Pool.map`` merges by input
    position, not completion time) — so the merged result is independent
    of ``jobs``, scheduling jitter and core count.
    """
    seeds = list(seeds)
    if jobs <= 1 or len(seeds) <= 1:
        return [worker(seed) for seed in seeds]
    with multiprocessing.Pool(processes=min(jobs, len(seeds))) as pool:
        return pool.map(worker, seeds)


def _format_row(result: HotpathResult) -> str:
    calls = (
        f"{result.calls_per_frame:10.1f}" if result.interpreter_calls else
        " " * 10
    )
    return (
        f"{result.seed:>6d} {result.frames:>8,d} {result.background_flows:>8,d} "
        f"{result.events_scheduled:>10,d} {result.events_per_second:>12,.0f} "
        f"{result.solves:>8,d} {result.solves_skipped:>8,d} "
        f"{calls} {result.wall_seconds:>8.2f}s"
    )


def main(argv: Optional[Iterable[str]] = None) -> int:
    """CLI entry point: multi-seed E16 sweeps with ``--jobs`` fan-out."""
    parser = argparse.ArgumentParser(
        prog="python -m repro.bench",
        description=(
            "Run the E16 hot-path scenario across seeds, optionally in "
            "parallel worker processes (deterministic seed-ordered merge)."
        ),
    )
    parser.add_argument("--seeds", type=int, nargs="+", default=[16],
                        help="simulation seeds to sweep (default: 16)")
    parser.add_argument("--jobs", type=int, default=1,
                        help="worker processes (default: 1 = sequential)")
    parser.add_argument("--hours", type=float, default=1.0,
                        help="simulated hours per run (default: 1.0)")
    parser.add_argument("--instruments", type=int, default=6,
                        help="microscopes feeding ingest (default: 6)")
    parser.add_argument("--profile", action="store_true",
                        help="run under cProfile and report calls/frame")
    parser.add_argument("--fluid", action="store_true",
                        help="run the fluid-event arm (rate-interval "
                             "ingest with bulk buffer/storage operations)")
    args = parser.parse_args(list(argv) if argv is not None else None)

    worker = functools.partial(
        run_hotpath,
        hours=args.hours,
        instruments=args.instruments,
        profile=args.profile,
        fluid=args.fluid,
    )
    results = run_sweep(worker, args.seeds, jobs=args.jobs)

    header = (
        f"{'seed':>6s} {'frames':>8s} {'bgflows':>8s} {'events':>10s} "
        f"{'events/s':>12s} {'solves':>8s} {'skipped':>8s} "
        f"{'calls/frm':>10s} {'wall':>9s}"
    )
    print(header)
    for result in results:
        print(_format_row(result))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
