"""Server half of ``wire_mixed``: a WireServer in its own process.

Started by ``wire_client.py`` as ``python3 perfbench/wire_server.py --seed N``.
It builds the prepopulated durable catalog several times (timing each
build for ``setup_s``, and dropping each store before the next build so
the process never holds two), serves the last one on an ephemeral localhost
port and prints one JSON line ``{"port": ..., "builds_s": [...], ...}``.
It then answers one-line commands on standard input with one JSON line
each on standard output:

``trace_on`` / ``trace_off``
    profile the server and record spans around its catalog calls; ``off``
    returns the profiler split by ``repro`` package and the span totals.
``stats``
    the server's stats, zero-loss balance and admission counters, and the
    machine speed sampled since the previous ``stats``.
``quit``
    stop serving, crash and recover the catalog, report whether its state
    came back byte-identical, and exit.
"""

from __future__ import annotations

import argparse
import asyncio
import cProfile
import gc
import json
import os
import pstats
import sys
import time
import zlib

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)
sys.path.insert(0, os.path.join(os.path.dirname(HERE), "src"))

from harness import (  # noqa: E402
    Speed,
    StoreProbe,
    Tracer,
    dataset_to_dict_calls,
    layer_self_times,
    median,
    total_calls,
)
from repro.adal.wire import WireServer  # noqa: E402
from repro.core.config import lsdf_2011_config  # noqa: E402
from repro.durability import DurableMetadataStore  # noqa: E402
from repro.metadata.schema import FieldSpec, Schema  # noqa: E402

PROJECT = "bench"
#: Records in the catalog before the first request: tens of thousands,
#: so each snapshot the served store takes costs what a facility's would.
RECORDS = 20_000
#: Distinct values of the indexed ``run`` field among prepopulated records.
RUNS = 64
#: Timed builds of the catalog; ``setup_s`` takes their median.
BUILDS = 7
#: Speed samples taken before and after each timed build.
BURST = 10
COMMANDS = ("trace_on", "trace_off", "stats")
#: The catalog calls the traced phase puts spans around.
SPANS = {"get": "metadata.get", "query": "metadata.query",
         "register_dataset": "metadata.register",
         "register_batch": "metadata.register", "tag": "metadata.tag",
         "snapshot": "durability.snapshot"}
SPEED_EVERY_S = 0.1


def dataset_id(index: int) -> str:
    return f"ds-{index:06d}"


def checksum(seed: int, key: str) -> str:
    """The checksum a record registered under ``key`` carries."""
    return f"{zlib.crc32(f'{seed}:{key}'.encode()):08x}"


def build_store(seed: int) -> DurableMetadataStore:
    """The prepopulated catalog, with the default snapshot cadence."""
    store = DurableMetadataStore(
        snapshot_every=lsdf_2011_config().metadata_snapshot_every)
    store.register_project(PROJECT, Schema(PROJECT, [
        FieldSpec("run", "int", required=True),
        FieldSpec("detector", "str", required=True),
    ]))
    store.index_field("run")
    store.register_batch([
        {"dataset_id": dataset_id(i), "project": PROJECT,
         "url": f"adal://lsdf/{PROJECT}/{dataset_id(i)}", "size": 4_000_000,
         "checksum": checksum(seed, dataset_id(i)),
         "basic": {"run": i % RUNS, "detector": f"det{i % 4}"},
         "created": float(i)}
        for i in range(RECORDS)])
    return store


class ServedStore:
    """The served store plus the tracing switched on by commands."""

    def __init__(self, store: DurableMetadataStore, server: WireServer):
        self.store = store
        self.server = server
        self.profiler = None
        self.tracer = None
        self.probe = None
        self.cpu = time.process_time()
        self.speed = Speed()
        self.speed_from = 0

    def trace_on(self) -> dict:
        self.tracer = Tracer()
        self.probe = StoreProbe(self.store, self.tracer, SPANS)
        self.profiler = cProfile.Profile()
        self.profiler.enable()
        return {"tracing": True}

    def trace_off(self) -> dict:
        self.profiler.disable()
        self.probe.remove()
        totals = self.tracer.totals()
        own = self.tracer.self_times()
        stats = pstats.Stats(self.profiler)
        reply = {
            "layers": layer_self_times(stats),
            "calls": total_calls(stats),
            "to_dict_calls": dataset_to_dict_calls(stats),
            "get_s": own.get("metadata.get", 0.0),
            "query_s": own.get("metadata.query", 0.0),
            "register_s": own.get("metadata.register", 0.0),
            "snapshot_s": totals.get("durability.snapshot", 0.0),
            "snapshots": self.store.snapshots - self.probe.snapshots_from,
            "snapshot_bytes": len(self.store.wal.snapshot or b""),
            "wal_bytes_per_record": self.probe.wal_bytes_per_record(),
        }
        self.tracer.dump(os.path.join(".perfbench", "spans-wire-server.json"))
        self.profiler = self.tracer = self.probe = None
        return reply

    def stats(self) -> dict:
        reg = self.server.telemetry.registry
        stats = self.server.stats()
        if len(self.speed.samples) == self.speed_from:
            self.speed.sample()  # none since the last stats
        cpu = time.process_time()
        stats.update({
            "shed": int(reg.total("wire.responses_total", status="shed")),
            "timed_out": int(reg.total("wire.responses_total",
                                       status="deadline")),
            "rejected": int(reg.total("wire.rejected_total")),
            "errors": int(reg.total("wire.responses_total", status="error")),
            "cpu_s": cpu - self.cpu,
            "scale": self.speed.scale(self.speed_from),
            "snapshots": self.store.snapshots,
        })
        self.cpu = cpu
        self.speed_from = len(self.speed.samples)
        return stats

    def quit(self) -> dict:
        state = self.store.state_bytes()
        started = time.perf_counter()
        self.store.crash()
        replayed = self.store.recover()
        return {"recover_s": time.perf_counter() - started,
                "replayed": replayed,
                "records": len(self.store),
                "state_identical": self.store.state_bytes() == state}


def sample_speed_burst(speed: Speed) -> None:
    """``BURST`` speed samples back to back: one pass is too short to time
    the machine well, and a build lasts about a second."""
    for _ in range(BURST):
        speed.sample()


async def sample_speed(speed: Speed) -> None:
    """Sample the machine's speed every ``SPEED_EVERY_S`` while serving."""
    while True:
        speed.sample()
        await asyncio.sleep(SPEED_EVERY_S)


async def serve(seed: int) -> None:
    speed = Speed()
    builds = []
    store = None
    for _ in range(BUILDS):
        store = None  # drop the previous build before timing the next
        gc.collect()
        sample_speed_burst(speed)
        started = time.perf_counter()
        store = build_store(seed)
        builds.append(time.perf_counter() - started)
        sample_speed_burst(speed)
    server = WireServer(store)
    started = time.perf_counter()
    await server.start()
    start_s = time.perf_counter() - started
    served = ServedStore(store, server)
    setup_s = (median(builds) + start_s) * speed.scale()
    print(json.dumps({"port": server.port, "builds_s": builds,
                      "setup_s": setup_s}), flush=True)
    sampler = asyncio.ensure_future(sample_speed(served.speed))

    loop = asyncio.get_running_loop()
    reader = asyncio.StreamReader()
    await loop.connect_read_pipe(
        lambda: asyncio.StreamReaderProtocol(reader), sys.stdin)
    try:
        while True:
            line = (await reader.readline()).decode().strip()
            if not line or line == "quit":
                break
            if line not in COMMANDS:
                raise ValueError(f"unknown command {line!r}")
            reply = getattr(served, line)()
            print(json.dumps(reply), flush=True)
    finally:
        sampler.cancel()
        await asyncio.gather(sampler, return_exceptions=True)
        await server.stop()
    print(json.dumps(served.quit()), flush=True)


def main() -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("--seed", type=int, required=True)
    args = parser.parse_args()
    asyncio.run(serve(args.seed))
    return 0


if __name__ == "__main__":
    sys.exit(main())
