"""Client half of ``wire_mixed``: an open-loop generator over WireClient.

The schedule is fixed before the first request: Poisson arrivals at a
stated rate, an op mix of 60% ``get``, 20% ``query``, 10% ``register`` and
10% ``tag``, and Zipf-distributed keys, all drawn from the seed.  One
process sends it over at most ``POOL`` pooled connections (no more than
the machine has CPUs) to the server process in ``wire_server.py``.  Each
request is timed from when it was due, so a stall also charges the
requests queued behind it, and the generator's own lateness is reported.

A run sends a 0.5 s warm-up, then the nominal phase: ``NOMINAL_SHARE``
of ``--seconds`` at ``NOMINAL_RPS``.  ``ops_per_s`` is requests served per
CPU second of client and server together in the nominal phase, so work
moved from the server into ``WireClient`` (batching, pooling, a client
cache) is still charged.  It is extrapolated from the nominal operating
point, about a third of saturation, not measured at saturation, where
batches are larger.  ``latency_p50_ms`` and ``latency_p99_ms`` are
request latencies in that phase.

The traced run adds a second nominal phase with the profiler on in both
processes and spans around the server's catalog calls; its tracing
overhead is the extra CPU time of both processes.
"""

from __future__ import annotations

import asyncio
import bisect
import cProfile
import itertools
import json
import os
import pstats
import random
import subprocess
import sys
import time

from harness import (
    Speed,
    layer_self_times,
    percentile,
    safe_div,
    total_calls,
)
from repro.adal.wire import WireClient
from repro.metadata.query import Q
from wire_server import (
    PROJECT,
    RECORDS,
    RUNS,
    SPEED_EVERY_S,
    checksum,
    dataset_id,
)

HERE = os.path.dirname(os.path.abspath(__file__))
SERVER = os.path.join(HERE, "wire_server.py")

#: Connections the generator may open: at most one per CPU, at most two.
POOL = max(1, min(2, os.cpu_count() or 1))
MIX = (("get", 0.6), ("query", 0.2), ("register", 0.1), ("tag", 0.1))
READS = frozenset({"get", "query"})
WRITES = frozenset({"register", "tag"})
ZIPF_S = 1.1
WARMUP_S = 0.5
#: The fixed nominal rate, sized from a 2-CPU container where one server
#: process saturates between 2,500 and 4,500 requests/s, depending on how
#: busy its neighbours are: a third of that or less keeps the run clear of
#: overload, where the server's brownout defence rejects writes.
NOMINAL_RPS = 1000.0
#: Share of ``--seconds`` the nominal phase lasts (12 s of a 20 s run);
#: the rest pays for building the catalog and checking the outputs.
NOMINAL_SHARE = 0.6


# -- the server process ----------------------------------------------------------
class ServerProcess:
    """``wire_server.py`` in a child process, driven over its stdin."""

    def __init__(self, seed: int):
        self.proc = subprocess.Popen(
            [sys.executable, "-u", SERVER, "--seed", str(seed)],
            stdin=subprocess.PIPE, stdout=subprocess.PIPE, text=True)
        self.hello = self._reply()

    def _reply(self) -> dict:
        line = self.proc.stdout.readline()
        if not line:
            raise RuntimeError("wire server exited early")
        return json.loads(line)

    def command(self, name: str) -> dict:
        self.proc.stdin.write(name + "\n")
        self.proc.stdin.flush()
        return self._reply()

    def close(self) -> dict:
        """Stop the server; returns its crash/recover report."""
        self.proc.stdin.write("quit\n")
        self.proc.stdin.flush()
        reply = self._reply()
        self.proc.stdin.close()
        self.proc.wait(timeout=60)
        self.proc.stdout.close()
        return reply

    def kill(self) -> None:
        if self.proc.poll() is None:
            self.proc.kill()
        self.proc.wait(timeout=60)
        for pipe in (self.proc.stdin, self.proc.stdout):
            if not pipe.closed:
                pipe.close()


# -- the schedule --------------------------------------------------------------
def zipf_cdf(n: int, s: float) -> list[float]:
    return list(itertools.accumulate(1.0 / (k ** s) for k in range(1, n + 1)))


def make_plan(rng: random.Random, cdf: list[float], rate: float,
              duration: float) -> list[tuple[float, str, int]]:
    """``(due offset, op, key)`` triples of one open-loop phase."""
    plan = []
    due = 0.0
    total = cdf[-1]
    while True:
        due += rng.expovariate(rate)
        if due >= duration:
            return plan
        draw = rng.random()
        for op, share in MIX:
            if draw < share:
                break
            draw -= share
        key = bisect.bisect_left(cdf, rng.random() * total)
        plan.append((due, op, min(key, len(cdf) - 1)))


class Run:
    """Shared state of one client run: outcomes and output checks."""

    def __init__(self, seed: int, client: WireClient):
        self.seed = seed
        self.client = client
        self.registered: list[str] = []
        self.problems: list[str] = []
        self.errors: dict[str, int] = {}
        self.attempted = 0
        self.failed = 0
        self.outstanding = 0
        self.new_ids = itertools.count()

    async def request(self, op: str, key: int) -> None:
        client, seed = self.client, self.seed
        name = dataset_id(key)
        if op == "get":
            record = await client.get(name)
            if record["checksum"] != checksum(seed, name):
                self.problems.append(f"get {name} returned a wrong checksum")
        elif op == "query":
            run = key % RUNS
            reply = await client.query(Q.field("run") == run, limit=10,
                                       ids_only=True)
            ids = reply["ids"]
            if (len(ids) != min(10, len(range(run, RECORDS, RUNS)))
                    or any(int(i[3:]) % RUNS != run for i in ids)):
                self.problems.append(f"query run=={run} returned {ids}")
        elif op == "register":
            new = f"new-{next(self.new_ids):07d}"
            await client.register(
                new, PROJECT, f"adal://lsdf/{PROJECT}/{new}", size=4_000_000,
                checksum=checksum(seed, new),
                basic={"run": RUNS + key % 16, "detector": "det0"})
            self.registered.append(new)
        else:
            await client.tag(name, f"seen{key % 8}")

    async def timed(self, op: str, key: int, due: float,
                    samples: list) -> None:
        self.attempted += 1
        self.outstanding += 1
        try:
            await self.request(op, key)
        except Exception as exc:  # every failure is counted, none is fatal
            self.failed += 1
            name = type(exc).__name__
            self.errors[name] = self.errors.get(name, 0) + 1
        else:
            samples.append((op, time.monotonic() - due))
        finally:
            self.outstanding -= 1

    async def phase(self, plan) -> dict:
        """Send ``plan`` on schedule; returns latencies and lateness."""
        samples: list = []
        lags: list[float] = []
        tasks = []
        speed = Speed()
        origin = time.monotonic() + 0.05
        next_sample = origin
        index = 0
        while index < len(plan):
            delay = origin + plan[index][0] - time.monotonic()
            if delay > 0:
                await asyncio.sleep(delay)
            if time.monotonic() >= next_sample:
                speed.sample()
                next_sample = time.monotonic() + SPEED_EVERY_S
            sent = time.monotonic()
            while index < len(plan) and origin + plan[index][0] <= sent:
                due, op, key = plan[index]
                lags.append(sent - origin - due)
                tasks.append(asyncio.ensure_future(
                    self.timed(op, key, origin + due, samples)))
                index += 1
        await asyncio.gather(*tasks)
        return {"samples": samples, "lags": lags, "scale": speed.scale()}

    async def read_back(self) -> None:
        """Every acknowledged register must read back with its checksum."""
        for start in range(0, len(self.registered), 256):
            names = self.registered[start:start + 256]
            records = await asyncio.gather(
                *[self.client.get(name) for name in names],
                return_exceptions=True)
            for name, record in zip(names, records):
                if (isinstance(record, BaseException)
                        or record["checksum"] != checksum(self.seed, name)):
                    self.problems.append(f"registered {name} did not read "
                                         "back")


def _ms(values) -> list[float]:
    return [v * 1e3 for v in values]


def _latency(samples, ops=None) -> list[float]:
    return _ms(lat for op, lat in samples if ops is None or op in ops)


def _phase_stats(result: dict) -> dict:
    reads = _latency(result["samples"], READS)
    writes = _latency(result["samples"], WRITES)
    return {
        "wire.read_p50_ms": percentile(reads, 50),
        "wire.read_p99_ms": percentile(reads, 99),
        "wire.write_p50_ms": percentile(writes, 50),
        "wire.write_p99_ms": percentile(writes, 99),
        "wire.gen_lag_p99_ms": percentile(_ms(result["lags"]), 99),
    }


async def _drive(seed: int, server: ServerProcess, seconds: float,
                   trace: bool) -> dict:
    # The whole schedule is drawn before the first request is sent.
    rng = random.Random(seed)
    cdf = zipf_cdf(RECORDS, ZIPF_S)
    warmup = make_plan(rng, cdf, NOMINAL_RPS, WARMUP_S)
    nominal = make_plan(rng, cdf, NOMINAL_RPS, NOMINAL_SHARE * seconds)
    second = make_plan(rng, cdf, NOMINAL_RPS, NOMINAL_SHARE * seconds)
    out: dict = {}
    async with WireClient("127.0.0.1", server.hello["port"],
                          pool_size=POOL) as client:
        run = Run(seed, client)
        await run.phase(warmup)
        server.command("stats")
        cpu = time.process_time()
        out["nominal"] = await run.phase(nominal)
        stats = server.command("stats")
        out["nominal_cpu_s"] = time.process_time() - cpu + stats["cpu_s"]
        out["nominal_scale"] = (out["nominal"]["scale"] + stats["scale"]) / 2
        if trace:
            server.command("trace_on")
            profiler = cProfile.Profile()
            cpu = time.process_time()
            profiler.enable()
            out["traced"] = await run.phase(second)
            profiler.disable()
            out["traced_cpu_s"] = time.process_time() - cpu
            out["client_profile"] = pstats.Stats(profiler)
            out["server_trace"] = server.command("trace_off")
            out["traced_cpu_s"] += server.command("stats")["cpu_s"]
        await run.read_back()
        out["stats"] = server.command("stats")
        out["client"] = client.accounting()
        reg = client.telemetry.registry
        out["mean_batch_size"] = reg.series("wire.client_batch_size").mean
        out["pool_opens"] = int(reg.total("wire.pool_opens_total"))
    out["open_connections"] = client.open_connections
    out["run"] = run
    return out


def _checks(out: dict, server_end: dict) -> list[str]:
    run = out["run"]
    problems = list(run.problems)
    if out["stats"]["silent_loss"]:
        problems.append(f"server silent_loss {out['stats']['silent_loss']}")
    if out["client"]["outstanding"]:
        problems.append(f"client outstanding {out['client']['outstanding']}")
    if out["open_connections"]:
        problems.append(f"{out['open_connections']} connections left open")
    if not server_end["state_identical"]:
        problems.append("catalog state changed across crash()/recover()")
    expected = RECORDS + len(run.registered)
    if server_end["records"] != expected:
        problems.append(f"catalog holds {server_end['records']} records, "
                        f"expected {expected}")
    return problems


def _serve(seed: int, seconds: float, trace: bool):
    server = ServerProcess(seed)
    try:
        out = asyncio.run(_drive(seed, server, seconds, trace))
        out["server_end"] = server.close()
    finally:
        server.kill()
    out["problems"] = _checks(out, out["server_end"])
    out["setup_s"] = server.hello["setup_s"]
    return out


def measure(seed: int, seconds: float) -> dict:
    """Untraced run: the end-to-end metrics."""
    out = _serve(seed, seconds, trace=False)
    scale = out["nominal_scale"]
    served = len(out["nominal"]["samples"])
    latency = [lat * scale for lat in _latency(out["nominal"]["samples"])]
    metrics = {
        "setup_s": out["setup_s"],
        "ops_per_s": served / (out["nominal_cpu_s"] * scale),
        "latency_p50_ms": percentile(latency, 50),
        "latency_p99_ms": percentile(latency, 99),
    }
    raw = _latency(out["nominal"]["samples"])
    return {"metrics": metrics, "problems": out["problems"],
            "attempted": out["run"].attempted, "failed": out["run"].failed,
            "detail": (f"raw: {served / out['nominal_cpu_s']:.1f} "
                       f"requests per client + server CPU second, p50 "
                       f"{percentile(raw, 50):.3f} ms, p99 "
                       f"{percentile(raw, 99):.3f} ms; failed requests by "
                       f"error: {out['run'].errors}")}


def trace(seed: int, seconds: float) -> dict:
    """Traced run: an untraced nominal phase, then a traced one."""
    out = _serve(seed, seconds, trace=True)
    server, stats = out["server_trace"], out["stats"]
    client_layers = layer_self_times(out["client_profile"])
    layers = {name: client_layers.get(name, 0.0)
              + server["layers"].get(name, 0.0)
              for name in set(client_layers) | set(server["layers"])}
    requests = len(out["traced"]["samples"])
    metrics = _phase_stats(out["nominal"])
    metrics.update({
        "interp.calls_per_op": safe_div(
            total_calls(out["client_profile"]) + server["calls"], requests),
        "metadata.serialisations_per_op": safe_div(server["to_dict_calls"],
                                                   requests),
        "metadata.get_s": server["get_s"],
        "metadata.query_s": server["query_s"],
        "metadata.register_s": server["register_s"],
        "durability.snapshots": server["snapshots"],
        "durability.snapshot_s": server["snapshot_s"],
        "durability.snapshot_bytes": server["snapshot_bytes"],
        "durability.wal_bytes_per_record": server["wal_bytes_per_record"],
        "durability.group_commits": stats["group_commits"],
        "durability.replayed_records": out["server_end"]["replayed"],
        "catalog.recover_s": out["server_end"]["recover_s"],
        "wire.client.mean_batch_size": out["mean_batch_size"],
        "wire.client.pool_opens": out["pool_opens"],
        "wire.server.peak_queue_depth": stats["peak_queue_depth"],
        "wire.server.backpressure_stalls": stats["backpressure_stalls"],
        "frontdoor.shed": stats["shed"],
        "frontdoor.rejected": stats["rejected"],
        "frontdoor.timed_out": stats["timed_out"],
        "trace.overhead_s": out["traced_cpu_s"] - out["nominal_cpu_s"],
    })
    for layer in ("adal", "frontdoor", "metadata", "durability",
                  "telemetry", "stdlib"):
        metrics[f"{layer}.self_s"] = layers.get(layer, 0.0)
    return {"metrics": metrics, "problems": out["problems"],
            "attempted": out["run"].attempted, "failed": out["run"].failed}
