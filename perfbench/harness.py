"""Measurement plumbing shared by every workload.

* :class:`Tracer` keeps spans (name, start, end, parent) in memory, derives
  each span's self time (its duration minus the part its children cover)
  and writes the spans out when the run ends.
* :func:`layer_self_times` attributes :mod:`cProfile` self time to each
  top-level ``repro.<package>`` so layers that only run inside simulator
  callbacks (simkit dispatch, netsim solves) are measured too.
* :class:`Speed` samples the machine's speed with a fixed calibration
  pass run between units of work, so times can be reported in seconds of
  a reference machine.
* :class:`SteppedRun` replaces a simulator's ``run`` so the program's own
  driving advances in fixed simulated steps, each timed on the wall clock.
* :class:`StoreProbe` puts spans around a catalog's methods and counts the
  bytes its write-ahead log appends.
* Small statistics helpers, the peak-RSS reading and the run budget loop.

Only :func:`dataset_to_dict_calls` imports :mod:`repro`.
"""

from __future__ import annotations

import functools
import hashlib
import json
import math
import os
import pstats
import resource
import time
from typing import Callable, Iterable

#: Where a run writes its spans and cross-run fingerprints (inside the
#: checkout the benchmark runs from).
OUT_DIR = ".perfbench"

#: Seconds one calibration pass takes on the machine the benchmark was
#: sized on (a 2-CPU container).  Reported times are wall times scaled by
#: this over the pass's time measured next to them: on that machine wall
#: times of identical work drifted by +-20% within a minute, as neighbours
#: came and went, while their ratio to the pass varied by a few %.
REFERENCE_S = 400e-6


def _calibration_pass() -> int:
    """Fixed interpreter work: big-integer arithmetic and dict stores."""
    total = 0
    table: dict[int, int] = {}
    for i in range(3000):
        total += i * i
        table[i & 255] = total
    return total


class Speed:
    """Machine speed, sampled between units of work.

    ``scale()`` turns wall seconds measured near the samples into
    reference seconds: below 1 while the machine runs slower than the
    reference, above 1 while it runs faster.
    """

    def __init__(self) -> None:
        self.samples: list[float] = []
        self.spent = 0.0

    def sample(self) -> None:
        started = time.perf_counter()
        _calibration_pass()
        took = time.perf_counter() - started
        self.samples.append(took)
        self.spent += took

    def scale(self, lo: int = 0, hi: int | None = None) -> float:
        return REFERENCE_S / median(self.samples[lo:hi])

    def rolling_scales(self, half: int = 25) -> list[float]:
        """One scale per sample, from the samples within ``half`` of it."""
        n = len(self.samples)
        return [self.scale(max(0, i - half), min(n, i + half + 1))
                for i in range(n)]


class Tracer:
    """In-memory spans around the benchmark's calls into each layer."""

    def __init__(self) -> None:
        self.spans: list[dict] = []
        self._stack: list[int] = []

    def begin(self, name: str) -> int:
        parent = self._stack[-1] if self._stack else None
        self.spans.append({"name": name, "start": time.perf_counter(),
                           "end": None, "parent": parent})
        index = len(self.spans) - 1
        self._stack.append(index)
        return index

    def end(self, index: int) -> None:
        self.spans[index]["end"] = time.perf_counter()
        popped = self._stack.pop()
        if popped != index:
            raise RuntimeError("spans must nest")

    def wrap(self, name: str, fn: Callable,
             fold_into: frozenset = frozenset()) -> Callable:
        """``fn`` with a span recorded around every call.

        A call made directly inside a span named in ``fold_into`` records
        no span of its own: its time stays with the enclosing span.
        """
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if self._stack and self.spans[self._stack[-1]]["name"] in fold_into:
                return fn(*args, **kwargs)
            index = self.begin(name)
            try:
                return fn(*args, **kwargs)
            finally:
                self.end(index)
        return traced

    def self_times(self) -> dict[str, float]:
        """Seconds of self time per span name (duration minus children)."""
        child_time = [0.0] * len(self.spans)
        for span in self.spans:
            if span["parent"] is not None:
                child_time[span["parent"]] += span["end"] - span["start"]
        out: dict[str, float] = {}
        for index, span in enumerate(self.spans):
            own = span["end"] - span["start"] - child_time[index]
            out[span["name"]] = out.get(span["name"], 0.0) + own
        return out

    def totals(self) -> dict[str, float]:
        """Seconds of inclusive time per span name."""
        out: dict[str, float] = {}
        for span in self.spans:
            out[span["name"]] = (out.get(span["name"], 0.0)
                                 + span["end"] - span["start"])
        return out

    def dump(self, path: str) -> None:
        write_json(path, self.spans)


class SteppedRun:
    """Replaces ``sim.run`` so each call advances in ``step_s`` steps.

    The program drives the simulator as it always does (``pipeline.run``,
    ``facility.run``); every ``run(until=t)`` it makes is split into steps
    of ``step_s`` simulated seconds, and ``run()`` into steps until the
    event queue drains.  Before each step the machine's speed is sampled;
    each step's wall time, and ``probe()`` after it, are recorded per call.
    """

    def __init__(self, sim, step_s: float,
                 probe: Callable[[], int] | None = None) -> None:
        self.sim = sim
        self.step_s = step_s
        self.probe = probe or (lambda: 0)
        self.speed = Speed()
        #: Per ``run`` call: wall seconds of each step.
        self.steps: list[list[float]] = []
        #: Per ``run`` call: ``probe()`` before the first step and after each.
        self.progress: list[list[int]] = []
        self._run = sim.run
        sim.run = self

    def __call__(self, until=None):
        if until is not None and not isinstance(until, (int, float)):
            return self._run(until)  # run until an event: not sliced
        sim = self.sim
        steps: list[float] = []
        progress = [self.probe()]
        self.steps.append(steps)
        self.progress.append(progress)
        while True:
            if until is None:
                if sim.peek() == math.inf:
                    return None
                target = sim.now + self.step_s
            else:
                target = min(sim.now + self.step_s, until)
            self.speed.sample()
            started = time.perf_counter()
            self._run(until=target)
            steps.append(time.perf_counter() - started)
            progress.append(self.probe())
            if until is not None and target >= until:
                return None

    def all_steps(self) -> list[float]:
        return [step for call in self.steps for step in call]


class StoreProbe:
    """Spans around a catalog's methods and its WAL bytes, on one store.

    ``spans`` maps a method name to its span name.  ``get`` called inside
    another catalog call (``tag`` looks its record up) is folded into that
    call, so ``metadata.get`` times only the reads the caller asked for.
    The wrappers are instance attributes, so the store's own calls to
    ``self.snapshot()`` are seen too; :meth:`remove` takes them off.
    """

    def __init__(self, store, tracer: Tracer, spans: dict[str, str]) -> None:
        self.store = store
        self.wal_bytes = 0
        self.wal_records_from = store.wal.appended
        self.snapshots_from = store.snapshots
        self._patched: list[tuple[object, str]] = []
        others = frozenset(span for method, span in spans.items()
                           if method != "get")
        for method, span in spans.items():
            fold = others if method == "get" else frozenset()
            self._patch(store, method,
                        tracer.wrap(span, getattr(store, method), fold))
        append = store.wal.storage.append

        def counted(data: bytes) -> None:
            self.wal_bytes += len(data)
            append(data)

        self._patch(store.wal.storage, "append", counted)

    def _patch(self, owner, name: str, fn: Callable) -> None:
        setattr(owner, name, fn)
        self._patched.append((owner, name))

    def remove(self) -> None:
        for owner, name in reversed(self._patched):
            delattr(owner, name)  # the class's method shows through again
        self._patched = []

    def wal_bytes_per_record(self) -> float:
        return safe_div(self.wal_bytes,
                        self.store.wal.appended - self.wal_records_from)


def write_json(path: str, payload) -> None:
    os.makedirs(os.path.dirname(path) or ".", exist_ok=True)
    with open(path, "w", encoding="utf-8") as handle:
        json.dump(payload, handle)


def _layer_of(filename: str, name: str) -> str:
    """``repro.<package>`` layer of a profiled function."""
    if "select." in name:
        return "idle"  # an event loop waiting for the socket
    path = filename.replace(os.sep, "/")
    marker = "/repro/"
    at = path.rfind(marker)
    if at >= 0:
        rest = path[at + len(marker):]
        head = rest.split("/", 1)[0]
        return head[:-3] if head.endswith(".py") else head
    if "/numpy/" in path:
        return "numpy"
    if "/perfbench/" in path:
        return "perfbench"
    return "stdlib"


def layer_self_times(stats: pstats.Stats) -> dict[str, float]:
    """Profiler self time (seconds) per ``repro`` package / stdlib / numpy."""
    out: dict[str, float] = {}
    for (filename, _line, name), row in stats.stats.items():
        layer = _layer_of(filename, name)
        out[layer] = out.get(layer, 0.0) + row[2]
    return out


def total_calls(stats: pstats.Stats) -> int:
    """Interpreter function calls seen by the profiler."""
    return sum(row[1] for row in stats.stats.values())


def dataset_to_dict_calls(stats: pstats.Stats) -> int:
    """Calls to ``DatasetRecord.to_dict``: catalog serialisations."""
    import inspect

    from repro.metadata.records import DatasetRecord

    line = inspect.getsourcelines(DatasetRecord.to_dict)[1]
    return sum(row[1] for (filename, lineno, name), row in stats.stats.items()
               if name == "to_dict" and lineno == line
               and filename.replace(os.sep, "/").endswith(
                   "metadata/records.py"))


def percentile(values: Iterable[float], q: float) -> float:
    """Linear-interpolated ``q``-th percentile (0..100)."""
    data = sorted(values)
    if not data:
        raise ValueError("percentile of no values")
    pos = (len(data) - 1) * q / 100.0
    low = int(pos)
    high = min(low + 1, len(data) - 1)
    return data[low] + (data[high] - data[low]) * (pos - low)


def median(values: Iterable[float]) -> float:
    return percentile(values, 50.0)


def peak_rss_mb() -> float:
    """Peak resident set of this process and its reaped children, in MB."""
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    children = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return max(own, children) / 1024.0


def run_budget(seconds: float, episode: Callable[[int], dict],
               min_episodes: int = 1) -> list[dict]:
    """Run ``episode(i)`` until another would overrun ``seconds``."""
    started = time.perf_counter()
    results = []
    while True:
        results.append(episode(len(results)))
        elapsed = time.perf_counter() - started
        per_episode = elapsed / len(results)
        if (len(results) >= min_episodes
                and elapsed + per_episode > seconds):
            return results


@functools.lru_cache(maxsize=1)
def source_digest() -> str:
    """Digest of the program and benchmark sources in this checkout."""
    digest = hashlib.sha256()
    for top in ("src", "perfbench"):
        for folder, dirs, files in os.walk(top):
            dirs.sort()
            for name in sorted(files):
                if name.endswith(".py"):
                    path = os.path.join(folder, name)
                    digest.update(path.encode())
                    with open(path, "rb") as handle:
                        digest.update(handle.read())
    return digest.hexdigest()[:16]


def check_repeat(kind: str, seed: int, values: dict,
                 problems: list[str]) -> None:
    """Compare deterministic values with an earlier run of the same seed.

    The first run of a (kind, seed) pair of the same sources records the
    values; later runs must reproduce them exactly, or the mismatch is
    reported as a determinism bug.
    """
    path = os.path.join(OUT_DIR,
                        f"repeat-{source_digest()}-{kind}-{seed}.json")
    canonical = json.loads(json.dumps(values, sort_keys=True))
    if os.path.exists(path):
        with open(path, encoding="utf-8") as handle:
            earlier = json.load(handle)
        for key in sorted(set(earlier) | set(canonical)):
            if earlier.get(key) != canonical.get(key):
                problems.append(
                    f"determinism bug: {kind} seed {seed} {key} was "
                    f"{earlier.get(key)!r}, now {canonical.get(key)!r}")
    else:
        write_json(path, canonical)


def compare(label: str, first: dict, second: dict,
            problems: list[str]) -> None:
    """Every key of two deterministic records must agree exactly."""
    for key in sorted(set(first) | set(second)):
        if first.get(key) != second.get(key):
            problems.append(f"{label}: {key} {first.get(key)!r} != "
                            f"{second.get(key)!r}")


def safe_div(numerator: float, denominator: float) -> float:
    return numerator / denominator if denominator else 0.0


def now() -> float:
    return time.perf_counter()
