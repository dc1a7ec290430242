"""Facility benchmark: one command, four workloads, every metric by name.

Run from the root of a checkout::

    python3 perfbench/run.py --workload ingest_fluid --seed 1 --seconds 20 --trace 0
    python3 perfbench/run.py --workload all --seed 1 --seconds 20

``--trace 0`` measures the end-to-end metrics with tracing off.
``--trace 1`` runs an untraced baseline and a traced run (spans around the
benchmark's calls into each layer plus a profiler split by ``repro``
package) and reports the per-layer metrics and the tracing overhead.
Metric names, units and better-directions come from ``BENCHMARK.json``.
The last line of standard output is one JSON object: ``correct``,
``attempted``, ``failed`` and ``metrics``.  A failed output check makes
``correct`` false and is printed on standard error.
"""

from __future__ import annotations

import argparse
import json
import os
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORKLOADS = ("ingest_fluid", "ingest_discrete", "cluster_stage",
             "wire_mixed")


def _run(workload: str, seed: int, seconds: float, trace: bool) -> dict:
    if workload == "wire_mixed":
        import wire_client
        return (wire_client.trace if trace else wire_client.measure)(
            seed, seconds)
    import sims
    return (sims.trace if trace else sims.measure)(workload, seed, seconds)


def _select(result: dict, specs: list[dict], fill_missing: bool) -> dict:
    out = {}
    for spec in specs:
        name = spec["name"]
        if name in result["metrics"]:
            value = float(result["metrics"][name])
        elif fill_missing:
            value = 0.0  # the layer did no work in this workload
        else:
            raise KeyError(f"workload did not measure {name}")
        out[name] = {"value": value, "unit": spec["unit"]}
    return out


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True,
                        choices=WORKLOADS + ("all",))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        spec = json.load(fh)
    if not os.path.isdir(os.path.join(ROOT, "src", "repro")):
        print("perfbench: this checkout has no src/repro to measure",
              file=sys.stderr)
        return 2
    sys.path.insert(0, HERE)
    sys.path.insert(0, os.path.join(ROOT, "src"))
    os.chdir(ROOT)
    from harness import peak_rss_mb

    specs = spec["per_layer"] if args.trace else spec["end_to_end"]
    workloads = WORKLOADS if args.workload == "all" else (args.workload,)
    correct, attempted, failed, merged = True, 0, 0, {}
    for workload in workloads:
        result = _run(workload, args.seed, args.seconds, bool(args.trace))
        result["metrics"].setdefault("peak_rss_mb", peak_rss_mb())
        metrics = _select(result, specs, fill_missing=bool(args.trace))
        for problem in result["problems"]:
            print(f"CHECK FAILED [{workload}]: {problem}", file=sys.stderr)
        correct = correct and not result["problems"]
        attempted += result["attempted"]
        failed += result["failed"]
        print(f"== {workload} (seed {args.seed}, "
              f"{'traced' if args.trace else 'untraced'}): "
              f"{result['attempted']} attempted, {result['failed']} failed, "
              f"checks {'FAILED' if result['problems'] else 'passed'}")
        if "detail" in result:
            print(f"   {result['detail']}")
        for entry in specs:
            print(f"   {entry['name']:<34} "
                  f"{metrics[entry['name']]['value']:>16.6g} "
                  f"{entry['unit']:<6} {entry['better']}")
        merged = metrics if len(workloads) == 1 else {
            **merged, **{f"{workload}.{k}": v for k, v in metrics.items()}}
    print(json.dumps({"correct": correct, "attempted": attempted,
                      "failed": failed, "metrics": merged}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
