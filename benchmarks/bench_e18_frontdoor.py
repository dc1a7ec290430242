"""E18 — front door under overload: goodput vs offered load, with ablation.

The paper's ADAL chapter promises a uniform access layer for every
community, but says nothing about what happens when all of them show up at
once.  E18 runs the overload drill — a 5x open-loop surge over four
communities with a flaky backend and a degraded array in the middle of it —
through two front doors:

* the **defended** arm (admission control, CoDel shedding, deadline
  propagation, brownout) must hold surge goodput within 20% of baseline,
  keep queues bounded, lose nothing silently, and recover;
* the **naive** arm (same workers, no defences) is the ablation: it grinds
  expired backlog and collapses, which is the behaviour the tentpole
  removes.

A third arm closes the client feedback loop (impatient retries) and checks
the admitted rate stays pinned to the sum of the per-tenant rate limits —
retry storms are contained at the door instead of amplifying inside.

Twin runs of the defended arm must be bit-identical.

Two rows are informational (expected column ``-``), not claims: the
served-request p99 of the defended arm against the naive one, and the
defended outcome mix.  Measured, the defended p99 is no better than the
naive p99 and CoDel sheds nothing while the queue sits at its bound, so
neither "defended << naive" nor "served >> shed" holds at this scale.
Why it does not is open work (see ROADMAP.md); until then the rows only
report.
``LSDF_BENCH_TINY=1`` shrinks client counts and durations for CI smoke.
"""

import os

from repro.frontdoor import run_overload_drill

_TINY = os.environ.get("LSDF_BENCH_TINY", "") not in ("", "0")
_SCALE = 0.2 if _TINY else 1.0
_DURATION = 0.5 if _TINY else 1.0
_SEED = 47


def _run(enabled=True, storm=False, seed=_SEED):
    facility, result = run_overload_drill(
        seed=seed, scale=_SCALE, duration_scale=_DURATION,
        enabled=enabled, storm=storm)
    reg = facility.telemetry.registry
    [(_labels, latency)] = reg.samples("frontdoor.latency_seconds")
    return result, latency.percentile(99)


def _row(label, result):
    ratio = (result.surge_goodput / result.baseline_goodput
             if result.baseline_goodput else 0.0)
    return (f"{label}: surge/baseline goodput", ">= 0.80 (defended)",
            f"{ratio:.2f} ({result.surge_goodput:.1f}/s vs "
            f"{result.baseline_goodput:.1f}/s, peak queue "
            f"{result.peak_queue_depth}/{result.queue_bound})")


def test_e18_frontdoor_overload(benchmark, report):
    ((defended, defended_p99), (naive, naive_p99),
     (storm, _storm_p99)) = benchmark.pedantic(
        lambda: (_run(), _run(enabled=False), _run(storm=True)),
        rounds=1, iterations=1)
    twin, _twin_p99 = _run(seed=_SEED)

    served = defended.accounting["terminal"]
    rows = [
        _row("defended", defended),
        _row("naive (ablation)", naive),
        ("served-request p99 latency", "-",
         f"{defended_p99:.2f} s defended vs {naive_p99:.2f} s naive"),
        ("defended: silent loss", "0",
         str(defended.accounting["silent_loss"])),
        ("defended: outcome mix", "-",
         f"{served['served']} served, {served['served_degraded']} degraded, "
         f"{served['rejected']} rejected, {served['shed']} shed, "
         f"{served['timed_out']} timed out"),
        ("storm arm: client resubmissions", "contained at the door",
         f"{storm.client_retries} offered, "
         f"{storm.admitted_retries} admitted"),
        ("naive arm: timeouts", "collapse visible",
         str(naive.accounting["terminal"]["timed_out"])),
        ("twin-run determinism", "bit-identical",
         "identical" if defended.fingerprint() == twin.fingerprint()
         else "DIVERGED"),
    ]
    report("E18", "front door overload: goodput under a 5x surge", rows)

    # Shape: every defended gate passes, the ablation collapses (or at
    # least times work out en masse), and the drill is deterministic.
    assert defended.passed, defended.failures
    assert storm.passed, storm.failures
    assert defended.accounting["silent_loss"] == 0
    assert naive.accounting["silent_loss"] == 0
    assert naive.accounting["terminal"]["timed_out"] > 0
    assert defended.fingerprint() == twin.fingerprint()
