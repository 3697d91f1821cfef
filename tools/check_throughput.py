#!/usr/bin/env python3
"""Throughput ratchet: fail CI when the engine gets meaningfully slower.

Compares a freshly measured bench JSON against its committed baseline
(baselines/<same name>) and exits nonzero when a ratcheted rate regresses
by more than the tolerance band.  Like the coverage ratchet, the baseline
only moves forward: re-record it (run the bench and commit the output)
when a PR makes the engine faster, never to make a regression pass.

Two file shapes are understood, keyed off their contents:

* BENCH_scaling.json — a runs[] array.  Two rows are ratcheted:
  threads=1 runs the job graph inline on one worker (the shard hot path
  plus per-job overhead, no stealing), and threads=8 measures the
  job-graph executor end to end (graph build, steal traffic, chunk
  hand-off) — a scheduler regression shows up there while leaving the
  single-thread row untouched.  The in-between rows fold in core-count
  noise on small runners, so they are printed for context but only warn.

* BENCH_policies.json — a single shadow_sessions_per_sec rate: the
  session throughput of the pass that carries every (scorer x admission)
  pair as a shadow cache.  This is the whole point of the shadow matrix
  (one pass instead of one per cell), so the one rate is ratcheted
  directly.

The band is deliberately wide (default 10%) to absorb runner-to-runner
variance; an architectural regression (a hash map back in the segment
path, per-event heap churn, a serialized executor, shadow cells gone
quadratic) costs far more than that.

Usage: check_throughput.py <measured.json> <baseline.json> [tolerance]
  tolerance: allowed fractional regression, default 0.10; also settable
  via VODCACHE_RATCHET_TOLERANCE.

Stdlib only — this must run on a bare CI runner.
"""

import json
import os
import sys


def load(path):
    with open(path, encoding="utf-8") as handle:
        return json.load(handle)


def check_workload(measured_data, baseline_data, keys):
    """The two files must describe the same workload, or the ratio is
    meaningless."""
    for key in keys:
        if measured_data.get(key) != baseline_data.get(key):
            sys.exit(
                f"FAIL: workload mismatch: measured {key}="
                f"{measured_data.get(key)} vs baseline {baseline_data.get(key)}"
            )


def ratchet_runs(measured_data, baseline_data, tolerance):
    """BENCH_scaling.json shape: per-thread runs[] rows."""

    def rows(data, path):
        runs = {run["threads"]: run for run in data.get("runs", [])}
        for threads, run in runs.items():
            if "sessions_per_sec" not in run:
                sys.exit(
                    f"FAIL: {path} run threads={threads} lacks sessions_per_sec"
                )
        return runs

    measured = rows(measured_data, "measured")
    baseline = rows(baseline_data, "baseline")
    check_workload(measured_data, baseline_data, ("days", "users"))

    failed = False
    for threads in sorted(baseline.keys()):
        if threads not in measured:
            print(f"WARN: measured file lacks threads={threads} row")
            continue
        base = baseline[threads]["sessions_per_sec"]
        new = measured[threads]["sessions_per_sec"]
        ratio = new / base if base > 0 else float("inf")
        verdict = "ok"
        if ratio < 1.0 - tolerance:
            if threads in (1, 8):
                verdict = "FAIL"
                failed = True
            else:
                verdict = "warn (not ratcheted)"
        print(
            f"threads={threads}: {new:,.0f} vs baseline {base:,.0f} "
            f"sessions/s ({ratio:.2%}) {verdict}"
        )
    return failed


def ratchet_shadow(measured_data, baseline_data, tolerance):
    """BENCH_policies.json shape: one shadow-pass rate."""
    check_workload(measured_data, baseline_data, ("days", "users"))
    base = baseline_data["shadow_sessions_per_sec"]
    new = measured_data.get("shadow_sessions_per_sec")
    if new is None:
        sys.exit("FAIL: measured file lacks shadow_sessions_per_sec")
    ratio = new / base if base > 0 else float("inf")
    failed = ratio < 1.0 - tolerance
    print(
        f"shadow matrix pass: {new:,.0f} vs baseline {base:,.0f} "
        f"sessions/s ({ratio:.2%}) {'FAIL' if failed else 'ok'}"
    )
    return failed


def main(argv):
    if len(argv) < 3:
        sys.exit(__doc__)
    measured_path, baseline_path = argv[1], argv[2]
    tolerance = float(
        argv[3]
        if len(argv) > 3
        else os.environ.get("VODCACHE_RATCHET_TOLERANCE", "0.10")
    )

    measured_data = load(measured_path)
    baseline_data = load(baseline_path)

    if "runs" in baseline_data:
        failed = ratchet_runs(measured_data, baseline_data, tolerance)
    elif "shadow_sessions_per_sec" in baseline_data:
        failed = ratchet_shadow(measured_data, baseline_data, tolerance)
    else:
        sys.exit(f"FAIL: {baseline_path} has neither runs[] nor "
                 "shadow_sessions_per_sec")

    if failed:
        print(
            f"FAIL: ratcheted throughput regressed more than "
            f"{tolerance:.0%} against {baseline_path}"
        )
        return 1
    print("throughput ratchet holds")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
