#!/usr/bin/env python3
"""End-to-end benchmark for vodcache.

Four replay workloads, each repetition a fresh `bench_e2e` process (the cost
a command-line user pays), plus a traced serial pass per workload that
reports per-layer numbers.  See perfbench/README.md for the workloads, the
metrics and how to read them.

One workload, result as the last stdout line (the form BENCHMARK.json names):
  python3 perfbench/run.py --workload NAME --seed N --seconds T --trace 0|1
Every workload, repetitions round-robin, a table and a results file:
  python3 perfbench/run.py [--reps N] [--seed N] [--out FILE] [--e2e-only]
  python3 perfbench/run.py --smoke            # tiny sizes, both paths, ~10 s
Two results files, metric by metric:
  python3 perfbench/run.py --compare A.json B.json

The runner builds bench_e2e from the checkout's sources into .bench_build/
(CMake) before measuring; a no-op rebuild takes about a second.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
BENCH_DIR = Path(__file__).resolve().parent
BUILD_DIR = ROOT / ".bench_build"
BINARY = BUILD_DIR / "bench_e2e"
BUILD_TYPE = "RelWithDebInfo"
DEFAULT_SEED = 20070625
REP_TIMEOUT_S = 170

# Throughput is reported per reference second: a wall second scaled by
# PROBE_REFERENCE_S / (the host-speed probe's time next to the repetition).
# The constant is the probe's usual time on the 4-vCPU Xeon VM this
# benchmark was set up on, so there a reference second is about a wall
# second.  It is the metric's unit: never change it.
PROBE_REFERENCE_S = 0.1

# FNV-64 of to_json(report, true) for each workload at DEFAULT_SEED, full
# size.  These are the simulation's answers: a change means the library's
# results changed, which no performance change may do.
PINNED_DIGESTS = {
    "paper_lfu": "581caad5b749c22c",
    "shadow_matrix": "c4e898cb95bfd1ab",
    "skew_hub_churn": "2769eff71e329e24",
    "million_nocache": "bdbde089b5bd224b",
}

# Counters the traced pass must reproduce exactly from the e2e report.
CROSS_CHECKED = [
    "sessions", "segments", "hits", "cold_misses", "busy_misses", "fills",
    "evictions", "admission_denials", "hub_hits", "shadow_cell_segments",
    "server_bits",
]


class BenchError(Exception):
    pass


def benchmark_spec():
    return json.loads((ROOT / "BENCHMARK.json").read_text())


def build():
    if not (ROOT / "src").is_dir():
        raise BenchError(f"library sources not found at {ROOT / 'src'}")
    if not (BUILD_DIR / "CMakeCache.txt").exists():
        subprocess.run(["cmake", "-S", str(BENCH_DIR), "-B", str(BUILD_DIR),
                        f"-DCMAKE_BUILD_TYPE={BUILD_TYPE}"],
                       stdout=sys.stderr, check=True)
    subprocess.run(["cmake", "--build", str(BUILD_DIR), "--target",
                    "bench_e2e", "-j", str(os.cpu_count() or 1)],
                   stdout=sys.stderr, check=True)


def bench(workload, seed, mode, smoke=False, cpu=None):
    """One bench_e2e process, pinned to `cpu` if given; its JSON line, or a
    dict with 'error'."""
    cmd = [str(BINARY), "--workload", workload, "--seed", str(seed),
           "--mode", mode] + (["--smoke"] if smoke else [])
    pin = None if cpu is None else (lambda: os.sched_setaffinity(0, {cpu}))
    try:
        proc = subprocess.run(cmd, capture_output=True, text=True,
                              timeout=REP_TIMEOUT_S, preexec_fn=pin)
    except subprocess.TimeoutExpired:
        return {"error": f"timed out after {REP_TIMEOUT_S} s"}
    if proc.returncode != 0:
        return {"error": f"exit {proc.returncode}: {proc.stderr.strip()}"}
    return json.loads(proc.stdout.strip().splitlines()[-1])


def probe(workload, seed, cpu=None):
    result = bench(workload, seed, "probe", cpu=cpu)
    if "error" in result:
        raise BenchError(f"probe failed: {result['error']}")
    return result


def calibrate(rep, before, after):
    """Adds the repetition's throughput in reference seconds, from the
    probes timed just before and just after it."""
    rep["probe_s"] = (before["probe_s"] + after["probe_s"]) / 2
    rep["raw_sessions_per_sec"] = rep["sessions"] / rep["run_s"]
    rep["sessions_per_sec"] = (rep["raw_sessions_per_sec"] * rep["probe_s"] /
                               PROBE_REFERENCE_S)
    return rep


class Workload:
    """All repetitions of one workload at one seed, and their checks."""

    def __init__(self, name, seed, smoke):
        self.name, self.seed, self.smoke = name, seed, smoke
        self.e2e, self.traced, self.failures = [], [], []
        self.attempted = 0
        self.last_probe = None
        # A serial workload and its probes share one CPU, so the probe
        # times the very core the repetition ran on.
        self.cpu = None

    def fail(self, what, rep):
        """Counts a failed repetition and prints its one-line repro."""
        self.failures.append(what)
        rep = {**(self.e2e[0] if self.e2e else {}), **rep}
        print(f"repro: workload={self.name} seed={self.seed} "
              f"threads={rep.get('threads', '?')} "
              f"chunk_s={rep.get('chunk_s', '?')} days={rep.get('days', '?')} "
              f"smoke={int(self.smoke)}: {what}", file=sys.stderr)

    def run_e2e(self):
        if self.last_probe is None:
            # An idle host runs its first seconds of work slowly; this
            # probe wakes it and is thrown away.
            if probe(self.name, self.seed)["threads"] == 1:
                self.cpu = max(os.sched_getaffinity(0))
            self.last_probe = probe(self.name, self.seed, self.cpu)
        before = self.last_probe
        self.attempted += 1
        rep = bench(self.name, self.seed, "e2e", self.smoke, self.cpu)
        self.last_probe = probe(self.name, self.seed, self.cpu)
        if "error" in rep:
            return self.fail(f"e2e: {rep['error']}", rep)
        if rep["failed_checks"]:
            return self.fail("e2e checks failed: " +
                             ", ".join(rep["failed_checks"]), rep)
        first = self.e2e[0] if self.e2e else rep
        if rep["digest"] != first["digest"]:
            return self.fail(f"report digest {rep['digest']} differs from an "
                             f"earlier repetition's {first['digest']}", rep)
        pinned = PINNED_DIGESTS[self.name]
        if self.seed == DEFAULT_SEED and not self.smoke and \
                rep["digest"] != pinned:
            return self.fail(f"report digest {rep['digest']} != pinned "
                             f"{pinned}", rep)
        self.e2e.append(calibrate(rep, before, self.last_probe))

    def run_traced(self):
        self.attempted += 1
        rep = bench(self.name, self.seed, "traced", self.smoke)
        if "error" in rep:
            return self.fail(f"traced: {rep['error']}", rep)
        if self.e2e:
            reference = self.e2e[0]
            diff = [k for k in CROSS_CHECKED if rep[k] != reference[k]]
            if diff:
                return self.fail(
                    "traced pass disagrees with the e2e report on " +
                    ", ".join(f"{k} ({rep[k]} vs {reference[k]})"
                              for k in diff), rep)
        self.traced.append(rep)

    def e2e_metrics(self):
        """Each end-to-end metric's per-repetition values."""
        return {m: [r[m] for r in self.e2e]
                for m in ("sessions_per_sec", "setup_s", "peak_rss_mb")}

    def layer_metrics(self):
        """Per-layer values: medians over the traced passes and the e2e
        repetitions that ran beside them."""
        t = {k: statistics.median(r[k] for r in self.traced)
             for k in self.traced[0] if isinstance(self.traced[0][k],
                                                   (int, float))}
        e = {k: statistics.median(r[k] for r in self.e2e)
             for k in self.e2e[0] if isinstance(self.e2e[0][k], (int, float))}
        sessions, segments = t["sessions"], t["segments"]
        per = lambda total, n: total * 1e9 / n if n else 0.0  # noqa: E731
        serial_work = (t["next_s"] + t["demux_s"] + t["prepass_add_s"] +
                       t["prepass_finalize_s"] + t["feed_s"] + t["finish_s"] +
                       t["merge_s"])
        return {
            "trace.next_s": t["next_s"],
            "trace.ns_per_session": per(t["next_s"], sessions),
            "demux.s": t["demux_s"],
            "demux.ns_per_session": per(t["demux_s"], sessions),
            "prepass.add_s": t["prepass_add_s"],
            "prepass.finalize_s": t["prepass_finalize_s"],
            "prepass.board_entries": t["board_entries"],
            "shard.build_s": t["build_s"],
            "shard.count": t["shard_count"],
            "shard.feed_s": t["feed_s"],
            "shard.feed_calls": t["feed_calls"],
            "shard.feed_p50_us": t["feed_p50_s"] * 1e6,
            "shard.feed_p99_us": t["feed_p99_s"] * 1e6,
            "shard.feed_ns_per_segment": per(t["feed_s"], segments),
            "shard.finish_s": t["finish_s"],
            "shard.hottest_share": t["hottest_share"],
            "shadow.cells": t["shadow_cells"],
            "shadow.cell_segments": t["shadow_cell_segments"],
            "shadow.ns_per_cell_segment": per(t["feed_s"],
                                              t["shadow_cell_segments"]),
            "cache.segments": segments,
            "cache.hits": t["hits"],
            "cache.cold_misses": t["cold_misses"],
            "cache.busy_misses": t["busy_misses"],
            "cache.fills": t["fills"],
            "cache.evictions": t["evictions"],
            "cache.admission_denials": t["admission_denials"],
            "cache.denial_ratio": t["admission_denials"] / sessions,
            "cache.hit_ratio": e["hit_ratio"],
            "tiers.hub_requests": e["hub_requests"],
            "tiers.hub_hits": t["hub_hits"],
            "tiers.hub_hit_ratio": (t["hub_hits"] / e["hub_requests"]
                                    if e["hub_requests"] else 0.0),
            "executor.jobs": e["executor_jobs"],
            "executor.steals": e["executor_steals"],
            "executor.utilization": e["executor_utilization"],
            "executor.busy_s": e["executor_busy_s"],
            "executor.idle_s": e["executor_idle_s"],
            "executor.inflation": e["executor_busy_s"] / serial_work,
            "merge.s": t["merge_s"],
            "report.to_json_s": e["to_json_s"],
            "report.json_bytes": e["json_bytes"],
            "report.server_peak_gbps": e["server_peak_gbps"],
            "traced.wall_s": t["wall_s"],
            "traced.overhead": t["wall_s"] / e["run_s"],
            "run.raw_sessions_per_sec": e["raw_sessions_per_sec"],
            "probe.s": e["probe_s"],
        }


def declared(spec, key, values):
    """{name: {value, unit}} for every metric BENCHMARK.json declares."""
    missing = [m["name"] for m in spec[key] if m["name"] not in values]
    if missing:
        raise BenchError(f"no value for declared metric(s) {missing}")
    return {m["name"]: {"value": values[m["name"]], "unit": m["unit"]}
            for m in spec[key]}


def run_one(args, spec):
    """The form BENCHMARK.json names: one workload for --seconds, one JSON
    result line."""
    names = [w["name"] for w in spec["workloads"]]
    if args.workload not in names:
        raise BenchError(f"unknown workload {args.workload!r} (have {names})")
    build()
    w = Workload(args.workload, args.seed, args.smoke)
    deadline = time.monotonic() + args.seconds
    costs = []
    while True:
        begin = time.monotonic()
        w.run_e2e()
        if args.trace:
            w.run_traced()
        costs.append(time.monotonic() - begin)
        if w.failures or time.monotonic() + statistics.median(costs) > \
                deadline:
            break
    if w.e2e and (w.traced or not args.trace):
        if args.trace:
            values = w.layer_metrics()
            metrics = declared(spec, "per_layer", values)
        else:
            values = {k: statistics.median(v)
                      for k, v in w.e2e_metrics().items()}
            metrics = declared(spec, "end_to_end", values)
    else:
        metrics = {}
    for name, m in metrics.items():
        print(f"{args.workload} {name} = {m['value']:.6g} {m['unit']} "
              f"(n={len(w.traced if args.trace else w.e2e)})", file=sys.stderr)
    failed = len(w.failures)
    print(json.dumps({"correct": failed == 0, "attempted": w.attempted,
                      "failed": failed, "metrics": metrics}))
    return 0 if failed == 0 else 1


def host_info():
    model = "unknown"
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                model = line.split(":", 1)[1].strip()
                break
    except OSError:
        pass
    return {"nproc": os.cpu_count(), "cpu_model": model,
            "build_type": BUILD_TYPE}


def quartiles(values):
    """(Q1, median, Q3)."""
    if len(values) < 2:
        return values[0], values[0], values[0]
    return tuple(statistics.quantiles(values, n=4))


def run_suite(args, spec):
    """Every workload, repetitions round-robin, then one traced pass each."""
    build()
    names = [w["name"] for w in spec["workloads"]]
    runs = {n: Workload(n, args.seed, args.smoke) for n in names}
    reps = 1 if args.smoke and args.reps is None else (args.reps or 3)
    for _ in range(reps):
        for n in names:
            runs[n].last_probe = None
            runs[n].run_e2e()
    if not args.e2e_only:
        for n in names:
            runs[n].run_traced()

    units = {m["name"]: m["unit"] for m in spec["end_to_end"] +
             spec["per_layer"]}
    results = {"host": host_info(), "seed": args.seed, "smoke": args.smoke,
               "workloads": {}}
    for n, w in runs.items():
        entry = {"e2e": w.e2e_metrics(), "failures": w.failures,
                 "attempted": w.attempted}
        print(f"\n== {n} (seed {args.seed})")
        for metric, values in entry["e2e"].items():
            if values:
                q1, med, q3 = quartiles(values)
                print(f"  {metric:28s} {med:14.6g} {units[metric]:8s} "
                      f"[{q1:.6g}, {q3:.6g}] n={len(values)}")
        if w.traced and w.e2e:
            entry["per_layer"] = w.layer_metrics()
            for metric, value in entry["per_layer"].items():
                print(f"  {metric:28s} {value:14.6g} {units[metric]:8s} "
                      f"n={len(w.traced)}")
        print(f"  error_rate {len(w.failures)}/{w.attempted}")
        results["workloads"][n] = entry
    if args.out:
        Path(args.out).write_text(json.dumps(results, indent=1) + "\n")
        print(f"\nwrote {args.out}")
    return 0 if all(not w.failures for w in runs.values()) else 1


def compare(path_a, path_b, spec):
    """better/same/worse/unresolved per (metric, workload), by the bounds."""
    a, b = (json.loads(Path(p).read_text()) for p in (path_a, path_b))
    if a["host"] != b["host"]:
        raise BenchError(f"refusing to compare runs from different hosts or "
                         f"builds: {a['host']} vs {b['host']}")
    verdicts = []
    for metric in spec["end_to_end"]:
        name, bound = metric["name"], metric["bound"]
        sign = 1 if metric["better"] == "higher" else -1
        for workload in a["workloads"]:
            va = a["workloads"][workload]["e2e"].get(name)
            vb = b["workloads"].get(workload, {}).get("e2e", {}).get(name)
            if not va or not vb:
                continue
            (qa1, ma, qa3), (qb1, mb, qb3) = quartiles(va), quartiles(vb)
            spread = max((qa3 - qa1) / ma, (qb3 - qb1) / mb)
            change = sign * (mb - ma) / ma
            if spread > bound:
                verdict = "unresolved"
            elif change < -bound:
                verdict = "worse"
            elif change > bound:
                verdict = "better"
            else:
                verdict = "same"
            verdicts.append(verdict)
            print(f"{workload:16s} {name:18s} {ma:12.6g} -> {mb:12.6g} "
                  f"{change:+7.1%} spread {spread:5.1%} bound {bound:.0%} "
                  f"n={len(va)}/{len(vb)}  {verdict}")
    return 1 if "worse" in verdicts else 0


def main():
    parser = argparse.ArgumentParser(
        description=__doc__, formatter_class=argparse.RawTextHelpFormatter)
    parser.add_argument("--workload")
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=25.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--reps", type=int)
    parser.add_argument("--out")
    parser.add_argument("--e2e-only", action="store_true")
    parser.add_argument("--smoke", action="store_true")
    parser.add_argument("--compare", nargs=2, metavar=("A", "B"))
    args = parser.parse_args()
    if args.seed < 0 or (args.reps is not None and args.reps < 1):
        parser.error("--seed must be >= 0 and --reps >= 1")
    try:
        spec = benchmark_spec()
        if args.compare:
            return compare(*args.compare, spec)
        if args.workload:
            return run_one(args, spec)
        return run_suite(args, spec)
    except (BenchError, subprocess.CalledProcessError, OSError) as error:
        print(f"run.py: {error}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
