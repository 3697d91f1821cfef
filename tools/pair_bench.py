#!/usr/bin/env python3
"""Paired end-to-end benchmark of two revisions.

  tools/pair_bench.py REV_A REV_B [--pairs N] [run.py args]
  tools/pair_bench.py --self-test

Checks REV_A and REV_B out into temporary git worktrees (removed on exit),
so each builds its own .bench_build, then runs N pairs.  A pair runs
`perfbench/run.py --workload W [run.py args]` once in each worktree, for
every workload, and alternates which side goes first.  Without run.py args
each run lasts BENCHMARK.json's run_seconds; `--workload W` (repeatable)
limits the workloads.

For every workload and end-to-end metric it prints both medians, A's
quartiles, "B better in n/N" (the pairs in which B's run beat A's) and a
verdict, by the rule of docs/BENCHMARKS.md:

  worse       B's median is worse than A's by more than the metric's
              bound in BENCHMARK.json;
  better      B is better in at least 9 of every 10 pairs, at least 10
              pairs ran, and the medians differ by more than A's
              interquartile range;
  unresolved  A's interquartile range is wider than the difference;
  same        otherwise.

It reads only perfbench/ and BENCHMARK.json of the two checkouts (the
workloads and bounds are REV_A's).  It exits 1 if a verdict is worse or
any run failed.  --self-test checks the verdict rule on synthetic samples.
"""

import argparse
import json
import os
import shutil
import signal
import statistics
import subprocess
import sys
import tempfile
from pathlib import Path

WIN_SHARE = 0.9
# Fewer pairs cannot resolve a gain: 5 of 5 wins happen by chance in one
# metric of every 32 that did not change.
MIN_PAIRS = 10


def quartiles(values):
    """(Q1, median, Q3), as perfbench/run.py computes them."""
    if len(values) < 2:
        return values[0], values[0], values[0]
    return tuple(statistics.quantiles(values, n=4))


def verdict(a, b, better, bound):
    """The verdict for one metric: A's and B's samples, index-aligned by
    pair (None where a run failed), whether "higher" or "lower" is better,
    and the relative bound.  Returns (verdict, stats)."""
    sign = 1 if better == "higher" else -1
    pairs = [(x, y) for x, y in zip(a, b) if x is not None and y is not None]
    va = [x for x in a if x is not None]
    vb = [y for y in b if y is not None]
    if not va or not vb:
        return "unresolved", {"pairs": len(pairs)}
    q1, ma, q3 = quartiles(va)
    mb = statistics.median(vb)
    wins = sum(1 for x, y in pairs if sign * (y - x) > 0)
    gain = sign * (mb - ma)
    stats = {"median_a": ma, "median_b": mb, "q1_a": q1, "q3_a": q3,
             "wins": wins, "pairs": len(pairs),
             "change": gain / ma if ma else 0.0}
    if ma and gain / ma < -bound:
        return "worse", stats
    if len(pairs) >= MIN_PAIRS and wins >= WIN_SHARE * len(pairs) and \
            gain > q3 - q1:
        return "better", stats
    if q3 - q1 > abs(mb - ma):
        return "unresolved", stats
    return "same", stats


def git(*args, cwd=None):
    return subprocess.run(["git", *args], cwd=cwd, check=True,
                          capture_output=True, text=True).stdout.strip()


def run_once(tree, workload, run_args):
    """One run.py invocation; its end-to-end values, or None if it failed."""
    cmd = [sys.executable, "perfbench/run.py", "--workload", workload,
           *run_args]
    proc = subprocess.run(cmd, cwd=tree, capture_output=True, text=True)
    lines = proc.stdout.strip().splitlines()
    try:
        result = json.loads(lines[-1]) if lines else {}
    except json.JSONDecodeError:
        result = {}
    if proc.returncode != 0 or not result.get("correct"):
        tail = proc.stderr.strip().splitlines()[-1:] or ["no output"]
        print(f"  run failed in {tree} ({workload}): {tail[0]}",
              file=sys.stderr)
        return None
    return {k: m["value"] for k, m in result["metrics"].items()}


def measure(trees, workloads, pairs, run_args):
    """{workload: {side: [values or None, one per pair]}}."""
    samples = {w: {"A": [], "B": []} for w in workloads}
    for i in range(pairs):
        order = ("A", "B") if i % 2 == 0 else ("B", "A")
        for w in workloads:
            for side in order:
                samples[w][side].append(run_once(trees[side], w, run_args))
            print(f"pair {i + 1}/{pairs} {w} done ({order[0]} first)",
                  file=sys.stderr)
    return samples


def report(spec, samples):
    """Prints the table; returns True if nothing is worse and no run
    failed."""
    clean = True
    for w, sides in samples.items():
        failed = {s: sum(v is None for v in sides[s]) for s in sides}
        print(f"\n== {w}  (failed runs: A {failed['A']}, B {failed['B']})")
        clean = clean and not any(failed.values())
        for metric in spec["end_to_end"]:
            name = metric["name"]
            a = [None if v is None else v[name] for v in sides["A"]]
            b = [None if v is None else v[name] for v in sides["B"]]
            result, s = verdict(a, b, metric["better"], metric["bound"])
            clean = clean and result != "worse"
            if "median_a" not in s:
                print(f"  {name:18s} no samples  {result}")
                continue
            print(f"  {name:18s} A {s['median_a']:12.6g} "
                  f"[{s['q1_a']:.6g}, {s['q3_a']:.6g}]  "
                  f"B {s['median_b']:12.6g} {s['change']:+7.1%}  "
                  f"B better in {s['wins']}/{s['pairs']}  "
                  f"bound {metric['bound']:.0%}  {result}")
    return clean


def self_test():
    """The verdict rule on synthetic samples; exits nonzero on a miss."""
    base = [100.0, 101.0, 99.0, 102.0, 98.0, 100.5, 99.5, 101.5, 98.5, 100.0]
    cases = [
        # (name, A, B, better, bound, expected)
        ("identical", base, list(base), "higher", 0.25, "unresolved"),
        ("shuffled noise", base, base[5:] + base[:5], "higher", 0.25,
         "unresolved"),
        ("clear gain", base, [x * 1.1 for x in base], "higher", 0.25,
         "better"),
        ("gain, lower is better", base, [x * 0.9 for x in base], "lower",
         0.25, "better"),
        ("loss past the bound", base, [x * 0.7 for x in base], "higher",
         0.25, "worse"),
        ("loss past the bound, lower is better", base,
         [x * 1.3 for x in base], "lower", 0.25, "worse"),
        ("loss within the bound", base, [x * 0.95 for x in base], "higher",
         0.25, "same"),
        ("wins 8 of 10", base,
         [x * 1.1 if i < 8 else x * 0.99 for i, x in enumerate(base)],
         "higher", 0.25, "same"),
        ("wins 9 of 10", base,
         [x * 1.1 if i < 9 else x * 0.99 for i, x in enumerate(base)],
         "higher", 0.25, "better"),
        ("gain inside A's spread", [80.0, 120.0, 90.0, 110.0, 100.0],
         [85.0, 125.0, 95.0, 115.0, 105.0], "higher", 0.25, "unresolved"),
        ("five pairs cannot resolve a gain", base[:5],
         [x * 1.1 for x in base[:5]], "higher", 0.25, "same"),
        ("failed runs are skipped", base + [None], [x * 1.1 for x in base] +
         [50.0], "higher", 0.25, "better"),
        ("a failed run leaves too few pairs", base[:9] + [None],
         [x * 1.1 for x in base[:9]] + [110.0], "higher", 0.25, "same"),
        ("no samples", [None], [None], "higher", 0.25, "unresolved"),
    ]
    misses = 0
    for name, a, b, better, bound, expected in cases:
        got, _ = verdict(a, b, better, bound)
        status = "ok" if got == expected else "MISS"
        misses += got != expected
        print(f"{status:4s} {name}: {got} (expected {expected})")
    return 1 if misses else 0


def main():
    parser = argparse.ArgumentParser(
        description=__doc__, formatter_class=argparse.RawTextHelpFormatter)
    parser.add_argument("rev_a", nargs="?")
    parser.add_argument("rev_b", nargs="?")
    parser.add_argument("--pairs", type=int, default=10)
    parser.add_argument("--self-test", action="store_true")
    args, run_args = parser.parse_known_args()
    if args.self_test:
        return self_test()
    if not args.rev_a or not args.rev_b or args.pairs < 1:
        parser.error("need REV_A REV_B and --pairs >= 1")

    # `--workload W` (repeatable) picks workloads; the rest goes to run.py.
    picked, rest = [], []
    it = iter(run_args)
    for arg in it:
        if arg == "--workload":
            picked.append(next(it, ""))
        else:
            rest.append(arg)

    repo = git("rev-parse", "--show-toplevel")
    revs = {"A": git("rev-parse", "--verify", args.rev_a + "^{commit}"),
            "B": git("rev-parse", "--verify", args.rev_b + "^{commit}")}
    scratch = Path(tempfile.mkdtemp(prefix="pair_bench."))
    trees = {}
    # SIGTERM unwinds like Ctrl-C, so the worktrees are removed either way.
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))
    try:
        for side, rev in revs.items():
            trees[side] = scratch / side
            git("worktree", "add", "--detach", str(trees[side]), rev,
                cwd=repo)
        spec = json.loads((trees["A"] / "BENCHMARK.json").read_text())
        names = [w["name"] for w in spec["workloads"]]
        unknown = [w for w in picked if w not in names]
        if unknown:
            parser.error(f"unknown workload(s) {unknown} (have {names})")
        if not any(a == "--seconds" or a.startswith("--seconds=")
                   for a in rest):
            rest += ["--seconds", str(spec["run_seconds"])]
        print(f"A = {args.rev_a} ({revs['A'][:12]}), "
              f"B = {args.rev_b} ({revs['B'][:12]}), {args.pairs} pairs, "
              f"run.py {' '.join(rest)}, {os.cpu_count()} CPUs")
        samples = measure(trees, picked or names, args.pairs, rest)
        return 0 if report(spec, samples) else 1
    finally:
        for tree in trees.values():
            subprocess.run(["git", "worktree", "remove", "--force",
                            str(tree)], cwd=repo, capture_output=True)
        subprocess.run(["git", "worktree", "prune"], cwd=repo,
                       capture_output=True)
        shutil.rmtree(scratch, ignore_errors=True)


if __name__ == "__main__":
    sys.exit(main())
