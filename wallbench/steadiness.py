#!/usr/bin/env python3
"""Steadiness and sensitivity check for the wall-clock benchmark.

    python3 wallbench/steadiness.py --runs 10
    python3 wallbench/steadiness.py --runs 0 --sensitivity-copy ../wallbench-slow

Every run lasts run_seconds from BENCHMARK.json.

Steadiness: runs two separate sets of runs of every workload (set 1 on
seeds first..first+runs-1, set 2 on the next `runs` seeds; workloads
interleaved per seed). For each end-to-end metric and set it prints the
median, the quartiles and their spread (q3 - q1) / median, then the
difference between the two sets' medians against the metric's bound from
BENCHMARK.json, the failed-operation share of each set, and the host's
CPU-steal share during each set (from /proc/stat). A metric passes when
both spreads and the difference, in either direction, are within its
bound.

Sensitivity: copies the library sources and this directory to
`--sensitivity-copy` (outside the repository), slows the graph matcher
there with a busy loop of SPIN iterations in
`TraversalMatcher::Cursor::Bind` (called once per candidate edge), and
runs yago_dual and yago_rel on both trees with SENSITIVITY_RUNS seeds from
`--first-seed`, alternating which tree runs first. The slowdown must make
yago_dual's tti_ms slower by more than its bound and leave yago_rel's
within its bound in either direction.
"""

import argparse
import json
import shutil
import statistics
import subprocess
import sys
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
MATCHER = Path("src") / "graphstore" / "matcher.cc"
BIND_SIGNATURE = (
    "bool TraversalMatcher::Cursor::Bind(const End& e, TermId value) {\n")
SPIN = 100
SENSITIVITY_RUNS = 3


def cpu_times():
    with open("/proc/stat") as f:
        fields = [int(x) for x in f.readline().split()[1:9]]
    return sum(fields), fields[7]


def steal_pct(start, end):
    total = end[0] - start[0]
    return 100.0 * (end[1] - start[1]) / total if total else 0.0


def run_once(root, workload, seed, seconds):
    proc = subprocess.run(
        [sys.executable, str(root / "wallbench" / "run.py"),
         "--workload", workload, "--seed", str(seed),
         "--seconds", str(seconds), "--trace", "0"],
        cwd=root, capture_output=True, text=True)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        sys.exit(f"{workload} seed {seed} failed ({proc.returncode}):\n"
                 f"{proc.stdout[-2000:]}\n{proc.stderr[-2000:]}")
    result = json.loads(lines[-1])
    for line in lines:
        if line.startswith("mismatch:"):
            print(f"  {workload} seed {seed}: {line}", flush=True)
    return result


def quartiles(values):
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, q2, q3


def run_set(root, workloads, seeds, seconds, label):
    runs = {w: [] for w in workloads}
    start = cpu_times()
    for seed in seeds:
        for w in workloads:
            r = run_once(root, w, seed, seconds)
            runs[w].append(r)
            print(f"  {label} {w} seed {seed}: " + ", ".join(
                f"{k}={v['value']:.4g}" for k, v in r["metrics"].items()),
                flush=True)
    return runs, steal_pct(start, cpu_times())


def steadiness(args, bench):
    workloads = [w["name"] for w in bench["workloads"]]
    bounds = {m["name"]: m["bound"] for m in bench["end_to_end"]}
    sets = []
    for s in range(2):
        first = args.first_seed + s * args.runs
        seeds = list(range(first, first + args.runs))
        print(f"set {s + 1}: seeds {seeds[0]}..{seeds[-1]}", flush=True)
        sets.append(run_set(ROOT, workloads, seeds, bench["run_seconds"],
                            f"set{s + 1}"))

    print("\n| workload | metric | set 1 median [q1, q3] (spread) | "
          "set 2 median [q1, q3] (spread) | diff | bound | within |")
    print("|---|---|---|---|---|---|---|")
    ok = True
    for w in workloads:
        for metric, bound in bounds.items():
            cells = []
            stats = []
            for runs, _ in sets:
                q1, q2, q3 = quartiles(
                    [r["metrics"][metric]["value"] for r in runs[w]])
                stats.append((q1, q2, q3))
                cells.append(f"{q2:.4g} [{q1:.4g}, {q3:.4g}] "
                             f"({(q3 - q1) / q2:.1%})")
            diff = (stats[1][1] - stats[0][1]) / stats[0][1]
            steady = all((q3 - q1) / q2 <= bound for q1, q2, q3 in stats)
            within = abs(diff) <= bound and steady
            ok &= within
            print(f"| {w} | {metric} | {cells[0]} | {cells[1]} | "
                  f"{diff:+.1%} | {bound:.0%} | {'yes' if within else 'NO'} |")
    for i, (runs, steal) in enumerate(sets):
        shares = {w: sum(r["failed"] for r in runs[w]) /
                  sum(r["attempted"] for r in runs[w]) for w in workloads}
        correct = all(r["correct"] for w in workloads for r in runs[w])
        print(f"\nset {i + 1}: steal {steal:.2f}% of host CPU time, "
              f"all correct: {correct}, failed share: " +
              ", ".join(f"{w} {v:.6f}" for w, v in shares.items()))
    print(f"\nall metrics within bounds: {ok}")
    return ok


def sensitivity(args, bench):
    copy = Path(args.sensitivity_copy).resolve()
    if copy == ROOT or ROOT in copy.parents:
        sys.exit("--sensitivity-copy must lie outside the repository")
    if copy.exists():
        shutil.rmtree(copy)
    copy.mkdir(parents=True)
    shutil.copy2(ROOT / "CMakeLists.txt", copy / "CMakeLists.txt")
    shutil.copytree(ROOT / "src", copy / "src")
    shutil.copytree(BENCH_DIR, copy / "wallbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    matcher = copy / MATCHER
    text = matcher.read_text()
    if BIND_SIGNATURE not in text:
        sys.exit(f"cannot find Cursor::Bind in {matcher}")
    matcher.write_text(text.replace(
        BIND_SIGNATURE,
        BIND_SIGNATURE + f"  for (volatile int spin = 0; spin < {SPIN};"
        " spin = spin + 1) {\n  }\n"))

    bounds = {m["name"]: m["bound"] for m in bench["end_to_end"]}
    seeds = list(range(args.first_seed, args.first_seed + SENSITIVITY_RUNS))
    tti = {(tree, w): [] for tree in ("base", "slow")
           for w in ("yago_dual", "yago_rel")}
    for i, seed in enumerate(seeds):
        order = [("base", ROOT), ("slow", copy)]
        if i % 2:
            order.reverse()
        for tree, root in order:
            for w in ("yago_dual", "yago_rel"):
                r = run_once(root, w, seed, bench["run_seconds"])
                tti[(tree, w)].append(r["metrics"]["tti_ms"]["value"])
                print(f"  {tree} {w} seed {seed}: tti_ms "
                      f"{tti[(tree, w)][-1]:.4g}", flush=True)
    print(f"\nmatcher slowdown: busy loop of {SPIN} iterations per "
          f"candidate edge, {len(seeds)} seeds")
    print("| workload | tti_ms base median | tti_ms slowed median | change | "
          "bound | past bound |")
    print("|---|---|---|---|---|---|")
    change = {}
    for w in ("yago_dual", "yago_rel"):
        base = statistics.median(tti[("base", w)])
        slow = statistics.median(tti[("slow", w)])
        change[w] = (slow - base) / base
        moved = abs(change[w]) > bounds["tti_ms"]
        print(f"| {w} | {base:.4g} | {slow:.4g} | {change[w]:+.1%} | "
              f"{bounds['tti_ms']:.0%} | {'yes' if moved else 'no'} |")
    # The slowed matcher must make yago_dual slower, not merely different.
    ok = (change["yago_dual"] > bounds["tti_ms"] and
          abs(change["yago_rel"]) <= bounds["tti_ms"])
    print(f"\nsensitivity as expected: {ok}")
    return ok


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--runs", type=int, default=10,
                        help="runs per workload in each set (0: skip)")
    parser.add_argument("--first-seed", type=int, default=1)
    parser.add_argument("--sensitivity-copy", default=None,
                        help="directory outside the repository for the "
                             "slowed copy (omit to skip the check)")
    args = parser.parse_args()
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    ok = True
    if args.runs > 0:
        ok &= steadiness(args, bench)
    if args.sensitivity_copy:
        ok &= sensitivity(args, bench)
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
