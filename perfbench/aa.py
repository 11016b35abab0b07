#!/usr/bin/env python3
"""A/A steadiness check for the repository benchmark.

Runs the same build twice over the same seeds and prints, for every
end-to-end metric of every workload, each set's median, its spread (the
distance between the first and third quartile as a share of the median)
and the move of the second median against the first, next to the
metric's bound from BENCHMARK.json. Run from the repository root:

    python3 perfbench/aa.py                      # 2 sets x 10 seeds, every workload
    python3 perfbench/aa.py --runs 5 --sets 1 --workloads paper-region-int8
    python3 perfbench/aa.py --traced 3           # also 3 traced runs per workload

Contention is flagged, not averaged away: a run during which the host
stole more than STEAL_FLAG percent of CPU time, or whose value of any
metric is worse than its set's median by more than half the metric's
bound, is listed as a contention episode; a run outside the Tukey fences
of its set (1.5 x IQR beyond the quartiles) in the other direction as an
outlier run; each with its seed and the host steal it ran under. With
--traced N, N traced runs per workload print the per-layer rows'
medians and the tracing overhead: the traced latency_ms against the
untraced one.

Exit status is 1 when a spread exceeds its bound (setup_s excepted, as
in the acceptance rule), when a second median is worse than the first
by more than the bound, or when a run fails its output checks.
"""

import argparse
import json
import re
import statistics
import subprocess
import sys
import time

STEAL_FLAG = 5.0  # percent of CPU time


def run_once(cmd, workload, seed, seconds, trace):
    args = cmd + ["--workload", workload, "--seed", str(seed),
                  "--seconds", str(seconds), "--trace", str(trace)]
    t0 = time.monotonic()
    proc = subprocess.run(args, capture_output=True, text=True, timeout=900)
    wall = time.monotonic() - t0
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        sys.stderr.write(proc.stdout + proc.stderr)
        raise SystemExit(f"{workload} seed {seed}: exit {proc.returncode}")
    result = json.loads(lines[-1])
    steal = 0.0
    for line in lines:
        m = re.match(r"host steal ([0-9.]+)%", line)
        if m:
            steal = float(m.group(1))
    failed_checks = [line for line in lines if line.startswith("check FAIL")]
    return result, steal, failed_checks, wall


def spread(values):
    q1, _, q3 = statistics.quantiles(values, n=4)
    med = statistics.median(values)
    return (q3 - q1) / med if med else 0.0, q1, q3, med


def worse_by(metric, first, second):
    """Share by which second is worse than first (negative = better)."""
    if first == 0:
        return 0.0
    move = (second - first) / first
    return move if metric["better"] == "lower" else -move


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--runs", type=int, default=10, help="seeds per set")
    ap.add_argument("--sets", type=int, default=2, help="sets of runs of the same build")
    ap.add_argument("--first-seed", type=int, default=1)
    ap.add_argument("--workloads", default="", help="comma-separated subset")
    ap.add_argument("--seconds", type=int, default=0, help="override run_seconds")
    ap.add_argument("--traced", type=int, default=0, help="traced runs per workload")
    args = ap.parse_args()

    with open("BENCHMARK.json") as f:
        bench = json.load(f)
    cmd = bench["command"]
    seconds = args.seconds or bench["run_seconds"]
    names = [w["name"] for w in bench["workloads"]]
    if args.workloads:
        names = [n for n in names if n in args.workloads.split(",")]
    seeds = list(range(args.first_seed, args.first_seed + args.runs))
    e2e = {m["name"]: m for m in bench["end_to_end"]}

    ok = True
    for wl in names:
        sets = []
        for s in range(args.sets):
            runs = []
            for seed in seeds:
                res, steal, fails, wall = run_once(cmd, wl, seed, seconds, 0)
                vals = {k: v["value"] for k, v in res["metrics"].items()}
                if set(vals) != set(e2e):
                    print(f"{wl} seed {seed}: metrics {sorted(vals)} != BENCHMARK.json")
                    ok = False
                if not res["correct"] or fails:
                    print(f"{wl} seed {seed}: output checks failed: {fails}")
                    ok = False
                runs.append((seed, vals, steal, wall))
                print(f"  {wl} set {s + 1} seed {seed}: {wall:5.1f}s steal {steal:4.1f}% "
                      + " ".join(f"{k}={vals[k]:.4g}" for k in e2e), flush=True)
            sets.append(runs)

        print(f"\n== {wl}")
        print(f"  {'metric':<16}{'bound':>7}" + "".join(
            f"{'med' + str(i + 1):>11}{'spread' + str(i + 1):>9}" for i in range(args.sets))
            + ("   move" if args.sets > 1 else ""))
        for name, m in e2e.items():
            row = f"  {name:<16}{m['bound']:>7.2f}"
            meds = []
            for s, runs in enumerate(sets):
                values = [r[1][name] for r in runs]
                sp, q1, q3, med = spread(values)
                meds.append(med)
                flag = ""
                if sp > m["bound"] and name != "setup_s":
                    flag, ok = "!", False
                elif sp > m["bound"] / 3:
                    flag = "~"
                row += f"{med:>11.4g}{sp:>8.3f}{flag or ' '}"
                iqr = q3 - q1
                for seed, vals, steal, _ in runs:
                    v = vals[name]
                    if worse_by(m, med, v) > m["bound"] / 2:
                        print(f"  contention episode? set {s + 1} seed {seed}: {name}={v:.4g} is worse "
                              f"than the set median {med:.4g} by over half the bound (steal {steal:.1f}%)")
                    elif iqr > 0 and (v < q1 - 1.5 * iqr or v > q3 + 1.5 * iqr):
                        print(f"  outlier run: set {s + 1} seed {seed}: {name}={v:.4g} "
                              f"outside [{q1 - 1.5 * iqr:.4g}, {q3 + 1.5 * iqr:.4g}] (steal {steal:.1f}%)")
            if len(meds) > 1:
                mv = worse_by(m, meds[0], meds[-1])
                row += f" {mv:+7.3f}"
                if mv > m["bound"]:
                    row, ok = row + " WORSE", False
            print(row)
        for s, runs in enumerate(sets):
            for seed, _, steal, _ in runs:
                if steal > STEAL_FLAG:
                    print(f"  contention episode: set {s + 1} seed {seed} ran with {steal:.1f}% host steal")
        walls = [r[3] for runs in sets for r in runs]
        print(f"  run wall: median {statistics.median(walls):.1f}s, max {max(walls):.1f}s")
        print("  (spread = IQR/median; ! over bound, ~ over a third of it; move = second median worse by)")

        if args.traced:
            traced = []
            for seed in seeds[:args.traced]:
                res, _, fails, _ = run_once(cmd, wl, seed, seconds, 1)
                if not res["correct"] or fails:
                    print(f"{wl} traced seed {seed}: output checks failed: {fails}")
                    ok = False
                traced.append({k: v["value"] for k, v in res["metrics"].items()})
            print(f"  traced rows (median of {len(traced)} runs):")
            for m in bench["per_layer"]:
                v = statistics.median(t[m["name"]] for t in traced)
                if v:
                    print(f"    {m['name']:<28}{v:>12.4f} {m['unit']}")
            untraced = statistics.median(r[1]["latency_ms"] for r in sets[0])
            traced_lat = statistics.median(t["traced_latency_ms"] for t in traced)
            print(f"  tracing overhead: traced latency {traced_lat:.3f} ms vs untraced {untraced:.3f} ms "
                  f"({100 * (traced_lat / untraced - 1):+.1f}%)")
        print()
    sys.exit(0 if ok else 1)


if __name__ == "__main__":
    main()
