#!/usr/bin/env python3
"""Steadiness check for the serving benchmark.

Runs each workload N times, seeds --first-seed onwards, and prints, for every
end-to-end metric, the median, the quartiles and the spread (quartile
distance over median) against the metric's bound in BENCHMARK.json.
With --other DIR, each seed also runs in the checkout DIR (another
build, e.g. the parent commit), in alternating order, and the table adds
that set's median and how much worse this set's median is, against the
bound.

    python3 perfbench/steady.py [--runs 10] [--first-seed 1] [--workloads a,b]
                                [--other DIR] [--json FILE]

Run it from the root of a checkout. Exits 1 when a run fails, a spread
exceeds its bound, or (with --other) a median moves by more than its
bound or the share of failed operations differs.
"""

import argparse
import json
import statistics
import subprocess
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def run_once(checkout, workload, seed, seconds):
    cmd = [sys.executable, "perfbench/run.py", "--workload", workload,
           "--seed", str(seed), "--seconds", str(seconds), "--trace", "0"]
    t0 = time.monotonic()
    proc = subprocess.run(cmd, cwd=checkout, capture_output=True, text=True)
    wall = time.monotonic() - t0
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        sys.stderr.write(proc.stderr[-4000:])
        raise SystemExit(f"{workload} seed {seed} in {checkout}: "
                         f"exit {proc.returncode}")
    result = json.loads(lines[-1])
    result["wall_s"] = wall
    return result


def spread(values):
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, statistics.median(values), q3, (q3 - q1) / q2


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--runs", type=int, default=10)
    ap.add_argument("--first-seed", type=int, default=1)
    ap.add_argument("--workloads", default="")
    ap.add_argument("--other", default="")
    ap.add_argument("--json", default="")
    args = ap.parse_args()

    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    seconds = spec["run_seconds"]
    workloads = ([w for w in args.workloads.split(",") if w] or
                 [w["name"] for w in spec["workloads"]])
    sides = [("this", ROOT)]
    if args.other:
        sides.append(("other", Path(args.other).resolve()))

    ok = True
    report = {}
    for w in workloads:
        runs = {name: [] for name, _ in sides}
        for i in range(args.runs):
            seed = args.first_seed + i
            order = sides if i % 2 == 0 else list(reversed(sides))
            for name, checkout in order:
                r = run_once(checkout, w, seed, seconds)
                runs[name].append(r)
                print(f"{w} seed {seed} {name}: {r['wall_s']:.1f} s, "
                      f"attempted {r['attempted']} failed {r['failed']}",
                      file=sys.stderr)
        report[w] = runs
        print(f"\n{w} ({args.runs} runs per side, {seconds} s each)")
        for name, _ in sides:
            shares = {r["failed"] / r["attempted"] for r in runs[name]}
            walls = [r["wall_s"] for r in runs[name]]
            print(f"  {name}: failed share {sorted(shares)}, "
                  f"run wall {min(walls):.1f}-{max(walls):.1f} s")
        if len(sides) == 2:
            a = {r["failed"] / r["attempted"] for r in runs["this"]}
            b = {r["failed"] / r["attempted"] for r in runs["other"]}
            if a != b:
                ok = False
                print("  FAIL: the share of failed operations differs")
        for m in spec["end_to_end"]:
            name, bound = m["name"], m["bound"]
            vals = [r["metrics"][name]["value"] for r in runs["this"]]
            q1, med, q3, sp = spread(vals)
            line = (f"  {name:28s} median {med:12.5g}  q1 {q1:12.5g}  "
                    f"q3 {q3:12.5g}  spread {sp:7.4f} / bound {bound}")
            # setup_s is held to its bound only between two sets.
            if sp > bound and name != "setup_s":
                ok = False
                line += "  FAIL"
            elif sp > bound / 3:
                line += "  (above a third)"
            if len(sides) == 2:
                other = [r["metrics"][name]["value"] for r in runs["other"]]
                omed = statistics.median(other)
                change = (med - omed) / omed
                if m["better"] == "higher":
                    change = -change
                line += f"  other median {omed:.5g} worse-by {change:+.4f}"
                if change > bound:
                    ok = False
                    line += "  FAIL"
            print(line)
    if args.json:
        Path(args.json).write_text(json.dumps(report, indent=1))
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
