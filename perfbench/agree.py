#!/usr/bin/env python3
"""Measure the benchmark's run-to-run spread and check that two sets
of runs agree.

    python3 perfbench/agree.py run --workload W --seeds 1 2 ... --out SET.json
        Runs run.py once per seed (--trace 0) and stores every
        end-to-end metric of every run in SET.json, then prints each
        metric's median and its spread: the distance between the first
        and third quartile (statistics.quantiles(values, n=4)) as a
        share of the median.

    python3 perfbench/agree.py check FIRST.json [SECOND.json]
        Fails (exit 1) if a metric's spread exceeds its bound in
        BENCHMARK.json, or if SECOND's median is worse
        than FIRST's by more than the bound.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def bounds():
    """End-to-end metrics of BENCHMARK.json: name -> (better, bound)."""
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    return {m["name"]: (m["better"], m["bound"]) for m in spec["end_to_end"]}


def spread(values):
    """Interquartile distance as a share of the median."""
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return (q3 - q1) / q2


def worsening(first, second, better):
    """How much worse the median of @second is than that of @first,
    as a share of the first (negative when it is better)."""
    a = statistics.median(first)
    b = statistics.median(second)
    return (a - b) / a if better == "higher" else (b - a) / a


def problems(sets, limits):
    """Findings for one or two sets ({metric: [values]} each)."""
    out = []
    for name, (better, bound) in sorted(limits.items()):
        for i, s in enumerate(sets):
            if name not in s:
                out.append("set %d lacks %s" % (i + 1, name))
                continue
            sp = spread(s[name])
            if sp > bound:
                out.append("set %d: %s spread %.4f exceeds bound %.4f"
                           % (i + 1, name, sp, bound))
        if len(sets) == 2 and name in sets[0] and name in sets[1]:
            w = worsening(sets[0][name], sets[1][name], better)
            if w > bound:
                out.append("%s: second median worse by %.4f, bound %.4f"
                           % (name, w, bound))
    return out


def run_set(workload, seeds, seconds):
    values = {}
    for seed in seeds:
        proc = subprocess.run(
            [sys.executable, os.path.join(HERE, "run.py"), "--workload",
             workload, "--seed", str(seed), "--seconds", str(seconds),
             "--trace", "0"], stdout=subprocess.PIPE, text=True, cwd=ROOT)
        res = json.loads(proc.stdout.strip().splitlines()[-1])
        if proc.returncode != 0 or not res["correct"]:
            raise SystemExit("%s seed %d: output check failed"
                             % (workload, seed))
        for name, m in res["metrics"].items():
            values.setdefault(name, []).append(m["value"])
        print("%s seed %d: %s" % (workload, seed, " ".join(
            "%s=%.6g" % (k, m["value"]) for k, m in res["metrics"].items())),
            flush=True)
    return values


def summary(values, limits):
    for name, vs in sorted(values.items()):
        bound = limits.get(name, (None, None))[1]
        print("  %-12s median %-14.6g spread %.4f  bound %s"
              % (name, statistics.median(vs), spread(vs), bound))


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    sub = ap.add_subparsers(dest="cmd", required=True)
    r = sub.add_parser("run")
    r.add_argument("--workload", required=True)
    r.add_argument("--seeds", type=int, nargs="+", required=True)
    r.add_argument("--seconds", type=float)
    r.add_argument("--out", required=True)
    c = sub.add_parser("check")
    c.add_argument("sets", nargs="+")
    args = ap.parse_args()

    limits = bounds()
    if args.cmd == "run":
        if args.seconds is None:
            with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
                args.seconds = json.load(f)["run_seconds"]
        values = run_set(args.workload, args.seeds, args.seconds)
        with open(args.out, "w") as f:
            json.dump({"workload": args.workload, "seeds": args.seeds,
                       "values": values}, f, indent=1)
        summary(values, limits)
        return 0

    sets = []
    for path in args.sets[:2]:
        with open(path) as f:
            sets.append(json.load(f)["values"])
    for path, s in zip(args.sets, sets):
        print(path)
        summary(s, limits)
    found = problems(sets, limits)
    for p in found:
        print("FAIL " + p)
    return 1 if found else 0


if __name__ == "__main__":
    sys.exit(main())
