#!/usr/bin/env python3
"""Run one workload of the UTLB replay benchmark.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

--seconds defaults to BENCHMARK.json's run_seconds, the run length the
benchmark's bounds were set for.

Builds replay_bench from the checkout's sources (Release, into
.bench_build/perfbench), runs it, compares the modeled outputs of the
deterministic workloads with perfbench/reference.json, and prints one
JSON object as the last line of standard output:

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

With --trace 0 the metrics are the end-to-end ones, with --trace 1 the
per-layer ones. The full run record (host, build, findings, modeled
outputs) goes to .bench_out/. Exits 0 only when the output check
passes; see README.md for the metrics and workloads.

    python3 perfbench/run.py --record-reference SEED...

re-records the reference modeled outputs for the given seeds.
"""

import argparse
import hashlib
import json
import os
import shutil
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD_DIR = os.path.join(ROOT, ".bench_build", "perfbench")
OUT_DIR = os.path.join(ROOT, ".bench_out")
BINARY = os.path.join(BUILD_DIR, "replay_bench")
REFERENCE = os.path.join(HERE, "reference.json")
SPEC = os.path.join(ROOT, "BENCHMARK.json")

WORKLOADS = ("paper_cold", "warm_hits", "pin_churn", "mt_churn")
# Workloads whose modeled outputs are deterministic for a seed.
SEQUENTIAL = ("paper_cold", "warm_hits", "pin_churn")
DEFAULT_SEED = 12345  # tlbsim's default seed
RUN_DEADLINE_S = 175  # a run must end within 180 s


def log(msg):
    print("run.py: " + msg, file=sys.stderr, flush=True)


def build(target="replay_bench"):
    """Configure (once) and build @target; build output goes to stderr."""
    jobs = str(min(os.cpu_count() or 1, 4))
    if not os.path.exists(os.path.join(BUILD_DIR, "CMakeCache.txt")):
        cmd = ["cmake", "-S", HERE, "-B", BUILD_DIR,
               "-DCMAKE_BUILD_TYPE=Release"]
        if shutil.which("ninja"):
            cmd += ["-G", "Ninja"]
        subprocess.run(cmd, stdout=sys.stderr, check=True)
    subprocess.run(["cmake", "--build", BUILD_DIR, "--target", target,
                    "-j", jobs], stdout=sys.stderr, check=True)


def canonical(obj):
    return json.dumps(obj, sort_keys=True, separators=(",", ":"))


def digest(obj):
    return hashlib.sha256(canonical(obj).encode()).hexdigest()[:16]


def load_reference(path):
    with open(path) as f:
        return json.load(f)


def check_reference(ref, workload, seed, modeled):
    """Compare modeled outputs with the reference.

    Returns (status, problems): status is "match", "mismatch", or
    "none" when the reference holds no entry for this seed.
    """
    if workload not in SEQUENTIAL:
        return "none", []
    full = ref.get("full", {}).get(workload, {}).get(str(seed))
    if full is not None:
        if modeled == full:
            return "match", []
        problems = []
        for trace_name in sorted(set(full) | set(modeled)):
            want = full.get(trace_name, {})
            got = modeled.get(trace_name, {})
            for part in sorted(set(want) | set(got)):
                for key in sorted(set(want.get(part, {}))
                                  | set(got.get(part, {}))):
                    w = want.get(part, {}).get(key)
                    g = got.get(part, {}).get(key)
                    if w != g:
                        problems.append("%s %s %s: reference %s, got %s"
                                        % (trace_name, part, key, w, g))
        return "mismatch", problems[:20]
    want = ref.get("digests", {}).get(workload, {}).get(str(seed))
    if want is None:
        return "none", []
    if digest(modeled) == want:
        return "match", []
    return "mismatch", ["modeled outputs differ from the reference digest"]


def run_binary(args, timeout):
    proc = subprocess.run([BINARY] + args, stdout=subprocess.PIPE,
                          text=True, timeout=timeout)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise RuntimeError("replay_bench exited with %d" % proc.returncode)
    return json.loads(lines[-1])


def record_reference(seeds):
    """Write reference.json: full outputs at the default seed, digests
    for the others."""
    build()
    ref = {"default_seed": DEFAULT_SEED, "full": {}, "digests": {}}
    for workload in SEQUENTIAL:
        for seed in seeds:
            res = run_binary(["--workload", workload, "--seed", str(seed),
                              "--seconds", "0", "--trace", "0"],
                             RUN_DEADLINE_S)
            if not res["correct"]:
                raise RuntimeError("%s seed %d fails its own output check"
                                   % (workload, seed))
            if seed == DEFAULT_SEED:
                ref["full"].setdefault(workload, {})[str(seed)] = \
                    res["modeled"]
            else:
                ref["digests"].setdefault(workload, {})[str(seed)] = \
                    digest(res["modeled"])
            log("recorded %s seed %d" % (workload, seed))
    with open(REFERENCE, "w") as f:
        json.dump(ref, f, indent=1, sort_keys=True)
        f.write("\n")


def main():
    started = time.monotonic()
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", choices=WORKLOADS)
    ap.add_argument("--seed", type=int, default=DEFAULT_SEED)
    ap.add_argument("--seconds", type=float,
                    help="timed seconds (default: BENCHMARK.json's "
                    "run_seconds)")
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--reference", default=REFERENCE,
                    help="reference outputs to check against")
    ap.add_argument("--record-reference", type=int, nargs="+",
                    metavar="SEED")
    args = ap.parse_args()

    if args.record_reference:
        record_reference(args.record_reference)
        return 0
    if args.workload is None:
        ap.error("--workload is required")
    if args.seed < 0:
        ap.error("--seed must be >= 0")
    if args.seconds is None:
        try:
            with open(SPEC) as f:
                args.seconds = json.load(f)["run_seconds"]
        except (OSError, ValueError, KeyError) as e:
            ap.error("--seconds not given and no run_seconds in %s: %s"
                     % (SPEC, e))

    try:
        build()
        ref = load_reference(args.reference)
    except (OSError, subprocess.CalledProcessError, ValueError) as e:
        log("cannot build or load the benchmark: %s" % e)
        return 1

    os.makedirs(OUT_DIR, exist_ok=True)
    tag = "%s-seed%d-trace%d" % (args.workload, args.seed, args.trace)
    cmd = ["--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace)]
    if args.trace:
        cmd += ["--trace-out", os.path.join(OUT_DIR, "spans-%s.json" % tag)]
    try:
        res = run_binary(cmd, RUN_DEADLINE_S - (time.monotonic() - started))
    except (RuntimeError, subprocess.TimeoutExpired, ValueError) as e:
        log(str(e))
        return 1

    status, problems = check_reference(ref, args.workload, args.seed,
                                       res.get("modeled"))
    for p in problems:
        log("reference check failed: " + p)
    if status == "none" and args.workload in SEQUENTIAL:
        log("warning: reference.json holds no modeled outputs of %s for "
            "seed %d (it covers %d and 0-127); the bit-identical check "
            "was skipped, the other output checks ran"
            % (args.workload, args.seed, DEFAULT_SEED))
    res["reference"] = status
    res["problems"] = res.get("problems", []) + problems
    correct = bool(res["correct"]) and status != "mismatch"
    with open(os.path.join(OUT_DIR, "run-%s.json" % tag), "w") as f:
        json.dump(res, f, indent=1)
        f.write("\n")

    print("host: " + canonical(res["host"]) + " reference: " + status)
    print(canonical({"correct": correct, "attempted": res["attempted"],
                     "failed": res["failed"], "metrics": res["metrics"]}))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
