#!/usr/bin/env python3
"""Self-tests of the replay benchmark.

    python3 perfbench/tests/test_bench.py

Builds the benchmark like run.py does, then checks that:
  - a short run of every workload, traced and untraced, passes the
    output check and prints exactly the metrics BENCHMARK.json names;
  - a run against a deliberately wrong reference fails;
  - the default-seed reference of paper_cold equals what tlbsim
    prints for all seven traces (tlbsim <trace> --mode both);
  - the traced run writes a Chrome trace with one track per worker;
  - the spread and agreement check of agree.py accepts and rejects
    what it should.
"""

import json
import os
import subprocess
import sys
import unittest

HERE = os.path.dirname(os.path.abspath(__file__))
BENCH = os.path.dirname(HERE)
ROOT = os.path.dirname(BENCH)
sys.path.insert(0, BENCH)

import agree  # noqa: E402
import run  # noqa: E402

SPEC = json.load(open(os.path.join(ROOT, "BENCHMARK.json")))


def bench(*args):
    """Run run.py; return (exit code, last-line JSON or None)."""
    proc = subprocess.run([sys.executable, os.path.join(BENCH, "run.py")]
                          + list(args), stdout=subprocess.PIPE, text=True,
                          cwd=ROOT)
    lines = proc.stdout.strip().splitlines()
    try:
        return proc.returncode, json.loads(lines[-1])
    except (IndexError, ValueError):
        return proc.returncode, None


class SmokeRuns(unittest.TestCase):
    def check_run(self, workload, trace):
        code, res = bench("--workload", workload, "--seed",
                          str(run.DEFAULT_SEED), "--seconds", "1",
                          "--trace", str(trace))
        self.assertEqual(code, 0)
        self.assertEqual(set(res), {"correct", "attempted", "failed",
                                    "metrics"})
        self.assertTrue(res["correct"])
        self.assertGreater(res["attempted"], 0)
        self.assertEqual(res["failed"], 0)
        want = SPEC["per_layer" if trace else "end_to_end"]
        self.assertEqual(
            {k: v["unit"] for k, v in res["metrics"].items()},
            {m["name"]: m["unit"] for m in want})
        return res

    def test_paper_cold(self):
        for trace in (0, 1):
            res = self.check_run("paper_cold", trace)
        m = res["metrics"]
        self.assertGreater(m["walk.calls"]["value"], 0)
        self.assertGreater(m["intr.calls"]["value"], 0)

    def test_warm_hits(self):
        self.check_run("warm_hits", 0)
        m = self.check_run("warm_hits", 1)["metrics"]
        # Every probe hits: walk and install never run.
        self.assertEqual(m["cache.hit_ratio"]["value"], 1)
        self.assertEqual(m["walk.calls"]["value"], 0)
        self.assertEqual(m["mem.frames_per_xlat"]["value"], 0)

    def test_pin_churn(self):
        self.check_run("pin_churn", 0)
        m = self.check_run("pin_churn", 1)["metrics"]
        self.assertGreater(m["pin.unpins_per_xlat"]["value"], 0)
        self.assertGreater(m["cache.invalidations_per_xlat"]["value"], 0)

    def test_mt_churn(self):
        self.check_run("mt_churn", 0)
        m = self.check_run("mt_churn", 1)["metrics"]
        self.assertGreater(m["mt.scaling"]["value"], 0)
        self.assertGreaterEqual(m["mt.worker_skew"]["value"], 1)

    def test_layer_shares_cover_traced_wall(self):
        m = self.check_run("pin_churn", 1)["metrics"]
        total = sum(m[k]["value"] for k in m if k.endswith("share")
                    and k != "tlbsim.self_share")
        self.assertAlmostEqual(total, 1.0, places=9)


class OutputCheck(unittest.TestCase):
    def test_wrong_reference_fails(self):
        with open(run.REFERENCE) as f:
            ref = json.load(f)
        ref["full"]["paper_cold"][str(run.DEFAULT_SEED)]["fft"]["utlb"][
            "pages_pinned"] += 1
        os.makedirs(run.OUT_DIR, exist_ok=True)
        wrong = os.path.join(run.OUT_DIR, "wrong-reference.json")
        with open(wrong, "w") as f:
            json.dump(ref, f)
        code, res = bench("--workload", "paper_cold", "--seconds", "0",
                          "--trace", "0", "--reference", wrong)
        self.assertEqual(code, 1)
        self.assertFalse(res["correct"])

    def test_paper_cold_reference_matches_tlbsim(self):
        run.build("tlbsim")
        tlbsim = os.path.join(run.BUILD_DIR, "utlb", "tlbsim", "tlbsim")
        with open(run.REFERENCE) as f:
            ref = json.load(f)["full"]["paper_cold"][str(run.DEFAULT_SEED)]
        os.makedirs(run.OUT_DIR, exist_ok=True)
        for trace_name, mechs in ref.items():
            path = os.path.join(run.OUT_DIR, "tlbsim-%s.json" % trace_name)
            subprocess.run([tlbsim, trace_name, "--mode", "both",
                            "--seed", str(run.DEFAULT_SEED),
                            "--stats-json", path],
                           stdout=subprocess.DEVNULL, check=True)
            with open(path) as f:
                runs = {r["mechanism"]: r["results"]
                        for r in json.load(f)["runs"]}
            for mech, want in mechs.items():
                got = runs[mech]
                for key, value in want.items():
                    if key.endswith("_ps"):
                        us = got[key[:-3] + "_us"]
                        self.assertAlmostEqual(value * 1e-6, us,
                                               delta=abs(us) * 1e-10,
                                               msg=(trace_name, mech, key))
                    else:
                        self.assertEqual(value, got[key],
                                         (trace_name, mech, key))

    def test_chrome_trace_has_one_track_per_worker(self):
        code, _ = bench("--workload", "mt_churn", "--seconds", "1",
                        "--trace", "1", "--seed", "7")
        self.assertEqual(code, 0)
        path = os.path.join(run.OUT_DIR,
                            "spans-mt_churn-seed7-trace1.json")
        with open(path) as f:
            events = json.load(f)["traceEvents"]
        tracks = {e["tid"] for e in events if e["ph"] == "X"}
        self.assertEqual(len(tracks), min(len(os.sched_getaffinity(0)), 4))
        self.assertTrue(all(e["name"] == "translateRange"
                            for e in events if e["ph"] == "X"))


class Agreement(unittest.TestCase):
    LIMITS = {"xlat_per_s": ("higher", 0.1), "setup_s": ("lower", 0.25)}

    def test_spread_is_iqr_over_median(self):
        values = [1.0, 2.0, 3.0, 4.0, 5.0, 6.0, 7.0, 8.0, 9.0, 10.0]
        self.assertAlmostEqual(agree.spread(values), (8.25 - 2.75) / 5.5)

    def test_same_sets_agree(self):
        s = {"xlat_per_s": [100, 101, 99, 100, 102],
             "setup_s": [1.0, 1.01, 0.99, 1.0, 1.0]}
        self.assertEqual(agree.problems([s, s], self.LIMITS), [])

    def test_worse_second_median_is_rejected(self):
        a = {"xlat_per_s": [100, 101, 99, 100, 102], "setup_s": [1] * 5}
        b = {"xlat_per_s": [80, 81, 79, 80, 82], "setup_s": [1] * 5}
        self.assertEqual(len(agree.problems([a, b], self.LIMITS)), 1)
        slow = {"xlat_per_s": a["xlat_per_s"], "setup_s": [1.3] * 5}
        self.assertEqual(len(agree.problems([a, slow], self.LIMITS)), 1)

    def test_wide_spread_is_rejected(self):
        wide = {"xlat_per_s": [50, 100, 150, 100, 60],
                "setup_s": [0.5, 1.0, 1.5, 1.0, 0.6]}
        found = agree.problems([wide], self.LIMITS)
        self.assertEqual(len(found), 2)
        self.assertIn("setup_s", found[0])
        self.assertIn("xlat_per_s", found[1])


if __name__ == "__main__":
    unittest.main(verbosity=2)
