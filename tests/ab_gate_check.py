#!/usr/bin/env python3
"""tools/ab.py's verdict function on synthetic A/B records.

    python3 tests/ab_gate_check.py

Records carry BENCHMARK.json's end-to-end metrics and bounds. Per-run
noise is an independent uniform factor in [0.85, 1.15] on the measured
metrics (setup_s, solve_s, peak_rss_mb); the counts and ratios are
exact, as perfbench's are for a seed.

The noise is independent per run, so nothing cancels within a pair. A
pair ratio then spreads by about +-0.17 around 1.4, and the 95% interval
of the median of 10 ratios reaches down to about the second-lowest one.
At the default 10 pairs a 1.4x slowdown reads `regressed` in about 6
sets of 10 and `unresolved` in the rest, never `ok`. The sets that must
always read `regressed` run 80 pairs, where 1000 simulated sets all did.
"""

import json
import random
import sys
import unittest
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.dont_write_bytecode = True  # keep tools/ free of __pycache__
sys.path.insert(0, str(ROOT / "tools"))
import ab  # noqa: E402

METRICS = json.loads((ROOT / "BENCHMARK.json").read_text())["end_to_end"]
BASE = {"setup_s": 0.02, "solve_s": 1.0, "quality": 0.95, "rounds": 126,
        "message_bits": 1.5e7, "peak_rss_mb": 87.0, "pass_frac": 1.0}
NOISY = ("setup_s", "solve_s", "peak_rss_mb")
HOST = {"cpu_model": "test cpu", "nproc": 4, "l1d_bytes": 49152,
        "l2_bytes": 2097152, "l3_bytes": 110100480, "pool_threads": 2}


def record(rng, scale=None, failed=0):
    scale = scale or {}
    metrics = {}
    for m in METRICS:
        v = BASE[m["name"]] * scale.get(m["name"], 1.0)
        if m["name"] in NOISY:
            v *= 1 + rng.uniform(-0.15, 0.15)
        metrics[m["name"]] = {"value": v, "unit": m["unit"]}
    return {"workload": "bip_mcm", "host": HOST, "attempted": 20,
            "failed": failed, "metrics": metrics}


def record_set(seed, pairs, scale=None):
    rng = random.Random(seed)
    return [(record(rng), record(rng, scale)) for _ in range(pairs)]


def verdicts(pairs):
    return {r["metric"]: r["verdict"] for r in ab.compare(pairs, METRICS)}


class VerdictTest(unittest.TestCase):
    def test_aa_noise_never_regresses(self):
        for seed in range(20):
            v = verdicts(record_set(seed, 10))
            self.assertNotIn("regressed", v.values(), f"seed {seed}: {v}")

    def test_solve_40_percent_slower_always_regresses(self):
        for seed in range(100, 120):
            v = verdicts(record_set(seed, 80, {"solve_s": 1.4}))
            self.assertEqual(v["solve_s"], "regressed", f"seed {seed}")
            self.assertEqual(v["rounds"], "ok", f"seed {seed}")

    def test_solve_40_percent_slower_never_reads_ok_at_ten_pairs(self):
        for seed in range(200, 220):
            v = verdicts(record_set(seed, 10, {"solve_s": 1.4}))
            self.assertIn(v["solve_s"], ("regressed", "unresolved"),
                          f"seed {seed}")

    def test_rounds_30_percent_higher_regresses(self):
        v = verdicts(record_set(300, 10, {"rounds": 1.3}))
        self.assertEqual(v["rounds"], "regressed")
        self.assertNotEqual(v["solve_s"], "regressed")

    def test_clear_speedup_is_a_gain(self):
        v = verdicts(record_set(400, 10, {"solve_s": 0.7}))
        self.assertEqual(v["solve_s"], "gain")
        self.assertEqual(v["rounds"], "ok")

    def test_same_records_same_verdict(self):
        pairs = record_set(500, 10, {"solve_s": 1.2})
        self.assertEqual(ab.compare(pairs, METRICS),
                         ab.compare(pairs, METRICS))

    def test_mismatched_hosts_are_refused(self):
        pairs = record_set(600, 10)
        other = dict(HOST, l3_bytes=2 * HOST["l3_bytes"])
        pairs[3] = (pairs[3][0], dict(pairs[3][1], host=other))
        with self.assertRaises(ab.Refused):
            ab.compare(pairs, METRICS)

    def test_more_failed_solves_are_flagged(self):
        rng = random.Random(700)
        pairs = [(record(rng), record(rng, failed=1 if i == 0 else 0))
                 for i in range(10)]
        self.assertEqual(ab.more_failures(ab.failure_shares(pairs)),
                         ["bip_mcm"])
        self.assertEqual(ab.more_failures(ab.failure_shares(
            record_set(701, 10))), [])


if __name__ == "__main__":
    unittest.main()
