#!/usr/bin/env python3
"""Tests of the comparison verdicts and of the tail percentile rule.

    python3 perfbench/test_compare.py
"""

import os
import sys
import unittest

sys.dont_write_bytecode = True
sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))
import compare  # noqa: E402
import stats  # noqa: E402


class TailRule(unittest.TestCase):
    def test_value_has_exactly_ten_samples_beyond(self):
        value, pct, n = stats.tail(list(range(1, 101)))
        self.assertEqual(value, 90)
        self.assertEqual(pct, 90.0)
        self.assertEqual(n, 100)

    def test_order_of_samples_does_not_matter(self):
        self.assertEqual(stats.tail(list(range(1000, 0, -1)))[:2],
                         (990, 99.0))

    def test_eleven_samples_is_the_minimum(self):
        self.assertIsNone(stats.tail(list(range(10))))
        value, pct, n = stats.tail(list(range(11)))
        self.assertEqual((value, n), (0, 11))
        self.assertAlmostEqual(pct, 100.0 / 11)

    def test_histogram_tail_matches_raw_rule_at_bucket_resolution(self):
        # 90 samples in [0,10), 20 in [10,20): rank 99 lies in the second.
        buckets = [[10, 20, 20], [0, 10, 90]]
        value, pct, n = stats.hist_tail(buckets)
        self.assertEqual(value, 15.0)
        self.assertEqual(n, 110)
        self.assertAlmostEqual(pct, 100.0 * 100 / 110)
        self.assertIsNone(stats.hist_tail([[0, 1, 10]]))

    def test_histogram_median(self):
        self.assertEqual(stats.hist_median([[0, 2, 3], [2, 4, 1]]), 1.0)


class Verdicts(unittest.TestCase):
    BASE = [100.0, 101.0, 99.0, 100.5, 99.5, 100.2, 99.8, 100.1, 99.9, 100.0]

    def test_clear_gain_is_better(self):
        change = [v * 1.05 for v in self.BASE]
        self.assertEqual(stats.verdict(self.BASE, change, 0.1, "higher"),
                         "better")

    def test_gain_direction_follows_better_key(self):
        change = [v * 0.95 for v in self.BASE]
        self.assertEqual(stats.verdict(self.BASE, change, 0.1, "lower"),
                         "better")
        self.assertEqual(stats.verdict(self.BASE, change, 0.1, "higher"),
                         "no worse")

    def test_small_loss_within_bound_is_no_worse(self):
        change = [v * 0.97 for v in self.BASE]
        self.assertEqual(stats.verdict(self.BASE, change, 0.1, "higher"),
                         "no worse")

    def test_loss_beyond_bound_is_worse(self):
        change = [v * 0.85 for v in self.BASE]
        self.assertEqual(stats.verdict(self.BASE, change, 0.1, "higher"),
                         "worse")
        slower = [v * 1.15 for v in self.BASE]
        self.assertEqual(stats.verdict(self.BASE, slower, 0.1, "lower"),
                         "worse")

    def test_spread_wider_than_bound_is_unresolved(self):
        noisy = [60.0, 140.0, 80.0, 120.0, 100.0, 70.0, 130.0, 90.0, 110.0,
                 100.0]
        self.assertEqual(stats.verdict(noisy, list(reversed(noisy)), 0.1,
                                       "higher"), "unresolved")

    def test_every_change_run_better_lifts_unresolved(self):
        parent = [60.0, 140.0, 80.0, 120.0, 100.0]
        # The medians differ by less than the parent's inter-quartile
        # distance, so no gain claim; the spread is over the bound, but
        # every change run beats every parent run.
        change = [141.0, 142.0, 141.5, 141.2, 300.0]
        self.assertEqual(stats.verdict(parent, change, 0.1, "higher"),
                         "no worse")
        change = [141.0, 142.0, 141.5, 300.0, 30.0]
        self.assertEqual(stats.verdict(parent, change, 0.1, "higher"),
                         "unresolved")

    def test_gain_needs_nine_tenths_of_pairs(self):
        change = [v * 1.05 for v in self.BASE]
        change[0] = change[1] = 50.0  # two losses in ten pairs
        self.assertNotEqual(stats.verdict(self.BASE, change, 0.5, "higher"),
                            "better")

    def test_gain_smaller_than_parent_spread_is_not_better(self):
        parent = [90.0, 95.0, 100.0, 105.0, 110.0]
        change = [v + 1.0 for v in parent]
        self.assertEqual(stats.verdict(parent, change, 0.25, "higher"),
                         "no worse")


class CompareRows(unittest.TestCase):
    @staticmethod
    def record(workload, seed, value):
        return {"workload": workload, "seed": seed, "trace": 0,
                "result": {"correct": True, "metrics": {
                    "sim_ips": {"value": value, "unit": "instr/s"}}}}

    def test_pairs_by_seed_and_reports_quartiles(self):
        metrics = [{"name": "sim_ips", "bound": 0.1, "better": "higher"}]
        parent = {"run-cpu": [self.record("run-cpu", s, 100.0 + s)
                              for s in range(10)]}
        change = {"run-cpu": [self.record("run-cpu", s, 200.0 + s)
                              for s in reversed(range(10))]}
        rows = compare.compare(parent, change, metrics)
        self.assertEqual(len(rows), 1)
        workload, name, pq, cq, verdict = rows[0]
        self.assertEqual((workload, name, verdict),
                         ("run-cpu", "sim_ips", "better"))
        self.assertEqual(pq[1], 104.5)
        self.assertEqual(cq[1], 204.5)

    def test_throughput_metrics_are_judged_on_their_own_workloads(self):
        metrics = [{"name": "sim_ips", "bound": 0.1, "better": "higher"},
                   {"name": "setup_s", "bound": 0.1, "better": "lower"}]
        runs = {w: [self.record(w, s, 100.0) for s in range(3)]
                for w in ("run-mem", "campaign")}
        for recs in runs.values():
            for r in recs:
                r["result"]["metrics"]["setup_s"] = {"value": 1.0,
                                                     "unit": "s"}
        rows = compare.compare(runs, runs, metrics)
        self.assertEqual(sorted((w, m) for w, m, _, _, _ in rows),
                         [("campaign", "setup_s"), ("run-mem", "setup_s"),
                          ("run-mem", "sim_ips")])


if __name__ == "__main__":
    unittest.main()
