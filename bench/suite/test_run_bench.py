#!/usr/bin/env python3
"""Tests of run_bench.py's statistics: quartiles, bound check, verdicts.

Run directly or through ctest in the suite's build tree."""

import sys
import unittest
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))

import run_bench  # noqa: E402


class SummarizeTest(unittest.TestCase):
    def test_quartiles_match_statistics_quantiles(self):
        s = run_bench.summarize([1, 2, 3, 4, 5, 6, 7, 8, 9, 10])
        self.assertEqual((s["q1"], s["median"], s["q3"], s["n"]), (2.75, 5.5, 8.25, 10))

    def test_single_sample_has_zero_spread(self):
        s = run_bench.summarize([4.0])
        self.assertEqual((s["q1"], s["median"], s["q3"], s["n"]), (4.0, 4.0, 4.0, 1))
        self.assertEqual(run_bench.relative_spread(s), 0.0)

    def test_relative_spread_is_iqr_over_median(self):
        s = run_bench.summarize([9, 10, 10, 10, 11])
        self.assertAlmostEqual(run_bench.relative_spread(s), (s["q3"] - s["q1"]) / 10)

    def test_empty_is_an_error(self):
        with self.assertRaises(ValueError):
            run_bench.summarize([])


class VerdictTest(unittest.TestCase):
    steady = [1.00, 1.01, 0.99, 1.00, 1.02]

    def test_unchanged_within_bound(self):
        head = [v * 1.05 for v in self.steady]
        self.assertEqual(run_bench.verdict(self.steady, head, "lower", 0.10), "unchanged")

    def test_regressed_beyond_bound_lower_is_better(self):
        head = [v * 1.2 for v in self.steady]
        self.assertEqual(run_bench.verdict(self.steady, head, "lower", 0.10), "regressed")

    def test_direction_follows_better(self):
        head = [v * 1.2 for v in self.steady]
        self.assertEqual(run_bench.verdict(self.steady, head, "higher", 0.10), "improved")
        head = [v * 0.8 for v in self.steady]
        self.assertEqual(run_bench.verdict(self.steady, head, "higher", 0.10), "regressed")

    def test_unresolved_when_spread_exceeds_bound(self):
        noisy = [0.7, 1.0, 1.3, 0.8, 1.2]
        self.assertEqual(run_bench.verdict(self.steady, noisy, "lower", 0.10), "unresolved")
        self.assertEqual(run_bench.verdict(noisy, self.steady, "lower", 0.10), "unresolved")

    def test_wide_spread_still_improved_when_runs_separate(self):
        base = [2.0, 2.6, 3.0, 2.2, 2.8]
        head = [1.0, 1.3, 1.5, 1.1, 1.4]
        self.assertEqual(run_bench.verdict(base, head, "lower", 0.10), "improved")

    def test_zero_bound_flags_any_increase(self):
        self.assertEqual(run_bench.verdict([0, 0, 0], [0, 0, 0], "lower", 0.0), "unchanged")
        self.assertEqual(run_bench.verdict([0, 0, 0], [0, 0.01, 0], "lower", 0.0), "regressed")
        self.assertEqual(run_bench.verdict([0, 0.01, 0], [0, 0, 0], "lower", 0.0), "improved")


if __name__ == "__main__":
    unittest.main()
