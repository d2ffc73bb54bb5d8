"""Self-tests of the compare rule on synthetic inputs.

    python3 geobench/test_compare.py
"""
import os
import sys
import unittest

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))

import compare  # noqa: E402

LOWER = {"better": "lower", "bound": 0.1}
HIGHER = {"better": "higher", "bound": 0.1}
UNBOUNDED = {"better": "lower", "bound": None}


class QuartileTest(unittest.TestCase):
    def test_matches_python_exclusive_quartiles(self):
        self.assertEqual(compare.quartiles(list(range(1, 11))),
                         (2.75, 5.5, 8.25))

    def test_spread_is_iqr_over_median(self):
        self.assertAlmostEqual(compare.spread(list(range(1, 11))),
                               5.5 / 5.5)


class JudgeTest(unittest.TestCase):
    parent = [100.0, 101.0, 99.0, 100.5, 99.5, 100.2, 99.8, 100.1, 99.9, 100.0]

    def test_clear_gain_wins_every_pair(self):
        change = [v - 10 for v in self.parent]
        self.assertEqual(compare.judge(LOWER, self.parent, change),
                         ("gain", 10))

    def test_gain_needs_nine_in_ten_pairs(self):
        change = [v - 10 for v in self.parent]
        change[0] = self.parent[0] + 1
        change[1] = self.parent[1] + 1
        verdict, wins = compare.judge(LOWER, self.parent, change)
        self.assertEqual(wins, 8)
        self.assertNotEqual(verdict, "gain")

    def test_ties_count_for_neither_side(self):
        change = list(self.parent)
        self.assertEqual(compare.judge(LOWER, self.parent, change),
                         ("unchanged", 0))

    def test_gain_needs_gap_larger_than_parent_iqr(self):
        # Wins every pair by a hair, but the medians differ by less than
        # the parent's interquartile range.
        change = [v - 0.05 for v in self.parent]
        verdict, wins = compare.judge(LOWER, self.parent, change)
        self.assertEqual(wins, 10)
        self.assertEqual(verdict, "unchanged")

    def test_higher_is_better_direction(self):
        change = [v + 20 for v in self.parent]
        self.assertEqual(compare.judge(HIGHER, self.parent, change)[0], "gain")
        self.assertEqual(compare.judge(LOWER, self.parent, change)[0],
                         "regression")

    def test_regression_beyond_bound(self):
        change = [v * 1.2 for v in self.parent]
        self.assertEqual(compare.judge(LOWER, self.parent, change)[0],
                         "regression")

    def test_worse_within_bound_is_unchanged(self):
        change = [v * 1.05 for v in self.parent]
        self.assertEqual(compare.judge(LOWER, self.parent, change)[0],
                         "unchanged")

    def test_spread_over_bound_is_unresolved(self):
        noisy = [50.0, 150.0, 80.0, 120.0, 60.0, 140.0, 90.0, 110.0, 70.0, 130.0]
        change = [v * 1.02 for v in noisy]
        self.assertEqual(compare.judge(LOWER, noisy, change)[0], "unresolved")

    def test_spread_over_bound_but_every_run_better(self):
        noisy = [50.0, 150.0, 80.0, 120.0, 60.0, 140.0, 90.0, 110.0, 70.0, 130.0]
        change = [v / 10 for v in noisy]
        self.assertEqual(compare.judge(LOWER, noisy, change)[0], "gain")

    def test_unbounded_metric_is_judged_for_gain_only(self):
        change = [v * 1.5 for v in self.parent]
        self.assertEqual(compare.judge(UNBOUNDED, self.parent, change)[0],
                         "no-gain")


if __name__ == "__main__":
    unittest.main()
