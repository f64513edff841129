"""Tests for the benchmark's statistics.

Run: python3 perfbench/test_stats.py
"""

import os
import statistics
import sys
import unittest

sys.dont_write_bytecode = True
sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))
import stats  # noqa: E402


class TestMedian(unittest.TestCase):
    def test_odd_and_even(self):
        self.assertEqual(stats.median([3, 1, 2]), 2)
        self.assertEqual(stats.median([4, 1, 3, 2]), 2.5)

    def test_empty_raises(self):
        with self.assertRaises(ValueError):
            stats.median([])


class TestQuartiles(unittest.TestCase):
    def test_matches_statistics_quantiles(self):
        xs = [7.0, 1.0, 3.0, 9.0, 5.0, 2.0, 8.0, 4.0, 6.0, 10.0]
        self.assertEqual(
            stats.quartiles(xs), tuple(statistics.quantiles(xs, n=4)))

    def test_known_values(self):
        # Exclusive method: positions (n+1)p = 2.75 and 8.25 for n=10.
        q1, q2, q3 = stats.quartiles(list(range(1, 11)))
        self.assertAlmostEqual(q1, 2.75)
        self.assertAlmostEqual(q2, 5.5)
        self.assertAlmostEqual(q3, 8.25)

    def test_spread_is_iqr_over_median(self):
        xs = list(range(1, 11))
        self.assertAlmostEqual(stats.spread(xs), (8.25 - 2.75) / 5.5)

    def test_spread_of_constant_is_zero(self):
        self.assertEqual(stats.spread([5.0] * 10), 0.0)

    def test_too_few_raises(self):
        with self.assertRaises(ValueError):
            stats.quartiles([1.0])


class TestPercentile(unittest.TestCase):
    def test_nearest_rank(self):
        xs = list(range(1, 101))
        self.assertEqual(stats.percentile(xs, 50), 50)
        self.assertEqual(stats.percentile(xs, 90), 90)
        self.assertEqual(stats.percentile(xs, 99), 99)
        self.assertEqual(stats.percentile(xs, 100), 100)

    def test_rank_rounds_up(self):
        # 90% of 15 samples is 13.5: the 14th sample.
        self.assertEqual(stats.rank(15, 90), 14)
        self.assertEqual(stats.percentile(list(range(15, 0, -1)), 90), 14)

    def test_small_p_is_first_sample(self):
        self.assertEqual(stats.rank(10, 1), 1)

    def test_out_of_range(self):
        with self.assertRaises(ValueError):
            stats.rank(10, 0)
        with self.assertRaises(ValueError):
            stats.rank(10, 101)
        with self.assertRaises(ValueError):
            stats.rank(0, 50)


class TestTenBeyond(unittest.TestCase):
    def test_boundary_at_p90(self):
        # p90 of 100 samples is rank 90: exactly ten samples beyond it.
        self.assertEqual(stats.beyond(100, 90), 10)
        self.assertTrue(stats.supported(100, 90))
        self.assertEqual(stats.beyond(99, 90), 9)
        self.assertFalse(stats.supported(99, 90))

    def test_p99_needs_a_thousand(self):
        self.assertFalse(stats.supported(999, 99))
        self.assertTrue(stats.supported(1000, 99))

    def test_highest_supported(self):
        self.assertEqual(stats.highest_supported(1000), 99.0)
        self.assertEqual(stats.highest_supported(200), 95.0)
        self.assertEqual(stats.highest_supported(100), 90.0)
        self.assertEqual(stats.highest_supported(40), 75.0)
        self.assertIsNone(stats.highest_supported(19))

    def test_no_samples(self):
        self.assertFalse(stats.supported(0, 50))


if __name__ == "__main__":
    unittest.main()
