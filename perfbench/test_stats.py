"""Self-tests of the benchmark's statistics.

Run from the repository root:  python3 -m unittest discover -s perfbench
"""

import math
import os
import statistics
import sys
import unittest

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))

import stats  # noqa: E402


class Quartiles(unittest.TestCase):
    def test_median_odd_and_even(self):
        self.assertEqual(stats.median([3, 1, 2]), 2)
        self.assertEqual(stats.median([4, 1, 3, 2]), 2.5)

    def test_quartiles_match_statistics_quantiles(self):
        xs = [5.0, 1.0, 9.0, 3.0, 7.0, 2.0, 8.0, 4.0, 6.0, 10.0]
        self.assertEqual(stats.quartiles(xs), tuple(statistics.quantiles(xs, n=4)))
        # exclusive method on 1..10: q1 = 2.75, q3 = 8.25
        self.assertEqual(stats.quartiles(xs), (2.75, 5.5, 8.25))

    def test_spread_is_iqr_over_median(self):
        xs = [1.0, 2.0, 3.0, 4.0, 5.0, 6.0, 7.0, 8.0, 9.0, 10.0]
        self.assertAlmostEqual(stats.spread(xs), (8.25 - 2.75) / 5.5)
        self.assertEqual(stats.spread([2.0] * 10), 0.0)


class Percentiles(unittest.TestCase):
    def test_nearest_rank(self):
        xs = list(range(1, 101))
        self.assertEqual(stats.nearest_rank(xs, 50), 50)
        self.assertEqual(stats.nearest_rank(xs, 99), 99)
        self.assertEqual(stats.nearest_rank(xs, 100), 100)
        self.assertEqual(stats.nearest_rank([7.0], 99), 7.0)

    def test_highest_percentile_needs_ten_beyond(self):
        # p99 of n samples has n - ceil(0.99 n) beyond it: 10 from n = 1000
        self.assertEqual(stats.beyond(1000, 99), 10)
        self.assertEqual(stats.highest_percentile(1000), 99.0)
        self.assertEqual(stats.highest_percentile(999), 95.0)
        self.assertEqual(stats.highest_percentile(10000), 99.9)
        self.assertEqual(stats.highest_percentile(200), 95.0)
        self.assertEqual(stats.highest_percentile(100), 90.0)
        self.assertEqual(stats.highest_percentile(20), 50.0)
        # a CLI run of a dozen operations supports no tail percentile
        self.assertIsNone(stats.highest_percentile(12))

    def test_tail_percentile(self):
        self.assertEqual(stats.tail_percentile(25000), 99.0)
        self.assertEqual(stats.tail_percentile(1000), 99.0)
        self.assertEqual(stats.tail_percentile(500), 95.0)
        self.assertEqual(stats.tail_percentile(22), 50.0)
        self.assertEqual(stats.tail_percentile(12), 50.0)
        ops = [(i / 10.0, True) for i in range(1, 23)]
        s = stats.summarize(ops)
        self.assertEqual((s["tail_percentile"], s["tail"]), (50.0, s["p50"]))

    def test_histogram_quantile(self):
        buckets = [(0.001, 50), (0.002, 90), (0.004, 99), (0.008, 100)]
        self.assertEqual(stats.histogram_quantile(buckets, 0.5), 0.001)
        self.assertEqual(stats.histogram_quantile(buckets, 0.9), 0.002)
        self.assertEqual(stats.histogram_quantile(buckets, 0.99), 0.004)
        self.assertEqual(stats.histogram_quantile(buckets, 1.0), 0.008)
        self.assertEqual(stats.histogram_quantile([], 0.5), 0.0)


class Failures(unittest.TestCase):
    def test_failed_counts_as_attempted_and_missing(self):
        ops = [(0.001, True)] * 98 + [(0.0005, False), (0.0002, False)]
        s = stats.summarize(ops)
        self.assertEqual(s["attempted"], 100)
        self.assertEqual(s["failed"], 2)
        self.assertEqual(s["tail_percentile"], 90.0)
        self.assertEqual(s["tail"], 0.001)
        self.assertEqual(s["p50"], 0.001)
        # at p99 the two fast failures are the slowest samples, not the fastest
        lat = [dt if ok else stats.FAILED for dt, ok in ops]
        self.assertEqual(stats.nearest_rank(lat, 99), stats.FAILED)

    def test_shed_request_misses_the_median_too(self):
        ops = [(0.001, True), (0.001, False), (0.001, False)]
        self.assertTrue(math.isinf(stats.summarize(ops)["p50"]))

    def test_no_failures(self):
        ops = [(i / 1000.0, True) for i in range(1, 1001)]
        s = stats.summarize(ops)
        self.assertEqual((s["attempted"], s["failed"]), (1000, 0))
        self.assertEqual(s["p50"], 0.5)
        self.assertEqual((s["tail_percentile"], s["tail"]), (99.0, 0.99))


if __name__ == "__main__":
    unittest.main()
