"""Tests for the benchmark's own math (perfbench/stats.py).

    python3 -m unittest discover -s perfbench -p 'test_*.py'
"""

import math
import os
import statistics
import sys
import unittest

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))
import stats  # noqa: E402


class TailQuantile(unittest.TestCase):
    def test_p90_needs_ten_samples_beyond(self):
        xs = list(range(1, 101))  # 100 samples
        self.assertEqual(stats.tail_quantile(xs, 0.90), 90)  # 91..100 lie beyond
        self.assertIsNone(stats.tail_quantile(xs[:99], 0.90))

    def test_p99_needs_a_thousand_samples(self):
        xs = [float(i) for i in range(1000)]
        self.assertEqual(stats.tail_quantile(xs, 0.99), 989.0)
        self.assertIsNone(stats.tail_quantile(xs[:999], 0.99))

    def test_order_of_input_does_not_matter(self):
        xs = list(range(200))
        self.assertEqual(stats.tail_quantile(xs[::-1], 0.9), stats.tail_quantile(xs, 0.9))

    def test_empty_and_median(self):
        self.assertIsNone(stats.tail_quantile([], 0.5))
        self.assertEqual(stats.tail_quantile(list(range(1, 22)), 0.5), 11)

    def test_geomean(self):
        self.assertAlmostEqual(stats.geomean([1.0, 4.0, 16.0]), 4.0)


class HostScale(unittest.TestCase):
    def test_slow_host_scales_down(self):
        self.assertAlmostEqual(stats.host_scale([6.0, 5.0, 7.0], 4.0), 4.0 / 6.0)

    def test_median_ignores_outliers(self):
        self.assertAlmostEqual(stats.host_scale([2.0, 2.0, 2.0, 90.0], 2.0), 1.0)

    def test_no_samples_is_an_error(self):
        with self.assertRaises(statistics.StatisticsError):
            stats.host_scale([], 1.0)


def rung(rps, latency, queue=None):
    return {"rps": rps, "latency_ms": latency,
            "queue_ms": queue if queue is not None else [0.0] * len(latency)}


class RateLadder(unittest.TestCase):
    LIMIT = 20.0

    def test_highest_rate_meeting_the_limit(self):
        rungs = [rung(100, [5.0] * 1000), rung(200, [15.0] * 1000)]
        self.assertEqual(stats.max_rps_at_p99(rungs, self.LIMIT), 200)

    def test_interpolates_toward_a_rung_missing_on_p99(self):
        # p99 15 ms at 200 req/s, 25 ms at 300: the 20 ms limit falls halfway.
        rungs = [rung(300, [25.0] * 1000), rung(100, [5.0] * 1000), rung(200, [15.0] * 1000)]
        self.assertAlmostEqual(stats.max_rps_at_p99(rungs, self.LIMIT), 250.0)

    def test_no_interpolation_toward_failures_or_backlog(self):
        failing = [5.0] * 980 + [-1.0] * 20
        growing = [30.0 * i / 1000 for i in range(1000)]
        for bad in (rung(300, failing), rung(300, [25.0] * 1000, growing)):
            rungs = [rung(200, [15.0] * 1000), bad]
            self.assertEqual(stats.max_rps_at_p99(rungs, self.LIMIT), 200)

    def test_failures_count_as_misses(self):
        # 2% of requests failed (-1): the p99 is a miss although every
        # completed request was fast.
        latency = [5.0] * 980 + [-1.0] * 20
        self.assertEqual(stats.rung_p99(latency), math.inf)
        rungs = [rung(100, [5.0] * 1000), rung(200, latency)]
        self.assertEqual(stats.max_rps_at_p99(rungs, self.LIMIT), 100)

    def test_failures_below_one_percent_do_not_miss(self):
        latency = [5.0] * 995 + [-1.0] * 5
        self.assertEqual(stats.rung_p99(latency), 5.0)

    def test_growing_backlog_disqualifies_a_rate(self):
        n = 1000
        growing = [30.0 * i / n for i in range(n)]  # queue wait climbs all run
        self.assertTrue(stats.backlog_grows(growing, self.LIMIT))
        rungs = [rung(100, [5.0] * n), rung(200, [5.0] * n, growing)]
        self.assertEqual(stats.max_rps_at_p99(rungs, self.LIMIT), 100)

    def test_steady_queue_is_no_backlog(self):
        steady = [2.0, 0.0, 4.0, 1.0] * 250
        self.assertFalse(stats.backlog_grows(steady, self.LIMIT))

    def test_no_rate_qualifies(self):
        self.assertIsNone(stats.max_rps_at_p99([rung(100, [50.0] * 1000)], self.LIMIT))

    def test_rung_too_small_for_p99(self):
        with self.assertRaises(ValueError):
            stats.max_rps_at_p99([rung(100, [5.0] * 999)], self.LIMIT)


def span(id_, parent, ts, dur, name="x.y"):
    return {"id": id_, "parent": parent, "ts": ts, "dur": dur, "name": name}


class SelfTime(unittest.TestCase):
    def test_leaf_self_time_is_its_duration(self):
        self.assertEqual(stats.self_times([span(0, -1, 0, 10)]), {0: 10})

    def test_children_are_subtracted(self):
        spans = [span(0, -1, 0, 100), span(1, 0, 10, 30), span(2, 0, 50, 20), span(3, 1, 15, 5)]
        selfs = stats.self_times(spans)
        self.assertEqual(selfs[0], 50)  # 100 - 30 - 20
        self.assertEqual(selfs[1], 25)  # 30 - 5
        self.assertEqual(selfs[2], 20)
        self.assertEqual(selfs[3], 5)

    def test_overlapping_children_count_once(self):
        spans = [span(0, -1, 0, 100), span(1, 0, 10, 40), span(2, 0, 30, 40)]
        self.assertEqual(stats.self_times(spans)[0], 40)  # children cover 10..70

    def test_children_are_clipped_to_the_parent(self):
        spans = [span(0, -1, 0, 10), span(1, 0, 5, 20)]
        self.assertEqual(stats.self_times(spans)[0], 5)

    def test_layer_shares_sum_to_100(self):
        spans = [span(0, -1, 0, 100, "bench.call"), span(1, 0, 0, 60, "sched.alg1"),
                 span(2, 1, 0, 20, "graph.compile")]
        shares = stats.layer_self_share(spans)
        self.assertAlmostEqual(shares["bench"], 40.0)
        self.assertAlmostEqual(shares["sched"], 40.0)
        self.assertAlmostEqual(shares["graph"], 20.0)
        self.assertAlmostEqual(sum(shares.values()), 100.0)


if __name__ == "__main__":
    unittest.main()
