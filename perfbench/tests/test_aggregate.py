"""Self-tests of the benchmark's metric arithmetic.

Run from the repository root:  python3 -m unittest discover -s perfbench/tests
"""

import math
import os
import sys
import unittest

sys.path.insert(0, os.path.join(os.path.dirname(__file__), ".."))

import aggregate  # noqa: E402


class PercentileTest(unittest.TestCase):
    def test_single_sample_is_every_percentile(self):
        for q in (0.0, 0.5, 0.99, 1.0):
            self.assertEqual(aggregate.percentile([7.0], q), 7.0)

    def test_two_samples_interpolate(self):
        self.assertAlmostEqual(aggregate.percentile([1.0, 3.0], 0.5), 2.0)
        self.assertAlmostEqual(aggregate.percentile([3.0, 1.0], 0.99), 2.98)

    def test_small_n_matches_type_7(self):
        values = [5.0, 1.0, 4.0, 2.0, 3.0]
        self.assertEqual(aggregate.median(values), 3.0)
        self.assertAlmostEqual(aggregate.percentile(values, 0.25), 2.0)
        self.assertAlmostEqual(aggregate.percentile(values, 0.9), 4.6)
        self.assertEqual(aggregate.percentile(values, 1.0), 5.0)

    def test_empty_and_out_of_range_raise(self):
        with self.assertRaises(ValueError):
            aggregate.percentile([], 0.5)
        with self.assertRaises(ValueError):
            aggregate.percentile([1.0], 1.5)


class OpenLoopTest(unittest.TestCase):
    def test_latency_counts_from_due_not_from_send(self):
        # The second request was due at 0.1 s but waited for a connection
        # until 0.3 s; its latency includes that wait.
        latencies, lags = aggregate.open_loop(
            due=[0.0, 0.1], sent=[0.0, 0.3], done=[0.05, 0.35])
        self.assertAlmostEqual(latencies[0], 0.05)
        self.assertAlmostEqual(latencies[1], 0.25)
        self.assertAlmostEqual(lags[1], 0.2)

    def test_on_time_generator_has_zero_lag(self):
        _, lags = aggregate.open_loop([0.0, 1.0], [0.0, 1.0], [0.5, 1.5])
        self.assertEqual(lags, [0.0, 0.0])

    def test_time_travel_is_rejected(self):
        with self.assertRaises(ValueError):
            aggregate.open_loop([1.0], [0.5], [2.0])
        with self.assertRaises(ValueError):
            aggregate.open_loop([0.0, 1.0], [0.0], [0.5, 1.5])


class FailRatioTest(unittest.TestCase):
    def test_refused_and_wrong_digest_both_count(self):
        statuses = [aggregate.OK, aggregate.REFUSED, aggregate.WRONG_DIGEST,
                    aggregate.OK, aggregate.FAILED, aggregate.OK, aggregate.OK,
                    aggregate.OK]
        attempted, failed, ratio = aggregate.fail_ratio(statuses)
        self.assertEqual((attempted, failed), (8, 3))
        self.assertAlmostEqual(ratio, 3 / 8)

    def test_clean_run_is_zero(self):
        self.assertEqual(aggregate.fail_ratio([aggregate.OK] * 4), (4, 0, 0.0))

    def test_nothing_attempted_raises(self):
        with self.assertRaises(ValueError):
            aggregate.fail_ratio([])


class PoolEfficiencyTest(unittest.TestCase):
    def test_perfect_scaling_is_one(self):
        self.assertAlmostEqual(aggregate.pool_efficiency(8.0, 2.0, 4), 1.0)

    def test_serial_bottleneck(self):
        # 8.8 s of serial work finishing in 3.9 s on 4 cores.
        self.assertAlmostEqual(aggregate.pool_efficiency(8.8, 3.9, 4),
                               8.8 / 15.6)

    def test_degenerate_inputs_raise(self):
        with self.assertRaises(ValueError):
            aggregate.pool_efficiency(1.0, 0.0, 4)
        with self.assertRaises(ValueError):
            aggregate.pool_efficiency(1.0, 1.0, 0)


class PrometheusTest(unittest.TestCase):
    BEFORE = (
        '# TYPE cpw_cache_hits_total counter\n'
        'cpw_cache_hits_total 10\n'
        'cpwd_request_seconds_bucket{status="done",le="0.001"} 1\n'
        'cpwd_request_seconds_bucket{status="done",le="0.01"} 3\n'
        'cpwd_request_seconds_bucket{status="done",le="+Inf"} 3\n'
        'cpw_stage_seconds_sum{stage="coplot"} 1.5\n'
        'cpw_stage_seconds_count{stage="coplot"} 3\n')
    AFTER = (
        'cpw_cache_hits_total 40\n'
        'cpwd_request_seconds_bucket{status="done",le="0.001"} 1\n'
        'cpwd_request_seconds_bucket{status="done",le="0.01"} 13\n'
        'cpwd_request_seconds_bucket{status="done",le="+Inf"} 14\n'
        'cpw_stage_seconds_sum{stage="coplot"} 2.0\n'
        'cpw_stage_seconds_count{stage="coplot"} 5\n')

    def test_counter_delta(self):
        before = aggregate.parse_prometheus(self.BEFORE)
        after = aggregate.parse_prometheus(self.AFTER)
        self.assertEqual(aggregate.delta(before, after, "cpw_cache_hits_total"), 30)

    def test_histogram_median_interpolates_in_bucket(self):
        before = aggregate.parse_prometheus(self.BEFORE)
        after = aggregate.parse_prometheus(self.AFTER)
        buckets = aggregate.histogram_delta(before, after, "cpwd_request_seconds",
                                            status="done")
        # 11 new samples: 10 in (0.001, 0.01], 1 above; the median is rank 5.5.
        self.assertAlmostEqual(aggregate.histogram_quantile(0.5, buckets),
                               0.001 + 0.009 * 5.5 / 10)
        self.assertEqual(aggregate.histogram_quantile(1.0, buckets), 0.01)
        self.assertTrue(math.isinf(max(b for b, _ in buckets)))

    def test_stage_deltas(self):
        before = aggregate.parse_prometheus(self.BEFORE)
        after = aggregate.parse_prometheus(self.AFTER)
        self.assertEqual(aggregate.stage_deltas(before, after),
                         {"coplot": {"sum_s": 0.5, "count": 2}})


if __name__ == "__main__":
    unittest.main()
