"""Tests of the benchmark's statistics (perfbench/stats.py).

    python3 -m unittest discover -s perfbench -p 'test_*.py'
"""

import math
import os
import random
import sys
import unittest

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))

import stats  # noqa: E402
from stats import DEADLINE, ERRORED, LOST, OK, REJECTED, WRONG  # noqa: E402


def row(due, done, outcome=OK, send=None, step=0, cls=0):
    send = due if send is None else send
    return [step, cls, due, send, send, done, outcome]


class PercentileTest(unittest.TestCase):
    def test_nearest_rank(self):
        values = list(range(1, 101))  # 1..100
        self.assertEqual(stats.percentile(values, 50), 50)
        self.assertEqual(stats.percentile(values, 99), 99)
        self.assertEqual(stats.percentile(values, 100), 100)
        self.assertEqual(stats.percentile([7.0], 99), 7.0)

    def test_samples_beyond(self):
        self.assertEqual(stats.samples_beyond(1000, 99), 10)
        self.assertEqual(stats.samples_beyond(999, 99), 9)
        self.assertEqual(stats.samples_beyond(100, 90), 10)

    def test_tail_needs_ten_beyond(self):
        self.assertTrue(stats.tail_supported(10000, 99.9))
        self.assertTrue(stats.tail_supported(1000, 99))
        # 999 samples leave only 9 beyond p99, but 49 beyond p95.
        self.assertFalse(stats.tail_supported(999, 99))
        self.assertTrue(stats.tail_supported(999, 95))
        self.assertTrue(stats.tail_supported(200, 95))
        self.assertFalse(stats.tail_supported(199, 95))
        self.assertTrue(stats.tail_supported(20, 50))
        self.assertFalse(stats.tail_supported(19, 50))


class DueTimeLatencyTest(unittest.TestCase):
    def test_latency_counts_generator_lateness(self):
        # Due at 1.0 s, sent 0.5 s late, served in 0.1 s: the user waited
        # 0.6 s, not the 0.1 s a send-time clock would show.
        r = row(due=1.0, send=1.5, done=1.6)
        self.assertAlmostEqual(stats.due_latency(r), 0.6)

    def test_stall_charges_every_delayed_request(self):
        # A 100 ms stall at t=0 delays the next four requests, due every
        # 10 ms, which are all sent when the stall ends.
        rows = [row(due=0.01 * i, send=0.1, done=0.101) for i in range(5)]
        lat = [stats.due_latency(r) for r in rows]
        self.assertEqual(sorted(lat, reverse=True), lat)
        self.assertAlmostEqual(lat[0], 0.101)
        self.assertAlmostEqual(lat[4], 0.061)

    def test_failed_requests_miss_any_limit(self):
        lat = stats.user_latencies([row(0, 0.001), row(0, 0.0, REJECTED)])
        self.assertAlmostEqual(lat[0], 0.001)
        self.assertTrue(math.isinf(lat[1]))


class FailShareTest(unittest.TestCase):
    def test_accounting(self):
        slo = 0.010
        rows = [row(0, 0.002)] * 90 + [
            row(0, 0.0, REJECTED), row(0, 0.003, ERRORED),
            row(0, 0.004, DEADLINE), row(0, 0.002, WRONG), row(0, 0.0, LOST),
            row(0, 0.050), row(0, 0.020),  # late past the SLO
            row(0, 0.009), row(0, 0.010), row(0, 0.001)]
        acct = stats.account(rows, slo)
        self.assertEqual(acct["sent"], 100)
        self.assertEqual(acct["completed"], 95)
        self.assertEqual(acct["rejected"], 1)
        self.assertEqual(acct["errored"], 1)
        self.assertEqual(acct["shed_or_expired"], 1)
        self.assertEqual(acct["wrong"], 1)
        self.assertEqual(acct["lost"], 1)
        self.assertEqual(acct["late"], 2)
        self.assertAlmostEqual(stats.fail_share(rows, slo), 7 / 100)

    def test_closed_loop_requests_fail_only_when_not_ok(self):
        # Closed-loop latency is queueing the benchmark itself causes: a
        # slow but correct answer is no failure.
        slo = 0.010
        closed = [row(0, 0.050), row(0, 0.0, REJECTED)]
        self.assertAlmostEqual(
            stats.fail_share([row(0, 0.050), row(0, 0.002)], slo, closed),
            2 / 4)

    def test_empty(self):
        self.assertEqual(stats.fail_share([], 0.01), 0.0)


class SliceRateTest(unittest.TestCase):
    def test_median_slice_ignores_a_stall(self):
        # 100 events of weight 4 per 0.25 s slice over 2 s, except one
        # slice where a stall let only 10 through.
        events = [(s * 0.25 + 0.0025 * i, 4.0)
                  for s in range(8) for i in range(100 if s != 3 else 10)]
        self.assertAlmostEqual(stats.slice_rate(events, 0.0, 2.0, 0.25), 1600.0)

    def test_partial_slice_and_outside_events_dropped(self):
        events = [(0.1, 1.0), (0.3, 1.0), (0.55, 5.0), (-0.1, 9.0)]
        # [0, 0.6) holds two whole slices, [0, 0.25) and [0.25, 0.5).
        self.assertAlmostEqual(stats.slice_rate(events, 0.0, 0.6, 0.25), 4.0)

    def test_no_whole_slice(self):
        with self.assertRaises(ValueError):
            stats.slice_rate([], 0.0, 0.2, 0.25)


def synthetic_step(rng, rate, start, end, latency, backlog=0.0, fail=0.0):
    """Poisson arrivals at `rate` over [start, end); each served in
    `latency` seconds plus `backlog` times its age in the step (a queue
    that grows), failing with probability `fail`."""
    rows, t = [], start
    while True:
        t += rng.expovariate(rate)
        if t >= end:
            return rows
        done = t + latency * rng.uniform(0.5, 1.5) + backlog * (t - start)
        outcome = REJECTED if rng.random() < fail else OK
        rows.append(row(t, done, outcome))


class SloRateTest(unittest.TestCase):
    SLO = 0.025

    def steps(self):
        return [{"name": "low", "start": 0.0, "end": 5.0},
                {"name": "mid", "start": 5.0, "end": 10.0},
                {"name": "high", "start": 10.0, "end": 15.0}]

    def test_highest_step_meeting_slo(self):
        rng = random.Random(1)
        by_step = [synthetic_step(rng, 200, 0, 5, 0.002),
                   synthetic_step(rng, 500, 5, 10, 0.005),
                   synthetic_step(rng, 1000, 10, 15, 0.040)]
        rate = stats.slo_rate(self.steps(), by_step, self.SLO)
        # The measured offered rate of the mid step, not its nominal 500.
        self.assertEqual(rate, len(by_step[1]) / 5.0)
        self.assertAlmostEqual(rate, 500, delta=50)

    def test_growing_backlog_disqualifies_a_step(self):
        rng = random.Random(2)
        # High meets the p99 limit on average but its queue grows 1 ms
        # per second of the step.
        by_step = [synthetic_step(rng, 200, 0, 5, 0.002),
                   synthetic_step(rng, 500, 5, 10, 0.002),
                   synthetic_step(rng, 1000, 10, 15, 0.002, backlog=0.004)]
        self.assertLess(stats.percentile(stats.user_latencies(by_step[2]), 99),
                        self.SLO)
        self.assertTrue(stats.backlog_growing(by_step[2], 15.0))
        self.assertFalse(stats.backlog_growing(by_step[1], 10.0))
        self.assertEqual(stats.slo_rate(self.steps(), by_step, self.SLO),
                         len(by_step[1]) / 5.0)

    def test_failures_count_as_misses(self):
        rng = random.Random(3)
        # 2 % of the high step is rejected: its p99 is a miss even though
        # every completed request was fast.
        by_step = [synthetic_step(rng, 200, 0, 5, 0.002),
                   synthetic_step(rng, 500, 5, 10, 0.002),
                   synthetic_step(rng, 1000, 10, 15, 0.002, fail=0.02)]
        self.assertEqual(stats.slo_rate(self.steps(), by_step, self.SLO),
                         len(by_step[1]) / 5.0)

    def test_no_step_meets_slo(self):
        rng = random.Random(4)
        by_step = [synthetic_step(rng, 200, 0, 5, 0.1),
                   synthetic_step(rng, 500, 5, 10, 0.1),
                   synthetic_step(rng, 1000, 10, 15, 0.1)]
        self.assertEqual(stats.slo_rate(self.steps(), by_step, self.SLO), 0.0)


if __name__ == "__main__":
    unittest.main()
