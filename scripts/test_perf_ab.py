"""Unit tests of the A/B gate's verdicts, on synthetic samples.

Run with `python3 -m unittest discover -s scripts`.
"""

import unittest

from perf_ab import judge, verdict

THROUGHPUT = {"name": "flit_hops_per_s", "better": "higher", "bound": 0.25}
SETUP = {"name": "setup_s", "better": "lower", "bound": 0.25}
RSS = {"name": "peak_rss_mb", "better": "lower", "bound": 0.2}

# Ten samples with a 4% interquartile spread around 100.
STEADY = [98, 99, 100, 101, 102, 98, 99, 100, 101, 102]
# Ten samples whose interquartile spread (80% of the median) is wider
# than any bound.
NOISY = [40, 60, 80, 100, 120, 140, 160, 100, 60, 140]


def scaled(samples, factor):
    return [x * factor for x in samples]


def run(value, correct=True, failed=0):
    return {"correct": correct, "attempted": 4, "failed": failed,
            "metrics": {"flit_hops_per_s": {"value": value, "unit": "1/s"}}}


class VerdictTest(unittest.TestCase):
    def test_identical_samples_pass(self):
        for metric in (THROUGHPUT, SETUP, RSS):
            self.assertEqual(verdict(metric, STEADY, STEADY)[0], "ok")

    def test_throughput_drop_beyond_the_bound_fails(self):
        v, base, head, spread = verdict(THROUGHPUT, STEADY, scaled(STEADY, 0.7))
        self.assertEqual(v, "REGRESSED")
        self.assertEqual((base, head), (100, 70))
        self.assertLess(spread, THROUGHPUT["bound"])

    def test_throughput_drop_within_the_bound_passes(self):
        self.assertEqual(verdict(THROUGHPUT, STEADY, scaled(STEADY, 0.8))[0], "ok")

    def test_lower_is_better_metric_rising_beyond_the_bound_fails(self):
        for metric in (SETUP, RSS):
            self.assertEqual(verdict(metric, STEADY, scaled(STEADY, 1.3))[0], "REGRESSED")

    def test_lower_is_better_metric_falling_passes(self):
        for metric in (SETUP, RSS):
            self.assertEqual(verdict(metric, STEADY, scaled(STEADY, 0.5))[0], "ok")

    def test_spread_wider_than_the_bound_is_unresolved(self):
        v, _, _, spread = verdict(THROUGHPUT, NOISY, scaled(NOISY, 0.5))
        self.assertGreater(spread, THROUGHPUT["bound"])
        self.assertEqual(v, "unresolved")

    def test_wide_spread_reads_ok_when_every_head_run_is_better(self):
        self.assertEqual(verdict(THROUGHPUT, NOISY, [200] * 10)[0], "ok")


class JudgeTest(unittest.TestCase):
    def test_identical_runs_pass(self):
        runs = [run(x) for x in STEADY]
        self.assertTrue(judge([THROUGHPUT], runs, runs)[1])

    def test_regression_beyond_the_bound_fails(self):
        base = [run(x) for x in STEADY]
        head = [run(x) for x in scaled(STEADY, 0.7)]
        lines, passed = judge([THROUGHPUT], base, head)
        self.assertFalse(passed)
        self.assertTrue(lines[-1].endswith("REGRESSED"), lines[-1])

    def test_unresolved_spread_does_not_fail(self):
        base = [run(x) for x in NOISY]
        head = [run(x) for x in scaled(NOISY, 0.5)]
        lines, passed = judge([THROUGHPUT], base, head)
        self.assertTrue(passed)
        self.assertTrue(lines[-1].endswith("unresolved"), lines[-1])

    def test_incorrect_run_fails(self):
        runs = [run(x) for x in STEADY]
        for bad in (run(100, correct=False), run(100, failed=1)):
            for base, head in ((runs[:-1] + [bad], runs), (runs, runs[:-1] + [bad])):
                self.assertFalse(judge([THROUGHPUT], base, head)[1])


if __name__ == "__main__":
    unittest.main()
