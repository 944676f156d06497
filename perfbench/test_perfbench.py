#!/usr/bin/env python3
"""Tests for the benchmark's own logic.

    python3 perfbench/test_perfbench.py

The summary-math and span tests are pure Python. The nova_perf tests build
nova_perf (Release, under .bench_build/) on first use.
"""

import statistics
import sys
import unittest
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))

import run  # noqa: E402
import summary  # noqa: E402
from summary import Span  # noqa: E402


class SummaryMath(unittest.TestCase):
    def test_quartiles_match_statistics_quantiles(self):
        values = [1, 2, 3, 4, 5, 6, 7, 8]
        self.assertEqual(summary.quartiles(values), (2.25, 4.5, 6.75))
        self.assertEqual(list(summary.quartiles(values)),
                         statistics.quantiles(values, n=4))
        self.assertAlmostEqual(summary.relative_spread(values), 4.5 / 4.5)

    def test_quartiles_of_one_value(self):
        self.assertEqual(summary.quartiles([7.0]), (7.0, 7.0, 7.0))

    def test_percentile_needs_ten_samples_beyond(self):
        values = list(range(1, 101))
        self.assertEqual(summary.percentile(values, 50), 50)
        self.assertEqual(summary.percentile(values, 90), 90)
        self.assertIsNone(summary.percentile(values, 95))
        self.assertEqual(summary.percentile(list(range(1000)), 99), 989)
        self.assertIsNone(summary.percentile(list(range(999)), 99))
        self.assertIsNone(summary.percentile([], 50))

    def test_percentile_ignores_input_order(self):
        values = list(range(200, 0, -1))
        self.assertEqual(summary.percentile(values, 50), 100)


class SpanSelfTime(unittest.TestCase):
    # root [0, 10] on thread 0
    #   a [1, 4] thread 0      b [3, 6] thread 1 (overlaps a)
    #     c [2, 3] thread 0    d [5, 12] thread 1 (runs past root's end)
    SPANS = [
        Span("root", 0, -1, 0, 0.0, 10.0),
        Span("a", 1, 0, 0, 1.0, 4.0),
        Span("b", 2, 0, 1, 3.0, 6.0),
        Span("c", 3, 1, 0, 2.0, 3.0),
        Span("d", 4, 2, 1, 5.0, 12.0),
    ]

    def test_self_time_subtracts_child_coverage_once(self):
        own = summary.self_times(self.SPANS)
        self.assertAlmostEqual(own[0], 10.0 - 5.0)  # a and b cover [1, 6]
        self.assertAlmostEqual(own[1], 3.0 - 1.0)
        self.assertAlmostEqual(own[2], 3.0 - 1.0)  # d clipped to [5, 6]
        self.assertAlmostEqual(own[3], 1.0)
        self.assertAlmostEqual(own[4], 7.0)

    def test_covered_merges_intervals(self):
        self.assertAlmostEqual(
            summary.covered([(0, 2), (1, 3), (5, 6), (5.5, 5.7)]), 4.0)
        self.assertEqual(summary.covered([]), 0.0)

    def test_parse_spans_reads_nova_perf_lines(self):
        line = ('{"name": "serve.run", "id": 3, "parent": -1, "thread": 0, '
                '"start": 0.5, "end": 1.25}')
        self.assertEqual(summary.parse_spans([line, ""]),
                         [Span("serve.run", 3, -1, 0, 0.5, 1.25)])


class LayerMetrics(unittest.TestCase):
    INFO = {"plan_steps": 10, "replay_distinct_shapes": 4, "anchors": 2,
            "max_rel_error": 0.0, "batches": 5, "steps": 10,
            "mean_batch": 2.0, "retries": 0, "preempted_steps": 0,
            "status": {"shed": 0, "failed": 0}}

    def spans(self, calibrations):
        spans = [Span("serve.run", 0, -1, 0, 0.0, 4.0),
                 Span("replay", 1, -1, 0, 4.0, 8.0),
                 Span("serve.plan", 2, 1, 0, 4.0, 4.5),
                 Span("pricing.mirror", 3, 1, 0, 4.5, 7.0),
                 Span("serve.surrogate.fit", 4, 3, 0, 4.5, 6.0),
                 Span("serve.surrogate.predict", 5, 3, 0, 6.0, 7.0),
                 Span("pricing.shadow", 6, 1, 0, 7.0, 8.0)]
        for i in range(calibrations):
            spans.append(Span("core.calibrate", 7 + 2 * i, 6, i % 2,
                              7.0, 7.0 + 0.001 * (i + 1)))
            spans.append(Span("pipeline.walk", 8 + 2 * i, 6, i % 2,
                              7.5, 7.5 + 0.0001))
        return spans

    def test_dispatch_is_run_minus_pricing_replay_and_plans(self):
        values, samples = summary.layer_values(self.spans(4), self.INFO)
        self.assertAlmostEqual(values["serve.dispatch_s"], 4.0 - 2.5 - 0.5)
        self.assertAlmostEqual(values["serve.surrogate.fit_s"], 1.5)
        self.assertEqual(values["core.calibrations"], 4)
        self.assertAlmostEqual(values["core.calibrate_s"], 0.010)
        self.assertEqual(values["serve.surrogate.anchor_ratio"], 0.5)
        self.assertEqual(len(samples["core.calibrate_us"]), 4)

    def test_percentiles_pool_runs_and_report_what_is_missing(self):
        one = summary.layer_values(self.spans(600), self.INFO)
        metrics, missing = summary.combine_layers([one])
        self.assertEqual(sorted(missing),
                         ["core.calibrate_us.p99", "pipeline.walk_us.p99"])
        metrics, missing = summary.combine_layers([one, one])
        self.assertEqual(missing, [])
        self.assertAlmostEqual(metrics["serve.dispatch_steps_per_s"],
                               10 / 1.0)


class NovaPerf(unittest.TestCase):
    """nova_perf itself, on a shrunken exact-decode stream."""

    @classmethod
    def setUpClass(cls):
        if not run.build():
            raise unittest.SkipTest("nova_perf does not build here")
        flags = list(run.WORKLOADS["exact-decode"])
        flags[flags.index("--requests") + 1] = "300"
        cls.flags = flags

    def nova_perf(self, threads, spans=None):
        flags = list(self.flags)
        flags[flags.index("--threads") + 1] = str(threads)
        result = run.run_perf(flags, 7, spans)
        self.assertIsNotNone(result)
        return result[0]

    def test_fingerprint_is_identical_across_threads(self):
        one, two = self.nova_perf(1), self.nova_perf(2)
        self.assertEqual(one["fingerprint"], two["fingerprint"])
        self.assertEqual(one["status"], two["status"])

    def test_traced_run_passes_its_checks(self):
        spans_path = run.BUILD / "test-spans.jsonl"
        info = self.nova_perf(2, spans_path)
        try:
            spans = summary.parse_spans(spans_path.read_text().splitlines())
        finally:
            spans_path.unlink()
        self.assertEqual(run.check_run(info, traced=True), [])
        values, _ = summary.layer_values(spans, info)
        self.assertEqual(values["core.calibrations"],
                         info["distinct_shapes"])
        self.assertEqual(values["approx.tables_trained"], info["tables"])

    def test_untraced_run_matches_nova_sim(self):
        self.assertEqual(run.parity_problems(self.flags, 7, self.nova_perf(2)),
                         [])

    def test_bad_flag_is_refused(self):
        self.assertIsNone(run.run_perf(["--no-such-flag"], 7))


if __name__ == "__main__":
    unittest.main()
