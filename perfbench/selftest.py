"""Self-tests of the benchmark's own arithmetic and inputs.

    PYTHONPATH=.:src python3 -m unittest perfbench.selftest
"""

from __future__ import annotations

import unittest

from repro.service import ServiceResult

from .inputs import fuzz_seed_ranges, mesh_ports, op_count, warp_stream
from .measure import (TooFewSamples, failed_share, interval_union,
                      percentile, self_time)
from .probe import PROBE_REFERENCE_S, host_scale, probe_host
from .spans import SpanRecorder
from .workloads import Pass, Workload


class PercentileTest(unittest.TestCase):
    def test_p90_needs_ten_samples_beyond_it(self):
        with self.assertRaises(TooFewSamples):
            percentile([float(value) for value in range(99)], 90)
        self.assertAlmostEqual(
            percentile([float(value) for value in range(100)], 90), 89.1)

    def test_p50_of_a_small_sample_is_refused_below_twenty(self):
        with self.assertRaises(TooFewSamples):
            percentile([1.0] * 19, 50)
        self.assertEqual(percentile([1.0] * 20, 50), 1.0)

    def test_runs_plan_enough_ops_for_p90(self):
        for seconds in (1, 5, 60):
            for rate, round_size in ((12.0, 6), (20.0, 1)):
                ops = op_count(seconds, rate, round_size)
                self.assertGreaterEqual(ops, 100)
                self.assertEqual(ops % round_size, 0)


class FailedShareTest(unittest.TestCase):
    def test_refusals_and_errors_both_count(self):
        self.assertEqual(failed_share(10, 1, 2), 0.3)
        with self.assertRaises(ValueError):
            failed_share(2, 2, 1)

    def test_workload_counts_refused_and_failed_results(self):
        ok = ServiceResult(job_name="a", workload="w", config_label="c",
                           engine="threaded")
        error = ServiceResult(job_name="b", workload="w", config_label="c",
                              engine="threaded", ok=False, error="boom")
        primary = Pass(latencies=[0.1] * 4,
                       results=[ok, error, None, ok])
        self.assertEqual(Workload.failed_share(primary), 0.5)
        self.assertEqual(Workload.failed_count(primary), 2)


class HostScaleTest(unittest.TestCase):
    def test_scale_turns_host_seconds_into_reference_seconds(self):
        self.assertEqual(host_scale([PROBE_REFERENCE_S]), 1.0)
        # A host twice as slow as the reference halves every timing; the
        # scale follows the median probe, not an outlier.
        slow = 2 * PROBE_REFERENCE_S
        self.assertAlmostEqual(host_scale([slow, slow, 50 * slow]), 0.5)
        self.assertGreater(probe_host(3), 0.0)

    def test_pass_scales_each_op_by_its_own_probes(self):
        primary = Pass(latencies=[1.0, 2.0, 4.0], scales=[0.5, 1.0, 0.25])
        self.assertEqual(primary.scaled_latencies, [0.5, 2.0, 1.0])


class SeededInputsTest(unittest.TestCase):
    def test_same_seed_gives_byte_identical_job_sources(self):
        first = [job.source.encode() for job, _ in
                 warp_stream("suite-fresh", 7, 12)]
        second = [job.source.encode() for job, _ in
                  warp_stream("suite-fresh", 7, 12)]
        self.assertEqual(first, second)
        other = [job.source.encode() for job, _ in
                 warp_stream("suite-fresh", 8, 12)]
        self.assertNotEqual(first, other)
        self.assertEqual(len(set(first)), len(first))

    def test_fuzz_ranges_are_disjoint_and_seeded(self):
        warm, timed, traced = fuzz_seed_ranges(3, 10, 100, 100)
        self.assertFalse(set(warm) & set(timed))
        self.assertFalse(set(timed) & set(traced))
        self.assertEqual((warm, timed, traced),
                         tuple(fuzz_seed_ranges(3, 10, 100, 100)))

    def test_mesh_ports_follow_the_seed(self):
        self.assertEqual(mesh_ports(5, 2), mesh_ports(5, 2))
        self.assertNotEqual(mesh_ports(5, 2), mesh_ports(6, 2))


class SelfTimeTest(unittest.TestCase):
    def test_self_time_subtracts_the_union_of_children(self):
        # Children overlap on [2, 3] and one runs past the parent's end.
        self.assertEqual(interval_union([(1, 3), (2, 5)]), 4)
        self.assertEqual(self_time(0, 10, [(1, 3), (2, 5), (8, 12)]), 4)
        self.assertEqual(self_time(0, 10, []), 10)

    def test_recorder_self_times_follow_the_span_tree(self):
        recorder = SpanRecorder()
        with recorder.op("t1") as root:
            with recorder.span("a") as child:
                with recorder.span("b"):
                    pass
        selfs = recorder.self_times()
        spans = recorder.spans
        self.assertEqual([span.parent for span in spans], [None, 0, 1])
        self.assertEqual({span.trace_id for span in spans}, {"t1"})
        self.assertAlmostEqual(selfs[root.span_id],
                               root.duration - child.duration)
        self.assertAlmostEqual(selfs[child.span_id],
                               child.duration - spans[2].duration)


if __name__ == "__main__":
    unittest.main()
