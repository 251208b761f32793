"""Tests for the benchmark's quantile, span and check helpers.

    python3 -m unittest discover -s perfbench/tests
"""

import json
import sys
import tempfile
import unittest
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent))

import benchlib  # noqa: E402
import run  # noqa: E402


class NearestRank(unittest.TestCase):
    def test_hand_computed_vectors(self):
        # Ten samples: p50 has rank ceil(5) = 5, p90 rank 9, p99 rank 10.
        ten = [15, 20, 35, 40, 50, 60, 70, 80, 90, 100]
        self.assertEqual(benchlib.nearest_rank(ten, 50), 50)
        self.assertEqual(benchlib.nearest_rank(ten, 90), 90)
        self.assertEqual(benchlib.nearest_rank(ten, 99), 100)
        self.assertEqual(benchlib.nearest_rank(ten, 0), 15)
        # Order of the input does not matter.
        self.assertEqual(benchlib.nearest_rank(list(reversed(ten)), 50), 50)
        # Five samples: p30 rank ceil(1.5) = 2, p40 rank 2, p50 rank ceil(2.5) = 3.
        five = [3, 1, 4, 1, 5]
        self.assertEqual(benchlib.nearest_rank(five, 30), 1)
        self.assertEqual(benchlib.nearest_rank(five, 50), 3)
        self.assertEqual(benchlib.nearest_rank(five, 100), 5)
        self.assertEqual(benchlib.nearest_rank([7.5], 90), 7.5)

    def test_empty_is_an_error(self):
        with self.assertRaises(ValueError):
            benchlib.nearest_rank([], 50)

    def test_tail_needs_ten_samples_beyond(self):
        # p50 of 19 samples has rank 10: only 9 beyond it.
        self.assertIsNone(benchlib.tail_percentile(19))
        self.assertEqual(benchlib.tail_percentile(20), 50.0)
        # p90 of 100 has rank 90, 10 beyond; p99 of 100 has 1 beyond.
        self.assertEqual(benchlib.tail_percentile(100), 90.0)
        self.assertEqual(benchlib.tail_percentile(999), 90.0)
        self.assertEqual(benchlib.tail_percentile(1000), 99.0)
        self.assertEqual(benchlib.tail_percentile(10000), 99.9)

    def test_summarize_reports_count_and_tail(self):
        s = benchlib.summarize(list(range(1, 101)))
        self.assertEqual((s["n"], s["p50"], s["p90"], s["tail_p"], s["tail"]), (100, 50, 90, 90.0, 90))


class Windows(unittest.TestCase):
    def test_windows_drop_the_partial_last_window(self):
        times = [0.1, 0.5, 0.9, 1.2, 2.0, 2.1, 2.2, 3.05]
        self.assertEqual(benchlib.windows(times, 1.0), [[0, 1, 2], [3], [4, 5, 6]])
        # A single window is kept even though it may be partial.
        self.assertEqual(benchlib.windows([0.2, 0.4], 1.0), [[0, 1]])

    def test_window_median_ignores_a_burst(self):
        # Five one-second windows of 4, 4, 1 (a stall), 4 and 4 ops, then
        # a partial sixth: the median window rate is 4/s, the mean 3.4/s.
        times = [w + k / 4 for w in (0, 1, 3, 4) for k in range(4)] + [2.5, 5.1]
        rate = benchlib.window_median(times, 1.0, len)
        self.assertEqual(rate, 4)


class Spans(unittest.TestCase):
    def test_self_time_subtracts_union_of_children(self):
        spans = [
            {"id": 0, "name": "root", "start_ns": 0, "end_ns": 100, "parent": None, "op": 0, "units": 1},
            # Two overlapping children cover 10..50; one runs past the parent's end.
            {"id": 1, "name": "a", "start_ns": 10, "end_ns": 40, "parent": 0, "op": 0, "units": 1},
            {"id": 2, "name": "b", "start_ns": 30, "end_ns": 50, "parent": 0, "op": 0, "units": 1},
            {"id": 3, "name": "c", "start_ns": 90, "end_ns": 120, "parent": 0, "op": 0, "units": 1},
        ]
        selfs = benchlib.self_times(spans)
        self.assertEqual(selfs[0], 100 - 40 - 10)
        self.assertEqual(selfs[1], 30)

    def test_span_table_is_per_call(self):
        spans = [
            {"id": 0, "name": "blk", "start_ns": 0, "end_ns": 640, "parent": None, "op": 0, "units": 64},
            {"id": 1, "name": "blk", "start_ns": 1000, "end_ns": 1320, "parent": None, "op": 1, "units": 64},
        ]
        row = benchlib.span_table(spans)["blk"]
        self.assertEqual((row["n"], row["p50_ns"]), (2, 5.0))

    def test_coverage(self):
        share, rest = benchlib.coverage([20.0, 30.0], 100.0)
        self.assertEqual((share, rest), (0.5, 50.0))


class Checks(unittest.TestCase):
    def test_flipped_csv_byte_mismatched_lane_and_non_2xx_each_fail(self):
        with tempfile.TemporaryDirectory() as d:
            out = Path(d)
            (out / "a.csv").write_bytes(b"x,y\n1,2\n")
            (out / "b.csv").write_bytes(b"k\n3\n")
            expected = benchlib.csv_digests(out)
            tally = benchlib.Tally()
            benchlib.check_csvs(tally, benchlib.csv_digests(out), expected, "clean")
            self.assertEqual((tally.attempted, tally.failed), (2, 0))
            # Flip one byte of one CSV.
            data = bytearray((out / "a.csv").read_bytes())
            data[4] ^= 0x01
            (out / "a.csv").write_bytes(bytes(data))
            benchlib.check_csvs(tally, benchlib.csv_digests(out), expected, "flipped")
            self.assertEqual((tally.attempted, tally.failed), (4, 1))
            self.assertIn("a.csv digest differs", tally.failures[0])

        report = {
            "lanes": [
                {"lane": 0, "batch": "Metrics { slots: 5 }", "scalar": "Metrics { slots: 5 }"},
                {"lane": 125, "batch": "Metrics { x: 0.1 }", "scalar": "Metrics { x: 0.30000000000000004 }"},
            ],
            "statuses": {"200": 3, "201": 1, "503": 1},
            "transport_errors": 0,
            "twins": [{"experiment": "exp-000001", "served": "{\"a\":1}\n", "twin": "{\"a\":1}\n"}],
        }
        tally = benchlib.check_report(benchlib.Tally(), report, "r")
        # 2 lanes + 5 responses + 1 twin attempted; one lane, one 503 failed.
        self.assertEqual((tally.attempted, tally.failed), (8, 2))
        self.assertIn("r: lane 125 differs from scalar run", tally.failures)
        self.assertIn("r: HTTP 503", tally.failures)

    def test_transport_errors_and_twin_mismatch_fail(self):
        report = {"statuses": {}, "transport_errors": 2,
                  "twins": [{"experiment": "e", "served": "a", "twin": "b"}]}
        tally = benchlib.check_report(benchlib.Tally(), report, "r")
        self.assertEqual((tally.attempted, tally.failed), (3, 3))


class BenchmarkJson(unittest.TestCase):
    def test_declared_metrics_match_run_py(self):
        spec = json.loads((HERE.parent.parent / "BENCHMARK.json").read_text())
        self.assertEqual([(m["name"], m["unit"]) for m in spec["end_to_end"]], list(run.END_TO_END))
        self.assertEqual([(m["name"], m["unit"]) for m in spec["per_layer"]], list(run.PER_LAYER))
        self.assertEqual([w["name"] for w in spec["workloads"]], list(run.WORKLOADS))


if __name__ == "__main__":
    unittest.main()
