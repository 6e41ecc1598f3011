#!/usr/bin/env python3
"""Tests of the watchmand benchmark's own code.

    python3 perfbench/test_perfbench.py

Run from the repository root. The parser tests use captured samples in
perfbench/testdata/; the stream and relation-table tests build the load
generator first (as run.py does) and call its dump / relations modes.
"""

import hashlib
import os
import subprocess
import sys
import unittest

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))
import run  # noqa: E402

TESTDATA = os.path.join(os.path.dirname(os.path.abspath(__file__)),
                        "testdata")


def testdata(name):
    with open(os.path.join(TESTDATA, name)) as f:
        return f.read()


class PrometheusParserTest(unittest.TestCase):
    def setUp(self):
        self.before = run.parse_prometheus(testdata("metrics_before.txt"))
        self.after = run.parse_prometheus(testdata("metrics_after.txt"))

    def test_labels_and_values(self):
        info = [(l, v) for n, l, v in self.after
                if n == "watchman_server_info"]
        self.assertEqual(info, [({"backend": "io_uring",
                                  "policy": "lnc-ra(k=4)x8"}, 1.0)])
        self.assertEqual(run.metric_sum(
            self.after, "watchman_cache_lock_acquisitions_total",
            shard="1"), 8252)
        self.assertEqual(run.metric_sum(
            self.after, "watchman_server_shed_total"), 0)

    def test_bucket_deltas_match_count_delta(self):
        count = run.metric_sum(self.after,
                               "watchman_server_request_seconds_count",
                               op="get") - \
            run.metric_sum(self.before,
                           "watchman_server_request_seconds_count",
                           op="get")
        old = run.histogram_buckets(self.before,
                                    "watchman_server_request_seconds",
                                    op="get")
        new = run.histogram_buckets(self.after,
                                    "watchman_server_request_seconds",
                                    op="get")
        self.assertEqual(sum(new.values()) - sum(old.values()), count)

    def test_quantile_lies_in_an_emitted_bucket(self):
        p50 = run.histogram_quantile(self.before, self.after,
                                     "watchman_server_request_seconds", 0.5,
                                     op="get")
        edges = sorted(run.histogram_buckets(
            self.after, "watchman_server_request_seconds", op="get"))
        self.assertGreater(p50, edges[0] / 2)
        self.assertLess(p50, edges[-2])

    def test_quantile_interpolates_the_delta(self):
        before = run.parse_prometheus(
            'h_bucket{le="1"} 2\nh_bucket{le="2"} 4\nh_bucket{le="+Inf"} 4\n')
        after = run.parse_prometheus(
            'h_bucket{le="1"} 2\nh_bucket{le="2"} 10\n'
            'h_bucket{le="4"} 12\nh_bucket{le="+Inf"} 12\n')
        # Delta: 6 samples in (1, 2], 2 in (2, 4]; the 4th of 8 sits
        # 4/6 of the way through (1, 2].
        self.assertAlmostEqual(
            run.histogram_quantile(before, after, "h", 0.5), 1 + 4 / 6)
        self.assertEqual(run.histogram_quantile(after, after, "h", 0.5), 0)

    def test_rejects_garbage(self):
        with self.assertRaises(ValueError):
            run.parse_prometheus("not a metric line at all\n")


class SchedstatParserTest(unittest.TestCase):
    def test_sums_per_thread_deltas(self):
        before = testdata("schedstat_before.txt")
        after = testdata("schedstat_after.txt")
        expected = 0
        old = {l.split()[0]: int(l.split()[1]) for l in before.splitlines()}
        for line in after.splitlines():
            tid, ns = line.split()[:2]
            expected += int(ns) - old[tid]
        self.assertEqual(run.cpu_delta_ns(before, after), expected)
        self.assertGreater(expected, 0)

    def test_new_thread_counts_from_zero(self):
        self.assertEqual(run.cpu_delta_ns("1 100 0 1\n",
                                          "1 150 0 2\n2 70 0 1\n"), 120)


class LoadGeneratorTest(unittest.TestCase):
    @classmethod
    def setUpClass(cls):
        cls.loader = os.path.join(run.build(), "perfbench_load")

    def dump_digest(self, workload, seed):
        out = subprocess.run([self.loader, "dump", "--workload=" + workload,
                              "--seed=%d" % seed, "--queries=2000"],
                             stdout=subprocess.PIPE, check=True).stdout
        self.assertGreater(len(out), 0)
        return hashlib.sha256(out).hexdigest()

    def test_same_seed_same_stream(self):
        for workload in run.WORKLOADS:
            self.assertEqual(self.dump_digest(workload, 7),
                             self.dump_digest(workload, 7), workload)

    def test_different_seed_different_stream(self):
        for workload in run.WORKLOADS:
            self.assertNotEqual(self.dump_digest(workload, 7),
                                self.dump_digest(workload, 8), workload)

    def test_relation_table_covers_every_template(self):
        done = subprocess.run([self.loader, "relations"],
                              stdout=subprocess.PIPE, text=True)
        self.assertEqual(done.returncode, 0, done.stdout)
        names = [line.split()[0] for line in done.stdout.splitlines()]
        self.assertEqual(names, ["tpcd_q%d" % i for i in range(1, 18)])


if __name__ == "__main__":
    unittest.main()
