#!/usr/bin/env python3
"""Tests of the whole-flow benchmark.

    python3 perfbench/test_perfbench.py

The cross-backend test builds the benchmark (as run.py does) and flows the
batch of six `tiny` OpenM1 designs through both execution backends, about
two minutes.
"""

import json
import os
import tempfile
import unittest

import run


class SpecTest(unittest.TestCase):
    def test_benchmark_json_matches_the_metric_tables(self):
        with open(os.path.join(run.ROOT, "BENCHMARK.json")) as f:
            spec = json.load(f)
        self.assertEqual(sorted(w["name"] for w in spec["workloads"]),
                         sorted(run.WORKLOADS))
        self.assertEqual([(m["name"], m["unit"], m["better"])
                          for m in spec["end_to_end"]], run.END_TO_END)
        self.assertEqual([(m["name"], m["unit"], m["better"])
                          for m in spec["per_layer"]], run.PER_LAYER)


class TraceTest(unittest.TestCase):
    def test_self_time_subtracts_the_part_children_cover(self):
        us = 1e6
        events = [
            # thread 0, the benchmark's: route 0..10 s holding ripup
            # 2..5 s; vm1opt 10..20 s dispatching thread 1's work
            dict(name="bench.pass", ph="X", tid=0, ts=0, dur=20 * us),
            dict(name="bench.route.init", ph="X", tid=0, ts=0, dur=10 * us),
            dict(name="route.ripup_iteration", ph="X", tid=0, ts=2 * us,
                 dur=3 * us),
            dict(name="bench.vm1opt", ph="X", tid=0, ts=10 * us, dur=10 * us),
            # thread 1: a window solve holding a node-capped MILP, holding
            # an LP; then a MILP truncated short of the node cap, and one
            # that proved optimality
            dict(name="dist_opt.window_solve", ph="X", tid=1, ts=11 * us,
                 dur=4 * us),
            dict(name="milp.solve", ph="X", tid=1, ts=11.5 * us, dur=3 * us,
                 args=dict(nodes=60, status="feasible")),
            dict(name="lp.solve", ph="X", tid=1, ts=12 * us, dur=1 * us),
            dict(name="milp.solve", ph="X", tid=1, ts=16 * us, dur=0.5 * us,
                 args=dict(nodes=7, status="no-solution")),
            dict(name="milp.solve", ph="X", tid=1, ts=16.5 * us,
                 dur=0.5 * us, args=dict(nodes=9, status="optimal")),
            dict(name="inc", ph="i", tid=1, ts=16.7 * us),
        ]
        with tempfile.TemporaryDirectory() as tmp:
            path = os.path.join(tmp, "t.json")
            with open(path, "w") as f:
                json.dump({"traceEvents": events,
                           "otherData": {"dropped_events": 0}}, f)
            selfs, node_capped, under_cap, dropped = run.self_times(path)
        self.assertAlmostEqual(selfs["bench"], 0.0)
        self.assertAlmostEqual(selfs["route"], 10.0)
        # vm1opt: 10 s less the 5 s its pool work covers, plus the window
        # solve's 1 s outside its MILP
        self.assertAlmostEqual(selfs["vm1opt"], 5.0 + 1.0)
        self.assertAlmostEqual(selfs["milp"], 2.0 + 1.0)
        self.assertAlmostEqual(selfs["lp"], 1.0)
        self.assertEqual((node_capped, under_cap, dropped), (1, 1, 0))

    def test_tail_quantile_keeps_ten_samples_beyond_it(self):
        h = dict(count=150, p50=1.0, p95=2.0, p99=3.0)
        self.assertEqual(run.tail_quantile(h), (50, 1.0))
        h["count"] = 200
        self.assertEqual(run.tail_quantile(h), (95, 2.0))
        h["count"] = 1000
        self.assertEqual(run.tail_quantile(h), (99, 3.0))


class CrossBackendTest(unittest.TestCase):
    """tiny_open_fleet and tiny_open_batch flow the same designs; their
    fingerprints and quality must agree bit for bit. A window that hits the
    MIP or LP wall-clock cap on one side only changes milp_nodes and fails
    this test: that load dependence is a known defect, not test noise."""

    def flow(self, workload, tmp):
        out = os.path.join(tmp, workload + ".json")
        args = [run.FLOWBENCH, "--seed=1",
                "--backend=" + run.WORKLOADS[workload], "--setup-reps=0",
                "--recheck=0", "--out=" + out]
        return run.run_flowbench(args, out)["passes"][0]["designs"]

    def test_processes_backend_matches_threads(self):
        run.build()
        with tempfile.TemporaryDirectory() as tmp:
            threads = self.flow("tiny_open_batch", tmp)
            fleet = self.flow("tiny_open_fleet", tmp)
        self.assertEqual([d["seed"] for d in threads], [1, 2, 3, 4, 5, 6])
        for t, p in zip(threads, fleet):
            self.assertEqual(run.fingerprint(t, False), run.fingerprint(p, False))
            for key in ("init", "final", "objective_init", "objective_final",
                        "alignments_init", "alignments_final", "windows",
                        "outcomes"):
                self.assertEqual(t[key], p[key], key)
            self.assertEqual(p["remote"]["local_fallbacks"], 0)


if __name__ == "__main__":
    unittest.main()
