#!/usr/bin/env python3
"""Tests of the benchmark itself.

    python3 perfbench/test_perfbench.py

The driver tests build dcc_perfbench first (as run.py does) and run each
workload once, traced and untraced; they take about two minutes.
"""

import copy
import os
import re
import sys
import unittest

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))
import run  # noqa: E402

NAME = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")
UNIT = re.compile(r"^[A-Za-z0-9_/%.-]{1,16}$")


def scenario_pass(seed=1):
    """A correct pass record, shaped like the driver's."""
    return {
        "kind": "pass", "index": 0, "traced": False, "ok": True, "error": "",
        "wall_s": 1.0, "cpu_s": 0.9, "rss_growth_mb": 60.0,
        "outcome": {
            "spec_hash": "00ff00ff00ff00ff", "seed": seed, "events": 1000,
            "clients": [
                {"label": "Light", "attacker": False, "sent": 100, "succeeded": 90,
                 "failed": 10, "p99_ms": 20.5},
                {"label": "Attacker", "attacker": True, "sent": 500, "succeeded": 100,
                 "failed": 400},
            ],
        },
    }


class MetricTableTest(unittest.TestCase):
    def test_names_and_units(self):
        units = run.metric_units(run.load_benchmark_json())
        names = list(run.END_TO_END) + list(run.PER_LAYER)
        self.assertEqual(len(names), len(set(names)))
        for name in names:
            self.assertRegex(name, NAME)
            self.assertIn(name, units, name)
            self.assertRegex(units[name], UNIT, name)
        for name, applies in list(run.END_TO_END.items()) + list(run.PER_LAYER.items()):
            self.assertTrue(applies, name)
            self.assertTrue(set(applies) <= set(run.WORKLOADS), name)
        for name in run.PER_LAYER:
            self.assertRegex(name, r"^[a-z]+\.[a-z0-9_]+$")

    def test_benchmark_json_declares_the_shared_metrics(self):
        bench = run.load_benchmark_json()
        gated = [w["name"] for w in bench["workloads"]]
        self.assertTrue(set(gated) <= set(run.WORKLOADS))
        for key, table in (("end_to_end", run.END_TO_END), ("per_layer", run.PER_LAYER)):
            shared = [name for name, applies in table.items()
                      if all(w in applies for w in gated)]
            self.assertEqual(sorted(run.gated_metrics(bench, key == "end_to_end")),
                             sorted(shared))
        declared = {m["name"] for key in ("end_to_end", "per_layer") for m in bench[key]}
        self.assertFalse(set(run.UNGATED_UNITS) & declared)
        bounds = {m["name"]: m["bound"] for m in bench["end_to_end"]}
        self.assertEqual(bounds["setup_s"], max(bounds.values()))


class OutputCheckTest(unittest.TestCase):
    def test_accepts_a_correct_pass(self):
        self.assertEqual(run.check_pass("wc_flood", 1, scenario_pass()), [])
        self.assertEqual(run.check_run("wc_flood", 1, [scenario_pass(), scenario_pass()]), [])

    def test_rejects_broken_query_conservation(self):
        doctored = scenario_pass()
        doctored["outcome"]["clients"][0]["succeeded"] += 1
        errors = run.check_pass("wc_flood", 1, doctored)
        self.assertTrue(any("sent 100 != succeeded 91" in e for e in errors), errors)
        self.assertTrue(run.check_run("wc_flood", 1, [scenario_pass(), doctored]))

    def test_rejects_passes_that_disagree(self):
        other = scenario_pass()
        other["outcome"]["events"] += 1
        errors = run.check_run("wc_flood", 1, [scenario_pass(), other])
        self.assertTrue(any("disagree" in e for e in errors), errors)

    def test_rejects_a_failed_run_and_a_foreign_seed(self):
        failed = scenario_pass()
        failed["ok"] = False
        self.assertTrue(run.check_pass("wc_flood", 1, failed))
        self.assertTrue(run.check_pass("wc_flood", 2, scenario_pass(seed=1)))

    def test_rejects_a_benign_client_without_latency(self):
        doctored = scenario_pass()
        del doctored["outcome"]["clients"][0]["p99_ms"]
        errors = run.check_pass("wc_flood", 1, doctored)
        self.assertTrue(any("stub_latency_us" in e for e in errors), errors)
        sim = run.simulated_metrics("wc_flood", doctored)
        self.assertNotIn("benign_p99_ms", sim)
        self.assertIn("benign_p99_ms", run.missing_metrics("wc_flood", sim, True))

    def test_metrics_of_a_pass(self):
        record = scenario_pass()
        sim = run.simulated_metrics("wc_flood", record)
        self.assertAlmostEqual(sim["benign_success"], 0.9)
        self.assertAlmostEqual(sim["benign_success_worst"], 0.9)
        self.assertAlmostEqual(sim["benign_p99_ms"], 20.5)
        second = scenario_pass()
        second["index"] = 1
        second["rss_growth_mb"] = 61.0
        samples = run.host_samples("wc_flood", [record, second], [0.01, 0.02])
        self.assertEqual(samples["peak_rss_mb"], [60.0])  # First passes only.
        self.assertEqual(samples["setup_s"], [0.01, 0.02])
        self.assertAlmostEqual(samples["queries_per_cpu_s"][0], 600 / 0.9)


class DriverTest(unittest.TestCase):
    @classmethod
    def setUpClass(cls):
        cls.binary = run.build()

    def inputs_hash(self, workload, seed):
        records = run.driver_records(
            self.binary, ["--mode", "inputs", "--workload", workload, "--seed", str(seed)])
        return records[0]["inputs_hash"]

    def test_seed_changes_the_inputs(self):
        for workload in run.WORKLOADS:
            with self.subTest(workload=workload):
                first = self.inputs_hash(workload, 1)
                self.assertEqual(first, self.inputs_hash(workload, 1))
                self.assertNotEqual(first, self.inputs_hash(workload, 2))

    def test_every_applicable_metric_is_reported(self):
        for workload in run.WORKLOADS:
            for trace in (False, True):
                with self.subTest(workload=workload, trace=trace):
                    summary, lines = run.run_workload(
                        self.binary, workload, seed=3, seconds=0, trace=trace)
                    self.assertTrue(summary["correct"], "\n".join(lines))
                    self.assertEqual(
                        run.missing_metrics(workload, summary["metrics"], not trace), [])
                    table = run.PER_LAYER if trace else run.END_TO_END
                    for name, value in summary["metrics"].items():
                        self.assertIn(workload, table[name], name)
                        self.assertIsInstance(value, (int, float))

    def test_a_doctored_real_pass_is_rejected(self):
        records = run.driver_records(
            self.binary, ["--mode", "passes", "--workload", "fleet_failover",
                          "--seed", "2"])
        passes = [r for r in records if r["kind"] == "pass"]
        self.assertEqual(run.check_run("fleet_failover", 2, passes), [])
        doctored = copy.deepcopy(passes[0])
        doctored["outcome"]["clients"][1]["failed"] += 1
        self.assertTrue(run.check_pass("fleet_failover", 2, doctored))


if __name__ == "__main__":
    unittest.main()
