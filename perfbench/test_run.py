"""Tests for run.py: its metric tables, its correctness gate, its output.

    cd perfbench && python3 -m unittest test_run

With PERFBENCH_BIN naming a built `perfbench` binary (ctest sets it), one traced
p2p_pair run also checks the names the binary itself prints.
"""

import json
import os
import subprocess
import tempfile
import unittest

import run

SPEC = json.loads((run.ROOT / "BENCHMARK.json").read_text())


def fake_run(**sim):
    return {
        "correct": True, "errors": "", "exit": 0, "attempted": 10, "failed": 0,
        "digests": ["00000000000000aa"], "warn_lines": 0,
        "sim": {"op_p50_us": 5.0, "op_p99_us": 90.0, "goodput_mbps": 800.0,
                **sim},
        "wall": {"setup_s": 1.0, "run_s": 2.0, "teardown_s": 0.5,
                 "peak_rss_mb": 10.0},
    }


class TablesTest(unittest.TestCase):
    def test_tables_match_benchmark_json(self):
        for key, table in (("end_to_end", run.END_TO_END),
                           ("per_layer", run.PER_LAYER)):
            listed = {m["name"]: m["unit"] for m in SPEC[key]}
            self.assertEqual(listed, table, key)

    def test_names_are_well_formed(self):
        names = [*run.END_TO_END, *run.PER_LAYER,
                 *(w["name"] for w in SPEC["workloads"])]
        for name in names:
            self.assertRegex(name, r"\A[A-Za-z0-9_.-]+\Z")
        self.assertEqual(len(names), len(set(names)))

    def test_workloads_match(self):
        self.assertEqual(tuple(w["name"] for w in SPEC["workloads"]),
                         run.WORKLOADS)


class GateTest(unittest.TestCase):
    def test_identical_runs_pass(self):
        self.assertEqual(run.check([fake_run(), fake_run()], None), [])

    def test_simulated_metric_drift_fails(self):
        problems = run.check([fake_run(), fake_run(op_p99_us=90.5)], None)
        self.assertEqual(len(problems), 1)
        self.assertIn("simulated metrics", problems[0])

    def test_digest_drift_fails(self):
        other = fake_run()
        other["digests"] = ["00000000000000ab"]
        self.assertIn("digests", run.check([fake_run(), other], None)[0])

    def test_failed_run_fails(self):
        bad = fake_run()
        bad["correct"] = False
        bad["errors"] = "3 payloads failed verification; "
        self.assertIn("verification", run.check([fake_run(), bad], None)[0])

    def test_traced_run_drift_is_reported_not_failed(self):
        traced = fake_run(goodput_mbps=792.0)
        self.assertEqual(run.check([fake_run()], traced), [])
        self.assertAlmostEqual(run.sim_mismatch([fake_run()], traced), 0.01)
        self.assertEqual(run.sim_mismatch([fake_run()], fake_run()), 0.0)

    def test_wall_metrics_are_medians(self):
        runs = [fake_run() for _ in range(3)]
        for r, setup in zip(runs, (3.0, 1.0, 2.0)):
            r["wall"]["setup_s"] = setup
        metrics = run.metrics_for(runs, None)
        self.assertEqual(metrics["setup_s"], {"value": 2.0, "unit": "s"})
        self.assertEqual(metrics["op_p50_us"], {"value": 5.0, "unit": "us"})
        run.check_names(metrics, trace=0)

    def test_unlisted_name_is_refused(self):
        r = fake_run()
        r["sim"]["extra_us"] = 1.0
        with self.assertRaises(run.BenchError):
            run.metrics_for([r], None)


@unittest.skipUnless(os.environ.get("PERFBENCH_BIN"), "PERFBENCH_BIN not set")
class BinaryOutputTest(unittest.TestCase):
    def test_printed_names_are_listed(self):
        with tempfile.TemporaryDirectory() as tmp:
            spans = os.path.join(tmp, "spans.json")
            proc = subprocess.run(
                [os.environ["PERFBENCH_BIN"], "--workload", "p2p_pair",
                 "--seed", "1", "--spans", spans],
                stdout=subprocess.PIPE, stderr=subprocess.DEVNULL, text=True,
                check=True)
            result = json.loads(proc.stdout.strip().splitlines()[-1])
            with open(spans) as f:
                self.assertGreater(len(json.load(f)), 1200)
        result.update(exit=0, warn_lines=0)
        self.assertTrue(result["correct"], result["errors"])
        run.check_names(run.metrics_for([result], None), trace=0)
        run.check_names(run.metrics_for([result], result), trace=1)


if __name__ == "__main__":
    unittest.main()
