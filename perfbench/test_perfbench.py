"""Tests of the benchmark itself: its output self-check and its rendering.

    python3 -m unittest discover -s perfbench -v

The driver runs are reduced (half a second, and a 4,096-flow many_flows),
so the whole file takes well under a minute once the driver is built.
"""

import json
import re
import subprocess
import unittest

import run

SPEC = json.loads((run.ROOT / "BENCHMARK.json").read_text())
END_TO_END = {m["name"]: m["unit"] for m in SPEC["end_to_end"]}
PER_LAYER = {m["name"]: m["unit"] for m in SPEC["per_layer"]}


def reduced_run(workload, trace, *extra):
    args = [str(run.BINARY), "--workload", workload, "--seed", "7",
            "--seconds", "0.5", "--trace", str(trace), "--small", *extra]
    proc = subprocess.run(args, stdout=subprocess.PIPE, stderr=subprocess.PIPE,
                          text=True, timeout=300)
    return proc, run.parse_result(proc.stdout)


class RenderingTest(unittest.TestCase):
    RESULT = {"correct": True, "attempted": 200, "failed": 5,
              "metrics": {"goodput_mbps": {"value": 1234.5, "unit": "Mb/s"},
                          "setup_s": {"value": 0.25, "unit": "s"}}}

    def test_every_metric_is_rendered_by_name_with_its_unit(self):
        text = run.render_metrics("bulk_xdr", self.RESULT)
        self.assertRegex(text, r"bulk_xdr +goodput_mbps +1234\.5 Mb/s")
        self.assertRegex(text, r"bulk_xdr +setup_s +0\.25 s")

    def test_fail_fraction_and_self_check_are_rendered(self):
        text = run.render_metrics("small_rpc", self.RESULT)
        self.assertRegex(text, r"small_rpc +adu_fail_frac +0\.025 frac")
        self.assertRegex(text, r"small_rpc +self_check +pass")
        failed = dict(self.RESULT, correct=False)
        self.assertRegex(run.render_metrics("small_rpc", failed), r"self_check +FAIL")

    def test_result_line_must_have_exactly_the_contract_keys(self):
        good = json.dumps(self.RESULT)
        self.assertEqual(run.parse_result("text\n" + good + "\n"), self.RESULT)
        with self.assertRaises(ValueError):
            run.parse_result(json.dumps({"correct": True, "metrics": {}}))
        with self.assertRaises(ValueError):
            run.parse_result("")

    def test_layer_table_is_cut_from_the_traced_output(self):
        out = ("layer  self_ms\nalf.rx.frame 1.0\nwall 2.0\n"
               "  of which util.event_loop blocked on the engine: 1.0 ns/adu\n"
               "alf.rx.frame_ns_per_frame 12 ns/frame\n{}\n")
        table = run.layer_table(out)
        self.assertTrue(table.startswith("layer"))
        self.assertTrue(table.endswith("ns/adu"))
        self.assertNotIn("frame_ns_per_frame", table)


class ReducedRunTest(unittest.TestCase):
    @classmethod
    def setUpClass(cls):
        run.build()

    def test_clean_runs_pass_and_report_every_end_to_end_metric(self):
        for workload in run.WORKLOADS:
            with self.subTest(workload=workload):
                proc, result = reduced_run(workload, 0)
                self.assertEqual(proc.returncode, 0, proc.stderr)
                self.assertTrue(result["correct"])
                self.assertEqual(result["failed"], 0)
                self.assertGreater(result["attempted"], 0)
                got = {k: m["unit"] for k, m in result["metrics"].items()}
                self.assertEqual(got, END_TO_END)
                for name, m in result["metrics"].items():
                    self.assertGreater(m["value"], 0, name)
                self.assertIn("adu_fail_frac 0", proc.stdout)

    def test_traced_runs_report_every_layer_and_the_rows_add_up(self):
        for workload in run.WORKLOADS:
            with self.subTest(workload=workload):
                proc, result = reduced_run(workload, 1)
                self.assertEqual(proc.returncode, 0, proc.stderr)
                got = {k: m["unit"] for k, m in result["metrics"].items()}
                self.assertEqual(got, PER_LAYER)
                metrics = {k: m["value"] for k, m in result["metrics"].items()}
                for must_be_zero in ("buf.segments_live_end", "netsim.frames_dropped",
                                     "alf.tx.adus_recomputed", "sessiond.creates_rejected",
                                     "sessiond.frames_unroutable"):
                    self.assertEqual(metrics[must_be_zero], 0, must_be_zero)
                table = run.layer_table(proc.stdout)
                shares = [float(s) for s in re.findall(r" ([0-9.]+)%", table)]
                # Layer rows and the unattributed row sum to the wall row.
                self.assertAlmostEqual(sum(shares[:-1]), shares[-1], delta=0.1)

    def test_sessiond_layers_move_only_on_many_flows(self):
        _, bulk = reduced_run("bulk_xdr", 1)
        _, flows = reduced_run("many_flows", 1)
        self.assertEqual(bulk["metrics"]["sessiond.dispatch_ns_per_frame"]["value"], 0)
        self.assertGreater(flows["metrics"]["sessiond.dispatch_ns_per_frame"]["value"], 0)
        self.assertGreater(flows["metrics"]["sessiond.evicted"]["value"], 0)
        self.assertEqual(bulk["metrics"]["alf.rx.zero_copy_frac"]["value"], 1)

    def test_a_corrupted_record_fails_the_self_check(self):
        for workload in run.WORKLOADS:
            with self.subTest(workload=workload):
                proc, result = reduced_run(workload, 0, "--corrupt-one")
                self.assertEqual(proc.returncode, 1)
                self.assertFalse(result["correct"])
                self.assertEqual(result["failed"], 1)
                self.assertIn("self-check failed", proc.stderr)


if __name__ == "__main__":
    unittest.main()
