#!/usr/bin/env python3
"""Tests for the benchmark's judging and reporting.

    python3 perfbench/test_run.py

The judging tests feed run.py synthetic harness records. The harness tests
run the built harness (perfbench/run.py builds it) on tiny datasets and
are skipped when it has not been built yet.
"""

import json
import os
import shutil
import struct
import subprocess
import sys
import tempfile
import unittest

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))
import run  # noqa: E402

BENCHMARK = run.load_benchmark_json()
WORKLOAD_NAMES = [w["name"] for w in BENCHMARK["workloads"]]

# What the harness says of each workload in its "workload" record.
MODEL = {"lr-dense-ooc": ("lr", True), "lr-dense-warm": ("lr", False),
         "lr-sparse-ooc": ("lr", True), "kmeans-dense-warm": ("kmeans", False)}


def workload_record(workload):
    model, out_of_core = MODEL[workload]
    return {"record": "workload", "name": workload, "model": model,
            "out_of_core": out_of_core}


def setup_record(resident, ok=True):
    return {"record": "setup", "ok": ok,
            "status": "OK" if ok else "IO error: boom",
            "resident_before": resident, "setup_s": 0.001}


def train_record(workload, resident, objective=None, recheck=None, ok=True,
                 warmup=False):
    model = MODEL[workload][0]
    if objective is None:
        objective = 0.4 if model == "lr" else 1000.0
    if recheck is None:
        recheck = objective if model == "lr" else objective * 0.999
    record = {"record": "train", "workload": workload, "ok": ok,
              "status": "OK" if ok else "Invalid argument: bad labels",
              "resident_before": resident, "train_s": 1.0,
              "pass_s": [0.1, 0.11, 0.09], "objective": objective,
              "recheck": recheck, "peak_rss_mb": 50.0, "warmup": warmup}
    for name in run.PER_LAYER:
        record[name] = 1.5
    record["exec.stall_chunk_p95_s"] = None
    return record


def probe_records():
    probes = [{"record": "probe", "name": name, "value": 2.0}
              for name in ("exec.scan_s", "ml.grad_pass_s", "la.dot_gbps",
                           "la.axpy_gbps", "la.sqdist_gbps",
                           "la.sparse_dot_gbps", "la.sparse_axpy_gbps",
                           "io.disk_read_gbps")]
    probes.append({"record": "probe", "name": "ml.kmeans_seed_s",
                   "value": None, "absent": "workload does not train k-means"})
    return probes


def resident_for(workload):
    return 0.0 if MODEL[workload][1] else 1.0


def clean_records(workload):
    resident = resident_for(workload)
    return ([workload_record(workload)] +
            [setup_record(resident) for _ in range(3)] +
            [train_record(workload, resident, warmup=True)] +
            [train_record(workload, resident) for _ in range(3)] +
            probe_records())


def result_for(records, trace=0, exit_code=0):
    return run.result_line(records, trace, exit_code, BENCHMARK)


class JudgeTest(unittest.TestCase):

    def test_clean_run_is_correct_on_every_workload(self):
        for workload in WORKLOAD_NAMES:
            result, report = result_for(clean_records(workload))
            self.assertTrue(result["correct"], (workload, report))
            self.assertEqual(result["attempted"], 7)
            self.assertEqual(result["failed"], 0)

    def test_failed_status_marks_the_run_failed(self):
        for kind in ("setup", "train"):
            records = clean_records("lr-dense-warm")
            next(r for r in records if r["record"] == kind)["ok"] = False
            result, report = result_for(records)
            self.assertFalse(result["correct"])
            self.assertEqual(result["failed"], 1)
            self.assertIn("status", report["failures"][0])

    def test_dataset_failure_marks_the_run_failed(self):
        records = [workload_record("lr-sparse-ooc"),
                   {"record": "dataset", "ok": False,
                    "status": "IO error: disk full"}]
        result, report = result_for(records)
        self.assertFalse(result["correct"])
        self.assertEqual(result["failed"], 1)
        self.assertEqual(result["metrics"], {})

    def test_residency_miss_marks_the_run_failed(self):
        cases = [("lr-dense-ooc", 0.5), ("lr-sparse-ooc", 0.02),
                 ("lr-dense-warm", 0.5), ("kmeans-dense-warm", 0.98)]
        for workload, resident in cases:
            for kind in ("setup", "train"):
                records = clean_records(workload)
                next(r for r in records
                     if r["record"] == kind)["resident_before"] = resident
                result, report = result_for(records)
                self.assertFalse(result["correct"], (workload, kind))
                self.assertEqual(result["failed"], 1)
                self.assertIn("cache precondition", report["failures"][0])

    def test_unmeasured_residency_marks_the_run_failed(self):
        records = clean_records("lr-dense-ooc")
        records[1]["resident_before"] = None
        result, _ = result_for(records)
        self.assertEqual(result["failed"], 1)

    def test_objective_mismatch_marks_the_run_failed(self):
        cases = [
            ("lr-dense-warm", 0.4, 0.4 * (1 + 1e-6)),
            ("lr-sparse-ooc", 0.3, None),
            ("kmeans-dense-warm", 1000.0, 1000.0 * 1.001),  # above trained
            ("kmeans-dense-warm", 1000.0, 1000.0 * 0.95),  # far below
        ]
        for workload, objective, recheck in cases:
            records = clean_records(workload)
            train = next(r for r in records if r["record"] == "train"
                          and not r["warmup"])
            train["objective"] = objective
            train["recheck"] = recheck
            if recheck is None:
                del train["recheck"]
            result, report = result_for(records)
            self.assertFalse(result["correct"], workload)
            self.assertEqual(result["failed"], 1)

    def test_untrained_loss_marks_the_run_failed(self):
        records = clean_records("lr-dense-ooc")
        train = next(r for r in records if r["record"] == "train")
        train["objective"] = train["recheck"] = run.LN2
        result, report = result_for(records)
        self.assertFalse(result["correct"])
        self.assertIn("ln 2", report["failures"][0])

    def test_failed_operations_do_not_feed_the_medians(self):
        records = clean_records("lr-dense-warm")
        bad = train_record("lr-dense-warm", 1.0, ok=False)
        bad["train_s"] = 1000.0
        result, _ = result_for(records + [bad])
        self.assertEqual(result["metrics"]["train_s"]["value"], 1.0)

    def test_warmup_is_judged_but_not_measured(self):
        records = clean_records("lr-dense-warm")
        warmup = next(r for r in records if r.get("warmup"))
        warmup["train_s"] = 1000.0
        result, _ = result_for(records)
        self.assertTrue(result["correct"])
        self.assertEqual(result["metrics"]["train_s"]["value"], 1.0)
        warmup["ok"] = False
        result, report = result_for(records)
        self.assertEqual(result["failed"], 1)
        self.assertIn("status", report["failures"][0])

    def test_missing_workload_record_marks_the_run_failed(self):
        result, report = result_for(clean_records("lr-dense-ooc")[1:])
        self.assertFalse(result["correct"])
        self.assertIn("no workload", report["failures"][0])

    def test_harness_crash_marks_the_run_failed(self):
        result, report = result_for(clean_records("lr-dense-ooc"),
                                    exit_code=-7)
        self.assertFalse(result["correct"])
        self.assertIn("code -7", report["failures"][-1])
        result, _ = result_for([], exit_code=-11)
        self.assertEqual((result["attempted"], result["failed"]), (1, 1))


class MetricsTest(unittest.TestCase):

    def test_every_end_to_end_metric_is_emitted(self):
        for workload in WORKLOAD_NAMES:
            result, _ = result_for(clean_records(workload))
            self.assertEqual(
                sorted(result["metrics"]),
                sorted(m["name"] for m in BENCHMARK["end_to_end"]))
            for metric in BENCHMARK["end_to_end"]:
                self.assertEqual(result["metrics"][metric["name"]]["unit"],
                                 metric["unit"])

    def test_every_per_layer_metric_is_emitted_or_absent(self):
        result, report = result_for(clean_records("lr-sparse-ooc"), trace=1)
        self.assertTrue(result["correct"], report)
        self.assertEqual(sorted(result["metrics"]),
                         sorted(m["name"] for m in BENCHMARK["per_layer"]))
        layers = report["per_layer"]
        self.assertEqual(sorted(layers), sorted(run.PER_LAYER))
        for name, entry in layers.items():
            self.assertTrue(entry["value"] is not None or entry["absent"],
                            name)
        for metric in BENCHMARK["per_layer"]:
            self.assertEqual(result["metrics"][metric["name"]]["unit"],
                             metric["unit"])
        self.assertEqual(layers["ml.kmeans_seed_s"]["absent"],
                         "workload does not train k-means")
        self.assertEqual(layers["exec.stall_chunk_p95_s"]["absent"],
                         run.ABSENT_REASONS["exec.stall_chunk_p95_s"])

    def test_missing_metric_makes_the_run_incorrect(self):
        records = clean_records("lr-dense-warm")
        for record in records:
            if record["record"] == "train":
                record["peak_rss_mb"] = None
        result, _ = result_for(records)
        self.assertNotIn("peak_rss_mb", result["metrics"])
        self.assertFalse(result["correct"])


def built_harness():
    binary = os.path.join(run.build_dir(), "m3perf")
    return binary if os.path.exists(binary) else None


@unittest.skipIf(built_harness() is None, "harness not built; run run.py")
class HarnessTest(unittest.TestCase):
    """The real harness on tiny inputs: a fraction of a second per run."""

    def setUp(self):
        parent = os.path.dirname(run.build_dir())
        self.data_dir = tempfile.mkdtemp(prefix="perfbench-test-",
                                         dir=parent)

    def tearDown(self):
        shutil.rmtree(self.data_dir, ignore_errors=True)

    def harness(self, workload, trace=0):
        command = [built_harness(), "--workload", workload, "--seed", "7",
                   "--seconds", "0.05", "--trace", str(trace),
                   "--data_dir", self.data_dir, "--dense_rows", "2048",
                   "--sparse_rows", "4000", "--sparse_cols", "4096",
                   "--sparse_nnz_per_row", "8"]
        proc = subprocess.run(command, stdout=subprocess.PIPE, text=True)
        records = [json.loads(line) for line in proc.stdout.splitlines()]
        return result_for(records, trace, proc.returncode)

    def test_tiny_runs_are_correct_with_every_metric(self):
        for workload in WORKLOAD_NAMES:
            for trace in (0, 1):
                result, report = self.harness(workload, trace)
                self.assertTrue(result["correct"], (workload, report))
                if trace:
                    for name, entry in report["per_layer"].items():
                        self.assertTrue(entry["value"] is not None or
                                        entry.get("absent"), name)

    def test_failed_open_marks_the_run_failed(self):
        result, _ = self.harness("lr-sparse-ooc")
        self.assertTrue(result["correct"])
        # Corrupt the per-seed file, the one Open reads; the problem file
        # it was permuted from is read only to generate it.
        path = next(os.path.join(self.data_dir, name)
                    for name in os.listdir(self.data_dir)
                    if name.startswith("sparse-seed"))
        with open(path, "r+b") as f:
            header = struct.unpack("<4sIQQQIIQQQQ", f.read(72))
            col_idx_offset = header[8]
            f.seek(col_idx_offset)
            f.write(struct.pack("<I", 0xFFFFFFFF))  # column out of range
        result, report = self.harness("lr-sparse-ooc")
        self.assertFalse(result["correct"])
        self.assertGreaterEqual(result["failed"], 1)
        self.assertTrue(any("col_idx" in failure
                            for failure in report["failures"]), report)


if __name__ == "__main__":
    unittest.main()
