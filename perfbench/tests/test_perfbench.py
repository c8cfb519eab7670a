"""Tests of the benchmark itself. Run from the repository root:

    python3 -m unittest discover -s perfbench/tests

The integration tests build the program (incrementally) and run warm_eval
for one second, about two minutes in all.
"""

import importlib.util
import json
import os
import shutil
import subprocess
import sys
import unittest
from pathlib import Path

sys.dont_write_bytecode = True

HERE = Path(__file__).resolve().parent
BENCH = HERE.parent
ROOT = BENCH.parent
_spec = importlib.util.spec_from_file_location("perfbench_run", BENCH / "run.py")
run = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(run)

DOC = """{
  "meta": {"schema_version": 1, "generated_utc": "2026-01-01T00:00:00Z"},
  "config": {"thread_count": 4, "seed": 42, "digest": "1"},
  "spec_digest": "2",
  "theta_multipliers": [0.5, 1, 2],
  "cells": [
    {"benchmark": "FMM", "stage": "Decode", "policy": "nominal", "theta_eq": 0.25, "pareto": []},
    {"benchmark": "FMM", "stage": "Decode", "policy": "synts_offline", "theta_eq": 0.25, "pareto": []}
  ]
}
"""


class OutputCheck(unittest.TestCase):
    def test_identical_document_passes(self):
        self.assertEqual(run.count_failed(DOC, run.digest_doc(DOC)), 0)

    def test_meta_line_is_ignored(self):
        restamped = DOC.replace("2026-01-01T00:00:00Z", "2027-02-02T00:00:00Z")
        self.assertEqual(run.count_failed(restamped, run.digest_doc(DOC)), 0)

    def test_doctored_reference_cell_counts_as_failed(self):
        reference = run.digest_doc(DOC)
        reference["cells"]["FMM/Decode/synts_offline"] = "0" * 64
        self.assertEqual(run.count_failed(DOC, reference), 1)

    def test_changed_and_missing_cells_count_as_failed(self):
        reference = run.digest_doc(DOC)
        changed = DOC.replace('"synts_offline", "theta_eq": 0.25', '"synts_offline", "theta_eq": 0.26')
        self.assertEqual(run.count_failed(changed, reference), 1)
        missing = "\n".join(line for line in DOC.splitlines() if '"nominal"' not in line)
        self.assertEqual(run.count_failed(missing, reference), 1)

    def test_header_difference_fails_every_cell(self):
        reseeded = DOC.replace('"seed": 42', '"seed": 43')
        self.assertEqual(run.count_failed(reseeded, run.digest_doc(DOC)), 2)

    def test_recorded_references_cover_every_cell(self):
        for workload in ("canonical_cold_par", "warm_eval"):
            reference = run.load_reference(workload, run.REFERENCE_SEED)
            self.assertEqual(len(reference["cells"]), run.CANONICAL_CELLS, workload)


class MetricContract(unittest.TestCase):
    def test_units_in_code_match_benchmark_json(self):
        for trace, units in ((0, run.END_TO_END_UNITS), (1, run.PER_LAYER_UNITS)):
            declared = run.declared_units(trace)
            run.validate_metrics(dict.fromkeys(declared, 1.0), units, declared)

    def test_validator_rejects_unknown_names_and_units(self):
        declared = run.declared_units(0)
        values = dict.fromkeys(declared, 1.0)
        with self.assertRaises(run.BenchError):
            run.validate_metrics({**values, "made_up_s": 1.0}, run.END_TO_END_UNITS, declared)
        with self.assertRaises(run.BenchError):
            run.validate_metrics(values, {**run.END_TO_END_UNITS, "cpu_s": "ms"}, declared)


def bench(workload, seconds, trace, env=None):
    """Runs the benchmark; returns (exit code, parsed last stdout line)."""
    out = subprocess.run(
        [sys.executable, str(BENCH / "run.py"), "--workload", workload, "--seed", "42",
         "--seconds", str(seconds), "--trace", str(trace)],
        cwd=ROOT, capture_output=True, text=True, env={**os.environ, **(env or {})})
    lines = out.stdout.strip().splitlines()
    return out.returncode, json.loads(lines[-1]) if lines else None


class Integration(unittest.TestCase):
    def assert_matches_benchmark_json(self, result, trace):
        declared = run.declared_units(trace)
        printed = {name: m["unit"] for name, m in result["metrics"].items()}
        self.assertEqual(printed, declared)
        for name, metric in result["metrics"].items():
            self.assertIsInstance(metric["value"], (int, float), name)

    def test_printed_metrics_match_benchmark_json(self):
        for trace in (0, 1):
            code, result = bench("warm_eval", 1, trace)
            self.assertEqual(code, 0)
            self.assertTrue(result["correct"])
            self.assertGreater(result["attempted"], 0)
            self.assert_matches_benchmark_json(result, trace)

    def test_warm_eval_that_recharacterizes_is_rejected(self):
        code, result = bench("warm_eval", 1, 0, {"PERFBENCH_FAULT": "recharacterize"})
        self.assertEqual(code, 0)
        self.assertFalse(result["correct"])
        self.assertEqual(result["failed"], 0)

    def test_doctored_reference_fails_a_real_run(self):
        doctored = run.build_dir().parent / "perfbench-test-reference"
        shutil.rmtree(doctored, ignore_errors=True)
        shutil.copytree(BENCH / "reference", doctored)
        try:
            path = doctored / "warm_eval_seed42.json"
            reference = json.loads(path.read_text())
            key = sorted(reference["cells"])[0]
            reference["cells"][key] = "0" * 64
            path.write_text(json.dumps(reference))
            code, result = bench("warm_eval", 1, 0, {"PERFBENCH_REFERENCE_DIR": str(doctored)})
        finally:
            shutil.rmtree(doctored, ignore_errors=True)
        self.assertEqual(code, 0)
        self.assertFalse(result["correct"])
        self.assertGreater(result["failed"], 0)
        self.assertEqual(result["failed"] * run.CANONICAL_CELLS, result["attempted"])


if __name__ == "__main__":
    unittest.main()
