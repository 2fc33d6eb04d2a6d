#!/usr/bin/env python3
"""Tests of the benchmark's correctness gate: a tampered result is caught.

    python3 dashbench/test_gate.py

Builds the benchmark like run.py does (into .bench_build/), runs one
small real three-party scan against a generated fixture, and checks that
the gate passes the genuine result and fails every tampered variant:
a party whose checksum differs, a checksum that differs from earlier
runs, a result value off from the plaintext reference, and a service
job whose checksum differs between daemons or from --simulate-job."""

import os
import shutil
import sys
import tempfile
import unittest

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))
import run  # noqa: E402

SHAPE = {"samples": 400, "variants": 60}


class BatchGateTest(unittest.TestCase):
    @classmethod
    def setUpClass(cls):
        run.build()
        os.makedirs(run.CACHE_DIR, exist_ok=True)
        cls.meta = run.fixture("gate_test", SHAPE, seed=5)
        cls.tmp = tempfile.mkdtemp(dir=run.BUILD_ROOT)
        cls.csv = os.path.join(cls.tmp, "party0.csv")
        cls.scan = run.launch_scan(cls.meta, run.dash_party_argv(cls.csv))

    @classmethod
    def tearDownClass(cls):
        shutil.rmtree(cls.tmp, ignore_errors=True)

    def check(self, csv_path):
        return run.tool("check", "--ref",
                        os.path.join(self.meta["folder"], "ref.bin"),
                        "--csv", csv_path, "--rtol", run.RTOL)

    def test_genuine_scan_passes(self):
        ok, checksum, reason = run.gate_scan(self.scan["outputs"], None)
        self.assertTrue(ok, reason)
        ok, _, reason = run.gate_scan(self.scan["outputs"], checksum)
        self.assertTrue(ok, reason)
        self.assertTrue(self.check(self.csv)["ok"])

    def test_party_disagreement_is_caught(self):
        outputs = list(self.scan["outputs"])
        code, text = outputs[2]
        found = run.CHECKSUM_RE.search(text).group(1)
        flipped = ("0" if found[0] != "0" else "1") + found[1:]
        outputs[2] = (code, text.replace(found, flipped))
        ok, _, reason = run.gate_scan(outputs, None)
        self.assertFalse(ok)
        self.assertIn("disagree", reason)

    def test_checksum_change_across_runs_is_caught(self):
        ok, _, reason = run.gate_scan(self.scan["outputs"], "0" * 16)
        self.assertFalse(ok)
        self.assertIn("expected", reason)

    def test_failed_party_is_caught(self):
        outputs = list(self.scan["outputs"])
        outputs[1] = (1, outputs[1][1])
        self.assertFalse(run.gate_scan(outputs, None)[0])

    def test_tampered_value_fails_reference_check(self):
        with open(self.csv) as f:
            lines = f.read().splitlines()
        fields = lines[7].split(",")
        fields[1] = repr(float(fields[1]) * (1 + 1e-4))  # beta of variant 6
        lines[7] = ",".join(fields)
        tampered = os.path.join(self.tmp, "tampered.csv")
        with open(tampered, "w") as f:
            f.write("\n".join(lines) + "\n")
        result = self.check(tampered)
        self.assertFalse(result["ok"])
        self.assertEqual(result["worst_row"], 6)

    def test_truncated_result_fails_reference_check(self):
        with open(self.csv) as f:
            lines = f.read().splitlines()
        truncated = os.path.join(self.tmp, "truncated.csv")
        with open(truncated, "w") as f:
            f.write("\n".join(lines[:-1]) + "\n")
        self.assertFalse(self.check(truncated)["ok"])


class EarlierRunsTest(unittest.TestCase):
    def test_checksum_differing_from_earlier_run_is_caught(self):
        os.makedirs(run.BUILD_ROOT, exist_ok=True)
        folder = tempfile.mkdtemp(dir=run.BUILD_ROOT)
        try:
            first = run.remember_checksum(folder, "service-s1", "111")
            self.assertEqual(first, "111")
            # A later run that gets another value sees the first one.
            later = run.remember_checksum(folder, "service-s1", "222")
            self.assertNotEqual(later, "222")
        finally:
            shutil.rmtree(folder, ignore_errors=True)


class JobGateTest(unittest.TestCase):
    DONE = {"state": "done", "checksum": "12345"}

    def test_agreeing_job_passes(self):
        self.assertTrue(run.gate_job([self.DONE] * 3, "12345")[0])

    def test_daemon_disagreement_is_caught(self):
        statuses = [self.DONE, self.DONE, dict(self.DONE, checksum="12346")]
        self.assertFalse(run.gate_job(statuses, "12345")[0])

    def test_simulator_mismatch_is_caught(self):
        self.assertFalse(run.gate_job([self.DONE] * 3, "99999")[0])

    def test_unfinished_job_is_caught(self):
        statuses = [self.DONE, {"state": "failed"}, self.DONE]
        self.assertFalse(run.gate_job(statuses, "12345")[0])


if __name__ == "__main__":
    unittest.main()
