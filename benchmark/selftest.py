#!/usr/bin/env python3
"""Self-test of the benchmark: tiny runs of every workload plus negative cases.

    python3 benchmark/selftest.py

The smoke cases run each workload at toy sizes, untraced and traced, and
check the result shape against BENCHMARK.json.  The negative cases corrupt
the program's output on its way to disk (one flipped syndrome, eta or a
sweep row off by 1e-6) and assert that the benchmark counts every
affected operation as failed.  One more case checks that the eta band
``braid-pipeline`` leaves out still fails the check on the program.
"""

from __future__ import annotations

import json
import math
import os
import shutil
import subprocess
import sys
import tempfile
import unittest
from pathlib import Path

import run
from workloads import BraidPipeline, ErrorStudy, Record, ToricScale, WORKLOADS

sys.path.insert(0, str(run.SRC))

from anyonlab import report, tableau  # noqa: E402

SPEC = json.loads((run.ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))


class _WorkDir(unittest.TestCase):
    def setUp(self):
        self.work = run.WORK_ROOT / f"selftest-{os.getpid()}"
        self.work.mkdir(parents=True, exist_ok=True)
        self.addCleanup(shutil.rmtree, self.work, True)


class TestSpec(unittest.TestCase):
    def test_benchmark_json_matches_the_runner(self):
        self.assertEqual([w["name"] for w in SPEC["workloads"]], list(WORKLOADS))
        self.assertEqual({m["name"]: m["unit"] for m in SPEC["end_to_end"]},
                         run.END_TO_END_UNITS)
        self.assertEqual({m["name"]: m["unit"] for m in SPEC["per_layer"]},
                         run.PER_LAYER_UNITS)


class TestSmoke(_WorkDir):
    def test_untraced(self):
        for cls in WORKLOADS.values():
            with self.subTest(workload=cls.name):
                workload = cls(1, self.work, tiny=True)
                metrics, detail, records = run.untraced_run(workload, 0.01, self.work)
                self.assertEqual(sum(r.failed for r in records), 0,
                                 [p for r in records for p in r.problems])
                self.assertEqual(set(metrics), set(run.END_TO_END_UNITS))
                self.assertTrue(all(v > 0 for v in metrics.values()), metrics)
                self.assertEqual(detail["error_rate"], 0)

    def test_traced_counts_repeat_and_layers_stay_apart(self):
        for cls in WORKLOADS.values():
            with self.subTest(workload=cls.name):
                runs = []
                for seed in (1, 1, 2):
                    workload = cls(seed, self.work, tiny=True)
                    metrics, _, records = run.traced_run(workload, 0.01, self.work)
                    self.assertEqual(sum(r.failed for r in records), 0,
                                     [p for r in records for p in r.problems])
                    self.assertEqual(set(metrics), set(run.PER_LAYER_UNITS))
                    runs.append(metrics)
                counts = [{k: v for k, v in m.items() if k.endswith(".calls")} for m in runs]
                self.assertEqual(counts[0], counts[1])
                self.assertEqual(counts[0], counts[2])
                self.assertEqual(runs[0]["report.bytes_written"],
                                 runs[1]["report.bytes_written"])
                self.assertEqual(counts[0]["tableau.apply_gate.calls"], 0)
                if cls is not BraidPipeline:
                    self.assertEqual(counts[0]["dense.apply_gate.calls"], 0)
                    self.assertEqual(counts[0]["anyon.run_experiment.calls"], 0)
                else:
                    self.assertEqual(counts[0]["tableau.measure.calls"], 0)
        self.assertTrue((run.WORK_ROOT / "spans-braid-pipeline.tsv").is_file())


class TestNegative(_WorkDir):
    """Corrupted outputs must be counted as failed operations."""

    def patch(self, owner, name, replacement):
        original = getattr(owner, name)
        setattr(owner, name, replacement(original))
        self.addCleanup(setattr, owner, name, original)

    def run_pass(self, workload) -> Record:
        workload.setup(Record())
        rec = Record()
        workload.run_pass(rec, 0)
        return rec

    def test_flipped_toric_syndrome(self):
        def corrupt(write_report):
            def wrapper(path, obj):
                if "syndromes" in obj:
                    obj["syndromes"][0]["value"] *= -1
                return write_report(path, obj)
            return wrapper

        self.patch(report, "write_report", corrupt)
        rec = self.run_pass(ToricScale(1, self.work, tiny=True))
        toric_calls = sum(len(v) for k, v in rec.times.items() if k.startswith("toric."))
        self.assertEqual(rec.failed, toric_calls)
        self.assertGreater(toric_calls, 0)

    def test_flipped_sweep_value_in_error_study(self):
        def corrupt(sweep):
            def wrapper(t, model):
                out = sweep(t, model)
                gid, value = out[0]
                return [(gid, -value)] + out[1:]
            return wrapper

        workload = ErrorStudy(1, self.work, tiny=True)
        workload.setup(Record())
        self.patch(tableau, "syndrome_sweep", corrupt)
        rec = Record()
        workload.run_pass(rec, 0)
        self.assertEqual(rec.failed, rec.attempted)
        self.assertEqual(rec.attempted, workload.MAX_WEIGHT)

    def test_eta_off_by_1e6(self):
        def corrupt_report(write_report):
            def wrapper(path, obj):
                if "phase" in obj:
                    obj["phase"]["eta"] += 1e-6
                return write_report(path, obj)
            return wrapper

        def corrupt_csv(write_text):
            def wrapper(path, text):
                lines = text.splitlines(keepends=True)
                if lines and lines[0].startswith("eta_injected"):
                    cells = lines[1].split(",")
                    cells[2] = repr(float(cells[2]) + 1e-6)
                    lines[1] = ",".join(cells)
                return write_text(path, "".join(lines))
            return wrapper

        self.patch(report, "write_report", corrupt_report)
        self.patch(report, "write_text", corrupt_csv)
        workload = BraidPipeline(1, self.work, tiny=True)
        workload.setup(Record())
        rec = Record()
        workload.run_pass(rec, 0)
        expected = (workload.BRAID_CALLS        # eta off in every in-process report
                    + math.ceil(workload.ETA_POINTS / workload.SWEEP_ETAS)  # a row per sweep
                    + workload.COLD_CALLS)      # cold bytes differ from the corrupted ones
        self.assertEqual(rec.failed, expected, rec.problems)


class TestUnresolvedEta(_WorkDir):
    """The eta band that braid-pipeline leaves out is still a program defect."""

    def test_band_is_left_out_and_still_fails_the_check(self):
        workload = BraidPipeline(1, self.work, tiny=True)
        workload.setup(Record())
        admix = 0.3
        inside = round(-math.atan(admix) + 2.6e-5, 6)
        for eta in workload.etas + [e for e, _ in workload.configs]:
            for a in workload.ADMIXES:
                self.assertGreaterEqual(abs(eta + math.atan(a)), workload.UNRESOLVED_ETA)
        rec = Record()
        workload._sweep(rec, [inside], [admix], "sweep")
        self.assertEqual(rec.failed, 1, "the program now recovers eta near -atan(admix): "
                         "drop BraidPipeline.UNRESOLVED_ETA")


class TestMissingProgram(unittest.TestCase):
    def test_refuses_without_sources(self):
        """Run from a copy holding only the benchmark: exit non-zero, print no result."""
        with tempfile.TemporaryDirectory(dir=run.WORK_ROOT) as tmp:
            shutil.copytree(Path(run.__file__).parent, Path(tmp) / "benchmark",
                            ignore=shutil.ignore_patterns("__pycache__"))
            proc = subprocess.run([sys.executable, "benchmark/run.py", "--workload",
                                   "toric-scale", "--seed", "1", "--seconds", "1"],
                                  cwd=tmp, capture_output=True, text=True, timeout=60)
        self.assertNotEqual(proc.returncode, 0)
        self.assertEqual(proc.stdout, "")


if __name__ == "__main__":
    run.WORK_ROOT.mkdir(exist_ok=True)
    unittest.main()
