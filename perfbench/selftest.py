"""Tests of the benchmark's own checks: each must reject a perturbed result.

    python3 perfbench/selftest.py        (about 10 s)

Kept out of the repository's test suite on purpose: it exercises the
benchmark, not ionctrl.
"""

from __future__ import annotations

import dataclasses
import json
import math
import os
import shutil
import subprocess
import sys
import unittest
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))
sys.path.insert(0, str(HERE))
os.environ.setdefault("OPENBLAS_NUM_THREADS", "1")

import numpy as np  # noqa: E402

import checks  # noqa: E402
import ionctrl as ic  # noqa: E402
import workloads  # noqa: E402
from tracing import Tracer  # noqa: E402


class BellCheck(unittest.TestCase):
    @classmethod
    def setUpClass(cls):
        cls.w = workloads.BellSearch(seed=7)
        # a short search whose stagnation counter triggers a restart after its
        # last generation, the one restart the history does not show
        cls.search = dataclasses.replace(cls.w.search, generations=17, restart_after=5)
        cls.tracer = Tracer("selftest")
        cls.tracer.install()
        try:
            cls.result = ic.optimize(cls.w.model, cls.w.colors, cls.w.objective, cls.search, seed=2)
        finally:
            cls.tracer.uninstall()

    def check(self, params, score, history):
        return checks.check_bell(self.w.model, self.w.colors, self.w.objective, params, score, history)

    def test_true_result_passes(self):
        self.assertEqual(self.check(*self.result), [])

    def test_wrong_score_rejected(self):
        params, score, history = self.result
        last = dataclasses.replace(history[-1], best_score=score + 1e-6)
        self.assertNotEqual(self.check(params, score + 1e-6, history[:-1] + [last]), [])

    def test_wrong_pulse_rejected(self):
        params, score, history = self.result
        moved = dataclasses.replace(params, duration=params.duration + 10.0)
        self.assertNotEqual(self.check(moved, score, history), [])

    def test_non_monotone_history_rejected(self):
        params, score, history = self.result
        dip = dataclasses.replace(history[1], best_score=history[1].best_score - 0.1)
        self.assertNotEqual(self.check(params, score, [history[0], dip] + history[2:]), [])

    def test_evaluation_count_matches_traced_count(self):
        _, _, history = self.result
        traced = self.tracer.path_calls("optimize.optimize", "dynamics.propagate")
        self.assertEqual(checks.count_evaluations(history, self.search), traced)


class AuditCheck(unittest.TestCase):
    @classmethod
    def setUpClass(cls):
        w = workloads.RwaAudit(seed=0)
        entry, schedule = w.pool["12"][0]
        cls.entry = entry
        cls.model, cls.psi0 = w.models["12"], w.psi0["12"]
        cls.schedule = schedule
        cls.exact = ic.propagate_timedep_oracle(
            cls.model, schedule, cls.psi0, dt=w.DT, check_convergence=True
        ).final
        cls.rwa = ic.propagate(cls.model, schedule, cls.psi0).final

    def test_true_result_passes(self):
        self.assertEqual(checks.check_audit(self.entry, self.exact, self.rwa), [])

    def test_unconverged_oracle_rejected(self):
        coarse = ic.propagate_timedep_oracle(
            self.model, self.schedule, self.psi0, dt=workloads.RwaAudit.DT, check_convergence=False
        ).final
        self.assertNotEqual(checks.check_audit(self.entry, coarse, self.rwa), [])

    def test_non_unit_norm_rejected(self):
        self.assertNotEqual(checks.check_audit(self.entry, self.exact, self.rwa * (1 + 1e-6)), [])

    def test_moved_rwa_state_rejected(self):
        shifted = self.rwa * np.exp(1j * 1e-3)
        self.assertNotEqual(checks.check_audit(self.entry, self.exact, shifted), [])


class ControllabilityCheck(unittest.TestCase):
    @classmethod
    def setUpClass(cls):
        cls.w = workloads.Controllability(seed=1)
        cls.op = cls.w._verdict("one_ion_14", [0.3, 2.0])

    def test_true_result_passes(self):
        self.w.check(self.op)
        self.assertEqual(self.op.failures, [])

    def test_flipped_verdict_rejected(self):
        subspace, dim, _ = self.op.payload
        expected = self.w.EXPECTED["one_ion_14"]
        self.assertNotEqual(checks.check_controllability(expected, subspace, dim, "uncontrollable"), [])

    def test_wrong_dimension_rejected(self):
        subspace, dim, verdict = self.op.payload
        expected = self.w.EXPECTED["one_ion_14"]
        self.assertNotEqual(checks.check_controllability(expected, subspace, dim - 1, verdict), [])

    def test_wrong_subspace_rejected(self):
        subspace, dim, verdict = self.op.payload
        expected = self.w.EXPECTED["one_ion_14"]
        self.assertNotEqual(checks.check_controllability(expected, None, dim, verdict), [])


class CookbookCheck(unittest.TestCase):
    @classmethod
    def setUpClass(cls):
        cls.w = workloads.Cookbook(seed=5)
        cls.w.out = workloads.WORK / "selftest-cookbook"
        (op,) = cls.w.run_pass(0)
        cls.codes = op.payload
        cls.snapshot = workloads.DATA / "cookbook"

    @classmethod
    def tearDownClass(cls):
        cls.w.close()

    def copy(self) -> Path:
        dst = workloads.WORK / "selftest-cookbook-copy"
        shutil.rmtree(dst, ignore_errors=True)
        shutil.copytree(self.w.out, dst)
        self.addCleanup(shutil.rmtree, dst, True)
        return dst

    def test_true_outputs_pass(self):
        self.assertEqual(checks.check_cookbook(self.w.out, self.snapshot, self.codes), [])

    def test_changed_csv_value_rejected(self):
        out = self.copy()
        path = out / "matelem_matelem.csv"
        lines = path.read_text().splitlines()
        row = lines[-1].split(",")
        row[-1] = repr(float(row[-1]) + 1e-8)
        lines[-1] = ",".join(row)
        path.write_text("\n".join(lines) + "\n")
        self.assertNotEqual(checks.check_cookbook(out, self.snapshot, self.codes), [])

    def test_changed_header_value_rejected(self):
        out = self.copy()
        path = out / "liealg_truncated_liealg.csv"
        path.write_text(path.read_text().replace("verdict=controllable", "verdict=uncontrollable"))
        self.assertNotEqual(checks.check_cookbook(out, self.snapshot, self.codes), [])

    def test_nonzero_exit_rejected(self):
        codes = dict(self.codes, zeros_blue_family=1)
        self.assertNotEqual(checks.check_cookbook(self.w.out, self.snapshot, codes), [])

    def test_wrong_pi_pulse_score_rejected(self):
        out = self.copy()
        path = out / "optimize_pi_optlog.csv"
        header, _ = checks.read_output(path)
        wrong = float(header["best_score"]) - 1e-6
        text = path.read_text().replace(f"best_score={header['best_score']}", f"best_score={wrong:.12e}")
        path.write_text(text)
        self.assertNotEqual(checks.check_cookbook(out, self.snapshot, self.codes), [])


class TracerAccounting(unittest.TestCase):
    def test_self_times_cover_the_wall_and_wrappers_come_off(self):
        optimize_module = sys.modules["ionctrl.optimize"]
        original = optimize_module.propagate
        tracer = Tracer("selftest")
        tracer.install()
        try:
            self.assertIsNot(optimize_module.propagate, original)
            with tracer.span("bench.pass"):
                workloads.Controllability(seed=2)._verdict("ldl_6", [0.1, 0.2])
        finally:
            tracer.uninstall()
        self.assertIs(optimize_module.propagate, original)
        total = sum(row[2] for row in tracer.stats.values())
        self.assertTrue(math.isclose(total, tracer.total_s("bench.pass"), rel_tol=1e-9))
        self.assertEqual(tracer.calls("liealg.dynamical_lie_algebra"), 1)
        self.assertEqual(tracer.counts["liealg.dimension"], 144)


class NoCheckoutExit(unittest.TestCase):
    def test_run_outside_a_checkout_fails_without_result(self):
        tmp = workloads.WORK / "selftest-bare"
        shutil.rmtree(tmp, ignore_errors=True)
        shutil.copytree(HERE, tmp / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
        shutil.copy(HERE.parent / "BENCHMARK.json", tmp)
        self.addCleanup(shutil.rmtree, tmp, True)
        cmd = json.loads((tmp / "BENCHMARK.json").read_text())["command"]
        proc = subprocess.run(
            cmd + ["--workload", "cookbook", "--seed", "1", "--seconds", "1", "--trace", "0"],
            cwd=tmp,
            capture_output=True,
            text=True,
            timeout=60,
        )
        self.assertNotEqual(proc.returncode, 0)
        self.assertEqual(proc.stdout.strip(), "")


if __name__ == "__main__":
    unittest.main()
