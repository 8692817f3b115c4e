"""Self-tests of the benchmark itself: seeds, output checks, and the tracer.

Run from the root of a checkout (about half a minute):

    python3 perfbench/selftest.py
"""

from __future__ import annotations

import copy
import json
import os
import shutil
import sys
import unittest
from collections import Counter
from pathlib import Path

os.environ.setdefault("OPENBLAS_NUM_THREADS", "1")
os.environ.setdefault("OMP_NUM_THREADS", "1")

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path[:0] = [str(HERE), str(ROOT / "src")]

import child  # noqa: E402
import spans  # noqa: E402
import workloads as wl  # noqa: E402

WORKDIR = ROOT / ".perfbench-work" / "selftest"


def setUpModule():
    shutil.rmtree(WORKDIR, ignore_errors=True)
    WORKDIR.mkdir(parents=True)


def tearDownModule():
    shutil.rmtree(WORKDIR, ignore_errors=True)


def ok_frac(ops, outputs) -> float:
    return 1.0 - len(child.check_pass(ops, outputs)) / len(ops)


class SeedTest(unittest.TestCase):
    def test_same_seed_same_inputs(self):
        for name, cls in wl.WORKLOADS.items():
            with self.subTest(workload=name):
                self.assertEqual(cls(7, WORKDIR).inputs(), cls(7, WORKDIR).inputs())

    def test_seed_changes_inputs(self):
        for name in ("lossy_cat4", "crossover"):
            cls = wl.WORKLOADS[name]
            with self.subTest(workload=name):
                self.assertNotEqual(cls(1, WORKDIR).inputs(), cls(2, WORKDIR).inputs())

    def test_lossy_draw_stays_in_range(self):
        for seed in range(50):
            alpha, ratio, t = wl.LossyCat4(seed, WORKDIR).inputs()
            self.assertTrue(0.6 <= alpha <= 1.3)
            self.assertIn(ratio, (0.25, 0.5))
            self.assertEqual(t, 0.9)


class ReproduceCheckTest(unittest.TestCase):
    @classmethod
    def setUpClass(cls):
        path = WORKDIR / "fig1.json"
        argv = ["sweep", "--figure", "fig1", "--format", "json", "--out", str(path)]
        cls.out = wl.run_cli(argv)
        cls.records = json.loads(path.read_text(encoding="utf-8"))

    def test_real_output_passes(self):
        self.assertEqual(self.out.exit_code, 0)
        self.assertEqual(wl.check_sweep_rows(self.records, "fig1", self.out.stderr), [])

    def test_perturbed_qfi_fails(self):
        records = copy.deepcopy(self.records)
        row = next(r for r in records if r["path"] == "numeric" and r["qfi"] > 0.1)
        row["qfi"] *= 1 + 1e-7
        self.assertTrue(wl.check_sweep_rows(records, "fig1", self.out.stderr))

    def test_dropped_row_fails(self):
        self.assertTrue(wl.check_sweep_rows(self.records[:-1], "fig1", self.out.stderr))

    def test_aborted_row_on_stderr_fails(self):
        stderr = self.out.stderr + "sweep row aborted: ecs alpha=0.5 T=1.0: boom\n"
        self.assertTrue(wl.check_sweep_rows(self.records, "fig1", stderr))

    def test_verify_summary(self):
        good = wl.CliOutput(0, "PASS ...\n206/206 checks passed\n", "", None)
        bad = wl.CliOutput(1, "FAIL ...\n205/206 checks passed\n", "", None)
        self.assertEqual(wl.check_verify(good), [])
        self.assertTrue(wl.check_verify(bad))


class LossyCheckTest(unittest.TestCase):
    def test_reference_and_perturbation(self):
        ref = wl.cat4_reference(0.9, 0.5, 0.9)
        self.assertEqual(wl.check_lossy_point(ref, ref), [])
        self.assertTrue(wl.check_lossy_point((ref[0], ref[1] * (1 + 1e-8)), ref))
        self.assertTrue(wl.check_lossy_point((ref[0] * (1 + 1e-6), ref[1]), ref))
        self.assertTrue(wl.check_lossy_point((ref[0], float("nan")), ref))


class CrossoverCheckTest(unittest.TestCase):
    def test_pass_and_ok_frac(self):
        ops = wl.Crossover(3, WORKDIR).ops()[:2]
        _, outputs = child.run_pass(ops)
        self.assertEqual(ok_frac(ops, outputs), 1.0)

        shifted = copy.copy(outputs[0])
        payload = json.loads(shifted.stdout)
        payload["crossover_n_av"] += 1e-3
        shifted.stdout = json.dumps(payload)
        self.assertEqual(ok_frac(ops, [shifted, outputs[1]]), 0.5)

        failed = wl.CliOutput(3, "", "numeric failure: boom", None)
        self.assertEqual(ok_frac(ops, [outputs[0], failed]), 0.5)
        self.assertEqual(ok_frac(ops, [outputs[0], "Traceback ...\nValueError: boom\n"]), 0.5)


class TraceTest(unittest.TestCase):
    def test_reproduce_reaches_every_layer(self):
        ops = wl.Reproduce(1, WORKDIR).ops()
        tracer = spans.Tracer()
        with spans.installed(tracer):
            wall, outputs = child.run_pass(ops, tracer)
        self.assertEqual(child.check_pass(ops, outputs), [])
        metrics = tracer.metrics(wall, wall)
        calls = Counter(span[1] for span in tracer.spans)
        for layer in spans.LAYERS:
            with self.subTest(layer=layer):
                self.assertGreater(calls[layer], 0)
                self.assertGreater(metrics[f"{layer}.self_s"][0], 0.0)
        for name in ("channels.loss_channel.calls", "bench.numeric_point.calls", "fock.build.calls"):
            self.assertGreater(metrics[name][0], 0, name)
        self.assertGreater(metrics["trace.coverage"][0], 0.95)
        self.assertLessEqual(metrics["trace.coverage"][0], 1.0 + 1e-9)
        self.assertEqual({s[5] for s in tracer.spans}, {op.name for op in ops})

    def test_wrappers_sit_where_functions_are_looked_up(self):
        import catqfi.bench
        import catqfi.channels
        import catqfi.closed_form

        original = catqfi.channels.loss_channel
        with spans.installed(spans.Tracer()):
            self.assertIsNot(catqfi.bench.loss_channel, original)
            self.assertIs(catqfi.bench.loss_channel, catqfi.channels.loss_channel)
            self.assertTrue(hasattr(catqfi.bench.cf.fig1_moments, "__wrapped__"))
        self.assertIs(catqfi.bench.loss_channel, original)

    def test_self_time_excludes_children(self):
        tracer = spans.Tracer()
        tracer.spans = [
            ["bench.numeric_point", "bench", 0.0, 10.0, None, "r"],
            ["channels.loss_channel", "channels", 1.0, 8.0, 0, "r"],
            ["fock.cat_state", "fock", 8.5, 9.0, 0, "r"],
        ]
        self.assertEqual(tracer.self_times(), [2.5, 7.0, 0.5])
        m = tracer.metrics(10.0, 9.0)
        self.assertEqual(m["fock.build.self_s"][0], 0.5)
        self.assertEqual(m["trace.coverage"][0], 1.0)
        self.assertEqual(m["trace.overhead_s"][0], 1.0)


if __name__ == "__main__":
    unittest.main()
