"""Tests of the benchmark itself.

    python3 perfbench/selftest.py [-v]

Run from the root of a source checkout.  The last test runs every
workload traced twice, which takes a few minutes.
"""

from __future__ import annotations

import json
import os
import subprocess
import sys
import unittest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, os.path.join(ROOT, "src"))

import gauge  # noqa: E402
import metrics  # noqa: E402
import workloads  # noqa: E402
from tracer import Tracer, layer_targets  # noqa: E402


def _bindings():
    """Every attribute of every adiaspec module and of DiscriminantModel."""
    import adiaspec.hill

    owners = [m for n, m in sorted(sys.modules.items())
              if n == "adiaspec" or n.startswith("adiaspec.")]
    owners.append(adiaspec.hill.DiscriminantModel)
    return {(repr(o), k): v for o in owners for k, v in list(vars(o).items())}


class TracerTest(unittest.TestCase):
    def test_wrappers_restore_originals(self):
        from adiaspec import _ode, geometry, hill

        before = _bindings()
        tracer = Tracer()
        tracer.install(layer_targets())
        try:
            self.assertIsNot(_ode.propagate, before[(repr(_ode), "propagate")])
            self.assertIs(geometry.discriminant, hill.discriminant)
            V = hill.PeriodicPotential.trig([(1, 2.0, 0.0)])
            hill.DiscriminantModel(V, 0.0, 1.0, degree=4)(0.5)
        finally:
            tracer.restore()
        after = _bindings()
        changed = [k for k in before if after.get(k) is not before[k]]
        self.assertEqual(changed, [])
        names = [s[2] for s in tracer.spans]
        self.assertEqual(names.count("hill.DiscriminantModel.build"), 1)
        self.assertEqual(names.count("hill.discriminant"), 5)
        self.assertEqual(names.count("ode.propagate"), 5)

    def test_self_time_and_nesting(self):
        spans = [
            [0, -1, "geometry.real_branch", 0.0, 10.0, None],
            [1, 0, "hill.DiscriminantModel.build", 1.0, 4.0, None],
            [2, 1, "hill.discriminant", 1.0, 2.0, None],
            [3, 2, "ode.propagate", 1.0, 2.0, {"complex": False, "steps": 7}],
            [4, 0, "hill.DiscriminantModel.eval", 5.0, 6.0, {"n": 3}],
            [5, -1, "geometry.window", 11.0, 12.0, None],
            [6, 5, "geometry.window", 11.0, 11.5, None],
        ]
        rep = {"import_s": 1.0, "load_config_s": 0.5, "spans": spans}
        m = metrics.layer_metrics([rep])
        self.assertEqual(m["geometry.real_branch.s"], 10.0)
        self.assertEqual(m["geometry.real_branch.self_s"], 6.0)
        self.assertEqual(m["hill.DiscriminantModel.nodes"], 1.0)
        self.assertEqual(m["hill.DiscriminantModel.evals_per_node"], 3.0)
        self.assertEqual(m["ode.real.steps"], 7.0)
        self.assertEqual(m["geometry.window.s"], 1.0)
        self.assertEqual(m["cli.import_s"], 1.0)


class GaugeTest(unittest.TestCase):
    def test_rounds_run_during_work_and_handler_is_restored(self):
        import signal
        import time

        before = signal.getsignal(signal.SIGPROF)
        g = gauge.Gauge()
        g.start()
        try:
            ticks = [g.clock()]
            end = time.process_time() + 4 * gauge.PERIOD_S
            while time.process_time() < end:
                ticks.append(g.clock())
        finally:
            g.stop()
        self.assertIs(signal.getsignal(signal.SIGPROF), before)
        self.assertEqual(signal.getitimer(signal.ITIMER_PROF), (0.0, 0.0))
        self.assertGreaterEqual(len(g.samples), 3)
        self.assertEqual(ticks, sorted(ticks))

    def test_clock_stands_still_during_a_round(self):
        g = gauge.Gauge()
        g.round()
        nominal, last, speed = g._state
        g.round()
        start = g._state[1] - g.samples[-1]
        self.assertAlmostEqual(g._state[0], nominal + (start - last) * speed)
        self.assertAlmostEqual(g._state[2], gauge.NOMINAL_S / g.samples[-1])


class InputsTest(unittest.TestCase):
    def test_default_seed_is_the_reference_experiment(self):
        with open(os.path.join(ROOT, "configs", "reference.ini")) as fh:
            shipped = fh.read()
        self.assertEqual(workloads.reference_text(), shipped)
        ini = workloads.generate("verify", workloads.DEFAULT_SEED)["ini"]["verify.ini"]
        self.assertEqual(workloads._set(ini, "periods", 400), shipped)
        ini = workloads.generate("cocycle", workloads.DEFAULT_SEED)["ini"]["cocycle.ini"]
        self.assertEqual(ini.split("[model]")[1], shipped.split("[model]")[1].replace(
            "N = 20000", f"N = {workloads.COCYCLE_N}"))

    def test_inputs_follow_the_seed(self):
        for name in workloads.WORKLOADS:
            self.assertEqual(workloads.generate(name, 3), workloads.generate(name, 3))
            self.assertNotEqual(workloads.generate(name, 3), workloads.generate(name, 4))


class BenchmarkJsonTest(unittest.TestCase):
    def test_metric_names_match(self):
        with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
            bench = json.load(fh)
        self.assertEqual([(m["name"], m["unit"], m["better"], m["bound"])
                          for m in bench["end_to_end"]], metrics.END_TO_END)
        self.assertEqual([(m["name"], m["unit"], m["better"])
                          for m in bench["per_layer"]], metrics.PER_LAYER)
        self.assertEqual(tuple(w["name"] for w in bench["workloads"]),
                         workloads.WORKLOADS)


def _run(workload: str, seed: int, trace: int) -> dict:
    proc = subprocess.run(
        [sys.executable, os.path.join(HERE, "run.py"), "--workload", workload,
         "--seed", str(seed), "--seconds", "1", "--trace", str(trace)],
        cwd=ROOT, capture_output=True, text=True, timeout=400, check=True)
    return json.loads(proc.stdout.strip().splitlines()[-1])


class TracedRunTest(unittest.TestCase):
    def test_counts_repeat_across_traced_runs(self):
        exact = [name for name, unit, _ in metrics.PER_LAYER
                 if unit in metrics.EXACT_UNITS]
        for workload in workloads.WORKLOADS:
            with self.subTest(workload=workload):
                first, second = _run(workload, 5, 1), _run(workload, 5, 1)
                self.assertTrue(first["correct"] and second["correct"])
                self.assertEqual(
                    sorted(first["metrics"]), sorted(n for n, _, _ in metrics.PER_LAYER))
                for name in exact:
                    self.assertEqual(first["metrics"][name], second["metrics"][name], name)


if __name__ == "__main__":
    unittest.main()
