#!/usr/bin/env python3
"""Self-tests of the benchmark harness: tracer counts, reference closed forms,
and that every output check rejects a perturbed copy of a correct output.

Run from the root of a checkout (under a minute):

    python3 perfbench/selftest.py
"""
from __future__ import annotations

import json
import math
import re
import shutil
import sys
import time
import unittest
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(Path.cwd() / "src"))
sys.path.insert(0, str(HERE))

import numpy as np  # noqa: E402

import ftdiff  # noqa: E402
import reference as ref  # noqa: E402
import run as bench  # noqa: E402
import workloads  # noqa: E402
from tracer import Tracer, layer_metrics  # noqa: E402


class TracerCounts(unittest.TestCase):
    def setUp(self):
        self.tracer = Tracer()
        self.tracer.install()
        self.addCleanup(self.tracer.uninstall)

    def test_known_counts(self):
        from ftdiff import _quad, dgf, sim

        # Simpson is exact on a cubic: f(a), f(m), f(b), then one split of
        # two more points is accepted at once.
        self.assertEqual(_quad.adaptive_simpson(lambda x: x ** 3, 0.0, 1.0, 1e-9), 0.25)
        _quad.golden_max(lambda x: -(x - 0.3) ** 2, 0.0, 1.0, iters=10)
        ured = ftdiff.builtin_dgf("ured")
        dgf.nu2(ured, 1.0, 0.5)
        kappa = ftdiff.ParamTriple(6.0, 4.5, 4.182)
        cfg = ftdiff.SimConfig(Ts=1e-3, horizon=0.01)
        res = sim.run(ured, kappa, ftdiff.SlopeSignal(1.0, 1.0), cfg)
        sim.result_to_csv(res)
        rows = sim.sweep_slopes(ured, kappa, 1.0, [-1.0, 0.0, 1.0], cfg)
        m = layer_metrics(self.tracer)
        self.assertEqual(m["quad.simpson.calls"], 1)
        self.assertEqual(m["quad.simpson.evals"], 5)
        self.assertEqual(m["quad.golden.calls"], 1)
        self.assertEqual(m["quad.golden.probes"], 12)
        self.assertEqual(m["sim.run.calls"], 4)
        self.assertEqual(m["sim.steps"], 4 * 11)
        self.assertEqual(m["sim.sweep.calls"], 1)
        self.assertEqual(m["sim.sweep_rows"], len(rows))
        self.assertEqual(m["sim.export.calls"], 1)
        self.assertEqual(m["sim.export_rows"], 11)
        # nu2 evaluates phi and phi' once. Each of the 4 runs takes 11 Euler
        # steps; a step evaluates phi for nu1 and phi, phi' for nu2, except
        # the first, where the error is exactly zero and nu2 is skipped.
        self.assertEqual(m["dgf.phi.evals"], 1 + 4 * (1 + 10 * 2))
        self.assertEqual(m["dgf.phi_prime.evals"], 1 + 4 * 10)
        names = {s[0]: s[2] for s in self.tracer.spans}
        parents = sorted(names.get(s[1], "") for s in self.tracer.spans if s[2] == "sim.run")
        self.assertEqual(parents, ["", "sim.sweep", "sim.sweep", "sim.sweep"])
        self.assertGreaterEqual(self.tracer.totals()["sim.sweep"][3], 0.0)

    def test_self_time_excludes_children(self):
        inner = self.tracer._wrap("t.inner", True, lambda *a: 1, lambda: time.sleep(0.03))

        def outer_body():
            time.sleep(0.02)
            inner()

        outer = self.tracer._wrap("t.outer", True, lambda *a: 1, outer_body)
        outer()
        tot = self.tracer.totals()
        self.assertAlmostEqual(tot["t.outer"][3], 0.02, delta=0.01)
        self.assertAlmostEqual(tot["t.inner"][3], 0.03, delta=0.01)
        self.assertAlmostEqual(tot["t.outer"][2], 0.05, delta=0.015)

    def test_wrapped_generating_function_is_cached_and_counted(self):
        a, b = ftdiff.builtin_dgf("exp"), ftdiff.builtin_dgf("exp")
        self.assertIs(a, b)
        self.assertIs(self.tracer.wrap_dgf(a), a)
        d = ftdiff.GeneratingFunction(name="array", phi=np.tanh, phi_prime=np.tanh, phi_second=np.tanh)
        w = self.tracer.wrap_dgf(d)
        self.assertIs(self.tracer.wrap_dgf(d), w)
        w.phi(np.array([1.0, 2.0, 3.0]))  # an array counts its points
        w.phi(0.5)
        self.assertEqual(layer_metrics(self.tracer)["dgf.phi.evals"], 4)

    def test_uninstall_restores(self):
        from ftdiff import cli, convtime

        self.assertTrue(hasattr(cli.t0_exact, "__wrapped__"))
        self.tracer.uninstall()
        self.assertFalse(hasattr(cli.t0_exact, "__wrapped__"))
        self.assertIs(cli.t0_exact, convtime.t0_exact)


class ReferenceClosedForms(unittest.TestCase):
    def test_inverse_slope_matches_phi_prime(self):
        for name in ("ured", "exp"):
            for x in (1e-8, 1e-3, 0.7, 5.0, 300.0):
                w = ref.phi(name, x)
                got = float(ref.inverse_slope(name, np.array([w]))[0])
                self.assertAlmostEqual(got * ref.phi_prime(name, x), 1.0, delta=1e-10, msg=(name, x))

    def test_response_matches_matrix_exponential(self):
        def expm(a, t):
            m = a * t / 2 ** 12
            e, term = np.eye(2), np.eye(2)
            for k in range(1, 20):
                term = term @ m / k
                e = e + term
            for _ in range(12):
                e = e @ e
            return e

        for k1, k2 in ((5.0, 1.0), (6.0, 4.5), (2.0, 1.0)):
            a = np.array([[-0.5 * k1, 0.5], [-k2, 0.0]])
            resp = ref.Response(k1, k2, (0.3, -1.2))
            for t in (0.0, 0.4, 3.0):
                want = (expm(a, t) @ np.array([0.3, -1.2]))[0]
                self.assertAlmostEqual(float(resp.h(t)), want, delta=1e-9, msg=(k1, k2, t))

    def test_single_exponential_limit(self):
        # integral_0^inf Psi'(c e^(lam t)) dt -> B / (k3 |lam|) as c -> inf
        for name in ("ured", "exp"):
            got = ref.single_exp_integral(name, 2.0, -1.3, 1e30)
            self.assertAlmostEqual(got, math.pi / (2.0 * 1.3), delta=1e-8, msg=name)

    def test_lbar_both_branches(self):
        for k1, k2 in ((6.0, 4.5), (5.0, 1.0), (1.5, 1.0), (3.0, 2.0)):
            self.assertAlmostEqual(ref.lbar_integral(k1, k2, 1.0) / ref.lbar(k1, k2, 1.0), 1.0,
                                   delta=1e-10, msg=(k1, k2))

    def test_tuning_rule(self):
        k1, k2, _ = ref.tuned_gains("ured")
        self.assertAlmostEqual(k1, 6.0, delta=1e-12)
        self.assertEqual(k2, 4.5)
        self.assertAlmostEqual(ref.tuned_gains("ured")[2], 4.182, delta=5e-4)
        self.assertAlmostEqual(ref.tuned_gains("exp")[2], 4.303, delta=5e-4)


def _outputs(wl):
    return [wl.collect(op, wl.run_op(op)) for op in wl.ops]


class ChecksRejectPerturbedOutputs(unittest.TestCase):
    scratch = Path.cwd() / ".perfbench" / "selftest"

    def assert_rejects(self, wl, outputs, i, perturbed):
        bad = list(outputs)
        bad[i] = perturbed
        self.assertTrue(wl.verify(wl.ops, bad), f"perturbed output {i} passed the checks")

    def test_pointwise(self):
        wl = workloads.Pointwise(self.scratch)
        wl.setup(5)
        wl.ops = [op for kind in ("ured", "exp", "custom")
                  for op in [o for o in wl.ops if o.kind == kind][:3]]
        outs = _outputs(wl)
        self.assertEqual(wl.verify(wl.ops, outs), [])
        for i, (t0, lb, tp, consts) in enumerate(outs):
            self.assert_rejects(wl, outs, i, (t0 * (1 + 1e-4) + 1e-5, lb, tp, consts))
            self.assert_rejects(wl, outs, i, (t0, lb * 1.001, tp, consts))
            self.assert_rejects(wl, outs, i, (t0, lb, tp * 1.001, consts))
        custom = next(i for i, op in enumerate(wl.ops) if op.kind == "custom")
        t0, lb, tp, (B, C, D) = outs[custom]
        self.assert_rejects(wl, outs, custom, (t0, lb, tp, (B * 1.001, C, D)))

    def test_worstcase(self):
        wl = workloads.Worstcase(self.scratch)
        wl.setup(5)
        wl.ops = [op for op in wl.ops if op.args[0] in (5.0, math.sqrt(8.0))]
        outs = _outputs(wl)
        self.assertEqual(wl.verify(wl.ops, outs), [])

        def edit(text, key, factor):
            doc = json.loads(text)
            doc[key] *= factor
            return json.dumps(doc)

        for i, (rc, text) in enumerate(outs):
            self.assert_rejects(wl, outs, i, (rc, edit(text, "numeric_supremum", 1.001)))
            self.assert_rejects(wl, outs, i, (rc, edit(text, "lower_bound", 1.001)))
            self.assert_rejects(wl, outs, i, (rc, edit(text, "upper_bound", 0.999)))
            self.assert_rejects(wl, outs, i, (3, text))
            self.assertNotEqual(wl.fingerprint((rc, text.replace("1", "2", 1))), wl.fingerprint((rc, text)))

    def test_simulate(self):
        wl = workloads.Simulate(self.scratch)
        wl.setup(5)
        wl.ops = [next(op for op in wl.ops if op.kind == kind) for kind in ("slope", "fig1", "fig3", "fig2")]
        outs = _outputs(wl)
        self.assertEqual(wl.verify(wl.ops, outs), [])

        def edit(i, name, old, new):
            rc, digests, d = outs[i]
            copy = self.scratch / "perturbed" / d.name
            shutil.rmtree(copy, ignore_errors=True)
            shutil.copytree(d, copy)
            text = (copy / name).read_text()
            self.assertIn(old, text)
            (copy / name).write_text(text.replace(old, new, 1))
            return rc, digests, copy

        for i, (op, (rc, digests, d)) in enumerate(zip(wl.ops, outs)):
            if op.kind == "slope":
                line = (d / "sim.csv").read_text().splitlines()[500]
                y1 = line.split(",")[3]
                self.assert_rejects(wl, outs, i, edit(i, "sim.csv", line, line.replace(
                    y1, repr(float(y1) * (1 + 1e-5) + 1e-8), 1)))
                tau = json.loads((d / "sim.manifest.json").read_text())["config"]["tau"]
                self.assert_rejects(wl, outs, i, edit(i, "sim.manifest.json",
                                                      f'"tau": {tau!r}', '"tau": 0.5'))
            elif op.kind == "fig1":
                self.assert_rejects(wl, outs, i, edit(i, "fig1.manifest.json",
                                                      '"kappa": [', '"kappa": [6.5, '))
            elif op.kind == "fig3":
                row = (d / "fig3.csv").read_text().splitlines()[3]
                c, tau, div = row.split(",")
                self.assert_rejects(wl, outs, i, edit(i, "fig3.csv", row, f"{c},1.0001,{div}"))
                self.assert_rejects(wl, outs, i, edit(i, "fig3.csv", row, f"{c},{tau},1"))
            else:
                row = (d / "fig2.csv").read_text().splitlines()[1]
                fields = row.split(",")
                self.assert_rejects(wl, outs, i, edit(i, "fig2.csv", row, ",".join(
                    fields[:1] + ["0.0013"] + fields[2:])))
                self.assert_rejects(wl, outs, i, edit(i, "fig2.csv", row, ",".join(
                    fields[:3] + ["1", fields[4]])))
            self.assert_rejects(wl, outs, i, (3, digests, d))
            csv = f"{'sim' if op.kind == 'slope' else op.kind}.csv"
            copy = edit(i, csv, "\n", "\n\n")[2]  # a blank line: same numbers, other bytes
            moved = workloads.Op(op.kind, (op.args[0], str(copy)))
            self.assertNotEqual(wl.fingerprint(wl.collect(moved, rc)), wl.fingerprint(outs[i]))


class MetricNames(unittest.TestCase):
    def test_benchmark_json_matches_harness(self):
        spec = json.loads((HERE.parent / "BENCHMARK.json").read_text())
        self.assertEqual({m["name"]: m["unit"] for m in spec["end_to_end"]}, bench.END_TO_END)
        self.assertEqual({m["name"]: m["unit"] for m in spec["per_layer"]}, bench.PER_LAYER)
        self.assertEqual({w["name"] for w in spec["workloads"]}, set(workloads.WORKLOADS))
        self.assertTrue(all(re.fullmatch(r"[A-Za-z0-9][A-Za-z0-9_.-]{0,63}", n) for n in bench.PER_LAYER))


if __name__ == "__main__":
    unittest.main()
