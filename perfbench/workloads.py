"""The benchmark's workloads: seeded operation lists, the calls, and the checks.

A workload builds a fixed list of operations from the seed (``setup``),
runs one operation at a time (``run_op``, the only timed part), turns the
raw result into the output it checks (``collect``), checks the outputs of
one whole pass against independent computations (``verify``), and reduces
an output to a fingerprint that later passes must repeat exactly.

Every call goes through module attributes (``ftdiff.t0_exact``,
``ftdiff.cli.main``) at call time, so the tracer's wrappers see them.
"""
from __future__ import annotations

import contextlib
import hashlib
import io
import json
import math
import random
from dataclasses import dataclass
from pathlib import Path
from typing import Any

import numpy as np

import reference as ref

# Reference tuned gains (T = 1, L = 1, gamma = 4.5), as the CLI's tune prints
# them; "custom" is ured written as expressions (CUSTOM_URED).
KAPPA = {"ured": (6.0, 4.5, 4.182), "exp": (6.0, 4.5, 4.303), "custom": (6.0, 4.5, 4.182)}
SAME_AS = {"ured": "ured", "exp": "exp", "custom": "ured"}

# The ured generating function written as expression strings, without an
# inverse, so that every Psi' evaluation runs the numeric root solve.
CUSTOM_URED = (
    "sign(x)*(sqrt(abs(x)) + abs(x)**1.5)",
    "0.5/sqrt(abs(x)) + 1.5*sqrt(abs(x))",
    "sign(x)*(-0.25*abs(x)**-1.5 + 0.75*abs(x)**-0.5)",
)

# Check tolerances (README, "Checks").
T0_REF_ABS, T0_REF_REL = 1e-6, 1e-6  # library t0 against the reference quadrature
CUSTOM_ABS, CUSTOM_REL = 1e-7, 1e-6  # custom-expression ured against built-in ured
SCALING_REL = 1e-5  # gain/state rescaling identity
CLOSED_REL = 1e-12  # closed forms against the reference closed forms
SUP_REL = 1e-4  # numeric supremum against the reference full-line time
EULER_ABS, EULER_REL = 1e-9, 1e-7  # CSV series against the reference Euler loop
TAU_MAX = 1.0  # prescribed settling time of the tuned gains
TOL_X1, TOL_X2 = 1e-6, 1.25e-3  # the CLI's default settling gates


@dataclass(frozen=True)
class Op:
    kind: str
    args: tuple


def _stratified(rng: random.Random, n: int) -> list[float]:
    """n points in [0, 1), one uniformly in each of n equal strata, shuffled."""
    pts = [(i + rng.random()) / n for i in range(n)]
    rng.shuffle(pts)
    return pts


def _close(a: float, b: float, abs_tol: float, rel_tol: float) -> bool:
    return abs(a - b) <= abs_tol + rel_tol * abs(b)


def _cli(argv: list[str]) -> tuple[int, str]:
    """``ftdiff.cli.main`` in-process, with stdout and stderr captured; (exit code, stdout)."""
    import ftdiff.cli

    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        rc = ftdiff.cli.main(argv)
    return rc, out.getvalue()


# ---------------------------------------------------------------------------


class Pointwise:
    """Library t0_exact + t_perturbed_bound, one call per seeded initial error."""

    name = "pointwise"
    per_builtin = 160
    custom = 24
    magnitudes = (1e-3, 30.0)  # |x0|; exp overflows past k3^2 |x1| ~ 1419

    def __init__(self, scratch: Path) -> None:
        self.scratch = scratch

    def setup(self, seed: int, wrap_dgf=lambda d: d) -> None:
        import ftdiff

        rng = random.Random(seed)
        self.seed = seed
        self.dgfs = {name: ftdiff.builtin_dgf(name) for name in ("ured", "exp")}
        phi, phi_prime, phi_second = (ftdiff.compile_expression(t) for t in CUSTOM_URED)
        self.dgfs["custom"] = wrap_dgf(ftdiff.GeneratingFunction(
            name="custom", phi=phi, phi_prime=phi_prime, phi_second=phi_second))
        ops = []
        lo, hi = (math.log10(m) for m in self.magnitudes)
        for key, n in (("ured", self.per_builtin), ("exp", self.per_builtin),
                       ("custom", self.custom)):
            mags, angles, loads = (_stratified(rng, n) for _ in range(3))
            for m, a, u in zip(mags, angles, loads):
                r = 10.0 ** (lo + (hi - lo) * m)
                x0 = (r * math.cos(2.0 * math.pi * a), r * math.sin(2.0 * math.pi * a))
                ops.append(Op(key, (x0, 0.9 * u)))  # L as a share of 0.9 Lbar
        rng.shuffle(ops)
        self.ops = ops

    def prime(self) -> None:
        import ftdiff

        for key, d in self.dgfs.items():
            ftdiff.t0_exact(d, ftdiff.ParamTriple(*KAPPA[key]), (1e-3, 0.0))

    def run_op(self, op: Op) -> Any:
        import ftdiff

        d = self.dgfs[op.kind]
        kappa = ftdiff.ParamTriple(*KAPPA[op.kind])
        x0, share = op.args
        t0 = ftdiff.t0_exact(d, kappa, x0)
        co = d.claimed_constants or ftdiff.compute_admissibility(d)
        lb = ftdiff.lbar(kappa.k1, kappa.k2, co.D)
        tp = ftdiff.t_perturbed_bound(t0, share * lb, lb)
        return (t0, lb, tp, (co.B, co.C, co.D))

    def collect(self, op: Op, raw: Any) -> Any:
        return raw

    def fingerprint(self, output: Any) -> Any:
        return output

    def verify(self, ops: list[Op], outputs: list[Any]) -> list[str]:
        import ftdiff

        errors = []
        for op, (t0, lb, tp, (B, C, D)) in zip(ops, outputs):
            name = SAME_AS[op.kind]
            kappa = KAPPA[op.kind]
            rB, rC, rD = ref.CONSTANTS[name]
            if op.kind == "custom" and not all(
                    _close(a, b, 0.0, 1e-6) for a, b in ((B, rB), (C, rC), (D, rD))):
                errors.append(f"custom constants {(B, C, D)} differ from {(rB, rC, rD)}")
            ub = ref.upper_bound(rB, rC, kappa)
            if not 0.0 <= t0 <= ub:
                errors.append(f"{op.kind} t0 {t0!r} at {op.args[0]} outside [0, {ub!r}]")
            rlb = ref.lbar(kappa[0], kappa[1], rD)
            if not _close(lb, rlb, 0.0, CLOSED_REL):
                errors.append(f"{op.kind} lbar {lb!r} != reference {rlb!r}")
            if not (tp >= t0 and _close(tp, t0 / (1.0 - op.args[1]), 0.0, CLOSED_REL)):
                errors.append(f"{op.kind} perturbed bound {tp!r} inconsistent with t0 {t0!r}")

        rng = random.Random(self.seed + 1)
        by_kind: dict[str, list[tuple[Op, Any]]] = {}
        for op, out in zip(ops, outputs):
            by_kind.setdefault(op.kind, []).append((op, out))
        ured = ftdiff.builtin_dgf("ured")
        for op, out in by_kind["custom"]:
            want = ftdiff.t0_exact(ured, ftdiff.ParamTriple(*KAPPA["ured"]), op.args[0])
            if not _close(out[0], want, CUSTOM_ABS, CUSTOM_REL):
                errors.append(f"custom t0 {out[0]!r} != built-in ured {want!r} at {op.args[0]}")
        for kind, pairs in by_kind.items():
            name = SAME_AS[kind]
            kappa = KAPPA[kind]
            for op, out in pairs[:8]:
                want = ref.t0(name, kappa, op.args[0])
                if not _close(out[0], want, T0_REF_ABS, T0_REF_REL):
                    errors.append(f"{kind} t0 {out[0]!r} != reference {want!r} at {op.args[0]}")
            if kind == "custom":
                continue
            for op, out in pairs[8:12]:
                alpha, beta = 0.5 + 1.5 * rng.random(), 0.5 + 1.5 * rng.random()
                k1, k2, k3 = kappa
                (x1, x2) = op.args[0]
                moved = ftdiff.t0_exact(
                    self.dgfs[kind], ftdiff.ParamTriple(alpha * k1, alpha ** 2 * k2, beta * k3),
                    (x1 / beta ** 2, alpha * x2 / beta))
                if not _close(moved * alpha * beta, out[0], 1e-9, SCALING_REL):
                    errors.append(f"{kind} rescaling: {moved!r} * {alpha * beta!r} != {out[0]!r}")
        return errors


# ---------------------------------------------------------------------------


class Worstcase:
    """``ftdiff convtime --global`` in-process, over a fixed list of gain sets."""

    name = "worstcase"
    # Real-distinct (5,1,1), (10,1,1), repeated (sqrt8,1,1) and complex
    # (2,1,1) for both built-ins, plus ured at (20,1,1): with nine operations
    # of well-separated cost the median operation is one of them, ured at
    # (5,1,1), rather than the mean of two neighbours.
    cases = tuple((d, k) for d in ("ured", "exp")
                  for k in ((5.0, 1.0, 1.0), (10.0, 1.0, 1.0), (math.sqrt(8.0), 1.0, 1.0),
                            (2.0, 1.0, 1.0))) + (("ured", (20.0, 1.0, 1.0)),)
    directions = 4  # seeded sample directions checked per gain set

    def __init__(self, scratch: Path) -> None:
        self.scratch = scratch

    def setup(self, seed: int, wrap_dgf=None) -> None:
        rng = random.Random(seed)
        self.seed = seed
        ops = [Op(name, k) for name, k in self.cases]
        rng.shuffle(ops)
        self.ops = ops

    def prime(self) -> None:
        import ftdiff

        for name in ("ured", "exp"):
            ftdiff.t0_exact(ftdiff.builtin_dgf(name), ftdiff.ParamTriple(5.0, 1.0, 1.0), (1e-3, 0.0))

    def run_op(self, op: Op) -> Any:
        k1, k2, k3 = op.args
        return _cli(["convtime", "--dgf", op.kind, "--k1", repr(k1), "--k2", repr(k2),
                     "--k3", repr(k3), "--global"])

    def collect(self, op: Op, raw: Any) -> Any:
        return raw

    def fingerprint(self, output: Any) -> Any:
        return output

    def verify(self, ops: list[Op], outputs: list[Any]) -> list[str]:
        errors = []
        rng = random.Random(self.seed + 1)
        for op, (rc, text) in zip(ops, outputs):
            where = f"{op.kind} {op.args}"
            if rc != 0:
                errors.append(f"{where}: exit code {rc}")
                continue
            doc = json.loads(text)
            kappa = op.args
            k1, k2, k3 = kappa
            B, C, _ = ref.CONSTANTS[op.kind]
            sup = doc["numeric_supremum"]
            lam = ref.eigenvalues(k1, k2)
            if doc["search"] != ("two-exponential" if ref.discriminant(k1, k2) > 0.0 else "unit-circle"):
                errors.append(f"{where}: search {doc['search']!r}")
            if doc["manifest"]["config"]["grid_points"] != 256:
                errors.append(f"{where}: grid {doc['manifest']['config']['grid_points']}")
            if ref.discriminant(k1, k2) >= 0.0:
                lo, hi = ref.lower_bound(B, kappa), ref.upper_bound(B, C, kappa)
                if not (_close(doc["lower_bound"], lo, 0.0, CLOSED_REL)
                        and _close(doc["upper_bound"], hi, 0.0, CLOSED_REL)):
                    errors.append(f"{where}: bounds {doc['lower_bound']!r}, {doc['upper_bound']!r}"
                                  f" != reference {lo!r}, {hi!r}")
                if not lo * (1.0 - CLOSED_REL) <= sup <= hi:
                    errors.append(f"{where}: supremum {sup!r} outside [{lo!r}, {hi!r}]")
            elif doc["lower_bound"] is not None or doc["upper_bound"] is not None:
                errors.append(f"{where}: bounds reported where they do not apply")
            am = doc["argmax"]
            if doc["search"] == "two-exponential" and am in (None, 0.0):
                # single-mode limit of the family: B / (2 k3 |lam|), slow or fast mode
                at = B / (2.0 * k3 * -(lam[0] if am is None else lam[1]).real)
            elif doc["search"] == "two-exponential":
                at = ref.full_line_time(op.kind, kappa, ref.two_exponential(kappa, am))
            else:
                at = ref.full_line_time(op.kind, kappa, ref.Response(k1, k2, (math.cos(am), math.sin(am))))
            if not _close(sup, at, 0.0, SUP_REL):
                errors.append(f"{where}: supremum {sup!r} != reference {at!r} at argmax {am!r}")
            for _ in range(self.directions):
                th = math.pi * rng.random()
                v = ref.full_line_time(op.kind, kappa, ref.Response(k1, k2, (math.cos(th), math.sin(th))))
                if v > sup * (1.0 + SUP_REL):
                    errors.append(f"{where}: direction {th!r} gives {v!r} above supremum {sup!r}")
        return errors


# ---------------------------------------------------------------------------


class Simulate:
    """``ftdiff sim`` in-process: presets and seeded single slope runs, CSV out."""

    name = "simulate"
    presets = (("fig1", "ured"), ("fig1", "exp"), ("fig3", "ured"), ("fig3", "exp"), ("fig2", "ured"))
    singles = 6
    transient = 10001  # samples compared with the reference Euler loop (t <= 1)

    def __init__(self, scratch: Path) -> None:
        self.scratch = scratch / "out" / self.name

    def setup(self, seed: int, wrap_dgf=None) -> None:
        rng = random.Random(seed)
        self.seed = seed
        specs = list(self.presets)
        specs += [("slope", -5.0 + 10.0 * u) for u in _stratified(rng, self.singles)]
        rng.shuffle(specs)
        self.ops = []
        for i, (kind, arg) in enumerate(specs):
            out = self.scratch / f"op{i:02d}"
            out.mkdir(parents=True, exist_ok=True)
            self.ops.append(Op(kind, (arg, str(out))))

    def prime(self) -> None:
        pass

    def run_op(self, op: Op) -> Any:
        arg, out = op.args
        if op.kind == "slope":
            argv = ["sim", "--signal", "slope", "--c", repr(arg), "--out", out]
        else:
            argv = ["sim", "--preset", op.kind, "--dgf", arg, "--out", out]
        return _cli(argv)[0]

    def collect(self, op: Op, raw: Any) -> Any:
        """Exit code, digests of the outputs (side manifests excluded), output directory.

        The files themselves stay on disk; ``verify`` reads them one
        operation at a time, so the harness holds no copy of a pass's output.
        """
        d = Path(op.args[1])
        digests = tuple((p.name, hashlib.sha256(p.read_bytes()).hexdigest())
                        for p in sorted(d.iterdir()) if not p.name.endswith(".manifest.json"))
        return raw, digests, d

    def fingerprint(self, output: Any) -> Any:
        return output[:2]

    def verify(self, ops: list[Op], outputs: list[Any]) -> list[str]:
        errors = []
        for op, (rc, _, d) in zip(ops, outputs):
            where = f"{op.kind} {op.args[0]!r}"
            if rc != 0:
                errors.append(f"{where}: exit code {rc}")
                continue
            stem = "sim" if op.kind == "slope" else op.kind
            table = np.loadtxt(d / f"{stem}.csv", delimiter=",", skiprows=1, ndmin=2)
            manifest = json.loads((d / f"{stem}.manifest.json").read_text())["config"]
            errors += [f"{where}: {e}" for e in self._check(op, table, manifest)]
        return errors

    def _check(self, op: Op, table: np.ndarray, manifest: dict) -> list[str]:
        if op.kind == "fig3":
            want_c = np.linspace(-5.0, 5.0, 21)
            if table.shape != (21, 3) or not np.allclose(table[:, 0], want_c, atol=1e-9):
                return [f"slope grid {table[:, 0]!r}"]
            if not (np.all(table[:, 1] <= TAU_MAX) and np.all(table[:, 2] == 0)):
                return [f"rows exceed T or diverge: {table!r}"]
            return []
        if op.kind == "fig2":
            zero = table[table[:, 0] == 0.0]
            if table.shape != (18, 5) or np.any(table[:, 3:] != 0):
                return [f"rows diverge or missing: {table!r}"]
            if zero.shape[0] != 1 or not zero[0, 1] < TOL_X2:
                return [f"zero-noise steady error {zero!r}"]
            return []
        errors = []
        name = op.args[0] if op.kind == "fig1" else "ured"
        gains = ref.tuned_gains(name)
        if not all(_close(a, b, 0.0, CLOSED_REL) for a, b in zip(manifest["kappa"], gains)):
            errors.append(f"gains {manifest['kappa']} != tuning rule {gains}")
        t, x1, x2 = table[:, 0], table[:, 5], table[:, 6]
        tau = ref.settling_time(t, x1, x2, TOL_X1, TOL_X2)
        if tau is None or tau > TAU_MAX or not _close(manifest["tau"] or math.inf, tau, 1e-9, 0.0):
            errors.append(f"settling time {manifest['tau']!r}, from series {tau!r}")
        if op.kind == "slope":
            y1, y2 = ref.euler_slope("ured", gains, op.args[0], self.transient)
            for col, want in ((3, y1), (4, y2)):
                got = table[: self.transient, col]
                want = np.asarray(want)
                if not np.all(np.abs(got - want) <= EULER_ABS + EULER_REL * np.abs(want)):
                    i = int(np.argmax(np.abs(got - want)))
                    errors.append(f"column {col} at t={t[i]} is {got[i]!r}, reference Euler {want[i]!r}")
        return errors


WORKLOADS = {cls.name: cls for cls in (Pointwise, Worstcase, Simulate)}
