import cmath
import decimal
import functools
import itertools
import logging
import math
import subprocess
import sys
import time
from pathlib import Path

import numpy as np
import pytest
import scipy.integrate
import scipy.linalg
import scipy.optimize
from hypothesis import given, settings
from hypothesis import strategies as st

import ftdiff
from ftdiff import convtime
from ftdiff.convtime import (
    GlobalConvtime,
    _Tally,
    _circle_values,
    _integrate_side,
    _psi_prime_array,
    _tails,
    expm2,
    global_convtime_numeric,
    lbar,
    lbar_integral,
    lower_bound,
    single_exp_reduction,
    system_matrix,
    t0_exact,
    t_perturbed_bound,
    upper_bound_ttilde,
)
from ftdiff.dgf import (
    GeneratingFunction,
    ParamTriple,
    builtin_dgf,
    compute_admissibility,
    nu1,
    psi_prime,
)
from ftdiff.errors import BoundNotApplicableError, InfeasibleError, QuadratureError
from ftdiff.expr import compile_expression

SQRT8 = math.sqrt(8.0)


# -- independent oracle helpers (scipy-based, no shared code paths) ---------

_PHI = {
    "ured": lambda x: math.copysign(math.sqrt(abs(x)) * (1.0 + abs(x)), x),
    "exp": lambda x: math.copysign(math.sqrt(math.expm1(abs(x))), x),
}

_PHI_PRIME = {
    "ured": lambda x: 0.5 / math.sqrt(abs(x)) + 1.5 * math.sqrt(abs(x)),
    "exp": lambda x: math.exp(abs(x)) / (2.0 * math.sqrt(math.expm1(abs(x)))),
}


def psi_prime_oracle(name, k3, z):
    if z == 0.0:
        return 0.0
    target = k3 * abs(z)
    hi = 1.0
    while _PHI[name](hi) < target:
        hi *= 4.0
    x = scipy.optimize.brentq(lambda v: _PHI[name](v) - target, 0.0, hi,
                              xtol=1e-40, rtol=4.0 * np.finfo(float).eps,
                              maxiter=300)
    if x == 0.0:
        return 0.0  # root underflowed; the slope blows up there
    return 1.0 / (k3 * _PHI_PRIME[name](x))


def t0_oracle(name, kappa, x0):
    k1, k2, k3 = kappa
    A = np.array([[-k1 / 2.0, 0.5], [-k2, 0.0]])
    g = np.array([_PHI[name](k3 * k3 * x0[0]) / k3, x0[1]])

    def integrand(tau):
        h = (scipy.linalg.expm(A * tau) @ g)[0]
        return 0.5 * psi_prime_oracle(name, k3, h)

    val, _ = scipy.integrate.quad(integrand, 0.0, np.inf, limit=400)
    return val


def full_line_oracle(dgf, kappa, theta, lo=-200.0, hi=80.0):
    """integral over [lo, hi] of 1/2 Psi'(h) from the unit state at angle theta.

    scipy quad between the sign changes of h (bracketed on a grid, refined
    by brentq). Far out, a sign change is a cusp much narrower than quad's
    first panels, so each half of a piece is integrated in w with
    t = end -/+ (half width) w^3. Both ends of [lo, hi] are far enough out
    that the rest is below 1e-12.
    """
    k1, k2, k3 = kappa.k1, kappa.k2, kappa.k3
    A = np.array([[-k1 / 2.0, 0.5], [-k2, 0.0]])
    v = np.array([math.cos(theta), math.sin(theta)])

    def h(t):
        return (scipy.linalg.expm(A * t) @ v)[0]

    grid = np.linspace(lo, hi, 1401)
    hs = [h(t) for t in grid]
    pts = [lo]
    for a, b, ha, hb in zip(grid, grid[1:], hs, hs[1:]):
        if ha * hb < 0.0:
            pts.append(scipy.optimize.brentq(h, a, b, xtol=1e-14))
    pts.append(hi)
    total = 0.0
    for a, b in zip(pts, pts[1:]):
        half = 0.5 * (b - a)
        for end, sign in ((a, 1.0), (b, -1.0)):
            total += scipy.integrate.quad(
                lambda w: 1.5 * half * w * w * psi_prime(dgf, k3, h(end + sign * half * w ** 3)),
                0.0, 1.0, epsabs=1e-14, epsrel=1e-13, limit=200)[0]
    return total


def far_tail_oracle(name, w):
    """integral_log w^inf Psi'_1(e^u) du = integral_{Phi^-1(w)}^inf dx / Phi(x), in closed form.

    ured: 2 atan(1/s), s^3 + s = w; exp: 2 atan(1/w).
    """
    if name == "exp":
        return 2.0 * math.atan(1.0 / w)
    s = scipy.optimize.brentq(lambda v: v * (v * v + 1.0) - w, 0.0,
                              2.0 * w ** (1.0 / 3.0) + 1.0, xtol=1e-300,
                              rtol=4.0 * np.finfo(float).eps)
    return 2.0 * math.atan(1.0 / s)


def two_exp_oracle(name, kappa, b, sign):
    """integral over the line of 1/2 Psi'(b (e^(lam1 t) + sign e^(lam2 t))), b > 0.

    Eigenvalues from numpy, Psi' from brentq (psi_prime_oracle), scipy quad on
    unit pieces of [lo, hi] split at t = 0, in w with t = -/+ w^3 on the two
    next to the zero of sign < 0, whose kink is about 1/b wide. Left of lo
    the fast mode holds all but 1e-15 of h, and the rest is the single-mode
    closed form T(k3 |h(lo)|) / (2 k3 |lam2|) of far_tail_oracle; right of
    hi, k3 |h| < 1e-13 and 1/2 Psi'(h) = |h| to within 4 k3^2 h^2 relative.
    """
    k1, k2, k3 = kappa
    lam2, lam1 = sorted(np.linalg.eigvals(np.array([[-0.5 * k1, 0.5], [-k2, 0.0]])).real)
    lo = -35.0 / (lam1 - lam2)
    hi = (math.log(b * k3) + 30.0) / -lam1

    def h(t):
        return b * (math.exp(lam1 * t) + sign * math.exp(lam2 * t))

    def f(t):
        return 0.5 * psi_prime_oracle(name, k3, h(t))

    edges = np.unique(np.concatenate([np.arange(lo, hi, 1.0), [0.0, hi]]))
    total = 0.0
    for a, c in zip(edges, edges[1:]):
        if sign < 0.0 and 0.0 in (a, c):
            end = a if c == 0.0 else c  # t = end w^3
            piece = (lambda w: 3.0 * abs(end) * w * w * f(end * w ** 3)), 0.0, 1.0
        else:
            piece = f, a, c
        total += scipy.integrate.quad(*piece, epsabs=1e-14, epsrel=1e-12, limit=200)[0]
    total += far_tail_oracle(name, k3 * abs(h(lo))) / (2.0 * k3 * -lam2)
    return total + b * (math.exp(lam1 * hi) / -lam1 + sign * math.exp(lam2 * hi) / -lam2)


def _log_phi_oracle(name, x):
    """log Phi(x) for x > 0, past the float range of Phi by its leading term."""
    if name == "exp" and x > 700.0:
        return 0.5 * x  # log sqrt(e^x - 1), to within e^-x
    if name == "ured" and x > 1e200:
        return 1.5 * math.log(x)
    return math.log(_PHI[name](x))


def t0_split_oracle(name, kappa, x0):
    """integral_0^inf 1/2 Psi'(h) by scipy quad, split at the zeros of h.

    h = e^log_s hu, with hu the response to the initial state scaled to
    max-norm 1, so that Phi(k3^2 x1) never has to be a float; hu comes from
    numpy's eigendecomposition of A (Jordan form when the eigenvalue is
    repeated). The integral runs over pieces 1/|rate| (and at most a
    quarter period) wide, split at the zeros of h; a piece ending at a zero
    is integrated in w with t = zero -/+ (width) w^3, because plain quad
    steps over the cusp there. Pieces where log|h| exceeds 200 at both ends
    (1/2 Psi' < e^-60) or stays below -40 (1/2 Psi' <= |h| < e^-40) are
    skipped, and the pieces end where the rest is below 1e-20.
    """
    k1, k2, k3 = kappa
    x1, x2 = x0
    lg = _log_phi_oracle(name, k3 * k3 * abs(x1)) - math.log(k3) if x1 != 0.0 else -math.inf
    lx = math.log(abs(x2)) if x2 != 0.0 else -math.inf
    log_s = max(lg, lx)
    g = np.array([math.copysign(math.exp(lg - log_s), x1), math.copysign(math.exp(lx - log_s), x2)])
    a = np.array([[-k1 / 2.0, 0.5], [-k2, 0.0]])
    lam, vecs = np.linalg.eig(a)
    if abs(lam[0] - lam[1]) < 1e-6:
        rate = 0.5 * float(np.trace(a))  # eig resolves a double root only to ~1e-8
        n0 = float(((a - rate * np.eye(2)) @ g)[0])
        step = 1.0 / -rate

        def hs(t):  # hu e^(-rate t), which does not underflow where hu does
            return g[0] + n0 * t
    else:
        coef = vecs[0] * np.linalg.solve(vecs, g.astype(complex))
        rate = float(lam.real.max())
        step = min(1.0 / -rate, 0.5 * math.pi / abs(lam[0].imag) if lam[0].imag else math.inf)
        dl = lam - rate

        def hs(t):
            if np.ndim(t) == 0:
                return (coef[0] * cmath.exp(dl[0] * t) + coef[1] * cmath.exp(dl[1] * t)).real
            return (coef[None, :] * np.exp(np.outer(t, dl))).sum(axis=1).real

    def f(t):
        m = abs(hs(t))
        if m == 0.0 or log_s + rate * t + math.log(m) > 700.0:
            return 0.0  # Psi' < e^-230 past e^700
        return 0.5 * psi_prime(builtin_dgf(name), k3, math.exp(log_s + rate * t + math.log(m)))

    grid = np.arange(0.0, (max(log_s, 0.0) + 50.0) / -rate + step, step)
    with np.errstate(divide="ignore"):
        logh = log_s + rate * grid + np.log(np.abs(hs(grid)))
    zeros = [0.0] if hs(0.0) == 0.0 else []
    signs = np.sign(hs(grid))
    for i in np.flatnonzero(signs[:-1] * signs[1:] < 0.0):
        zeros.append(scipy.optimize.brentq(hs, grid[i], grid[i + 1], xtol=1e-15, rtol=1e-15))
    zeros += [t for t, sg in zip(grid[1:], signs[1:]) if sg == 0.0]
    total = 0.0
    for i in range(grid.size - 1):
        lo, hi = grid[i], grid[i + 1]
        inside = [z for z in zeros if lo <= z <= hi]
        if not inside and (min(logh[i], logh[i + 1]) > 200.0 or max(logh[i], logh[i + 1]) < -40.0):
            continue
        ends = [lo] + [z for z in inside if lo < z < hi] + [hi]
        for a_, b_ in zip(ends, ends[1:]):
            half = 0.5 * (b_ - a_)
            for end, sign, graded in ((a_, 1.0, a_ in inside), (b_, -1.0, b_ in inside)):
                if graded:
                    w = lambda v, e=end, sg=sign: 3.0 * half * v * v * f(e + sg * half * v ** 3)
                    total += scipy.integrate.quad(w, 0.0, 1.0, epsabs=1e-13, epsrel=1e-12, limit=200)[0]
                else:
                    lo_, hi_ = (end, end + half) if sign > 0.0 else (end - half, end)
                    total += scipy.integrate.quad(f, lo_, hi_, epsabs=1e-13, epsrel=1e-12, limit=200)[0]
    return total


@functools.lru_cache(maxsize=None)
def numeric_sup(name, kappa):
    return global_convtime_numeric(builtin_dgf(name), ParamTriple(*kappa))


# ured written as expressions, without an inverse
URED_EXPRESSIONS = (
    "sign(x)*(sqrt(abs(x)) + abs(x)**1.5)",
    "0.5/sqrt(abs(x)) + 1.5*sqrt(abs(x))",
    "sign(x)*(-0.25*abs(x)**-1.5 + 0.75*abs(x)**-0.5)",
)


# -- eigenstructure ---------------------------------------------------------

class TestSystemMatrix:
    def test_distinct_eigenvalues(self):
        sys = system_matrix(5.0, 1.0)
        assert sys.kind == "real-distinct"
        assert sys.lam1 == pytest.approx(-0.21922359359558485, abs=1e-15)
        assert sys.lam2 == pytest.approx(-2.2807764064044154, abs=1e-15)

    def test_repeated(self):
        sys = system_matrix(SQRT8, 1.0)
        assert sys.kind == "real-repeated"
        assert sys.lam1 == pytest.approx(-SQRT8 / 4.0, rel=1e-12)

    def test_complex(self):
        sys = system_matrix(1.0, 1.0)
        assert sys.kind == "complex"
        assert sys.mu == pytest.approx(-0.25, abs=1e-15)
        assert sys.omega == pytest.approx(math.sqrt(7.0) / 4.0, rel=1e-14)

    def test_repeated_band_snaps(self):
        # discriminants inside the relative tolerance band count as repeated
        sys = system_matrix(SQRT8 * (1.0 + 1e-13), 1.0)
        assert sys.kind == "real-repeated"

    def test_matrix_layout(self):
        sys = system_matrix(3.0, 2.0)
        np.testing.assert_allclose(
            sys.matrix(), [[-1.5, 0.5], [-2.0, 0.0]], atol=0.0)

    @pytest.mark.parametrize("k1, k2", [(1000.0, 1e-3), (1e4, 1e-4), (1e8, 1.0), (5.0, 1.0),
                                        (1e150, 1e150)])
    def test_slow_eigenvalue_is_accurate(self, k1, k2):
        # -k1 + sqrt(k1^2 - 8 k2) cancels: relative errors up to 0.118 at (1e8, 1)
        ctx = decimal.Context(prec=400)
        d1, d2 = decimal.Decimal(k1), decimal.Decimal(k2)
        disc = ctx.subtract(ctx.multiply(d1, d1), ctx.multiply(8, d2))
        want = float(ctx.divide(ctx.subtract(ctx.sqrt(disc), d1), 4))
        assert system_matrix(k1, k2).lam1 == pytest.approx(want, rel=4e-16)

    @pytest.mark.parametrize("k1, k2", [(1e8, 1.0), (1e150, 1e150)])
    def test_search_at_widely_split_eigenvalues(self, ured, k1, k2):
        # the slow limit B / (2 k3 |lam1|), |lam1| = k2 / k1 to within a relative 2 k2 / k1^2
        out = global_convtime_numeric(ured, ParamTriple(k1, k2, 1.0), grid_points=16)
        assert out.value == pytest.approx(0.5 * math.pi * k1 / k2, rel=1e-12)
        assert math.isinf(out.argmax)

    def test_eigenvalues_satisfy_characteristic(self):
        for k1, k2 in [(5.0, 1.0), (10.0, 3.0), (4.0, 2.0)]:
            sys = system_matrix(k1, k2)
            for lam in sys.eigenvalues:
                assert abs(lam * lam + 0.5 * k1 * lam + 0.5 * k2) < 1e-12


class TestExpm2:
    @pytest.mark.parametrize("k1,k2", [(5.0, 1.0), (SQRT8, 1.0), (1.0, 1.0),
                                       (10.0, 2.0), (2.0, 3.0)])
    @pytest.mark.parametrize("tau", [0.0, 0.1, 1.0, 7.5])
    def test_matches_scipy(self, k1, k2, tau):
        sys = system_matrix(k1, k2)
        want = scipy.linalg.expm(sys.matrix() * tau)
        np.testing.assert_allclose(expm2(sys, tau), want, rtol=1e-12,
                                   atol=1e-14)

    def test_identity_at_zero(self):
        sys = system_matrix(3.0, 1.0)
        np.testing.assert_allclose(expm2(sys, 0.0), np.eye(2), atol=1e-15)

    def test_semigroup(self):
        sys = system_matrix(1.5, 1.0)
        ab = expm2(sys, 0.7) @ expm2(sys, 1.6)
        np.testing.assert_allclose(ab, expm2(sys, 2.3), rtol=1e-12)


# -- settling-time functional ----------------------------------------------

class TestT0Exact:
    def test_zero_at_origin(self, ured):
        assert t0_exact(ured, ParamTriple(5.0, 1.0, 1.0), (0.0, 0.0)) == 0.0

    @pytest.mark.parametrize("name", ["ured", "exp"])
    @pytest.mark.parametrize("kappa,x0", [
        ((5.0, 1.0, 1.0), (1.0, 0.0)),
        ((5.0, 1.0, 1.0), (0.0, 1.0)),
        ((5.0, 1.0, 1.0), (-2.0, 3.0)),
        ((3.0, 2.0, 1.5), (1.0, -1.0)),
        ((SQRT8, 1.0, 2.0), (0.5, 0.5)),
    ])
    def test_matches_scipy_oracle(self, name, kappa, x0):
        dgf = builtin_dgf(name)
        got = t0_exact(dgf, ParamTriple(*kappa), x0)
        want = t0_oracle(name, kappa, x0)
        assert got == pytest.approx(want, rel=1e-6)

    @pytest.mark.parametrize("name", ["ured", "exp"])
    def test_sign_symmetry(self, name):
        dgf = builtin_dgf(name)
        kappa = ParamTriple(5.0, 1.0, 1.0)
        a = t0_exact(dgf, kappa, (1.3, -0.4))
        b = t0_exact(dgf, kappa, (-1.3, 0.4))
        assert a == pytest.approx(b, rel=1e-9)

    def test_frozen_value(self, ured):
        # pinned regression value for the documented example point
        got = t0_exact(ured, ParamTriple(5.0, 1.0, 1.0), (1.0, 0.0))
        assert got == pytest.approx(0.8993814242511874, rel=1e-9)

    def test_huge_initial_error_returns_or_raises_promptly(self):
        # an unreachable panel tolerance used to split panels without end
        code = (
            "from ftdiff import ParamTriple, builtin_dgf, t0_exact\n"
            "from ftdiff.errors import QuadratureError\n"
            "try:\n"
            "    t0_exact(builtin_dgf('ured'), ParamTriple(5.0, 1.0, 1.0), (1e100, 0.0))\n"
            "except QuadratureError:\n"
            "    pass\n"
        )
        src = str(Path(ftdiff.__file__).resolve().parents[1])
        start = time.perf_counter()
        subprocess.run([sys.executable, "-c", code], env={"PYTHONPATH": src},
                       timeout=60, check=True)
        assert time.perf_counter() - start < 10.0

    def test_exp_cusp_at_zero_of_h(self, expdgf):
        # h crosses zero steeply here, so 1/2 Psi'(h) has a cusp about 1e-7
        # wide; adaptive Simpson's first samples stepped over it and returned
        # 0.2565694237 with tol = 1e-8
        kappa, x0 = (6.0, 4.5, 4.303), (1.9024227529881548, -0.7476295521345626)
        want = t0_split_oracle("exp", kappa, x0)
        assert want == pytest.approx(0.25656966876395, abs=1e-13)
        assert abs(t0_exact(expdgf, ParamTriple(*kappa), x0) - want) <= 1e-8

    @pytest.mark.parametrize("x1", [100.0, 1e3])
    def test_exp_large_errors_at_tuned_gains(self, expdgf, x1):
        # Phi(k3^2 x1) overflows from x1 ~ 77 at these gains; the value does not
        kappa = (6.0, 4.5, 4.303)
        got = t0_exact(expdgf, ParamTriple(*kappa), (x1, 0.0))
        assert abs(got - t0_split_oracle("exp", kappa, (x1, 0.0))) <= 1e-8
        # large-error limit 2B/((k1 - sqrt(k1^2 - 8 k2)) k3), B = pi
        assert got > 2.0 * math.pi / (6.0 * 4.303)

    def test_node_cap_raises_promptly(self, expdgf):
        # at x1 = 1e5 the mass sits about 6e5 time units out
        start = time.perf_counter()
        with pytest.raises(QuadratureError, match=r"t0 needs (\d+) or more nodes to cover "
                                                  r"\[0, 617216\], past the cap of 524288") as err:
            t0_exact(expdgf, ParamTriple(6.0, 4.5, 4.303), (1e5, 0.0))
        assert time.perf_counter() - start < 1.0
        assert int(err.value.args[0].split()[4]) > 524288

    @pytest.mark.parametrize("x0", [(1e100, 0.0), (0.0, 1e100), (-1e300, 1.0)])
    def test_ured_approaches_large_error_limit(self, ured, x0):
        # at (5,1,1) the supremum is the slow pure-mode limit 2B/((k1 -
        # sqrt(k1^2 - 8 k2)) k3), which large initial errors approach from below
        limit = 2.0 * math.pi / (5.0 - math.sqrt(17.0))
        got = t0_exact(ured, ParamTriple(5.0, 1.0, 1.0), x0)
        assert limit - 1e-6 <= got <= limit + 1e-8

    @pytest.mark.parametrize("x0", [(1e308, 0.0), (-1e308, 1.0)])
    def test_ured_where_k3_squared_x1_overflows(self, ured, x0):
        # k3^2 |x1| is past the float range here, log Phi = 1.5 log(k3^2 |x1|)
        # is not; at these (repeated-eigenvalue) gains the response decays
        # like t e^(lam t), so the time exceeds the limit 2B/(k1 k3) by
        # about limit / log|Phi_k3(x1)|
        kappa = ParamTriple(6.0, 4.5, 4.3)
        limit = 2.0 * math.pi / (6.0 * 4.3)
        log_g = 1.5 * (2.0 * math.log(4.3) + math.log(1e308)) - math.log(4.3)
        got = t0_exact(ured, kappa, x0)
        assert limit * (1.0 + 0.99 / log_g) <= got <= limit * (1.0 + 1.0 / log_g)
        assert got < t0_exact(ured, kappa, (1e300, 0.0))

    @pytest.mark.parametrize("name", ["ured", "exp"])
    @pytest.mark.parametrize("alpha", [0.5, 2.0])
    @pytest.mark.parametrize("beta", [0.5, 2.0])
    def test_gain_scaling_law(self, name, alpha, beta):
        # (k1, k2, k3) -> (a k1, a^2 k2, b k3) rescales the settling time
        # by 1/(a b) once the state is moved to (x1 / b^2, a x2 / b)
        dgf = builtin_dgf(name)
        base = ParamTriple(4.0, 1.5, 1.2)
        x0 = (0.8, -0.5)
        t_base = t0_exact(dgf, base, x0)
        scaled = ParamTriple(alpha * base.k1, alpha * alpha * base.k2,
                             beta * base.k3)
        moved = (x0[0] / (beta * beta), alpha * x0[1] / beta)
        t_scaled = t0_exact(dgf, scaled, moved)
        assert t_scaled == pytest.approx(t_base / (alpha * beta), rel=1e-5)


T0_CASES = [(name, kappa) for name in ("ured", "exp")
            for kappa in ((5.0, 1.0, 1.0), (6.0, 4.5, 4.182 if name == "ured" else 4.303),
                          (2.0, 1.0, 1.0))]


class TestT0Properties:
    @pytest.mark.parametrize("name,kappa", T0_CASES)
    @given(log_r=st.floats(-3.0, 3.0), angle=st.floats(0.0, 2.0 * math.pi))
    @settings(max_examples=8)
    def test_matches_split_quad_and_numeric_sup(self, name, kappa, log_r, angle):
        # distinct real, repeated and complex eigenvalues; |x0| in [1e-3, 1e3].
        # Every trajectory crosses the unit circle, so the full-line time of
        # some unit state bounds t0 from every state, not only unit ones.
        r = 10.0 ** log_r
        x0 = (r * math.cos(angle), r * math.sin(angle))
        got = t0_exact(builtin_dgf(name), ParamTriple(*kappa), x0)
        assert abs(got - t0_split_oracle(name, kappa, x0)) <= 1e-8 + 1e-9
        sup = numeric_sup(name, kappa)
        assert got <= sup.value + sup.inner_tol


class TestT0Record:
    @pytest.mark.parametrize("name,kappa", T0_CASES)
    def test_debug_record_fields(self, caplog, name, kappa):
        # each eigenstructure has its own formula for the tail bound
        dgf, kappa, x0 = builtin_dgf(name), ParamTriple(*kappa), (0.3, -0.2)
        with caplog.at_level(logging.INFO, logger="ftdiff"):
            quiet = t0_exact(dgf, kappa, x0)
        assert not caplog.records
        with caplog.at_level(logging.DEBUG, logger="ftdiff"):
            assert t0_exact(dgf, kappa, x0) == quiet
        [record] = caplog.records
        assert record.name == "ftdiff" and record.levelno == logging.DEBUG
        # one pass: every panel evaluated once, the estimate within 0.9 tol
        assert record.rounds == 0 and record.values == 15 * record.panels > 0
        assert 0.0 < record.error <= 0.9 * record.tol and record.tol == 1e-8
        # the tail past the panels takes a tenth of tol, up to the rounding of
        # the Newton steps that place the end
        assert 0.0 < record.tail <= record.tol / 10.0 * (1.0 + 1e-9)
        message = record.getMessage()
        assert message.startswith(
            f"t0_exact {name} at ({kappa.k1:g}, {kappa.k2:g}, {kappa.k3:g}) from (0.3, -0.2): ")
        assert f"{record.panels} panels, {record.values} Psi' values, 0 rounds" in message

    def test_bisection_shows_in_the_record(self, caplog, ured):
        # a tolerance below what the plan is sized for makes _refine bisect
        with caplog.at_level(logging.DEBUG, logger="ftdiff"):
            t0_exact(ured, ParamTriple(6.0, 4.5, 4.182), (0.3, -0.2), tol=1e-13)
        [record] = caplog.records
        assert record.rounds > 0 and record.error <= 0.9e-13
        assert record.values > 15 * record.panels

    def test_does_not_import_logging(self):
        code = (
            "import sys, ftdiff\n"
            "kappa = ftdiff.ParamTriple(6, 4.5, 4.303)\n"
            "ftdiff.t0_exact(ftdiff.builtin_dgf('exp'), kappa, (3.0, 1.0))\n"
            "assert 'logging' not in sys.modules\n"
        )
        src = str(Path(ftdiff.__file__).resolve().parents[1])
        subprocess.run([sys.executable, "-c", code], env={"PYTHONPATH": src}, timeout=60,
                       check=True)


def _one_pass_states(n, seed):
    """n seeded (name, kappa, x0): ured, exp and custom ured at the T0_CASES gains.

    |x0| is log-uniform in [1e-3, 30], its angle uniform.
    """
    rng = np.random.default_rng(seed)
    kappas = [kappa for name, kappa in T0_CASES if name == "ured"]
    states = []
    for i in range(n):
        name = ("ured", "exp", "custom")[i % 3]
        k1, k2, k3 = kappas[(i // 3) % 3]
        r, angle = 10.0 ** rng.uniform(-3.0, math.log10(30.0)), rng.uniform(0.0, 2.0 * math.pi)
        states.append((name, (k1, k2, 4.303 if name == "exp" and k1 == 6.0 else k3),
                       (r * math.cos(angle), r * math.sin(angle))))
    return states


class TestOnePass:
    def test_most_calls_need_no_bisection(self, caplog):
        # the plan sizes its panels in u = log|k3 h|, so that nearly every call
        # meets tol in its first GK15 pass
        dgfs = {"ured": builtin_dgf("ured"), "exp": builtin_dgf("exp"), "custom": _custom_ured()}
        states = _one_pass_states(300, 17)
        with caplog.at_level(logging.DEBUG, logger="ftdiff"):
            for name, kappa, x0 in states:
                t0_exact(dgfs[name], ParamTriple(*kappa), x0)
        rounds = [r.rounds for r in caplog.records if r.getMessage().startswith("t0_exact")]
        assert len(rounds) == len(states)
        assert sum(n == 0 for n in rounds) >= 0.95 * len(states)

    @pytest.mark.parametrize("name,kappa,x0", _one_pass_states(300, 17)[::10])
    def test_matches_split_quad(self, name, kappa, x0):
        dgf = _custom_ured() if name == "custom" else builtin_dgf(name)
        got = t0_exact(dgf, ParamTriple(*kappa), x0)
        assert abs(got - t0_split_oracle("ured" if name == "custom" else name, kappa, x0)) \
            <= 1e-8 + 1e-9


class TestSingleExpReduction:
    def test_closed_form_pi(self, ured):
        # k3 = 1, c = 2, lam = -1/2: the inner integral is the reciprocal
        # integral up to 1, which equals pi/2; dividing by 1/2 gives pi
        got = single_exp_reduction(ured, 1.0, -0.5, 2.0)
        assert got == pytest.approx(math.pi, rel=1e-9)

    def test_zero_amplitude(self, ured):
        assert single_exp_reduction(ured, 1.0, -1.0, 0.0) == 0.0

    @pytest.mark.parametrize("name", ["ured", "exp"])
    @pytest.mark.parametrize("lam", [-0.5, -2.0])
    @pytest.mark.parametrize("c", [0.1, 1.0, 10.0])
    def test_matches_direct_quadrature(self, name, lam, c):
        # independent check of the reduction against scipy on the time axis
        k3 = 1.3
        dgf = builtin_dgf(name)
        got = single_exp_reduction(dgf, k3, lam, c)

        def integrand(tau):
            return psi_prime_oracle(name, k3, c * math.exp(lam * tau))

        want, _ = scipy.integrate.quad(integrand, 0.0, np.inf, limit=400)
        assert got == pytest.approx(want, rel=1e-6)

    @pytest.mark.parametrize("name", ["ured", "exp"])
    @pytest.mark.parametrize("slow", [True, False])
    def test_pure_mode_settling_time(self, name, slow):
        # starting on an eigenvector reduces the functional to one exponential
        dgf = builtin_dgf(name)
        k1, k2, k3 = 5.0, 1.0, 1.4
        sys = system_matrix(k1, k2)
        lam = sys.lam1 if slow else sys.lam2
        c = 0.7
        # g(x0) = c (1, 2 lam + k1) puts h on the pure mode c e^(lam tau)
        from ftdiff.dgf import invert_phi
        x01 = invert_phi(dgf, k3 * c) / (k3 * k3)
        x02 = c * (2.0 * lam + k1)
        got = t0_exact(dgf, ParamTriple(k1, k2, k3), (x01, x02))
        want = 0.5 * single_exp_reduction(dgf, k3, lam, c)
        assert got == pytest.approx(want, rel=1e-7)

    def test_custom_ured_at_a_bracket_point(self):
        # Phi(1) = 2 lies on the root solve's x ladder: the inner integral
        # runs up to 1, where it is pi/2, as for built-in ured
        got = single_exp_reduction(_custom_ured(), 1.0, -1.0, 2.0)
        assert abs(got - math.pi / 2.0) <= 1e-12

    def test_invalid_arguments(self, ured):
        with pytest.raises(ValueError):
            single_exp_reduction(ured, 1.0, 0.5, 1.0)  # lam must be negative
        with pytest.raises(ValueError):
            single_exp_reduction(ured, -1.0, -0.5, 1.0)


# -- Lipschitz ceiling ------------------------------------------------------

class TestLbar:
    def test_large_k1_branch(self):
        assert lbar(5.0, 1.0, 1.0) == 1.0
        assert lbar(SQRT8, 1.0, 1.0) == 1.0  # boundary included, exactly
        assert lbar(10.0, 3.0, 1.5) == 2.0

    def test_oscillatory_branch_value(self):
        # (k2/D) tanh(pi k1 / (2 sqrt(8 k2 - k1^2)))
        want = math.tanh(math.pi / (2.0 * math.sqrt(7.0)))
        got = lbar(1.0, 1.0, 1.0)
        assert got == pytest.approx(want, rel=1e-14)
        assert got == pytest.approx(0.5325551970904878, rel=1e-12)

    def test_scales_inversely_with_d(self):
        assert lbar(1.0, 1.0, 2.0) == pytest.approx(
            0.5 * lbar(1.0, 1.0, 1.0), rel=1e-14)

    def test_monotone_in_k1(self):
        vals = [lbar(k1, 1.0, 1.0) for k1 in (0.5, 1.0, 2.0, SQRT8)]
        assert all(b > a for a, b in zip(vals, vals[1:]))

    @pytest.mark.parametrize("k1", [1.0, SQRT8, 5.0])
    @pytest.mark.parametrize("k2,D", [(1.0, 1.0), (0.5, 1.0), (1.0, 1.7)])
    def test_integral_route_agrees(self, k1, k2, D):
        closed = lbar(k1, k2, D)
        integral = lbar_integral(k1, k2, D)
        assert integral == pytest.approx(closed, rel=1e-6)


class TestPerturbedBound:
    def test_formula(self):
        assert t_perturbed_bound(6.21, 0.3, 1.0) == pytest.approx(
            8.871428571428572, rel=1e-15)

    def test_reduces_to_t0_at_zero(self):
        assert t_perturbed_bound(2.0, 0.0, 1.0) == 2.0

    def test_infeasible(self):
        with pytest.raises(InfeasibleError):
            t_perturbed_bound(2.0, 1.0, 1.0)
        with pytest.raises(InfeasibleError):
            t_perturbed_bound(2.0, 1.5, 1.0)


# -- analytic bounds --------------------------------------------------------

class TestBounds:
    def test_lower_repeated(self, ured):
        c = compute_admissibility(ured)
        got = lower_bound(c, ParamTriple(SQRT8, 1.0, 1.0))
        assert got == pytest.approx(2.0 * math.pi / SQRT8, rel=1e-14)

    def test_lower_distinct(self, ured):
        c = compute_admissibility(ured)
        got = lower_bound(c, ParamTriple(5.0, 1.0, 1.0))
        want = 2.0 * math.pi / (5.0 - math.sqrt(17.0))
        assert got == pytest.approx(want, rel=1e-12)
        assert got == pytest.approx(7.165270402841039, rel=1e-12)

    def test_upper_repeated(self, ured):
        c = compute_admissibility(ured)
        got = upper_bound_ttilde(c, ParamTriple(SQRT8, 1.0, 1.0))
        want = (1.0 / math.sqrt(3.0) + 6.0 * math.pi) / SQRT8
        assert got == pytest.approx(want, rel=1e-12)
        assert got == pytest.approx(6.868448552469481, rel=1e-12)

    def test_snap_band_matches_exact_boundary(self, ured):
        c = compute_admissibility(ured)
        exact = lower_bound(c, ParamTriple(SQRT8, 1.0, 1.0))
        nudged = lower_bound(c, ParamTriple(SQRT8 * (1.0 + 1e-13), 1.0, 1.0))
        assert nudged == pytest.approx(exact, rel=1e-12)

    def test_not_applicable_in_complex_regime(self, ured):
        c = compute_admissibility(ured)
        with pytest.raises(BoundNotApplicableError):
            lower_bound(c, ParamTriple(1.0, 1.0, 1.0))
        with pytest.raises(BoundNotApplicableError):
            upper_bound_ttilde(c, ParamTriple(1.0, 1.0, 1.0))

    def test_k3_scaling(self, ured):
        c = compute_admissibility(ured)
        one = lower_bound(c, ParamTriple(5.0, 1.0, 1.0))
        two = lower_bound(c, ParamTriple(5.0, 1.0, 2.0))
        assert two == pytest.approx(0.5 * one, rel=1e-14)

    @pytest.mark.parametrize("name", ["ured", "exp"])
    @pytest.mark.parametrize("k1", [SQRT8, 5.0, 10.0])
    def test_ordering(self, name, k1):
        c = compute_admissibility(builtin_dgf(name))
        kappa = ParamTriple(k1, 1.0, 1.0)
        assert lower_bound(c, kappa) < upper_bound_ttilde(c, kappa)


# -- global worst case ------------------------------------------------------

class TestGlobalConvtime:
    def test_distinct_attained_in_slow_limit(self, ured):
        kappa = ParamTriple(5.0, 1.0, 1.0)
        out = global_convtime_numeric(ured, kappa, grid_points=64)
        assert isinstance(out, GlobalConvtime)
        assert out.search == "two-exponential"
        c = compute_admissibility(ured)
        lo = lower_bound(c, kappa)
        hi = upper_bound_ttilde(c, kappa)
        assert lo - 1e-6 <= out.value <= hi
        # the supremum here is the slow pure-mode limit, which equals the
        # analytic lower bound
        assert out.value == pytest.approx(lo, rel=1e-9)
        assert math.isinf(out.argmax)

    def test_repeated_circle_search(self, ured):
        kappa = ParamTriple(SQRT8, 1.0, 1.0)
        out = global_convtime_numeric(ured, kappa, grid_points=64)
        assert out.search == "unit-circle"
        c = compute_admissibility(ured)
        assert lower_bound(c, kappa) - 1e-6 <= out.value
        assert out.value <= upper_bound_ttilde(c, kappa)
        assert math.isfinite(out.argmax)

    def test_complex_circle_search(self, ured):
        out = global_convtime_numeric(ured, ParamTriple(1.0, 1.0, 1.0),
                                      grid_points=48)
        assert out.search == "unit-circle"
        assert math.isfinite(out.value) and out.value > 0.0

    def test_float_conversion(self, ured):
        out = global_convtime_numeric(ured, ParamTriple(5.0, 1.0, 1.0),
                                      grid_points=32)
        assert float(out) == out.value

    def test_grid_refinement_stable(self, expdgf):
        kappa = ParamTriple(5.0, 1.0, 1.0)
        coarse = global_convtime_numeric(expdgf, kappa, grid_points=48)
        fine = global_convtime_numeric(expdgf, kappa, grid_points=96)
        assert fine.value == pytest.approx(coarse.value, rel=1e-4)

    # k1 = 2 tan(78 pi/256) (repeated eigenvalue) puts grid point 78 on the
    # angle where h = e^(lam t) (v1 + c2 t) loses its slope c2
    @pytest.mark.parametrize("k1", [2.0, 2.0 * math.tan(78.0 * math.pi / 256.0)])
    @pytest.mark.parametrize("name", ["ured", "exp"])
    def test_circle_supremum_matches_quad_reference(self, name, k1):
        pytest.importorskip("scipy.integrate")
        dgf = builtin_dgf(name)
        kappa = ParamTriple(k1, 1.0 if k1 == 2.0 else k1 * k1 / 8.0, 1.0)
        out = global_convtime_numeric(dgf, kappa)
        want = full_line_oracle(dgf, kappa, out.argmax)
        assert abs(out.value - want) <= out.inner_tol

    @pytest.mark.parametrize("offset", [0.0, 1e-12, -1e-6, 3e-3, -3e-3, 5e-3, -1e-2])
    def test_repeated_rows_with_distant_zero(self, ured, offset):
        # offsets from the pure-mode angle put the zero of h at |lam tz| from
        # infinity down to about 50, on both sides of the walk's switch at 100
        pytest.importorskip("scipy.integrate")
        k1 = 2.0 * math.tan(78.0 * math.pi / 256.0)
        kappa = ParamTriple(k1, k1 * k1 / 8.0, 1.0)
        theta = 78.0 * math.pi / 256.0 + offset
        got = _circle_values(system_matrix(kappa.k1, kappa.k2), _tails(ured, 1.0),
                             np.array([theta]), 1e-6, _Tally())
        want = full_line_oracle(ured, kappa, theta, lo=-300.0, hi=120.0)
        assert abs(got[0] - want) <= 1e-6

    def test_custom_expression_matches_builtin(self, ured):
        custom = GeneratingFunction(
            "custom", *(compile_expression(t) for t in URED_EXPRESSIONS))
        kappa = ParamTriple(SQRT8, 1.0, 1.0)
        got = global_convtime_numeric(custom, kappa, grid_points=4)
        want = global_convtime_numeric(ured, kappa, grid_points=4)
        assert abs(got.value - want.value) <= got.inner_tol

    @pytest.mark.parametrize("kappa", [(5.0, 1.0, 1.0), (2.0, 1.0, 1.0)])
    def test_custom_expression_on_default_grid(self, ured, kappa):
        # distinct real and complex eigenvalues; the array root solve makes
        # the custom search take a fraction of a second
        custom = GeneratingFunction(
            "custom", *(compile_expression(t) for t in URED_EXPRESSIONS))
        got = global_convtime_numeric(custom, ParamTriple(*kappa))
        want = numeric_sup("ured", kappa)
        assert abs(got.value - want.value) <= got.inner_tol
        assert got.argmax == pytest.approx(want.argmax, rel=1e-6)

    @pytest.mark.parametrize("name", ["ured", "exp"])
    def test_two_exponential_rows_match_quad_reference(self, monkeypatch, name):
        # the grid's edges b = 1e-8 and 1e8 of both signs: on a 4-point grid
        # they are the search's first two batches, one per sign
        pytest.importorskip("scipy.integrate")
        kappa = (5.0, 1.0, 1.0)
        batches = []
        full_line = convtime._full_line

        def record(psi, blocks, loga, *rest):
            batches.append((loga.copy(), full_line(psi, blocks, loga, *rest)))
            return batches[-1][1]

        monkeypatch.setattr(convtime, "_full_line", record)
        out = global_convtime_numeric(builtin_dgf(name), ParamTriple(*kappa), grid_points=4)
        for sign, (loga, got) in zip((1.0, -1.0), batches):
            np.testing.assert_allclose(loga, [-8.0 * math.log(10.0), 8.0 * math.log(10.0)])
            for la, value in zip(loga, got):
                want = two_exp_oracle(name, kappa, math.exp(la), sign)
                assert abs(value - want) <= out.inner_tol

    def test_interior_two_exponential_supremum_matches_quad_reference(self):
        # exp at (5, 1, 1) peaks inside the family, at b ~ -295.43
        pytest.importorskip("scipy.integrate")
        out = numeric_sup("exp", (5.0, 1.0, 1.0))
        assert out.argmax == pytest.approx(-295.43, abs=0.05)
        want = two_exp_oracle("exp", (5.0, 1.0, 1.0), -out.argmax, -1.0)
        assert abs(out.value - want) <= out.inner_tol

    def test_divergent_left_tail_raises(self, sqrtdgf):
        # sqrt has no uniform bound: the left tail grows without end
        with pytest.raises(QuadratureError):
            global_convtime_numeric(sqrtdgf, ParamTriple(2.0, 1.0, 1.0),
                                    grid_points=8)


# k1 = 2 tan(78 pi/256) with k2 = k1^2/8: repeated eigenvalue, and the unit
# states near 78 pi/256 put the zero of h far out
FAR_K1 = 2.0 * math.tan(78.0 * math.pi / 256.0)
FAR_THETAS = 78.0 * math.pi / 256.0 + np.array([0.0, 1e-12, 3e-3, -1e-2])
EIGEN_KAPPAS = {"distinct": (5.0, 1.0, 1.0), "repeated": (SQRT8, 1.0, 1.0),
                "complex": (2.0, 1.0, 1.0)}


def _custom_ured():
    return GeneratingFunction("custom", *(compile_expression(t) for t in URED_EXPRESSIONS))


class TestStridedWalk:
    """The side walks take a stride of blocks per Psi' pass; the stride must not show."""

    @pytest.mark.parametrize("name, kind", [
        (name, kind) for name in ("ured", "exp", "custom") for kind in EIGEN_KAPPAS
    ] + [("ured", "far"), ("exp", "far")])
    def test_stride_does_not_show(self, monkeypatch, name, kind):
        dgf = _custom_ured() if name == "custom" else builtin_dgf(name)
        if kind == "far":
            kappa = ParamTriple(FAR_K1, FAR_K1 * FAR_K1 / 8.0, 1.0)

            def search():
                return _circle_values(system_matrix(kappa.k1, kappa.k2), _tails(dgf, 1.0),
                                      FAR_THETAS, 1e-6, _Tally())
        else:
            kappa = ParamTriple(*EIGEN_KAPPAS[kind])

            def search():
                out = global_convtime_numeric(dgf, kappa, grid_points=16)
                return out.value, out.argmax

        calls = []
        full_line = convtime._full_line

        def record(psi, blocks, loga, tol, tally):
            calls.append((psi, blocks, loga, tol))
            return full_line(psi, blocks, loga, tol, tally)

        with monkeypatch.context() as m:
            m.setattr(convtime, "_full_line", record)
            want = search()
        with monkeypatch.context() as m:
            m.setattr(convtime, "_CHUNK", 1)  # one block a pass, one row a Psi' call
            got = search()
        assert np.asarray(got).tobytes() == np.asarray(want).tobytes()

        # per row and side, at two panel levels: the grid and the last zoom round
        # (far rows come one a call)
        if kind != "far":
            calls = [calls[0], calls[-1]]
        strided = _Tally()
        for psi, blocks, loga, tol in calls:
            for level in (0, 1):
                for right in (True, False):
                    want = _integrate_side(psi, loga, blocks(level, right), tol, strided)
                    with monkeypatch.context() as m:
                        m.setattr(convtime, "_CHUNK", 1)
                        single = _Tally()
                        got = _integrate_side(psi, loga, blocks(level, right), tol, single)
                    assert single.passes == single.blocks
                    # value, error, tail term and block count; the pass records
                    # differ by construction
                    for a, b in zip(got[:4], want[:4]):
                        assert a.tobytes() == b.tobytes()
        assert strided.passes < strided.blocks

    @pytest.mark.parametrize("name", ["ured", "exp"])
    def test_stride_does_not_show_in_refined_blocks(self, monkeypatch, caplog, name):
        # at (2, 1, 1) both functions have rows over tolerance whose first
        # blocks are redone with twice the panels
        dgf = builtin_dgf(name)
        kappa = ParamTriple(2.0, 1.0, 1.0)
        full_line = convtime._full_line

        def search(chunk):
            rows = []

            def record(*args):
                rows.append(full_line(*args))
                return rows[-1]

            with monkeypatch.context() as m:
                m.setattr(convtime, "_full_line", record)
                m.setattr(convtime, "_CHUNK", chunk)
                caplog.clear()
                with caplog.at_level(logging.DEBUG, logger="ftdiff"):
                    out = global_convtime_numeric(dgf, kappa, grid_points=16)
            [log] = caplog.records
            return rows, out, log.counts

        want_rows, want, strided = search(convtime._CHUNK)
        got_rows, got, single = search(1)
        assert strided["refined"] > 0 and strided["level"] == 1
        assert single["refined"] == strided["refined"]
        assert single["passes"] == single["blocks"] > strided["passes"]
        assert len(got_rows) == len(want_rows)
        for a, b in zip(got_rows, want_rows):
            assert a.tobytes() == b.tobytes()
        assert (got.value, got.argmax) == (want.value, want.argmax)

    def test_psi_values_per_search(self, caplog):
        def counts(name, kappa):
            caplog.clear()
            with caplog.at_level(logging.DEBUG, logger="ftdiff"):
                global_convtime_numeric(builtin_dgf(name), ParamTriple(*kappa))
            [record] = caplog.records
            return record.counts

        # whole rows redone at twice the panels took 3,045,840 values; only
        # the blocks over their share are redone now
        exp = counts("exp", (2.0, 1.0, 1.0))
        assert exp["values"] <= 1_600_000
        assert exp["refined"] >= 1 and 0 < exp["refined_values"] < exp["values"]
        # nothing to refine: the walk alone, as before
        ured = counts("ured", (5.0, 1.0, 1.0))
        assert ured["values"] == 192_300  # 412,410 before the tails closed in closed form
        assert ured["refined"] == ured["refined_values"] == 0

    @pytest.mark.parametrize("kind", list(EIGEN_KAPPAS))
    def test_no_psi_call_takes_more_than_a_chunk(self, monkeypatch, ured, kind):
        sizes = []
        psi_prime_array = convtime._psi_prime_array

        def counted_psi(dgf, k3):
            psi = psi_prime_array(dgf, k3)

            def counted(z, *args, **kwargs):
                sizes.append(z.size)
                return psi(z, *args, **kwargs)

            return counted

        monkeypatch.setattr(convtime, "_psi_prime_array", counted_psi)
        global_convtime_numeric(ured, ParamTriple(*EIGEN_KAPPAS[kind]))
        assert 0 < max(sizes) <= convtime._CHUNK

    def test_block_cap_counts_blocks_not_strides(self, monkeypatch, ured):
        # the walks of ured at (5, 1, 1) need 25 to 62 blocks
        monkeypatch.setattr(convtime, "_MAX_BLOCKS", 20)
        taken = []
        distinct_blocks = convtime._distinct_blocks

        def counted_blocks(*args):
            side = distinct_blocks(*args)
            taken.append(0)
            i = len(taken) - 1

            def blocks():
                for blk in side.blocks:
                    taken[i] += 1
                    yield blk

            return side._replace(blocks=blocks())

        monkeypatch.setattr(convtime, "_distinct_blocks", counted_blocks)
        with pytest.raises(QuadratureError, match="within 20 blocks"):
            global_convtime_numeric(ured, ParamTriple(5.0, 1.0, 1.0), grid_points=16)
        assert max(taken) == 20

    def test_divergent_search_raises_promptly_on_the_default_grid(self):
        code = (
            "from ftdiff import ParamTriple, builtin_dgf, global_convtime_numeric\n"
            "from ftdiff.errors import QuadratureError\n"
            "try:\n"
            "    global_convtime_numeric(builtin_dgf('sqrt'), ParamTriple(2.0, 1.0, 1.0))\n"
            "except QuadratureError:\n"
            "    pass\n"
            "else:\n"
            "    raise SystemExit('no QuadratureError')\n"
        )
        src = str(Path(ftdiff.__file__).resolve().parents[1])
        start = time.perf_counter()
        subprocess.run([sys.executable, "-c", code], env={"PYTHONPATH": src},
                       timeout=60, check=True)
        assert time.perf_counter() - start < 3.0

    def test_divergent_estimate_raises_at_level_0(self, sqrtdgf):
        # the sums overflow in the level-0 walk; more panels cannot mend that
        with pytest.raises(QuadratureError, match="not finite .* at panel level 0"):
            global_convtime_numeric(sqrtdgf, ParamTriple(2.0, 1.0, 1.0), grid_points=8)

    def test_search_logs_its_work(self, caplog, ured):
        kappa = ParamTriple(5.0, 1.0, 1.0)
        with caplog.at_level(logging.INFO, logger="ftdiff"):
            global_convtime_numeric(ured, kappa, grid_points=16)
        assert not caplog.records
        with caplog.at_level(logging.DEBUG, logger="ftdiff"):
            global_convtime_numeric(ured, kappa, grid_points=16)
        [record] = caplog.records
        assert record.name == "ftdiff" and record.levelno == logging.DEBUG
        counts = record.counts
        # two signs of the grid, then seven zoom rounds; each call walks both sides
        assert counts["calls"] == 9 and counts["level"] == 0
        assert 2 * counts["calls"] <= counts["passes"] < counts["blocks"]
        assert counts["values"] >= 15 * counts["blocks"]
        assert counts["refined"] == counts["refined_values"] == 0
        message = record.getMessage()
        assert f"{counts['blocks']} blocks in {counts['passes']} Psi' passes" in message
        assert "0 blocks refined with 0 Psi' values" in message

    @pytest.mark.parametrize("kappa, rows, left", [((5.0, 1.0, 1.0), 72, True),
                                                   ((2.0, 1.0, 1.0), 72, False),
                                                   ((SQRT8, 1.0, 1.0), 72, False)])
    def test_record_counts_the_tails_closed_by_brackets(self, caplog, ured, kappa, rows, left):
        # 16 grid rows and seven zoom rounds of 8; every right tail closes by a
        # bracket, and every left tail of the two-exponential family
        with caplog.at_level(logging.DEBUG, logger="ftdiff"):
            out = global_convtime_numeric(ured, ParamTriple(*kappa), grid_points=16)
        [record] = caplog.records
        counts = record.counts
        assert counts["right_closed"] == rows and 0.0 < counts["right_width"]
        assert counts["right_width"] < 0.1 * out.inner_tol * rows
        if left:
            assert counts["left_closed"] == rows and 0.0 < counts["left_width"]
            assert counts["left_width"] < 0.25 * out.inner_tol * rows
        else:
            assert counts["left_closed"] == 0 and counts["left_width"] == 0.0
        assert (f"tails closed by brackets: {rows} right, half-widths summing to "
                f"{counts['right_width']:.2e}, and {counts['left_closed']} left, summing to "
                f"{counts['left_width']:.2e}") in record.getMessage()


# Psi' values per search of the benchmark's nine gain sets, 2 % above what
# they take; before the tails closed in closed form they took, in this
# order, 412,410, 416,910, 416,370, 282,180, 296,100, 384,240, 255,660,
# 1,778,160 and 1,254,960
WORK_BOUNDS = [
    ("ured", (5.0, 1.0, 1.0), 196_500), ("ured", (10.0, 1.0, 1.0), 199_500),
    ("ured", (20.0, 1.0, 1.0), 210_500), ("exp", (5.0, 1.0, 1.0), 174_500),
    ("exp", (10.0, 1.0, 1.0), 185_500), ("ured", (SQRT8, 1.0, 1.0), 337_500),
    ("exp", (SQRT8, 1.0, 1.0), 215_000), ("ured", (2.0, 1.0, 1.0), 1_530_000),
    ("exp", (2.0, 1.0, 1.0), 939_000),
]


class TestWorkCounts:
    """Deterministic counts from the search's DEBUG record, where timings drift by 2x."""

    @pytest.mark.parametrize("name, kappa, bound", WORK_BOUNDS)
    def test_benchmark_gain_sets(self, caplog, name, kappa, bound):
        with caplog.at_level(logging.DEBUG, logger="ftdiff"):
            global_convtime_numeric(builtin_dgf(name), ParamTriple(*kappa))
        [record] = caplog.records
        assert record.counts["values"] <= bound


def _tail_reference(name, kappa, h, start, right, step=4.0):
    """integral of 1/2 Psi'(h(t)) from start outward, by scipy quad on pieces `step` wide.

    Right: 60 / |slow rate| out, where |h| has fallen by e^-60, then the
    integral of its envelope; left: 40 out, then the fast mode's closed form
    of far_tail_oracle. Psi' is the built-in's.
    """
    dgf = builtin_dgf(name)
    k1, k2, k3 = kappa.k1, kappa.k2, kappa.k3
    rates = np.linalg.eigvals(np.array([[-0.5 * k1, 0.5], [-k2, 0.0]])).real
    end = start + 60.0 / -rates.max() if right else start - 40.0
    edges = np.linspace(start, end, math.ceil(abs(end - start) / step) + 1)
    total = sum(scipy.integrate.quad(lambda t: 0.5 * psi_prime(dgf, k3, h(t)), *sorted((a, c)),
                                     epsabs=1e-15, epsrel=1e-13, limit=200)[0]
                for a, c in zip(edges, edges[1:]))
    if right:
        return total + abs(h(end)) / -rates.max()
    return total + far_tail_oracle(name, k3 * abs(h(end))) / (2.0 * k3 * -rates.min())


class TestTailBrackets:
    """Each bracket that closes a tail holds the rest of it."""

    @pytest.mark.parametrize("name", ["ured", "exp"])
    def test_far_field_falls_from_past_the_peak(self, name):
        # Psi'_1 peaks at w = 4/(3 sqrt 3) for ured and at w = 1 for exp
        far = convtime._far_field(builtin_dgf(name))
        peak = math.log(4.0 / (3.0 * math.sqrt(3.0)) if name == "ured" else 1.0)
        assert far.edges[far.first] - convtime._FAR_STEP < peak <= far.edges[far.first]
        assert far.rest[0] == pytest.approx(math.pi, abs=1e-11)

    @pytest.mark.parametrize("name", ["ured", "exp", "custom"])
    @pytest.mark.parametrize("b, sign", [(1e-3, 1.0), (1.0, -1.0), (1e3, 1.0), (1e3, -1.0)])
    @pytest.mark.parametrize("right", [True, False])
    def test_two_exponential_tails(self, name, b, sign, right):
        pytest.importorskip("scipy.integrate")
        dgf = _custom_ured() if name == "custom" else builtin_dgf(name)
        kappa = ParamTriple(5.0, 1.0, 1.5)
        lam1, lam2 = (lam.real for lam in system_matrix(kappa.k1, kappa.k2).eigenvalues)

        def h(t):
            return b * (math.exp(lam1 * t) + sign * math.exp(lam2 * t))

        side = convtime._distinct_blocks(_tails(dgf, kappa.k3), lam1, lam2, sign, 0, right)
        # ured written as expressions has ured's tails, from its own tables
        self._check("exp" if name == "exp" else "ured", kappa, side, math.log(b), h,
                    lambda key: key[0] + key[1])

    @pytest.mark.parametrize("name", ["ured", "exp"])
    @pytest.mark.parametrize("k1", [2.0, SQRT8])
    @pytest.mark.parametrize("theta", [0.3, 2.0])
    def test_complex_and_repeated_right_tails(self, name, k1, theta):
        pytest.importorskip("scipy.integrate")
        dgf = builtin_dgf(name)
        kappa = ParamTriple(k1, 1.0, 1.5)
        sys_ = system_matrix(kappa.k1, kappa.k2)
        c1, c2 = convtime._coefficients(sys_, math.cos(theta), math.sin(theta))
        tails = _tails(dgf, kappa.k3)
        if sys_.kind == "complex":
            # E(s) = e^(mu s/omega) cos s, with s = omega t - phase measured from 0
            om = sys_.omega
            shift = math.atan2(c2, c1) / om
            la = math.log(math.hypot(c1, c2)) + sys_.mu * shift
            side = convtime._complex_blocks(tails, sys_.mu, om, 0, True)
            end, step = (lambda key: (key + math.pi) / om), 0.5 * math.pi / om
        else:
            # E(t) = t e^(lam t), t measured from the zero -c1/c2
            shift = -c1 / c2
            la = math.log(abs(c2)) + sys_.lam1 * shift
            side = convtime._repeated_blocks(tails, sys_.lam1, 0, True)
            end, step = (lambda key: key[0] + key[1]), 4.0
        # h from numpy's eigenvectors, or the Jordan form at a repeated eigenvalue
        a = np.array([[-0.5 * k1, 0.5], [-1.0, 0.0]])
        v = np.array([math.cos(theta), math.sin(theta)])
        if sys_.kind == "complex":
            lam, vecs = np.linalg.eig(a)
            coef = vecs[0] * np.linalg.solve(vecs, v.astype(complex))

            def h(t):
                return (coef * np.exp(lam * (t + shift))).sum().real
        else:
            rate = 0.5 * float(np.trace(a))
            slope = float(((a - rate * np.eye(2)) @ v)[0])

            def h(t):
                return math.exp(rate * (t + shift)) * (v[0] + slope * (t + shift))

        self._check(name, kappa, side, la, h, end, step)

    @staticmethod
    def _check(name, kappa, side, la, h, end, step=4.0):
        # each block past which the bracket is narrower than 1e-4, up to the one
        # that closes the tail; a graded first block (key None) has no simple end
        share = (0.1 if side.right else 0.25) * 1e-6
        checked = 0
        for key, d in itertools.islice(side.blocks, 300):
            half = side.bracket.half(np.array([[la]]), np.array([d]))[0, 0]
            if key is None or not half < 1e-4:
                continue
            mid, width = side.bracket.close(np.array([la]), np.array([d]), _Tally())
            start = end(key) if side.right else -end(key)
            want = _tail_reference(name, kappa, h, start, side.right, step)
            assert abs(mid[0] - want) <= width[0] + 1e-13
            checked += 1
            if half < share:
                break
        assert checked


class TestPsiPrimeArray:
    @pytest.mark.parametrize("name", ["sqrt", "ured", "exp", "custom"])
    def test_matches_scalar_on_log_grid(self, name):
        # the scalar psi_prime is one element of the array form, bit for bit
        dgf = _custom_ured() if name == "custom" else builtin_dgf(name)
        k3 = 1.7
        z = np.logspace(-300.0, 300.0, 601)
        got = _psi_prime_array(dgf, k3)(z)
        want = [g.hex() for g in got.tolist()]
        assert [psi_prime(dgf, k3, zi).hex() for zi in z.tolist()] == want

    def test_exp_subnormal(self):
        # 1/w overflows below w ~ 5.6e-309, which made the slope 0 there
        dgf = builtin_dgf("exp")
        z = 5e-324
        got = psi_prime(dgf, 1.7, z)
        assert got == _psi_prime_array(dgf, 1.7)(np.array([z]))[0]
        assert 0.0 < got and abs(got - 2.0 * z) <= 5e-324

    @pytest.mark.parametrize("name", ["sqrt", "ured", "exp", "custom"])
    def test_zero_at_origin_and_infinity(self, name):
        dgf = (GeneratingFunction(name, *(compile_expression(t) for t in URED_EXPRESSIONS))
               if name == "custom" else builtin_dgf(name))
        got = _psi_prime_array(dgf, 1.7)(np.array([0.0, math.inf]))
        assert list(got) == [0.0, 0.0]
        assert [psi_prime(dgf, 1.7, z) for z in (0.0, math.inf, -math.inf)] == [0.0, 0.0, 0.0]
