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

import ftdiff
from ftdiff.convtime import (
    GlobalConvtime,
    _circle_values,
    _delta0,
    _psi_prime_array,
    _psi_prime_closure,
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
    invert_phi,
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
        got = _circle_values(system_matrix(kappa.k1, kappa.k2), _psi_prime_array(ured, 1.0),
                             np.array([theta]), 1e-6, math.log(_delta0(ured, 1.0)))
        want = full_line_oracle(ured, kappa, theta, lo=-300.0, hi=120.0)
        assert abs(got[0] - want) <= 1e-6

    def test_custom_expression_matches_builtin(self, ured):
        custom = GeneratingFunction(
            "custom", *(compile_expression(t) for t in URED_EXPRESSIONS))
        kappa = ParamTriple(SQRT8, 1.0, 1.0)
        got = global_convtime_numeric(custom, kappa, grid_points=4)
        want = global_convtime_numeric(ured, kappa, grid_points=4)
        assert abs(got.value - want.value) <= got.inner_tol

    def test_divergent_left_tail_raises(self, sqrtdgf):
        # sqrt has no uniform bound: the left tail grows without end
        with pytest.raises(QuadratureError):
            global_convtime_numeric(sqrtdgf, ParamTriple(2.0, 1.0, 1.0),
                                    grid_points=8)


class TestPsiPrimeArray:
    @pytest.mark.parametrize("name", ["sqrt", "ured", "exp"])
    def test_matches_scalar_on_log_grid(self, name):
        dgf = builtin_dgf(name)
        k3 = 1.7
        z = np.logspace(-300.0, 300.0, 601)
        got = _psi_prime_array(dgf, k3)(z)
        for zi, gi in zip(z.tolist(), got):
            x = abs(invert_phi(dgf, k3 * zi))
            if sys.float_info.min <= x < math.inf:
                assert gi == pytest.approx(psi_prime(dgf, k3, zi), rel=1e-13, abs=0.0)
            else:
                # the scalar route's preimage leaves the float range; the
                # square-root behavior at zero (sqrt: everywhere) gives 2|z|
                assert gi == pytest.approx(2.0 * zi, rel=1e-13, abs=0.0)

    @pytest.mark.parametrize("name", ["sqrt", "ured", "exp"])
    def test_zero_at_origin_and_infinity(self, name):
        dgf = builtin_dgf(name)
        scalar = _psi_prime_closure(dgf, 1.7)
        got = _psi_prime_array(dgf, 1.7)(np.array([0.0, math.inf]))
        assert list(got) == [0.0, 0.0]
        assert [scalar(z) for z in (0.0, math.inf, -math.inf)] == [0.0, 0.0, 0.0]
