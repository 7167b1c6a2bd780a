import math

import mpmath
import numpy as np
import pytest

from ftdiff._quad import adaptive_simpson, golden_max
from ftdiff.convtime import single_exp_reduction
from ftdiff.dgf import GeneratingFunction
from ftdiff.errors import QuadratureError


def b_route(dgf, upper=None, *, tol=1e-9):
    """integral_0^upper dx/phi(x) off the Psi'_1 table of dgf, its error estimate within tol.

    single_exp_reduction at k3 = 1, lam = -1 and c = phi(upper) is that
    integral; the whole line (upper None or inf) is B, divergence probe
    included.
    """
    with np.errstate(over="ignore"):  # phi(upper) may overflow: the whole line then
        c = math.inf if upper is None else dgf.phi(upper)
    return single_exp_reduction(dgf, 1.0, -1.0, c, tol=tol)


def root_solved(dgf):
    """dgf without its inverse and closed-form slopes: Psi'_1 from the array root solve."""
    return GeneratingFunction(dgf.name, dgf.phi, dgf.phi_prime, dgf.phi_second)


class TestAdaptiveSimpson:
    def test_polynomial_exact(self):
        val = adaptive_simpson(lambda x: x * x, 0.0, 1.0, 1e-12)
        assert val == pytest.approx(1.0 / 3.0, abs=1e-12)

    def test_sine(self):
        val = adaptive_simpson(math.sin, 0.0, math.pi, 1e-10)
        assert val == pytest.approx(2.0, abs=1e-9)

    def test_empty_interval(self):
        assert adaptive_simpson(math.sin, 1.0, 1.0, 1e-10) == 0.0

    def test_boundary_layer(self):
        # integrand with a sharp but integrable layer at the left endpoint
        val = adaptive_simpson(lambda x: 1.0 / math.sqrt(x + 1e-8), 0.0, 1.0, 1e-9)
        exact = 2.0 * (math.sqrt(1.0 + 1e-8) - 1e-4)
        assert val == pytest.approx(exact, rel=1e-7)

    def test_discontinuity_without_floor_raises(self):
        f = lambda x: 0.0 if x < 1.0 / 3.0 else 1.0
        with pytest.raises(QuadratureError):
            adaptive_simpson(f, 0.0, 1.0, 1e-12)

    def test_discontinuity_with_floor_converges(self):
        f = lambda x: 0.0 if x < 1.0 / 3.0 else 1.0
        val = adaptive_simpson(f, 0.0, 1.0, 1e-12, floor=1e-9)
        assert val == pytest.approx(2.0 / 3.0, abs=1e-6)


class TestGoldenMax:
    def test_interior_maximum(self):
        arg, val = golden_max(lambda x: -((x - 2.0) ** 2), 0.0, 5.0)
        assert arg == pytest.approx(2.0, abs=1e-7)
        assert val == pytest.approx(0.0, abs=1e-12)

    def test_edge_maximum(self):
        arg, val = golden_max(lambda x: x, 0.0, 3.0)
        assert arg == pytest.approx(3.0, abs=1e-6)
        assert val == pytest.approx(3.0, abs=1e-6)


class TestReciprocalIntegral:
    """integral_0^upper dx/phi on b_route, against closed forms and mpmath."""

    def test_ured_full_line_is_pi(self, ured):
        # integral_0^inf dx / (sqrt(x)(1+x)) = pi
        for dgf in (ured, root_solved(ured)):
            val = b_route(dgf, None, tol=1e-10)
            assert val == pytest.approx(math.pi, rel=1e-9)

    def test_ured_partial(self, ured):
        # integral_0^1 dx / (sqrt(x)(1+x)) = 2 atan(1) = pi/2
        for dgf in (ured, root_solved(ured)):
            val = b_route(dgf, 1.0, tol=1e-10)
            assert val == pytest.approx(math.pi / 2.0, rel=1e-9)

    def test_exp_full_line_is_pi(self, expdgf):
        # integral_0^inf dx / sqrt(e^x - 1) = pi
        for dgf in (expdgf, root_solved(expdgf)):
            val = b_route(dgf, None, tol=1e-10)
            assert val == pytest.approx(math.pi, rel=1e-9)

    def test_sqrt_partial(self, sqrtdgf):
        # integral_0^4 dx / sqrt(x) = 4
        for dgf in (sqrtdgf, root_solved(sqrtdgf)):
            val = b_route(dgf, 4.0, tol=1e-10)
            assert val == pytest.approx(4.0, rel=1e-9)

    def test_sqrt_full_line_diverges(self, sqrtdgf):
        with pytest.raises(QuadratureError):
            b_route(sqrtdgf, None, tol=1e-8)

    def test_linear_tail_diverges(self):
        # phi(x) = x: the tail of 1/x is logarithmic
        linear = GeneratingFunction("linear", lambda x: x, lambda x: 0.0 * x + 1.0,
                                    lambda x: 0.0 * x)
        with pytest.raises(QuadratureError):
            b_route(linear, None, tol=1e-8)

    # Phi(x) = sign(x)(sqrt|x| + |x|^a): with x = t^2 the integral up to U is
    # that of 2/(1 + t^(2a-1)) up to sqrt U, 2T 2F1(1, 1/p; 1 + 1/p; -T^p) with
    # p = 2a - 1 and T = sqrt U, and (2pi/p)/sin(pi/p) over the whole line
    UPPERS = [None] + [10.0 ** k for k in range(-300, 301, 20)]

    @staticmethod
    def _power_reference(a, upper):
        with mpmath.workdps(40):
            p = mpmath.mpf(2 * a - 1)
            if upper is None:
                return float(2 * (mpmath.pi / p) / mpmath.sin(mpmath.pi / p))
            t = mpmath.sqrt(mpmath.mpf(upper))
            return float(2 * t * mpmath.hyp2f1(1, 1 / p, 1 + 1 / p, -t ** p))

    @pytest.mark.parametrize("a", [1.1, 1.5, 3.0])
    def test_power_tails_against_mpmath(self, a):
        # the callables take arrays; phi'' is not read
        phi = lambda x: np.sign(x) * (np.sqrt(np.abs(x)) + np.abs(x) ** a)
        phi_prime = lambda x: 0.5 / np.sqrt(np.abs(x)) + a * np.abs(x) ** (a - 1.0)
        power = GeneratingFunction(f"power {a}", phi, phi_prime, phi_prime)
        for upper in self.UPPERS:
            want = self._power_reference(a, upper)
            got = b_route(power, upper, tol=1e-10)
            assert abs(got - want) <= 1e-10 * want, (upper, got, want)

    def test_exp_against_mpmath(self, expdgf):
        # integral_0^U dx / sqrt(e^x - 1) = 2 atan(sqrt(e^U - 1)); the callables
        # take floats only
        floats_only = root_solved(expdgf)
        for upper in self.UPPERS:
            with mpmath.workdps(40):
                want = float(mpmath.pi if upper is None else
                             2 * mpmath.atan(mpmath.sqrt(mpmath.expm1(mpmath.mpf(upper)))))
            got = b_route(floats_only, upper, tol=1e-10)
            assert abs(got - want) <= 1e-10 * want, (upper, got, want)

    def test_nan_past_overflow_counts_as_overflow(self):
        # ured written so that phi and phi' are inf/inf = nan far out, as
        # softened overflow in an expression can be
        def soft(x):
            return np.exp(np.abs(x) / 1e300) / np.exp(np.abs(x) / 1e300)

        phi = lambda x: np.sign(x) * np.sqrt(np.abs(x)) * (1.0 + np.abs(x)) * soft(x)
        phi_prime = lambda x: (0.5 / np.sqrt(np.abs(x)) + 1.5 * np.sqrt(np.abs(x))) * soft(x)
        with np.errstate(over="ignore", invalid="ignore"):
            assert math.isnan(phi(np.array([1e308]))[0])
        soft_ured = GeneratingFunction("soft ured", phi, phi_prime, phi_prime)
        assert b_route(soft_ured, None, tol=1e-10) == pytest.approx(math.pi, rel=1e-12)

    def test_infinite_upper_is_the_whole_line(self, ured, sqrtdgf):
        assert b_route(ured, math.inf) == b_route(ured)
        with pytest.raises(QuadratureError):
            b_route(sqrtdgf, math.inf)
