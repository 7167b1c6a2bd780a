import math

import numpy as np
import pytest

from ftdiff._quad import (_array_form, _log_axis_integral, _x_over_phi, adaptive_simpson,
                          golden_max)
from ftdiff.dgf import GeneratingFunction, _reciprocal_to
from ftdiff.errors import QuadratureError


def b_route(phi, upper=None, *, tol=1e-9):
    """integral_0^upper dx/phi(x) on B's route for a function without a closed-form slope.

    The whole line (upper None or inf) is _reciprocal_to of a function
    with phi alone, divergence probe included; finite uppers are the same
    log-axis pass of x/phi(x), cut at log(upper).
    """
    if upper is None or upper == math.inf:
        bare = GeneratingFunction("bare", phi, phi, phi)  # only phi is read
        return _reciprocal_to(bare, upper, tol).value
    return _log_axis_integral(_x_over_phi(_array_form(phi)), math.log(upper), tol).value


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
        val = b_route(ured.phi, None, tol=1e-10)
        assert val == pytest.approx(math.pi, rel=1e-9)

    def test_ured_partial(self, ured):
        # integral_0^1 dx / (sqrt(x)(1+x)) = 2 atan(1) = pi/2
        val = b_route(ured.phi, 1.0, tol=1e-10)
        assert val == pytest.approx(math.pi / 2.0, rel=1e-9)

    def test_exp_full_line_is_pi(self, expdgf):
        # integral_0^inf dx / sqrt(e^x - 1) = pi
        val = b_route(expdgf.phi, None, tol=1e-10)
        assert val == pytest.approx(math.pi, rel=1e-9)

    def test_sqrt_partial(self, sqrtdgf):
        # integral_0^4 dx / sqrt(x) = 4
        val = b_route(sqrtdgf.phi, 4.0, tol=1e-10)
        assert val == pytest.approx(4.0, rel=1e-9)

    def test_sqrt_full_line_diverges(self, sqrtdgf):
        with pytest.raises(QuadratureError):
            b_route(sqrtdgf.phi, None, tol=1e-8)

    def test_linear_tail_diverges(self):
        # phi(x) = x: the tail of 1/x is logarithmic
        with pytest.raises(QuadratureError):
            b_route(lambda x: x, None, tol=1e-8)

    # Phi(x) = sign(x)(sqrt|x| + |x|^a): with x = t^2 the integral up to U is
    # that of 2/(1 + t^(2a-1)) up to sqrt U, 2T 2F1(1, 1/p; 1 + 1/p; -T^p) with
    # p = 2a - 1 and T = sqrt U, and (2pi/p)/sin(pi/p) over the whole line
    UPPERS = [None] + [10.0 ** k for k in range(-300, 301, 20)]

    @staticmethod
    def _power_reference(a, upper):
        mpmath = pytest.importorskip("mpmath")
        with mpmath.workdps(40):
            p = mpmath.mpf(2 * a - 1)
            if upper is None:
                return float(2 * (mpmath.pi / p) / mpmath.sin(mpmath.pi / p))
            t = mpmath.sqrt(mpmath.mpf(upper))
            return float(2 * t * mpmath.hyp2f1(1, 1 / p, 1 + 1 / p, -t ** p))

    @pytest.mark.parametrize("a", [1.1, 1.5, 3.0])
    def test_power_tails_against_mpmath(self, a):
        phi = lambda x: np.sign(x) * (np.sqrt(np.abs(x)) + np.abs(x) ** a)  # takes arrays
        for upper in self.UPPERS:
            want = self._power_reference(a, upper)
            got = b_route(phi, upper, tol=1e-10)
            assert abs(got - want) <= 1e-10 * want, (upper, got, want)

    def test_exp_against_mpmath(self, expdgf):
        # integral_0^U dx / sqrt(e^x - 1) = 2 atan(sqrt(e^U - 1)); phi takes floats only
        mpmath = pytest.importorskip("mpmath")
        for upper in self.UPPERS:
            with mpmath.workdps(40):
                want = float(mpmath.pi if upper is None else
                             2 * mpmath.atan(mpmath.sqrt(mpmath.expm1(mpmath.mpf(upper)))))
            got = b_route(expdgf.phi, upper, tol=1e-10)
            assert abs(got - want) <= 1e-10 * want, (upper, got, want)

    def test_nan_past_overflow_counts_as_overflow(self):
        # ured written so that phi is inf/inf = nan far out, as softened
        # overflow in an expression can be
        phi = lambda x: (np.sign(x) * np.sqrt(np.abs(x)) * (1.0 + np.abs(x))
                         * np.exp(np.abs(x) / 1e300) / np.exp(np.abs(x) / 1e300))
        with np.errstate(over="ignore", invalid="ignore"):
            assert math.isnan(phi(np.array([1e308]))[0])
        assert b_route(phi, None, tol=1e-10) == pytest.approx(math.pi, rel=1e-12)

    def test_infinite_upper_is_the_whole_line(self, ured, sqrtdgf):
        assert b_route(ured.phi, math.inf) == b_route(ured.phi)
        with pytest.raises(QuadratureError):
            b_route(sqrtdgf.phi, math.inf)
