import dataclasses
import decimal
import logging
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ftdiff import dgf as dgf_module
from ftdiff.convtime import t0_exact
from ftdiff.dgf import (
    AdmissibilityConstants,
    GeneratingFunction,
    ParamTriple,
    ScaledFamily,
    _array_form,
    _invert_phi_array,
    _psi_prime_array,
    builtin_dgf,
    builtin_names,
    check_dgf,
    compute_admissibility,
    invert_phi,
    nu1,
    nu2,
    psi_prime,
    spow,
)
from ftdiff.errors import (
    InversionRangeError,
    NotAdmissibleError,
    SetValuedPointError,
)
from ftdiff.expr import compile_expression

nonzero = st.floats(min_value=1e-8, max_value=1e8).map(lambda v: v)
signed = st.floats(min_value=-1e8, max_value=1e8, allow_nan=False)


def test_spow_values():
    assert spow(4.0, 0.5) == 2.0
    assert spow(-4.0, 0.5) == -2.0
    assert spow(0.0, 0.5) == 0.0
    assert spow(0.0, 0.0) == 0.0
    assert spow(3.0, 0.0) == 1.0
    assert spow(-3.0, 0.0) == -1.0
    assert spow(-2.0, 3.0) == -8.0


class TestParamTriple:
    def test_accepts_positive(self):
        t = ParamTriple(1.0, 2.0, 3.0)
        assert (t.k1, t.k2, t.k3) == (1.0, 2.0, 3.0)

    @pytest.mark.parametrize("bad", [0.0, -1.0, math.nan, math.inf])
    def test_rejects_nonpositive(self, bad):
        with pytest.raises(ValueError):
            ParamTriple(bad, 1.0, 1.0)
        with pytest.raises(ValueError):
            ParamTriple(1.0, bad, 1.0)
        with pytest.raises(ValueError):
            ParamTriple(1.0, 1.0, bad)


class TestAdmissibilityConstants:
    def test_d_below_one_rejected(self):
        with pytest.raises(ValueError):
            AdmissibilityConstants(B=1.0, C=1.0, D=0.5, exact=False)

    @pytest.mark.parametrize("field", ["B", "C"])
    def test_nonpositive_rejected(self, field):
        kwargs = {"B": 1.0, "C": 1.0, "D": 1.0, "exact": False}
        kwargs[field] = 0.0
        with pytest.raises(ValueError):
            AdmissibilityConstants(**kwargs)


class TestBuiltins:
    def test_names(self):
        assert set(builtin_names()) == {"sqrt", "ured", "exp"}

    def test_unknown_raises(self):
        with pytest.raises(KeyError):
            builtin_dgf("nope")

    def test_ured_point_values(self, ured):
        assert ured.phi(4.0) == pytest.approx(10.0, rel=1e-15)
        assert ured.phi(0.25) == pytest.approx(0.625, rel=1e-15)
        assert ured.phi(0.0) == 0.0
        # phi' = 1/(2 sqrt x) + 1.5 sqrt x
        assert ured.phi_prime(1.0) == pytest.approx(2.0, rel=1e-15)
        assert ured.phi_prime(4.0) == pytest.approx(0.25 + 3.0, rel=1e-15)

    def test_exp_point_values(self, expdgf):
        assert expdgf.phi(math.log(2.0)) == pytest.approx(1.0, rel=1e-14)
        assert expdgf.phi(0.0) == 0.0
        # phi'(x) = e^x / (2 sqrt(e^x - 1))
        assert expdgf.phi_prime(math.log(2.0)) == pytest.approx(1.0, rel=1e-14)

    def test_sqrt_point_values(self, sqrtdgf):
        assert sqrtdgf.phi(9.0) == 3.0
        assert sqrtdgf.phi(-9.0) == -3.0
        assert sqrtdgf.phi_prime(4.0) == 0.25

    @pytest.mark.parametrize("name", ["sqrt", "ured", "exp"])
    @given(x=st.floats(min_value=1e-10, max_value=1e10))
    @settings(max_examples=60, deadline=None)
    def test_oddness(self, name, x):
        dgf = builtin_dgf(name)
        assert dgf.phi(-x) == -dgf.phi(x)
        assert dgf.phi_prime(-x) == dgf.phi_prime(x)
        assert dgf.phi_second(-x) == -dgf.phi_second(x)

    @pytest.mark.parametrize("name", ["sqrt", "ured", "exp"])
    def test_derivatives_match_finite_differences(self, name):
        dgf = builtin_dgf(name)
        for x in (0.01, 0.3, 1.0, 2.5, 17.0):
            h = 1e-6 * x
            fd1 = (dgf.phi(x + h) - dgf.phi(x - h)) / (2.0 * h)
            assert fd1 == pytest.approx(dgf.phi_prime(x), rel=1e-8)
            fd2 = (dgf.phi_prime(x + h) - dgf.phi_prime(x - h)) / (2.0 * h)
            assert fd2 == pytest.approx(dgf.phi_second(x), rel=1e-6)

    def test_exp_large_argument_branches(self, expdgf):
        # asymptotic branches must join continuously with the exact forms
        for x in (349.9, 350.1, 699.9, 700.1):
            assert expdgf.phi_prime(x) > 0.0
            assert math.isfinite(expdgf.phi_second(x))
        r = expdgf.phi_second(350.1) / expdgf.phi_second(349.9)
        assert r == pytest.approx(math.exp(0.1), rel=1e-3)
        assert expdgf.phi(1500.0) == math.inf
        assert expdgf.phi(-1500.0) == -math.inf


def _ured_root_60_digits(w: float) -> decimal.Decimal:
    """The root s of s^3 + s = w, by Newton's method at 60 digits."""
    with decimal.localcontext() as ctx:
        ctx.prec = 60
        wd = decimal.Decimal(w)
        s = decimal.Decimal(w ** (1.0 / 3.0) if w > 1.0 else w)
        for _ in range(100):
            step = (s * s * s + s - wd) / (3 * s * s + 1)
            s -= step
            if abs(step) <= s * decimal.Decimal("1e-50"):
                break
        return s


def _ured_slope_60_digits(w: float) -> decimal.Decimal:
    """2s/(1 + 3s^2) with s^3 + s = w, at 60 digits."""
    with decimal.localcontext() as ctx:
        ctx.prec = 60
        s = _ured_root_60_digits(w)
        return 2 * s / (1 + 3 * s * s)


class TestUredInverseSlope:
    # every finite w > 0: 3,000 log-spaced points, subnormals, both ends of the
    # float range, and both sides of the switches to the series forms
    W = np.concatenate([np.logspace(-300.0, math.log10(1.7e308), 3000),
                        np.logspace(-323.0, -308.0, 16),
                        [5e-324, 2.2250738585072014e-308, 1e-150, 1.0000000000000002e-150,
                         1e25, 1.0000000000000002e25, 6.9e307, 1.7976931348623157e308]])

    def test_within_1e_14_of_a_60_digit_root(self):
        got = dgf_module._ured_inverse_slope(self.W.copy())
        assert np.isfinite(got).all() and (got > 0.0).all()
        worst = max(abs(decimal.Decimal(g) / _ured_slope_60_digits(w) - 1)
                    for w, g in zip(self.W.tolist(), got.tolist()))
        assert worst <= decimal.Decimal("1e-14")

    @pytest.mark.parametrize("name", ["sqrt", "ured", "exp"])
    def test_out_form_matches(self, name):
        slope = builtin_dgf(name)._inverse_slope
        w = np.concatenate([[0.0], self.W])
        out = np.empty_like(w)
        with np.errstate(over="ignore"):  # sqrt's 2w at the top of the range
            want = slope(w)
            assert w.tobytes() == np.concatenate([[0.0], self.W]).tobytes()  # w is kept
            assert slope(w.copy(), out) is out
        assert out.tobytes() == want.tobytes()
        assert want[0] == 0.0


class TestInversion:
    @pytest.mark.parametrize("name", ["sqrt", "ured", "exp"])
    @given(data=st.data())
    @settings(max_examples=60, deadline=None)
    def test_round_trip(self, name, data):
        dgf = builtin_dgf(name)
        # exp overflows past x = 1419: nothing to invert beyond that
        cap = 1419.0 if name == "exp" else 1e12
        x = data.draw(st.floats(min_value=1e-12, max_value=cap))
        z = dgf.phi(x)
        assert math.isfinite(z)
        back = invert_phi(dgf, z)
        assert back == pytest.approx(x, rel=1e-10)
        assert invert_phi(dgf, -z) == pytest.approx(-x, rel=1e-10)

    def test_ured_inverse_within_1e_14_of_a_60_digit_root(self, ured):
        # phi^-1(z) = s^2 up to the largest float, where s^3 overflows; relative
        # while s^2 is a normal float (z above about 1.5e-154), absolute below
        zs = np.concatenate([np.logspace(-300.0, math.log10(1.7e308), 1200),
                             [1e100, 1.0000000000000002e100, 1.5e308, 1.7976931348623157e308]])
        worst = decimal.Decimal(0)
        for z in zs.tolist():
            x = invert_phi(ured, z)
            assert invert_phi(ured, -z) == -x
            with decimal.localcontext() as ctx:
                ctx.prec = 60
                want = _ured_root_60_digits(z) ** 2
                scale = max(want, decimal.Decimal(2.2250738585072014e-308))
                worst = max(worst, abs(decimal.Decimal(x) - want) / scale)
        assert worst <= decimal.Decimal("1e-14")

    def test_ured_cardano_extremes(self, ured):
        for z in (1e-300, 1e-20, 1e-3, 0.9, 3.0, 1e80, 1e120, 1e200):
            x = invert_phi(ured, z)
            assert ured.phi(x) == pytest.approx(z, rel=1e-12)
        assert invert_phi(ured, 0.0) == 0.0

    def test_generic_route_matches_closed_form(self, ured):
        # same map without its closed-form inverse exercises the bracketed solve
        bare = GeneratingFunction(
            name="bare",
            phi=ured.phi,
            phi_prime=ured.phi_prime,
            phi_second=ured.phi_second,
        )
        for z in (1e-9, 1e-2, 1.0, 7.0, 1e5, 1e12):
            assert invert_phi(bare, z) == pytest.approx(
                invert_phi(ured, z), rel=1e-10)
            assert invert_phi(bare, -z) == pytest.approx(
                invert_phi(ured, -z), rel=1e-10)

    def test_bounded_map_out_of_range(self):
        capped = GeneratingFunction(
            name="capped",
            phi=lambda x: math.tanh(x),
            phi_prime=lambda x: 1.0 / math.cosh(x) ** 2,
            phi_second=lambda x: -2.0 * math.tanh(x) / math.cosh(x) ** 2,
        )
        with pytest.raises(InversionRangeError):
            invert_phi(capped, 2.0)

    def test_target_beyond_the_float_range_raises(self):
        # exp written as expressions has no inverse; its phi overflows past
        # x = 709.78, where it is 1.3e154, so no float x reaches these targets
        custom = GeneratingFunction("custom", *(compile_expression(t) for t in EXP_EXPRESSIONS))
        for w in (1e200, 1e155, 1.5e154):
            with pytest.raises(InversionRangeError):
                invert_phi(custom, w)
            with pytest.raises(InversionRangeError):
                invert_phi(custom, -w)
        for w in (1e100, 1e154, 1.3e154):
            assert invert_phi(custom, w) == pytest.approx(
                invert_phi(builtin_dgf("exp"), w), rel=2e-13)

    @pytest.mark.parametrize("name", ["ured", "exp"])
    def test_roots_on_bracket_points(self, name):
        # 8^k lies on the root solve's x ladder, so the target is phi at a
        # bracket end; the root is that end, not the one below it
        exprs = URED_EXPRESSIONS if name == "ured" else EXP_EXPRESSIONS
        custom = GeneratingFunction("custom", *(compile_expression(t) for t in exprs))
        for k in range(-3, 4):
            x = 8.0 ** k
            for sign in (1.0, -1.0):
                got = invert_phi(custom, sign * custom.phi(x))
                assert abs(got - sign * x) <= 2e-13 * x, (k, sign, got)

    def test_tiny_roots_are_relative(self):
        # the root 1e-307 lies below the old absolute floor of 1e-313 per step
        custom = GeneratingFunction("custom", *(compile_expression(t) for t in URED_EXPRESSIONS))
        x = invert_phi(custom, 3.1622776601683795e-154)
        assert abs(x - 1e-307) <= 1e-13 * 1e-307
        assert invert_phi(custom, -3.1622776601683795e-154) == -x


class TestInjections:
    @given(x=st.floats(min_value=1e-9, max_value=1e9),
           k3=st.floats(min_value=1e-3, max_value=1e3))
    @settings(max_examples=60, deadline=None)
    def test_sqrt_recovers_super_twisting(self, sqrtdgf, x, k3):
        # nu1 = sign(x) sqrt(|x|) and nu2 = sign(x), independent of k3
        assert nu1(sqrtdgf, k3, x) == pytest.approx(math.sqrt(x), rel=1e-12)
        assert nu1(sqrtdgf, k3, -x) == pytest.approx(-math.sqrt(x), rel=1e-12)
        assert nu2(sqrtdgf, k3, x) == pytest.approx(1.0, rel=1e-12)
        assert nu2(sqrtdgf, k3, -x) == pytest.approx(-1.0, rel=1e-12)

    def test_nu2_set_valued_at_zero(self, ured):
        with pytest.raises(SetValuedPointError):
            nu2(ured, 1.0, 0.0)

    def test_bad_k3(self, ured):
        for k3 in (0.0, -1.0, math.inf, math.nan):
            with pytest.raises(ValueError):
                nu1(ured, k3, 1.0)

    def test_nu1_definition(self, ured):
        k3 = 2.0
        for x in (0.5, -3.0, 10.0):
            assert nu1(ured, k3, x) == pytest.approx(
                ured.phi(k3 * k3 * x) / k3, rel=1e-15)

    def test_nu2_definition(self, expdgf):
        k3 = 1.5
        for x in (0.5, -3.0):
            u = k3 * k3 * x
            want = 2.0 * expdgf.phi(u) * expdgf.phi_prime(u)
            assert nu2(expdgf, k3, x) == pytest.approx(want, rel=1e-15)


class TestPsiPrime:
    def test_zero_at_origin(self, ured):
        assert psi_prime(ured, 3.0, 0.0) == 0.0

    @pytest.mark.parametrize("name", ["sqrt", "ured", "exp"])
    @pytest.mark.parametrize("z", [math.inf, -math.inf])
    def test_zero_at_infinity(self, name, z):
        # the same continuous extension as at the origin, for every built-in
        assert psi_prime(builtin_dgf(name), 1.7, z) == 0.0

    @pytest.mark.parametrize("name", ["ured", "exp"])
    def test_even(self, name):
        dgf = builtin_dgf(name)
        for z in (1e-6, 0.3, 2.0, 50.0):
            assert psi_prime(dgf, 2.0, z) == psi_prime(dgf, 2.0, -z)

    @pytest.mark.parametrize("name", ["ured", "exp"])
    def test_matches_inverse_derivative(self, name):
        # Psi(z) = phi^2-scaled inverse; its slope must match 1/(k3 phi'(...))
        dgf = builtin_dgf(name)
        k3 = 1.7
        for z in (0.05, 0.4, 1.3, 9.0):
            h = 1e-6 * z
            psi = lambda v: invert_phi(dgf, k3 * v) / (k3 * k3)
            fd = (psi(z + h) - psi(z - h)) / (2.0 * h)
            assert psi_prime(dgf, k3, z) == pytest.approx(fd, rel=1e-7)

    @pytest.mark.parametrize("name,C", [("ured", 1.0 / math.sqrt(3.0)), ("exp", 1.0)])
    def test_bounded_by_c_over_k3(self, name, C):
        # admissibility item (ii) caps the inverse slope at C / k3
        dgf = builtin_dgf(name)
        for k3 in (0.5, 1.0, 4.0):
            sup = max(psi_prime(dgf, k3, z)
                      for z in [10.0 ** e for e in range(-9, 10)])
            assert sup <= C / k3 * (1.0 + 1e-9)

    @pytest.mark.parametrize("name", ["sqrt", "ured", "exp"])
    @pytest.mark.parametrize("z", [1e-300, 1e-170, 1e200])
    def test_extreme_magnitudes(self, name, z):
        # where the preimage Phi^-1(k3 |z|) underflows (ured, exp) or
        # overflows (sqrt), the asymptotic closed forms still hold
        dgf = builtin_dgf(name)
        k3 = 1.7
        want = 2.0 * z  # Phi ~ sqrt near zero; sqrt everywhere
        if z > 1.0 and name == "ured":
            want = 2.0 / (3.0 * k3 * (k3 * z) ** (1.0 / 3.0))  # 1/Phi'(s^2) ~ 2/(3s)
        elif z > 1.0 and name == "exp":
            want = 2.0 / (k3 * k3 * z)  # 1/Phi'(log(1 + w^2)) ~ 2/w
        for sz in (z, -z):
            assert psi_prime(dgf, k3, sz) == pytest.approx(want, rel=1e-13, abs=0.0)

    def test_custom_ured_at_a_bracket_point(self):
        # Phi(1) = 2 lies on the root solve's x ladder; 1/Phi'(1) = 1/2
        custom = GeneratingFunction("custom", *(compile_expression(t) for t in URED_EXPRESSIONS))
        assert psi_prime(custom, 1.0, 2.0) == pytest.approx(0.5, rel=1e-15)

    def test_custom_ured_at_the_largest_float(self):
        # log2 of the largest float, in steps of the w ladder, rounds up to
        # one past the ladder's end
        custom = GeneratingFunction("custom", *(compile_expression(t) for t in URED_EXPRESSIONS))
        z = 1.7976931348623157e308
        assert psi_prime(custom, 1.0, z) == pytest.approx(
            psi_prime(builtin_dgf("ured"), 1.0, z), rel=1e-12)

    def test_slopes_on_2d_input_with_preimages_past_the_float_range(self):
        # every w finite, but the preimages of the smallest underflow to 0:
        # t0_exact hands the slopes (panels, 15) arrays of nodes
        custom = GeneratingFunction("custom", *(compile_expression(t) for t in URED_EXPRESSIONS))
        w = np.array([[5e-324, 1e-300], [1.0, 1e300]])
        got = _psi_prime_array(custom, 1.0)(w)
        want = _psi_prime_array(builtin_dgf("ured"), 1.0)(w)
        assert got.shape == w.shape and got[0, 0] == 0.0
        np.testing.assert_allclose(got[1:], want[1:], rtol=1e-12, atol=0.0)
        kappa = ParamTriple(6.0, 4.5, 4.3)
        assert t0_exact(custom, kappa, (-5e-324, 1e20)) == pytest.approx(
            t0_exact(builtin_dgf("ured"), kappa, (-5e-324, 1e20)), abs=1e-8)

    def test_zero_slope_at_preimage_raises(self):
        # sqrt written as expressions: the inverse overflows to inf, where
        # Phi' softens to 0
        dgf = GeneratingFunction("custom-sqrt", *(compile_expression(t) for t in (
            "sign(x)*sqrt(abs(x))", "0.5/sqrt(abs(x))", "-0.25*sign(x)*abs(x)**-1.5",
            "sign(z)*z**2")))
        assert psi_prime(dgf, 1.0, 3.0) == 6.0
        with pytest.raises(InversionRangeError):
            psi_prime(dgf, 1.0, 1e200)


class TestScaledFamily:
    @pytest.mark.parametrize("eps", [0.1, 1.0, 10.0])
    def test_scaling_identity(self, ured, eps):
        fam = ScaledFamily(ured, eps)
        for x in (1e-4, 0.3, 2.0, 1e4):
            assert fam.phi(x) == pytest.approx(
                ured.phi(eps * eps * x) / eps, rel=1e-15)
            assert fam.phi_prime(x) == pytest.approx(
                eps * ured.phi_prime(eps * eps * x), rel=1e-15)

    @pytest.mark.parametrize("eps", [0.25, 3.0])
    def test_inverse_round_trip(self, expdgf, eps):
        fam = ScaledFamily(expdgf, eps)
        for x in (1e-3, 0.7, 5.0):
            assert fam.inverse(fam.phi(x)) == pytest.approx(x, rel=1e-10)

    def test_bad_epsilon(self, ured):
        with pytest.raises(ValueError):
            ScaledFamily(ured, 0.0)
        with pytest.raises(ValueError):
            ScaledFamily(ured, -2.0)


class TestCheckDgf:
    @pytest.mark.parametrize("name", ["sqrt", "ured", "exp"])
    def test_builtins_pass(self, name):
        report = check_dgf(builtin_dgf(name))
        assert report.passed
        assert len(report.items) == 5
        assert "ok" in report.summary()

    def test_identity_map_fails(self):
        ident = GeneratingFunction(
            name="ident",
            phi=lambda x: x,
            phi_prime=lambda x: 1.0,
            phi_second=lambda x: 0.0,
        )
        report = check_dgf(ident)
        assert not report.passed
        failed = {item.index for item in report.items if not item.passed}
        assert 4 in failed  # slope stays bounded at the origin

    def test_even_map_fails_oddness(self):
        even = GeneratingFunction(
            name="even",
            phi=lambda x: math.sqrt(abs(x)),
            phi_prime=lambda x: 0.5 / math.sqrt(abs(x)) * (1 if x > 0 else -1),
            phi_second=lambda x: -0.25 * abs(x) ** -1.5,
        )
        report = check_dgf(even)
        failed = {item.index for item in report.items if not item.passed}
        assert 1 in failed

    def test_decreasing_map_fails(self):
        dec = GeneratingFunction(
            name="dec",
            phi=lambda x: -spow(x, 0.5),
            phi_prime=lambda x: -0.5 * abs(x) ** -0.5,
            phi_second=lambda x: (0.25 if x > 0 else -0.25) * abs(x) ** -1.5,
        )
        report = check_dgf(dec)
        failed = {item.index for item in report.items if not item.passed}
        assert 3 in failed


class TestComputeAdmissibility:
    def test_ured_exact_constants(self, ured):
        c = compute_admissibility(ured)
        assert c.exact
        assert c.B == math.pi
        assert c.C == 1.0 / math.sqrt(3.0)
        assert c.D == 1.0
        assert c.d_raw is not None and c.d_raw <= 1.0 + 1e-9

    def test_exp_exact_constants(self, expdgf):
        c = compute_admissibility(expdgf)
        assert c.exact
        assert c.B == math.pi
        assert c.C == 1.0
        assert c.D == 1.0

    def test_sqrt_rejected(self, sqrtdgf):
        with pytest.raises(NotAdmissibleError, match="diverges"):
            compute_admissibility(sqrtdgf)

    def test_slow_tail_is_not_called_divergent(self):
        # Phi = sqrt|x| + |x|^1.05: B converges (20.2745 by mpmath), but the
        # tail's local exponent 0.9 is at the cutoff past which B is not bounded
        slow = GeneratingFunction(
            "slow", *(compile_expression(t) for t in (
                "sign(x)*(sqrt(abs(x)) + abs(x)**1.05)",
                "0.5/sqrt(abs(x)) + 1.05*abs(x)**0.05",
                "sign(x)*(-0.25*abs(x)**-1.5 + 0.0525*abs(x)**-0.95)")))
        with pytest.raises(NotAdmissibleError) as info:
            compute_admissibility(slow)
        message = str(info.value)
        assert "diverges" not in message
        assert "converges too slowly" in message and ">= 0.9 near infinity" in message

    @pytest.mark.parametrize("name, C, d_raw", [
        ("ured", 0.5773502691896178, 0.9999999880000001),
        ("exp", 0.9999999999999369, 0.999999997),
        ("custom", 0.5773502691896178, 0.9999999880000001),
    ])
    def test_computed_without_claims(self, name, C, d_raw):
        # the built-ins' B from their inverse slope, custom ured's from phi on
        # the log axis; C and d_raw are the values of the separate scans that
        # one scan replaced
        if name == "custom":
            dgf = GeneratingFunction(name, *(compile_expression(t) for t in URED_EXPRESSIONS))
        else:
            dgf = dataclasses.replace(builtin_dgf(name), claimed_constants=None)
        c = compute_admissibility(dgf)
        assert not c.exact and abs(c.B - math.pi) <= 1e-10
        assert c.C == pytest.approx(C, rel=1e-12, abs=0.0)
        assert c.d_raw == pytest.approx(d_raw, rel=1e-12, abs=0.0) and c.D == 1.0

    def test_wrong_claim_replaced_by_computed(self, ured):
        liar = GeneratingFunction(
            name="liar",
            phi=ured.phi,
            phi_prime=ured.phi_prime,
            phi_second=ured.phi_second,
            inverse=ured.inverse,
            claimed_constants=AdmissibilityConstants(
                B=2.0 * math.pi, C=1.0, D=2.0, exact=True),
        )
        c = compute_admissibility(liar)
        assert not c.exact
        assert c.B == pytest.approx(math.pi, rel=1e-6)
        assert c.C == pytest.approx(1.0 / math.sqrt(3.0), rel=1e-4)


URED_EXPRESSIONS = (
    "sign(x)*(sqrt(abs(x)) + abs(x)**1.5)",
    "0.5/sqrt(abs(x)) + 1.5*sqrt(abs(x))",
    "sign(x)*(-0.25*abs(x)**-1.5 + 0.75*abs(x)**-0.5)",
)


EXP_EXPRESSIONS = (
    "sign(x)*sqrt(exp(abs(x)) - 1)",
    "exp(abs(x))/(2*sqrt(exp(abs(x)) - 1))",
    "sign(x)*(exp(abs(x))/(2*sqrt(exp(abs(x)) - 1)) - exp(2*abs(x))/(4*(exp(abs(x)) - 1)**1.5))",
)


def _math_ured():
    """ured from plain float lambdas over math, which take no arrays."""
    return GeneratingFunction(
        "lambdas",
        phi=lambda x: math.copysign(math.sqrt(abs(x)) * (1.0 + abs(x)), x),
        phi_prime=lambda x: 0.5 / math.sqrt(abs(x)) + 1.5 * math.sqrt(abs(x)),
        phi_second=lambda x: math.copysign(0.25, x) * (3.0 * abs(x) - 1.0) / abs(x) ** 1.5,
    )


def _counted(name, exprs):
    """A generating function from expressions, and the values its callables evaluated."""
    counts = {"phi": 0, "phi_prime": 0, "phi_second": 0}

    def counting(field, fn):
        def f(x):
            counts[field] += np.size(x)
            return fn(x)
        return f

    fns = (counting(f, compile_expression(t)) for f, t in zip(counts, exprs))
    return GeneratingFunction(name, *fns), counts


class TestReciprocalPinned:
    # B and the reciprocal integrals that the worst-case search and the bounds
    # read, as the log-axis pass computed them before _refine spliced halves in
    # place; sqrt up to 1e8 takes six rounds of bisection
    @pytest.mark.parametrize("name,w,tol,value", [
        ("ured", None, 1e-9, "0x1.921fb54442d17p+1"),
        ("ured", 2.0, 1e-9, "0x1.921fb54442d19p+0"),
        ("ured", 1e3, 1e-9, "0x1.78861f6820cb6p+1"),
        ("exp", None, 1e-9, "0x1.921fb54442d19p+1"),
        ("exp", 2.0, 1e-9, "0x1.1b6e192ebbe44p+1"),
        ("exp", 1e3, 1e-9, "0x1.91de2c0e658bcp+1"),
        ("custom", None, 1e-9, "0x1.921fb54442d19p+1"),
        ("custom", 2.0, 1e-9, "0x1.921fb54442d18p+0"),
        ("custom", 1e3, 1e-9, "0x1.78861f6820cb5p+1"),
        ("sqrt", 1e8, 1e-9, "0x1.7d7840000000bp+27"),
    ])
    def test_reciprocal_to(self, name, w, tol, value):
        fn = (GeneratingFunction("custom", *(compile_expression(t) for t in URED_EXPRESSIONS))
              if name == "custom" else builtin_dgf(name))
        assert dgf_module._reciprocal_to(fn, w, tol).value == float.fromhex(value)

    def test_b_full_and_b(self):
        # global_convtime_numeric's b_full at the default inner_tol, and B
        for name, value in (("ured", "0x1.921fb54442d17p+1"), ("exp", "0x1.921fb54442d19p+1")):
            fn = builtin_dgf(name)
            assert dgf_module._reciprocal_to(fn, None, min(1e-3 * 1e-6, 1e-9)).value \
                == float.fromhex(value)
        custom = GeneratingFunction("custom", *(compile_expression(t) for t in URED_EXPRESSIONS))
        assert compute_admissibility(custom).B == float.fromhex("0x1.921fb54442d19p+1")


class TestAdmissibilityCache:
    def test_second_call_is_shared_and_evaluates_nothing(self):
        custom, counts = _counted("counted", URED_EXPRESSIONS)
        first = compute_admissibility(custom)
        spent = dict(counts)
        assert all(spent.values())
        assert compute_admissibility(custom) is first
        assert counts == spent

    def test_replaced_copy_computes_afresh(self):
        custom, counts = _counted("counted", URED_EXPRESSIONS)
        first = compute_admissibility(custom)
        spent = dict(counts)
        again = compute_admissibility(dataclasses.replace(custom))
        assert again is not first and again == first
        assert all(counts[f] > spent[f] for f in counts)

    def test_quad_tol_is_its_own_entry(self):
        custom, counts = _counted("counted", URED_EXPRESSIONS)
        first = compute_admissibility(custom)
        spent = counts["phi"]
        finer = compute_admissibility(custom, quad_tol=1e-11)
        assert finer is not first and counts["phi"] > spent
        assert compute_admissibility(custom, quad_tol=1e-11) is finer
        assert abs(finer.B - math.pi) <= 1e-11

    def test_not_admissible_raises_on_every_call(self):
        for _ in range(3):
            with pytest.raises(NotAdmissibleError):
                compute_admissibility(builtin_dgf("sqrt"))

    def test_each_computation_logs_one_record(self, caplog):
        custom, _ = _counted("counted", URED_EXPRESSIONS)
        with caplog.at_level(logging.DEBUG, logger="ftdiff"):
            compute_admissibility(custom)
            compute_admissibility(custom)  # the cache answers: no record
        [record] = caplog.records
        assert record.name == "ftdiff" and record.levelno == logging.DEBUG
        b = record.b
        assert b["values"] >= 15 * b["panels"] > 0
        assert 0.0 < b["error"] <= 1e-9 and abs(b["value"] - math.pi) <= 1e-10
        # 1/phi' peaks where phi' = 1/(2 sqrt x) + 1.5 sqrt x is least, at x = 1/3;
        # the curvature ratio tends to one from below toward x = 0
        assert record.c_at == pytest.approx(1.0 / 3.0, rel=1e-5)
        assert record.d_at == pytest.approx(1e-9, rel=1e-12)
        assert record.moved[0] > 0 and record.moved[1] == 0
        assert record.edges == ["D at the lower end"]
        message = record.getMessage()
        assert message.startswith("compute_admissibility counted: B ")
        assert f"from {b['panels']} panels, {b['values']} values" in message
        assert message.endswith("grid edge: D at the lower end")


class TestArrayForms:
    def test_compiled_expression_used_as_is(self):
        f = compile_expression(URED_EXPRESSIONS[0])
        assert _array_form(f) is f

    @pytest.mark.parametrize("fn", [
        lambda x: math.sqrt(abs(x)),  # raises on an array
        lambda x: 2.0 * x if isinstance(x, np.ndarray) else x,  # wrong on an array
        lambda x: 1.0,  # no array out
    ])
    def test_scalar_callables_applied_elementwise(self, fn):
        arr = _array_form(fn)
        x = np.array([0.25, 4.0, 9.0])
        assert arr(x).dtype == np.float64
        assert list(arr(x)) == [fn(v) for v in x.tolist()]

    def test_root_solve_matches_invert_phi(self, ured):
        # the custom-ured expressions have no inverse; built-in ured's is
        # Cardano's, within 1e-14 of 60-digit roots
        custom = GeneratingFunction("custom", *(compile_expression(t) for t in URED_EXPRESSIONS))
        z = np.logspace(-300.0, 300.0, 1201)
        got = _invert_phi_array(custom, z)
        want = np.array([invert_phi(ured, v) for v in z.tolist()])
        # the array solve's tolerance: relative, absolute below 1e-300
        assert np.all(np.abs(got - want) <= 2e-13 * np.maximum(want, 1e-300))

    def test_root_solve_matches_invert_phi_for_exp(self):
        # exp written as expressions: phi^-1(w) = log(1 + w^2) up to x = 709.78,
        # where phi overflows (w = 1.34e154); larger w have no root among the
        # floats. Past 663.98 the next ladder point already overflows
        custom = GeneratingFunction("custom", *(compile_expression(t) for t in EXP_EXPRESSIONS))
        z = np.concatenate([np.logspace(0.0, 154.0, 771), [math.exp(250.0), 1.2e154, 1.3e154]])
        got = _invert_phi_array(custom, z)
        assert np.all(np.abs(got - np.log1p(z * z)) <= 2e-13 * got)
        assert got[-1] > got[-2] > 709.0
        assert np.all(np.diff(np.sort(got)) > 0.0)
        beyond = np.concatenate([[1.35e154, 1.5e154], np.logspace(155.0, 200.0, 10)])
        assert np.all(_invert_phi_array(custom, beyond) == math.inf)

    def test_small_roots_for_exp(self):
        # exp(x) - 1 moves in steps of 2^-52 near x = 0, so Newton's steps stay
        # far above the tolerance and the bracket closes on a rounding step of
        # phi: the root is the last iterate, known to one such step
        custom = GeneratingFunction("custom", *(compile_expression(t) for t in EXP_EXPRESSIONS))
        assert invert_phi(custom, 1e-5) == pytest.approx(1e-10, rel=1e-5)
        assert invert_phi(custom, -1e-7) == pytest.approx(-1e-14, rel=0.05)
        z = np.logspace(-7.5, -3.0, 200)
        got = _invert_phi_array(custom, z)
        assert np.all(np.abs(got - np.log1p(z * z)) <= 2.0**-52)

    def test_bounded_map_out_of_range_is_inf(self):
        capped = GeneratingFunction(
            name="capped", phi=np.tanh, phi_prime=lambda x: 1.0 / np.cosh(x) ** 2,
            phi_second=lambda x: -2.0 * np.tanh(x) / np.cosh(x) ** 2)
        # near 1, tanh is so flat that many x ladder points share one w step
        got = _invert_phi_array(capped, np.array([0.5, 0.999, 2.0]))
        assert got[0] == pytest.approx(math.atanh(0.5), rel=1e-13)
        assert got[1] == pytest.approx(math.atanh(0.999), rel=1e-12) and got[2] == math.inf

    def test_any_shape(self):
        # roots on ladder points (phi(1) = 2, phi(4) = 10) converge at the
        # first step, the others later
        custom = GeneratingFunction("custom", *(compile_expression(t) for t in URED_EXPRESSIONS))
        w = np.array([[2.0, 1.2345], [7.0, 10.0]])
        got = _invert_phi_array(custom, w)
        assert got.shape == w.shape
        assert list(got.ravel()) == list(_invert_phi_array(custom, w.ravel()))

    def test_roots_do_not_depend_on_the_batch(self):
        # each root stops at its own step
        w = np.logspace(-40.0, 40.0, 301)
        make = lambda: GeneratingFunction(
            "custom", *(compile_expression(t) for t in URED_EXPRESSIONS))
        whole = _invert_phi_array(make(), w)
        other = make()
        parts = [_invert_phi_array(other, w[i::7]) for i in range(7)]
        for i, part in enumerate(parts):
            assert [v.hex() for v in part.tolist()] == [v.hex() for v in whole[i::7].tolist()]


class TestPlainCallables:
    """Plain math lambdas go through the same array routes as expressions.

    The reference values are those of the scalar routes (one invert_phi per
    quadrature node, scalar admissibility scans) that the array ones replaced.
    """

    @pytest.mark.parametrize("x0, want", [
        ((1.0, 0.0), 0.2931452413632886),
        ((0.3, -2.0), 0.27482878564107793),
        ((-25.0, 4.0), 0.28262614042636053),
        ((1e-3, 1e-3), 0.01544890683268479),
    ])
    def test_t0_exact(self, x0, want):
        got = t0_exact(_math_ured(), ParamTriple(6.0, 4.5, 4.182), x0)
        assert abs(got - want) <= 1e-8

    def test_admissibility(self):
        c = compute_admissibility(_math_ured())
        assert not c.exact
        for got, want in ((c.B, 3.1415926535900063), (c.C, 0.5773502691896258),
                          (c.D, 1.0), (c.d_raw, 0.9999999880000005)):
            assert got == pytest.approx(want, rel=1e-9, abs=0.0)

    def test_pass_through_wrappers_change_nothing(self):
        # a profiler that wraps the callables (dataclasses.replace) must see
        # the same array routes and so the same values
        custom = GeneratingFunction("custom", *(compile_expression(t) for t in URED_EXPRESSIONS))
        wrapped = dataclasses.replace(custom, **{
            name: (lambda f: lambda *a, **k: f(*a, **k))(getattr(custom, name))
            for name in ("phi", "phi_prime", "phi_second")})
        kappa, x0 = ParamTriple(6.0, 4.5, 4.182), (0.7, -1.3)
        assert t0_exact(wrapped, kappa, x0) == t0_exact(custom, kappa, x0)
        assert compute_admissibility(wrapped) == compute_admissibility(custom)
