import dataclasses
import math

import numpy as np
import pytest

from ftdiff.convtime import global_convtime_numeric, t0_exact
from ftdiff.dgf import GeneratingFunction, ParamTriple, builtin_dgf, nu1, nu2
from ftdiff.errors import SimulationDivergedError
from ftdiff.expr import compile_expression
from ftdiff.sim import (
    DifferentiatorState,
    Fig1Signal,
    NoiseSpec,
    SampledSignal,
    SimConfig,
    SlopeSignal,
    noise_sweep,
    result_to_csv,
    run,
    step,
    sweep_slopes,
)
from ftdiff.tuning import TuningRequest, tune

# gains from the prescribed-time design: T = 1, L = 1, gamma = 4.5
KAPPA_URED = ParamTriple(6.0, 4.5, 4.1820315344461525)
KAPPA_EXP = ParamTriple(6.0, 4.5, 4.303249839792417)
KAPPA_STA = ParamTriple(6.0, 4.5, 1.0)

FIG1_CONFIG = SimConfig(Ts=1e-4, horizon=4.0)


def linear_signal(c, Ts, horizon):
    n = int(round(horizon / Ts)) + 1
    t = np.arange(n) * Ts
    return SampledSignal(values=c * t, sample_period=Ts,
                         derivative=np.full(n, float(c)))


class TestConfigValidation:
    @pytest.mark.parametrize("kwargs", [
        {"Ts": 0.0, "horizon": 1.0},
        {"Ts": -1e-4, "horizon": 1.0},
        {"Ts": 1e-4, "horizon": 0.0},
        {"Ts": 1e-4, "horizon": 1.0, "conv_tol_x1": 0.0},
        {"Ts": 1e-4, "horizon": 1.0, "conv_tol_x2": -1.0},
        {"Ts": 1e-4, "horizon": 1.0, "steady_window": (3.0, 1.0)},
    ])
    def test_rejects(self, kwargs):
        with pytest.raises(ValueError):
            SimConfig(**kwargs)

    def test_noise_amplitude_nonnegative(self):
        assert NoiseSpec(0.0).amplitude == 0.0
        with pytest.raises(ValueError):
            NoiseSpec(-0.1)

    def test_default_derivative_tolerance(self):
        # the discrete chatter floor sits just above 1e-3 at Ts = 1e-4,
        # so the default must leave headroom
        assert FIG1_CONFIG.conv_tol_x2 == 1.25e-3


class TestSignals:
    def test_fig1_values(self):
        s = Fig1Signal()
        t = np.array([0.0, 1.0])
        np.testing.assert_allclose(
            s.f(t), 0.75 * np.cos(t) + 0.0025 * np.sin(10 * t) + t, rtol=1e-15)
        np.testing.assert_allclose(
            s.f_dot(t), -0.75 * np.sin(t) + 0.025 * np.cos(10 * t) + 1.0,
            rtol=1e-15)

    def test_fig1_derivative_consistent(self):
        s = Fig1Signal()
        t = np.linspace(0.3, 2.0, 7)
        h = 1e-6
        fd = (s.f(t + h) - s.f(t - h)) / (2 * h)
        np.testing.assert_allclose(fd, s.f_dot(t), rtol=1e-7, atol=1e-8)

    def test_slope_signal(self):
        s = SlopeSignal(2.0, 3.0)
        assert s.f(np.array([0.0]))[0] == 0.0
        assert s.f_dot(np.array([0.0]))[0] == pytest.approx(3.0)
        t = np.linspace(0.1, 1.0, 5)
        h = 1e-6
        fd = (s.f(t + h) - s.f(t - h)) / (2 * h)
        np.testing.assert_allclose(fd, s.f_dot(t), rtol=1e-6, atol=1e-8)

    def test_slope_signal_initial_derivative_error(self):
        # starting from rest the derivative error is exactly the slope c
        s = SlopeSignal(1.0, -5.0)
        assert s.f_dot(np.array([0.0]))[0] == -5.0

    def test_sampled_period_mismatch(self, ured):
        sig = SampledSignal(values=np.zeros(11), sample_period=2e-4)
        with pytest.raises(ValueError):
            run(ured, KAPPA_URED, sig, SimConfig(Ts=1e-4, horizon=1e-3))

    def test_sampled_without_derivative(self, ured):
        Ts = 1e-3
        n = 101
        sig = SampledSignal(values=np.linspace(0, 1, n), sample_period=Ts)
        out = run(ured, KAPPA_URED, sig, SimConfig(Ts=Ts, horizon=0.1))
        assert np.isnan(out.x2_series).all()
        assert out.tau is None
        assert math.isnan(out.steady_error)


class TestStep:
    def test_explicit_euler_update(self, ured):
        from ftdiff.dgf import nu1, nu2
        kappa = ParamTriple(2.0, 3.0, 1.5)
        state = DifferentiatorState(0.3, -0.2)
        f_meas = 1.1
        out = step(ured, kappa, state, f_meas, 1e-3)
        e = f_meas - state.y1
        assert out.y1 == pytest.approx(
            state.y1 + 1e-3 * (kappa.k1 * nu1(ured, 1.5, e) + state.y2),
            rel=1e-15)
        assert out.y2 == pytest.approx(
            state.y2 + 1e-3 * kappa.k2 * nu2(ured, 1.5, e), rel=1e-15)

    def test_zero_error_uses_inclusion_midpoint(self, ured):
        # nu2 is set-valued at zero; the step must pick 0 and hold y2
        state = DifferentiatorState(1.0, 0.5)
        out = step(ured, KAPPA_URED, state, 1.0, 1e-3)
        assert out.y2 == state.y2
        assert out.y1 == pytest.approx(1.0 + 1e-3 * 0.5 * 1.0 * 0, abs=1e-12) \
            or out.y1 == pytest.approx(state.y1 + 1e-3 * state.y2, rel=1e-12)

    def test_nonfinite_raises(self, ured):
        state = DifferentiatorState(math.inf, 0.0)
        with pytest.raises(SimulationDivergedError):
            step(ured, KAPPA_URED, state, 1.0, 1e-4)

    def test_matches_run_series(self, ured):
        # stepping manually must reproduce the vectorized run exactly
        config = SimConfig(Ts=1e-3, horizon=0.05)
        out = run(ured, KAPPA_URED, Fig1Signal(), config)
        t = np.arange(51) * 1e-3
        f = Fig1Signal().f(t)
        state = DifferentiatorState(0.0, 0.0)
        for i in range(out.times.size):
            assert state.y1 == out.y1_series[i]
            assert state.y2 == out.y2_series[i]
            state = step(ured, KAPPA_URED, state, float(f[i]), 1e-3)



def _dgf(name):
    if name != "custom":
        return builtin_dgf(name)
    # ured written as expressions, without an inverse
    return GeneratingFunction("custom", *(compile_expression(t) for t in (
        "sign(x)*(sqrt(abs(x)) + abs(x)**1.5)",
        "0.5/sqrt(abs(x)) + 1.5*sqrt(abs(x))",
        "sign(x)*(-0.25*abs(x)**-1.5 + 0.75*abs(x)**-0.5)")))


def _reference_run(dgf, kappa, meas, Ts, y1, y2, n1):
    """Plain Euler loop on the public injections; 0 for nu2 at e == 0."""
    y1s, y2s = [], []
    for m in meas:
        y1s.append(y1)
        y2s.append(y2)
        if not (math.isfinite(y1) and math.isfinite(y2)):
            return y1s, y2s, len(y1s) - 1
        e = m - y1
        n2 = 0.0 if e == 0.0 else nu2(dgf, kappa.k3, e)
        y1, y2 = y1 + Ts * (kappa.k1 * n1(dgf, kappa.k3, e) + y2), y2 + Ts * kappa.k2 * n2
    return y1s, y2s, None


# run scales Phi by 1/k3 where nu1 divides by k3; both agree bit for bit when
# k3 is a power of two, and the reciprocal form covers the tuned gains
_N1 = {
    "nu1": (ParamTriple(6.0, 4.5, 2.0), nu1),
    "reciprocal": (KAPPA_URED, lambda dgf, k3, e: (1.0 / k3) * dgf.phi(k3 * k3 * e)),
}


class TestRunMatchesReferenceLoop:
    @pytest.mark.parametrize("n1_form", sorted(_N1))
    @pytest.mark.parametrize("name", ["ured", "exp", "sqrt", "custom"])
    @pytest.mark.parametrize("Ts", [1e-3, 0.2])
    def test_bit_equal(self, name, n1_form, Ts):
        dgf = _dgf(name)
        kappa, n1 = _N1[n1_form]
        config = SimConfig(Ts=Ts, horizon=4.0)
        sig = Fig1Signal()
        t = np.arange(int(round(4.0 / Ts)) + 1) * Ts
        f, fd = sig.f(t), sig.f_dot(t)
        init = DifferentiatorState(float(f[0]), 0.0)  # e == 0 at the first step
        y1s, y2s, div = _reference_run(dgf, kappa, f.tolist(), Ts, init.y1, init.y2, n1)
        if Ts == 0.2 and name in ("ured", "custom"):
            assert div is not None  # forward Euler is unstable at this step size
        out = run(dgf, kappa, sig, config, init, raise_on_divergence=False)
        assert out.y1_series.tolist() == y1s[: out.times.size]
        assert out.y2_series.tolist() == y2s[: out.times.size]
        assert out.diverged == (div is not None)
        if div is None:
            bad = np.flatnonzero((np.abs(f - y1s) > config.conv_tol_x1)
                                 | (np.abs(fd - y2s) > config.conv_tol_x2))
            last = int(bad[-1]) if bad.size else -1  # last sample outside a band
            assert out.tau == (float(t[last + 1]) if last + 1 < t.size else None)
        else:
            assert out.times.size == div
            with pytest.raises(SimulationDivergedError) as info:
                run(dgf, kappa, sig, config, init)
            assert info.value.step_index == div

    @pytest.mark.parametrize("name", ["ured", "exp", "sqrt", "custom"])
    def test_step_is_one_step_of_run(self, name):
        dgf = _dgf(name)
        Ts = 1e-3
        for y1, y2, m in ((0.3, -0.2, 1.1), (1.0, 0.5, 1.0), (-2.0, 4.0, 5.0)):
            got = step(dgf, KAPPA_URED, DifferentiatorState(y1, y2), m, Ts)
            out = run(dgf, KAPPA_URED, SampledSignal(np.array([m, m]), Ts),
                      SimConfig(Ts=Ts, horizon=Ts), DifferentiatorState(y1, y2))
            assert (got.y1, got.y2) == (out.y1_series[1], out.y2_series[1])


def _bits(a):
    return np.asarray(a, dtype=float).view(np.int64).tolist()


def _step_or_error(dgf, kappa, state, m, Ts):
    try:
        out = step(dgf, kappa, state, m, Ts)
    except (SimulationDivergedError, ZeroDivisionError) as exc:
        return type(exc).__name__
    return _bits([out.y1, out.y2])


class TestInlineStepMatchesGeneric:
    """The built-ins' inlined step bodies against their own phi and phi'."""

    @staticmethod
    def _pair(name):
        dgf = builtin_dgf(name)
        generic = dataclasses.replace(dgf, _euler_step=None)
        assert dgf._euler_step is not None and generic._euler_step is None
        return dgf, generic

    @pytest.mark.parametrize("name", ["ured", "exp", "sqrt"])
    def test_fig1(self, name):
        dgf, generic = self._pair(name)
        kappa = KAPPA_STA if name == "sqrt" else KAPPA_URED
        a, b = (run(d, kappa, Fig1Signal(), FIG1_CONFIG) for d in (dgf, generic))
        assert _bits(a.y1_series) == _bits(b.y1_series)
        assert _bits(a.y2_series) == _bits(b.y2_series)
        assert a.tau == b.tau is not None

    # exp's k3^2 |e| passes 700 from |e| = 37.8 and 1419 from |e| = 76.7;
    # forward Euler diverges for exp from |x1| = 0.85 and for ured from 5e4
    @pytest.mark.parametrize("name", ["ured", "exp", "sqrt"])
    @pytest.mark.parametrize("x1", [-1e5, -80.0, -40.0, -0.85, 0.3, 0.8, 40.0, 80.0, 1e3, 1e4])
    def test_large_initial_errors(self, name, x1):
        dgf, generic = self._pair(name)
        kappa = {"ured": KAPPA_URED, "exp": KAPPA_EXP, "sqrt": KAPPA_STA}[name]
        config = SimConfig(Ts=1e-4, horizon=0.5)
        sig = SampledSignal(np.zeros(5001), 1e-4, derivative=np.zeros(5001))
        init = DifferentiatorState(-x1, 0.0)
        a, b = (run(d, kappa, sig, config, init, raise_on_divergence=False)
                for d in (dgf, generic))
        assert _bits(a.y1_series) == _bits(b.y1_series)
        assert _bits(a.y2_series) == _bits(b.y2_series)
        assert (a.diverged, a.times.size, a.tau) == (b.diverged, b.times.size, b.tau)
        if name != "sqrt":
            assert a.diverged == (abs(x1) >= (0.85 if name == "exp" else 1e5))
        if a.diverged:
            for d in (dgf, generic):
                with pytest.raises(SimulationDivergedError) as info:
                    run(d, kappa, sig, config, init)
                assert info.value.step_index == a.times.size

    @pytest.mark.parametrize("name", ["ured", "exp", "sqrt"])
    def test_step_at_edge_states(self, name):
        dgf, generic = self._pair(name)
        states = [(0.3, -0.2, 1.1), (1.0, 0.5, 1.0), (0.0, 0.0, -0.0), (0.0, -0.0, 0.0),
                  (-0.0, -0.0, -0.0), (2.0, 1.0, 2.0), (0.0, 1.0, 5e-324),
                  (-40.0, 3.0, 0.0), (40.0, 0.0, 0.0), (-80.0, 0.0, 0.0), (80.0, -2.0, 0.0),
                  (1e300, 0.0, 0.0), (0.0, 1e308, 1.0), (math.inf, 0.0, 0.0)]
        for kappa in (KAPPA_EXP, ParamTriple(6.0, 4.5, 0.5)):
            for y1, y2, m in states:
                for Ts in (1e-4, 0.2):
                    state = DifferentiatorState(y1, y2)
                    got = _step_or_error(dgf, kappa, state, m, Ts)
                    assert got == _step_or_error(generic, kappa, state, m, Ts), (y1, y2, m)

    @pytest.mark.parametrize("name", ["ured", "exp", "sqrt"])
    def test_underflowing_error_still_divides_by_zero(self, name):
        # k3^2 = 1/4 takes e = 5e-324 to z = 0 while e != 0: phi'(0) divides by zero
        dgf, generic = self._pair(name)
        for d in (dgf, generic):
            with pytest.raises(ZeroDivisionError):
                step(d, ParamTriple(6.0, 4.5, 0.5), DifferentiatorState(0.0, 0.0), 5e-324, 1e-4)


class TestSimAgainstAnalysis:
    """Simulated settling against t0_exact, the numeric sup and T (T = 1, L = 1)."""

    # the tabulated one-decimal bounds of the normalized triple (sqrt 8, 1, 1)
    @pytest.mark.parametrize("name, ttilde, magnitudes, sup", [
        ("ured", 6.9, (0.1, 1.0, 10.0, 100.0), 0.3214),
        # forward Euler diverges for exp from |x1| = 0.85 at Ts = 1e-4
        ("exp", 7.1, (0.1, 0.5), 0.3899),
    ])
    def test_tau_below_t0_below_sup_below_T(self, name, ttilde, magnitudes, sup):
        dgf = builtin_dgf(name)
        req = TuningRequest(dgf_id=name, normalized_triple=ParamTriple(math.sqrt(8.0), 1.0, 1.0),
                            ttilde=ttilde, T=1.0, L=1.0, gamma=4.5)
        tuned = tune(req)
        kappa = tuned.kappa
        assert kappa.k3 == pytest.approx(KAPPA_URED.k3 if name == "ured" else KAPPA_EXP.k3,
                                         rel=1e-12)
        config = SimConfig(Ts=1e-4, horizon=1.0)
        zero = SampledSignal(np.zeros(10001), 1e-4, derivative=np.zeros(10001))
        taus = []
        for r in magnitudes:
            for k in range(6):
                theta = math.pi * (2 * k + 1) / 6
                x0 = (r * math.cos(theta), r * math.sin(theta))
                out = run(dgf, kappa, zero, config, DifferentiatorState(-x0[0], -x0[1]))
                gap = t0_exact(dgf, kappa, x0) - out.tau
                assert 0.0 < gap <= 3e-3, (r, k, gap)
                taus.append(out.tau)
        numeric_sup = global_convtime_numeric(dgf, kappa).value
        assert numeric_sup == pytest.approx(sup, abs=1e-4)
        assert max(taus) <= numeric_sup <= req.T
        assert req.T / numeric_sup <= tuned.tightness_ratio_bound


@pytest.fixture(scope="module")
def fig1_result(ured):
    return run(ured, KAPPA_URED, Fig1Signal(), FIG1_CONFIG)


@pytest.fixture(scope="module")
def pair_rows(ured, sqrtdgf):
    return noise_sweep(ured, sqrtdgf, (KAPPA_URED, KAPPA_STA),
                       [0.0, 1e-4, 1.0], FIG1_CONFIG)


class TestRunFig1:
    def test_converges_inside_prescribed_time(self, fig1_result):
        assert fig1_result.tau is not None
        assert fig1_result.tau == pytest.approx(0.3176, abs=1e-4)
        assert 0.27 <= fig1_result.tau <= 0.37
        assert fig1_result.tau <= 1.0

    def test_steady_error_frozen(self, fig1_result):
        assert fig1_result.steady_error == pytest.approx(
            1.0447867040805914e-3, rel=1e-9)
        assert fig1_result.steady_error < 1e-2

    def test_not_diverged(self, fig1_result):
        assert not fig1_result.diverged
        assert np.isfinite(fig1_result.x1_series).all()

    def test_series_shapes(self, fig1_result):
        n = int(round(4.0 / 1e-4)) + 1
        assert fig1_result.times.size == n
        assert fig1_result.x1_series.size == n
        assert fig1_result.times[0] == 0.0
        assert fig1_result.times[-1] == pytest.approx(4.0, rel=1e-12)

    def test_error_series_definition(self, fig1_result):
        t = fig1_result.times
        f = Fig1Signal().f(t)
        fd = Fig1Signal().f_dot(t)
        np.testing.assert_allclose(
            fig1_result.x1_series, f - fig1_result.y1_series, atol=1e-12)
        np.testing.assert_allclose(
            fig1_result.x2_series, fd - fig1_result.y2_series, atol=1e-12)

    def test_step_halving_stability(self, ured, fig1_result):
        half = run(ured, KAPPA_URED, Fig1Signal(),
                   SimConfig(Ts=5e-5, horizon=4.0))
        assert half.tau is not None
        rel = abs(half.tau - fig1_result.tau) / fig1_result.tau
        assert rel < 0.05

    def test_exp_dgf_also_converges(self, expdgf):
        out = run(expdgf, KAPPA_EXP, Fig1Signal(), FIG1_CONFIG)
        assert out.tau is not None and out.tau <= 1.0

    def test_metadata_keys(self, fig1_result):
        md = fig1_result.metadata
        for key in ("dgf", "kappa", "signal", "Ts", "horizon", "seed", "rng",
                    "tau", "steady_error", "diverged"):
            assert key in md
        assert md["rng"] == "PCG64"

    def test_determinism(self, ured, fig1_result):
        again = run(ured, KAPPA_URED, Fig1Signal(), FIG1_CONFIG)
        assert np.array_equal(again.y1_series, fig1_result.y1_series)
        assert again.tau == fig1_result.tau


class TestRunEdgeCases:
    def test_equilibrium_start_stays_put(self, ured):
        # linear signal, exact initial match: the error stays identically
        # zero; a dyadic grid keeps c*t and the accumulated y1 bit-identical
        Ts, horizon, c = 2.0 ** -10, 0.25, 2.0
        sig = linear_signal(c, Ts, horizon)
        out = run(ured, KAPPA_URED, sig, SimConfig(Ts=Ts, horizon=horizon),
                  init=DifferentiatorState(0.0, c))
        assert np.all(out.x1_series == 0.0)
        assert np.all(out.x2_series == 0.0)
        assert out.tau == 0.0

    def test_error_dynamics_equivalence(self, ured):
        # driving the error system directly must agree with differentiating
        # a linear signal, where the discretizations coincide
        from ftdiff.dgf import nu1, nu2
        Ts, horizon, c = 1e-3, 0.5, 3.0
        k1, k2, k3 = KAPPA_URED.k1, KAPPA_URED.k2, KAPPA_URED.k3
        sig = linear_signal(c, Ts, horizon)
        out = run(ured, KAPPA_URED, sig, SimConfig(Ts=Ts, horizon=horizon))

        x1, x2 = 0.0, c  # f(0) - y1(0) = 0, c - 0 = c
        for i in range(out.times.size):
            assert out.x1_series[i] == pytest.approx(x1, abs=1e-12)
            assert out.x2_series[i] == pytest.approx(x2, abs=1e-12)
            n1 = nu1(ured, k3, x1)
            n2 = 0.0 if x1 == 0.0 else nu2(ured, k3, x1)
            x1, x2 = x1 + Ts * (-k1 * n1 + x2), x2 + Ts * (-k2 * n2)

    def test_sign_symmetry(self, ured):
        Ts, horizon = 1e-3, 0.3
        n = int(round(horizon / Ts)) + 1
        t = np.arange(n) * Ts
        f = Fig1Signal().f(t)
        fd = Fig1Signal().f_dot(t)
        pos = run(ured, KAPPA_URED,
                  SampledSignal(f, Ts, fd), SimConfig(Ts=Ts, horizon=horizon))
        neg = run(ured, KAPPA_URED,
                  SampledSignal(-f, Ts, -fd), SimConfig(Ts=Ts, horizon=horizon))
        np.testing.assert_array_equal(neg.y1_series, -pos.y1_series)
        np.testing.assert_array_equal(neg.y2_series, -pos.y2_series)

    def test_divergence_raises_with_step_index(self, ured):
        # a huge step size destabilizes the explicit integrator
        config = SimConfig(Ts=0.5, horizon=50.0)
        with pytest.raises(SimulationDivergedError) as info:
            run(ured, ParamTriple(60.0, 450.0, 42.0), Fig1Signal(), config)
        assert info.value.step_index > 0

    def test_divergence_flagged_when_not_raising(self, ured):
        config = SimConfig(Ts=0.5, horizon=50.0)
        out = run(ured, ParamTriple(60.0, 450.0, 42.0), Fig1Signal(), config,
                  raise_on_divergence=False)
        assert out.diverged
        assert out.tau is None

    def test_insufficient_gain_never_converges(self, ured):
        # derivative gain below the signal's curvature bound: convergence
        # cannot be certified on any horizon
        kappa = ParamTriple(6.0, 0.5, KAPPA_URED.k3)
        out = run(ured, kappa, Fig1Signal(), SimConfig(Ts=1e-4, horizon=10.0))
        assert out.tau is None

    def test_zero_noise_array_matches_noiseless(self, ured):
        config = SimConfig(Ts=1e-3, horizon=0.2)
        clean = run(ured, KAPPA_URED, Fig1Signal(), config)
        zeros = run(ured, KAPPA_URED, Fig1Signal(), config,
                    noise_samples=np.zeros(clean.times.size))
        np.testing.assert_array_equal(clean.y1_series, zeros.y1_series)

    def test_noise_only_corrupts_measurement(self, ured):
        # the recorded errors use the true signal, not the noisy one
        config = SimConfig(Ts=1e-3, horizon=0.2, noise=NoiseSpec(1e-2), seed=7)
        out = run(ured, KAPPA_URED, Fig1Signal(), config)
        t = out.times
        np.testing.assert_allclose(
            out.x1_series + out.y1_series, Fig1Signal().f(t), atol=1e-12)


class TestSlopeSweep:
    def test_rows_converge_inside_prescribed_time(self, ured):
        rows = sweep_slopes(ured, KAPPA_URED, 1.0, [-5.0, 0.0, 5.0],
                            FIG1_CONFIG)
        assert [r.c for r in rows] == [-5.0, 0.0, 5.0]
        taus = {r.c: r.tau for r in rows}
        assert taus[-5.0] == pytest.approx(0.278, abs=1e-3)
        assert taus[0.0] == 0.0
        assert taus[5.0] == pytest.approx(0.2239, abs=1e-3)
        assert all(not r.diverged for r in rows)
        assert all(r.tau is not None and r.tau <= 1.0 for r in rows)

    def test_exp_row(self, expdgf):
        rows = sweep_slopes(expdgf, KAPPA_EXP, 1.0, [5.0], FIG1_CONFIG)
        assert rows[0].tau == pytest.approx(0.3161, abs=1e-3)


class TestNoiseSweep:
    def test_zero_amplitude_floor(self, pair_rows):
        row = pair_rows[0]
        assert row.amplitude == 0.0
        assert row.steady_err_fixed == pytest.approx(1.0448e-3, rel=1e-3)
        assert row.steady_err_sta == pytest.approx(1.0445e-3, rel=1e-3)
        ratio = row.steady_err_fixed / row.steady_err_sta
        assert 0.5 <= ratio <= 2.0

    def test_small_amplitude_paired(self, pair_rows):
        row = pair_rows[1]
        # identical noise realizations keep the pair comparable
        ratio = row.steady_err_fixed / row.steady_err_sta
        assert 1.0 / 1.5 <= ratio <= 1.5

    def test_large_amplitude_orders(self, pair_rows):
        # heavy noise punishes the faster injection maps
        row = pair_rows[2]
        assert row.steady_err_fixed >= row.steady_err_sta

    def test_deterministic_given_seed(self, ured, sqrtdgf, pair_rows):
        again = noise_sweep(ured, sqrtdgf, (KAPPA_URED, KAPPA_STA),
                            [0.0, 1e-4, 1.0], FIG1_CONFIG)
        assert again[1].steady_err_fixed == pair_rows[1].steady_err_fixed

    def test_seed_changes_realization(self, ured, sqrtdgf, pair_rows):
        other = noise_sweep(ured, sqrtdgf, (KAPPA_URED, KAPPA_STA),
                            [0.0, 1e-4, 1.0],
                            SimConfig(Ts=1e-4, horizon=4.0, seed=123))
        assert other[1].steady_err_fixed != pair_rows[1].steady_err_fixed


class TestCsv:
    def test_header_and_shape(self, ured):
        out = run(ured, KAPPA_URED, Fig1Signal(),
                  SimConfig(Ts=1e-3, horizon=0.01))
        text = result_to_csv(out)
        lines = text.strip().split("\n")
        assert lines[0] == "t,f,f_dot,y1,y2,x1,x2"
        assert len(lines) == out.times.size + 1

    def test_reconstructs_signal(self, ured):
        out = run(ured, KAPPA_URED, Fig1Signal(),
                  SimConfig(Ts=1e-3, horizon=0.01))
        text = result_to_csv(out)
        row = text.strip().split("\n")[3].split(",")
        t = float(row[0])
        assert float(row[1]) == pytest.approx(
            float(Fig1Signal().f(np.array([t]))[0]), rel=1e-10)
        assert float(row[5]) == pytest.approx(
            float(row[1]) - float(row[3]), abs=1e-12)

    def test_matches_per_element_formatter(self, ured):
        # no derivative series makes x2 nan; an overflowed estimate gives inf
        sig = SampledSignal(values=np.linspace(0.0, 1.0, 11), sample_period=1e-3)
        out = run(ured, KAPPA_URED, sig, SimConfig(Ts=1e-3, horizon=0.01))
        out.y1_series[4] = math.inf
        out.y2_series[5] = -math.inf
        out.x1_series[6] = -0.0
        f = out.x1_series + out.y1_series
        fd = out.x2_series + out.y2_series
        lines = ["t,f,f_dot,y1,y2,x1,x2"]
        for i in range(out.times.size):
            lines.append(
                f"{out.times[i]:.10g},{f[i]:.17g},{fd[i]:.17g},"
                f"{out.y1_series[i]:.17g},{out.y2_series[i]:.17g},"
                f"{out.x1_series[i]:.17g},{out.x2_series[i]:.17g}"
            )
        text = result_to_csv(out)
        assert "nan" in text and "-inf" in text
        assert text == "\n".join(lines) + "\n"


def _per_element_csv(out):
    """result_to_csv's text from one f-string per element, as in TestCsv."""
    cols = [out.times, out.x1_series + out.y1_series, out.x2_series + out.y2_series,
            out.y1_series, out.y2_series, out.x1_series, out.x2_series]
    t, *rest = (c.tolist() for c in cols)
    lines = ["t,f,f_dot,y1,y2,x1,x2"]
    for row in zip(t, *rest):
        lines.append(f"{row[0]:.10g}," + ",".join(f"{v:.17g}" for v in row[1:]))
    return "\n".join(lines) + "\n"


class TestCsvFullSize:
    def test_fig1_results(self, expdgf, fig1_result):
        assert result_to_csv(fig1_result) == _per_element_csv(fig1_result)
        out = run(expdgf, KAPPA_EXP, Fig1Signal(), FIG1_CONFIG)
        assert out.times.size == 40001
        assert result_to_csv(out) == _per_element_csv(out)

    def test_slope_run(self, ured):
        out = run(ured, KAPPA_URED, SlopeSignal(1.0, 2.5), FIG1_CONFIG)
        assert result_to_csv(out) == _per_element_csv(out)

    def test_truncated_by_divergence(self, ured):
        # forward Euler diverges for ured from |x1| = 1e5; the estimates pass 1e175
        sig = SampledSignal(np.zeros(5001), 1e-4, derivative=np.zeros(5001))
        out = run(ured, KAPPA_URED, sig, SimConfig(Ts=1e-4, horizon=0.5),
                  DifferentiatorState(-1e5, 0.0), raise_on_divergence=False)
        assert out.diverged and 1 < out.times.size < 5001
        assert result_to_csv(out) == _per_element_csv(out)

    def test_diverged_at_step_zero_is_header_only(self, ured):
        out = run(ured, KAPPA_URED, Fig1Signal(), FIG1_CONFIG,
                  DifferentiatorState(math.inf, 0.0), raise_on_divergence=False)
        assert out.diverged and out.times.size == 0
        assert result_to_csv(out) == _per_element_csv(out) == "t,f,f_dot,y1,y2,x1,x2\n"

    def test_sampled_signal_without_derivative(self, ured):
        sig = SampledSignal(values=np.sin(np.arange(20001) * 1e-4), sample_period=1e-4)
        out = run(ured, KAPPA_URED, sig, SimConfig(Ts=1e-4, horizon=2.0))
        assert np.isnan(out.x2_series).all()
        assert result_to_csv(out) == _per_element_csv(out)
