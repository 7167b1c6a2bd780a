import math

import numpy as np
import pytest

from ftdiff.dgf import ParamTriple, builtin_dgf
from ftdiff.errors import SimulationDivergedError
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
