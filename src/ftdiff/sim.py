"""Forward-Euler simulation of the differentiator on test signals.

Discretizes the two-state estimator with both state updates evaluated at
the old state, measures the convergence time as the earliest sample after
which both error components stay inside their tolerance bands until the
horizon, and the steady-state error as the sup of the derivative error
over a late time window. Optional bounded uniform noise enters the
measured signal only; error series are always computed against the clean
analytic signal.

Forward Euler does not achieve global stability in general; divergence is
detected and reported rather than silently propagated.
"""
from __future__ import annotations

import functools
import math
import textwrap
from dataclasses import dataclass, field
from typing import Callable, Optional, Sequence, Union

import numpy as np

from .dgf import GeneratingFunction, ParamTriple
from .errors import SimulationDivergedError

__all__ = [
    "DifferentiatorState",
    "Fig1Signal",
    "NoiseSpec",
    "SampledSignal",
    "SimConfig",
    "SimResult",
    "SlopeSignal",
    "SlopeSweepRow",
    "NoiseSweepRow",
    "noise_sweep",
    "result_to_csv",
    "run",
    "step",
    "sweep_slopes",
]

RNG_ALGORITHM = "PCG64"  # numpy default_rng; recorded in output metadata


@dataclass(frozen=True)
class DifferentiatorState:
    y1: float
    y2: float


@dataclass(frozen=True)
class NoiseSpec:
    """Uniform noise on [-amplitude, amplitude], resampled every step."""

    amplitude: float

    def __post_init__(self) -> None:
        if not (math.isfinite(self.amplitude) and self.amplitude >= 0.0):
            raise ValueError("noise amplitude must be nonnegative and finite")


@dataclass(frozen=True)
class SimConfig:
    Ts: float
    horizon: float
    conv_tol_x1: float = 1e-6
    conv_tol_x2: float = 1.25e-3
    noise: Optional[NoiseSpec] = None
    seed: int = 0
    steady_window: tuple[float, float] = (2.0, 4.0)

    def __post_init__(self) -> None:
        if not (math.isfinite(self.Ts) and self.Ts > 0.0):
            raise ValueError("Ts must be a positive finite scalar")
        if not (math.isfinite(self.horizon) and self.horizon >= self.Ts):
            raise ValueError("horizon must be finite and at least Ts")
        if not (self.conv_tol_x1 > 0.0 and self.conv_tol_x2 > 0.0):
            raise ValueError("convergence tolerances must be positive")
        lo, hi = self.steady_window
        if not lo < hi:
            raise ValueError("steady_window must be an increasing pair")


# ---------------------------------------------------------------------------
# test signals


@dataclass(frozen=True)
class Fig1Signal:
    """f(t) = 0.75 cos t + 0.0025 sin 10t + t; |f''| <= 1."""

    def f(self, t: np.ndarray) -> np.ndarray:
        return 0.75 * np.cos(t) + 0.0025 * np.sin(10.0 * t) + t

    def f_dot(self, t: np.ndarray) -> np.ndarray:
        return -0.75 * np.sin(t) + 0.025 * np.cos(10.0 * t) + 1.0

    def describe(self) -> dict:
        return {"kind": "fig1"}


@dataclass(frozen=True)
class SlopeSignal:
    """f(t) = (cos(omega t) - 1)/omega^2 + c t; f(0) = 0, f'(0) = c."""

    omega: float
    c: float

    def __post_init__(self) -> None:
        if not (math.isfinite(self.omega) and self.omega > 0.0):
            raise ValueError("omega must be a positive finite scalar")

    def f(self, t: np.ndarray) -> np.ndarray:
        w = self.omega
        return (np.cos(w * t) - 1.0) / (w * w) + self.c * t

    def f_dot(self, t: np.ndarray) -> np.ndarray:
        return -np.sin(self.omega * t) / self.omega + self.c

    def describe(self) -> dict:
        return {"kind": "slope_family", "omega": self.omega, "c": self.c}


@dataclass(frozen=True)
class SampledSignal:
    """Externally sampled signal; sample_period must match the config Ts.

    Without a derivative series the derivative-error channel (and with it
    convergence detection and the steady error) is unavailable.
    """

    values: np.ndarray
    sample_period: float
    derivative: Optional[np.ndarray] = None

    def describe(self) -> dict:
        return {
            "kind": "custom",
            "samples": int(np.asarray(self.values).size),
            "sample_period": self.sample_period,
        }


Signal = Union[Fig1Signal, SlopeSignal, SampledSignal]


@dataclass(frozen=True)
class SimResult:
    times: np.ndarray
    y1_series: np.ndarray
    y2_series: np.ndarray
    x1_series: np.ndarray
    x2_series: np.ndarray
    tau: Optional[float]
    steady_error: float
    diverged: bool
    metadata: dict = field(repr=False)


# ---------------------------------------------------------------------------
# stepping


# The Euler loop. {step} is one step body: from the error e and z = k3^2 e
# it sets p = phi(z) and n2 = 0.0 if e == 0.0 else 2.0 * p * phi'(z)
_LOOP = """\
def euler(phi, pp, k1, k2, k3sq, inv_k3, Ts, y1, y2, meas, y1s, y2s):
    for i, m in enumerate(meas):
        y1s[i] = y1
        y2s[i] = y2
        if not (isfinite(y1) and isfinite(y2)):
            return y1, y2, i
        e = m - y1
        z = k3sq * e
{step}
        y1 = y1 + Ts * (k1 * (inv_k3 * p) + y2)
        y2 = y2 + Ts * k2 * n2
    return y1, y2, None
"""
# other functions; zero error takes the midpoint of nu2's set-valued branch
_GENERIC_STEP = """\
p = phi(z)
n2 = 0.0 if e == 0.0 else 2.0 * p * pp(z)
"""
_LOOP_GLOBALS = {"isfinite": math.isfinite, "sqrt": math.sqrt, "copysign": math.copysign,
                 "exp": math.exp, "expm1": math.expm1, "inf": math.inf}


@functools.lru_cache(maxsize=16)
def _loop(step_body: str) -> Callable:
    """The Euler loop with step_body, compiled once per distinct body."""
    ns = dict(_LOOP_GLOBALS)
    exec(_LOOP.format(step=textwrap.indent(step_body, " " * 8)), ns)
    return ns["euler"]


def _euler(
    dgf: GeneratingFunction,
    kappa: ParamTriple,
    Ts: float,
    y1: float,
    y2: float,
    meas: Sequence[float],
    y1s: np.ndarray,
    y2s: np.ndarray,
) -> tuple[float, float, Optional[int]]:
    """Forward-Euler steps over meas, recording the state before each step.

    Returns the final state and the index of the first non-finite recorded
    state (None if every one is finite); stepping stops there. Phi is
    evaluated once per step and shared by both injections; the built-ins
    evaluate it inline.
    """
    loop = _loop(dgf._euler_step or _GENERIC_STEP)
    k1, k2, k3 = kappa.k1, kappa.k2, kappa.k3
    return loop(dgf.phi, dgf.phi_prime, k1, k2, k3 * k3, 1.0 / k3, Ts, y1, y2, meas, y1s, y2s)


def step(
    dgf: GeneratingFunction,
    kappa: ParamTriple,
    state: DifferentiatorState,
    f_meas: float,
    Ts: float,
) -> DifferentiatorState:
    """One forward-Euler step; both updates use the pre-step state."""
    if not Ts > 0.0:
        raise ValueError("Ts must be positive")
    y1, y2, _ = _euler(dgf, kappa, Ts, state.y1, state.y2, (f_meas,),
                       np.empty(1), np.empty(1))
    if not (math.isfinite(y1) and math.isfinite(y2)):
        raise SimulationDivergedError(0, "simulation diverged: non-finite state after step")
    return DifferentiatorState(y1, y2)


def _signal_arrays(
    signal: Signal, times: np.ndarray, Ts: float
) -> tuple[np.ndarray, Optional[np.ndarray]]:
    if isinstance(signal, SampledSignal):
        vals = np.asarray(signal.values, dtype=float)
        if not math.isclose(signal.sample_period, Ts, rel_tol=1e-12):
            raise ValueError("sampled signal period does not match config Ts")
        if vals.size < times.size:
            raise ValueError("sampled signal shorter than the horizon")
        f = vals[: times.size]
        fd = None
        if signal.derivative is not None:
            der = np.asarray(signal.derivative, dtype=float)
            if der.size < times.size:
                raise ValueError("sampled derivative shorter than the horizon")
            fd = der[: times.size]
        return f, fd
    return signal.f(times), signal.f_dot(times)


def _detect_tau(
    times: np.ndarray, x1: np.ndarray, x2: np.ndarray, tol1: float, tol2: float
) -> Optional[float]:
    """Earliest sample time after which both bands hold to the horizon."""
    bad = np.flatnonzero((np.abs(x1) > tol1) | (np.abs(x2) > tol2))
    if bad.size == 0:
        return float(times[0])
    last = int(bad[-1])
    if last + 1 >= times.size:
        return None
    return float(times[last + 1])


def _steady_error(
    times: np.ndarray, x2: np.ndarray, window: tuple[float, float]
) -> float:
    lo, hi = window
    mask = (times >= lo) & (times <= hi)
    if not mask.any():
        return math.nan
    return float(np.max(np.abs(x2[mask])))


def run(
    dgf: GeneratingFunction,
    kappa: ParamTriple,
    signal: Signal,
    config: SimConfig,
    init: DifferentiatorState = DifferentiatorState(0.0, 0.0),
    *,
    noise_samples: Optional[np.ndarray] = None,
    raise_on_divergence: bool = True,
) -> SimResult:
    """Simulate over the horizon and measure convergence and steady error.

    The recorded series hold the state before each step, so index i is the
    state at time i*Ts. noise_samples overrides the generated noise array
    (used by paired sweeps); raise_on_divergence=False returns a truncated
    result flagged diverged instead of raising.
    """
    n = int(round(config.horizon / config.Ts)) + 1
    times = np.arange(n) * config.Ts
    f_true, fd_true = _signal_arrays(signal, times, config.Ts)

    if noise_samples is not None:
        noise = np.asarray(noise_samples, dtype=float)
        if noise.size < n:
            raise ValueError("noise_samples shorter than the horizon")
        f_meas = f_true + noise[:n]
        amplitude = float(np.max(np.abs(noise[:n]))) if n else 0.0
    elif config.noise is not None and config.noise.amplitude > 0.0:
        rng = np.random.default_rng(config.seed)
        noise = rng.uniform(-config.noise.amplitude, config.noise.amplitude, n)
        f_meas = f_true + noise
        amplitude = config.noise.amplitude
    else:
        f_meas = f_true
        amplitude = 0.0

    y1s = np.empty(n)
    y2s = np.empty(n)
    # list iteration is measurably faster in the loop than array indexing
    _, _, diverged_at = _euler(dgf, kappa, config.Ts, float(init.y1), float(init.y2),
                               f_meas.tolist(), y1s, y2s)

    if diverged_at is not None and raise_on_divergence:
        raise SimulationDivergedError(
            diverged_at,
            f"simulation diverged: non-finite state at step {diverged_at} "
            f"(t = {diverged_at * config.Ts:g})",
        )
    if diverged_at is not None:
        m = diverged_at
        times, y1s, y2s = times[:m], y1s[:m], y2s[:m]
        f_true = f_true[:m]
        fd_true = fd_true[:m] if fd_true is not None else None

    x1s = f_true - y1s
    if fd_true is not None:
        x2s = fd_true - y2s
    else:
        x2s = np.full(y2s.shape, math.nan)

    if diverged_at is None and fd_true is not None:
        tau = _detect_tau(times, x1s, x2s, config.conv_tol_x1, config.conv_tol_x2)
        steady = _steady_error(times, x2s, config.steady_window)
    else:
        tau = None
        steady = math.nan

    metadata = {
        "dgf": dgf.name,
        "kappa": {"k1": kappa.k1, "k2": kappa.k2, "k3": kappa.k3},
        "signal": signal.describe(),
        "Ts": config.Ts,
        "horizon": config.horizon,
        "conv_tol_x1": config.conv_tol_x1,
        "conv_tol_x2": config.conv_tol_x2,
        "noise_amplitude": amplitude,
        "seed": config.seed,
        "rng": RNG_ALGORITHM,
        "init": {"y1": init.y1, "y2": init.y2},
        "steady_window": list(config.steady_window),
        "tau": tau,
        "steady_error": None if math.isnan(steady) else steady,
        "diverged": diverged_at is not None,
    }
    return SimResult(
        times=times, y1_series=y1s, y2_series=y2s, x1_series=x1s, x2_series=x2s,
        tau=tau, steady_error=steady, diverged=diverged_at is not None,
        metadata=metadata,
    )


# ---------------------------------------------------------------------------
# sweeps


@dataclass(frozen=True)
class SlopeSweepRow:
    c: float
    tau: Optional[float]
    diverged: bool


def sweep_slopes(
    dgf: GeneratingFunction,
    kappa: ParamTriple,
    omega: float,
    slopes: Sequence[float],
    config: SimConfig,
) -> list[SlopeSweepRow]:
    """Convergence time versus initial slope for the cosine ramp family.

    Each row starts at y1 = f(0), y2 = 0, so the initial error is purely in
    the derivative channel with magnitude |c|. With noise, row idx draws it
    from the (seed, idx) stream. A diverging row is recorded and the sweep
    continues.
    """
    n = int(round(config.horizon / config.Ts)) + 1
    rows = []
    for idx, c in enumerate(slopes):
        sig = SlopeSignal(omega, c)
        f0 = float(sig.f(np.array([0.0]))[0])
        noise = None
        if config.noise is not None and config.noise.amplitude > 0.0:
            rng = np.random.default_rng((config.seed, idx))
            noise = rng.uniform(-config.noise.amplitude, config.noise.amplitude, n)
        res = run(
            dgf, kappa, sig, config, DifferentiatorState(f0, 0.0),
            noise_samples=noise, raise_on_divergence=False,
        )
        rows.append(SlopeSweepRow(c=c, tau=res.tau, diverged=res.diverged))
    return rows


@dataclass(frozen=True)
class NoiseSweepRow:
    amplitude: float
    steady_err_fixed: float
    steady_err_sta: float
    diverged_fixed: bool
    diverged_sta: bool


def noise_sweep(
    dgf_fixed_time: GeneratingFunction,
    dgf_sta_reference: GeneratingFunction,
    kappa_pair: tuple[ParamTriple, ParamTriple],
    amplitudes: Sequence[float],
    config: SimConfig,
    signal: Signal = Fig1Signal(),
    init: DifferentiatorState = DifferentiatorState(0.0, 0.0),
) -> list[NoiseSweepRow]:
    """Paired steady-state errors of the tuned and reference differentiators.

    Row i draws one unit noise array from the (seed, i) stream and scales
    it by the amplitude, so both differentiators in a row see identical
    noise.
    """
    kappa_fixed, kappa_sta = kappa_pair
    n = int(round(config.horizon / config.Ts)) + 1
    rows = []
    for idx, amp in enumerate(amplitudes):
        rng = np.random.default_rng((config.seed, idx))
        noise = amp * rng.uniform(-1.0, 1.0, n)
        rf = run(dgf_fixed_time, kappa_fixed, signal, config, init,
                 noise_samples=noise, raise_on_divergence=False)
        rs = run(dgf_sta_reference, kappa_sta, signal, config, init,
                 noise_samples=noise, raise_on_divergence=False)
        rows.append(NoiseSweepRow(
            amplitude=amp,
            steady_err_fixed=rf.steady_error,
            steady_err_sta=rs.steady_error,
            diverged_fixed=rf.diverged,
            diverged_sta=rs.diverged,
        ))
    return rows


# ---------------------------------------------------------------------------
# export


def result_to_csv(result: SimResult) -> str:
    """Series as CSV: t, f, f_dot, y1, y2, x1, x2 (f reconstructed from x1+y1)."""
    f = result.x1_series + result.y1_series
    fd = result.x2_series + result.y2_series
    cols = (result.times, f, fd, result.y1_series, result.y2_series,
            result.x1_series, result.x2_series)
    from . import _gfmt  # here rather than at the top: importing ftdiff need not load it
    return _gfmt.csv_text("t,f,f_dot,y1,y2,x1,x2", cols, (10, 17, 17, 17, 17, 17, 17))
