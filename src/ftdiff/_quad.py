"""Small quadrature toolbox used by the analysis modules.

Everything here is deliberately self-contained: the convergence-time
integrals pair an implementation route with an independent cross-check
route in the tests, so the integrator itself stays free of third-party
dependencies. zoom_max refines the maximum of a function evaluated on
numpy arrays.
"""
from __future__ import annotations

import math
from typing import Callable

import numpy as np

from .errors import QuadratureError

__all__ = [
    "adaptive_simpson",
    "golden_max",
    "reciprocal_integral",
    "zoom_max",
]


# Integrand evaluations one adaptive_simpson call may spend. The largest
# call in the test suite takes about 8e3; a tolerance the integrand cannot
# meet would otherwise split panels down to max_depth, up to 2^48 of them.
_MAX_EVALS = 100_000


def adaptive_simpson(
    f: Callable[[float], float],
    a: float,
    b: float,
    tol: float,
    *,
    max_depth: int = 48,
    floor: float = 0.0,
) -> float:
    """Integrate f over [a, b] to absolute tolerance tol.

    Classic adaptive Simpson with Richardson correction. A subinterval that
    still disagrees at max_depth raises QuadratureError unless its estimate
    gap is below floor: boundary layers narrower than the depth limit then
    contribute a controlled absolute error instead of a hard failure. A call
    that would exceed _MAX_EVALS integrand evaluations raises
    QuadratureError.
    """
    if not b > a:
        if b == a:
            return 0.0
        raise ValueError("adaptive_simpson requires b >= a")
    fa, fb = f(a), f(b)
    m = 0.5 * (a + b)
    fm = f(m)
    whole = (b - a) / 6.0 * (fa + 4.0 * fm + fb)
    total = 0.0
    stack = [(a, m, b, fa, fm, fb, whole, tol, 0)]
    for _ in range((_MAX_EVALS - 3) // 2):  # two evaluations per subinterval
        if not stack:
            return total
        a0, m0, b0, fa0, fm0, fb0, s0, t0, depth = stack.pop()
        lm = 0.5 * (a0 + m0)
        rm = 0.5 * (m0 + b0)
        flm, frm = f(lm), f(rm)
        sl = (m0 - a0) / 6.0 * (fa0 + 4.0 * flm + fm0)
        sr = (b0 - m0) / 6.0 * (fm0 + 4.0 * frm + fb0)
        err = sl + sr - s0
        if abs(err) <= 15.0 * t0 or (depth >= max_depth and abs(err) <= floor):
            total += sl + sr + err / 15.0
        elif depth >= max_depth:
            raise QuadratureError(
                f"quadrature failure: panel [{a0:g}, {b0:g}] did not converge "
                f"(estimate gap {abs(err):.3e})"
            )
        else:
            half = 0.5 * t0
            stack.append((a0, lm, m0, fa0, flm, fm0, sl, half, depth + 1))
            stack.append((m0, rm, b0, fm0, frm, fb0, sr, half, depth + 1))
    if not stack:
        return total
    raise QuadratureError(
        f"quadrature failure: [{a:g}, {b:g}] not integrated to {tol:.3e} "
        f"within {_MAX_EVALS} evaluations"
    )


def golden_max(
    f: Callable[[float], float],
    lo: float,
    hi: float,
    *,
    iters: int = 80,
) -> tuple[float, float]:
    """Golden-section search for a maximum of f on [lo, hi].

    Returns (argmax, max). Assumes f is unimodal on the bracket; on flat or
    noisy integrands it still converges to a point no worse than the best
    probe, which is all the callers need.
    """
    invphi = (math.sqrt(5.0) - 1.0) / 2.0
    a, b = lo, hi
    c = b - invphi * (b - a)
    d = a + invphi * (b - a)
    fc, fd = f(c), f(d)
    for _ in range(iters):
        if fc >= fd:
            b, d, fd = d, c, fc
            c = b - invphi * (b - a)
            fc = f(c)
        else:
            a, c, fc = c, d, fd
            d = a + invphi * (b - a)
            fd = f(d)
    if fc >= fd:
        return c, fc
    return d, fd


_ZOOM_OFFSETS = np.delete(np.linspace(-1.0, 1.0, 9), 4)  # probes per zoom round
_ZOOM_ROUNDS = 7  # 4x narrower per round; the argmax ends within 1e-4 grid steps


def zoom_max(
    f: Callable[[np.ndarray], np.ndarray], x: float, v: float, step: float
) -> tuple[float, float]:
    """Refine a grid maximum (x, v) of an array function with batched rounds of probes.

    Each round probes x +/- step in one call of f, moves to its best probe,
    if better, and shrinks the bracket to one probe spacing. Returns the
    best (argument, value) seen.
    """
    for _ in range(_ZOOM_ROUNDS):
        xs = x + step * _ZOOM_OFFSETS
        vals = f(xs)
        i = int(np.argmax(vals))
        if vals[i] > v:
            x, v = float(xs[i]), float(vals[i])
        step *= _ZOOM_OFFSETS[-1] - _ZOOM_OFFSETS[-2]
    return x, v


# Reciprocal integral of an odd increasing map phi:
#   I(X) = integral_0^X dx / phi(x),     X = None means X -> infinity.
# The integrand has an integrable singularity at 0 (phi(x) ~ sqrt(x)); the
# substitution x = u^2 regularizes it. The tail uses x = 1/w^2, which maps
# [1, inf) onto (0, 1] with integrand 2 / (w^3 phi(w^-2)).

_U_FLOOR = 1e-150  # keeps u*u above the subnormal range inside the integrand
_W_FLOOR = 1e-9  # transformed tail integrand is continuous at w=0; O(w^2) perturbation


def _near_part(phi: Callable[[float], float], x_hi: float, tol: float) -> float:
    # integral_0^{x_hi} dx/phi = integral_0^{sqrt(x_hi)} 2u/phi(u^2) du
    def g(u: float) -> float:
        if u < _U_FLOOR:
            u = _U_FLOOR
        t = phi(u * u)
        if t == 0.0:
            # Rounding can flush phi to zero for tiny arguments (a user
            # expression written exp(x)-1 loses everything below 2e-16).
            # The square-root leading behavior makes the true limit 2.
            return 2.0
        return 2.0 * u / t

    return adaptive_simpson(g, 0.0, math.sqrt(x_hi), tol)


def _far_part(phi: Callable[[float], float], x_lo: float, x_hi: float | None, tol: float) -> float:
    # integral_{x_lo}^{x_hi} dx/phi = integral_{w_hi^-1/2}^{w_lo^-1/2} 2/(w^3 phi(w^-2)) dw
    w_hi = 1.0 / math.sqrt(x_lo)
    w_lo = 0.0 if x_hi is None else 1.0 / math.sqrt(x_hi)

    def g(w: float) -> float:
        if w < _W_FLOOR:
            w = _W_FLOOR
        t = phi(1.0 / (w * w))
        if math.isinf(t):
            return 0.0  # phi overflowed: the true integrand is below float tiny here
        return 2.0 / (w * w * w * t)

    return adaptive_simpson(g, w_lo, w_hi, tol)


def _probe_tail_divergence(phi: Callable[[float], float]) -> None:
    # The tail integral converges iff phi grows superlinearly. Estimate the
    # local growth exponent of G(w) = w^3 phi(w^-2) near w = 0; the
    # transformed integrand is 2/G, so exponent >= 1 means divergence. A phi
    # that overflows at these arguments grows far faster than any power, so
    # the tail certainly converges.
    w1, w2 = 1e-6, _W_FLOOR
    p1, p2 = phi(w1 ** -2), phi(w2 ** -2)
    if math.isinf(p1) or math.isinf(p2):
        return
    g1 = w1 ** 3 * p1
    g2 = w2 ** 3 * p2
    if not (math.isfinite(g1) and math.isfinite(g2)) or g1 <= 0.0 or g2 <= 0.0:
        raise QuadratureError("quadrature failure: tail integrand is not positive finite")
    p = math.log(g1 / g2) / math.log(w1 / w2)
    if p >= 0.9:
        raise QuadratureError(
            f"tail integral of 1/phi diverges (local exponent {p:.3f} >= 1 near infinity)"
        )


def reciprocal_integral(
    phi: Callable[[float], float],
    upper: float | None = None,
    *,
    tol: float = 1e-9,
) -> float:
    """integral_0^upper dx/phi(x) for an odd increasing phi; upper=None means infinity.

    Raises QuadratureError when the improper tail diverges (detected from the
    growth exponent of phi before any panel work is spent).
    """
    if upper is not None:
        if upper < 0.0:
            raise ValueError("upper must be nonnegative")
        if upper == 0.0:
            return 0.0
        if upper <= 1.0:
            return _near_part(phi, upper, tol)
        return _near_part(phi, 1.0, 0.5 * tol) + _far_part(phi, 1.0, upper, 0.5 * tol)
    _probe_tail_divergence(phi)
    return _near_part(phi, 1.0, 0.5 * tol) + _far_part(phi, 1.0, None, 0.5 * tol)
