"""Small quadrature toolbox used by the analysis modules.

Everything here is deliberately self-contained: the convergence-time
integrals pair an implementation route with an independent cross-check
route in the tests, so the integrator itself stays free of third-party
dependencies. zoom_max refines maxima of a function evaluated on numpy
arrays; the Gauss-Kronrod panels here serve every array integral.
"""
from __future__ import annotations

import math
from typing import Callable, NamedTuple, Optional

import numpy as np

from .errors import QuadratureError

__all__ = [
    "adaptive_simpson",
    "golden_max",
    "zoom_max",
]


# QUADPACK's 15-point Kronrod rule on [-1, 1], nodes from the edge to the
# centre, and the weights of its embedded 7-point Gauss rule (zero at the
# Kronrod-only nodes)
_XK = np.array([0.991455371120812639206854697526329, 0.949107912342758524526189684047851,
                0.864864423359769072789712788640926, 0.741531185599394439863864773280788,
                0.586087235467691130294144845693013, 0.405845151377397166906606412076961,
                0.207784955007898467600689403773245, 0.0])
_WK = np.array([0.022935322010529224963732008058970, 0.063092092629978553290700663189204,
                0.104790010322250183839876322541518, 0.140653259715525918745189590510238,
                0.169004726639267902826583426598550, 0.190350578064785409913256402421014,
                0.204432940075298892414161999234649, 0.209482141084727828012999174891714])
_WG = np.array([0.0, 0.129484966168869693270611432679082, 0.0, 0.279705391489276667901467771423780,
                0.0, 0.381830050505118944950369775488975, 0.0, 0.417959183673469387755102040816327])
_GK_X = np.concatenate([-_XK, _XK[-2::-1]])
_GK_WK = np.concatenate([_WK, _WK[-2::-1]])
_GK_WG = np.concatenate([_WG, _WG[-2::-1]])


def _gk_panels(lo: np.ndarray, hi: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """GK15 nodes, Kronrod and Gauss weights on the panels [lo, hi], each (P, 15)."""
    half = 0.5 * (hi - lo)[:, None]
    mid = 0.5 * (hi + lo)[:, None]
    return mid + half * _GK_X, half * _GK_WK, half * _GK_WG


_PROBE = np.array([-2.5, -0.7, 0.3, 1.0, 4.0])


def _array_form(fn: Callable[[float], float]) -> Callable[[np.ndarray], np.ndarray]:
    """fn itself if it maps a probe array to its scalar values, else fn elementwise.

    Compiled expressions and numpy functions pass; a callable written for
    floats, such as a lambda over math, fails the probe or raises on it,
    and is applied one element at a time.
    """
    try:
        with np.errstate(all="ignore"):
            out = fn(_PROBE)
            if (isinstance(out, np.ndarray) and out.shape == _PROBE.shape and np.allclose(
                    out, [fn(p) for p in _PROBE.tolist()], rtol=1e-12, atol=0.0, equal_nan=True)):
                return fn
    except Exception:  # whatever it raises on an array, it is a scalar-only callable
        pass
    each = np.frompyfunc(fn, 1, 1)
    return lambda a: each(a).astype(float)


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
    f: Callable[[np.ndarray], np.ndarray], x, v, step: float
) -> tuple:
    """Refine grid maxima (x, v) of an array function with batched rounds of probes.

    x and v are floats, or 1-d arrays of maxima refined side by side. Each
    round probes every x +/- step in one call of f, on an array of shape
    x.shape + (8,), moves each x to its best probe, if better, and shrinks
    the bracket to one probe spacing. Returns the best (arguments, values)
    seen and the number of rounds in which each moved: floats and an int
    for float x.
    """
    scalar = np.ndim(x) == 0
    x, v = np.atleast_1d(np.asarray(x, dtype=float)), np.atleast_1d(np.asarray(v, dtype=float))
    rows = np.arange(x.size)
    moved = np.zeros(x.size, dtype=int)
    for _ in range(_ZOOM_ROUNDS):
        xs = x[:, None] + step * _ZOOM_OFFSETS
        vals = f(xs[0] if scalar else xs).reshape(xs.shape)
        i = vals.argmax(axis=1)
        best = vals[rows, i]
        up = best > v
        if up.any():
            x = np.where(up, xs[rows, i], x)
            v = np.where(up, best, v)
            moved += up
        step *= _ZOOM_OFFSETS[-1] - _ZOOM_OFFSETS[-2]
    if scalar:
        return float(x[0]), float(v[0]), int(moved[0])
    return x, v, moved


_ROUNDS = 10  # rounds of bisection before an estimate counts as unconverged


def _refine(sums: Callable, panels: np.ndarray, k: np.ndarray, g: np.ndarray, budget: float,
            max_nodes: int) -> tuple:
    """Bisect the panels whose |Kronrod - Gauss| exceeds their share of budget, until within it.

    panels is an (F, P) array whose last two rows are the panel ends lo and
    hi, or a function that makes it, called before the first bisection;
    sums maps such an array to the Kronrod and Gauss sums on each panel,
    and k, g are those of panels. Returns (Kronrod total, |Kronrod - Gauss|
    total, panel count, rounds of bisection). Raises QuadratureError where
    that total is not finite or stays above budget after _ROUNDS rounds, or
    the panels would need more than max_nodes nodes.
    """
    for rounds in range(_ROUNDS + 1):
        err = np.abs(k - g)
        total = err.sum()
        if total <= budget:
            return float(k.sum()), float(total), k.size, rounds
        split = err > budget / err.size  # the panels over their share
        if (rounds == _ROUNDS or not math.isfinite(total)
                or 15 * (k.size + split.sum()) > max_nodes):
            break
        if callable(panels):
            panels = panels()
        part = panels[:, split]
        n = part.shape[1]
        halves = np.concatenate([part, part], axis=1)  # left halves, then right halves
        halves[-1, :n] = halves[-2, n:] = 0.5 * (part[-2] + part[-1])
        k2, g2 = sums(halves)
        keep = ~split
        panels = np.concatenate([panels[:, keep], halves], axis=1)
        k, g = np.concatenate([k[keep], k2]), np.concatenate([g[keep], g2])
    raise QuadratureError(f"quadrature failure: error estimate {total:.3e} above {budget:.3g} "
                          f"after {rounds} rounds of bisection")


# Integrals over the whole log axis, of functions that decay toward both of
# its ends, go on unit panels from the upper limit down to about _S_MIN, near
# which x = e^s leaves the positive floats; without an upper limit they start
# at _S_MAX, the log of the largest float.
_S_MIN = -744.0
_S_MAX = math.log(1.7976931348623157e308)  # the largest float
_LOG_STRIDE = 4  # panels per probe interval
_LOG_REL = 1e-16  # of the integral: the most the tail may take, below its rounding
_LOG_MAX_NODES = 1 << 18


class _Integral(NamedTuple):
    value: float
    error: float  # the panels' |Kronrod - Gauss| plus the tail
    panels: int
    values: int  # integrand values, probes included


def _log_axis_integral(
    f: Callable[[np.ndarray], np.ndarray], top: Optional[float], tol: float
) -> _Integral:
    """integral_{-inf}^{top} f(s) ds of an array function f >= 0 decaying toward both ends.

    top=None means +inf. f is probed every _LOG_STRIDE. Where f is monotone,
    a stretch between probes holds at most its length times the larger one;
    past an open end, the bound is a stride times the last probe. On either
    side, the outer stretches whose bounds add up to at most half a tenth of
    tol, or of _LOG_REL of the integral if less, are the tail. The rest goes
    on unit GK15 panels in one array pass, and _refine bisects those over
    their share of tol. Raises QuadratureError where f is not finite and
    nonnegative, or the error estimate stays above tol.
    """
    end = _S_MAX if top is None else top
    probes = end - _LOG_STRIDE * np.arange(max(math.floor((end - _S_MIN) / _LOG_STRIDE), 1) + 1.0)
    with np.errstate(all="ignore"):
        p = f(probes)
        ends = p[-1] + (p[0] if top is None else 0.0)
        c = np.cumsum(_LOG_STRIDE * np.maximum(p[:-1], p[1:]))
        mass = float(c[-1])
        if not ((p >= 0.0).all() and math.isfinite(mass)):
            raise QuadratureError("quadrature failure: integrand is not finite and nonnegative")
        share = 0.05 * min(tol, _LOG_REL * mass)
        # the stretches [0, a) and [b, end) hold at most share each
        a = int(np.searchsorted(c, share, side="right"))
        b = int(np.searchsorted(c, mass - share, side="left")) + 1
        tail = (c[a - 1] if a else 0.0) + mass - c[b - 1] + _LOG_STRIDE * ends
        if a >= b:
            return _Integral(0.0, tail, 0, p.size)
        if not tail < tol:
            raise QuadratureError(f"quadrature failure: tail {tail:.3e} above tolerance {tol:g}")
        edges = probes[a] - np.arange(_LOG_STRIDE * (b - a) + 1.0)

        def sums(span: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
            lo, hi = span
            half = 0.5 * (hi - lo)
            fs = f((0.5 * (hi + lo))[:, None] + half[:, None] * _GK_X)
            return half * (fs @ _GK_WK), half * (fs @ _GK_WG)

        span = np.array([edges[1:], edges[:-1]])
        value, error, n, _ = _refine(sums, span, *sums(span), tol - tail, _LOG_MAX_NODES)
    return _Integral(value, error + tail, n, p.size + 15 * (2 * n - edges.size + 1))


_SLOW_TAIL = 0.9  # local exponent of the tail past which B is not bounded


def _probe_tail_divergence(phi: Callable[[float], float]) -> None:
    # The tail integral converges iff phi grows superlinearly. Estimate the
    # local growth exponent of G(w) = w^3 phi(w^-2) near w = 0, where
    # integral_1^inf dx/phi = integral_0^1 2/G(w) dw, so exponent >= 1 means
    # divergence. From _SLOW_TAIL up, too much of a converging tail lies past
    # phi's overflow for the log-axis pass to bound it (at phi ~ x^1.03 it
    # misses 3.5e-8 of B while reporting an error of 5e-11). A phi that
    # overflows at these arguments grows far faster than any power, so the
    # tail certainly converges.
    w1, w2 = 1e-6, 1e-9
    p1, p2 = phi(w1 ** -2), phi(w2 ** -2)
    if math.isinf(p1) or math.isinf(p2):
        return
    g1 = w1 ** 3 * p1
    g2 = w2 ** 3 * p2
    if not (math.isfinite(g1) and math.isfinite(g2)) or g1 <= 0.0 or g2 <= 0.0:
        raise QuadratureError("quadrature failure: tail integrand is not positive finite")
    p = math.log(g1 / g2) / math.log(w1 / w2)
    if p >= 1.0:
        raise QuadratureError(
            f"tail integral of 1/phi diverges (local exponent {p:.3f} >= 1 near infinity)"
        )
    if p >= _SLOW_TAIL:
        raise QuadratureError(
            f"tail integral of 1/phi converges too slowly to be bounded within the float range"
            f" (local exponent {p:.3f} >= {_SLOW_TAIL} near infinity)"
        )


def _x_over_phi(phi: Callable[[np.ndarray], np.ndarray]) -> Callable[[np.ndarray], np.ndarray]:
    """s |-> e^s / phi(e^s) for an array phi: 1/phi on the log axis, x = e^s.

    Where rounding flushes phi to zero (exp(x)-1 written out does below
    2e-16) it takes sqrt(x), the leading behaviour of phi at 0; where phi is
    nan (softened overflow in an expression, such as inf/inf) it takes 0,
    as where phi overflows.
    """
    def f(s: np.ndarray) -> np.ndarray:
        x = np.exp(s)
        p = phi(x)
        r = x / p
        odd = ~(r < np.inf)
        if odd.any():
            r[odd] = np.where(p[odd] == 0.0, np.sqrt(x[odd]), 0.0)
        return r

    return f
