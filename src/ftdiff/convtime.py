"""Convergence-time analysis for the fixed-time differentiator.

The error dynamics linearize, through the inverse of the scaled generating
function, into a planar system with matrix

    A = [[-k1/2, 1/2],
         [-k2,   0  ]].

All convergence-time quantities reduce to integrals of Psi'(h(tau)) where
Psi is the inverse of the scaled map and h(tau) = e1^T e^(A tau) v is a
scalar response of that system. This module provides:

  * the eigenstructure and closed-form matrix exponential of A,
  * the exact unperturbed convergence time from a given initial state,
  * the single-exponential reduction that ties those integrals to the
    reciprocal integral of Phi,
  * the largest admissible Lipschitz constant (closed form and independent
    numerical route),
  * analytic lower/upper bounds for the worst-case time over the unit
    sphere, and a numerical search for that worst case.
"""
from __future__ import annotations

import bisect
import functools
import math
import sys
from dataclasses import dataclass
from typing import Callable, NamedTuple, Optional, Sequence

import numpy as np

from ._quad import _GK_WG, _GK_WK, _GK_X, _gk_panels, _refine, zoom_max
from .dgf import (
    AdmissibilityConstants,
    GeneratingFunction,
    ParamTriple,
    _check_k3,
    _far_field,
    _panel,
    _profile,
    _psi_integral,
    _psi_prime_array,
    nu1,
)
from .errors import (
    BoundNotApplicableError,
    InfeasibleError,
    NotAdmissibleError,
    QuadratureError,
)

__all__ = [
    "GlobalConvtime",
    "SystemMatrix",
    "expm2",
    "global_convtime_numeric",
    "lbar",
    "lbar_integral",
    "lower_bound",
    "system_matrix",
    "single_exp_reduction",
    "t0_exact",
    "t_perturbed_bound",
    "upper_bound_ttilde",
]

# Relative tolerance under which k1^2 - 8 k2 counts as zero (repeated eigenvalue)
_REPEATED_REL_TOL = 1e-10

_REAL_DISTINCT = "real-distinct"
_REAL_REPEATED = "real-repeated"
_COMPLEX = "complex"


@dataclass(frozen=True)
class SystemMatrix:
    """Eigenstructure of A = [[-k1/2, 1/2], [-k2, 0]].

    For the real kinds lam1 >= lam2 are the (real) eigenvalues. For the
    complex kind the eigenvalues are mu +/- i omega with omega > 0.
    """

    k1: float
    k2: float
    kind: str
    lam1: float
    lam2: float
    mu: float
    omega: float

    @property
    def eigenvalues(self) -> tuple[complex, complex]:
        if self.kind == _COMPLEX:
            return (complex(self.mu, self.omega), complex(self.mu, -self.omega))
        return (complex(self.lam1), complex(self.lam2))

    def matrix(self) -> np.ndarray:
        return np.array([[-0.5 * self.k1, 0.5], [-self.k2, 0.0]])


def system_matrix(k1: float, k2: float) -> SystemMatrix:
    """Classify the eigenstructure of the error-dynamics matrix.

    Raises ValueError unless k1 and k2 are positive finite floats whose
    discriminant k1^2 - 8 k2 is a finite float too.
    """
    if not (math.isfinite(k1) and k1 > 0.0 and math.isfinite(k2) and k2 > 0.0):
        raise ValueError("k1 and k2 must be positive finite scalars")
    disc = k1 * k1 - 8.0 * k2
    if not math.isfinite(disc):
        raise ValueError(f"k1^2 - 8 k2 is not a finite float at k1 = {k1:g}, k2 = {k2:g}")
    if abs(disc) <= _REPEATED_REL_TOL * k1 * k1:
        lam = -0.25 * k1
        return SystemMatrix(k1, k2, _REAL_REPEATED, lam, lam, 0.0, 0.0)
    if disc > 0.0:
        s = math.sqrt(disc)
        # lam1 lam2 = k2/2: Vieta's form spares lam1 the cancellation of -k1 + s
        return SystemMatrix(k1, k2, _REAL_DISTINCT, -2.0 * k2 / (k1 + s), 0.25 * (-k1 - s),
                            0.0, 0.0)
    omega = 0.25 * math.sqrt(-disc)
    return SystemMatrix(k1, k2, _COMPLEX, 0.0, 0.0, -0.25 * k1, omega)


def expm2(sys: SystemMatrix, tau: float) -> np.ndarray:
    """Matrix exponential e^(A tau) in closed form per eigenstructure."""
    a = sys.matrix()
    eye = np.eye(2)
    if sys.kind == _REAL_DISTINCT:
        l1, l2 = sys.lam1, sys.lam2
        p1 = (a - l2 * eye) / (l1 - l2)
        p2 = (a - l1 * eye) / (l2 - l1)
        return math.exp(l1 * tau) * p1 + math.exp(l2 * tau) * p2
    if sys.kind == _REAL_REPEATED:
        lam = sys.lam1
        return math.exp(lam * tau) * (eye + (a - lam * eye) * tau)
    mu, om = sys.mu, sys.omega
    return math.exp(mu * tau) * (
        math.cos(om * tau) * eye + math.sin(om * tau) / om * (a - mu * eye)
    )


# ---------------------------------------------------------------------------
# scalar responses h(tau) = e1^T e^(A tau) v


def _coefficients(sys: SystemMatrix, v1, v2) -> tuple:
    """(c1, c2) of the response from v = (v1, v2), floats or arrays alike.

    real-distinct: h = c1 e^(l1 t) + c2 e^(l2 t). real-repeated: h = e^(l1 t)
    (c1 + c2 t). complex: h = e^(mu t) (c1 cos(om t) + c2 sin(om t)).
    """
    if sys.kind == _REAL_DISTINCT:
        l1, l2 = sys.lam1, sys.lam2
        # e1^T (A - l I) v = (-k1/2 - l) v1 + v2/2 and -k1/2 - l2 = l1 (trace)
        return (l1 * v1 + 0.5 * v2) / (l1 - l2), -(l2 * v1 + 0.5 * v2) / (l1 - l2)
    if sys.kind == _REAL_REPEATED:
        return v1, sys.lam1 * v1 + 0.5 * v2
    # e1^T (A - mu I) v = (-k1/2 - mu) v1 + v2/2 and -k1/2 - mu = mu here
    return v1, (sys.mu * v1 + 0.5 * v2) / sys.omega


# ---------------------------------------------------------------------------
# exact unperturbed convergence time
#
# t0_exact lays out all of its panels on [0, T] before it evaluates any:
# stretches graded in u = log(k3 e^log_s |h|) on both sides of every zero of
# h, uniform panels between, and T where the envelope of |h| certifies the
# rest; then one array pass, and _refine for panels over their share of tol.

_T0_STEP = 1.5  # the most u a graded panel spans inside the band
_T0_COARSE = 3.0 * math.log(4.0)  # u across a graded panel past the band, where v quarters
_T0_WIDTH = 2.0  # uniform panels are at most this many 1/|rate| wide
_T0_WIDE = 3.0  # and this many times wider where u is known to lie outside the band
_T0_SMALL = 1e-3  # of tol: the most a graded stretch's first panel may hold
_T0_MAX_NODES = 1 << 19  # nodes per call (4 MB per array) past which it raises
_GK_KG = np.stack([_GK_WK, _GK_WG], axis=1)  # (15, 2)


def _mass_below(band: tuple, level: float) -> float:
    """The u up to which band's mass profile c stays at or below level, extended straight."""
    u, c = band[2:]
    i = min(max(bisect.bisect_right(c, level), 1), len(c) - 1)
    return u[i - 1] + (level - c[i - 1]) * (u[i] - u[i - 1]) / ((c[i] - c[i - 1]) or 1e-300)


@functools.lru_cache(maxsize=256)
def _graded_edges(above: int, inside: int) -> tuple[tuple[float, ...], ...]:
    """Panel ends (lo, hi), midpoints and half widths in v of a stretch graded toward v = 0.

    From v = 1, `above` panels quarter v, then `inside` panels shrink it by
    e^(-_T0_STEP/3), _T0_STEP of u where |h| ~ v^3; the first panel starts
    at 0. Built on first use.
    """
    v = (0.0, *(0.25 ** above * math.exp(-_T0_STEP / 3.0 * k) for k in range(inside, 0, -1)),
         *(0.25 ** k for k in range(above, -1, -1)))
    return v[:-1], v[1:], *_mid_half(v)


def _mid_half(s: Sequence[float]) -> tuple[tuple[float, ...], tuple[float, ...]]:
    """Midpoints and half widths of the panels between consecutive edges s."""
    return (tuple(0.5 * (a + b) for a, b in zip(s, s[1:])),
            tuple(0.5 * (b - a) for a, b in zip(s, s[1:])))


def _plan(
    zeros: list[tuple[float, float]], graded: float, width: float, t_end: float,
    far: tuple[float, float], band: tuple, log_small: float,
) -> tuple[np.ndarray, np.ndarray, np.ndarray, Callable[[], np.ndarray]]:
    """GK15 nodes t, their offsets from the panels' anchors and dt/ds, each (P, 15), on [0, t_end].

    Each zero z of h, given with the u of h linearized at z a `graded` away,
    gets stretches t = z -/+ L v^3, L <= graded, cut at 0, at t_end and
    halfway to the next zero, on the panels of _graded_edges: the first ends
    two steps into the band of u, or where band's mass profile puts at most
    e^log_small below it. The gaps get panels `graded`, 2 `graded`, ...
    wide, then at most `width` (_T0_WIDE times that from far[0] to far[1]
    after the last zero), anchored at the zero before them (or after, or at
    0). Graded panels come first. Also returns a function that lays the
    panels out for _refine, rows anchor, scale, cubic, lo, hi, with
    t = anchor + scale s^(3 if cubic else 1).
    """
    lo_b, hi_b = band[:2]
    graded_rows, gap_rows = ([], [], [], [], []), ([], [], [], [], [])  # rows as laid out below
    count = [0.0]

    def reserve(n: float) -> None:
        count[0] += n
        if not 15 * count[0] <= _T0_MAX_NODES:
            raise QuadratureError(f"quadrature failure: t0 needs {15 * count[0]:.0f} or more nodes"
                                  f" to cover [0, {t_end:.6g}], past the cap of {_T0_MAX_NODES}")

    def stretch(z: float, scale: float, u_z: float, v0: float = 0.0) -> None:
        length = abs(scale)
        u_end = u_z + math.log(length / graded)  # u falls by 3 log(1/v) from here
        stop = min(u_end, max(lo_b + 2.0 * _T0_STEP,
                              _mass_below(band, u_end + log_small - math.log(length))))
        above = max(0, math.ceil((u_end - max(hi_b, stop)) / _T0_COARSE))
        inside = max(0 if above else 1, math.ceil((u_end - above * _T0_COARSE - stop) / _T0_STEP))
        lo, hi, mid, half = _graded_edges(above, inside)
        if v0 > 0.0:  # the stretch starts at t = 0, past its first panels
            i = sum(x <= v0 for x in hi)
            mid, half = _mid_half((v0, *hi[i:]))
        reserve(len(mid))
        for row, new in zip(graded_rows, ([z] * len(mid), [scale] * len(mid), mid, half,
                                           [3.0 * length * x for x in half])):
            row += new

    def gap(a: float, b: float, anchor: float, top: float = 0.0, end: float = 0.0) -> None:
        if not b > a:
            return
        edges, w = [a], graded
        while w < width and edges[-1] + w < b:
            edges.append(edges[-1] + w)
            w *= 2.0
        start = edges.pop()
        reserve(len(edges))
        cuts = [start, *(c for c in (top, end) if start < c < b), b]
        for p, q in zip(cuts, cuts[1:]):
            w = width * (_T0_WIDE if top <= p < end else 1.0)
            reserve((q - p) / w)
            n = math.ceil((q - p) / w)
            edges += [p + (q - p) * i / n for i in range(n)]
        edges.append(b)
        sign = 1.0 if anchor <= a else -1.0
        mid, half = _mid_half([sign * (t - anchor) for t in (edges if sign > 0 else edges[::-1])])
        for row, new in zip(gap_rows, ([anchor] * len(mid), [sign] * len(mid), mid, half, half)):
            row += new

    pos = 0.0
    for i, (z, u_z) in enumerate(zeros):
        nxt = 0.5 * (z + zeros[i + 1][0]) if i + 1 < len(zeros) else t_end
        left = min(graded, z - pos)
        gap(pos, z - left, zeros[i - 1][0] if i else z)
        if left > 0.0:
            stretch(z, -left, u_z)
        right = min(graded, nxt - z)
        if z + right > 0.0:
            stretch(z, right, u_z, math.cbrt(max(-z, 0.0) / right))
            pos = z + right
    gap(pos, t_end, zeros[-1][0] if zeros else 0.0, *far)
    # anchor, scale, midpoint and half width in s, and dt/ds over v^2 on the graded panels
    cubic = len(graded_rows[0])
    anchor, scale, mid, half, dt = np.array([g + u for g, u in zip(graded_rows, gap_rows)]
                                            ).reshape(5, -1)[:, :, None]
    off = mid + half * _GK_X
    jac = dt.repeat(15, axis=1)
    v = off[:cubic]
    vv = v * v
    jac[:cubic] *= vv
    v *= vv
    off *= scale
    return (anchor + off, off, jac, lambda: np.array(
        [anchor, scale, np.arange(anchor.size)[:, None] < cubic, mid - half, mid + half])[:, :, 0])


def _nodes(p: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """_plan's three arrays for panels laid out as its rows, as _refine bisects them."""
    anchor, scale, cubic, lo, hi = p[:, :, None]
    half = 0.5 * (hi - lo)
    s = 0.5 * (hi + lo) + half * _GK_X
    off = scale * np.where(cubic > 0.0, s * s * s, s)
    return anchor + off, off, np.abs(scale) * half * np.where(cubic > 0.0, 3.0 * s * s, 1.0)


def _first_below(lam: float, a: float, b: float, k: float, t: float) -> float:
    """A time past t from which lam s + log(a + b s) <= k, for lam < 0 and a, b >= 0.

    The left side is concave and decreasing past t, so Newton steps from
    t + 1/|lam| land on or beyond the root and then descend to it.
    """
    start = t
    t += 1.0 / -lam
    for _ in range(20):
        m = a + b * t
        slope = lam + b / m
        if slope >= 0.0:
            break
        step = (lam * t + math.log(m) - k) / slope
        t -= step
        if t <= start or abs(step) <= 1e-9 * (1.0 + t):
            break
    return max(t, start)


def _log_abs(x: float) -> float:
    return math.log(abs(x)) if x != 0.0 else -math.inf


def _t0_layout(sys: SystemMatrix, u1: float, u2: float, log_tail: float, log_env: float,
               shift: float, band: tuple) -> tuple:
    """Where to grade and how far to go for h = e1^T e^(A t) (u1, u2), max(|u1|, |u2|) = 1.

    Returns the zeros of h before the end, each with the u = shift + log|h|
    of h linearized there a `graded` away; graded; the uniform width; the
    end T (closed form, or Newton steps) past which the envelope of |h| is
    at most e^log_env and its integral below e^log_tail; (top, end) between
    which u lies two steps above the band (known for real eigenvalues);
    u(t, offset) on arrays, offset = t - anchor sparing cancellation; and the
    log of the envelope's integral past T.
    """
    c1, c2 = _coefficients(sys, u1, u2)
    lc1, lc2 = _log_abs(c1), _log_abs(c2)
    far = (0.0, 0.0)
    if sys.kind == _COMPLEX:
        mu, om = sys.mu, sys.omega
        lr, phase = math.log(math.hypot(c1, c2)), math.atan2(c2, c1)
        t_end = max(0.0, (lr - log_env) / -mu, (lr - math.log(-mu) - log_tail) / -mu)
        width = _T0_WIDTH / -mu
        # the zeros of cos(omega t - phase), from the last one at or before 0; graded
        # as far as the quarter period, the nodes would bend toward the next zero
        n = math.floor(-(phase + 0.5 * math.pi) / math.pi)
        count = (om * t_end - phase - 0.5 * math.pi) / math.pi - n
        graded = min(0.25 * math.pi / om, width)
        base = shift + lr
        zeros = [(z, base + mu * z + math.log(om * graded))  # past the cap, _plan raises
                 for z in ((phase + 0.5 * math.pi + k * math.pi) / om
                           for k in range(n, n + math.ceil(min(count, _T0_MAX_NODES // 15 + 2))))
                 if z < t_end]

        def log_u(t: np.ndarray, off: np.ndarray) -> np.ndarray:
            return base + mu * t + np.log(np.abs(np.sin(om * off)))

        return zeros, graded, width, t_end, far, log_u, lr + mu * t_end - math.log(-mu)

    if sys.kind == _REAL_DISTINCT:
        l1, l2 = sys.lam1, sys.lam2
        gap_rate = l1 - l2
        # each mode at most half of each bound
        t_end = max(0.0, *((lc + math.log(2.0) - min(log_env, log_tail + math.log(-lam))) / -lam
                           for lc, lam in ((lc1, l1), (lc2, l2))))
        width = _T0_WIDTH / -l1
        graded = min(1.0 / gap_rate, 1.0 / -l1)
        same = c1 == 0.0 or c2 == 0.0 or (c1 > 0.0) == (c2 > 0.0)
        tz = -math.inf if same else math.log(-c2 / c1) / gap_rate
        # past top the fast mode is below 1e-8 of the slow one, and u = b1 + l1 t
        top = max(0.0, (lc2 - lc1 + math.log(1e8)) / gap_rate)
        far = (top, max(top, (shift + lc1 - band[1] - 2.0 * _T0_STEP) / -l1))
        anchored = -graded < tz < t_end
        if anchored:
            log_slope = lc1 + l1 * tz + math.log(gap_rate)
        b1, b2 = shift + lc1, shift + lc2
        rest = sorted(lc + lam * t_end - math.log(-lam) for lc, lam in ((lc1, l1), (lc2, l2)))
        log_rest = rest[1] + math.log1p(math.exp(rest[0] - rest[1]))

        def log_u(t: np.ndarray, off: np.ndarray) -> np.ndarray:
            a1, a2 = b1 + l1 * t, b2 + l2 * t
            x = -np.abs(gap_rate * off if anchored else a1 - a2)
            return np.maximum(a1, a2) + (np.log1p(np.exp(x)) if same else np.log(-np.expm1(x)))
    else:
        lam = sys.lam1
        a, b = abs(c1), abs(c2)
        # the zero tz, and the start of the envelope's decay
        tz, start = (-c1 / c2, max(0.0, -1.0 / lam - a / b)) if b else (-math.inf, 0.0)
        # the envelope's integral past s is e^(lam s) (tail[0] + tail[1] s)
        tail = (a / -lam + b / (lam * lam), b / -lam)
        t_end = max(_first_below(lam, a, b, log_env, start),
                    _first_below(lam, *tail, log_tail, start))
        width = _T0_WIDTH / -lam
        graded = 1.0 / -lam
        anchored = -graded < tz < t_end
        if anchored:
            log_slope = lc2 + lam * tz
        b2 = shift + lc2
        # past top, |h| = e^(lam t) |c1 + c2 t| falls and stays above e^(lam t) times
        # its value at top, unless the zero tz lies past the end
        top = max(start, tz + 2.0 / -lam)
        low = shift + (lc1 if c2 == 0.0 else lc2 + math.log(top - tz))
        far = (top, top if tz >= t_end else max(top, (low - band[1] - 2.0 * _T0_STEP) / -lam))
        log_rest = lam * t_end + math.log(tail[0] + tail[1] * t_end)

        def log_u(t: np.ndarray, off: np.ndarray) -> np.ndarray:
            if anchored:
                return b2 + lam * t + np.log(np.abs(off))
            return shift + lam * t + np.log(np.abs(c1 + c2 * t))

    zeros = [(tz, shift + log_slope + math.log(graded))] if anchored else []
    return zeros, graded, width, t_end, far, log_u, log_rest


def _log_initial(dgf: GeneratingFunction, k3: float, x1: float) -> float:
    """log |Phi_k3(x1)|; the built-ins stay in log space, where Phi cannot overflow.

    There k3^2 |x1| may overflow, or underflow below the normal floats, where its log does not.
    """
    if dgf._log_phi is None:
        return _log_abs(nu1(dgf, k3, x1))  # nu1 is precisely the scaled map Phi_k3
    if x1 == 0.0:
        return -math.inf
    x = k3 * k3 * abs(x1)
    normal = sys.float_info.min <= x < math.inf
    lx = math.log(x) if normal else 2.0 * math.log(k3) + math.log(abs(x1))
    return dgf._log_phi(x, lx) - math.log(k3)


def t0_exact(
    dgf: GeneratingFunction,
    kappa: ParamTriple,
    x0: tuple[float, float],
    *,
    tol: float = 1e-8,
) -> float:
    """Unperturbed convergence time from initial error state x0.

    Evaluates integral_0^inf (1/2) Psi'(e1^T e^(A tau) g(x0)) d tau where
    g(x0) = (Phi_k3(x0_1), x0_2); absolute tolerance tol. The error estimate
    is the sum of the panels' |Kronrod - Gauss| plus the certified tail.
    Raises ValueError for a non-finite x0 or gains that system_matrix
    rejects, NotAdmissibleError where Psi'_1(w) > 3w at the bottom of
    _profile's ladder, and QuadratureError where the estimate stays above
    tol, the panels would need more than _T0_MAX_NODES nodes, or k3 is too
    small for Psi' to resolve t0 within tol. Where logging is loaded and
    the "ftdiff" logger takes DEBUG records, logs one: panels, Psi' values,
    rounds of bisection, the error estimate against tol and the tail bound.
    """
    x1, x2 = float(x0[0]), float(x0[1])
    if not (math.isfinite(x1) and math.isfinite(x2)):
        raise ValueError("initial error x0 must be finite")
    k3 = kappa.k3
    system = system_matrix(kappa.k1, kappa.k2)
    # a root solve's Psi'_1 loses its bits below w = Phi(smallest normal float), and the part
    # of t0 where k3 |h| < w, about 1.5 w / (k3 |rate|), has to stay within tol
    floor = 0.0 if dgf._inverse_slope else dgf.phi(sys.float_info.min)
    rate = -(system.mu if system.kind == _COMPLEX else system.lam1)
    if (x1 or x2) and not (0.5 / k3 < math.inf and 1.5 * floor <= tol * rate * k3):
        raise QuadratureError(f"quadrature failure: k3 = {k3:g} is too small for Psi' of "
                              f"{dgf.name!r} to give t0 within tol = {tol:g}")
    lg, lx = _log_initial(dgf, k3, x1), _log_abs(x2)
    if lg == -math.inf and lx == -math.inf:
        return 0.0
    if not lg < math.inf:
        raise QuadratureError(f"quadrature failure: Phi_k3({x1:g}) is not a finite float")
    log_s = max(lg, lx)
    u1 = math.copysign(math.exp(lg - log_s), x1)
    u2 = math.copysign(math.exp(lx - log_s), x2)
    profile = _profile(dgf)
    if not profile.delta0 > 0.0:
        raise NotAdmissibleError(
            f"not admissible: {dgf.name!r} fails generating-function requirement (4), unbounded "
            "slope at zero: 1/phi'(phi^-1(w)) > 3w already at w = 1e-12")
    band = profile.band
    log_k3 = math.log(k3)
    # the tail beyond the panels, where |h| <= delta0/k3 and so 1/2 Psi'(h) <= 1.5 |h|,
    # takes a tenth of tol
    zeros, graded, width, t_end, far, log_u, log_rest = _t0_layout(
        system, u1, u2, math.log(tol / 15.0) - log_s,
        math.log(profile.delta0) - log_k3 - log_s, log_s + log_k3, band)
    t, off, jac, panels = _plan(zeros, graded, width, t_end, far, band,
                                math.log(_T0_SMALL * tol) + log_k3)
    psi = _psi_prime_array(dgf, 1.0)
    weights = (0.5 / k3) * _GK_KG

    def sums(t: np.ndarray, off: np.ndarray, jac: np.ndarray) -> np.ndarray:
        # Kronrod and Gauss sums of 1/2 Psi'(h) = Psi'_1(k3 |h|) / (2 k3) on each panel
        f = psi(np.exp(log_u(t, off)))
        f *= jac
        return (f @ weights).T

    with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
        value, error, panels, rounds = _refine(lambda p: sums(*_nodes(p)), panels,
                                               *sums(t, off, jac), 0.9 * tol, _T0_MAX_NODES)
    logging = sys.modules.get("logging")  # never imported here: only a loaded logger can want it
    if logging is not None and logging.getLogger("ftdiff").isEnabledFor(logging.DEBUG):
        info = {"panels": panels, "values": 15 * (2 * panels - t.shape[0]), "rounds": rounds,
                "error": error, "tol": tol, "tail": 1.5 * math.exp(log_s + log_rest)}
        logging.getLogger("ftdiff").debug(
            "t0_exact %s at (%g, %g, %g) from (%g, %g): %d panels, %d Psi' values, %d rounds of "
            "bisection, error estimate %.2e against tol %.2e, tail bound %.2e", dgf.name,
            kappa.k1, kappa.k2, k3, x1, x2, *info.values(), extra=info)
    return value


def single_exp_reduction(
    dgf: GeneratingFunction,
    k3: float,
    lam: float,
    c: float,
    *,
    tol: float = 1e-9,
) -> float:
    """integral_0^inf Psi'(c e^(lam tau)) d tau for lam < 0, in reduced form.

    Equals (1/(k3 |lam|)) integral_0^{Phi^-1(k3 |c|)} dx / Phi(x), off the
    Psi'_1 table within tol (_psi_integral); evenness of Psi' makes the sign
    of c irrelevant. As |c| grows the value tends to B / (k3 |lam|), which
    c = +/-inf gives. c = nan raises ValueError.
    """
    if not lam < 0.0:
        raise ValueError("lam must be negative (stable mode)")
    _check_k3(k3)
    if math.isnan(c):
        raise ValueError("c must be a number, got nan")
    return _psi_integral(dgf, k3 * abs(c), tol)[0] / (k3 * -lam)


# ---------------------------------------------------------------------------
# largest admissible Lipschitz constant


def lbar(k1: float, k2: float, D: float) -> float:
    """Largest perturbation slope with a convergence guarantee, closed form."""
    if not (k1 > 0.0 and k2 > 0.0):
        raise ValueError("k1 and k2 must be positive")
    if not D >= 1.0:
        raise ValueError("D must be >= 1")
    if k1 * k1 >= 8.0 * k2:
        return k2 / D
    return (k2 / D) * math.tanh(math.pi * k1 / (2.0 * math.sqrt(8.0 * k2 - k1 * k1)))


def lbar_integral(k1: float, k2: float, D: float, *, tol: float = 1e-10) -> float:
    """Same quantity as lbar via 1 / (D integral_0^inf |e1^T e^(A tau) e2| d tau).

    Numerical, kept independent of the closed form: t0_exact's panels, graded
    at the zeros of the response and ending where its envelope certifies the
    rest, with |h| = e^u, which bends nowhere, in place of 1/2 Psi'(h).
    """
    if not D >= 1.0:
        raise ValueError("D must be >= 1")
    flat = (-1e300, 1e300, [0.0, 1.0], [-math.log(2.0), 2.0 - math.log(2.0)])  # e^(2u)/2 below u
    zeros, graded, width, t_end, far, log_u, _ = _t0_layout(
        system_matrix(k1, k2), 0.0, 1.0, math.log(tol / 15.0), math.inf, 0.0, flat)
    t, off, jac, panels = _plan(zeros, graded, width, t_end, far, flat, 0.0)

    def sums(t: np.ndarray, off: np.ndarray, jac: np.ndarray) -> np.ndarray:
        return ((np.exp(log_u(t, off)) * jac) @ _GK_KG).T

    with np.errstate(divide="ignore"):
        total = _refine(lambda p: sums(*_nodes(p)), panels, *sums(t, off, jac), 0.9 * tol,
                        _T0_MAX_NODES)[0]
    return 1.0 / (D * total)


def t_perturbed_bound(t0: float, L: float, lbar_value: float) -> float:
    """Convergence-time bound under perturbation slope L: t0 / (1 - L/lbar)."""
    if t0 < 0.0 or L < 0.0 or lbar_value <= 0.0:
        raise ValueError("t0, L must be nonnegative and lbar positive")
    if L >= lbar_value:
        raise InfeasibleError(
            f"Lipschitz constant exceeds admissible maximum (L = {L:g} >= {lbar_value:g})"
        )
    return t0 / (1.0 - L / lbar_value)


# ---------------------------------------------------------------------------
# analytic bounds for the worst case over the unit sphere


def _real_system(kappa: ParamTriple) -> SystemMatrix:
    """system_matrix of kappa, which the bounds need real; raises BoundNotApplicableError if not."""
    sys = system_matrix(kappa.k1, kappa.k2)
    if sys.kind == _COMPLEX:
        raise BoundNotApplicableError(
            f"bound not applicable: k1^2 < 8 k2 (k1={kappa.k1:g}, k2={kappa.k2:g})"
        )
    return sys


def lower_bound(constants: AdmissibilityConstants, kappa: ParamTriple) -> float:
    """Worst-case convergence time is at least 2B / ((k1 - sqrt(k1^2-8k2)) k3).

    k1 - sqrt(k1^2 - 8 k2) = 4 |lam1|, which system_matrix gives free of cancellation.
    """
    return 2.0 * constants.B / (4.0 * -_real_system(kappa).lam1 * kappa.k3)


def upper_bound_ttilde(constants: AdmissibilityConstants, kappa: ParamTriple) -> float:
    """Closed-form upper bound for the worst-case unperturbed time.

    Continuous across the k1^2 = 8 k2 boundary, where it becomes
    (C + 6B) / (k1 k3). Its log term takes (k1 + s)/(k1 - s) = lam2/lam1,
    s = sqrt(k1^2 - 8 k2), free of the cancellation in k1 - s.
    """
    sys = _real_system(kappa)
    k1, k2, k3 = kappa.k1, kappa.k2, kappa.k3
    if sys.kind == _REAL_REPEATED:
        return (constants.C + 6.0 * constants.B) / (k1 * k3)
    s = math.sqrt(k1 * k1 - 8.0 * k2)  # finite and positive: system_matrix checked it
    log_term = math.log(sys.lam2 / sys.lam1) / (2.0 * k3 * s) * constants.C
    tail_term = (k1 * k1 + 4.0 * k2) / (2.0 * k1 * k2 * k3) * constants.B
    return log_term + tail_term


# ---------------------------------------------------------------------------
# numerical worst case over the unit sphere


@dataclass(frozen=True)
class GlobalConvtime:
    """Numerically searched worst-case unperturbed convergence time.

    value is the supremum estimate; argmax identifies the worst initial
    condition in the parameterization named by search. The grid resolution
    and inner quadrature tolerance are reported rather than folded into an
    accuracy claim.
    """

    value: float
    dgf_name: str
    kappa: ParamTriple
    search: str
    argmax: float
    grid_points: int
    inner_tol: float

    def __float__(self) -> float:
        return self.value


# ---------------------------------------------------------------------------
# batched full-line integrals
#
# Every response the search visits is h = A E(u) for a shape E shared by the
# whole batch, up to a time shift, which leaves a full-line integral
# unchanged: complex eigenvalues give E(s) = e^(mu s/omega) cos s in
# s = omega t - phase, distinct real ones E(t) = e^(lam1 t) +/- e^(lam2 t),
# a repeated one E(t) = t e^(lam t) with t measured from the zero of h
# (a row whose zero lies far out gets its own shape, see _circle_values). The
# kernel evaluates 1/2 Psi'(A E) for all rows at once, in log|h| so that
# neither A nor E overflows, on blocks of Gauss-Kronrod panels outward that
# each side of a shape plans once per search and panel level (_Plan).

_GRADED_PANELS = 8  # GK15 panels, halving toward a zero of h, per graded stretch
_MAX_LEVEL = 3  # blocks over their share are redone with 2x, 4x, 8x the panels
_MAX_BLOCKS = 2000  # blocks per side before a row counts as unconverged
_FIRST_PANELS = 64  # panels a walk lays out at least; it doubles while rows need more
_CHUNK = 1 << 14  # Psi' values per call: 128 kB per scratch array
_FAR_ZERO = 100.0  # |lam tz| past which a repeated-case row is walked from t = 0


class _Tails(NamedTuple):
    """One search's Psi' of the scaled map, what its tail brackets read, and its walk plans."""

    psi: Callable[..., np.ndarray]
    dgf: GeneratingFunction
    k3: float
    plans: dict


def _tails(dgf: GeneratingFunction, k3: float) -> _Tails:
    return _Tails(_psi_prime_array(dgf, k3), dgf, k3, {})


class _Bracket(NamedTuple):
    """A closed-form bracket for the rest of a row's tail past a block.

    half(la, d) is its half-width for rows of log amplitude la, shape
    (rows, 1), past blocks of descriptors d, shape (n, k): (rows, n), inf
    where no bracket holds. It grows with la on the right and shrinks with
    it on the left. close(la, d, tally) gives the midpoint and half-width
    for rows la, shape (m,), each past its own block d, shape (m, k).
    """

    half: Callable[[np.ndarray, np.ndarray], np.ndarray]
    close: Callable[[np.ndarray, np.ndarray, "_Tally"], tuple[np.ndarray, np.ndarray]]


def _envelope_bracket(tails: _Tails) -> _Bracket:
    """Right tails. A block's d is (log_env, log_int): the log of a bound on |E| past it, and
    the log of the integral of |E| past it.

    1/2 Psi'(h) = Psi'_1(w)/(2w) |h| with w = k3 |h| <= v = k3 e^(la + log_env),
    so the rest lies in (centre +/- half)(v) of _profile's ratio times the
    integral e^(la + log_int) of |h|. lo = 0, hi = 1.5 would be the 3w
    bound of the small-slope threshold.
    """
    log_w, centre, spread = _profile(tails.dgf).ratio
    log_k3 = math.log(tails.k3)

    def at(la: np.ndarray, d: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        return np.searchsorted(log_w, la + log_k3 + d[:, 0]), np.exp(la + d[:, 1])

    def half(la: np.ndarray, d: np.ndarray) -> np.ndarray:
        j, mass = at(la, d)
        return spread[j] * mass

    def close(la: np.ndarray, d: np.ndarray, tally: "_Tally") -> tuple[np.ndarray, np.ndarray]:
        j, mass = at(la, d)
        return centre[j] * mass, spread[j] * mass

    return _Bracket(half, close)


def _far_field_bracket(tails: _Tails, lam2: float) -> _Bracket:
    """Left tails of two-exponential rows. A block's d is (|lam2| t, eps, log(1 - eps),
    atanh(eps)), eps = e^(-(lam1 - lam2) t).

    Past a block whose outer end lies t left of the zero, k3 |h| at a time
    s further out is w e^(|lam2| s) (1 +/- eps), w = k3 e^(la + |lam2| t),
    0 <= eps <= e^(-(lam1 - lam2) t). Where Psi'_1 falls from w (1 - eps) on,
    the rest lies between T(w (1 + eps)) and T(w (1 - eps)) over 2 k3 |lam2|,
    T(w) = integral_log w^inf Psi'_1(e^u) du, which is exact for a single
    mode. T(w) is _far_field's value at the edge above log w plus one GK15
    panel; Psi'_1 at the edge below w (1 - eps) bounds both ends' distance
    from it, atanh(eps) on average.
    """
    far = _far_field(tails.dgf)
    psi = _psi_prime_array(tails.dgf, 1.0)
    log_k3 = math.log(tails.k3)
    scale = 1.0 / (2.0 * tails.k3 * -lam2)
    top = far.edges.size - 1

    def below(u: np.ndarray, d: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        # the edge at or below log w (1 - eps), and whether Psi'_1 falls from it on
        i = np.searchsorted(far.edges, u + d[:, 2], side="right") - 1
        return np.maximum(i, 0), i >= far.first

    def half(la: np.ndarray, d: np.ndarray) -> np.ndarray:
        u = la + log_k3 + d[:, 0]
        i, falls = below(u, d)
        j = np.minimum(np.searchsorted(far.edges, u), top)
        return np.where(falls, (d[:, 3] * far.psi[i] + far.err[j]) * scale, np.inf)

    def close(la: np.ndarray, d: np.ndarray, tally: "_Tally") -> tuple[np.ndarray, np.ndarray]:
        u = la + log_k3 + d[:, 0]
        m = far.psi[below(u, d)[0]]
        u = np.minimum(u, far.edges[-1])
        j = np.searchsorted(far.edges, u)
        k, g = _panel(psi, u, far.edges[j], tally)
        mid = (far.rest[j] + k - 0.5 * np.log1p(-d[:, 1] * d[:, 1]) * m) * scale
        return mid, (d[:, 3] * m + far.err[j] + np.abs(k - g)) * scale

    return _Bracket(half, close)


class _Tally:
    """Work counts of one worst-case search, for its debug record, and the
    scratch arrays that its Psi' calls write into: allocated once, at the
    size of the first call or _CHUNK values, whichever is larger, so that a
    search's calls reuse the same memory.
    """

    COUNTS = ("calls", "blocks", "passes", "psi_calls", "values", "level", "refined",
              "refined_values", "right_closed", "right_width", "left_closed", "left_width")
    __slots__ = COUNTS + ("_scratch",)

    def __init__(self) -> None:
        for name in self.COUNTS:
            setattr(self, name, 0.0 if name.endswith("width") else 0)
        self._scratch = np.empty((3, 0))

    def closed(self, right: bool, half: np.ndarray) -> None:
        """Count tails that brackets closed on one side, and add up their half-widths."""
        side = "right" if right else "left"
        setattr(self, side + "_closed", getattr(self, side + "_closed") + half.size)
        setattr(self, side + "_width", getattr(self, side + "_width") + float(half.sum()))

    def scratch(self, n: int) -> np.ndarray:
        """Three arrays of n values each, as (3, n)."""
        if self._scratch.shape[1] < n:
            self._scratch = np.empty((3, max(n, _CHUNK)))
        return self._scratch[:, :n]


@functools.lru_cache(maxsize=256)
def _graded(length: float, level: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Offsets length*v^3 from a zero of h, v on panels halving toward 0.

    Where |h| is large, Psi' decays only like |h|^(-1/3), so each zero
    crossing is a cusp of width about 1/|h'|; the cubic map turns its power
    law into a ramp in v, and the halving panels resolve the ramp's corner
    at whatever scale it sits. Built once per length and level, read-only.
    """
    v = np.concatenate([[0.0], 0.5 ** np.arange(_GRADED_PANELS - 1, -1, -1)])
    v = np.interp(np.arange((v.size - 1 << level) + 1) / (1 << level), np.arange(v.size), v)
    v, wk, wg = _gk_panels(v[:-1], v[1:])
    jac = 1.5 * length * v * v  # 3 length v^2, times the 1/2 of 1/2 Psi'
    out = length * v ** 3, wk * jac, wg * jac
    for a in out:
        a.flags.writeable = False
    return out


class _Plan:
    """One side of a shape's walk at one panel level, laid out for its first n blocks.

    log_e, wk and wg hold log|E| at the GK15 nodes of the blocks' panels and
    the Kronrod and Gauss weights, which carry the panel Jacobians and the
    factor 1/2 of 1/2 Psi', each (panels, 15): `head` panels for the first
    block, then `per` for each later one. desc holds the blocks' bracket
    descriptors (n, k), or is None on a side without a bracket; ends holds
    the distance of each block's outer end from the start of the walk.
    grow(n) lays out at least n blocks, twice as many as before and
    _FIRST_PANELS worth, up to _MAX_BLOCKS; the blocks laid out before keep
    their bits.
    """

    def __init__(self, layout: Callable[[int], tuple], right: bool,
                 bracket: Optional[_Bracket], head: int, per: int) -> None:
        self.layout, self.right, self.bracket = layout, right, bracket
        self.head, self.per, self.n = head, per, 0

    def grow(self, n: int) -> None:
        self.n = min(max(n, 2 * self.n, _FIRST_PANELS // self.per), _MAX_BLOCKS)
        with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
            self.log_e, self.wk, self.wg, self.desc, self.ends = self.layout(self.n)

    def edge(self, b: int) -> int:
        """The row of the tables where block b starts."""
        return self.head + (b - 1) * self.per if b else 0


def _plans(tails: _Tails, build: Callable[..., _Plan], *shape) -> Callable[[int, bool], _Plan]:
    """The plans build(tails, *shape, level, right) of one shape, each made once a search."""
    return lambda *at: (tails.plans.get((build, *shape, *at))
                        or tails.plans.setdefault((build, *shape, *at), build(tails, *shape, *at)))


def _complex_plan(tails: _Tails, mu: float, omega: float, level: int, right: bool) -> _Plan:
    """Half periods between the zeros s = -pi/2 + n pi of cos s, outward from s = -pi/2.

    Every half period has the same nodes, graded toward both of its zeros;
    |cos| there is the sine of the offset, free of cancellation.
    """
    off, wk, wg = _graded(0.5 * math.pi, level)
    d = np.concatenate([off, math.pi - off])
    log_sin = np.log(np.sin(np.concatenate([off, off])))
    wk, wg = (np.concatenate([w, w]) / omega for w in (wk, wg))
    rate = mu / omega
    # integral_0^pi sin(x) e^(rate x) dx = (1 + e^(rate pi)) / (1 + rate^2), and each
    # half period after it e^(rate pi) times the one before; dt = ds / omega
    shrink = math.exp(rate * math.pi)
    log_rest = math.log((1.0 + shrink) / ((1.0 + rate * rate) * (1.0 - shrink) * omega))

    def layout(n: int) -> tuple:
        z = -0.5 * math.pi + (np.arange(n) if right else -1.0 - np.arange(n)) * math.pi
        end = rate * (z + math.pi)
        return ((rate * (z[:, None, None] + d) + log_sin).reshape(-1, d.shape[1]),
                np.tile(wk, (n, 1)), np.tile(wg, (n, 1)),
                np.stack([end, end + log_rest], axis=1) if right else None,
                (z + math.pi if right else -z) / omega)

    size = d.shape[0]
    return _Plan(layout, right, _envelope_bracket(tails) if right else None, size, size)


def _walk(log_e: Callable, graded: float, widths: Callable, level: int, right: bool,
          bound: Optional[Callable], bracket: Optional[_Bracket], zero: bool = True) -> _Plan:
    """A first block `graded` long, then blocks widths(m) wide, an array for the next m.

    Where E has a zero at t = 0, the first block is graded toward it;
    otherwise it is a plain block. bound maps the outer ends of blocks, as
    distances from 0, to their bracket descriptors.
    """
    sign = 1.0 if right else -1.0
    frac = np.arange((1 << level) + 1.0) / (1 << level)
    first = _graded(graded, level) if zero else ()

    def layout(n: int) -> tuple:
        width = np.append(graded, widths(n - 1))
        ends = np.cumsum(width)
        edges = (np.append(0.0, ends[:-1])[:, None] + width[:, None] * frac)[int(zero):]
        t, wk, wg = _gk_panels(edges[:, :-1].ravel(), edges[:, 1:].ravel())
        nodes = t, 0.5 * wk, 0.5 * wg
        t, wk, wg = (np.concatenate(pair) for pair in zip(first, nodes)) if zero else nodes
        return log_e(sign * t), wk, wg, bound and bound(ends), ends

    per = frac.size - 1
    return _Plan(layout, right, bracket, first[0].shape[0] if zero else per, per)


def _distinct_plan(tails: _Tails, lam1: float, lam2: float, sign: float, level: int,
                   right: bool) -> _Plan:
    """E(t) = e^(lam1 t) + sign e^(lam2 t); its only possible zero is t = 0."""
    gap = lam1 - lam2

    def log_e(t: np.ndarray) -> np.ndarray:
        # factor out the dominant mode: lam1 rightward, lam2 leftward
        x = -gap * np.abs(t)
        rest = np.log1p(np.exp(x)) if sign > 0.0 else np.log(-np.expm1(x))
        return (lam1 if right else lam2) * t + rest

    def bound(t: np.ndarray) -> np.ndarray:
        if not right:
            eps = np.exp(-gap * t)
            return np.stack([-lam2 * t, eps, np.log1p(-eps), np.arctanh(eps)], axis=1)
        # integral_t^inf |E| = e^(lam1 t) (-lam2 + sign (-lam1) e^x) / (lam1 lam2), x = -gap t,
        # and for sign < 0 that numerator is gap - lam1 (1 - e^x), free of cancellation
        x = -gap * t
        mass = gap + lam1 * np.expm1(x) if sign < 0.0 else -lam2 - lam1 * np.exp(x)
        return np.stack([lam1 * t + np.log1p(np.exp(x)), lam1 * t + np.log(mass / (lam1 * lam2))],
                        axis=1)

    graded = min(1.0 / gap, 1.0 / -lam1)
    if right:
        def widths(m: int) -> np.ndarray:
            return np.minimum(np.ldexp(graded, np.arange(m)), 1.0 / -lam1)

        return _walk(log_e, graded, widths, level, right, bound, _envelope_bracket(tails),
                     sign < 0.0)
    return _walk(log_e, graded, functools.partial(np.full, fill_value=1.0 / -lam2), level, right,
                 bound, _far_field_bracket(tails, lam2), sign < 0.0)


def _repeated_plan(tails: _Tails, lam: float, level: int, right: bool) -> _Plan:
    """E(t) = t e^(lam t): the zero is at t = 0 and |E| peaks at t = 1/|lam|."""
    scale = 1.0 / -lam

    def log_e(t: np.ndarray) -> np.ndarray:
        return np.log(np.abs(t)) + lam * t

    def bound(t: np.ndarray) -> np.ndarray:
        d = np.stack([np.log(t) + lam * t, lam * t + np.log(t * scale + scale * scale)], axis=1)
        d[t < scale] = math.inf  # envelope still rising: no bracket yet
        return d

    return _walk(log_e, scale, functools.partial(np.full, fill_value=scale), level, right,
                 *((bound, _envelope_bracket(tails)) if right else (None, None)))


def _far_zero_plan(tails: _Tails, lam: float, eps: float, level: int, right: bool) -> _Plan:
    """E(t) = e^(lam t) (1 + eps t) with |eps| < |lam| / _FAR_ZERO.

    The zero -1/eps lies where |h| is negligible (right) or far past the
    peak of Psi' (left), so both walks end before reaching it and nothing
    is graded toward it. The envelope e^(lam t) (1 + |eps| t) decreases on
    t >= 0 because |eps| < |lam|.
    """
    scale = 1.0 / -lam
    tz = -1.0 / eps if eps < 0.0 else -math.inf

    def log_e(t: np.ndarray) -> np.ndarray:
        return lam * t + np.log(np.abs(1.0 + eps * t))

    def bound(t: np.ndarray) -> np.ndarray:
        # integral_t^inf E = e^(lam t) g(t), g(t) = (1 + eps t) scale + eps scale^2; from
        # before the zero tz, |E| adds twice the part past it, 2 |eps| scale^2 e^(lam tz)
        g = (1.0 + eps * t) * scale + eps * scale * scale
        before = t < tz
        g[before] += 2.0 * -eps * scale * scale * np.exp(lam * (tz - t[before]))
        return np.stack([lam * t + np.log(1.0 + abs(eps) * t), lam * t + np.log(g)], axis=1)

    return _walk(log_e, scale, functools.partial(np.full, fill_value=scale), level, right,
                 *((bound, _envelope_bracket(tails)) if right else (None, None)), False)


def _block_sums(psi: Callable[..., np.ndarray], plan: _Plan, groups: list, tally: _Tally) -> list:
    """Kronrod sum and summed |Kronrod - Gauss| of each row's blocks, (2, rows, count) a group.

    A group (la, first, count) takes blocks first to first + count - 1 of
    the plan, which grows to reach them, for rows of log amplitude la. The
    groups' blocks go through Psi' together, in calls of at most _CHUNK
    values (one block at least), each worked in the search's scratch arrays.
    """
    out, step = [], max(1, _CHUNK // _GK_X.size)  # panels a call
    for la, first, count in groups:
        if first + count > plan.n:
            plan.grow(first + count)
        out.append(np.empty((2, la.size, count)))

    def call(runs: list, n: int) -> None:
        # runs of rows r to s and blocks b to e of a group, their n panels one after the other
        x, h, y = (v.reshape(n, -1) for v in tally.scratch(n * _GK_X.size))
        views, at = [], 0
        for g, r, s, b, e in runs:
            la, first = groups[g][:2]
            p, q = plan.edge(first + b), plan.edge(first + e)
            k = (s - r) * (q - p)
            views.append((p, q, *(v[at:at + k].reshape(s - r, q - p, -1) for v in (x, h, y))))
            np.add(plan.log_e[p:q], la[r:s, None, None], out=views[-1][2])
            at += k
        np.exp(x, out=x)
        psi(x, out=h)
        sums = np.empty((2, n))  # per panel
        for j, w in enumerate((plan.wk, plan.wg)):
            for p, q, _, hv, yv in views:
                np.multiply(hv, w[p:q], out=yv)
            np.sum(y, axis=-1, out=sums[j])
        np.subtract(sums[0], sums[1], out=sums[1])
        np.abs(sums[1], out=sums[1])
        at = 0
        for (g, r, s, b, e), (p, q, *_) in zip(runs, views):
            seg = sums[:, at:at + (s - r) * (q - p)].reshape(2, s - r, q - p)
            at += (s - r) * (q - p)
            if p == 0 < plan.head - plan.per:  # a graded first block
                out[g][:, r:s, b] = seg[..., :plan.head].sum(axis=-1)
                seg, b = seg[..., plan.head:], b + 1
            out[g][:, r:s, b:e] = (seg.reshape(2, s - r, -1, plan.per).sum(axis=-1)
                                   if plan.per > 1 else seg)
        tally.psi_calls += 1
        tally.values += y.size

    runs, room = [], step
    for g, (la, first, count) in enumerate(groups):
        r = b = 0
        width = plan.edge(first + count) - plan.edge(first)  # panels a row
        while r < la.size:
            size = plan.edge(first + b + 1) - plan.edge(first + b)  # of the next block
            if size > room and runs:
                call(runs, step - room)
                runs, room = [], step
            if not b and width <= room:
                s, e = min(la.size, r + room // width), count
            else:  # as many blocks of one row as fit, one at least
                s, e = r + 1, min(count, b + 1 + max(0, room - size) // plan.per)
            runs.append((g, r, s, b, e))
            room -= (s - r) * (plan.edge(first + e) - plan.edge(first + b))
            r, b = (s, 0) if e == count else (r, e)
    if runs:
        call(runs, step - room)
    return out


def _bracket_ends(plan: _Plan, la: np.ndarray, q: float) -> np.ndarray:
    """Each row's last block, the first past which its bracket is below q; -1 if none is.

    Rows come in the order of the blocks they need, so each row's end is
    looked for between the last row's and the first row's only. The plan
    grows while the first row needs more blocks, up to _MAX_BLOCKS.
    """
    while True:
        if plan.n:
            done = plan.bracket.half(la[[0, -1], None], plan.desc) < q
            if done[0].any() or plan.n == _MAX_BLOCKS:
                break
        plan.grow(plan.n + 1)
    lo, hi = sorted(map(int, done.argmax(axis=1))) if done[0].any() else (0, plan.n - 1)
    if lo == hi:
        return np.full(la.size, hi)
    done = plan.bracket.half(la[:, None], plan.desc[lo:hi + 1]) < q
    return np.where(done.any(axis=1), lo + done.argmax(axis=1), -1)


class _Walk(NamedTuple):
    """One side's walk for the rows of a batch.

    Per row, sum holds the value and error, each with the tail term: a
    bracket's midpoint and half-width, or the left remainder; tail is the
    term and count the blocks taken. sums holds every block's Kronrod sum
    and |Kronrod - Gauss|, (2, rows, blocks), 0 past a row's last pass.
    """

    sum: np.ndarray
    tail: np.ndarray
    count: np.ndarray
    sums: np.ndarray


def _walk_side(psi: Callable[..., np.ndarray], plan: _Plan, loga: np.ndarray, tol: float,
               tally: _Tally) -> _Walk:
    """The walk of rows e^loga E on one side's plan, a Psi' pass at a time.

    With a bracket, a row ends at the first block past which it is below
    the side's share of tol, a tenth on the right and a quarter on the
    left, known before any Psi' value: one pass takes the side, rows in the
    order of the blocks they need, in slices of _CHUNK values each up to
    the end of its first row, a graded first block for every row. Without
    one (the left side of complex and repeated rows), a row ends after two
    blocks below tol/4 whose geometric remainder is below tol/4 (or both
    0): the first block goes alone, then each pass to where the decay so
    far would end the walk, or twice as far as the last, with at most
    _CHUNK values or one block. The walk stops at an error estimate that
    is not finite; rows past _MAX_BLOCKS raise QuadratureError.
    """
    q = (0.1 if plan.right else 0.25) * tol
    total, tail = np.zeros((2, loga.size)), np.zeros(loga.size)
    count = np.zeros(loga.size, dtype=np.int64)
    # a bracket ends larger rows later on the right and sooner on the left
    rows = np.argsort(-loga if plan.right else loga, kind="stable")
    prev = np.full(loga.size, math.inf)  # without a bracket: the last block's sum
    ratio = np.zeros(loga.size)  # and its ratio to the one before
    start, n, passes = 0, 0, []
    # overflow makes |h| inf (Psi' = 0 there); a diverging integral makes the
    # sums inf or nan, which ends the walk
    with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
        while rows.size:
            la = loga[rows]
            if plan.bracket is not None:
                last = _bracket_ends(plan, la, q)
                stuck = int(np.count_nonzero(last < 0))
                upto = np.maximum.accumulate(last[::-1])[::-1] + 1
                n, graded = int(upto[0]), int(plan.head != plan.per)
                i, go, groups = 0, int(np.count_nonzero(upto > graded)), []
                while i < go:
                    j = min(go, i + max(1, _CHUNK // ((int(upto[i]) - graded) * plan.per
                                                      * _GK_X.size)))
                    groups.append((la[i:j], 0, int(upto[i])))
                    i = j
                if go < rows.size:
                    groups.append((la[go:], 0, 1))
            else:
                want = 1
                if start:
                    # blocks counted at the size of the last pass's
                    cap = _CHUNK // (rows.size * _GK_X.size
                                     * (plan.head if start == 1 else plan.per))
                    want = 2 * n
                    c0, rho = float(prev[rows].max()), float(ratio[rows].max())
                    if cap > 1 and 0.0 < c0 < math.inf and 0.0 < rho < 1.0:
                        # the block where the rule would end a row whose last sum were the
                        # largest and whose sums kept shrinking by the largest last ratio:
                        # the sum before it and the rest c rho / (1 - rho) after it below q
                        lr = math.log(rho)
                        want = 1 + math.floor(max(math.log(q / c0) / lr + 1.0,
                                                  math.log(q * (1.0 - rho) / c0) / lr - 1.0,
                                                  0.0))
                    want = max(1, min(want, cap))
                if start + want > plan.n:
                    plan.grow(start + want)
                n = min(want, plan.n - start)
                stuck = 0 if n else rows.size
                groups = [(la, start, n)]
            if stuck:
                raise QuadratureError(
                    f"quadrature failure: {'right' if plan.right else 'left'} tail of {stuck} "
                    f"responses did not converge within {_MAX_BLOCKS} blocks")
            sums, i = np.zeros((2, rows.size, n)), 0
            for got in _block_sums(psi, plan, groups, tally):
                sums[:, i:i + got.shape[1], :got.shape[2]] = got
                i += got.shape[1]
            if plan.bracket is None:
                c = sums[0]
                p = np.concatenate([prev[rows, None], c[:, :-1]], axis=1)
                shrinking = (0.0 < c) & (c < p)
                rem = np.where(shrinking, c * c / (p - c), 0.0)  # c rho / (1 - rho)
                # c < q needs no test: on either branch it follows from p < q
                done = (p < q) & ((shrinking & (rem < q)) | ((c == 0.0) & (p == 0.0)))
                stop = done.any(axis=1)
                last = np.where(stop, done.argmax(axis=1), n - 1)
                prev[rows], ratio[rows] = c[:, -1], c[:, -1] / p[:, -1]
            else:
                stop = np.ones(rows.size, dtype=bool)
            tally.blocks += n
            tally.passes += 1
            passes.append((rows, start, sums))
            count[rows] += last + 1
            # the value and error up to each row's last block, added in block order
            acc = sums.copy()
            if start:
                acc[:, :, 0] += total[:, rows]
            np.add.accumulate(acc, axis=-1, out=acc)
            total[:, rows] = acc[:, np.arange(rows.size), last]
            fin = rows[stop]
            if plan.bracket is not None:
                mid, rest = plan.bracket.close(loga[fin], plan.desc[last], tally)
                tally.closed(plan.right, rest)
            else:
                mid = rest = rem[stop, last[stop]]
            total[:, fin] += mid, rest
            tail[fin] = rest
            start += n
            if not np.isfinite(total[1, rows]).all():
                break
            rows = rows[~stop]
    every = np.zeros((2, loga.size, start))
    for rows, first, sums in passes:
        every[:, rows, first:first + sums.shape[2]] = sums
    return _Walk(total, tail, count, every)


def _raise_if_not_finite(err: np.ndarray, level: int) -> None:
    bad = ~np.isfinite(err)
    if bad.any():
        raise QuadratureError(
            f"quadrature failure: {int(bad.sum())} full-line integrals have an error estimate "
            f"that is not finite ({err[bad][0]}) at panel level {level}")


def _full_line(psi: Callable[..., np.ndarray], plans: Callable[[int, bool], _Plan],
               loga: np.ndarray, tol: float, tally: _Tally) -> np.ndarray:
    """Full-line integrals of 1/2 Psi'(h) for rows h = e^loga E, each within tol.

    The right side and then the left are walked on their level-0 plans. In
    a row whose error estimate exceeds tol, each block whose |Kronrod -
    Gauss| exceeds its share is evaluated again with twice the panels, up
    to _MAX_LEVEL times, all of a side's in one pass, and its new sums
    replace the old ones in the row's value and error, right side first
    and in block order. A block's share is tol less the row's tail terms,
    split evenly over the row's blocks, as t0_exact splits tol over its
    panels. A row still over tol raises QuadratureError rather than being
    accepted, and so does an estimate that is not finite, at once: more
    panels cannot make it so.
    """
    tally.calls += 1
    walks = []
    for right in (True, False):
        walks.append(_walk_side(psi, plans(0, right), loga, tol, tally))
        _raise_if_not_finite(walks[-1].sum[1], 0)
    values, err = walks[0].sum + walks[1].sum
    over = err > tol
    share = (tol - walks[0].tail - walks[1].tail) / (walks[0].count + walks[1].count)
    for level in range(1, _MAX_LEVEL + 2):
        if not over.any():
            return values
        if level > _MAX_LEVEL:
            raise QuadratureError(
                f"quadrature failure: {int(over.sum())} full-line integrals kept an error "
                f"estimate up to {err[over].max():.3e} above tolerance {tol:g} at "
                f"{_MAX_LEVEL + 1} panel levels")
        tally.level = max(tally.level, level)
        for right, walk in zip((True, False), walks):
            sums = walk.sums
            redo = ((sums[1] > share[:, None]) & over[:, None]
                    & (np.arange(sums.shape[2]) < walk.count[:, None]))
            b, r = np.nonzero(redo.T)  # by block, then row
            plan, blocks = plans(level, right), np.unique(b)
            before = tally.values
            got = _block_sums(psi, plan, [(loga[r[b == k]], int(k), 1) for k in blocks], tally)
            tally.refined_values += tally.values - before
            tally.refined += r.size
            got = np.concatenate([g[..., 0] for g in got] + [np.empty((2, 0))], axis=1)
            # row by row in block order, as the blocks were first added
            np.add.at(values, r, got[0] - sums[0, r, b])
            np.add.at(err, r, got[1] - sums[1, r, b])
            sums[:, r, b] = got
        _raise_if_not_finite(err, level)
        over &= err > tol


def _circle_values(sys: SystemMatrix, tails: _Tails, theta: np.ndarray, tol: float,
                   tally: _Tally) -> np.ndarray:
    """Full-line integrals from the unit states at angles theta, complex or repeated case."""
    c1, c2 = _coefficients(sys, np.cos(theta), np.sin(theta))
    if sys.kind == _COMPLEX:
        # h = R e^(mu t) cos(omega t - phase), R = |(c1, c2)|
        loga = np.log(np.hypot(c1, c2)) + sys.mu / sys.omega * np.arctan2(c2, c1)
        return _full_line(tails.psi, _plans(tails, _complex_plan, sys.mu, sys.omega), loga, tol,
                          tally)

    # h = e^(lam t) (c1 + c2 t) = c2 e^(lam tz) (t - tz) e^(lam (t - tz)),
    # tz = -c1/c2. From the zero, |h| settles only about |lam tz| blocks out,
    # and e^(lam tz) underflows once lam tz < -745; rows whose zero lies past
    # |lam tz| = _FAR_ZERO are walked from t = 0 instead, one at a time, each
    # on plans of its own.
    lam = sys.lam1
    far = np.abs(lam * c1) > _FAR_ZERO * np.abs(c2)
    out = np.empty(theta.size)
    near = ~far
    if near.any():
        loga = np.log(np.abs(c2[near])) - lam * c1[near] / c2[near]
        out[near] = _full_line(tails.psi, _plans(tails, _repeated_plan, lam), loga, tol, tally)
    for i in np.flatnonzero(far):
        plans = functools.partial(_far_zero_plan, tails, lam, c2[i] / c1[i])
        out[i] = _full_line(tails.psi, plans, np.log(np.abs(c1[i:i + 1])), tol, tally)[0]
    return out


def global_convtime_numeric(
    dgf: GeneratingFunction,
    kappa: ParamTriple,
    *,
    inner_tol: float = 1e-6,
    grid_points: int = 256,
) -> GlobalConvtime:
    """Worst-case unperturbed convergence time over unit initial conditions.

    For distinct real eigenvalues the search runs over the sign-symmetric
    two-exponential family |a| e^(lam1 t) + a e^(lam2 t) on a log grid in
    |a| (time shifts make this family exhaustive); otherwise directly over
    angles on the unit circle. Either way: a coarse grid, then batched zoom
    rounds around the best point. Every full-line integral comes from one
    batched Gauss-Kronrod kernel and is accurate to inner_tol by its own
    error estimate. The logger "ftdiff" gets one DEBUG record of the work
    done: full-line calls, blocks walked, Psi' passes, calls and values, the
    highest panel level, the blocks refined and the Psi' values they
    took, and per side the tails closed by a bracket with the sum of their
    half-widths.
    """
    sys = system_matrix(kappa.k1, kappa.k2)
    tails = _tails(dgf, kappa.k3)
    tally = _Tally()

    if sys.kind == _REAL_DISTINCT:
        def values(log_b: np.ndarray, sign: float) -> np.ndarray:
            plans = _plans(tails, _distinct_plan, sys.lam1, sys.lam2, sign)
            return _full_line(tails.psi, plans, math.log(10.0) * log_b, inner_tol, tally)

        # Degenerate single-mode profiles are the b -> inf / b -> 0 limits of
        # the family; their full-line values have the closed reduction
        # B / (2 k3 |lam|), entered as explicit candidates so a supremum
        # attained only in the limit never chases the grid edge outward. B is
        # the total of the Psi'_1 table, as compute_admissibility takes it
        b_full = _psi_integral(dgf, math.inf, inner_tol)[0]
        lim_slow = b_full / (2.0 * kappa.k3 * -sys.lam1)
        lim_fast = b_full / (2.0 * kappa.k3 * -sys.lam2)

        half = grid_points // 2
        lo_edge, hi_edge = -8.0, 8.0
        for attempt in range(2):
            grid = np.linspace(lo_edge, hi_edge, half)
            vals = np.concatenate([values(grid, 1.0), values(grid, -1.0)])
            i = int(np.argmax(vals))
            best_v, best_lb, sgn = float(vals[i]), float(grid[i % half]), 1.0 if i < half else -1.0
            at_edge = i % half in (0, half - 1)
            if not (at_edge and best_v > max(lim_slow, lim_fast)) or attempt == 1:
                break
            lo_edge, hi_edge = 2.0 * lo_edge, 2.0 * hi_edge  # widen and rescan
        step = (hi_edge - lo_edge) / (half - 1)
        arg, val, _ = zoom_max(lambda lb: values(lb, sgn), best_lb, best_v, step)
        argmax = sgn * 10.0 ** arg
        if lim_fast > val:
            val, argmax = lim_fast, 0.0
        if lim_slow > val:
            val, argmax = lim_slow, math.inf
        search = "two-exponential"
    else:
        def values(theta: np.ndarray) -> np.ndarray:
            # Psi' is even, so v and -v coincide and [0, pi) covers the circle
            return _circle_values(sys, tails, theta, inner_tol, tally)

        thetas = math.pi * np.arange(grid_points) / grid_points
        vals = values(thetas)
        i = int(np.argmax(vals))
        argmax, val, _ = zoom_max(values, float(thetas[i]), float(vals[i]),
                                  math.pi / grid_points)
        search = "unit-circle"
    import logging  # here rather than at the top: importing ftdiff need not load logging

    log = logging.getLogger("ftdiff")
    if log.isEnabledFor(logging.DEBUG):
        counts = {name: getattr(tally, name) for name in _Tally.COUNTS}
        log.debug("global_convtime_numeric %s at (%g, %g, %g): %d full-line calls, %d blocks "
                  "in %d Psi' passes with %d Psi' calls, %d Psi' values, panel level up to %d, "
                  "%d blocks refined with %d Psi' values; tails closed by brackets: %d right, "
                  "half-widths summing to %.2e, and %d left, summing to %.2e", dgf.name,
                  kappa.k1, kappa.k2, kappa.k3, *counts.values(), extra={"counts": counts})
    return GlobalConvtime(value=val, dgf_name=dgf.name, kappa=kappa, search=search,
                          argmax=argmax, grid_points=grid_points, inner_tol=inner_tol)
