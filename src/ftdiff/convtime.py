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
import itertools
import math
import sys
from dataclasses import dataclass
from typing import Callable, Iterator, NamedTuple, Optional, Sequence

import numpy as np

from ._quad import (_GK_WG, _GK_WK, _GK_X, _LOG_STRIDE, _S_MAX, _gk_panels,
                    _probe_tail_divergence, _refine, zoom_max)
from .dgf import (
    AdmissibilityConstants,
    GeneratingFunction,
    ParamTriple,
    _psi_prime_array,
    _reciprocal_to,
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
# the profile of Psi'_1(w) = 1/Phi'(Phi^-1(w))

# 1e-12 up to 1e12 in steps of 10^(1/16)
_PROFILE_LADDER = 10.0 ** (np.arange(-192.0, 193.0) / 16.0)
_BAND_STRIDE = 4  # the band reads every fourth point: steps of 10^(1/4)
_BEND = 1e-3  # |d^2/du^2 log Psi'_1(e^u)| past which Psi'_1 bends


class _Profile(NamedTuple):
    """What t0_exact and the right-tail bracket read off Psi'_1, see _profile."""

    delta0: float
    band: tuple
    ratio: tuple


@functools.lru_cache(maxsize=64)
def _profile(dgf: GeneratingFunction) -> _Profile:
    """Psi'_1 of dgf, sampled once on a ladder of w from 1e-12 to 1e12. Built on first use.

    delta0: half the largest ladder w with Psi'_1(s) <= 3s at every ladder
    point s <= w, or 0 if there is none. Near zero the bound holds for every
    generating function (Phi ~ sqrt there); many hold it globally. Scaling
    by k3 maps it to delta0/k3 for the scaled family.

    band: (lo, hi, u, c) on every _BAND_STRIDE-th point: from the first to
    the last point where the second difference of log Psi'_1 exceeds _BEND
    per unit u^2, and c >= log integral_-inf^u 1/2 Psi'_1(e^s) e^s ds, with
    Psi'_1(w) <= 3w below the ladder.

    ratio: (log w, centre, half), Psi'_1(s)/(2s) in centre +/- half for
    0 < s <= w: the least and greatest ratio at the points up to the first
    one at or above w, and its limit 1 at s -> 0. A last entry, with half =
    inf, stands for w past the ladder; so does every entry from the first
    ratio that is not a finite number.
    """
    w = _PROFILE_LADDER
    u = np.log(w)
    with np.errstate(all="ignore"):
        g = _psi_prime_array(dgf, 1.0)(w)
        r = g / (2.0 * w)
        lo = np.minimum.accumulate(np.minimum(r, 1.0))  # nan stays nan
        hi = np.maximum.accumulate(np.maximum(r, 1.0))
        half = np.append(0.5 * (hi - lo), math.inf)
        n = int(np.count_nonzero(hi <= 1.5))  # hi never falls, and nan stays nan
        wb, ub, gb = w[::_BAND_STRIDE], u[::_BAND_STRIDE], g[::_BAND_STRIDE]
        step = ub[1] - ub[0]
        i = np.flatnonzero(np.abs(np.diff(np.log(gb), 2)) > _BEND * step ** 2)
        ge = np.where(np.isfinite(gb), 0.5 * gb, 0.0) * wb
        c = np.log(np.cumsum(np.maximum(ge, np.append(ge[1:], 0.0))) * step
                   + 0.75 * wb[0] ** 2)
    half[~(half < math.inf)] = math.inf
    ends = (ub[i[0]], ub[i[-1] + 2]) if i.size else (0.0, 0.0)  # a pure power (sqrt) has none
    return _Profile(0.5 * float(w[n - 1]) if n else 0.0,
                    (float(ends[0]), float(ends[1]), ub.tolist(), c.tolist()),
                    (u, np.append(0.5 * (hi + lo), 0.0), half))


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
    tol or the panels would need more than _T0_MAX_NODES nodes. Where logging is loaded and the "ftdiff" logger
    takes DEBUG records, logs one: panels, Psi' values, rounds of
    bisection, the error estimate against tol and the tail bound.
    """
    x1, x2 = float(x0[0]), float(x0[1])
    if not (math.isfinite(x1) and math.isfinite(x2)):
        raise ValueError("initial error x0 must be finite")
    k3 = kappa.k3
    lg, lx = _log_initial(dgf, k3, x1), _log_abs(x2)
    if lg == -math.inf and lx == -math.inf:
        return 0.0
    if not lg < math.inf:
        raise QuadratureError(f"quadrature failure: Phi_k3({x1:g}) is not a finite float")
    log_s = max(lg, lx)
    system = system_matrix(kappa.k1, kappa.k2)
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

    Equals (1/(k3 |lam|)) integral_0^{Phi^-1(k3 |c|)} dx / Phi(x); evenness
    of Psi' makes the sign of c irrelevant. As |c| grows the value tends to
    B / (k3 |lam|).
    """
    if not lam < 0.0:
        raise ValueError("lam must be negative (stable mode)")
    if not (math.isfinite(k3) and k3 > 0.0):
        raise ValueError("k3 must be a positive finite scalar")
    if c == 0.0:
        return 0.0
    return _reciprocal_to(dgf, k3 * abs(c), tol).value / (k3 * -lam)


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
# kernel evaluates 1/2 Psi'(A E) for all rows at once on Gauss-Kronrod
# panels whose nodes every row shares, in log|h| so that neither A nor E
# overflows, and walks outward a stride of blocks of panels at a time. A
# row's walk ends where a closed-form bracket holds the rest of its tail
# (every right side, and the left side of distinct real eigenvalues), or
# where its block sums decay geometrically. Rows over tolerance then have
# only their worst blocks redone with more panels.

_GRADED_PANELS = 8  # GK15 panels, halving toward a zero of h, per graded stretch
_MAX_LEVEL = 3  # blocks over their share are redone with 2x, 4x, 8x the panels
_MAX_BLOCKS = 2000  # blocks per side before a row counts as unconverged
_CHUNK = 1 << 14  # Psi' values per slice of rows: 128 kB per scratch array
_FAR_ZERO = 100.0  # |lam tz| past which a repeated-case row is walked from t = 0
_LOOKAHEAD = 16  # blocks drawn at a time while a stride looks for its first row's end

_FAR_STEP = 0.5  # u across a panel of the far-field table
_FAR_BOTTOM = math.log(1e-12)  # the table reaches at least this far down in u


class _FarField(NamedTuple):
    """T(u) = integral_u^inf Psi'_1(e^s) ds on a table of u, ascending to _S_MAX."""

    edges: np.ndarray
    rest: np.ndarray  # T at the edges, by GK15 panels down from the top
    err: np.ndarray  # their summed |Kronrod - Gauss|, plus the tail past the top as B bounds it
    psi: np.ndarray  # Psi'_1(e^u) at the edges
    first: int  # the lowest edge from which Psi'_1 falls at every node and edge above


@functools.lru_cache(maxsize=64)
def _far_field(dgf: GeneratingFunction) -> _FarField:
    """The far-field table of dgf: panels _FAR_STEP wide from _S_MAX down past _FAR_BOTTOM.

    Built on first use, by the first two-exponential search.
    """
    n = math.ceil((_S_MAX - _FAR_BOTTOM) / _FAR_STEP)
    edges = _S_MAX - _FAR_STEP * np.arange(n, -1.0, -1.0)
    u, wk, wg = _gk_panels(edges[:-1], edges[1:])
    psi = _psi_prime_array(dgf, 1.0)
    with np.errstate(all="ignore"):
        f, at = psi(np.exp(u)), psi(np.exp(edges))
        k = (f * wk).sum(axis=1)
        d = np.abs(k - (f * wg).sum(axis=1))
        rest = np.append(np.cumsum(k[::-1])[::-1], 0.0)
        err = np.append(np.cumsum(d[::-1])[::-1], 0.0) + _LOG_STRIDE * at[-1]
        # each edge, then its panel's nodes, ascending; rising or not a number breaks the fall
        seq = np.append(np.concatenate([at[:-1, None], f], axis=1), at[-1])
        rises = np.flatnonzero(~(np.diff(seq) <= 0.0))
    first = -(-(int(rises[-1]) + 1) // (f.shape[1] + 1)) if rises.size else 0
    return _FarField(edges, rest, err, at, first)


class _Tails(NamedTuple):
    """One search's Psi' of the scaled map, and what its tail brackets read."""

    psi: Callable[..., np.ndarray]
    dgf: GeneratingFunction
    k3: float


def _tails(dgf: GeneratingFunction, k3: float) -> _Tails:
    return _Tails(_psi_prime_array(dgf, k3), dgf, k3)


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
    """Left tails of two-exponential rows. A block's d is (|lam2| t, e^(-(lam1 - lam2) t)).

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

    def below(u: np.ndarray, eps: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        # the edge at or below log w (1 - eps), and whether Psi'_1 falls from it on
        i = np.searchsorted(far.edges, u + np.log1p(-eps), side="right") - 1
        return np.maximum(i, 0), i >= far.first

    def half(la: np.ndarray, d: np.ndarray) -> np.ndarray:
        u = la + log_k3 + d[:, 0]
        i, falls = below(u, d[:, 1])
        j = np.minimum(np.searchsorted(far.edges, u), top)
        return np.where(falls, (np.arctanh(d[:, 1]) * far.psi[i] + far.err[j]) * scale, np.inf)

    def close(la: np.ndarray, d: np.ndarray, tally: "_Tally") -> tuple[np.ndarray, np.ndarray]:
        eps = d[:, 1]
        u = la + log_k3 + d[:, 0]
        m = far.psi[below(u, eps)[0]]
        u = np.minimum(u, far.edges[-1])
        j = np.searchsorted(far.edges, u)
        h = 0.5 * (far.edges[j] - u)
        x = (u + h)[:, None] + h[:, None] * _GK_X
        f = np.empty(x.shape)
        step = max(1, _CHUNK // _GK_X.size)
        for a in range(0, u.size, step):
            f[a:a + step] = psi(np.exp(x[a:a + step]))
        tally.values += f.size
        k = h * np.sum(f * _GK_WK, axis=1)
        g = h * np.sum(f * _GK_WG, axis=1)
        mid = (far.rest[j] + k - 0.5 * np.log1p(-eps * eps) * m) * scale
        return mid, (np.arctanh(eps) * m + far.err[j] + np.abs(k - g)) * scale

    return _Bracket(half, close)


class _Side(NamedTuple):
    """The blocks of panels of one side of a walk, outward.

    blocks yields one cheap descriptor (key, d) per block, at most
    _MAX_BLOCKS of them: d is the block's row of bracket descriptors, or
    None on a side without a bracket. nodes(keys) gives log|E| at the
    nodes of a run of n consecutive blocks of P panels each, and the
    Kronrod and Gauss weights, which carry the panel Jacobians and the
    factor 1/2 of 1/2 Psi', shapes (n, P, 15) and (n or 1, P, 15). A
    first block graded toward a zero (key None) comes in a run of its own.
    values is the Psi' values a row of the first block; no later block
    takes more.
    """

    blocks: Iterator[tuple[object, Optional[tuple[float, ...]]]]
    nodes: Callable[[list], tuple[np.ndarray, np.ndarray, np.ndarray]]
    right: bool
    bracket: Optional[_Bracket]
    values: int


class _Tally:
    """Work counts of one worst-case search, for its debug record, and the
    scratch arrays that its Psi' slices write into.

    The scratch is allocated once, at the size of the first slice or
    _CHUNK values, whichever is larger, so that a search's slices reuse the
    same memory instead of growing and trimming the heap for each one.
    """

    COUNTS = ("calls", "blocks", "passes", "values", "level", "refined", "refined_values",
              "right_closed", "right_width", "left_closed", "left_width")
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


def _complex_blocks(tails: _Tails, mu: float, omega: float, level: int, right: bool) -> _Side:
    """Half periods between the zeros s = -pi/2 + n pi of cos s, outward from s = -pi/2.

    Every half period has the same nodes, graded toward both of its zeros;
    |cos| there is the sine of the offset, free of cancellation. A block's
    key is the zero it starts from.
    """
    off, wk, wg = _graded(0.5 * math.pi, level)
    d = np.concatenate([off, math.pi - off])
    log_sin = np.log(np.sin(np.concatenate([off, off])))
    wk = np.concatenate([wk, wk])[None] / omega
    wg = np.concatenate([wg, wg])[None] / omega
    rate = mu / omega
    # integral_0^pi sin(x) e^(rate x) dx = (1 + e^(rate pi)) / (1 + rate^2), and each
    # half period after it e^(rate pi) times the one before; dt = ds / omega
    shrink = math.exp(rate * math.pi)
    log_rest = math.log((1.0 + shrink) / ((1.0 + rate * rate) * (1.0 - shrink) * omega))

    def blocks() -> Iterator[tuple[float, Optional[tuple[float, float]]]]:
        for n in range(_MAX_BLOCKS):
            z = -0.5 * math.pi + (n if right else -1 - n) * math.pi
            end = rate * (z + math.pi)
            yield z, (end, end + log_rest) if right else None

    def nodes(zs: list) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        return rate * (np.array(zs)[:, None, None] + d) + log_sin, wk, wg

    return _Side(blocks(), nodes, right, _envelope_bracket(tails) if right else None, d.size)


def _walk(
    log_e: Callable[[np.ndarray], np.ndarray],
    graded: float,
    widths: Iterator[float],
    level: int,
    right: bool,
    bound: Optional[Callable[[float], tuple[float, float]]],
    bracket: Optional[_Bracket],
    zero: bool = True,
) -> _Side:
    """A first block `graded` long, then panels of the given widths.

    Where E has a zero at t = 0, the first block is graded toward it and
    its key is None; otherwise it is a plain block. Every other block's
    key is its start and width. bound maps the distance of a block's outer
    end from 0 to its bracket descriptor.
    """
    sign = 1.0 if right else -1.0
    if zero:
        off, wk0, wg0 = _graded(graded, level)
    frac = np.arange((1 << level) + 1.0) / (1 << level)

    def blocks() -> Iterator[tuple[object, Optional[tuple[float, float]]]]:
        yield None if zero else (0.0, graded), bound and bound(graded)
        pos = graded
        for _ in range(_MAX_BLOCKS - 1):
            width = next(widths)
            key = pos, width
            pos += width
            yield key, bound and bound(pos)

    def nodes(keys: list) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        if keys[0] is None:
            return log_e(sign * off)[None], wk0[None], wg0[None]
        pos, width = np.array(keys).T[:, :, None]  # each (n, 1)
        edges = pos + width * frac
        t, wk, wg = _gk_panels(edges[:, :-1].ravel(), edges[:, 1:].ravel())
        shape = len(keys), -1, t.shape[-1]
        return (log_e(sign * t).reshape(shape), (0.5 * wk).reshape(shape),
                (0.5 * wg).reshape(shape))

    return _Side(blocks(), nodes, right, bracket,
                 off.size if zero else (frac.size - 1) * _GK_X.size)


def _distinct_blocks(tails: _Tails, lam1: float, lam2: float, sign: float, level: int,
                     right: bool) -> _Side:
    """E(t) = e^(lam1 t) + sign e^(lam2 t); its only possible zero is t = 0."""
    gap = lam1 - lam2

    def log_e(t: np.ndarray) -> np.ndarray:
        # factor out the dominant mode: lam1 rightward, lam2 leftward
        x = -gap * np.abs(t)
        rest = np.log1p(np.exp(x)) if sign > 0.0 else np.log(-np.expm1(x))
        return (lam1 if right else lam2) * t + rest

    def bound(t: float) -> tuple[float, float]:
        if not right:
            return -lam2 * t, math.exp(-gap * t)
        # integral_t^inf |E| = e^(lam1 t) (-lam2 + sign (-lam1) e^x) / (lam1 lam2), x = -gap t,
        # and for sign < 0 that numerator is gap - lam1 (1 - e^x), free of cancellation
        x = -gap * t
        mass = gap + lam1 * math.expm1(x) if sign < 0.0 else -lam2 - lam1 * math.exp(x)
        return lam1 * t + math.log1p(math.exp(x)), lam1 * t + math.log(mass / (lam1 * lam2))

    graded = min(1.0 / gap, 1.0 / -lam1)
    if right:
        widths = (min(graded * 2.0 ** k, 1.0 / -lam1) for k in itertools.count())
        bracket = _envelope_bracket(tails)
    else:
        widths = itertools.repeat(1.0 / -lam2)
        bracket = _far_field_bracket(tails, lam2)
    return _walk(log_e, graded, widths, level, right, bound, bracket, sign < 0.0)


def _repeated_blocks(tails: _Tails, lam: float, level: int, right: bool) -> _Side:
    """E(t) = t e^(lam t): the zero is at t = 0 and |E| peaks at t = 1/|lam|."""
    scale = 1.0 / -lam

    def log_e(t: np.ndarray) -> np.ndarray:
        return np.log(np.abs(t)) + lam * t

    def bound(t: float) -> tuple[float, float]:
        if t < scale:
            return math.inf, math.inf  # envelope still rising: no bracket yet
        return math.log(t) + lam * t, lam * t + math.log(t * scale + scale * scale)

    return _walk(log_e, scale, itertools.repeat(scale), level, right,
                 *((bound, _envelope_bracket(tails)) if right else (None, None)))


def _far_zero_blocks(tails: _Tails, lam: float, eps: float, level: int, right: bool) -> _Side:
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

    def bound(t: float) -> tuple[float, float]:
        # integral_t^inf E = e^(lam t) g(t), g(t) = (1 + eps t) scale + eps scale^2; from
        # before the zero tz, |E| adds twice the part past it, 2 |eps| scale^2 e^(lam tz)
        g = (1.0 + eps * t) * scale + eps * scale * scale
        if t < tz:
            g += 2.0 * -eps * scale * scale * math.exp(lam * (tz - t))
        return lam * t + math.log(1.0 + abs(eps) * t), lam * t + math.log(g)

    return _walk(log_e, scale, itertools.repeat(scale), level, right,
                 *((bound, _envelope_bracket(tails)) if right else (None, None)), False)


def _panel_sums(
    psi: Callable[..., np.ndarray],
    loga: np.ndarray,
    upto: np.ndarray,
    log_e: np.ndarray,
    wk: np.ndarray,
    wg: np.ndarray,
    tally: _Tally,
) -> np.ndarray:
    """Each row's Kronrod sum and summed |Kronrod - Gauss| per block of a stride, (2, rows, n).

    upto[i] (non-increasing) counts the blocks that rows i, i+1, ... need;
    beyond what a slice of rows needs, both are 0. Rows go through Psi' in
    slices of at most _CHUNK values, which bounds the temporaries whatever
    the batch size; every slice is worked in the search's scratch arrays.
    """
    n, panels, per_panel = log_e.shape
    sums = np.zeros((2, loga.size, n))
    i = 0
    while i < loga.size:
        m = int(upto[i])
        la = loga[i:i + max(1, _CHUNK // (m * panels * per_panel))]
        j = i + la.size
        shape = la.size, m, panels, per_panel
        x, g, p = tally.scratch(math.prod(shape))
        x, g = x.reshape(shape), g.reshape(shape)
        np.add(la[:, None, None, None], log_e[:m], out=x)
        np.exp(x, out=x)
        psi(x, out=g)
        tally.values += g.size
        k, d = p[:2 * g.size // per_panel].reshape(2, *shape[:-1])
        np.sum(np.multiply(g, wk[:m], out=x), axis=-1, out=k)
        np.sum(np.multiply(g, wg[:m], out=x), axis=-1, out=d)
        np.subtract(k, d, out=d)
        np.abs(d, out=d)
        np.sum(k, axis=-1, out=sums[0, i:j, :m])
        np.sum(d, axis=-1, out=sums[1, i:j, :m])
        i = j
    return sums



class _SideWalk(NamedTuple):
    """One side's walk for every row of a batch.

    value and err include the tail term, the bracket's midpoint and
    half-width or the left remainder; tail is the term's share of err;
    count is the number of blocks the row took. passes holds one (keys,
    rows, sums, last) entry per Psi' pass: the pass's block keys, the rows
    it evaluated, their per-block Kronrod sums and |Kronrod - Gauss| (2,
    rows, n) as _panel_sums gave them, and each row's last block in it.
    """

    value: np.ndarray
    err: np.ndarray
    tail: np.ndarray
    count: np.ndarray
    passes: list


def _integrate_side(
    psi: Callable[..., np.ndarray],
    loga: np.ndarray,
    side: _Side,
    tol: float,
    tally: _Tally,
) -> _SideWalk:
    """integral of 1/2 Psi'(e^loga E) over one side for every row, with error estimates.

    Walks the blocks outward and drops each row once its side is done.
    With a bracket, a row ends at the first block past which the
    bracket's half-width is below the side's share of tol, a tenth on the
    right and a quarter on the left; the midpoint joins the value and the
    half-width the error. Without one (the left side of complex and
    repeated rows), a row ends after two blocks below tol/4 whose
    geometric remainder is below tol/4 (or both exactly zero); the
    remainder joins the value and the error. Each panel adds |Kronrod -
    Gauss| to its row's error. The walk stops early once an error
    estimate is not finite, and returns it so.

    Each pass evaluates a stride of blocks at once and applies those rules
    block by block, in order, so the result does not depend on the stride.
    With a bracket a row's last block depends on its amplitude alone: rows
    go in the order of the blocks they need, a stride runs to the block
    that ends the first row (looked for _LOOKAHEAD blocks at a time; those
    past it wait for the next stride), and each row is evaluated up to its
    own last block, a graded first block in a Psi' call of its own. So one
    stride usually covers the side. Without a bracket the rule needs the
    sums, which shrink geometrically once past the peak of Psi': the first
    block goes alone, then a stride runs to where that decay would end the
    walk, or twice as far as the last while some row's sums do not shrink
    yet. No stride takes more than _CHUNK values a row with a bracket or
    _CHUNK values in all without, so left walks whose every block takes
    more go one block at a time.
    """
    value = np.zeros(loga.size)
    err = np.zeros(loga.size)
    tail_term = np.zeros(loga.size)
    count = np.zeros(loga.size, dtype=np.int64)
    passes = []
    prev = np.full(loga.size, math.inf)  # without a bracket: the last block's sum
    ratio = np.zeros(loga.size)  # and its ratio to the one before
    bracket = side.bracket
    q = (0.1 if side.right else 0.25) * tol
    # a bracket ends larger rows later on the right and sooner on the left
    rows = np.argsort(-loga if side.right else loga, kind="stable")
    ahead = []  # blocks drawn but not walked yet

    def draw(k: int) -> list:
        got = ahead[:k]
        del ahead[:k]
        return got + list(itertools.islice(side.blocks, k - len(got)))

    n = per_block = 0
    # overflow makes |h| inf (Psi' = 0 there); a diverging integral makes the
    # sums inf or nan, which ends the walk
    with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
        while rows.size:
            la = loga[rows]
            if bracket is not None:
                # blocks up to the one that ends the first row
                cap = max(1, _CHUNK // (per_block or side.values))
                stride, halves = [], []
                while len(stride) < cap:
                    more = draw(min(_LOOKAHEAD, cap - len(stride)))
                    if not more:
                        break
                    halves.append(bracket.half(la[:, None], np.array([d for _, d in more])))
                    ends = np.flatnonzero(halves[-1][0] < q)
                    if ends.size:
                        ahead[:0] = more[ends[0] + 1:]
                        stride += more[:ends[0] + 1]
                        break
                    stride += more
            elif not n:
                stride = draw(1)
            else:
                cap = _CHUNK // (rows.size * per_block)
                want = 2 * n
                if cap > 1:
                    c0, rho = float(prev[rows].max()), float(ratio[rows].max())
                    if 0.0 < c0 < math.inf and 0.0 < rho < 1.0:
                        # the block where the rule would end a row whose last sum were the
                        # largest and whose sums kept shrinking by the largest last ratio:
                        # the sum before it and the rest c rho / (1 - rho) after it below q
                        lr = math.log(rho)
                        want = 1 + math.floor(max(math.log(q / c0) / lr + 1.0,
                                                  math.log(q * (1.0 - rho) / c0) / lr - 1.0,
                                                  0.0))
                stride = draw(max(1, min(want, cap)))
            if not stride:
                break
            keys, descs = zip(*stride)
            n = len(stride)
            if bracket is not None:
                done = np.concatenate(halves, axis=1)[:, :n] < q
                stop = done.any(axis=1)
                last = np.where(stop, done.argmax(axis=1), n - 1)
                upto = np.maximum.accumulate(last[::-1])[::-1] + 1
                sums = np.zeros((2, rows.size, n))
                # a graded first block takes a Psi' pass of its own, over every row
                first = int(keys[0] is None)
                if first:
                    sums[:, :, :1] = _panel_sums(psi, la, np.ones(rows.size, dtype=np.int64),
                                                 *side.nodes([None]), tally)
                go = int(np.count_nonzero(upto > first))
                if go:
                    log_e, wk, wg = side.nodes(list(keys[first:]))
                    per_block = log_e[0].size
                    sums[:, :go, first:] = _panel_sums(psi, la[:go], upto[:go] - first, log_e,
                                                       wk, wg, tally)
            else:
                log_e, wk, wg = side.nodes(list(keys))
                per_block = log_e[0].size
                sums = _panel_sums(psi, la, np.full(la.size, n), log_e, wk, wg, tally)
                c = sums[0]
                p = np.concatenate([prev[rows, None], c[:, :-1]], axis=1)
                shrinking = (0.0 < c) & (c < p)
                tail = np.where(shrinking, c * c / (p - c), 0.0)  # c rho / (1 - rho)
                # c < q needs no test: on either branch it follows from p < q
                done = (p < q) & ((shrinking & (tail < q)) | ((c == 0.0) & (p == 0.0)))
                stop = done.any(axis=1)
                last = np.where(stop, done.argmax(axis=1), n - 1)
                prev[rows] = c[:, -1]
                ratio[rows] = c[:, -1] / p[:, -1]
            tally.blocks += n
            tally.passes += 1
            passes.append((keys, rows, sums, last))
            count[rows] += last + 1
            # the value and error up to each row's last block, added in block order
            acc = sums.copy()
            acc[0, :, 0] += value[rows]
            acc[1, :, 0] += err[rows]
            np.add.accumulate(acc, axis=-1, out=acc)
            value[rows], err[rows] = acc[:, np.arange(rows.size), last]
            fin = rows[stop]
            if bracket is not None:
                mid, rest = bracket.close(la[stop], np.array(descs)[last[stop]], tally)
                tally.closed(side.right, rest)
            else:
                mid = rest = tail[stop, last[stop]]
            value[fin] += mid
            err[fin] += rest
            tail_term[fin] = rest
            if not np.isfinite(err[rows]).all():
                break
            rows = rows[~stop]
    if rows.size and np.isfinite(err).all():
        raise QuadratureError(
            f"quadrature failure: {'right' if side.right else 'left'} tail of {rows.size} "
            f"responses did not converge within {_MAX_BLOCKS} blocks"
        )
    return _SideWalk(value, err, tail_term, count, passes)


def _raise_if_not_finite(err: np.ndarray, level: int) -> None:
    bad = ~np.isfinite(err)
    if bad.any():
        raise QuadratureError(
            f"quadrature failure: {int(bad.sum())} full-line integrals have an error estimate "
            f"that is not finite ({err[bad][0]}) at panel level {level}")


def _full_line(
    psi: Callable[..., np.ndarray],
    blocks: Callable[[int, bool], _Side],
    loga: np.ndarray,
    tol: float,
    tally: _Tally,
) -> np.ndarray:
    """Full-line integrals of 1/2 Psi'(h) for rows h = e^loga E, each within tol.

    Both sides are walked at panel level 0. In a row whose error estimate
    exceeds tol, each block whose |Kronrod - Gauss| exceeds its share is
    evaluated again with twice the panels, up to _MAX_LEVEL times, and its
    new sums replace the old ones in the row's value and error. A block's
    share is tol less the row's tail terms, split evenly over the row's
    blocks, as t0_exact splits tol over its panels. A row still over tol
    raises QuadratureError rather than being accepted, and so does an
    estimate that is not finite, at once: more panels cannot make it so.
    """
    tally.calls += 1
    walks = []
    for right in (True, False):
        walks.append(_integrate_side(psi, loga, blocks(0, right), tol, tally))
        _raise_if_not_finite(walks[-1].err, 0)
    values = walks[0].value + walks[1].value
    err = walks[0].err + walks[1].err
    over = err > tol
    share = (tol - walks[0].tail - walks[1].tail) / (walks[0].count + walks[1].count)
    level = 0
    while over.any():
        if level == _MAX_LEVEL:
            raise QuadratureError(
                f"quadrature failure: {int(over.sum())} full-line integrals kept an error "
                f"estimate up to {err[over].max():.3e} above tolerance {tol:g} at "
                f"{_MAX_LEVEL + 1} panel levels")
        level += 1
        tally.level = max(tally.level, level)
        for right, walk in zip((True, False), walks):
            nodes = blocks(level, right).nodes
            for keys, rows, sums, last in walk.passes:
                redo = ((sums[1] > share[rows, None]) & over[rows, None]
                        & (np.arange(len(keys)) <= last[:, None]))
                for b in np.flatnonzero(redo.any(axis=0)):
                    r = np.flatnonzero(redo[:, b])
                    at = rows[r]
                    before = tally.values
                    new = _panel_sums(psi, loga[at], np.ones(r.size, dtype=np.int64),
                                      *nodes([keys[b]]), tally)[:, :, 0]
                    tally.refined += r.size
                    tally.refined_values += tally.values - before
                    values[at] += new[0] - sums[0, r, b]
                    err[at] += new[1] - sums[1, r, b]
                    sums[:, r, b] = new
        _raise_if_not_finite(err, level)
        over &= err > tol
    return values


def _circle_values(
    sys: SystemMatrix,
    tails: _Tails,
    theta: np.ndarray,
    tol: float,
    tally: _Tally,
) -> np.ndarray:
    """Full-line integrals from the unit states at angles theta, complex or repeated case."""
    c1, c2 = _coefficients(sys, np.cos(theta), np.sin(theta))
    if sys.kind == _COMPLEX:
        # h = R e^(mu t) cos(omega t - phase), R = |(c1, c2)|
        loga = np.log(np.hypot(c1, c2)) + sys.mu / sys.omega * np.arctan2(c2, c1)
        blocks = functools.partial(_complex_blocks, tails, sys.mu, sys.omega)
        return _full_line(tails.psi, blocks, loga, tol, tally)

    # h = e^(lam t) (c1 + c2 t) = c2 e^(lam tz) (t - tz) e^(lam (t - tz)),
    # tz = -c1/c2. From the zero, |h| settles only about |lam tz| blocks out,
    # and e^(lam tz) underflows once lam tz < -745; rows whose zero lies past
    # |lam tz| = _FAR_ZERO are walked from t = 0 instead, one at a time.
    lam = sys.lam1
    far = np.abs(lam * c1) > _FAR_ZERO * np.abs(c2)
    out = np.empty(theta.size)
    near = ~far
    if near.any():
        loga = np.log(np.abs(c2[near])) - lam * c1[near] / c2[near]
        blocks = functools.partial(_repeated_blocks, tails, lam)
        out[near] = _full_line(tails.psi, blocks, loga, tol, tally)
    for i in np.flatnonzero(far):
        blocks = functools.partial(_far_zero_blocks, tails, lam, c2[i] / c1[i])
        out[i] = _full_line(tails.psi, blocks, np.log(np.abs(c1[i:i + 1])), tol, tally)[0]
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
    done: full-line calls, blocks walked, Psi' passes and values, the
    highest panel level, the blocks refined and the Psi' values they
    took, and per side the tails closed by a bracket with the sum of their
    half-widths.
    """
    sys = system_matrix(kappa.k1, kappa.k2)
    tails = _tails(dgf, kappa.k3)
    tally = _Tally()

    if sys.kind == _REAL_DISTINCT:
        def values(log_b: np.ndarray, sign: float) -> np.ndarray:
            blocks = functools.partial(_distinct_blocks, tails, sys.lam1, sys.lam2, sign)
            return _full_line(tails.psi, blocks, math.log(10.0) * log_b, inner_tol, tally)

        # Degenerate single-mode profiles are the b -> inf / b -> 0 limits of
        # the family; their full-line values have the closed reduction
        # B / (2 k3 |lam|), entered as explicit candidates so a supremum
        # attained only in the limit never chases the grid edge outward. B is
        # the far-field table's total, plus Psi'_1 at its bottom edge for the
        # part below it, where Psi'_1(w) ~ 2w
        _probe_tail_divergence(dgf.phi)
        far = _far_field(dgf)
        b_full = float(far.rest[0] + far.psi[0])
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
                  "in %d Psi' passes, %d Psi' values, panel level up to %d, %d blocks refined "
                  "with %d Psi' values; tails closed by brackets: %d right, half-widths "
                  "summing to %.2e, and %d left, summing to %.2e", dgf.name, kappa.k1,
                  kappa.k2, kappa.k3, *counts.values(), extra={"counts": counts})
    return GlobalConvtime(
        value=val, dgf_name=dgf.name, kappa=kappa, search=search,
        argmax=argmax, grid_points=grid_points, inner_tol=inner_tol,
    )
