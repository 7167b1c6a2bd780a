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

import functools
import itertools
import math
from dataclasses import dataclass
from typing import Callable, Iterator, NamedTuple, Optional

import numpy as np

from ._quad import adaptive_simpson, reciprocal_integral
from .dgf import AdmissibilityConstants, GeneratingFunction, ParamTriple, invert_phi, nu1
from .errors import (
    BoundNotApplicableError,
    InfeasibleError,
    InversionRangeError,
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
    """Classify the eigenstructure of the error-dynamics matrix."""
    if not (math.isfinite(k1) and k1 > 0.0 and math.isfinite(k2) and k2 > 0.0):
        raise ValueError("k1 and k2 must be positive finite scalars")
    disc = k1 * k1 - 8.0 * k2
    if abs(disc) <= _REPEATED_REL_TOL * k1 * k1:
        lam = -0.25 * k1
        return SystemMatrix(k1, k2, _REAL_REPEATED, lam, lam, 0.0, 0.0)
    if disc > 0.0:
        s = math.sqrt(disc)
        return SystemMatrix(k1, k2, _REAL_DISTINCT, 0.25 * (-k1 + s), 0.25 * (-k1 - s), 0.0, 0.0)
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
# scalar responses h(tau) = e1^T e^(A tau) v and their envelopes


def _e(a: float) -> float:
    return math.exp(a) if a < 709.0 else math.inf


class _Response:
    """Scalar response h(tau) with cancellation-safe evaluation.

    real-distinct: h = c1 e^(l1 t) + c2 e^(l2 t). Opposite-sign
    coefficients put a zero crossing at tz; near it the plain sum loses all
    of its leading digits once an amplitude like 1e12 meets t ~ 1e-13, so
    the value is routed through expm1 relative to tz there.
    real-repeated: h = e^(l1 t) (c1 + c2 t), linear factor anchored at its
    zero. complex: h = e^(mu t) (c1 cos(om t) + c2 sin(om t)).
    Exponentials saturate to inf instead of raising; Psi' maps those to 0.
    """

    __slots__ = ("kind", "c1", "c2", "lam1", "lam2", "mu", "omega", "tz")

    def __init__(
        self,
        kind: str,
        c1: float,
        c2: float,
        lam1: float = 0.0,
        lam2: float = 0.0,
        mu: float = 0.0,
        omega: float = 0.0,
    ) -> None:
        self.kind = kind
        self.c1 = c1
        self.c2 = c2
        self.lam1 = lam1
        self.lam2 = lam2
        self.mu = mu
        self.omega = omega
        tz: Optional[float] = None
        if kind == _REAL_DISTINCT and c1 != 0.0 and c2 != 0.0 and (c1 > 0.0) != (c2 > 0.0):
            tz = math.log(-c2 / c1) / (lam1 - lam2)
        elif kind == _REAL_REPEATED and c2 != 0.0:
            tz = -c1 / c2
        self.tz = tz

    def h(self, t: float) -> float:
        if self.kind == _REAL_DISTINCT:
            if self.tz is not None:
                arg = (self.lam1 - self.lam2) * (t - self.tz)
                if abs(arg) <= 1.0:
                    return -self.c2 * _e(self.lam2 * t) * math.expm1(arg)
                t1 = self.c1 * _e(self.lam1 * t)
                t2 = self.c2 * _e(self.lam2 * t)
                if math.isinf(t1) and math.isinf(t2):
                    return t1 if arg > 0.0 else t2  # dominant mode decides
                return t1 + t2
            return self.c1 * _e(self.lam1 * t) + self.c2 * _e(self.lam2 * t)
        if self.kind == _REAL_REPEATED:
            m = self.c2 * (t - self.tz) if self.tz is not None else self.c1
            if m == 0.0:
                return 0.0
            return _e(self.lam1 * t) * m
        m = self.c1 * math.cos(self.omega * t) + self.c2 * math.sin(self.omega * t)
        if m == 0.0:
            return 0.0
        return _e(self.mu * t) * m

    def envelope(self, t: float) -> float:
        """Upper bound for |h| on [t, infinity), decreasing past decay_start."""
        if self.kind == _REAL_DISTINCT:
            return abs(self.c1) * _e(self.lam1 * t) + abs(self.c2) * _e(self.lam2 * t)
        if self.kind == _REAL_REPEATED:
            return _e(self.lam1 * t) * (abs(self.c1) + abs(self.c2) * abs(t))
        return math.hypot(self.c1, self.c2) * _e(self.mu * t)

    def envelope_tail(self, t: float) -> float:
        """integral_t^inf envelope, in closed form (t past decay_start)."""
        if self.kind == _REAL_DISTINCT:
            return (
                abs(self.c1) * _e(self.lam1 * t) / -self.lam1
                + abs(self.c2) * _e(self.lam2 * t) / -self.lam2
            )
        if self.kind == _REAL_REPEATED:
            lam = self.lam1
            return _e(lam * t) * (
                (abs(self.c1) + abs(self.c2) * t) / -lam + abs(self.c2) / (lam * lam)
            )
        return math.hypot(self.c1, self.c2) * _e(self.mu * t) / -self.mu

    def decay_start(self) -> float:
        """Time past which the envelope is nonincreasing."""
        if self.kind == _REAL_REPEATED and self.c2 != 0.0:
            return max(0.0, -1.0 / self.lam1 - abs(self.c1) / abs(self.c2))
        return 0.0


def _response_for(sys: SystemMatrix, v1: float, v2: float) -> _Response:
    if sys.kind == _REAL_DISTINCT:
        l1, l2 = sys.lam1, sys.lam2
        # e1^T (A - l I) v = (-k1/2 - l) v1 + v2/2 and -k1/2 - l2 = l1 (trace)
        c1 = (l1 * v1 + 0.5 * v2) / (l1 - l2)
        c2 = -(l2 * v1 + 0.5 * v2) / (l1 - l2)
        return _Response(sys.kind, c1, c2, l1, l2, 0.0, 0.0)
    if sys.kind == _REAL_REPEATED:
        lam = sys.lam1
        return _Response(sys.kind, v1, lam * v1 + 0.5 * v2, lam, lam, 0.0, 0.0)
    mu, om = sys.mu, sys.omega
    # e1^T (A - mu I) v = (-k1/2 - mu) v1 + v2/2 and -k1/2 - mu = mu here
    return _Response(sys.kind, v1, (mu * v1 + 0.5 * v2) / om, 0.0, 0.0, mu, om)


# ---------------------------------------------------------------------------
# Psi' closures and the small-slope threshold


def _psi_prime_closure(dgf: GeneratingFunction, k3: float) -> Callable[[float], float]:
    pp = dgf.phi_prime
    inv = dgf.inverse
    if inv is not None:
        def psi(z: float) -> float:
            if z == 0.0 or not math.isfinite(z):
                return 0.0  # slope of the inverse vanishes at both extremes
            d = pp(inv(k3 * abs(z)))
            return 0.0 if math.isinf(d) else 1.0 / (k3 * d)
    else:
        def psi(z: float) -> float:
            if z == 0.0 or not math.isfinite(z):
                return 0.0
            try:
                d = pp(invert_phi(dgf, k3 * abs(z)))
            except InversionRangeError:
                return 0.0  # preimage beyond float range: slope long gone
            return 0.0 if math.isinf(d) else 1.0 / (k3 * d)
    return psi


@functools.lru_cache(maxsize=64)
def _small_slope_threshold(dgf: GeneratingFunction) -> float:
    """Largest verified w such that 1/Phi'(Phi^-1(w)) <= 3w on (0, w].

    Near zero the bound holds for every generating function (the slope of
    the inverse vanishes); many hold globally. Verified on a log grid with
    a factor-two safety margin; scaling by k3 maps the threshold to the
    scaled family.
    """
    best = 0.0
    w = 1e-12
    while w <= 1e12:
        x = invert_phi(dgf, w)
        d = dgf.phi_prime(x)
        if not (math.isinf(d) or 1.0 / d <= 3.0 * w):
            break
        best = w
        w *= 10.0 ** 0.25
    return 0.5 * best


def _delta0(dgf: GeneratingFunction, k3: float) -> float:
    return _small_slope_threshold(dgf) / k3


# ---------------------------------------------------------------------------
# decaying-tail integration on [start, infinity)


def _integrate_decaying(
    f: Callable[[float], float],
    resp: _Response,
    delta0: float,
    tol: float,
    *,
    start: float = 0.0,
    slope_factor: float = 1.5,
    max_panels: int = 200,
) -> float:
    """integral_start^inf f with f <= slope_factor * |h| once |h| <= delta0.

    Panels of doubling width; stops when the closed-form envelope tail bound
    certifies the remainder below tol/2.
    """
    total = 0.0
    a = start
    width = 1.0
    decay_from = resp.decay_start()
    for j in range(max_panels):
        b = a + width
        total += adaptive_simpson(f, a, b, 0.25 * tol * 0.5 ** min(j, 40), floor=1e-6 * tol)
        a = b
        if width < 64.0:
            width *= 2.0
        if a >= decay_from and resp.envelope(a) <= delta0:
            if slope_factor * resp.envelope_tail(a) < 0.5 * tol:
                return total
    raise QuadratureError(
        "quadrature failure: decaying tail did not certify below tolerance "
        f"within {max_panels} panels"
    )


# ---------------------------------------------------------------------------
# exact unperturbed convergence time


def t0_exact(
    dgf: GeneratingFunction,
    kappa: ParamTriple,
    x0: tuple[float, float],
    *,
    tol: float = 1e-8,
) -> float:
    """Unperturbed convergence time from initial error state x0.

    Evaluates integral_0^inf (1/2) Psi'(e1^T e^(A tau) g(x0)) d tau where
    g(x0) = (Phi_k3(x0_1), x0_2); absolute tolerance tol.
    """
    x1, x2 = float(x0[0]), float(x0[1])
    g1 = nu1(dgf, kappa.k3, x1)  # nu1 is precisely the scaled map Phi_k3
    if g1 == 0.0 and x2 == 0.0:
        return 0.0
    sys = system_matrix(kappa.k1, kappa.k2)
    resp = _response_for(sys, g1, x2)
    psi = _psi_prime_closure(dgf, kappa.k3)
    delta0 = _delta0(dgf, kappa.k3)

    def f(t: float) -> float:
        return 0.5 * psi(resp.h(t))

    return _integrate_decaying(f, resp, delta0, tol)


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
    upper = abs(invert_phi(dgf, k3 * abs(c)))
    return reciprocal_integral(dgf.phi, upper, tol=tol) / (k3 * -lam)


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


def _bisect_root(f: Callable[[float], float], lo: float, hi: float) -> float:
    flo = f(lo)
    for _ in range(200):
        mid = 0.5 * (lo + hi)
        fm = f(mid)
        if fm == 0.0 or (hi - lo) < 1e-15 * max(abs(mid), 1.0):
            return mid
        if (fm > 0.0) == (flo > 0.0):
            lo, flo = mid, fm
        else:
            hi = mid
    return 0.5 * (lo + hi)


def lbar_integral(k1: float, k2: float, D: float, *, tol: float = 1e-10) -> float:
    """Same quantity as lbar via 1 / (D integral_0^inf |e1^T e^(A tau) e2| d tau).

    Fully numerical route kept independent of the closed form: panel
    integration with an envelope-certified tail for real eigenvalues, and a
    per-period sum with bracketed sign changes plus geometric tail
    extrapolation in the oscillatory case.
    """
    if not D >= 1.0:
        raise ValueError("D must be >= 1")
    sys = system_matrix(k1, k2)
    resp = _response_for(sys, 0.0, 1.0)

    if sys.kind != _COMPLEX:
        # h >= 0 here: no sign changes to track
        total = 0.0
        a = 0.0
        width = 1.0
        for j in range(200):
            total += adaptive_simpson(lambda t: abs(resp.h(t)), a, a + width, 0.25 * tol)
            a += width
            if width < 64.0:
                width *= 2.0
            if a >= resp.decay_start() and resp.envelope_tail(a) < 0.5 * tol * max(total, 1.0):
                return 1.0 / (D * total)
        raise QuadratureError("quadrature failure: lbar integral tail did not converge")

    period = math.pi / sys.omega
    # bracket each sign change of h around its nominal position n*period
    zeros = [0.0]
    n = 1
    total = 0.0
    prev = None
    while n < 4000:
        guess = n * period
        lo, hi = guess - 0.45 * period, guess + 0.45 * period
        if resp.h(lo) * resp.h(hi) > 0.0:
            raise QuadratureError("quadrature failure: sign change bracketing lost a root")
        z = _bisect_root(resp.h, lo, hi)
        contrib = adaptive_simpson(lambda t: abs(resp.h(t)), zeros[-1], z, 0.25 * tol)
        total += contrib
        zeros.append(z)
        if prev is not None and contrib < prev:
            rho = contrib / prev
            remainder = contrib * rho / (1.0 - rho)
            if remainder < 0.5 * tol * max(total, 1.0):
                total += remainder
                return 1.0 / (D * total)
        prev = contrib
        n += 1
    raise QuadratureError("quadrature failure: oscillatory lbar integral did not converge")


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


def _discriminant_or_raise(kappa: ParamTriple) -> float:
    disc = kappa.k1 * kappa.k1 - 8.0 * kappa.k2
    if disc < -_REPEATED_REL_TOL * kappa.k1 * kappa.k1:
        raise BoundNotApplicableError(
            f"bound not applicable: k1^2 < 8 k2 (k1={kappa.k1:g}, k2={kappa.k2:g})"
        )
    # snap the repeated-eigenvalue band to exactly zero so both bounds use the
    # boundary formulas instead of amplifying float residue through sqrt
    if disc <= _REPEATED_REL_TOL * kappa.k1 * kappa.k1:
        return 0.0
    return disc


def lower_bound(constants: AdmissibilityConstants, kappa: ParamTriple) -> float:
    """Worst-case convergence time is at least 2B / ((k1 - sqrt(k1^2-8k2)) k3)."""
    disc = _discriminant_or_raise(kappa)
    return 2.0 * constants.B / ((kappa.k1 - math.sqrt(disc)) * kappa.k3)


def upper_bound_ttilde(constants: AdmissibilityConstants, kappa: ParamTriple) -> float:
    """Closed-form upper bound for the worst-case unperturbed time.

    Continuous across the k1^2 = 8 k2 boundary, where it becomes
    (C + 6B) / (k1 k3).
    """
    disc = _discriminant_or_raise(kappa)
    k1, k2, k3 = kappa.k1, kappa.k2, kappa.k3
    if disc <= _REPEATED_REL_TOL * k1 * k1:
        return (constants.C + 6.0 * constants.B) / (k1 * k3)
    s = math.sqrt(disc)
    log_term = math.log((k1 + s) / (k1 - s)) / (2.0 * k3 * s) * constants.C
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
# overflows, and walks outward one block of panels at a time.

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

_GRADED_PANELS = 8  # GK15 panels, halving toward a zero of h, per graded stretch
_MAX_LEVEL = 3  # rows over tolerance are redone with 2x, 4x, 8x the panels
_MAX_BLOCKS = 2000  # blocks per side before a row counts as unconverged
_CHUNK = 1 << 14  # Psi' values per slice of rows: 128 kB per temporary
_ZOOM_OFFSETS = np.delete(np.linspace(-1.0, 1.0, 9), 4)  # probes per zoom round
_ZOOM_ROUNDS = 7  # 4x narrower per round; the argmax ends within 1e-4 grid steps
_FAR_ZERO = 100.0  # |lam tz| past which a repeated-case row is walked from t = 0


class _Block(NamedTuple):
    """Panels of one walking step: log|E| at the nodes and the weights, shape (P, 15).

    The weights carry the panel Jacobians and the factor 1/2 of 1/2 Psi'.
    On the right side log_env and log_tail bound |E| beyond the block and
    the time integral of that bound; on the left both are None.
    """

    log_e: np.ndarray
    wk: np.ndarray
    wg: np.ndarray
    log_env: Optional[float]
    log_tail: Optional[float]


def _gk_panels(edges: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """GK15 nodes, Kronrod and Gauss weights on consecutive panels, each (P, 15)."""
    half = 0.5 * np.diff(edges)[:, None]
    mid = 0.5 * (edges[1:] + edges[:-1])[:, None]
    return mid + half * _GK_X, half * _GK_WK, half * _GK_WG


def _graded(length: float, level: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Offsets length*v^3 from a zero of h, v on panels halving toward 0.

    Where |h| is large, Psi' decays only like |h|^(-1/3), so each zero
    crossing is a cusp of width about 1/|h'|; the cubic map turns its power
    law into a ramp in v, and the halving panels resolve the ramp's corner
    at whatever scale it sits.
    """
    v = np.concatenate([[0.0], 0.5 ** np.arange(_GRADED_PANELS - 1, -1, -1)])
    v = np.interp(np.arange((v.size - 1 << level) + 1) / (1 << level), np.arange(v.size), v)
    v, wk, wg = _gk_panels(v)
    jac = 1.5 * length * v * v  # 3 length v^2, times the 1/2 of 1/2 Psi'
    return length * v ** 3, wk * jac, wg * jac


def _complex_blocks(mu: float, omega: float, level: int, right: bool) -> Iterator[_Block]:
    """Half periods between the zeros s = -pi/2 + n pi of cos s, outward from s = -pi/2.

    Every half period has the same nodes, graded toward both of its zeros;
    |cos| there is the sine of the offset, free of cancellation.
    """
    off, wk, wg = _graded(0.5 * math.pi, level)
    d = np.concatenate([off, math.pi - off])
    log_sin = np.log(np.sin(np.concatenate([off, off])))
    wk = np.concatenate([wk, wk]) / omega
    wg = np.concatenate([wg, wg]) / omega
    rate = mu / omega
    for n in range(_MAX_BLOCKS):
        z = -0.5 * math.pi + (n if right else -1 - n) * math.pi
        log_e = rate * (z + d) + log_sin
        if right:
            end = rate * (z + math.pi)
            yield _Block(log_e, wk, wg, end, end - math.log(-mu))
        else:
            yield _Block(log_e, wk, wg, None, None)


def _walk(
    log_e: Callable[[np.ndarray], np.ndarray],
    graded: float,
    widths: Iterator[float],
    level: int,
    right: bool,
    bound: Callable[[float], tuple[float, float]],
) -> Iterator[_Block]:
    """A stretch graded toward the zero at t = 0, then panels of the given widths."""
    sign = 1.0 if right else -1.0
    off, wk, wg = _graded(graded, level)
    yield _Block(log_e(sign * off), wk, wg, *(bound(graded) if right else (None, None)))
    pos = graded
    for _ in range(_MAX_BLOCKS - 1):
        width = next(widths)
        t, wk, wg = _gk_panels(pos + width * np.linspace(0.0, 1.0, (1 << level) + 1))
        pos += width
        yield _Block(log_e(sign * t), 0.5 * wk, 0.5 * wg,
                     *(bound(pos) if right else (None, None)))


def _distinct_blocks(
    lam1: float, lam2: float, sign: float, level: int, right: bool
) -> Iterator[_Block]:
    """E(t) = e^(lam1 t) + sign e^(lam2 t); its only possible zero is t = 0."""
    gap = lam1 - lam2

    def log_e(t: np.ndarray) -> np.ndarray:
        # factor out the dominant mode: lam1 rightward, lam2 leftward
        x = -gap * np.abs(t)
        rest = np.log1p(np.exp(x)) if sign > 0.0 else np.log(-np.expm1(x))
        return (lam1 if right else lam2) * t + rest

    def bound(t: float) -> tuple[float, float]:
        x = -gap * t
        return (lam1 * t + math.log1p(math.exp(x)),
                lam1 * t + math.log(1.0 / -lam1 + math.exp(x) / -lam2))

    graded = min(1.0 / gap, 1.0 / -lam1)
    if right:
        widths = (min(graded * 2.0 ** k, 1.0 / -lam1) for k in itertools.count())
    else:
        widths = itertools.repeat(1.0 / -lam2)
    return _walk(log_e, graded, widths, level, right, bound)


def _repeated_blocks(lam: float, level: int, right: bool) -> Iterator[_Block]:
    """E(t) = t e^(lam t): the zero is at t = 0 and |E| peaks at t = 1/|lam|."""
    scale = 1.0 / -lam

    def log_e(t: np.ndarray) -> np.ndarray:
        return np.log(np.abs(t)) + lam * t

    def bound(t: float) -> tuple[float, float]:
        if t < scale:
            return math.inf, math.inf  # envelope still rising: no certificate yet
        return math.log(t) + lam * t, lam * t + math.log(t * scale + scale * scale)

    return _walk(log_e, scale, itertools.repeat(scale), level, right, bound)


def _far_zero_blocks(lam: float, eps: float, level: int, right: bool) -> Iterator[_Block]:
    """E(t) = e^(lam t) (1 + eps t) with |eps| < |lam| / _FAR_ZERO.

    The zero -1/eps lies where |h| is negligible (right) or far past the
    peak of Psi' (left), so both walks end before reaching it and nothing
    is graded toward it. The envelope e^(lam t) (1 + |eps| t) decreases on
    t >= 0 because |eps| < |lam|.
    """
    scale = 1.0 / -lam

    def log_e(t: np.ndarray) -> np.ndarray:
        return lam * t + np.log(np.abs(1.0 + eps * t))

    def bound(t: float) -> tuple[float, float]:
        m = 1.0 + abs(eps) * t
        return lam * t + math.log(m), lam * t + math.log((m + abs(eps) * scale) * scale)

    return _walk(log_e, scale, itertools.repeat(scale), level, right, bound)


def _panel_sums(
    psi: Callable[[np.ndarray], np.ndarray], loga: np.ndarray, blk: _Block
) -> tuple[np.ndarray, np.ndarray]:
    """Kronrod and Gauss sums of every row on every panel of a block, each (rows, P).

    Rows go through Psi' in slices of at most _CHUNK values, which bounds
    the temporaries whatever the batch size.
    """
    k = np.empty((loga.size, blk.log_e.shape[0]))
    gauss = np.empty_like(k)
    step = max(1, _CHUNK // blk.log_e.size)
    for i in range(0, loga.size, step):
        g = psi(np.exp(loga[i:i + step, None, None] + blk.log_e))
        k[i:i + step] = (g * blk.wk).sum(axis=-1)
        gauss[i:i + step] = (g * blk.wg).sum(axis=-1)
    return k, gauss


def _integrate_side(
    psi: Callable[[np.ndarray], np.ndarray],
    loga: np.ndarray,
    blocks: Iterator[_Block],
    tol: float,
    log_delta0: float,
) -> tuple[np.ndarray, np.ndarray]:
    """integral of 1/2 Psi'(e^loga E) over one side for every row, with error estimates.

    Walks the blocks outward and drops each row once its side is done. The
    right side ends, as in _integrate_decaying, when |h| <= delta0 beyond the
    block and 1.5 times the envelope tail is below tol/10; that bound joins
    the error. The left side ends after two blocks below tol/4 whose
    geometric remainder is below tol/4 (or both exactly zero); the
    remainder is added to the value and to the error. Each panel adds
    |Kronrod - Gauss| to its row's error.
    """
    value = np.zeros(loga.size)
    err = np.zeros(loga.size)
    prev = np.full(loga.size, math.inf)
    rows = np.arange(loga.size)
    # overflow makes |h| inf (Psi' = 0 there); a diverging integral makes the
    # sums inf or nan, which no stopping rule or error check accepts
    with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
        for blk in blocks:
            la = loga[rows]
            k, gauss = _panel_sums(psi, la, blk)
            c = k.sum(axis=-1)
            value[rows] += c
            err[rows] += np.abs(k - gauss).sum(axis=-1)
            if blk.log_env is not None:
                tail = 1.5 * np.exp(la + blk.log_tail)
                done = (la + blk.log_env <= log_delta0) & (tail < 0.1 * tol)
                err[rows[done]] += tail[done]
            else:
                p = prev[rows]
                shrinking = (0.0 < c) & (c < p)
                rest = np.where(shrinking, c * c / (p - c), 0.0)  # c rho / (1 - rho)
                done = (c < 0.25 * tol) & (p < 0.25 * tol) & (
                    (shrinking & (rest < 0.25 * tol)) | ((c == 0.0) & (p == 0.0)))
                value[rows[done]] += rest[done]
                err[rows[done]] += rest[done]
                prev[rows] = c
            rows = rows[~done]
            if rows.size == 0:
                return value, err
    side = "right" if blk.log_env is not None else "left"
    raise QuadratureError(
        f"quadrature failure: {side} tail of {rows.size} responses did not converge "
        f"within {_MAX_BLOCKS} blocks"
    )


def _full_line(
    psi: Callable[[np.ndarray], np.ndarray],
    blocks: Callable[[int, bool], Iterator[_Block]],
    loga: np.ndarray,
    tol: float,
    log_delta0: float,
) -> np.ndarray:
    """Full-line integrals of 1/2 Psi'(h) for rows h = e^loga E, each within tol.

    Rows whose error estimate exceeds tol are redone with twice the panels,
    up to _MAX_LEVEL times; a row still over tol raises QuadratureError
    rather than being accepted.
    """
    values = np.empty(loga.size)
    rows = np.arange(loga.size)
    for level in range(_MAX_LEVEL + 1):
        right, err_r = _integrate_side(psi, loga[rows], blocks(level, True), tol, log_delta0)
        left, err_l = _integrate_side(psi, loga[rows], blocks(level, False), tol, log_delta0)
        values[rows] = right + left
        err = err_r + err_l
        rows = rows[~(err <= tol)]  # a nan estimate is not converged either
        if rows.size == 0:
            return values
    raise QuadratureError(
        f"quadrature failure: {rows.size} full-line integrals kept an error estimate "
        f"up to {err.max():.3e} above tolerance {tol:g} at {_MAX_LEVEL + 1} panel levels"
    )


def _psi_prime_array(dgf: GeneratingFunction, k3: float) -> Callable[[np.ndarray], np.ndarray]:
    """Psi' of the scaled map on an array of |z| >= 0; 0 at z = 0 and z = inf.

    Psi'_k3(z) = Psi'_1(k3 z) / k3. Without a closed-form inverse slope the
    scalar closure runs once per element.
    """
    slope = dgf._inverse_slope
    if slope is None:
        return np.vectorize(_psi_prime_closure(dgf, k3), otypes=[float])

    def psi(z: np.ndarray) -> np.ndarray:
        w = k3 * z
        return np.where((w > 0.0) & (w < math.inf), slope(w) / k3, 0.0)

    return psi


def _circle_values(
    sys: SystemMatrix,
    psi: Callable[[np.ndarray], np.ndarray],
    theta: np.ndarray,
    tol: float,
    log_delta0: float,
) -> np.ndarray:
    """Full-line integrals from the unit states at angles theta, complex or repeated case."""
    v1, v2 = np.cos(theta), np.sin(theta)
    if sys.kind == _COMPLEX:
        # h = R e^(mu t) cos(omega t - phase), R = |(v1, c2)|
        c2 = (sys.mu * v1 + 0.5 * v2) / sys.omega
        loga = np.log(np.hypot(v1, c2)) + sys.mu / sys.omega * np.arctan2(c2, v1)
        blocks = functools.partial(_complex_blocks, sys.mu, sys.omega)
        return _full_line(psi, blocks, loga, tol, log_delta0)

    # h = e^(lam t) (v1 + c2 t) = c2 e^(lam tz) (t - tz) e^(lam (t - tz)),
    # tz = -v1/c2. From the zero, |h| settles only about |lam tz| blocks out,
    # and e^(lam tz) underflows once lam tz < -745; rows whose zero lies past
    # |lam tz| = _FAR_ZERO are walked from t = 0 instead, one at a time.
    lam = sys.lam1
    c2 = lam * v1 + 0.5 * v2
    far = np.abs(lam * v1) > _FAR_ZERO * np.abs(c2)
    out = np.empty(theta.size)
    near = ~far
    if near.any():
        loga = np.log(np.abs(c2[near])) - lam * v1[near] / c2[near]
        blocks = functools.partial(_repeated_blocks, lam)
        out[near] = _full_line(psi, blocks, loga, tol, log_delta0)
    for i in np.flatnonzero(far):
        blocks = functools.partial(_far_zero_blocks, lam, c2[i] / v1[i])
        out[i] = _full_line(psi, blocks, np.log(np.abs(v1[i:i + 1])), tol, log_delta0)[0]
    return out


def _zoom(
    f: Callable[[np.ndarray], np.ndarray], x: float, v: float, step: float
) -> tuple[float, float]:
    """Refine a grid maximum (x, v) with batched rounds of probes across x +/- step.

    Each round moves to its best probe, if better, and shrinks the bracket
    to one probe spacing. Returns the best (argument, value) seen.
    """
    for _ in range(_ZOOM_ROUNDS):
        xs = x + step * _ZOOM_OFFSETS
        vals = f(xs)
        i = int(np.argmax(vals))
        if vals[i] > v:
            x, v = float(xs[i]), float(vals[i])
        step *= _ZOOM_OFFSETS[-1] - _ZOOM_OFFSETS[-2]
    return x, v


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
    error estimate.
    """
    sys = system_matrix(kappa.k1, kappa.k2)
    psi = _psi_prime_array(dgf, kappa.k3)
    log_delta0 = math.log(_delta0(dgf, kappa.k3))

    if sys.kind == _REAL_DISTINCT:
        def values(log_b: np.ndarray, sign: float) -> np.ndarray:
            blocks = functools.partial(_distinct_blocks, sys.lam1, sys.lam2, sign)
            return _full_line(psi, blocks, math.log(10.0) * log_b, inner_tol, log_delta0)

        # Degenerate single-mode profiles are the b -> inf / b -> 0 limits of
        # the family; their full-line values have the closed reduction
        # B / (2 k3 |lam|), entered as explicit candidates so a supremum
        # attained only in the limit never chases the grid edge outward.
        b_full = reciprocal_integral(dgf.phi, None, tol=min(1e-3 * inner_tol, 1e-9))
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
        arg, val = _zoom(lambda lb: values(lb, sgn), best_lb, best_v, step)
        argmax = sgn * 10.0 ** arg
        if lim_fast > val:
            val, argmax = lim_fast, 0.0
        if lim_slow > val:
            val, argmax = lim_slow, math.inf
        return GlobalConvtime(
            value=val, dgf_name=dgf.name, kappa=kappa, search="two-exponential",
            argmax=argmax, grid_points=grid_points, inner_tol=inner_tol,
        )

    def values(theta: np.ndarray) -> np.ndarray:
        # Psi' is even, so v and -v coincide and [0, pi) covers the circle
        return _circle_values(sys, psi, theta, inner_tol, log_delta0)

    thetas = math.pi * np.arange(grid_points) / grid_points
    vals = values(thetas)
    i = int(np.argmax(vals))
    arg, val = _zoom(values, float(thetas[i]), float(vals[i]), math.pi / grid_points)
    return GlobalConvtime(
        value=val, dgf_name=dgf.name, kappa=kappa, search="unit-circle",
        argmax=arg, grid_points=grid_points, inner_tol=inner_tol,
    )
