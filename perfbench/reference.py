"""Independent reference computations for the benchmark's output checks.

Everything here is written from the paper's formulas, not from ftdiff's
code, and uses numpy only:

* the built-in generating functions Phi, their slopes Phi', and the slope
  of the inverse 1/Phi'(Phi^-1(w)) in closed form (the ured cubic
  s^3 + s = w is solved in its hyperbolic form, not by Cardano);
* the response h(tau) = e1^T e^(A tau) v from numpy's eigendecomposition
  of A = [[-k1/2, 1/2], [-k2, 0]];
* convergence-time integrals by composite Gauss-Legendre quadrature with
  breakpoints at the zeros of h and geometric grading toward them;
* the closed-form bounds, Lbar and the tuning rule;
* a plain forward-Euler loop of the differentiator on the slope signal.
"""
from __future__ import annotations

import math

import numpy as np

SQRT8 = math.sqrt(8.0)

# (B, C, D) of the built-ins: B = integral_0^inf dx/Phi(x) = pi for both,
# C = sup 1/Phi', D = sup |Phi''|/(2 Phi'^3) = 1.
CONSTANTS = {
    "ured": (math.pi, 1.0 / math.sqrt(3.0), 1.0),
    "exp": (math.pi, 1.0, 1.0),
}

_GL_X, _GL_W = np.polynomial.legendre.leggauss(16)


# ---------------------------------------------------------------------------
# generating functions


def phi(name: str, x: float) -> float:
    """Phi(x): ured sign(x)(|x|^1/2 + |x|^3/2), exp sign(x) sqrt(e^|x| - 1)."""
    a = abs(x)
    if name == "ured":
        r = math.sqrt(a)
        v = r + a * r
    else:
        v = math.sqrt(math.expm1(a)) if a < 709.0 else math.inf
    return math.copysign(v, x) if x != 0.0 else 0.0


def phi_prime(name: str, x: float) -> float:
    """Phi'(x) for x != 0."""
    a = abs(x)
    if name == "ured":
        r = math.sqrt(a)
        return 0.5 / r + 1.5 * r
    if a >= 709.0:
        return math.inf
    return math.exp(a) / (2.0 * math.sqrt(math.expm1(a)))


def inverse_slope(name: str, w: np.ndarray) -> np.ndarray:
    """1 / Phi'(Phi^-1(w)) for w >= 0, vectorized.

    ured: Phi(s^2) = s + s^3, so s solves s^3 + s = w, whose real root is
    s = (2/sqrt3) sinh(asinh(3 sqrt3 w / 2) / 3), and 1/Phi'(s^2) =
    2s / (1 + 3 s^2). exp: Phi^-1(w) = log(1 + w^2), so 1/Phi' =
    2w / (1 + w^2).
    """
    w = np.asarray(w, dtype=float)
    with np.errstate(over="ignore", divide="ignore", invalid="ignore"):
        if name == "ured":
            s = (2.0 / math.sqrt(3.0)) * np.sinh(np.arcsinh(1.5 * math.sqrt(3.0) * w) / 3.0)
            out = 2.0 / (1.0 / s + 3.0 * s)
        else:
            out = 2.0 / (w + 1.0 / w)
    return np.where(w > 0.0, out, 0.0)


def psi_prime(name: str, k3: float, z: np.ndarray) -> np.ndarray:
    """Slope of the inverse of the scaled map Phi_k3(x) = Phi(k3^2 x)/k3."""
    return inverse_slope(name, k3 * np.abs(z)) / k3


# ---------------------------------------------------------------------------
# the linear response h(tau) = e1^T e^(A tau) v


class Response:
    """h(tau) for A = [[-k1/2, 1/2], [-k2, 0]] from numpy's eigendecomposition.

    A repeated eigenvalue is defective, so there the Jordan form
    e^(A tau) = e^(lam tau) (I + (A - lam I) tau) is used instead.
    """

    def __init__(self, k1: float, k2: float, v: tuple[float, float]) -> None:
        a = np.array([[-0.5 * k1, 0.5], [-k2, 0.0]])
        lam, vecs = np.linalg.eig(a)
        self.v = (float(v[0]), float(v[1]))
        self.repeated = abs(lam[0] - lam[1]) <= 1e-6 * max(abs(lam[0]), abs(lam[1]))
        if self.repeated:
            self.lam = float(np.mean(lam.real))
            self.c = float((a[0, 0] - self.lam) * v[0] + a[0, 1] * v[1])
            self.complex = False
            return
        coef = vecs[0, :] * np.linalg.solve(vecs.astype(complex), np.asarray(v, dtype=complex))
        self.complex = bool(abs(lam[0].imag) > 0.0)
        if self.complex:
            j = 0 if lam[0].imag > 0.0 else 1
            self.lam = complex(lam[j])
            self.a = complex(coef[j])  # h = 2 Re(a e^(lam tau))
        else:
            order = np.argsort(-lam.real)  # slow mode first
            self.lams = lam.real[order]
            self.coefs = coef.real[order]

    @classmethod
    def from_modes(cls, lams: tuple[float, float], coefs: tuple[float, float]) -> "Response":
        """h = c1 e^(l1 t) + c2 e^(l2 t) for distinct real l1 > l2 (both < 0)."""
        resp = cls.__new__(cls)
        resp.repeated = resp.complex = False
        resp.lams = np.array(lams, dtype=float)
        resp.coefs = np.array(coefs, dtype=float)
        return resp

    def h(self, t: np.ndarray) -> np.ndarray:
        t = np.asarray(t, dtype=float)
        with np.errstate(over="ignore", invalid="ignore"):
            if self.repeated:
                return np.exp(self.lam * t) * (self.v[0] + self.c * t)
            if self.complex:
                return 2.0 * np.real(self.a * np.exp(self.lam * t))
            return self.coefs[0] * np.exp(self.lams[0] * t) + self.coefs[1] * np.exp(self.lams[1] * t)

    def zeros(self, lo: float, hi: float) -> list[float]:
        """Sign changes of h inside (lo, hi)."""
        if self.repeated:
            zs = [-self.v[0] / self.c] if self.c != 0.0 else []
        elif self.complex:
            om, ph = self.lam.imag, math.atan2(self.a.imag, self.a.real)
            n_lo = math.ceil((om * lo + ph - 0.5 * math.pi) / math.pi)
            n_hi = math.floor((om * hi + ph - 0.5 * math.pi) / math.pi)
            zs = [(0.5 * math.pi + n * math.pi - ph) / om for n in range(n_lo, n_hi + 1)]
        else:
            c1, c2 = self.coefs
            ratio = -c2 / c1 if c1 != 0.0 else 0.0
            zs = [math.log(ratio) / (self.lams[0] - self.lams[1])] if ratio > 0.0 else []
        return [z for z in zs if lo < z < hi]

    def envelope_tail(self, t: float) -> float:
        """Bound on integral_t^inf |h| for t >= 0 past the envelope's peak."""
        if self.repeated:
            lam = self.lam
            return math.exp(lam * t) * ((abs(self.v[0]) + abs(self.c) * t) / -lam + abs(self.c) / lam ** 2)
        if self.complex:
            return 2.0 * abs(self.a) * math.exp(self.lam.real * t) / -self.lam.real
        return sum(abs(c) * math.exp(l * t) / -l for c, l in zip(self.coefs, self.lams))

    @property
    def block(self) -> float:
        """Natural block length: a half period when h oscillates, else 1."""
        return math.pi / self.lam.imag if self.complex else 1.0


# ---------------------------------------------------------------------------
# quadrature


def _graded_breaks(a: float, b: float) -> list[float]:
    # Geometric grading toward both ends (where h may cross zero and the
    # integrand changes scale fastest), uniform pieces of at most 0.25 between.
    d = b - a
    pts = {a, b}
    for k in range(1, 41):
        pts.add(a + d * 2.0 ** -k)
        pts.add(b - d * 2.0 ** -k)
    n = max(1, math.ceil(d / 0.25))
    pts.update(a + d * i / n for i in range(1, n))
    return sorted(pts)


def _integrate(g, resp: Response, lo: float, hi: float) -> float:
    """integral_lo^hi g(h(tau)) d tau, split at the zeros of h."""
    edges = [lo] + resp.zeros(lo, hi) + [hi]
    breaks: list[float] = []
    for a, b in zip(edges, edges[1:]):
        breaks.extend(_graded_breaks(a, b)[:-1])
    breaks.append(hi)
    br = np.asarray(breaks)
    left, right = br[:-1], br[1:]
    half = 0.5 * (right - left)
    mid = 0.5 * (right + left)
    nodes = mid[:, None] + half[:, None] * _GL_X[None, :]
    vals = g(resp.h(nodes))
    return float(np.sum(half * (vals @ _GL_W)))


def integral_right(g, resp: Response, *, tol: float = 1e-14) -> float:
    """integral_0^inf g(h) for g(z) <= |z|, with an envelope-certified tail."""
    t = 8.0
    while resp.envelope_tail(t) > tol:
        t += 8.0
        if t > 4000.0:
            raise ArithmeticError("reference tail did not certify")
    return _integrate(g, resp, 0.0, t)


def integral_left(g, resp: Response, *, tol: float = 1e-13) -> float:
    """integral_-inf^0 g(h) where |h| grows leftward.

    Sums blocks leftward until they shrink geometrically below tol and adds
    the geometric remainder.
    """
    width = resp.block
    total, prev, right = 0.0, None, 0.0
    for _ in range(20000):
        part = _integrate(g, resp, right - width, right)
        total += part
        right -= width
        if prev is not None and 0.0 < part < prev:
            rho = part / prev
            rest = part * rho / (1.0 - rho)
            if rho < 0.99 and rest < tol:
                return total + rest
        if part == 0.0 and prev == 0.0:
            return total
        prev = part
    raise ArithmeticError("reference left tail did not converge")


def t0(name: str, kappa: tuple[float, float, float], x0: tuple[float, float]) -> float:
    """Unperturbed convergence time: integral_0^inf (1/2) Psi'(h) with v = (Phi_k3(x1), x2)."""
    k1, k2, k3 = kappa
    v1 = phi(name, k3 * k3 * x0[0]) / k3
    if v1 == 0.0 and x0[1] == 0.0:
        return 0.0
    resp = Response(k1, k2, (v1, x0[1]))
    return integral_right(lambda z: 0.5 * psi_prime(name, k3, z), resp)


def full_line_time(name: str, kappa: tuple[float, float, float], resp: Response) -> float:
    """integral over the whole line of (1/2) Psi'(h): the time of a full trajectory."""
    k3 = kappa[2]

    def g(z):
        return 0.5 * psi_prime(name, k3, z)

    return integral_left(g, resp) + integral_right(g, resp)


def two_exponential(kappa: tuple[float, float, float], b: float) -> Response:
    """Response |b| e^(lam1 t) + sign(b) |b| e^(lam2 t) (lam1 the slow mode)."""
    lam = eigenvalues(kappa[0], kappa[1])
    if abs(lam[0].imag) > 0.0 or lam[0] == lam[1]:
        raise ValueError("two-exponential family needs distinct real eigenvalues")
    return Response.from_modes((lam[0].real, lam[1].real), (abs(b), math.copysign(abs(b), b)))


def eigenvalues(k1: float, k2: float) -> np.ndarray:
    """Eigenvalues of A from numpy, slowest (largest real part) first."""
    lam = np.linalg.eigvals(np.array([[-0.5 * k1, 0.5], [-k2, 0.0]]))
    return lam[np.argsort(-lam.real)]


def single_exp_integral(name: str, k3: float, lam: float, c: float) -> float:
    """integral_0^inf Psi'(c e^(lam tau)) d tau by quadrature (lam < 0)."""
    resp = Response.from_modes((lam, lam - 1.0), (c, 0.0))
    return integral_right(lambda z: psi_prime(name, k3, z), resp)


def lbar_integral(k1: float, k2: float, D: float) -> float:
    """Lbar = 1 / (D integral_0^inf |e1^T e^(A tau) e2| d tau) by quadrature."""
    return 1.0 / (D * integral_right(np.abs, Response(k1, k2, (0.0, 1.0))))


# ---------------------------------------------------------------------------
# closed forms


def lbar(k1: float, k2: float, D: float) -> float:
    if k1 * k1 >= 8.0 * k2:
        return k2 / D
    return k2 / D * math.tanh(math.pi * k1 / (2.0 * math.sqrt(8.0 * k2 - k1 * k1)))


def discriminant(k1: float, k2: float) -> float:
    """k1^2 - 8 k2, snapped to 0 within float residue: > 0 distinct real, < 0 complex."""
    d = k1 * k1 - 8.0 * k2
    return 0.0 if abs(d) <= 1e-10 * k1 * k1 else d


def lower_bound(B: float, kappa: tuple[float, float, float]) -> float:
    k1, k2, k3 = kappa
    return 2.0 * B / ((k1 - math.sqrt(discriminant(k1, k2))) * k3)


def upper_bound(B: float, C: float, kappa: tuple[float, float, float]) -> float:
    k1, k2, k3 = kappa
    d = discriminant(k1, k2)
    if d == 0.0:
        return (C + 6.0 * B) / (k1 * k3)
    s = math.sqrt(d)
    return C * math.log((k1 + s) / (k1 - s)) / (2.0 * k3 * s) + B * (k1 * k1 + 4.0 * k2) / (2.0 * k1 * k2 * k3)


def tuned_gains(name: str, T: float = 1.0, L: float = 1.0) -> tuple[float, float, float]:
    """Gains from the tuning rule at k1~ = sqrt 8, k2~ = k3~ = 1, gamma = 4.5 max(L, 1).

    T~ is the normalized bound rounded up to one decimal, as tabulated.
    """
    B, C, _ = CONSTANTS[name]
    ttilde = math.ceil(round((C + 6.0 * B) / SQRT8 * 10.0, 9)) / 10.0
    g = 4.5 * max(L, 1.0)
    return SQRT8 * math.sqrt(g), g, math.sqrt(g) / (g - L) * ttilde / T


# ---------------------------------------------------------------------------
# simulation


def euler_slope(
    name: str,
    kappa: tuple[float, float, float],
    c: float,
    n: int,
    *,
    omega: float = 1.0,
    Ts: float = 1e-4,
) -> tuple[list[float], list[float]]:
    """y1, y2 of the first n samples, forward Euler from y = (0, 0).

    Signal f(t) = (cos(omega t) - 1)/omega^2 + c t, so f(0) = 0 and the
    initial estimate (0, 0) leaves the whole error in the derivative.
    Injections nu1(e) = Phi(k3^2 e)/k3, nu2(e) = 2 Phi(k3^2 e) Phi'(k3^2 e),
    with nu2(0) = 0; both updates use the state before the step.
    """
    k1, k2, k3 = kappa
    y1 = y2 = 0.0
    out1, out2 = [], []
    for i in range(n):
        out1.append(y1)
        out2.append(y2)
        t = i * Ts
        e = (math.cos(omega * t) - 1.0) / (omega * omega) + c * t - y1
        u = k3 * k3 * e
        p = phi(name, u)
        n2 = 2.0 * p * phi_prime(name, u) if e != 0.0 else 0.0
        y1, y2 = y1 + Ts * (k1 * p / k3 + y2), y2 + Ts * k2 * n2
    return out1, out2


def settling_time(t: np.ndarray, x1: np.ndarray, x2: np.ndarray, tol1: float, tol2: float):
    """Earliest sample after which |x1| <= tol1 and |x2| <= tol2 to the end; None if never."""
    bad = np.flatnonzero((np.abs(x1) > tol1) | (np.abs(x2) > tol2))
    if bad.size == 0:
        return float(t[0])
    if bad[-1] + 1 >= t.size:
        return None
    return float(t[bad[-1] + 1])
