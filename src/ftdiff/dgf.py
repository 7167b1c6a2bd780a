"""Generating functions for fixed-time exact differentiators.

A generating function Phi is an odd scalar map, continuously differentiable
away from zero, with Phi'(x) > 0 for x != 0, unbounded slope at the origin,
and |2 Phi'(x)^3 / Phi''(x)| -> 1 as x -> 0. It induces the two injection
nonlinearities of the differentiator

    nu1(x) = Phi(k3^2 x) / k3,
    nu2(x) = 2 Phi(k3^2 x) Phi'(k3^2 x),

parameterized by the gain k3 > 0. The choice Phi(x) = sign(x) sqrt(|x|)
recovers the classical super-twisting injections; generating functions whose
reciprocal integral converges additionally yield uniform (fixed-time)
convergence, which is what the admissibility constants (B, C, D) certify:

    (i)  integral_0^inf dx / (B Phi(x)) <= 1,
    (ii) C Phi'(x) >= 1 for all x != 0,
    (iii) 2 D |Phi'(x)|^3 >= |Phi''(x)| for all x != 0, with D >= 1.
"""
from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Callable, Optional

import numpy as np

from ._quad import adaptive_simpson, golden_max, reciprocal_integral
from .errors import (
    InversionRangeError,
    NotAdmissibleError,
    QuadratureError,
    SetValuedPointError,
)

__all__ = [
    "AdmissibilityConstants",
    "CheckItem",
    "CheckReport",
    "GeneratingFunction",
    "ParamTriple",
    "ScaledFamily",
    "builtin_dgf",
    "builtin_names",
    "check_dgf",
    "compute_admissibility",
    "invert_phi",
    "nu1",
    "nu2",
    "psi_prime",
    "spow",
]

ScalarMap = Callable[[float], float]


def spow(y: float, p: float) -> float:
    """Signed power sign(y) |y|^p; p = 0 gives the sign function."""
    if y == 0.0:
        return 0.0
    if p == 0.0:
        return math.copysign(1.0, y)
    return math.copysign(abs(y) ** p, y)


@dataclass(frozen=True)
class ParamTriple:
    """Differentiator gains (k1, k2, k3), all strictly positive."""

    k1: float
    k2: float
    k3: float

    def __post_init__(self) -> None:
        for name in ("k1", "k2", "k3"):
            v = getattr(self, name)
            if not (isinstance(v, (int, float)) and math.isfinite(v) and v > 0.0):
                raise ValueError(f"{name} must be a positive finite scalar, got {v!r}")


@dataclass(frozen=True)
class AdmissibilityConstants:
    """Constants (B, C, D) certifying fixed-time convergence.

    exact marks closed-form values; numerically obtained constants carry
    exact=False. d_raw records the unclamped supremum behind D, which is
    defined as max(raw, 1) so that the normalized-gain computations stay
    valid even when the raw supremum dips below one.
    """

    B: float
    C: float
    D: float
    exact: bool
    d_raw: Optional[float] = None

    def __post_init__(self) -> None:
        if not (math.isfinite(self.B) and self.B > 0.0):
            raise ValueError("B must be a positive finite scalar")
        if not (math.isfinite(self.C) and self.C > 0.0):
            raise ValueError("C must be a positive finite scalar")
        if not (math.isfinite(self.D) and self.D >= 1.0):
            raise ValueError("D must be a finite scalar >= 1")


@dataclass(frozen=True, eq=False)
class GeneratingFunction:
    """An odd increasing map Phi with its derivatives and optional extras.

    phi_prime and phi_second are only evaluated away from zero. inverse, when
    provided, must be the exact functional inverse of phi; it short-circuits
    the generic bracketed root solve. claimed_constants, when provided, are
    verified (not trusted) by compute_admissibility.
    """

    name: str
    phi: ScalarMap
    phi_prime: ScalarMap
    phi_second: ScalarMap
    inverse: Optional[ScalarMap] = None
    claimed_constants: Optional[AdmissibilityConstants] = None
    # built-ins only: w >= 0 |-> 1/phi'(phi^-1(w)) elementwise on numpy arrays,
    # which lets the worst-case search evaluate Psi' without scalar calls
    _inverse_slope: Optional[Callable[[np.ndarray], np.ndarray]] = field(
        default=None, repr=False
    )


@dataclass(frozen=True, eq=False)
class ScaledFamily:
    """The scaled family Phi_eps(x) = Phi(eps^2 x) / eps.

    eps plays the same role k3 plays in the injections; the family is closed
    under scaling, which is what makes a single tuned triple reusable across
    time budgets.
    """

    base: GeneratingFunction
    epsilon: float

    def __post_init__(self) -> None:
        if not (math.isfinite(self.epsilon) and self.epsilon > 0.0):
            raise ValueError("epsilon must be a positive finite scalar")

    def phi(self, x: float) -> float:
        return self.base.phi(self.epsilon * self.epsilon * x) / self.epsilon

    def phi_prime(self, x: float) -> float:
        return self.epsilon * self.base.phi_prime(self.epsilon * self.epsilon * x)

    def inverse(self, z: float) -> float:
        e = self.epsilon
        return invert_phi(self.base, e * z) / (e * e)


# ---------------------------------------------------------------------------
# built-in generating functions


def _sqrt_phi(x: float) -> float:
    return spow(x, 0.5)


def _sqrt_phi_prime(x: float) -> float:
    return 0.5 / math.sqrt(abs(x))


def _sqrt_phi_second(x: float) -> float:
    s = 1.0 if x > 0.0 else -1.0
    return s * (-0.25) * abs(x) ** -1.5


def _sqrt_inverse(z: float) -> float:
    return math.copysign(z * z, z)


def _sqrt_inverse_slope(w: np.ndarray) -> np.ndarray:
    return 2.0 * w


def _ured_phi(x: float) -> float:
    ax = abs(x)
    return math.copysign(math.sqrt(ax) * (1.0 + ax), x)


def _ured_phi_prime(x: float) -> float:
    s = math.sqrt(abs(x))
    return 0.5 / s + 1.5 * s


def _ured_phi_second(x: float) -> float:
    ax = abs(x)
    sgn = 1.0 if x > 0.0 else -1.0
    return sgn * 0.25 * (3.0 * ax - 1.0) / ax ** 1.5


def _ured_inverse(z: float) -> float:
    # phi(x) = sqrt(x)(1 + x) for x >= 0, so s = sqrt(x) solves the depressed
    # cubic s^3 + s = z. Cardano gives the unique real root; the subtraction
    # of cube roots loses digits for tiny z, so polish with two Newton steps.
    az = abs(z)
    if az == 0.0:
        return 0.0
    if az > 1e100:
        s = az ** (1.0 / 3.0)
    else:
        r = math.sqrt(0.25 * az * az + 1.0 / 27.0)
        s = (r + 0.5 * az) ** (1.0 / 3.0) - (r - 0.5 * az) ** (1.0 / 3.0)
    for _ in range(2):
        s -= (s * (s * s + 1.0) - az) / (3.0 * s * s + 1.0)
    return math.copysign(s * s, z)


def _ured_inverse_slope(w: np.ndarray) -> np.ndarray:
    # 1/phi'(s^2) = 2s/(1 + 3s^2) with s^3 + s = w, solved as in _ured_inverse
    with np.errstate(over="ignore", invalid="ignore"):
        r = np.sqrt(0.25 * w * w + 1.0 / 27.0)
        s = np.where(w > 1e100, np.cbrt(w), np.cbrt(r + 0.5 * w) - np.cbrt(r - 0.5 * w))
        for _ in range(2):
            s -= (s * (s * s + 1.0) - w) / (3.0 * s * s + 1.0)
        return 2.0 * s / (1.0 + 3.0 * s * s)


def _exp_phi(x: float) -> float:
    ax = abs(x)
    if ax > 1419.0:
        return math.copysign(math.inf, x)
    if ax > 700.0:
        # sqrt(e^ax - 1) = e^(ax/2) to within relative e^(-ax)
        return math.copysign(math.exp(0.5 * ax), x)
    return math.copysign(math.sqrt(math.expm1(ax)), x)


def _exp_phi_prime(x: float) -> float:
    ax = abs(x)
    if ax > 1419.0:
        return math.inf
    if ax > 700.0:
        return 0.5 * math.exp(0.5 * ax)
    return math.exp(ax) / (2.0 * math.sqrt(math.expm1(ax)))


def _exp_phi_second(x: float) -> float:
    ax = abs(x)
    sgn = 1.0 if x > 0.0 else -1.0
    if ax > 1419.0:
        return sgn * math.inf
    if ax > 350.0:
        # (em^2 - 1)/(4 em^1.5) -> e^(ax/2)/4; the ratio form overflows past ~355
        return sgn * 0.25 * math.exp(0.5 * ax)
    em = math.expm1(ax)
    return sgn * (1.0 + em) * (em - 1.0) / (4.0 * em ** 1.5)


def _exp_inverse(z: float) -> float:
    az = abs(z)
    if az > 1e150:
        return math.copysign(2.0 * math.log(az), z)
    return math.copysign(math.log1p(az * az), z)


def _exp_inverse_slope(w: np.ndarray) -> np.ndarray:
    # phi^-1(w) = log(1 + w^2), so 1/phi' = 2w/(1 + w^2)
    with np.errstate(divide="ignore"):
        return 2.0 / (w + 1.0 / w)


_BUILTINS = {
    "sqrt": GeneratingFunction(
        name="sqrt",
        phi=_sqrt_phi,
        phi_prime=_sqrt_phi_prime,
        phi_second=_sqrt_phi_second,
        inverse=_sqrt_inverse,
        claimed_constants=None,  # reciprocal integral diverges: no uniform bound
        _inverse_slope=_sqrt_inverse_slope,
    ),
    "ured": GeneratingFunction(
        name="ured",
        phi=_ured_phi,
        phi_prime=_ured_phi_prime,
        phi_second=_ured_phi_second,
        inverse=_ured_inverse,
        claimed_constants=AdmissibilityConstants(
            B=math.pi, C=1.0 / math.sqrt(3.0), D=1.0, exact=True
        ),
        _inverse_slope=_ured_inverse_slope,
    ),
    "exp": GeneratingFunction(
        name="exp",
        phi=_exp_phi,
        phi_prime=_exp_phi_prime,
        phi_second=_exp_phi_second,
        inverse=_exp_inverse,
        claimed_constants=AdmissibilityConstants(B=math.pi, C=1.0, D=1.0, exact=True),
        _inverse_slope=_exp_inverse_slope,
    ),
}


def builtin_names() -> tuple[str, ...]:
    return tuple(_BUILTINS)


def builtin_dgf(name: str) -> GeneratingFunction:
    try:
        return _BUILTINS[name]
    except KeyError:
        raise KeyError(
            f"unknown generating function {name!r}; built-ins: {', '.join(_BUILTINS)}"
        ) from None


# ---------------------------------------------------------------------------
# injections and inversion


def _check_k3(k3: float) -> None:
    if not (math.isfinite(k3) and k3 > 0.0):
        raise ValueError("k3 must be a positive finite scalar")


def nu1(dgf: GeneratingFunction, k3: float, x: float) -> float:
    """First injection nu1(x) = Phi(k3^2 x) / k3."""
    _check_k3(k3)
    return dgf.phi(k3 * k3 * x) / k3


def nu2(dgf: GeneratingFunction, k3: float, x: float) -> float:
    """Second injection nu2(x) = 2 Phi(k3^2 x) Phi'(k3^2 x).

    At x = 0 the injection is set-valued with limits [-1, 1]; evaluation
    there raises SetValuedPointError.
    """
    _check_k3(k3)
    if x == 0.0:
        raise SetValuedPointError(
            "nu2 is set-valued at x = 0; use the interval [-1, 1] of limit values"
        )
    u = k3 * k3 * x
    return 2.0 * dgf.phi(u) * dgf.phi_prime(u)


def invert_phi(dgf: GeneratingFunction, z: float, *, rel_tol: float = 1e-13) -> float:
    """Solve phi(x) = z for x.

    Uses the closed-form inverse when the generating function provides one,
    otherwise brackets the root by geometric expansion and solves with a
    safeguarded false-position iteration. Monotonicity of phi makes both
    routes unconditionally convergent.
    """
    if dgf.inverse is not None:
        return dgf.inverse(z)
    if z == 0.0:
        return 0.0
    az = abs(z)
    phi = dgf.phi

    hi = 1.0
    guard = 0
    while phi(hi) < az:
        hi *= 8.0
        guard += 1
        if hi > 1e301 or guard > 360:
            raise InversionRangeError(
                f"inversion out of range: phi never reaches {az:.3e} below the overflow guard"
            )
    lo = 0.0
    if hi == 1.0:
        # shrink toward zero to get a tight bracket for small targets
        while hi > 1e-290 and phi(hi / 8.0) >= az:
            hi /= 8.0
        lo = hi / 8.0 if hi > 1e-290 else 0.0
    else:
        lo = hi / 8.0

    flo = phi(lo) - az
    fhi = phi(hi) - az
    if flo == 0.0:
        return math.copysign(lo, z)
    # Illinois variant of false position: guaranteed bracket, superlinear in practice
    side = 0
    root = lo
    for _ in range(300):
        root = (lo * fhi - hi * flo) / (fhi - flo)
        if not (lo < root < hi):
            root = 0.5 * (lo + hi)
        fr = phi(root) - az
        if fr == 0.0 or (hi - lo) <= rel_tol * max(abs(root), 1e-300):
            break
        if (fr > 0.0) == (fhi > 0.0):
            hi, fhi = root, fr
            if side == 1:
                flo *= 0.5
            side = 1
        else:
            lo, flo = root, fr
            if side == -1:
                fhi *= 0.5
            side = -1
    return math.copysign(root, z)


def psi_prime(dgf: GeneratingFunction, k3: float, z: float) -> float:
    """Derivative of the inverse of the scaled map, Psi = (Phi_k3)^(-1).

    Psi'(z) = 1 / (k3 Phi'(Phi^(-1)(k3 z))), an even function of z,
    continuously extended by Psi'(0) = 0 (the slope of Phi blows up at the
    origin, so the inverse flattens out).
    """
    _check_k3(k3)
    if z == 0.0:
        return 0.0
    x = invert_phi(dgf, k3 * abs(z))
    if x == 0.0:
        # the inverse underflowed (subnormal z); same continuous extension
        return 0.0
    return 1.0 / (k3 * dgf.phi_prime(x))


# ---------------------------------------------------------------------------
# definition checks


@dataclass(frozen=True)
class CheckItem:
    index: int
    title: str
    passed: bool
    witness: Optional[float]
    detail: str


@dataclass(frozen=True)
class CheckReport:
    dgf_name: str
    items: tuple[CheckItem, ...]

    @property
    def passed(self) -> bool:
        return all(item.passed for item in self.items)

    def summary(self) -> str:
        lines = [f"generating function {self.dgf_name!r}:"]
        for item in self.items:
            status = "ok" if item.passed else "FAIL"
            lines.append(f"  ({item.index}) {item.title}: {status} {item.detail}")
        return "\n".join(lines)


def _log_grid(lo: float, hi: float, n: int) -> list[float]:
    la, lb = math.log10(lo), math.log10(hi)
    return [10.0 ** (la + (lb - la) * i / (n - 1)) for i in range(n)]


def check_dgf(dgf: GeneratingFunction) -> CheckReport:
    """Verify the five defining requirements on sampled grids.

    Sampling cannot prove the limits, so items (iv) and (v) check the trend
    over shrinking arguments; that reliably separates genuine generating
    functions from smooth maps such as Phi(x) = x.
    """
    items: list[CheckItem] = []
    grid = _log_grid(1e-8, 1e8, 100)

    # (1) odd symmetry
    witness, worst = None, 0.0
    for x in grid:
        p, q = dgf.phi(x), dgf.phi(-x)
        if not (math.isfinite(p) and math.isfinite(q)):
            err = 0.0 if p == -q else math.inf  # overflow range: signs must still mirror
        else:
            err = abs(p + q) / max(abs(p), 1e-300)
        if err > worst:
            worst, witness = err, x
    ok = worst <= 1e-12
    items.append(
        CheckItem(1, "odd symmetry", ok, None if ok else witness,
                  f"(max relative asymmetry {worst:.2e})")
    )

    # (2) derivative consistency away from zero (smoothness proxy)
    witness, worst = None, 0.0
    for x in _log_grid(1e-3, 1e3, 13):
        h = 1e-6 * x
        fd1 = (dgf.phi(x + h) - dgf.phi(x - h)) / (2.0 * h)
        e1 = abs(fd1 - dgf.phi_prime(x)) / max(abs(dgf.phi_prime(x)), 1e-300)
        fd2 = (dgf.phi_prime(x + h) - dgf.phi_prime(x - h)) / (2.0 * h)
        denom = max(abs(dgf.phi_second(x)), abs(fd2), 1e-300)
        e2 = abs(fd2 - dgf.phi_second(x)) / denom
        err = max(e1, e2)
        if err > worst:
            worst, witness = err, x
    ok = worst <= 1e-3
    items.append(
        CheckItem(2, "smooth away from zero", ok, None if ok else witness,
                  f"(max derivative mismatch {worst:.2e})")
    )

    # (3) strictly increasing; nan samples (softened overflow in a custom
    # expression, e.g. inf/inf far out on the grid) carry no sign information
    # and are skipped rather than counted as failures
    witness = None
    ok = True
    for x in grid:
        d = dgf.phi_prime(x)
        if math.isnan(d):
            continue
        if not d > 0.0:
            ok, witness = False, x
            break
    items.append(CheckItem(3, "strictly increasing", ok, witness,
                           "" if ok else f"(phi'({witness:g}) <= 0)"))

    # (4) slope blows up at the origin
    slopes = [dgf.phi_prime(10.0 ** -k) for k in range(4, 13, 2)]
    increasing = all(b > a for a, b in zip(slopes, slopes[1:]))
    ok = increasing and slopes[-1] >= 1e3
    items.append(
        CheckItem(4, "unbounded slope at zero", ok, None if ok else 1e-12,
                  f"(phi'(1e-12) = {slopes[-1]:.3e}, monotone={increasing})")
    )

    # (5) curvature ratio |2 phi'^3 / phi''| tends to one
    ratios = []
    for x in (1e-6, 1e-9, 1e-12):
        second = dgf.phi_second(x)
        if second == 0.0:
            ratios.append(math.inf)
        else:
            ratios.append(abs(2.0 * dgf.phi_prime(x) ** 3 / second))
    errs = [abs(r - 1.0) for r in ratios]
    ok = all(b <= a + 1e-15 for a, b in zip(errs, errs[1:])) and errs[-1] <= 1e-2
    items.append(
        CheckItem(5, "curvature ratio tends to one", ok, None if ok else 1e-12,
                  f"(|ratio-1| at 1e-6,1e-9,1e-12: {errs[0]:.2e}, {errs[1]:.2e}, {errs[2]:.2e})")
    )

    return CheckReport(dgf.name, tuple(items))


# ---------------------------------------------------------------------------
# admissibility constants


def _sup_on_log_grid(
    f: Callable[[float], float],
    *,
    lo: float = 1e-9,
    hi: float = 1e9,
    points: int = 2001,
) -> tuple[float, float, bool]:
    """Supremum of f over a log grid plus golden refinement.

    Returns (argmax, value, at_upper_edge). The refinement works on the log
    axis between the grid neighbors of the best point; at_upper_edge flags a
    supremum that keeps growing toward the right end of the grid.
    """
    la, lb = math.log10(lo), math.log10(hi)
    step = (lb - la) / (points - 1)
    best_i, best_v = 0, -math.inf
    for i in range(points):
        v = f(10.0 ** (la + i * step))
        if v > best_v:
            best_i, best_v = i, v
    at_edge = best_i == points - 1
    l_lo = la + max(best_i - 1, 0) * step
    l_hi = la + min(best_i + 1, points - 1) * step
    arg_l, val = golden_max(lambda t: f(10.0 ** t), l_lo, l_hi)
    if best_v > val:
        return 10.0 ** (la + best_i * step), best_v, at_edge
    return 10.0 ** arg_l, val, at_edge


def compute_admissibility(
    dgf: GeneratingFunction,
    *,
    quad_tol: float = 1e-9,
    match_rel_tol: float = 1e-6,
) -> AdmissibilityConstants:
    """Compute (B, C, D) numerically and reconcile with claimed constants.

    B is the reciprocal integral of phi; C and D are suprema over a log
    grid spanning [1e-9, 1e9] with golden-section refinement. If the
    claimed constants agree within match_rel_tol the claimed (exact)
    values are returned; otherwise the computed ones, flagged inexact.

    Raises NotAdmissibleError when the reciprocal integral diverges or a
    supremum is unbounded.
    """
    report = check_dgf(dgf)
    if not report.passed:
        failed = ", ".join(str(i.index) for i in report.items if not i.passed)
        raise NotAdmissibleError(
            f"{dgf.name!r} fails generating-function requirements ({failed})"
        )

    try:
        b_val = reciprocal_integral(dgf.phi, None, tol=quad_tol)
    except QuadratureError as exc:
        raise NotAdmissibleError(
            f"not admissible: item (i) fails, reciprocal integral of {dgf.name!r} "
            f"diverges ({exc})"
        ) from exc

    def c_integrand(x: float) -> float:
        d = dgf.phi_prime(x)
        if math.isnan(d):
            return math.nan  # no information at this sample; scan skips it
        if d <= 0.0:
            return math.inf
        return 1.0 / d

    _, c_val, c_at_edge = _sup_on_log_grid(c_integrand)
    if c_at_edge:
        raise NotAdmissibleError(
            f"not admissible: item (ii) fails, 1/phi' of {dgf.name!r} grows without bound"
        )

    def d_integrand(x: float) -> float:
        num = abs(dgf.phi_second(x))
        den_base = abs(dgf.phi_prime(x))
        try:
            den = 2.0 * den_base ** 3
        except OverflowError:
            return 0.0  # slope cubed overflows while curvature is a float: ratio ~ 0
        if math.isinf(den):
            return 0.0 if math.isfinite(num) else math.nan  # nan: skipped by the scan
        if not math.isfinite(num):
            return math.nan  # curvature overflowed while the slope stayed finite
        return num / den

    _, d_raw, _ = _sup_on_log_grid(d_integrand)
    d_val = max(d_raw, 1.0)

    claimed = dgf.claimed_constants
    if claimed is not None:
        db = abs(b_val - claimed.B) / claimed.B
        dc = abs(c_val - claimed.C) / claimed.C
        dd = abs(d_val - claimed.D) / claimed.D
        if max(db, dc, dd) <= match_rel_tol:
            return AdmissibilityConstants(
                B=claimed.B, C=claimed.C, D=claimed.D, exact=claimed.exact, d_raw=d_raw
            )
    return AdmissibilityConstants(B=b_val, C=c_val, D=d_val, exact=False, d_raw=d_raw)
