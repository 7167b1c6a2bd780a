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

import functools
import math
from dataclasses import dataclass, field
from typing import Callable, NamedTuple, Optional

import numpy as np

from ._quad import (_Integral, _array_form, _log_axis_integral, _probe_tail_divergence,
                    _x_over_phi, zoom_max)
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
    # built-ins only: (w, out=None) |-> 1/phi'(phi^-1(w)) elementwise on numpy
    # arrays of w >= 0, 0 at w = 0, which lets the worst-case search evaluate
    # Psi' without scalar calls; with out, the result goes there and w may be
    # overwritten, so that a slice of nodes allocates nothing
    _inverse_slope: Optional[Callable[..., np.ndarray]] = field(
        default=None, repr=False
    )
    # built-ins only: (x, log x) |-> log phi(x) for x > 0, finite wherever
    # log phi is, so that t0_exact can enter from initial errors whose phi
    # overflows; x may be inf where log x is finite
    _log_phi: Optional[Callable[[float, float], float]] = field(default=None, repr=False)
    # built-ins only: source of one step of sim's Euler loop that sets p = phi(z)
    # and n2 = 0.0 if e == 0.0 else 2.0 * p * phi'(z) with the float operations
    # of phi and phi_prime (names: abs; math's sqrt, copysign, exp, expm1, inf)
    _euler_step: Optional[str] = field(default=None, repr=False)


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


_SQRT_STEP = """\
ax = abs(z)
p = copysign(ax ** 0.5, z) if ax else 0.0
n2 = 0.0 if e == 0.0 else 2.0 * p * (0.5 / sqrt(ax))
"""


def _sqrt_phi_second(x: float) -> float:
    s = 1.0 if x > 0.0 else -1.0
    return s * (-0.25) * abs(x) ** -1.5


def _sqrt_inverse(z: float) -> float:
    return math.copysign(z * z, z)


def _sqrt_inverse_slope(w: np.ndarray, out: Optional[np.ndarray] = None) -> np.ndarray:
    return np.multiply(w, 2.0, out=out)


def _sqrt_log_phi(x: float, lx: float) -> float:
    return 0.5 * lx


def _ured_phi(x: float) -> float:
    ax = abs(x)
    return math.copysign(math.sqrt(ax) * (1.0 + ax), x)


def _ured_phi_prime(x: float) -> float:
    s = math.sqrt(abs(x))
    return 0.5 / s + 1.5 * s


_URED_STEP = """\
ax = abs(z)
s = sqrt(ax)
p = copysign(s * (1.0 + ax), z)
n2 = 0.0 if e == 0.0 else 2.0 * p * (0.5 / s + 1.5 * s)
"""


def _ured_phi_second(x: float) -> float:
    ax = abs(x)
    sgn = 1.0 if x > 0.0 else -1.0
    return sgn * 0.25 * (3.0 * ax - 1.0) / ax ** 1.5


def _ured_inverse(z: float) -> float:
    # phi(x) = sqrt(x)(1 + x) for x >= 0, so s = sqrt(x) solves the depressed
    # cubic s^3 + s = z. Cardano gives the unique real root; the subtraction
    # of cube roots loses digits for tiny z, so polish with two Newton steps.
    # Past 1e100 the steps divide by s^2: s^3 overflows near the largest float.
    az = abs(z)
    if az == 0.0:
        return 0.0
    if az > 1e100:
        s = az ** (1.0 / 3.0)
        for _ in range(2):
            s -= (s - az / (s * s) + 1.0 / s) / (3.0 + 1.0 / (s * s))
    else:
        r = math.sqrt(0.25 * az * az + 1.0 / 27.0)
        s = (r + 0.5 * az) ** (1.0 / 3.0) - (r - 0.5 * az) ** (1.0 / 3.0)
        for _ in range(2):
            s -= (s * (s * s + 1.0) - az) / (3.0 * s * s + 1.0)
    return math.copysign(s * s, z)


# s^3 + s = w in closed form: s = (2/sqrt 3) sinh(asinh(3 sqrt(3) w/2)/3). The
# absolute rounding of asinh, about 709 ulp(1) at the top of the float range,
# becomes the relative error of s, and below about 1e-308 the intermediates
# lose bits as subnormals. Past _URED_CBRT_FROM s = cbrt(w) to within
# w^(-2/3)/3, and below _URED_LINEAR_BELOW s = w to within w^2, both under 1e-17
_URED_ASINH_SCALE = 1.5 * math.sqrt(3.0)
_URED_SINH_SCALE = 2.0 / math.sqrt(3.0)
_URED_CBRT_FROM = 1e25
_URED_LINEAR_BELOW = 1e-150


def _ured_inverse_slope(w: np.ndarray, out: Optional[np.ndarray] = None) -> np.ndarray:
    # 1/phi'(s^2) = 2s/(1 + 3s^2)
    with np.errstate(over="ignore", invalid="ignore"):
        s = np.multiply(w, _URED_ASINH_SCALE, out=out)
        np.arcsinh(s, out=s)
        s /= 3.0
        np.sinh(s, out=s)
        s *= _URED_SINH_SCALE
        if w.max(initial=0.0) > _URED_CBRT_FROM:
            big = w > _URED_CBRT_FROM
            s[big] = np.cbrt(w[big])
        if w.min(initial=math.inf) < _URED_LINEAR_BELOW:
            small = w < _URED_LINEAR_BELOW
            s[small] = w[small]
        d = np.multiply(s, s, out=None if out is None else w)
        d *= 3.0
        d += 1.0
        s *= 2.0
        s /= d
    return s


def _ured_log_phi(x: float, lx: float) -> float:
    # log1p(x) is log x to within 1/x, below an ulp once x overflows
    return 0.5 * lx + (math.log1p(x) if x < math.inf else lx)


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


# past 700 the error cannot be 0, so n2 needs no test for it
_EXP_STEP = """\
ax = abs(z)
if ax > 1419.0:
    p = copysign(inf, z)
    n2 = 2.0 * p * inf
elif ax > 700.0:
    h = exp(0.5 * ax)
    p = copysign(h, z)
    n2 = 2.0 * p * (0.5 * h)
else:
    r = sqrt(expm1(ax))
    p = copysign(r, z)
    n2 = 0.0 if e == 0.0 else 2.0 * p * (exp(ax) / (2.0 * r))
"""


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


def _exp_inverse_slope(w: np.ndarray, out: Optional[np.ndarray] = None) -> np.ndarray:
    # phi^-1(w) = log(1 + w^2), so 1/phi' = 2w/(1 + w^2), which is the same
    # at 1/w; in r = min(w, 1/w) <= 1 neither r^2 nor 1/r can overflow
    with np.errstate(over="ignore", divide="ignore"):
        r = np.divide(1.0, w, out=out)
    np.minimum(w, r, out=r)
    d = np.multiply(r, r, out=None if out is None else w)
    d += 1.0
    r *= 2.0
    r /= d
    return r


def _exp_log_phi(x: float, lx: float) -> float:
    # log sqrt(e^x - 1) = (x + log(1 - e^-x)) / 2, which does not overflow
    return 0.5 * (x + math.log(-math.expm1(-x)))


_BUILTINS = {
    "sqrt": GeneratingFunction(
        name="sqrt",
        phi=_sqrt_phi,
        phi_prime=_sqrt_phi_prime,
        phi_second=_sqrt_phi_second,
        inverse=_sqrt_inverse,
        claimed_constants=None,  # reciprocal integral diverges: no uniform bound
        _inverse_slope=_sqrt_inverse_slope,
        _log_phi=_sqrt_log_phi,
        _euler_step=_SQRT_STEP,
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
        _log_phi=_ured_log_phi,
        _euler_step=_URED_STEP,
    ),
    "exp": GeneratingFunction(
        name="exp",
        phi=_exp_phi,
        phi_prime=_exp_phi_prime,
        phi_second=_exp_phi_second,
        inverse=_exp_inverse,
        claimed_constants=AdmissibilityConstants(B=math.pi, C=1.0, D=1.0, exact=True),
        _inverse_slope=_exp_inverse_slope,
        _log_phi=_exp_log_phi,
        _euler_step=_EXP_STEP,
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


_REL_TOL = 1e-13  # of the array root solve


def invert_phi(dgf: GeneratingFunction, z: float) -> float:
    """Solve phi(x) = z for x.

    Uses the closed-form inverse when the generating function provides one,
    otherwise one element of the array root solve. Raises InversionRangeError
    where no float x reaches |z|: phi stays below it up to 2^999 or
    overflows first, and for inf and nan.
    """
    if dgf.inverse is not None:
        return dgf.inverse(z)
    az = abs(z)
    if az == 0.0:
        return 0.0
    x = float(_invert_phi_array(dgf, np.array([az]))[0]) if az < math.inf else math.inf
    if x == math.inf:
        raise InversionRangeError(f"inversion out of range: phi never reaches {az:.3e} "
                                  "among the floats")
    return math.copysign(x, z)


# ---------------------------------------------------------------------------
# array forms


class _ArrayForms(NamedTuple):
    phi: Callable[[np.ndarray], np.ndarray]
    phi_prime: Callable[[np.ndarray], np.ndarray]
    phi_second: Callable[[np.ndarray], np.ndarray]
    inverse: Optional[Callable[[np.ndarray], np.ndarray]]


@functools.lru_cache(maxsize=64)
def _arrays(dgf: GeneratingFunction) -> _ArrayForms:
    """The array forms of dgf's callables, found once per generating function."""
    inv = None if dgf.inverse is None else _array_form(dgf.inverse)
    return _ArrayForms(*map(_array_form, (dgf.phi, dgf.phi_prime, dgf.phi_second)), inv)


def _newton(
    phi: Callable[[np.ndarray], np.ndarray],
    phi_prime: Callable[[np.ndarray], np.ndarray],
    target: np.ndarray,
    lo: np.ndarray,
    hi: np.ndarray,
    root: np.ndarray,
) -> np.ndarray:
    """Roots of phi = target from the starts root inside the brackets [lo, hi].

    Newton steps on phi', each kept inside its bracket (a bisection where
    a step would leave it), until a step is at most _REL_TOL relative, or
    stays inside its bracket with the error that it and the Newton step
    before it predict for the next one (quadratic convergence) at most
    _REL_TOL. Each row stops at its own step, so a root does not depend on
    the other rows of the batch. A row still going after 100 steps has
    closed its bracket on a point where phi jumps over its target. It gets
    inf where phi overflows there before it reaches the target, and keeps
    its last iterate where phi's own rounding makes the jump.
    """
    out = rows = None  # set once some rows stop before others
    prev = np.inf
    newton = np.zeros(target.size, dtype=bool)  # root came from a Newton step
    for _ in range(100):
        f = phi(root) - target
        delta = f / phi_prime(root)
        step = root - delta
        below = f < 0.0
        lo, hi = np.where(below, root, lo), np.where(below, hi, root)
        inside = (lo < step) & (step < hi)
        # relative, but absolute below 1e-300; a converged step may leave
        # the bracket by rounding: it is taken as is
        r = np.abs(delta) / np.maximum(root, 1e-300)
        done = (r <= _REL_TOL) | (newton & inside & (r * (r / prev) ** 2 <= _REL_TOL))
        if done.any():
            if rows is None:
                if done.all():
                    return step
                out, rows = np.empty(target.size), np.arange(target.size)
            out[rows[done]] = step[done]
            if done.all():
                return out
            rows, root, step, lo, hi, target, r, inside = (
                a[~done] for a in (rows, root, step, lo, hi, target, r, inside))
        root = step if inside.all() else np.where(inside, step, 0.5 * (lo + hi))
        prev, newton = r, inside
    last = np.where(phi(hi) < np.inf, root, np.inf)
    if rows is None:
        return last
    out[rows] = last
    return out


# The x ladder 2^(k/_X_STEPS), from the smallest subnormal float up to
# 2^999, brackets every root; the w ladder 2^(k/_W_STEPS) over all
# positive floats indexes it
_X_STEPS = 8
_W_STEPS = 16


class _Ladder(NamedTuple):
    x: np.ndarray
    p: np.ndarray  # phi(x), made nondecreasing, with inf appended
    j: np.ndarray  # where each point of the w ladder falls in p


@functools.lru_cache(maxsize=16)
def _ladder(dgf: GeneratingFunction) -> _Ladder:
    """The x ladder of dgf, phi on it and its index by the w ladder.

    nan in phi is softened overflow; the inf past the end stands for phi
    never reaching w.
    """
    x = np.exp2(np.arange(-1074 * _X_STEPS, 999 * _X_STEPS + 1) / _X_STEPS)
    with np.errstate(all="ignore"):
        p = _arrays(dgf).phi(x)
        p = np.append(np.maximum.accumulate(np.where(np.isnan(p), np.inf, p)), np.inf)
        w = np.exp2(np.arange((1074 + 1024) * _W_STEPS) / _W_STEPS - 1074.0)
    return _Ladder(x, p, np.searchsorted(p, w))


def _invert_phi_array(dgf: GeneratingFunction, w: np.ndarray) -> np.ndarray:
    """Solve phi(x) = w elementwise on an array of finite w > 0.

    Neighbours on the x ladder bracket each root, and _newton polishes it
    from the interpolation between them, to _REL_TOL. Gives 0 where the
    preimage underflows, and inf where phi stays below w up to 2^999 or
    overflows before it reaches w.
    """
    x, p, index = _ladder(dgf)
    phi, phi_prime = _arrays(dgf)[:2]
    shape, w = w.shape, w.ravel()
    with np.errstate(all="ignore"):
        # p[j - 1] < w <= p[j]: the index at the w ladder point below w, or
        # one more; a search where phi is so flat that it is neither. Near the
        # largest float the product rounds up to one past the ladder's end
        j = index[np.minimum(np.log2(w) * _W_STEPS + 1074 * _W_STEPS,
                             index.size - 1).astype(np.intp)]
        j += p[j] < w
        p_lo, p_hi = p[j - 1], p[j]
        missed = (p_hi < w) | (p_lo >= w) & (j > 0)
        if missed.any():
            j[missed] = np.searchsorted(p, w[missed])
            p_lo, p_hi = p[j - 1], p[j]
        ok = (j > 0) & (j < x.size)
        if not ok.any():
            return np.where(j == 0, 0.0, np.inf).reshape(shape)
        every = ok.all()
        if not every:
            root = np.where(j == 0, 0.0, np.inf)
            w, j, p_lo, p_hi = w[ok], j[ok], p_lo[ok], p_hi[ok]
        lo, hi = x[j - 1], x[j]
        # where phi overflows at hi, the root may lie below the overflow
        # point or not exist: start from the middle, with no interpolation
        at = np.where(p_hi < np.inf, (w - p_lo) / (p_hi - p_lo), 0.5)
        solved = _newton(phi, phi_prime, w, lo, hi, lo + at * (hi - lo))
    if every:
        return solved.reshape(shape)
    root[ok] = solved
    return root.reshape(shape)


def _preimage(dgf: GeneratingFunction, w: np.ndarray) -> np.ndarray:
    """Phi^-1(w) on an array of finite w > 0: the inverse if given, else the root solve."""
    inverse = _arrays(dgf).inverse
    return _invert_phi_array(dgf, w) if inverse is None else inverse(w)


def _slope_at_preimage(dgf: GeneratingFunction, w: np.ndarray,
                       out: Optional[np.ndarray] = None) -> np.ndarray:
    """1/Phi'(Phi^-1(w)) on an array of w >= 0, into out if given.

    0 at w = 0 and w = inf, where the preimage underflows to 0 or lies
    beyond the float range, and where Phi' overflows, as psi_prime's
    continuous extension has it.
    """
    ok = (w > 0.0) & (w < math.inf)
    with np.errstate(all="ignore"):
        x = _preimage(dgf, w if ok.all() else w[ok])
        good = (x > 0.0) & (x < math.inf)
        if good.all() and x.size == w.size:
            return np.divide(1.0, _arrays(dgf).phi_prime(x), out=out)
        if out is None:
            out = np.empty(w.shape)
        out.fill(0.0)
        flat = ok.ravel()  # a view of ok, whatever the shape of w
        flat[flat] = good.ravel()
        out[ok] = 1.0 / _arrays(dgf).phi_prime(x[good])
    return out


def _psi_prime_array(dgf: GeneratingFunction, k3: float) -> Callable[..., np.ndarray]:
    """Psi' of the scaled map on an array of |z| >= 0; 0 at z = 0 and z = inf.

    Psi'_k3(z) = Psi'_1(k3 z) / k3. The built-ins give Psi'_1 in closed
    form; other functions take 1/Phi' at the array preimage, from their
    inverse or from the array root solve. psi(z, out) writes the result
    into out and overwrites z; the built-ins then allocate nothing.
    """
    slope = dgf._inverse_slope or functools.partial(_slope_at_preimage, dgf)

    def psi(z: np.ndarray, out: Optional[np.ndarray] = None) -> np.ndarray:
        w = np.multiply(z, k3, out=None if out is None else z)
        # the slopes give 0 at w = 0; inf and nan are zeroed here
        bad = None if w.max(initial=0.0) < math.inf else ~(w < math.inf)
        g = slope(w, out)
        g /= k3
        if bad is not None:
            g[bad] = 0.0
        return g

    return psi


def psi_prime(dgf: GeneratingFunction, k3: float, z: float) -> float:
    """Derivative of the inverse of the scaled map, Psi = (Phi_k3)^(-1).

    Psi'(z) = 1 / (k3 Phi'(Phi^(-1)(k3 z))), an even function of z,
    continuously extended by Psi'(0) = 0 (the slope of Phi blows up at the
    origin, so the inverse flattens out), by 0 where k3 |z| is infinite and
    where the preimage underflows. One element of _psi_prime_array. The
    built-ins use their closed-form inverse slope, whose preimage can
    neither underflow nor overflow; for other functions a preimage past the
    float range, or a zero slope there, raises InversionRangeError.
    """
    _check_k3(k3)
    with np.errstate(over="ignore"):
        g = float(_psi_prime_array(dgf, k3)(np.array([abs(z)]))[0])
    w = k3 * abs(z)
    if dgf._inverse_slope is None and 0.0 < w < math.inf and not 0.0 < g < math.inf:
        # an underflowed preimage gives 0 too; invert_phi raises past the float range
        x = abs(invert_phi(dgf, w))
        if x == math.inf or x > 0.0 and dgf.phi_prime(x) == 0.0:
            raise InversionRangeError(f"Psi' has no value at {w:.3e}: its preimage {x:.3e} "
                                      "is past the float range or phi' is 0 there")
    return g


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


def _log_grid(lo: float, hi: float, n: int) -> np.ndarray:
    la, lb = math.log10(lo), math.log10(hi)
    return np.array([10.0 ** (la + (lb - la) * i / (n - 1)) for i in range(n)])


_CHECK_GRID = _log_grid(1e-8, 1e8, 100)
_DIFF_GRID = _log_grid(1e-3, 1e3, 13)
_SLOPE_POINTS = np.array([10.0 ** -k for k in range(4, 13, 2)])
_RATIO_POINTS = np.array([1e-6, 1e-9, 1e-12])
_DIFF_STEP = 1e-6 * _DIFF_GRID


def _points(*parts: np.ndarray) -> tuple[np.ndarray, list[slice]]:
    """The parts laid end to end, and the slices that take a result on them back apart."""
    ends = np.cumsum([0] + [p.size for p in parts]).tolist()
    return np.concatenate(parts), [slice(a, b) for a, b in zip(ends, ends[1:])]


# check_dgf calls each callable once, on these points
_CHECK_PHI_AT = _points(_CHECK_GRID, -_CHECK_GRID, _DIFF_GRID + _DIFF_STEP,
                        _DIFF_GRID - _DIFF_STEP)
_CHECK_PRIME_AT = _points(_DIFF_GRID, _DIFF_GRID + _DIFF_STEP, _DIFF_GRID - _DIFF_STEP,
                          _CHECK_GRID, _SLOPE_POINTS, _RATIO_POINTS)
_CHECK_SECOND_AT = _points(_DIFF_GRID, _RATIO_POINTS)


def _at(fn: Callable[[np.ndarray], np.ndarray],
        points: tuple[np.ndarray, list[slice]]) -> list[np.ndarray]:
    values = fn(points[0])
    return [values[part] for part in points[1]]


def _worst(err: np.ndarray, grid: np.ndarray) -> tuple[float, Optional[float]]:
    """Largest error and the first grid point where it occurs; nan errors are skipped."""
    err = np.where(err > 0.0, err, 0.0)
    i = int(np.argmax(err))
    return float(err[i]), (float(grid[i]) if err[i] > 0.0 else None)


@functools.lru_cache(maxsize=64)
def check_dgf(dgf: GeneratingFunction) -> CheckReport:
    """Verify the five defining requirements on sampled grids.

    Sampling cannot prove the limits, so items (iv) and (v) check the trend
    over shrinking arguments; that reliably separates genuine generating
    functions from smooth maps such as Phi(x) = x. The report is shared per function.
    """
    phi, phi_prime, phi_second, _ = _arrays(dgf)
    items: list[CheckItem] = []
    grid = _CHECK_GRID

    with np.errstate(all="ignore"):
        p, q, f_hi, f_lo = _at(phi, _CHECK_PHI_AT)
        d, d_hi, d_lo, d_grid, slopes, d_ratio = _at(phi_prime, _CHECK_PRIME_AT)
        s, second = _at(phi_second, _CHECK_SECOND_AT)

        # (1) odd symmetry; in the overflow range the signs must still mirror
        err = np.where(np.isfinite(p) & np.isfinite(q),
                       np.abs(p + q) / np.maximum(np.abs(p), 1e-300),
                       np.where(p == -q, 0.0, np.inf))
        worst, witness = _worst(err, grid)
        ok = worst <= 1e-12
        items.append(
            CheckItem(1, "odd symmetry", ok, None if ok else witness,
                      f"(max relative asymmetry {worst:.2e})")
        )

        # (2) derivative consistency away from zero (smoothness proxy)
        fd1 = (f_hi - f_lo) / (2.0 * _DIFF_STEP)
        e1 = np.abs(fd1 - d) / np.maximum(np.abs(d), 1e-300)
        fd2 = (d_hi - d_lo) / (2.0 * _DIFF_STEP)
        e2 = np.abs(fd2 - s) / np.maximum(np.maximum(np.abs(s), np.abs(fd2)), 1e-300)
        worst, witness = _worst(np.where(e2 > e1, e2, e1), _DIFF_GRID)
        ok = worst <= 1e-3
        items.append(
            CheckItem(2, "smooth away from zero", ok, None if ok else witness,
                      f"(max derivative mismatch {worst:.2e})")
        )

        # (3) strictly increasing; nan samples (softened overflow in a custom
        # expression, e.g. inf/inf far out on the grid) carry no sign information
        # and are skipped rather than counted as failures
        bad = np.flatnonzero(~(d_grid > 0.0) & ~np.isnan(d_grid))
        witness = float(grid[bad[0]]) if bad.size else None
        items.append(CheckItem(3, "strictly increasing", witness is None, witness,
                               "" if witness is None else f"(phi'({witness:g}) <= 0)"))

        # (4) slope blows up at the origin
        increasing = bool(np.all(slopes[1:] > slopes[:-1]))
        ok = increasing and bool(slopes[-1] >= 1e3)
        items.append(
            CheckItem(4, "unbounded slope at zero", ok, None if ok else 1e-12,
                      f"(phi'(1e-12) = {slopes[-1]:.3e}, monotone={increasing})")
        )

        # (5) curvature ratio |2 phi'^3 / phi''| tends to one
        ratios = np.where(second == 0.0, np.inf, np.abs(2.0 * d_ratio ** 3 / second))
    errs = np.abs(ratios - 1.0).tolist()
    ok = all(b <= a + 1e-15 for a, b in zip(errs, errs[1:])) and errs[-1] <= 1e-2
    items.append(
        CheckItem(5, "curvature ratio tends to one", ok, None if ok else 1e-12,
                  f"(|ratio-1| at 1e-6,1e-9,1e-12: {errs[0]:.2e}, {errs[1]:.2e}, {errs[2]:.2e})")
    )

    return CheckReport(dgf.name, tuple(items))


# ---------------------------------------------------------------------------
# admissibility constants

# log10 of the scan grid: 2001 points on [1e-9, 1e9]
_SCAN_STEP = 18.0 / 2000
_SCAN_LOG = np.array([-9.0 + i * _SCAN_STEP for i in range(2001)])
_SCAN_GRID = np.array([10.0 ** t for t in _SCAN_LOG.tolist()])


def _reciprocal_to(dgf: GeneratingFunction, w: Optional[float], tol: float) -> _Integral:
    """integral_0^{Phi^-1(w)} dx / Phi(x) in one pass on the log axis; w=None gives B.

    The built-ins integrate 1/Phi'(Phi^-1(e^u)) over u = log Phi(x) < log w,
    with no scalar calls; other functions x/Phi(x) over log x. For the whole
    line, raises QuadratureError when the tail diverges.
    """
    slope = dgf._inverse_slope
    if w is None or w == math.inf:
        _probe_tail_divergence(dgf.phi)
        top = None
    else:
        end = w if slope is not None else invert_phi(dgf, w)  # in log Phi(x), else in log x
        if end == 0.0:
            return _Integral(0.0, 0.0, 0, 0)
        top = math.log(end)
    if slope is None:
        return _log_axis_integral(_x_over_phi(_arrays(dgf).phi), top, tol)
    return _log_axis_integral(lambda u: slope(np.exp(u)), top, tol)


def _c_and_d(d_c: np.ndarray, d_d: np.ndarray, second: np.ndarray) -> np.ndarray:
    """Rows 1/phi' (inf where phi' <= 0) and |phi''| / (2 |phi'|^3) (nan where phi''
    overflows), from phi' at their points and phi'' at the second's; nan is -inf.
    """
    v = np.empty((2,) + d_c.shape)
    np.divide(1.0, d_c, out=v[0])
    v[0][d_c <= 0.0] = np.inf
    num = np.abs(second)
    np.divide(num, 2.0 * np.abs(d_d) ** 3, out=v[1])
    v[1][~(num < np.inf)] = np.nan
    v[np.isnan(v)] = -np.inf
    return v


@functools.lru_cache(maxsize=64)
def compute_admissibility(
    dgf: GeneratingFunction,
    *,
    quad_tol: float = 1e-9,
    match_rel_tol: float = 1e-6,
) -> AdmissibilityConstants:
    """Compute (B, C, D) numerically and reconcile with claimed constants.

    B is the reciprocal integral of phi; C and D are suprema over a log grid
    spanning [1e-9, 1e9], from one scan of phi' and phi'', refined side by
    side by batched zoom rounds. If the claimed constants agree within
    match_rel_tol the claimed (exact) values are returned; otherwise the
    computed ones, flagged inexact. The result is computed once per (dgf,
    quad_tol, match_rel_tol) and shared: the callables of dgf are taken to
    be pure, as the other per-function caches take them. Each computation
    logs one DEBUG record on the "ftdiff" logger: B's panels, values and
    error estimate, where C and D peak, zoom rounds that moved, grid edges.

    Raises NotAdmissibleError, which is not cached, when the reciprocal
    integral diverges or cannot be bounded, or a supremum is unbounded.
    """
    report = check_dgf(dgf)
    if not report.passed:
        failed = ", ".join(str(i.index) for i in report.items if not i.passed)
        raise NotAdmissibleError(
            f"{dgf.name!r} fails generating-function requirements ({failed})"
        )

    try:
        b = _reciprocal_to(dgf, None, quad_tol)
    except QuadratureError as exc:
        raise NotAdmissibleError(
            f"not admissible: item (i) fails, reciprocal integral of {dgf.name!r}: {exc}"
        ) from exc

    _, phi_prime, phi_second, _ = _arrays(dgf)

    def probe(t: np.ndarray) -> np.ndarray:
        # rows of t: C's probes, D's probes, on the log axis
        x = 10.0 ** np.minimum(np.maximum(t, _SCAN_LOG[0]), _SCAN_LOG[-1])
        d = phi_prime(x)
        return _c_and_d(d[0], d[1], phi_second(x[1]))

    with np.errstate(all="ignore"):
        d = phi_prime(_SCAN_GRID)
        v = _c_and_d(d, d, phi_second(_SCAN_GRID))
        i = np.argmax(v, axis=1)
        (c_at, d_at), (c_val, d_raw), moved = zoom_max(probe, _SCAN_LOG[i], v[(0, 1), i],
                                                       _SCAN_STEP)
    c_val, d_raw = float(c_val), float(d_raw)
    if i[0] == v.shape[1] - 1:
        raise NotAdmissibleError(
            f"not admissible: item (ii) fails, 1/phi' of {dgf.name!r} grows without bound"
        )
    d_val = max(d_raw, 1.0)

    import logging  # here rather than at the top: importing ftdiff need not load logging

    log = logging.getLogger("ftdiff")
    if log.isEnabledFor(logging.DEBUG):
        edges = [f"{row} at the {'lower' if j == 0 else 'upper'} end"
                 for row, j in zip("CD", i.tolist()) if j in (0, v.shape[1] - 1)]
        info = {"b": b._asdict(), "c_at": 10.0 ** c_at, "d_at": 10.0 ** d_at,
                "moved": moved.tolist(), "edges": edges}
        log.debug("compute_admissibility %s: B %.17g from %d panels, %d values, error "
                  "estimate %.2e; C peaks at x = %.6g, D at x = %.6g; zoom rounds moved %d "
                  "(C), %d (D); grid edge: %s", dgf.name, b.value, b.panels, b.values,
                  b.error, info["c_at"], info["d_at"], *info["moved"],
                  ", ".join(edges) or "none", extra=info)

    b_val = b.value
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
