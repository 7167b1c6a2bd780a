"""Gain tuning for a prescribed convergence-time budget.

A normalized triple (one whose largest admissible perturbation slope is at
least one) is rescaled so the differentiator settles within a requested
time T while tracking signals whose second derivative is bounded by L. The
rescaling has one free tradeoff parameter gamma > L; larger gamma buys
slack against L at the cost of stiffer gains.

Also generates the reference table of rounded worst-case bounds for the
built-in generating functions over a standard ladder of first gains.
"""
from __future__ import annotations

import io
import math
from dataclasses import dataclass
from typing import Optional

from .convtime import _COMPLEX, _real_system, lbar, system_matrix, upper_bound_ttilde
from .dgf import AdmissibilityConstants, ParamTriple, builtin_dgf
from .errors import InfeasibleError, NotAdmissibleError

__all__ = [
    "Table1Row",
    "TuningRequest",
    "TuningResult",
    "default_gamma",
    "generate_table1",
    "is_normalized",
    "table1_csv",
    "tightness_ratio_bound",
    "tune",
]

_TABLE_K1 = (math.sqrt(8.0), 5.0, 10.0, 15.0, 20.0)


def default_gamma(L: float) -> float:
    """Tradeoff parameter used when the caller does not pick one."""
    return 4.5 * max(L, 1.0)


@dataclass(frozen=True)
class TuningRequest:
    """What the user wants: settle within T despite |f''| <= L.

    normalized_triple is the starting gain triple; it must admit a
    perturbation slope of at least one (checked with the most permissive
    curvature constant D = 1). ttilde is a verified worst-case bound for
    that triple; gamma defaults to 4.5 max(L, 1).
    """

    dgf_id: str
    normalized_triple: ParamTriple
    ttilde: float
    T: float
    L: float = 0.0
    gamma: Optional[float] = None

    def __post_init__(self) -> None:
        if not (math.isfinite(self.T) and self.T > 0.0):
            raise ValueError("T must be a positive finite scalar")
        if not (math.isfinite(self.ttilde) and self.ttilde > 0.0):
            raise ValueError("ttilde must be a positive finite scalar")
        if not (math.isfinite(self.L) and self.L >= 0.0):
            raise ValueError("L must be a nonnegative finite scalar")
        if self.gamma is not None and not self.gamma > self.L:
            raise InfeasibleError(
                "tradeoff parameter must exceed Lipschitz constant "
                f"(gamma = {self.gamma:g}, L = {self.L:g})"
            )
        nt = self.normalized_triple
        if lbar(nt.k1, nt.k2, 1.0) < 1.0 - 1e-12:
            raise ValueError(
                "normalized triple required: largest admissible slope is below "
                f"one even at D = 1 for (k1, k2) = ({nt.k1:g}, {nt.k2:g})"
            )

    @property
    def resolved_gamma(self) -> float:
        return self.gamma if self.gamma is not None else default_gamma(self.L)


@dataclass(frozen=True)
class TuningResult:
    kappa: ParamTriple
    guaranteed_bound: float
    lbar_scaled: float
    tightness_ratio_bound: Optional[float] = None


def is_normalized(
    kappa: ParamTriple, constants: AdmissibilityConstants
) -> tuple[bool, float]:
    """Whether kappa admits a unit perturbation slope; returns (flag, D used)."""
    d = max(constants.D, 1.0)
    return lbar(kappa.k1, kappa.k2, d) >= 1.0 - 1e-12, d


def _resolve_constants(
    dgf_id: str, constants: Optional[AdmissibilityConstants]
) -> AdmissibilityConstants:
    if constants is not None:
        return constants
    try:
        claimed = builtin_dgf(dgf_id).claimed_constants
    except KeyError as exc:
        raise ValueError(
            f"unknown generating function {dgf_id!r}: pass constants explicitly"
        ) from exc
    if claimed is None:
        raise NotAdmissibleError(
            f"not admissible: {dgf_id!r} has no finite admissibility constants"
        )
    return claimed


def tune(
    req: TuningRequest,
    constants: Optional[AdmissibilityConstants] = None,
) -> TuningResult:
    """Scale the normalized triple to guarantee convergence within req.T.

    k1 = k1~ sqrt(gamma), k2 = k2~ gamma,
    k3 = k3~ sqrt(gamma)/(gamma - L) * ttilde/T.
    constants defaults to the built-in table for known dgf_id values.
    """
    co = _resolve_constants(req.dgf_id, constants)
    g = req.resolved_gamma
    if not g > req.L:
        raise InfeasibleError(
            "tradeoff parameter must exceed Lipschitz constant "
            f"(gamma = {g:g}, L = {req.L:g})"
        )
    nt = req.normalized_triple
    rg = math.sqrt(g)
    kappa = ParamTriple(
        nt.k1 * rg,
        nt.k2 * g,
        nt.k3 * rg / (g - req.L) * req.ttilde / req.T,
    )
    d = max(co.D, 1.0)
    tight: Optional[float] = None
    if system_matrix(nt.k1, nt.k2).kind != _COMPLEX:
        tight = tightness_ratio_bound(req, co.B)
    return TuningResult(
        kappa=kappa,
        guaranteed_bound=req.T,
        lbar_scaled=lbar(kappa.k1, kappa.k2, d),
        tightness_ratio_bound=tight,
    )


def tightness_ratio_bound(req: TuningRequest, B_exact: float) -> float:
    """Upper bound on how far the guarantee T overshoots the true worst case.

    ((k1~ - sqrt(k1~^2 - 8 k2~)) k3~ ttilde / (2 B)) * gamma/(gamma - L);
    needs real eigenvalues of the normalized triple. k1~ - sqrt(k1~^2 - 8 k2~)
    is 4 |lam1|, free of cancellation.
    """
    if not B_exact > 0.0:
        raise ValueError("B_exact must be positive")
    nt = req.normalized_triple
    lam1 = _real_system(nt).lam1
    g = req.resolved_gamma
    core = 4.0 * -lam1 * nt.k3 * req.ttilde / (2.0 * B_exact)
    return core * g / (g - req.L)


# ---------------------------------------------------------------------------
# reference table


@dataclass(frozen=True)
class Table1Row:
    dgf_id: str
    k1_tilde: float
    t_tilde_raw: float
    t_tilde_rounded: float


def _ceil_one_decimal(v: float) -> float:
    # round() first: a value like 6.9000000000000004 must not ceil to 7.0
    return math.ceil(round(v * 10.0, 9)) / 10.0


def generate_table1() -> list[Table1Row]:
    """Worst-case bounds for both built-ins over the standard gain ladder.

    k2~ = k3~ = 1 throughout; the bound is rounded up to one decimal, which
    keeps it a valid bound.
    """
    rows = []
    for dgf_id in ("ured", "exp"):
        co = builtin_dgf(dgf_id).claimed_constants
        assert co is not None
        for k1 in _TABLE_K1:
            raw = upper_bound_ttilde(co, ParamTriple(k1, 1.0, 1.0))
            rows.append(Table1Row(dgf_id, k1, raw, _ceil_one_decimal(raw)))
    return rows


def table1_csv(rows: Optional[list[Table1Row]] = None) -> str:
    if rows is None:
        rows = generate_table1()
    buf = io.StringIO()
    buf.write("dgf,k1_tilde,t_tilde_raw,t_tilde_rounded\n")
    for r in rows:
        buf.write(f"{r.dgf_id},{r.k1_tilde:.10g},{r.t_tilde_raw:.10g},{r.t_tilde_rounded:.1f}\n")
    return buf.getvalue()
