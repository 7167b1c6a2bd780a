"""Command-line front end.

Subcommands map onto the library surface: ``check`` (generating-function
admissibility), ``tune`` (prescribed-time gains), ``table1`` (normalized
bound table), ``convtime`` (convergence-time evaluation and bounds), and
``sim`` (forward-Euler differentiator runs and sweeps).

Exit codes: 0 success, 2 usage or expression error, 3 numerical failure,
4 infeasible request (gamma <= L, or L >= Lbar).

Outputs written under ``--out`` carry provenance: JSON files embed a
manifest object, CSV files get an adjacent ``<name>.manifest.json``.  The
embedded manifest has no timestamp so byte-identical inputs give
byte-identical outputs; only the side file records a creation time.
"""
from __future__ import annotations

import argparse
import datetime
import json
import math
import sys
from pathlib import Path
from typing import Sequence

import numpy as np

from .convtime import (
    global_convtime_numeric,
    lbar,
    lower_bound,
    t0_exact,
    t_perturbed_bound,
    upper_bound_ttilde,
)
from .dgf import (
    AdmissibilityConstants,
    GeneratingFunction,
    ParamTriple,
    builtin_dgf,
    builtin_names,
    check_dgf,
    compute_admissibility,
)
from .errors import (
    BoundNotApplicableError,
    ExpressionError,
    InfeasibleError,
    InversionRangeError,
    NotAdmissibleError,
    QuadratureError,
    SimulationDivergedError,
)
from .expr import compile_expression
from .sim import (
    RNG_ALGORITHM,
    DifferentiatorState,
    Fig1Signal,
    NoiseSpec,
    SimConfig,
    SlopeSignal,
    noise_sweep,
    result_to_csv,
    run,
    sweep_slopes,
)
from .tuning import (_TABLE_K1, TuningRequest, _ceil_one_decimal, generate_table1,
                     table1_csv, tune)
from . import __version__

EXIT_OK = 0
EXIT_USAGE = 2
EXIT_NUMERICAL = 3
EXIT_INFEASIBLE = 4

_SQRT8 = math.sqrt(8.0)


class _UsageError(Exception):
    pass


# ---------------------------------------------------------------------------
# argument parsing

def _float_list(text: str) -> list[float]:
    try:
        vals = [float(p) for p in text.split(",") if p.strip()]
    except ValueError as exc:
        raise argparse.ArgumentTypeError(f"bad float list {text!r}") from exc
    if not vals:
        raise argparse.ArgumentTypeError("empty float list")
    return vals


def _build_parser() -> argparse.ArgumentParser:
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--out", metavar="DIR", default=None,
                        help="write outputs under DIR instead of stdout")
    common.add_argument("--seed", type=int, default=0,
                        help="base RNG seed (default 0)")
    common.add_argument("--format", choices=("csv", "json"), default=None,
                        help="output format where both make sense")
    common.add_argument("--config", metavar="FILE", default=None,
                        help="JSON file of option defaults (flags still win)")

    custom = argparse.ArgumentParser(add_help=False)
    custom.add_argument("--dgf", default=None,
                        help="built-in generating function name "
                             f"({', '.join(builtin_names())})")
    custom.add_argument("--phi", default=None, metavar="EXPR",
                        help="custom generating function phi(x)")
    custom.add_argument("--phi-prime", default=None, metavar="EXPR",
                        help="derivative of --phi (required with --phi)")
    custom.add_argument("--phi-second", default=None, metavar="EXPR",
                        help="second derivative of --phi (required with --phi)")
    custom.add_argument("--inverse", default=None, metavar="EXPR",
                        help="closed-form inverse of --phi (optional)")

    # allow_abbrev everywhere off so the config machinery can tell, by a
    # literal token scan, which options were given on the command line
    parser = argparse.ArgumentParser(
        prog="ftdiff",
        description="fixed-time differentiator toolbox",
        allow_abbrev=False,
    )
    parser.add_argument("--version", action="version",
                        version=f"%(prog)s {__version__}")
    parser.add_argument("-v", "--verbose", action="store_true",
                        help="send the ftdiff logger's DEBUG records (the work "
                             "counts of worst-case searches) to stderr")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("check", parents=[common, custom], allow_abbrev=False,
                       help="admissibility report for a generating function")
    p.set_defaults(func=cmd_check)

    p = sub.add_parser("tune", parents=[common, custom], allow_abbrev=False,
                       help="prescribed-time gain selection")
    # required, but enforced after --config merging so a config can supply it
    p.add_argument("--T", type=float, default=None,
                   help="prescribed convergence time (required)")
    p.add_argument("--L", type=float, default=0.0,
                   help="Lipschitz constant of the derivative (default 0)")
    p.add_argument("--gamma", type=float, default=None,
                   help="tradeoff parameter (> L; default 4.5*max(L,1))")
    p.add_argument("--k1-tilde", type=float, default=_SQRT8,
                   help="normalized first gain (default sqrt(8))")
    p.add_argument("--t-tilde", type=float, default=None,
                   help="override the normalized time bound")
    p.set_defaults(func=cmd_tune)

    p = sub.add_parser("table1", parents=[common], allow_abbrev=False,
                       help="normalized convergence-time bound table")
    p.set_defaults(func=cmd_table1)

    p = sub.add_parser("convtime", parents=[common, custom], allow_abbrev=False,
                       help="convergence time from a point, or global bounds")
    p.add_argument("--k1", type=float, default=None)
    p.add_argument("--k2", type=float, default=None)
    p.add_argument("--k3", type=float, default=None)
    p.add_argument("--x1", type=float, default=None,
                   help="initial error x1 (pointwise mode)")
    p.add_argument("--x2", type=float, default=None,
                   help="initial error x2 (pointwise mode)")
    p.add_argument("--global", dest="global_mode", action="store_true",
                   help="worst-case supremum over initial conditions")
    p.add_argument("--L", type=float, default=None,
                   help="perturbation Lipschitz constant (pointwise mode)")
    p.add_argument("--grid-points", type=int, default=256,
                   help="search grid resolution for --global (default 256)")
    p.set_defaults(func=cmd_convtime)

    p = sub.add_parser("sim", parents=[common, custom], allow_abbrev=False,
                       help="simulate the differentiator")
    p.add_argument("--preset", choices=("fig1", "fig2", "fig3"), default=None,
                   help="canned experiment (signal, gains, sweep)")
    p.add_argument("--Ts", type=float, default=None, help="sample period")
    p.add_argument("--horizon", type=float, default=None,
                   help="simulated duration in seconds")
    p.add_argument("--T", type=float, default=None,
                   help="prescribed time for gain tuning (default 1)")
    p.add_argument("--L", type=float, default=None,
                   help="Lipschitz constant for gain tuning (default 1)")
    p.add_argument("--gamma", type=float, default=None,
                   help="tradeoff parameter for gain tuning")
    p.add_argument("--k1", type=float, default=None,
                   help="gain k1 (with --k2/--k3 bypasses tuning)")
    p.add_argument("--k2", type=float, default=None)
    p.add_argument("--k3", type=float, default=None)
    p.add_argument("--signal", choices=("fig1", "slope"), default=None,
                   help="input signal for a single run")
    p.add_argument("--omega", type=float, default=1.0,
                   help="frequency of the slope signal (default 1)")
    p.add_argument("--c", type=float, default=0.0,
                   help="ramp slope of the slope signal (default 0)")
    p.add_argument("--noise-amplitude", type=float, default=None,
                   help="uniform measurement-noise amplitude")
    p.add_argument("--amplitudes", type=_float_list, default=None,
                   help="comma-separated noise amplitudes (fig2 sweep)")
    p.add_argument("--slopes", type=_float_list, default=None,
                   help="comma-separated ramp slopes (fig3 sweep)")
    p.add_argument("--y10", type=float, default=None, help="initial estimate y1")
    p.add_argument("--y20", type=float, default=None, help="initial estimate y2")
    p.add_argument("--tol-x1", type=float, default=None,
                   help="convergence tolerance on x1")
    p.add_argument("--tol-x2", type=float, default=None,
                   help="convergence tolerance on x2")
    p.set_defaults(func=cmd_sim)

    return parser


def _apply_config(parser: argparse.ArgumentParser,
                  argv: Sequence[str]) -> argparse.Namespace:
    """Parse, then fill from --config; flags given on the command line win.

    Applied post-parse because argparse's subcommand dispatch rebuilds the
    namespace from subparser defaults, which would silently discard any
    defaults seeded before parsing.
    """
    args = parser.parse_args(argv)
    if args.config is None:
        return args
    path = Path(args.config)
    if not path.is_file():
        raise _UsageError(f"config file not found: {path}")
    try:
        data = json.loads(path.read_text())
    except json.JSONDecodeError as exc:
        raise _UsageError(f"config file {path}: {exc}") from exc
    if not isinstance(data, dict):
        raise _UsageError(f"config file {path}: expected a JSON object")

    explicit = {tok.split("=", 1)[0][2:].replace("-", "_")
                for tok in argv if tok.startswith("--")}
    for key, value in data.items():
        dest = key.replace("-", "_")
        if dest in ("config", "command", "func", "verbose"):
            raise _UsageError(f"config file {path}: key {key!r} not allowed")
        if not hasattr(args, dest):
            raise _UsageError(
                f"config file {path}: unknown option {key!r} for "
                f"command {args.command!r}")
        if dest in explicit:
            continue
        if dest in ("amplitudes", "slopes"):
            if isinstance(value, str):
                value = _float_list(value)
            elif isinstance(value, list):
                value = [float(v) for v in value]
        setattr(args, dest, value)
    return args


# ---------------------------------------------------------------------------
# generating-function resolution

def resolve_dgf(args: argparse.Namespace, default: str = "ured") -> GeneratingFunction:
    custom_flags = (args.phi, args.phi_prime, args.phi_second, args.inverse)
    if any(f is not None for f in custom_flags):
        if args.phi is None or args.phi_prime is None or args.phi_second is None:
            raise _UsageError(
                "custom generating function requires --phi, --phi-prime and "
                "--phi-second together (--inverse is optional)")
        inverse = None
        if args.inverse is not None:
            inverse = compile_expression(args.inverse)
        return GeneratingFunction(
            name="custom",
            phi=compile_expression(args.phi),
            phi_prime=compile_expression(args.phi_prime),
            phi_second=compile_expression(args.phi_second),
            inverse=inverse,
            claimed_constants=None,
        )
    name = args.dgf if args.dgf is not None else default
    try:
        return builtin_dgf(name)
    except KeyError:
        raise _UsageError(
            f"unknown generating function {name!r}; "
            f"built-ins are {', '.join(builtin_names())}") from None


def _constants_for(dgf: GeneratingFunction) -> AdmissibilityConstants:
    if dgf.claimed_constants is not None:
        return dgf.claimed_constants
    return compute_admissibility(dgf)


# ---------------------------------------------------------------------------
# output plumbing

def _manifest(args: argparse.Namespace, resolved: dict) -> dict:
    return {
        "command": args.command,
        "config": resolved,
        "version": __version__,
        "seed": getattr(args, "seed", 0),
        "rng": RNG_ALGORITHM,
    }


def _out_dir(args: argparse.Namespace) -> Path | None:
    if args.out is None:
        return None
    path = Path(args.out)
    path.mkdir(parents=True, exist_ok=True)
    return path


def _write_side_manifest(directory: Path, stem: str, manifest: dict) -> None:
    side = dict(manifest)
    side["created"] = datetime.datetime.now(datetime.timezone.utc).isoformat()
    (directory / f"{stem}.manifest.json").write_text(
        json.dumps(side, indent=2, sort_keys=True) + "\n")


def _emit_json(args: argparse.Namespace, stem: str, payload: dict,
               manifest: dict) -> None:
    document = {"manifest": manifest}
    document.update(payload)
    text = json.dumps(document, indent=2, sort_keys=True) + "\n"
    directory = _out_dir(args)
    if directory is None:
        sys.stdout.write(text)
    else:
        (directory / f"{stem}.json").write_text(text)
        print(f"wrote {directory / (stem + '.json')}")


def _emit_csv(args: argparse.Namespace, stem: str, text: str,
              manifest: dict, plot_script: str | None = None) -> None:
    directory = _out_dir(args)
    if directory is None:
        sys.stdout.write(text)
        return
    (directory / f"{stem}.csv").write_text(text)
    _write_side_manifest(directory, stem, manifest)
    if plot_script is not None:
        (directory / f"{stem}_plot.py").write_text(plot_script)
    print(f"wrote {directory / (stem + '.csv')}")


# ---------------------------------------------------------------------------
# check

def cmd_check(args: argparse.Namespace) -> int:
    dgf = resolve_dgf(args)
    report = check_dgf(dgf)

    constants: AdmissibilityConstants | None = None
    failure: str | None = None
    if report.passed:
        try:
            constants = compute_admissibility(dgf)
        except NotAdmissibleError as exc:
            failure = str(exc)
    else:
        bad = ", ".join(f"({item.index}) {item.title}"
                        for item in report.items if not item.passed)
        failure = f"generating-function checks failed: {bad}"

    if args.format == "json":
        payload = {
            "name": dgf.name,
            "checks": [{"index": it.index, "title": it.title,
                        "passed": it.passed, "detail": it.detail}
                       for it in report.items],
            "admissible": constants is not None,
            "reason": failure,
            "constants": None if constants is None else {
                "B": constants.B, "C": constants.C, "D": constants.D,
            },
        }
        _emit_json(args, "check", payload, _manifest(args, {"dgf": dgf.name}))
        return EXIT_OK

    lines = [f"generating function: {dgf.name}"]
    for item in report.items:
        status = "pass" if item.passed else "FAIL"
        lines.append(f"  ({item.index}) {item.title}: {status}" +
                     (f"  [{item.detail}]" if item.detail else ""))
    if constants is not None:
        lines.append("admissible: yes")
        lines.append(f"  B = {constants.B!r}")
        lines.append(f"  C = {constants.C!r}")
        lines.append(f"  D = {constants.D!r}")
    elif failure is not None and failure.startswith("not admissible"):
        lines.append(failure)
    else:
        lines.append(f"not admissible: {failure}")
    print("\n".join(lines))
    return EXIT_OK


# ---------------------------------------------------------------------------
# tune

def _resolve_ttilde(k1_tilde: float, constants: AdmissibilityConstants,
                    override: float | None) -> float:
    if override is not None:
        return override
    raw = upper_bound_ttilde(constants, ParamTriple(k1_tilde, 1.0, 1.0))
    # a tabulated k1-tilde gets its published one-decimal value, so preset
    # gains reproduce it exactly; the ceiling keeps the guarantee valid
    if any(math.isclose(k1_tilde, k, rel_tol=1e-9) for k in _TABLE_K1):
        return _ceil_one_decimal(raw)
    return raw


def cmd_tune(args: argparse.Namespace) -> int:
    if args.T is None:
        raise _UsageError("tune needs --T (flag or config file)")
    dgf = resolve_dgf(args)
    constants = _constants_for(dgf)
    try:
        ttilde = _resolve_ttilde(args.k1_tilde, constants, args.t_tilde)
    except BoundNotApplicableError as exc:
        # below sqrt(8) the normalized family is not admissible anyway
        raise _UsageError(
            f"k1-tilde {args.k1_tilde:g} is too small for the normalized "
            "gain family (needs k1_tilde >= sqrt(8))") from exc
    request = TuningRequest(
        dgf_id=dgf.name,
        normalized_triple=ParamTriple(args.k1_tilde, 1.0, 1.0),
        ttilde=ttilde,
        T=args.T,
        L=args.L,
        gamma=args.gamma,
    )
    result = tune(request, constants=constants)
    payload = {
        "dgf": dgf.name,
        "kappa": {"k1": result.kappa.k1, "k2": result.kappa.k2,
                  "k3": result.kappa.k3},
        "t_tilde": ttilde,
        "gamma": request.resolved_gamma,
        "guaranteed_bound": result.guaranteed_bound,
        "lbar_scaled": result.lbar_scaled,
        "tightness_ratio_bound": result.tightness_ratio_bound,
    }
    resolved = {"dgf": dgf.name, "T": args.T, "L": args.L,
                "gamma": request.resolved_gamma, "k1_tilde": args.k1_tilde,
                "t_tilde": ttilde}
    _emit_json(args, "tune", payload, _manifest(args, resolved))
    return EXIT_OK


# ---------------------------------------------------------------------------
# table1

def cmd_table1(args: argparse.Namespace) -> int:
    rows = generate_table1()
    manifest = _manifest(args, {})
    if args.format == "json":
        payload = {"rows": [
            {"dgf": r.dgf_id, "k1_tilde": r.k1_tilde,
             "t_tilde_raw": r.t_tilde_raw, "t_tilde_rounded": r.t_tilde_rounded}
            for r in rows
        ]}
        _emit_json(args, "table1", payload, manifest)
        return EXIT_OK
    _emit_csv(args, "table1", table1_csv(rows), manifest)
    return EXIT_OK


# ---------------------------------------------------------------------------
# convtime

def cmd_convtime(args: argparse.Namespace) -> int:
    if args.k1 is None or args.k2 is None or args.k3 is None:
        raise _UsageError("convtime needs --k1, --k2 and --k3 "
                          "(flags or config file)")
    dgf = resolve_dgf(args)
    kappa = ParamTriple(args.k1, args.k2, args.k3)

    if args.global_mode:
        constants = _constants_for(dgf)
        note = None
        try:
            lower = lower_bound(constants, kappa)
            upper = upper_bound_ttilde(constants, kappa)
        except BoundNotApplicableError:
            lower = upper = None
            note = "analytic bounds not applicable (k1^2 < 8 k2)"
        numeric = global_convtime_numeric(dgf, kappa,
                                          grid_points=args.grid_points)
        payload = {
            "dgf": dgf.name,
            "kappa": {"k1": kappa.k1, "k2": kappa.k2, "k3": kappa.k3},
            "lower_bound": lower,
            "numeric_supremum": numeric.value,
            "upper_bound": upper,
            "search": numeric.search,
            "argmax": None if math.isinf(numeric.argmax) else numeric.argmax,
            "note": note,
        }
        resolved = {"dgf": dgf.name, "k1": kappa.k1, "k2": kappa.k2,
                    "k3": kappa.k3, "global": True,
                    "grid_points": args.grid_points}
        _emit_json(args, "convtime", payload, _manifest(args, resolved))
        return EXIT_OK

    if args.x1 is None or args.x2 is None:
        raise _UsageError("pointwise mode needs --x1 and --x2 "
                          "(or pass --global)")
    t0 = t0_exact(dgf, kappa, (args.x1, args.x2))
    payload = {
        "dgf": dgf.name,
        "kappa": {"k1": kappa.k1, "k2": kappa.k2, "k3": kappa.k3},
        "x0": [args.x1, args.x2],
        "t0": t0,
    }
    resolved = {"dgf": dgf.name, "k1": kappa.k1, "k2": kappa.k2,
                "k3": kappa.k3, "x1": args.x1, "x2": args.x2}
    if args.L is not None:
        constants = _constants_for(dgf)
        lbar_value = lbar(kappa.k1, kappa.k2, constants.D)
        if args.L >= lbar_value:
            print("not guaranteed: L exceeds Lbar", file=sys.stderr)
            return EXIT_INFEASIBLE
        payload["L"] = args.L
        payload["lbar"] = lbar_value
        payload["perturbed_bound"] = t_perturbed_bound(t0, args.L, lbar_value)
        resolved["L"] = args.L
    _emit_json(args, "convtime", payload, _manifest(args, resolved))
    return EXIT_OK


# ---------------------------------------------------------------------------
# sim

_FIG1_PLOT = """\
#!/usr/bin/env python3
\"\"\"Plot differentiation errors from fig1.csv (same directory).\"\"\"
import csv
from pathlib import Path

import matplotlib.pyplot as plt

rows = list(csv.DictReader(open(Path(__file__).with_name("fig1.csv"))))
t = [float(r["t"]) for r in rows]
x1 = [float(r["x1"]) for r in rows]
x2 = [float(r["x2"]) for r in rows]

fig, ax = plt.subplots(2, 1, sharex=True, figsize=(7, 5))
ax[0].plot(t, x1)
ax[0].set_ylabel("x1 = f - y1")
ax[1].plot(t, x2)
ax[1].set_ylabel("x2 = f' - y2")
ax[1].set_xlabel("t [s]")
for a in ax:
    a.grid(True, alpha=0.3)
fig.tight_layout()
fig.savefig(Path(__file__).with_name("fig1.png"), dpi=150)
print("wrote fig1.png")
"""

_FIG2_PLOT = """\
#!/usr/bin/env python3
\"\"\"Plot steady-state error vs noise amplitude from fig2.csv.\"\"\"
import csv
from pathlib import Path

import matplotlib.pyplot as plt

rows = list(csv.DictReader(open(Path(__file__).with_name("fig2.csv"))))
amp = [float(r["amplitude"]) for r in rows]
fixed = [float(r["steady_err_fixed"]) for r in rows]
sta = [float(r["steady_err_sta"]) for r in rows]

fig, ax = plt.subplots(figsize=(7, 5))
ax.loglog(amp, fixed, "o-", label="fixed-time")
ax.loglog(amp, sta, "s-", label="super-twisting")
ax.set_xlabel("noise amplitude")
ax.set_ylabel("sup |x2| on steady window")
ax.grid(True, which="both", alpha=0.3)
ax.legend()
fig.tight_layout()
fig.savefig(Path(__file__).with_name("fig2.png"), dpi=150)
print("wrote fig2.png")
"""

_FIG3_PLOT = """\
#!/usr/bin/env python3
\"\"\"Plot convergence time vs ramp slope from fig3.csv.\"\"\"
import csv
from pathlib import Path

import matplotlib.pyplot as plt

rows = list(csv.DictReader(open(Path(__file__).with_name("fig3.csv"))))
c = [float(r["c"]) for r in rows]
tau = [float(r["tau"]) if r["tau"] else None for r in rows]

fig, ax = plt.subplots(figsize=(7, 5))
ok = [(ci, ti) for ci, ti in zip(c, tau) if ti is not None]
ax.plot([p[0] for p in ok], [p[1] for p in ok], "o-")
ax.axhline(1.0, color="k", ls="--", alpha=0.5, label="prescribed T = 1")
ax.set_xlabel("ramp slope c")
ax.set_ylabel("detected convergence time [s]")
ax.grid(True, alpha=0.3)
ax.legend()
fig.tight_layout()
fig.savefig(Path(__file__).with_name("fig3.png"), dpi=150)
print("wrote fig3.png")
"""


def _tuned_kappa(args: argparse.Namespace, dgf: GeneratingFunction) -> ParamTriple:
    if args.k1 is not None or args.k2 is not None or args.k3 is not None:
        if args.k1 is None or args.k2 is None or args.k3 is None:
            raise _UsageError("--k1, --k2 and --k3 must be given together")
        return ParamTriple(args.k1, args.k2, args.k3)
    constants = _constants_for(dgf)
    T = args.T if args.T is not None else 1.0
    L = args.L if args.L is not None else 1.0
    ttilde = _resolve_ttilde(_SQRT8, constants, None)
    request = TuningRequest(
        dgf_id=dgf.name,
        normalized_triple=ParamTriple(_SQRT8, 1.0, 1.0),
        ttilde=ttilde,
        T=T,
        L=L,
        gamma=args.gamma,
    )
    return tune(request, constants=constants).kappa


def _sim_config(args: argparse.Namespace) -> SimConfig:
    amp = args.noise_amplitude
    kwargs: dict = {
        "Ts": 1e-4 if args.Ts is None else args.Ts,
        "horizon": 4.0 if args.horizon is None else args.horizon,
        "noise": None if not amp else NoiseSpec(amp),
        "seed": args.seed,
    }
    if args.tol_x1 is not None:
        kwargs["conv_tol_x1"] = args.tol_x1
    if args.tol_x2 is not None:
        kwargs["conv_tol_x2"] = args.tol_x2
    return SimConfig(**kwargs)


def _run_single(args: argparse.Namespace, stem: str, dgf: GeneratingFunction,
                kappa: ParamTriple, signal, config: SimConfig,
                init: DifferentiatorState, plot: str | None) -> int:
    result = run(dgf, kappa, signal, config, init=init,
                 raise_on_divergence=False)
    manifest = _manifest(args, {
        "dgf": dgf.name,
        "kappa": [kappa.k1, kappa.k2, kappa.k3],
        "signal": signal.describe(),
        "Ts": config.Ts,
        "horizon": config.horizon,
        "noise_amplitude": 0.0 if config.noise is None else config.noise.amplitude,
        "init": [init.y1, init.y2],
        "tau": result.tau,
        "steady_error": result.steady_error,
        "diverged": result.diverged,
    })
    _emit_csv(args, stem, result_to_csv(result), manifest, plot_script=plot)
    tau_text = "none" if result.tau is None else f"{result.tau:.6g}"
    print(f"tau = {tau_text}; steady_error = {result.steady_error:.6g}"
          + ("; DIVERGED" if result.diverged else ""),
          file=sys.stderr)
    if result.diverged:
        print("simulation diverged", file=sys.stderr)
        return EXIT_NUMERICAL
    return EXIT_OK


def cmd_sim(args: argparse.Namespace) -> int:
    preset = args.preset

    if preset == "fig2":
        dgf_fixed = resolve_dgf(args)
        dgf_sta = builtin_dgf("sqrt")
        kappa = _tuned_kappa(args, dgf_fixed)
        # Classic STA comparison uses the same k1, k2; k3 is inert for sqrt.
        kappa_sta = ParamTriple(kappa.k1, kappa.k2, 1.0)
        config = _sim_config(args)
        if args.amplitudes is not None:
            amplitudes = list(args.amplitudes)
        else:
            amplitudes = [0.0] + list(np.logspace(-8.0, 0.0, 17))
        rows = noise_sweep(dgf_fixed, dgf_sta, (kappa, kappa_sta),
                           amplitudes, config)
        lines = ["amplitude,steady_err_fixed,steady_err_sta,"
                 "diverged_fixed,diverged_sta"]
        for row in rows:
            lines.append(f"{row.amplitude:.10g},{row.steady_err_fixed:.10g},"
                         f"{row.steady_err_sta:.10g},"
                         f"{int(row.diverged_fixed)},{int(row.diverged_sta)}")
        manifest = _manifest(args, {
            "dgf_fixed": dgf_fixed.name, "dgf_sta": dgf_sta.name,
            "kappa": [kappa.k1, kappa.k2, kappa.k3],
            "kappa_sta": [kappa_sta.k1, kappa_sta.k2, kappa_sta.k3],
            "Ts": config.Ts, "horizon": config.horizon,
            "amplitudes": amplitudes,
        })
        _emit_csv(args, "fig2", "\n".join(lines) + "\n", manifest,
                  plot_script=_FIG2_PLOT)
        if all(r.diverged_fixed and r.diverged_sta for r in rows):
            print("all sweep rows diverged", file=sys.stderr)
            return EXIT_NUMERICAL
        return EXIT_OK

    if preset == "fig3":
        dgf = resolve_dgf(args)
        kappa = _tuned_kappa(args, dgf)
        config = _sim_config(args)
        slopes = (list(args.slopes) if args.slopes is not None
                  else list(np.linspace(-5.0, 5.0, 21)))
        rows = sweep_slopes(dgf, kappa, args.omega, slopes, config)
        lines = ["c,tau,diverged"]
        for row in rows:
            tau_text = "" if row.tau is None else f"{row.tau:.10g}"
            lines.append(f"{row.c:.10g},{tau_text},{int(row.diverged)}")
        manifest = _manifest(args, {
            "dgf": dgf.name, "kappa": [kappa.k1, kappa.k2, kappa.k3],
            "omega": args.omega, "slopes": slopes,
            "Ts": config.Ts, "horizon": config.horizon,
        })
        _emit_csv(args, "fig3", "\n".join(lines) + "\n", manifest,
                  plot_script=_FIG3_PLOT)
        if all(r.diverged for r in rows):
            print("all sweep rows diverged", file=sys.stderr)
            return EXIT_NUMERICAL
        return EXIT_OK

    # fig1 preset, or a fully custom single run
    dgf = resolve_dgf(args)
    kappa = _tuned_kappa(args, dgf)
    if preset == "fig1":
        signal = Fig1Signal()
        stem, plot = "fig1", _FIG1_PLOT
        config = _sim_config(args)
    else:
        if args.signal is None:
            raise _UsageError("custom sim needs --signal (or use --preset)")
        signal = (Fig1Signal() if args.signal == "fig1"
                  else SlopeSignal(args.omega, args.c))
        stem, plot = "sim", None
        config = _sim_config(args)
    y10 = args.y10 if args.y10 is not None else 0.0
    y20 = args.y20 if args.y20 is not None else 0.0
    init = DifferentiatorState(y10, y20)
    return _run_single(args, stem, dgf, kappa, signal, config, init, plot)


# ---------------------------------------------------------------------------
# entry point

def main(argv: Sequence[str] | None = None) -> int:
    if argv is None:
        argv = sys.argv[1:]
    parser = _build_parser()
    try:
        try:
            args = _apply_config(parser, argv)
        except SystemExit as exc:  # argparse already printed the message
            return EXIT_USAGE if exc.code not in (0, None) else EXIT_OK
        if not args.verbose:
            return args.func(args)
        import logging  # only here: importing the CLI need not load logging

        log = logging.getLogger("ftdiff")
        handler = logging.StreamHandler(sys.stderr)
        handler.setFormatter(logging.Formatter("%(name)s: %(message)s"))
        level = log.level
        log.addHandler(handler)
        log.setLevel(logging.DEBUG)
        try:
            return args.func(args)
        finally:
            log.removeHandler(handler)
            log.setLevel(level)
    except _UsageError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except ExpressionError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except InfeasibleError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INFEASIBLE
    except (QuadratureError, InversionRangeError, SimulationDivergedError,
            NotAdmissibleError, BoundNotApplicableError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_NUMERICAL
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE


if __name__ == "__main__":
    sys.exit(main())
