#!/usr/bin/env python3
"""Reference figures quoted in perfbench/README.md. Not part of a benchmark run.

Run from the root of a checkout (about two minutes):

    python3 perfbench/figures.py

Prints, as JSON lines: the machine; the wall time of each CLI subcommand in
a fresh interpreter (median of 3); serial ``run`` per row against
``sweep_slopes`` for the 21-row fig3 grid (median of 5, alternating); and
the share of ``sim --preset fig1`` spent in ``result_to_csv``, untraced and
from the tracer.
"""
from __future__ import annotations

import contextlib
import io
import json
import os
import platform
import statistics
import subprocess
import sys
from pathlib import Path
from time import perf_counter

HERE = Path(__file__).resolve().parent
ROOT = Path.cwd()
sys.path.insert(0, str(ROOT / "src"))
sys.path.insert(0, str(HERE))
OUT = ROOT / ".perfbench" / "figures"

CLI = {
    "check": ["check"],
    "tune": ["tune", "--T", "1", "--L", "1", "--gamma", "4.5"],
    "table1": ["table1"],
    "convtime pointwise": ["convtime", "--k1", "6", "--k2", "4.5", "--k3", "4.182",
                           "--x1", "0.3", "--x2", "-0.7"],
    "convtime --global real (5,1,1)": ["convtime", "--k1", "5", "--k2", "1", "--k3", "1", "--global"],
    "convtime --global complex (2,1,1)": ["convtime", "--k1", "2", "--k2", "1", "--k3", "1", "--global"],
    "sim fig1": ["sim", "--preset", "fig1", "--out", str(OUT)],
    "sim fig2": ["sim", "--preset", "fig2", "--out", str(OUT)],
    "sim fig3": ["sim", "--preset", "fig3", "--out", str(OUT)],
}


def emit(**fields) -> None:
    print(json.dumps(fields), flush=True)


def cli_baseline() -> None:
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    for name, argv in CLI.items():
        times = []
        for _ in range(3):
            t = perf_counter()
            subprocess.run([sys.executable, "-m", "ftdiff.cli", *argv], env=env, check=True,
                           stdout=subprocess.DEVNULL, stderr=subprocess.DEVNULL)
            times.append(perf_counter() - t)
        emit(figure="cli", command=name, median_s=statistics.median(times), runs_s=times)


def sweep_against_serial() -> None:
    import numpy as np

    import ftdiff
    import reference as ref

    dgf = ftdiff.builtin_dgf("ured")
    kappa = ftdiff.ParamTriple(*ref.tuned_gains("ured"))
    cfg = ftdiff.SimConfig(Ts=1e-4, horizon=4.0)
    slopes = list(np.linspace(-5.0, 5.0, 21))

    def serial():
        return [ftdiff.run(dgf, kappa, ftdiff.SlopeSignal(1.0, c), cfg,
                           ftdiff.DifferentiatorState(0.0, 0.0), raise_on_divergence=False).tau
                for c in slopes]

    def pooled():
        return [row.tau for row in ftdiff.sweep_slopes(dgf, kappa, 1.0, slopes, cfg)]

    got = {"serial": [], "sweep_slopes": []}
    for _ in range(5):
        for name, fn in (("serial", serial), ("sweep_slopes", pooled)):
            t = perf_counter()
            taus = fn()
            got[name].append(perf_counter() - t)
        if serial() != pooled():
            raise SystemExit("serial and pooled sweeps disagree")
    emit(figure="fig3 grid, 21 rows", **{f"{k}_median_s": statistics.median(v) for k, v in got.items()},
         runs_s=got, rows=len(taus))


def fig1_export_share() -> None:
    import ftdiff
    import ftdiff.cli
    import ftdiff.sim
    from tracer import Tracer, layer_metrics

    argv = ["sim", "--preset", "fig1", "--out", str(OUT)]
    whole, export = [], []
    for _ in range(3):
        with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
            t = perf_counter()
            ftdiff.cli.main(argv)
            whole.append(perf_counter() - t)
        res = ftdiff.sim.run(ftdiff.builtin_dgf("ured"), ftdiff.ParamTriple(6.0, 4.5, 4.182),
                             ftdiff.Fig1Signal(), ftdiff.SimConfig(Ts=1e-4, horizon=4.0))
        t = perf_counter()
        ftdiff.sim.result_to_csv(res)
        export.append(perf_counter() - t)
    tracer = Tracer()
    tracer.install()
    try:
        with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
            for _ in range(3):
                ftdiff.cli.main(argv)
    finally:
        tracer.uninstall()
    m = layer_metrics(tracer)
    main_s = tracer.totals()["cli.main"][2]
    emit(figure="sim --preset fig1 in result_to_csv",
         untraced_share=statistics.median(export) / statistics.median(whole),
         untraced_fig1_s=statistics.median(whole), untraced_export_s=statistics.median(export),
         traced_share=m["sim.export_s"] / main_s, traced_export_s=m["sim.export_s"] / 3,
         traced_fig1_s=main_s / 3)


def main() -> None:
    import numpy

    emit(figure="machine", nproc=os.cpu_count(), python=platform.python_version(),
         numpy=numpy.__version__, platform=platform.platform())
    cli_baseline()
    sweep_against_serial()
    fig1_export_share()


if __name__ == "__main__":
    main()
