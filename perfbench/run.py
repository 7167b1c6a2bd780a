#!/usr/bin/env python3
"""Benchmark for ftdiff: runs one workload and prints one JSON result line.

Run from the root of a checkout (the directory holding ``src/ftdiff``):

    python3 perfbench/run.py --workload pointwise --seed 1 --seconds 20 --trace 0

Workloads are ``pointwise``, ``worstcase`` and ``simulate`` (see
``perfbench/README.md``). A run sets up, runs one untimed warm-up pass whose
outputs are checked against independent computations, then runs timed
passes until ``--seconds`` have elapsed, collecting garbage between passes;
every timed pass must repeat the warm-up outputs exactly. With ``--trace 0``
it reports the end-to-end metrics; with ``--trace 1`` it spends half the
time on untimed-by-tracer passes and half on traced passes, and reports the
per-layer metrics. Set-up is timed in fresh interpreters, several times,
and reported as the median. Scratch output and span files go under
``.perfbench/`` in the checkout.

The last line of standard output is
``{"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}``.
"""
from __future__ import annotations

import argparse
import gc
import json
import resource
import statistics
import subprocess
import sys
from pathlib import Path
from time import perf_counter

HERE = Path(__file__).resolve().parent
SETUP_PROBES = 9

END_TO_END = {"setup_s": "s", "job_s": "s", "op_p50_ms": "ms", "peak_rss_mb": "MB"}

PER_LAYER = {
    "setup.import_s": "s",
    "cli.calls": "count",
    "cli.self_s": "s",
    "tuning.tune.calls": "count",
    "tuning.tune_s": "s",
    "sim.run.calls": "count",
    "sim.steps": "count",
    "sim.run_s": "s",
    "sim.msteps_per_s": "Msteps/s",
    "sim.sweep.calls": "count",
    "sim.sweep_rows": "count",
    "sim.sweep_s": "s",
    "sim.export.calls": "count",
    "sim.export_rows": "count",
    "sim.export_s": "s",
    "convtime.t0.calls": "count",
    "convtime.t0_s": "s",
    "convtime.global.calls": "count",
    "convtime.global_s": "s",
    "convtime.bounds_s": "s",
    "quad.simpson.calls": "count",
    "quad.simpson.evals": "count",
    "quad.simpson_self_s": "s",
    "quad.evals_per_t0": "count",
    "quad.evals_per_search": "count",
    "quad.golden.calls": "count",
    "quad.golden.probes": "count",
    "quad.reciprocal.calls": "count",
    "quad.reciprocal_s": "s",
    "dgf.phi.evals": "count",
    "dgf.phi_prime.evals": "count",
    "dgf.inverse.evals": "count",
    "dgf.eval_s": "s",
    "dgf.invert_phi.calls": "count",
    "dgf.invert_phi_s": "s",
    "dgf.admissibility.calls": "count",
    "dgf.admissibility_s": "s",
    "expr.evals": "count",
    "expr.eval_s": "s",
    "expr.compile_s": "s",
    "trace.overhead": "ratio",
}


def _source_dir(root: Path) -> Path:
    src = root / "src"
    if not (src / "ftdiff" / "__init__.py").is_file():
        sys.exit(f"error: {src / 'ftdiff'} not found; run from the root of an ftdiff checkout")
    return src


def setup_probe(workload: str, seed: int, scratch: Path) -> None:
    """Time set-up in this (fresh) interpreter: import, inputs, lazy caches."""
    t0 = perf_counter()
    import ftdiff.cli  # noqa: F401  (numpy included)

    t1 = perf_counter()
    import workloads  # the harness itself is not set-up a user pays

    t2 = perf_counter()
    wl = workloads.WORKLOADS[workload](scratch)
    wl.setup(seed)
    wl.prime()
    t3 = perf_counter()
    print(json.dumps({"import_s": t1 - t0, "setup_s": (t1 - t0) + (t3 - t2)}))


def measure_setup(workload: str, seed: int, root: Path) -> list[dict]:
    samples = []
    for _ in range(SETUP_PROBES):
        proc = subprocess.run(
            [sys.executable, str(Path(__file__).resolve()), "--setup-probe",
             "--workload", workload, "--seed", str(seed)],
            cwd=root, capture_output=True, text=True, timeout=120, check=True)
        samples.append(json.loads(proc.stdout.strip().splitlines()[-1]))
    return samples


class Passes:
    """Timed passes over a workload's operations, checked against a baseline pass."""

    def __init__(self, wl) -> None:
        self.wl = wl
        self.pass_s: list[float] = []
        self.op_s: list[float] = []
        self.attempted = 0
        self.failed = 0
        self.errors: list[str] = []  # failed checks
        self.failures: list[str] = []  # operations that raised
        self.baseline: list = []

    def _one_pass(self) -> tuple[float, list[float], list]:
        wl = self.wl
        times, raws = [], []
        start = perf_counter()
        for op in wl.ops:
            t = perf_counter()
            try:
                raw = wl.run_op(op)
            except Exception as exc:  # counted as a failed operation
                raw = exc
            times.append(perf_counter() - t)
            raws.append(raw)
        return perf_counter() - start, times, raws

    def _outputs(self, raws: list) -> tuple[list, int]:
        outs, failed = [], 0
        for op, raw in zip(self.wl.ops, raws):
            if isinstance(raw, Exception):
                failed += 1
                outs.append(None)
                self.failures.append(f"{op}: {type(raw).__name__}: {raw}")
            else:
                outs.append(self.wl.collect(op, raw))
        return outs, failed

    def warm_up(self) -> None:
        """Untimed first pass: fills lazy caches and is checked in full."""
        _, _, raws = self._one_pass()
        outs, failed = self._outputs(raws)
        good = [(op, o) for op, o in zip(self.wl.ops, outs) if o is not None]
        try:
            self.errors += self.wl.verify([g[0] for g in good], [g[1] for g in good])
        except Exception as exc:  # a malformed output is a failed check
            self.errors.append(f"verify: {type(exc).__name__}: {exc}")
        self.baseline = [None if o is None else self.wl.fingerprint(o) for o in outs]

    def run(self, seconds: float) -> None:
        start = perf_counter()
        while True:
            gc.collect()
            pass_s, times, raws = self._one_pass()
            outs, failed = self._outputs(raws)
            for op, out, want in zip(self.wl.ops, outs, self.baseline):
                if out is not None and self.wl.fingerprint(out) != want:
                    self.errors.append(f"{op}: output differs from the warm-up pass")
            self.pass_s.append(pass_s)
            self.op_s.extend(times)
            self.attempted += len(times)
            self.failed += failed
            if perf_counter() - start >= seconds:
                return


def main(argv: list[str] | None = None) -> int:
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True, choices=("pointwise", "worstcase", "simulate"))
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, default=20.0)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--setup-probe", action="store_true", help=argparse.SUPPRESS)
    args = p.parse_args(argv)

    root = Path.cwd()
    sys.path.insert(0, str(_source_dir(root)))
    sys.path.insert(0, str(HERE))
    scratch = root / ".perfbench"
    if args.setup_probe:
        setup_probe(args.workload, args.seed, scratch)
        return 0

    probes = measure_setup(args.workload, args.seed, root)

    import workloads
    from tracer import Tracer, layer_metrics

    wl = workloads.WORKLOADS[args.workload](scratch)
    wl.setup(args.seed)
    passes = Passes(wl)
    passes.warm_up()

    if args.trace == 0:
        passes.run(args.seconds)
        values = {
            "setup_s": statistics.median(s["setup_s"] for s in probes),
            "job_s": statistics.median(passes.pass_s),
            "op_p50_ms": statistics.median(passes.op_s) * 1e3,
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        }
        units = END_TO_END
        result = passes
    else:
        passes.run(args.seconds / 2.0)
        tracer = Tracer()
        tracer.install()
        try:
            # set up again, so that set-up is traced and the workload's own
            # generating functions are wrapped
            wl.setup(args.seed, wrap_dgf=tracer.wrap_dgf)
            traced = Passes(wl)
            traced.baseline = passes.baseline
            traced.run(args.seconds / 2.0)
        finally:
            tracer.uninstall()
        tracer.write_spans(scratch / "trace" / f"{args.workload}-seed{args.seed}.jsonl")
        values = layer_metrics(tracer)
        values["setup.import_s"] = statistics.median(s["import_s"] for s in probes)
        values["trace.overhead"] = statistics.median(traced.pass_s) / statistics.median(passes.pass_s)
        units = PER_LAYER
        traced.errors = passes.errors + traced.errors
        result = traced

    print(f"{args.workload}: {len(result.pass_s)} passes, "
          f"pass seconds {[round(x, 3) for x in result.pass_s]}", file=sys.stderr)
    for line in result.failures[:20]:
        print(f"operation failed: {line}", file=sys.stderr)
    for line in result.errors[:20]:
        print(f"check failed: {line}", file=sys.stderr)
    print(json.dumps({
        "correct": not result.errors,
        "attempted": result.attempted,
        "failed": result.failed,
        "metrics": {name: {"value": values[name], "unit": unit} for name, unit in units.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
