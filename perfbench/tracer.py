"""In-memory tracer for the benchmark's traced runs.

The tracer replaces public functions of ftdiff's modules with timing
wrappers in every module namespace where callers look them up (a module
that did ``from .convtime import t0_exact`` holds its own reference, so
both ``convtime.t0_exact`` and ``cli.t0_exact`` are replaced). Generating
functions are wrapped through ``dataclasses.replace``, so their phi,
phi_prime, phi_second and inverse callables are timed where the package
calls them. Nothing under ``src/`` changes.

Each wrapped call opens a frame on a per-thread stack. A frame's self time
is its duration minus the time of the frames it encloses. Frames of coarse
calls (subcommands, integrations, searches, simulations) are kept as spans
in memory and written out by ``write_spans``; frames of hot leaf calls
(generating-function evaluations, expression evaluations, closed-form
bounds) are only aggregated per name, so a search with millions of
evaluations does not hold millions of records. A call made in a worker
thread whose own stack is empty gets the innermost open span of the thread
that installed the tracer as its parent; such cross-thread children are
subtracted from the parent's self time by the union of their intervals.

Counts are of evaluated points: an array argument counts its size.
"""
from __future__ import annotations

import dataclasses
import itertools
import json
import threading
from pathlib import Path
from time import perf_counter
from typing import Any, Callable, Optional

# Point counters receive (result, args, kwargs, frame) and return a count.


def _one(result, args, kwargs, frame) -> int:
    return 1


def _size(result, args, kwargs, frame) -> int:
    x = args[0] if args else 0.0
    return int(getattr(x, "size", 1))


def _steps(result, args, kwargs, frame) -> int:
    return int(result.times.size)


def _rows(result, args, kwargs, frame) -> int:
    return len(result)


def _export_rows(result, args, kwargs, frame) -> int:
    return int(args[0].times.size)


def _inner(result, args, kwargs, frame) -> int:
    return frame[_PTS]


_SPAN, _LEAF = True, False

# function name -> (layer metric name, span or leaf, point counter)
TARGETS: dict[str, tuple[str, bool, Callable]] = {
    "main": ("cli.main", _SPAN, _one),
    "tune": ("tuning.tune", _SPAN, _one),
    "run": ("sim.run", _SPAN, _steps),
    "sweep_slopes": ("sim.sweep", _SPAN, _rows),
    "noise_sweep": ("sim.sweep", _SPAN, _rows),
    "result_to_csv": ("sim.export", _SPAN, _export_rows),
    "t0_exact": ("convtime.t0", _SPAN, _one),
    "global_convtime_numeric": ("convtime.global", _SPAN, _one),
    "lbar": ("convtime.bounds", _LEAF, _one),
    "lower_bound": ("convtime.bounds", _LEAF, _one),
    "upper_bound_ttilde": ("convtime.bounds", _LEAF, _one),
    "t_perturbed_bound": ("convtime.bounds", _LEAF, _one),
    "adaptive_simpson": ("quad.simpson", _SPAN, _inner),
    "golden_max": ("quad.golden", _SPAN, _inner),
    "reciprocal_integral": ("quad.reciprocal", _SPAN, _one),
    "compute_admissibility": ("dgf.admissibility", _SPAN, _one),
    "invert_phi": ("dgf.invert_phi", _LEAF, _one),
}

MODULES = ("cli", "tuning", "sim", "convtime", "_quad", "dgf", "expr")

_DGF_FIELDS = ("phi", "phi_prime", "phi_second", "inverse")

# frame layout: [span id (0 for leaves), time of enclosed frames, points]
_ID, _CHILD, _PTS = range(3)


class Tracer:
    """Wraps ftdiff's public functions and records spans and per-name totals."""

    def __init__(self) -> None:
        self._local = threading.local()
        self._ids = itertools.count(1)
        self._per_thread: list[dict[str, list]] = []
        self._patches: list[tuple[Any, str, Any]] = []
        self._dgfs: dict[int, tuple[Any, Any]] = {}
        self._copies: set[int] = set()
        self._main_stack: Optional[list] = None
        # (id, parent id, name, thread id, start, end, same-thread self, points)
        self.spans: list[tuple] = []

    # -- frames -------------------------------------------------------------

    def _thread_state(self) -> tuple[list, dict]:
        loc = self._local
        try:
            return loc.stack, loc.stats
        except AttributeError:
            loc.stack, loc.stats = [], {}
            self._per_thread.append(loc.stats)  # list.append is atomic
            return loc.stack, loc.stats

    def _wrap(self, name: str, span: bool, count: Callable, fn: Callable) -> Callable:
        tracer = self

        def wrapper(*args, **kwargs):
            stack, stats = tracer._thread_state()
            if stack:
                parent = stack[-1][_ID]
            elif tracer._main_stack:
                parent = tracer._main_stack[-1][_ID]
            else:
                parent = 0
            frame = [next(tracer._ids) if span else 0, 0.0, 0]
            if count is _inner:
                args, kwargs = _count_integrand(frame, args, kwargs)
            stack.append(frame)
            t0 = perf_counter()
            points = 0
            try:
                result = fn(*args, **kwargs)
                points = count(result, args, kwargs, frame)
                return result
            finally:
                t1 = perf_counter()
                stack.pop()
                dur = t1 - t0
                if stack:
                    stack[-1][_CHILD] += dur
                entry = stats.get(name)
                if entry is None:
                    entry = stats[name] = [0, 0, 0.0, 0.0]
                entry[0] += 1
                entry[1] += points
                entry[2] += dur
                entry[3] += dur - frame[_CHILD]
                if span:
                    tracer.spans.append((frame[_ID], parent, name, threading.get_ident(),
                                         t0, t1, dur - frame[_CHILD], points))

        wrapper.__wrapped__ = fn
        return wrapper

    # -- installation -------------------------------------------------------

    def install(self) -> None:
        """Wrap every target in every ftdiff module that holds a reference to it."""
        import importlib

        import ftdiff

        mods = [importlib.import_module(f"ftdiff.{m}") for m in MODULES] + [ftdiff]
        self._main_stack = self._thread_state()[0]
        wrapped: dict[int, Callable] = {}
        for mod in mods:
            for attr, (name, span, count) in TARGETS.items():
                fn = mod.__dict__.get(attr)
                if not callable(fn) or getattr(fn, "__module__", "").split(".")[0] != "ftdiff":
                    continue
                if id(fn) not in wrapped:
                    wrapped[id(fn)] = self._wrap(name, span, count, fn)
                self._patch(mod, attr, wrapped[id(fn)])
        for mod in mods:
            fn = mod.__dict__.get("builtin_dgf")
            if fn is not None:
                self._patch(mod, "builtin_dgf", self._returning_wrapped_dgf(fn))
        cli = importlib.import_module("ftdiff.cli")
        self._patch(cli, "resolve_dgf", self._returning_wrapped_dgf(cli.resolve_dgf))
        compile_fn = cli.compile_expression

        def compile_traced(text):
            return self._wrap("expr.eval", _LEAF, _size, compile_fn(text))

        timed_compile = self._wrap("expr.compile", _SPAN, _one, compile_traced)
        for mod in mods:
            if "compile_expression" in mod.__dict__:
                self._patch(mod, "compile_expression", timed_compile)

    def uninstall(self) -> None:
        for mod, attr, original in reversed(self._patches):
            setattr(mod, attr, original)
        self._patches.clear()

    def _patch(self, mod: Any, attr: str, value: Any) -> None:
        self._patches.append((mod, attr, mod.__dict__[attr]))
        setattr(mod, attr, value)

    def _returning_wrapped_dgf(self, fn: Callable) -> Callable:
        def wrapper(*args, **kwargs):
            return self.wrap_dgf(fn(*args, **kwargs))

        wrapper.__wrapped__ = fn
        return wrapper

    def wrap_dgf(self, dgf: Any) -> Any:
        """The same generating function with timed callables; one copy per object.

        Copies are cached so that per-function caches inside the package
        (keyed by object identity) see one object, as they do untraced.
        """
        if id(dgf) in self._copies:
            return dgf
        hit = self._dgfs.get(id(dgf))
        if hit is not None:
            return hit[1]
        fields = {}
        for f in _DGF_FIELDS:
            fn = getattr(dgf, f)
            if fn is not None:
                fields[f] = self._wrap(f"dgf.{f}", _LEAF, _size, fn)
        copy = dataclasses.replace(dgf, **fields)
        self._dgfs[id(dgf)] = (dgf, copy)  # keeps both alive, so their ids stay unique
        self._copies.add(id(copy))
        return copy

    # -- results ------------------------------------------------------------

    def totals(self) -> dict[str, list]:
        """Per name: [calls, points, inclusive seconds, self seconds], all threads."""
        out: dict[str, list] = {}
        for stats in list(self._per_thread):
            for name, (calls, points, incl, self_s) in list(stats.items()):
                acc = out.setdefault(name, [0, 0, 0.0, 0.0])
                acc[0] += calls
                acc[1] += points
                acc[2] += incl
                acc[3] += self_s
        for name, cross in self._cross_thread_child_time().items():
            out[name][3] -= cross
        return out

    def _cross_thread_child_time(self) -> dict[str, float]:
        """Per parent name: union of the intervals of children run in other threads."""
        by_id = {s[0]: s for s in self.spans}
        children: dict[int, list[tuple[float, float]]] = {}
        for s in self.spans:
            parent = by_id.get(s[1])
            if parent is not None and parent[3] != s[3]:
                children.setdefault(s[1], []).append((max(s[4], parent[4]), min(s[5], parent[5])))
        out: dict[str, float] = {}
        for pid, ivals in children.items():
            name = by_id[pid][2]
            out[name] = out.get(name, 0.0) + _union(ivals)
        return out

    def covered(self, name: str) -> float:
        """Wall time during which at least one span of this name was open."""
        return _union([(s[4], s[5]) for s in self.spans if s[2] == name])

    def points_under(self, leaf: str, ancestor: str) -> int:
        """Points of spans named leaf that have a span named ancestor above them."""
        by_id = {s[0]: s for s in self.spans}
        memo: dict[int, bool] = {}

        def under(sid: int) -> bool:
            path = []
            found = False
            while sid in by_id:
                if sid in memo:
                    found = memo[sid]
                    break
                path.append(sid)
                s = by_id[sid]
                if s[2] == ancestor:
                    found = True
                    break
                sid = s[1]
            for p in path:
                memo[p] = found
            return found

        return sum(s[7] for s in self.spans if s[2] == leaf and under(s[1]))

    def write_spans(self, path: Path) -> None:
        path.parent.mkdir(parents=True, exist_ok=True)
        fields = ["id", "parent", "name", "thread", "start", "end", "self_s", "points"]
        with path.open("w") as fh:
            fh.write(json.dumps({"fields": fields}) + "\n")
            for s in self.spans:
                fh.write(json.dumps(list(s)) + "\n")


def _union(intervals: list[tuple[float, float]]) -> float:
    """Total length of the union of intervals."""
    covered, end = 0.0, -float("inf")
    for a, b in sorted(intervals):
        if b > end:
            covered += b - max(a, end)
            end = b
    return covered


def _count_integrand(frame: list, args: tuple, kwargs: dict) -> tuple[tuple, dict]:
    """Replace the first argument (the integrand or objective) with a counting copy."""
    f = args[0]

    def counted(x):
        frame[_PTS] += int(getattr(x, "size", 1))
        return f(x)

    return (counted,) + tuple(args[1:]), kwargs


def layer_metrics(tracer: Tracer) -> dict[str, float]:
    """The per-layer metrics of one traced run, keyed by metric name."""
    tot = tracer.totals()

    def calls(*names: str) -> int:
        return sum(tot.get(n, [0])[0] for n in names)

    def points(*names: str) -> int:
        return sum(tot.get(n, [0, 0])[1] for n in names)

    def incl(*names: str) -> float:
        return sum(tot.get(n, [0, 0, 0.0])[2] for n in names)

    def self_s(name: str) -> float:
        return tot.get(name, [0, 0, 0.0, 0.0])[3]

    # sweeps run simulations in a thread pool: their busy time is the wall
    # time during which any simulation ran, not the sum over threads
    steps, run_s = points("sim.run"), tracer.covered("sim.run")
    t0_calls, global_calls = calls("convtime.t0"), calls("convtime.global")
    return {
        "cli.calls": calls("cli.main"),
        "cli.self_s": self_s("cli.main"),
        "tuning.tune.calls": calls("tuning.tune"),
        "tuning.tune_s": incl("tuning.tune"),
        "sim.run.calls": calls("sim.run"),
        "sim.steps": steps,
        "sim.run_s": run_s,
        "sim.msteps_per_s": steps / run_s / 1e6 if run_s > 0.0 else 0.0,
        "sim.sweep.calls": calls("sim.sweep"),
        "sim.sweep_rows": points("sim.sweep"),
        "sim.sweep_s": incl("sim.sweep"),
        "sim.export.calls": calls("sim.export"),
        "sim.export_rows": points("sim.export"),
        "sim.export_s": incl("sim.export"),
        "convtime.t0.calls": t0_calls,
        "convtime.t0_s": incl("convtime.t0"),
        "convtime.global.calls": global_calls,
        "convtime.global_s": incl("convtime.global"),
        "convtime.bounds_s": incl("convtime.bounds"),
        "quad.simpson.calls": calls("quad.simpson"),
        "quad.simpson.evals": points("quad.simpson"),
        "quad.simpson_self_s": self_s("quad.simpson"),
        "quad.evals_per_t0": (tracer.points_under("quad.simpson", "convtime.t0") / t0_calls
                              if t0_calls else 0.0),
        "quad.evals_per_search": (tracer.points_under("quad.simpson", "convtime.global") / global_calls
                                  if global_calls else 0.0),
        "quad.golden.calls": calls("quad.golden"),
        "quad.golden.probes": points("quad.golden"),
        "quad.reciprocal.calls": calls("quad.reciprocal"),
        "quad.reciprocal_s": incl("quad.reciprocal"),
        "dgf.phi.evals": points("dgf.phi"),
        "dgf.phi_prime.evals": points("dgf.phi_prime"),
        "dgf.inverse.evals": points("dgf.inverse"),
        "dgf.eval_s": incl("dgf.phi", "dgf.phi_prime", "dgf.phi_second", "dgf.inverse"),
        "dgf.invert_phi.calls": calls("dgf.invert_phi"),
        "dgf.invert_phi_s": incl("dgf.invert_phi"),
        "dgf.admissibility.calls": calls("dgf.admissibility"),
        "dgf.admissibility_s": incl("dgf.admissibility"),
        "expr.evals": points("expr.eval"),
        "expr.eval_s": incl("expr.eval"),
        "expr.compile_s": incl("expr.compile"),
    }
