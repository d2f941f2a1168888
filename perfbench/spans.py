"""Span tracing of densgeo from outside the package.

The tracer replaces module attributes with timing wrappers. The package calls
its layers through module attributes (`geodesic.shoot`, `np.fft.fftn`, a
module's own globals), so every call is seen and no source file changes.
Each span records name, start, end, parent span and run id; spans stay in
memory until `write`. FFTs are too many to keep one span each (some 170
thousand in a `match-1d` run), so they are summed into their parent span,
keyed by transform and shape.

Self time of a span is its duration minus the time covered by its child spans
and by the FFTs summed into it.
"""
from __future__ import annotations

import importlib
import json
import math
import os
from time import perf_counter

import numpy as np

# (module, function) pairs wrapped as spans; a name missing from the module
# is skipped, so a later refactor loses that span, not the whole trace
SPANS = [
    ("cli", "main"),
    ("geodesic", "shoot"),
    ("geodesic", "step_rk4"),
    ("geodesic", "diagnostics_for"),
    ("matching", "solve_match"),
    ("matching", "objective"),
    ("matching", "gradient_fd"),
    ("epdiff", "cross_validate"),
    ("epdiff", "integrate_epdiff"),
    ("epdiff", "eval_periodic"),
    ("epdiff", "invert_map"),
    ("epdiff", "pushforward_density"),
    ("epdiff", "horizontality_defect"),
    ("io", "write_field"),
    ("io", "write_csv"),
    ("io", "write_json"),
    ("io", "sha256_file"),
]

# numpy.fft transforms: name -> (operation count factor, side holding the
# real-space shape, default transformed axes); 5 N log2 N for a complex
# transform of N points, half that for a real one
FFTS = {
    "fft": (5.0, "in", (-1,)), "ifft": (5.0, "in", (-1,)),
    "fft2": (5.0, "in", (-2, -1)), "ifft2": (5.0, "in", (-2, -1)),
    "fftn": (5.0, "in", None), "ifftn": (5.0, "in", None),
    "rfft": (2.5, "in", (-1,)), "irfft": (2.5, "out", (-1,)),
    "rfft2": (2.5, "in", (-2, -1)), "irfft2": (2.5, "out", (-2, -1)),
    "rfftn": (2.5, "in", None), "irfftn": (2.5, "out", None),
    "hfft": (2.5, "out", (-1,)), "ihfft": (2.5, "in", (-1,)),
}


class Span:
    __slots__ = ("id", "name", "run", "parent", "start", "end", "error",
                 "fft", "extra")

    def __init__(self, id_, name, run, parent):
        self.id, self.name, self.run, self.parent = id_, name, run, parent
        self.start = self.end = 0.0
        self.error = None
        self.fft = {}  # (transform, in shape, out shape, axes) -> [calls, s, bytes]
        self.extra = None

    @property
    def duration(self):
        return self.end - self.start


def _fft_axes(name, ndim, args, kwargs):
    """Transformed axes of an np.fft call with explicit arguments."""
    default = FFTS[name][2]
    if len(default or ()) == 1:
        axis = kwargs.get("axis", args[1] if len(args) > 1 else -1)
        return (axis % ndim,)
    s = kwargs.get("s", args[0] if args else None)
    axes = kwargs.get("axes", args[1] if len(args) > 1 else None)
    if axes is None:
        axes = default or (range(-len(s), 0) if s is not None else range(ndim))
    return tuple(sorted(a % ndim for a in axes))


def _eval_points(args, kwargs):
    """Points x retained modes of one eval_periodic(grid, values, points)."""
    grid = kwargs.get("grid", args[0] if args else None)
    points = kwargs.get("points", args[2] if len(args) > 2 else None)
    return np.asarray(points[0]).size * (grid.n - 1) ** grid.dim


def _written_bytes(args, kwargs):
    """Size of the written file. status.json counts 0: its wall-time field
    changes length from run to run, and the byte count should repeat."""
    path = kwargs.get("path", args[0])
    return 0 if os.path.basename(path) == "status.json" else os.path.getsize(path)


# extra quantity recorded on a span, from the wrapped call's arguments
MEASURES = {
    "eval_periodic": _eval_points,
    "write_field": _written_bytes,
    "write_csv": _written_bytes,
    "write_json": _written_bytes,
}


class Tracer:
    """Installs span wrappers on densgeo and numpy.fft; holds the spans."""

    def __init__(self):
        self.modules = {name: importlib.import_module(f"densgeo.{name}")
                        for name, _ in SPANS}
        self.spans = []
        self.stack = []
        self.run = 0
        self._saved = []

    def install(self):
        for mod_name, fn_name in SPANS:
            module = self.modules[mod_name]
            if hasattr(module, fn_name):
                measure = MEASURES.get(fn_name)
                self._patch(module, fn_name,
                            self._span_wrapper(getattr(module, fn_name),
                                               f"{mod_name}.{fn_name}",
                                               measure))
        for fn_name in FFTS:
            self._patch(np.fft, fn_name,
                        self._fft_wrapper(getattr(np.fft, fn_name), fn_name))
        return self

    def uninstall(self):
        for owner, attr, original in reversed(self._saved):
            setattr(owner, attr, original)
        self._saved.clear()

    def _patch(self, owner, attr, wrapper):
        self._saved.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, wrapper)

    def _span_wrapper(self, fn, name, measure):
        spans, stack = self.spans, self.stack

        def traced(*args, **kwargs):
            if not stack:
                self.run += 1
            span = Span(len(spans), name, self.run,
                        stack[-1].id if stack else None)
            spans.append(span)
            stack.append(span)
            span.start = perf_counter()
            try:
                result = fn(*args, **kwargs)
            except BaseException as exc:
                span.error = type(exc).__name__
                raise
            finally:
                span.end = perf_counter()
                stack.pop()
            if measure is not None:
                span.extra = measure(args, kwargs)
            return result

        traced.__wrapped__ = fn
        return traced

    def _fft_wrapper(self, fn, name):
        stack = self.stack

        def traced(a, *args, **kwargs):
            t0 = perf_counter()
            out = fn(a, *args, **kwargs)
            elapsed = perf_counter() - t0
            a = np.asarray(a)
            axes = _fft_axes(name, a.ndim, args, kwargs) if args or kwargs else None
            key = (name, a.shape, out.shape, axes)
            # every traced FFT runs inside the cli.main span at least
            agg = stack[-1].fft
            entry = agg.get(key)
            if entry is None:
                entry = agg[key] = [0, 0.0, 0]
            entry[0] += 1
            entry[1] += elapsed
            entry[2] += a.nbytes + out.nbytes
            return out

        traced.__wrapped__ = fn
        return traced

    def write(self, path):
        """Spans as JSON lines, FFT sums folded in per span."""
        with open(path, "w") as fh:
            for s in self.spans:
                fh.write(json.dumps({
                    "id": s.id, "name": s.name, "run": s.run,
                    "parent": s.parent, "start": s.start, "end": s.end,
                    "error": s.error, "extra": s.extra,
                    "fft": [[k[0], list(k[1]), list(k[2]), k[3], *v]
                            for k, v in s.fft.items()],
                }) + "\n")


def fft_operations(key, calls):
    """Computed operation count of `calls` transforms with this key."""
    name, in_shape, out_shape, axes = key
    factor, side, default = FFTS[name]
    shape = in_shape if side == "in" else out_shape
    if axes is None:
        ndim = len(shape)
        axes = range(ndim) if default is None else [a % ndim for a in default]
    points = math.prod(shape[a] for a in axes)
    batch = math.prod(shape) // points
    return calls * factor * batch * points * math.log2(points)


def _pct(values, q):
    return float(np.percentile(values, q)) if values else 0.0


def layer_metrics(spans, run, dim):
    """Per-layer metrics of one traced run (one cli.main call)."""
    spans = [s for s in spans if s.run == run]
    by_id = {s.id: s for s in spans}
    child_s = {s.id: 0.0 for s in spans}
    for s in spans:
        if s.parent is not None:
            child_s[s.parent] += s.duration

    def self_time(s):
        return s.duration - child_s[s.id] - sum(v[1] for v in s.fft.values())

    def named(name):
        return [s for s in spans if s.name == name]

    def total(name):
        return sum(s.duration for s in named(name))

    def self_total(name):
        return sum(self_time(s) for s in named(name))

    def ms(name):
        return [1e3 * s.duration for s in named(name)]

    root = named("cli.main")[0]
    fft_calls = fft_s = fft_ops = fft_bytes = 0
    for s in spans:
        for key, (calls, seconds, nbytes) in s.fft.items():
            fft_calls += calls
            fft_s += seconds
            fft_bytes += nbytes
            fft_ops += fft_operations(key, calls)

    m = {
        "cli.main.s": root.duration,
        "cli.main.self_s": self_time(root),
        "spectral.fft.calls": fft_calls,
        "spectral.fft.self_s": fft_s,
        "spectral.fft.share": fft_s / root.duration,
        "spectral.fft.gflop_computed": fft_ops / 1e9,
        "spectral.fft.mb_computed": fft_bytes / 1e6,
    }
    for name in ("geodesic.step_rk4", "geodesic.shoot"):
        durations = ms(name)
        m[f"{name}.calls"] = len(durations)
        m[f"{name}.ms_p50"] = _pct(durations, 50)
        m[f"{name}.ms_p99"] = _pct(durations, 99)
    m["geodesic.step_rk4.self_s"] = self_total("geodesic.step_rk4")
    m["geodesic.aborts"] = sum(1 for s in named("geodesic.step_rk4")
                               if s.error == "SolverAbort")
    m["geodesic.diagnostics_for.calls"] = len(named("geodesic.diagnostics_for"))
    m["geodesic.diagnostics_for.self_s"] = self_total("geodesic.diagnostics_for")
    m.update(_matching_metrics(spans, by_id, self_total))
    evals = named("epdiff.eval_periodic")
    inversions = named("epdiff.invert_map")
    evals_in_inversion = sum(1 for s in evals if s.parent is not None
                             and by_id[s.parent].name == "epdiff.invert_map")
    m.update({
        "epdiff.eval_periodic.calls": len(evals),
        "epdiff.eval_periodic.self_s": self_total("epdiff.eval_periodic"),
        "epdiff.eval_periodic.share": total("epdiff.eval_periodic") / root.duration,
        "epdiff.eval_periodic.mexp_computed":
            sum(s.extra or 0 for s in evals) / 1e6,
        "epdiff.invert_map.calls": len(inversions),
        # each fixed-point iteration evaluates one displacement component per axis
        "epdiff.invert_map.iters_mean":
            evals_in_inversion / dim / len(inversions) if inversions else 0.0,
        "epdiff.invert_map.s": total("epdiff.invert_map"),
        "epdiff.integrate_epdiff.s": total("epdiff.integrate_epdiff"),
        "epdiff.pushforward_density.s": total("epdiff.pushforward_density"),
        "epdiff.horizontality_defect.s": total("epdiff.horizontality_defect"),
    })
    writes = [s for s in spans if s.name.startswith("io.write")]
    m.update({
        "io.write.calls": len(writes),
        "io.write.bytes": sum(s.extra or 0 for s in writes),
        "io.write.s": sum(s.duration for s in writes),
        "io.sha256_file.s": total("io.sha256_file"),
    })
    return m


def _matching_metrics(spans, by_id, self_total):
    """Counts of solve_match, read from the order of its child spans.

    Each outer iteration computes one gradient_fd, then line-search
    objective calls until one is accepted; the first objective call is the
    starting value. A line search that the next gradient follows ended on
    an accepted step; a trailing one counts as accepted unless it ran to
    the backtrack limit of the optimizer settings.
    """
    from densgeo import OptSettings

    solves = [s for s in spans if s.name == "matching.solve_match"]
    iters = evals = accepted = aborted = shoots = 0
    for solve in solves:
        children = [s for s in spans if s.parent == solve.id]
        groups, current = [], None
        for s in children[1:]:
            if s.name == "matching.gradient_fd":
                iters += 1
                if current is not None:
                    groups.append((current, True))
                current = 0
            elif s.name == "matching.objective" and current is not None:
                current += 1
        if current:
            groups.append((current, current < OptSettings().max_backtracks))
        evals += sum(g for g, _ in groups)
        accepted += sum(1 for _, ok in groups if ok)
    for s in spans:
        if s.name == "geodesic.shoot" and _inside(s, by_id, "matching.solve_match"):
            shoots += 1
        if (s.name == "geodesic.shoot" and s.error == "SolverAbort"
                and _inside(s, by_id, "matching.objective")):
            aborted += 1
    objective_calls = sum(1 for s in spans if s.name == "matching.objective")
    return {
        "matching.iters": iters,
        "matching.objective.calls": objective_calls,
        "matching.gradient_fd.calls": sum(1 for s in spans
                                          if s.name == "matching.gradient_fd"),
        "matching.gradient_fd.self_s": self_total("matching.gradient_fd"),
        "matching.shoots_per_iter": shoots / iters if iters else 0.0,
        "matching.backtracks": evals - accepted,
        "matching.aborted_evals": aborted,
        "matching.accept_ratio": accepted / evals if evals else 0.0,
    }


def _inside(span, by_id, name):
    parent = span.parent
    while parent is not None:
        if by_id[parent].name == name:
            return True
        parent = by_id[parent].parent
    return False
