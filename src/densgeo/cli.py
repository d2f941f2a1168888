"""Command-line entry point: shoot, match, epdiff-check, validate, convergence.

Configuration is a flat INI file (key = value with sections); no environment
variables, so the written manifest is a complete record of the run. Every
command writes its manifest first, artifacts incrementally, and a terminal
status.json; the exit status is 0 iff the run completed. Two commands write
as they go, so that an aborted or interrupted run keeps what it reached:
`shoot` writes each snapshot (rho_i, p_i and its diagnostics.csv row) as the
flow reaches it, and `epdiff-check` each comparison.csv row as the
cross-check makes it (its cross_validation.json summary comes at the end).
`match`, `validate` and `convergence` write their artifacts at their end.

`epdiff-check` runs the density flow in a forked worker process beside
EPDiff: after the first snapshot, which the lift needs, the worker streams
each compared snapshot's rho and energy, and then how the flow ended,
through a pipe, and the command reads one at each comparison. Where
os.fork is missing or another Python thread runs, the flow runs in process
instead; the artifacts are the same bytes either way. The worker ignores
SIGINT, writes only to the pipe, and is killed and reaped however the
command ends.

status.json's status is "ok" (exit 0), "aborted" (exit 1: a solver abort
or a failed check, named in its message) or "interrupted": on
KeyboardInterrupt the streamed artifacts stay, status.json says so, and the
interrupt is raised again, so that the shell sees it. A configuration error
exits 2 and writes error.json once the output directory exists.
Each command imports only the modules it runs: `matching`, `epdiff` and
`validation` are imported by their commands.
"""
from __future__ import annotations

import argparse
import configparser
import dataclasses
import os
import sys
import time

import numpy as np

from . import geodesic, io, presets
from .spectral import (
    GridError,
    ScalarField,
    l2_norm_values,
    make_grid,
    operators,
)


class ConfigError(ValueError):
    """Malformed run configuration; message names the offending section/key."""


def _get(cfg, section, key, cast, default=None, required=False):
    if not cfg.has_option(section, key):
        if required:
            raise ConfigError(f"[{section}] {key}: missing required key")
        return default
    raw = cfg.get(section, key)
    try:
        return cast(raw)
    except ValueError:
        raise ConfigError(
            f"[{section}] {key}: cannot parse {raw!r} as {cast.__name__}"
        ) from None


def load_config(path) -> configparser.ConfigParser:
    if not os.path.exists(path):
        raise ConfigError(f"config file not found: {path}")
    cfg = configparser.ConfigParser(inline_comment_prefixes=(";", "#"))
    try:
        with open(path, encoding="utf-8") as fh:
            cfg.read_file(fh, source=path)
    except OSError as exc:
        raise ConfigError(f"config file {path}: {exc.strerror}") from None
    except UnicodeDecodeError as exc:
        raise ConfigError(f"{path}: not UTF-8 text: {exc.reason} at byte "
                          f"{exc.start}") from None
    except configparser.Error as exc:
        raise ConfigError(f"{path}: {exc}") from None
    return cfg


def _build_grid(cfg):
    dim = _get(cfg, "grid", "dim", int, required=True)
    n = _get(cfg, "grid", "n", int, required=True)
    try:
        return make_grid(dim, n)
    except GridError as exc:
        raise ConfigError(f"[grid]: {exc}") from None


def _metric_order(cfg, *grids, check=None):
    """[metric] k, checked on each grid the command runs on by its operator
    table: k >= -1, and the inertia symbol finite there; and by check(k),
    the command's own rule, when given."""
    k = _get(cfg, "metric", "k", int, required=True)
    try:
        for grid in grids:
            operators(grid, k)
        if check is not None:
            check(k)
    except ValueError as exc:
        raise ConfigError(f"[metric] k: {exc}") from None
    return k


def _load_scalar(cfg, grid, section, key, role):
    """Initial data entry: preset string or file:PATH; returns (field, source).

    Both give raw values, normalized here by role: a density ("rho") must be
    positive and is scaled to unit mass, a momentum potential is projected
    to mean zero.
    """
    spec = _get(cfg, section, key, str, required=True).strip()
    if spec.startswith("file:"):
        path = spec[len("file:"):].strip()
        if not os.path.exists(path):
            raise ConfigError(f"[{section}] {key}: file not found: {path}")
        try:
            digest = io.sha256_file(path)
        except OSError as exc:
            raise ConfigError(
                f"[{section}] {key}: cannot read {path}: {exc.strerror}"
            ) from None
        expected = _get(cfg, section, f"{key}_checksum", str)
        if expected is not None and digest != expected:
            raise ConfigError(
                f"[{section}] {key}: checksum mismatch for {path} "
                f"(got {digest})")
        try:
            field = io.read_field(path, expected_grid=grid)
        except io.FieldFormatError as exc:
            raise ConfigError(f"[{section}] {key}: {exc}") from None
        if not isinstance(field, ScalarField):
            raise ConfigError(f"[{section}] {key}: {path} holds a vector "
                              "field, not a scalar field")
        vals, source = field.values, {"file": path, "sha256": digest}
    else:
        try:
            vals = presets.raw_preset(grid, spec)
        except presets.PresetError as exc:
            raise ConfigError(f"[{section}] {key}: {exc}") from None
        source = {"preset": spec}
    if role == "rho":
        try:
            geodesic.check_density(vals, "density")
        except geodesic.StateError as exc:
            raise ConfigError(f"[{section}] {key}: {exc}") from None
        vals = vals / vals.mean()
    else:
        vals = vals - vals.mean()
    # finite values near the float limit can overflow their mean
    if not (np.isfinite(vals).all() and (role != "rho" or vals.min() > 0.0)):
        raise ConfigError(f"[{section}] {key}: values overflow normalization")
    return ScalarField(grid, vals), source


def _common_manifest(cfg, command, config_path):
    seed = _get(cfg, "run", "seed", int, default=0)
    if seed < 0:
        raise ConfigError(f"[run] seed: must be >= 0, got {seed}")
    sections = {s: dict(cfg.items(s)) for s in cfg.sections()}
    return {
        "command": command,
        "config_file": os.path.abspath(config_path),
        "config": sections,
        "config_sha256": io.sha256_file(config_path),
        "seed": seed,
    }


def _write_status(outdir, status, message, t0):
    """status.json: the status ("ok", "aborted" or "interrupted"), the
    message and the wall time since t0."""
    io.write_json(os.path.join(outdir, "status.json"), {
        "status": status,
        "message": message,
        "wall_time": time.time() - t0,
    })


def _time_steps(T, dt):
    """The step count and the step taken, T / ceil(T/dt)."""
    try:
        return geodesic.time_steps(T, dt)
    except ValueError as exc:
        raise ConfigError(f"[time]: {exc}") from None


DIAG_HEADER = ["t"] + [f.name for f in dataclasses.fields(geodesic.Diagnostics)]
COMPARISON_HEADER = ["t", "l2_discrepancy", "horizontality_defect",
                     "energy_density", "energy_epdiff"]
# an aborted run has no final-state cells, and a completed one no abort
CONVERGENCE_HEADER = ["run", "n", "dt", "status", "energy_drift",
                      "spectral_tail", "mass_error", "abort_time",
                      "abort_reason"]


def cmd_shoot(cfg, outdir, manifest):
    grid = _build_grid(cfg)
    k = _metric_order(cfg, grid)
    T = _get(cfg, "time", "T", float, required=True)
    dt = _get(cfg, "time", "dt", float)
    stride = _get(cfg, "output", "snapshot_stride", int, default=10)
    if stride < 1:
        raise ConfigError(
            f"[output] snapshot_stride: must be >= 1, got {stride}")
    rho0, rho_src = _load_scalar(cfg, grid, "initial", "rho", "rho")
    p0, p_src = _load_scalar(cfg, grid, "initial", "p", "p")
    state0 = geodesic.make_state(grid, rho0.values, p0.values, k)
    if dt is None:
        dt = geodesic.default_dt(state0)
        if dt is None:
            dt = T / 100.0
    _, dt = _time_steps(T, dt)
    manifest.update({
        "grid": {"dim": grid.dim, "n": grid.n}, "k": k, "T": T, "dt": dt,
        "snapshot_stride": stride,
        "inputs": {"rho": rho_src, "p": p_src},
        "tolerances": {"mass_drift": geodesic.MASS_DRIFT_TOL},
    })
    io.write_json(os.path.join(outdir, "manifest.json"), manifest)
    written = 0
    with open(os.path.join(outdir, "diagnostics.csv"), "w",
              newline="\n") as csv:
        csv.write(io.csv_line(DIAG_HEADER))

        def write(t, state, diagnostics):  # as the shoot reaches it
            nonlocal written
            for name, field in (("rho", state.rho), ("p", state.p)):
                io.write_field(os.path.join(
                    outdir, f"{name}_{written:05d}.field"), field)
            csv.write(io.csv_line((t,) + dataclasses.astuple(diagnostics)))
            csv.flush()
            written += 1
        geodesic.shoot(rho0, p0, k, T, dt, store_every=stride, out=write)
    return f"shoot completed: {written} snapshots over T={T}"


def cmd_match(cfg, outdir, manifest):
    from . import matching

    grid = _build_grid(cfg)
    k = _metric_order(cfg, grid)
    T = _get(cfg, "time", "T", float, required=True)
    _, dt = _time_steps(T, _get(cfg, "time", "dt", float, required=True))
    rho0, rho0_src = _load_scalar(cfg, grid, "initial", "rho", "rho")
    rho1, rho1_src = _load_scalar(cfg, grid, "matching", "rho1", "rho")
    n_modes = _get(cfg, "matching", "n_modes", int, default=8)
    max_iter = _get(cfg, "matching", "max_iter", int, default=200)
    grad_tol = _get(cfg, "matching", "grad_tol", float, default=1e-8)
    if cfg.has_option("matching", "fd_step"):
        raise ConfigError(
            "[matching]: fd_step is not a setting: the Levenberg-Marquardt "
            "Jacobian is exact (tangent-linear), with no finite-difference "
            "step")
    try:
        opt = matching.OptSettings(max_iter, grad_tol)
        problem = matching.MatchProblem(rho0, rho1, k, T, dt, n_modes, opt)
    except ValueError as exc:
        raise ConfigError(f"[matching]: {exc}") from None
    manifest.update({
        "grid": {"dim": grid.dim, "n": grid.n}, "k": k, "T": T, "dt": dt,
        "n_modes": n_modes,
        "inputs": {"rho0": rho0_src, "rho1": rho1_src},
        "optimizer": {"max_iter": opt.max_iter, "grad_tol": opt.grad_tol},
    })
    io.write_json(os.path.join(outdir, "manifest.json"), manifest)
    result = matching.solve_match(problem)
    io.write_field(os.path.join(outdir, "p0.field"), result.p0)
    io.write_field(os.path.join(outdir, "rho_final.field"),
                   result.final_state.rho)
    io.write_csv(os.path.join(outdir, "history.csv"),
                 ["iter", "objective", "grad_norm", "lambda"],
                 result.history_rows)
    io.write_csv(os.path.join(outdir, "diagnostics.csv"), DIAG_HEADER,
                 [(t,) + dataclasses.astuple(d)
                  for t, d in zip(result.times, result.diagnostics)])
    io.write_json(os.path.join(outdir, "result.json"), {
        "status": result.status,
        "final_l2_mismatch": result.final_l2_mismatch,
        "iterations": len(result.objective_history) - 1,
    })
    return (f"match {result.status}: relative mismatch "
            f"{result.final_l2_mismatch:.3e}")


def cmd_epdiff_check(cfg, outdir, manifest):
    from . import epdiff

    grid = _build_grid(cfg)
    k = _metric_order(cfg, grid, check=epdiff.check_order)
    T = _get(cfg, "time", "T", float, required=True)
    _, dt = _time_steps(T, _get(cfg, "time", "dt", float, required=True))
    rho0, rho_src = _load_scalar(cfg, grid, "initial", "rho", "rho")
    p0, p_src = _load_scalar(cfg, grid, "initial", "p", "p")
    manifest.update({
        "grid": {"dim": grid.dim, "n": grid.n}, "k": k, "T": T, "dt": dt,
        "inputs": {"rho": rho_src, "p": p_src},
    })
    io.write_json(os.path.join(outdir, "manifest.json"), manifest)
    with open(os.path.join(outdir, "comparison.csv"), "w",
              newline="\n") as csv:
        csv.write(io.csv_line(COMPARISON_HEADER))

        def write(*comparison):  # as the cross-check makes it
            csv.write(io.csv_line(comparison))
            csv.flush()
        report = epdiff.cross_validate(rho0, p0, k, T, dt, out=write)
    io.write_json(os.path.join(outdir, "cross_validation.json"), report)
    return (f"cross validation: final L2 discrepancy "
            f"{report['l2_discrepancy_final']:.3e}")


def cmd_validate(cfg, outdir, manifest):
    from . import validation

    grid = _build_grid(cfg)
    k = _metric_order(cfg, grid)
    manifest.update({"grid": {"dim": grid.dim, "n": grid.n}, "k": k})
    io.write_json(os.path.join(outdir, "manifest.json"), manifest)
    report = validation.run_suite(dim=grid.dim, n=grid.n, k=k,
                                  seed=manifest["seed"])
    io.write_json(os.path.join(outdir, "validation.json"), report)
    if not report["all_passed"]:
        failed = [name for name, r in report["checks"].items()
                  if not r["passed"]]
        raise RuntimeError(f"invariant checks failed: {', '.join(failed)}")
    return f"all {len(report['checks'])} invariant checks passed"


def cmd_convergence(cfg, outdir, manifest):
    """Shoots at dt, dt/2 and dt/4 on the grid and at dt on the doubled
    grid, one convergence.csv row each. A run that aborts keeps its row,
    with its abort's time and message; summary.json counts the aborted
    runs, and gives the temporal order and the spatial change where the
    runs they need completed. A study of aborting runs still exits 0."""
    grid = _build_grid(cfg)
    k = _metric_order(cfg, grid, make_grid(grid.dim, 2 * grid.n))
    T = _get(cfg, "time", "T", float, required=True)
    _, dt = _time_steps(T, _get(cfg, "time", "dt", float, required=True))
    _time_steps(T, dt / 4)  # the finest run's step count is bounded too
    # the initial data of the base and the doubled grid, loaded before the
    # manifest so that a bad entry is a configuration error
    initial = {}
    for n_run in (grid.n, 2 * grid.n):
        g = make_grid(grid.dim, n_run)
        initial[n_run] = (_load_scalar(cfg, g, "initial", "rho", "rho")[0],
                          _load_scalar(cfg, g, "initial", "p", "p")[0])
    manifest.update({"grid": {"dim": grid.dim, "n": grid.n}, "k": k,
                     "T": T, "dt": dt})
    io.write_json(os.path.join(outdir, "manifest.json"), manifest)

    rows = []
    finals = {}

    def run_one(label, n_run, dt_run):
        # a stride of the whole run keeps its first and last states
        n_steps = geodesic.time_steps(T, dt_run)[0]
        try:
            traj = geodesic.shoot(*initial[n_run], k, T, dt_run,
                                  store_every=n_steps)
        except geodesic.SolverAbort as exc:
            rows.append((label, n_run, dt_run, "aborted", "", "", "",
                         exc.time, str(exc)))
            return
        d0, dT = traj.diagnostics[0], traj.diagnostics[-1]
        drift = (abs(dT.energy - d0.energy) / abs(d0.energy)
                 if d0.energy != 0 else 0.0)
        rows.append((label, n_run, dt_run, "ok", drift,
                     dT.spectral_tail, abs(dT.mass - 1.0), "", ""))
        finals[label] = traj.states[-1].rho.values

    for f in (1, 2, 4):
        run_one(f"dt/{f}", grid.n, dt / f)
    run_one("2n", 2 * grid.n, dt)

    aborted = sum(row[3] == "aborted" for row in rows)
    summary = {"aborted_runs": aborted}
    if all(f"dt/{f}" in finals for f in (1, 2, 4)):
        e12 = l2_norm_values(finals["dt/1"] - finals["dt/2"])
        e24 = l2_norm_values(finals["dt/2"] - finals["dt/4"])
        if e24 > 0:
            summary["observed_temporal_order"] = float(np.log2(e12 / e24))
    if "2n" in finals and "dt/1" in finals:
        coarse_on_fine = finals["2n"][(slice(None, None, 2),) * grid.dim]
        summary["spatial_refinement_change"] = l2_norm_values(
            coarse_on_fine - finals["dt/1"])
    io.write_csv(os.path.join(outdir, "convergence.csv"), CONVERGENCE_HEADER,
                 rows)
    io.write_json(os.path.join(outdir, "summary.json"), summary)
    parts = [f"{aborted} of {len(rows)} runs aborted"] + [
        f"{key}={val:.3g}" for key, val in summary.items()
        if key != "aborted_runs"]
    return "convergence study done: " + ", ".join(parts)


COMMANDS = {
    "shoot": cmd_shoot,
    "match": cmd_match,
    "epdiff-check": cmd_epdiff_check,
    "validate": cmd_validate,
    "convergence": cmd_convergence,
}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="densgeo",
        description="Pseudospectral geodesic solvers on torus densities")
    sub = parser.add_subparsers(dest="command", required=True)
    for name in COMMANDS:
        p = sub.add_parser(name)
        p.add_argument("--config", required=True)
        p.add_argument("--output-dir", default=None)
        p.add_argument("--quiet", action="store_true")
    args = parser.parse_args(argv)

    t0 = time.time()
    try:
        cfg = load_config(args.config)
        outdir = args.output_dir or _get(cfg, "run", "output_dir", str,
                                         default="densgeo-out")
        try:
            io.ensure_dir(outdir)
        except OSError as exc:
            raise ConfigError(
                f"output directory {outdir}: {exc.strerror}") from None
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2

    seen = {}

    def once(record):  # a command that shoots many times warns once
        return seen.setdefault(record.getMessage(), record) is record

    geodesic.log.addFilter(once)
    try:
        manifest = _common_manifest(cfg, args.command, args.config)
        message = COMMANDS[args.command](cfg, outdir, manifest)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        io.write_json(os.path.join(outdir, "error.json"),
                      {"error": str(exc)})
        return 2
    except (geodesic.SolverAbort, RuntimeError) as exc:
        _write_status(outdir, "aborted", str(exc), t0)
        if not args.quiet:
            print(f"aborted: {exc}", file=sys.stderr)
        return 1
    except KeyboardInterrupt:
        _write_status(outdir, "interrupted", "interrupted by the user", t0)
        raise
    finally:
        geodesic.log.removeFilter(once)
    _write_status(outdir, "ok", message, t0)
    if not args.quiet:
        print(message)
    return 0


if __name__ == "__main__":
    sys.exit(main())
