"""The three benchmark workloads: seeded inputs, CLI configs, gates, accuracy.

Each workload is one `densgeo` CLI command on a fixed grid and metric order.
Its inputs reach the program only as `file:` field entries of an INI config.

Inputs come from the seed in two parts. A fixed base field per role, drawn
from a constant generator, sets the problem's difficulty. The seed then picks
an isometry of the torus grid (a whole-cell translation per axis, a
reflection per axis and, in 2-D, an axis swap) and adds a band-limited
perturbation of relative size PERTURBATION. The isometry changes every input
byte but is an exact symmetry of the flow, so the solver work and the
accuracy stay the same from seed to seed; the perturbation keeps the inputs
from being mere relabellings of each other. Fully random inputs would make the
energy drift and the matching iteration count swing by factors of 2 or more
between seeds, which would hide any real change behind the choice of seed.

Import it only after run.bootstrap(), which pins the BLAS threads and puts
the checkout's src/ on the import path.
"""
from __future__ import annotations

import configparser
import csv
import json
import os

import numpy as np
from densgeo import cli, io, spectral

PERTURBATION = 1e-3


def band_limited(rng, dim, n, max_mode, decay=2.0):
    """Random real field on modes |m_j| <= max_mode, max |f| = 1."""
    x = 2.0 * np.pi * np.arange(n) / n
    coords = np.meshgrid(*([x] * dim), indexing="ij")
    vals = np.zeros((n,) * dim)
    ranges = [range(0, max_mode + 1)] + [range(-max_mode, max_mode + 1)] * (dim - 1)
    for mode in np.stack(np.meshgrid(*ranges, indexing="ij"), -1).reshape(-1, dim):
        # half-space of wave vectors: skip the mean and the mirror of each mode
        nonzero = mode[mode != 0]
        if nonzero.size == 0 or nonzero[0] < 0:
            continue
        a, b = rng.normal(size=2) / float(mode @ mode) ** (decay / 2.0)
        phase = sum(m * c for m, c in zip(mode, coords))
        vals += a * np.cos(phase) + b * np.sin(phase)
    return vals / np.abs(vals).max()


def isometry(rng, dim, n):
    """A seeded grid isometry of T^dim, applied by the returned function."""
    shifts = rng.integers(0, n, size=dim)
    flips = rng.integers(0, 2, size=dim)
    swap = dim == 2 and bool(rng.integers(0, 2))

    def apply(vals):
        for axis in range(dim):
            if flips[axis]:
                # x -> -x maps grid index i to -i mod n
                vals = np.roll(np.flip(vals, axis=axis), 1, axis=axis)
        if swap:
            vals = vals.T
        return np.roll(vals, shift=tuple(int(s) for s in shifts),
                       axis=tuple(range(dim)))

    return apply


def read_json(path):
    with open(path) as fh:
        return json.load(fh)


def read_csv(path):
    with open(path, newline="") as fh:
        return list(csv.DictReader(fh))


def field_entry(workdir, name, vals):
    """Write vals to workdir/<name>.field; return the config entry for it."""
    path = os.path.join(workdir, f"{name}.field")
    grid = spectral.make_grid(vals.ndim, vals.shape[0])
    io.write_field(path, spectral.ScalarField(grid, vals))
    return "file:" + path


class Workload:
    """One CLI command on fixed sizes; subclasses give inputs and gates."""

    name = ""
    command = ""
    dim = n = k = 0
    T = dt = 0.0
    base_seed = 0
    # (offset, scale, max_mode, decay) of each input field, see seeded_fields
    inputs = []
    perturbation = PERTURBATION
    solver = ("", "")  # (densgeo module, function) the CLI command runs

    def seeded_fields(self, seed, specs):
        """Base fields of a constant generator, moved and perturbed by the seed.

        specs: (offset, scale, max_mode, decay) per field; returns
        offset + scale * f.
        """
        base_rng = np.random.default_rng(self.base_seed)
        rng = np.random.default_rng(seed)
        move = isometry(rng, self.dim, self.n)
        out = []
        for offset, scale, max_mode, decay in specs:
            base = band_limited(base_rng, self.dim, self.n, max_mode, decay)
            noise = band_limited(rng, self.dim, self.n, max_mode, decay)
            out.append(offset + scale * move(base + self.perturbation * noise))
        return out

    def prepare(self, seed, workdir):
        """Write the seed's input fields and config; return the config path."""
        raise NotImplementedError

    def check(self, outdir):
        """Names of the correctness gates this run's artifacts miss."""
        status = read_json(os.path.join(outdir, "status.json"))
        return [] if status.get("status") == "ok" else ["status.json not ok"]

    def solution_error(self, outdir):
        raise NotImplementedError

    def memory_config(self, config):
        """Config of the run whose solver allocations are measured."""
        return config

    def write_config(self, path, initial, T=None, dt=None, **sections):
        """INI config on this workload's grid and k; returns its path."""
        sections = {
            "grid": {"dim": self.dim, "n": self.n},
            "metric": {"k": self.k},
            "time": {"T": T or self.T, "dt": dt or self.dt},
            "initial": initial,
            **sections,
        }
        with open(path, "w") as fh:
            for name, entries in sections.items():
                fh.write(f"[{name}]\n")
                for key, value in entries.items():
                    fh.write(f"{key} = {value}\n")
                fh.write("\n")
        return path

    def write_setup_config(self, path):
        """A one-step shoot on this workload's grid and k."""
        return self.write_config(
            path, {"rho": "cos-bump amplitude 0.2 mode 1",
                   "p": "sin-bump amplitude 0.2 mode 1"},
            T=0.01, dt=0.01, output={"snapshot_stride": 1})


class Shoot2D(Workload):
    name = "shoot-2d"
    command = "shoot"
    solver = ("geodesic", "shoot")
    dim, n, k = 2, 128, 2
    base_seed = 20170228
    T, dt, stride = 1.0, 0.01, 5
    inputs = [(1.0, 0.5, 4, 2.0), (0.0, 15.0, 4, 2.0)]

    def prepare(self, seed, workdir):
        rho, p = self.seeded_fields(seed, self.inputs)
        return self.write_config(
            os.path.join(workdir, "run.ini"),
            {"rho": field_entry(workdir, "rho0", rho),
             "p": field_entry(workdir, "p0", p)},
            output={"snapshot_stride": self.stride})

    def check(self, outdir):
        missed = super().check(outdir)
        rows = read_csv(os.path.join(outdir, "diagnostics.csv"))
        if max(abs(float(r["mass"]) - 1.0) for r in rows) > 1e-10:
            missed.append("mass error > 1e-10")
        if min(float(r["min_rho"]) for r in rows) <= 0.0:
            missed.append("min rho <= 0")
        return missed

    def solution_error(self, outdir):
        """Largest relative energy drift over the stored snapshots."""
        energy = [float(r["energy"])
                  for r in read_csv(os.path.join(outdir, "diagnostics.csv"))]
        return max(abs(e - energy[0]) for e in energy) / abs(energy[0])


class Match1D(Workload):
    name = "match-1d"
    command = "match"
    solver = ("matching", "solve_match")
    dim, n, k = 1, 32, 1
    base_seed = 8
    T, dt, n_modes, grad_tol = 0.5, 0.02, 3, 1e-8
    inputs = [(1.0, 0.3, 2, 2.0), (0.0, 0.15, 3, 3.0)]
    # Barzilai-Borwein iterates are so sensitive that even the 1e-3
    # perturbation moved the iteration count by 15 %: isometries only
    perturbation = 0.0

    def prepare(self, seed, workdir):
        # the target is the endpoint of the flow from rho0 with momentum pstar
        rho0, pstar = self.seeded_fields(seed, self.inputs)
        rho0_entry = field_entry(workdir, "rho0", rho0)
        target_dir = os.path.join(workdir, "target")
        target_ini = self.write_config(
            os.path.join(workdir, "target.ini"),
            {"rho": rho0_entry, "p": field_entry(workdir, "pstar", pstar)},
            output={"snapshot_stride": 10 ** 6})
        if cli.main(["shoot", "--config", target_ini, "--output-dir",
                     target_dir, "--quiet"]) != 0:
            raise RuntimeError(f"{self.name}: target shoot failed")
        last = sorted(f for f in os.listdir(target_dir)
                      if f.startswith("rho_"))[-1]
        rho1 = io.read_field(os.path.join(target_dir, last)).values
        return self.write_config(
            os.path.join(workdir, "run.ini"), {"rho": rho0_entry},
            matching={"rho1": field_entry(workdir, "rho1", rho1),
                      "n_modes": self.n_modes, "grad_tol": self.grad_tol})

    def check(self, outdir):
        missed = super().check(outdir)
        result = read_json(os.path.join(outdir, "result.json"))
        if result["status"] != "converged":
            missed.append(f"matching status {result['status']}")
        if not result["final_l2_mismatch"] <= 1e-6:
            missed.append("mismatch > 1e-6")
        return missed

    def solution_error(self, outdir):
        return read_json(os.path.join(outdir, "result.json"))["final_l2_mismatch"]

    def memory_config(self, config):
        """The run's config stopped after one iteration.

        Every iteration repeats the same FD gradient and line search, so the
        first one reaches the run's peak allocation (0.049 MB both ways on
        the baseline machine); the whole run under tracemalloc took 16 s.
        """
        parser = configparser.ConfigParser()
        parser.optionxform = str  # keep the case of keys such as T
        parser.read(config)
        parser["matching"]["max_iter"] = "1"
        path = os.path.join(os.path.dirname(config), "memory.ini")
        with open(path, "w") as fh:
            parser.write(fh)
        return path


class XVal2D(Workload):
    name = "xval-2d"
    command = "epdiff-check"
    solver = ("epdiff", "cross_validate")
    dim, n, k = 2, 32, 2
    base_seed = 5
    T, dt = 0.5, 0.01
    inputs = [(1.0, 0.3, 3, 2.0), (0.0, 1.0, 3, 2.0)]

    def prepare(self, seed, workdir):
        rho, p = self.seeded_fields(seed, self.inputs)
        return self.write_config(
            os.path.join(workdir, "run.ini"),
            {"rho": field_entry(workdir, "rho0", rho),
             "p": field_entry(workdir, "p0", p)})

    def check(self, outdir):
        missed = super().check(outdir)
        report = read_json(os.path.join(outdir, "cross_validation.json"))
        if not report["l2_discrepancy_final"] <= 1e-5:
            missed.append("discrepancy > 1e-5")
        if not report["horizontality_defect_max"] <= 1e-6:
            missed.append("horizontality defect > 1e-6")
        return missed

    def solution_error(self, outdir):
        report = read_json(os.path.join(outdir, "cross_validation.json"))
        return report["l2_discrepancy_final"]


WORKLOADS = {w.name: w for w in (Shoot2D(), Match1D(), XVal2D())}
