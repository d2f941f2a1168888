"""Built-in invariant suites, runnable through the `validate` CLI command.

Each check mirrors one documented invariant and returns a measured value with
its tolerance. Randomized checks draw from a seeded generator; tolerances are
chosen so that verdicts do not depend on the seed.
"""
from __future__ import annotations

import tempfile
import zlib

import numpy as np

from . import epdiff, geodesic, io, matching
from .spectral import (
    Grid,
    ScalarField,
    VectorField,
    divergence,
    gradient,
    l2_inner,
    l2_norm_values,
    make_grid,
    operators,
    shift_values,
)


def random_band_limited(rng, grid: Grid, amplitude: float = 1.0,
                        max_mode: int | None = None) -> np.ndarray:
    """Random real field on modes |k_j| <= max_mode (default n/6): normal
    cos and sin coefficients over |m|^2, placed by `matching.momentum_hat`."""
    if max_mode is None:
        max_mode = max(1, grid.n // 6)
    modes = matching.half_space_modes(grid, max_mode)
    coeffs = rng.normal(size=(len(modes), 2)) / (modes ** 2).sum(1)[:, None]
    vals = operators(grid).band.ifft(
        matching.momentum_hat(grid, max_mode, coeffs.ravel()))
    scale = np.abs(vals).max()
    if scale > 0:
        vals *= amplitude / scale
    return vals


def random_density(rng, grid: Grid) -> ScalarField:
    vals = 1.0 + random_band_limited(rng, grid, amplitude=0.3)
    return ScalarField(grid, vals / vals.mean())


def _check_spectral_roundtrip(rng, grid, k):
    f = random_band_limited(rng, grid)
    ops = operators(grid)
    back = ops.ifft(ops.fft(f))
    err = np.abs(back - f).max() / max(1.0, np.abs(f).max())
    return err, 1e-12


def _check_grad_div_skew_adjoint(rng, grid, k):
    f = ScalarField(grid, random_band_limited(rng, grid))
    v = VectorField(grid, tuple(
        random_band_limited(rng, grid) for _ in range(grid.dim)))
    lhs = l2_inner(divergence(v), f)
    rhs = sum(
        float((c * gc).mean())
        for c, gc in zip(v.components, gradient(f).components))
    return abs(lhs + rhs), 1e-10


def _check_inertia_self_adjoint_positive(rng, grid, k):
    ops = operators(grid, max(k, 0))
    f = random_band_limited(rng, grid)
    g = random_band_limited(rng, grid)
    af, ag = ops.apply(ops.a, f), ops.apply(ops.a, g)
    sym_err = abs(float((af * g).mean()) - float((f * ag).mean()))
    gap = float((af * f).mean()) - float((f * f).mean())
    return max(sym_err, -gap), 1e-10


def _check_multiplier_translation_equivariance(rng, grid, k):
    ops = operators(grid, max(k, 0))
    f = random_band_limited(rng, grid)
    offs = [int(rng.integers(1, grid.n)) for _ in range(grid.dim)]
    shifted_then = ops.apply(ops.a, shift_values(grid, f, offs))
    then_shifted = shift_values(grid, ops.apply(ops.a, f), offs)
    scale = max(1.0, np.abs(then_shifted).max())
    return np.abs(shifted_then - then_shifted).max() / scale, 1e-12


def _check_lrho_self_adjoint_positive(rng, grid, k):
    rho = random_density(rng, grid)
    p = ScalarField(grid, random_band_limited(rng, grid))
    q = ScalarField(grid, random_band_limited(rng, grid))
    sym_err = abs(l2_inner(q, geodesic.apply_L_rho(rho, p, k))
                  - l2_inner(p, geodesic.apply_L_rho(rho, q, k)))
    quad = l2_inner(p, geodesic.apply_L_rho(rho, p, k))
    return max(sym_err, -quad), 1e-10


def _check_solve_apply_roundtrip(rng, grid, k):
    rho = random_density(rng, grid)
    p = ScalarField(grid, random_band_limited(rng, grid))
    rhodot = geodesic.apply_L_rho(rho, p, k)
    p_rec = geodesic.solve_L_rho(rho, rhodot, k)
    err = l2_norm_values(p_rec.values - p.values) / l2_norm_values(p.values)
    return err, 1e-8


def _check_hamilton_jacobi(rng, grid, k):
    one = ScalarField(grid, np.ones(grid.shape))
    p = random_band_limited(rng, grid, max_mode=max(1, grid.n // 8))
    state = geodesic.make_state(grid, one.values, p, -1)
    _, pdot = geodesic.hamiltonian_rhs(state)
    gp = gradient(state.p)
    sq = sum(c ** 2 for c in gp.components)
    expected = -(sq - sq.mean())
    return np.abs(pdot.values - expected).max(), 1e-10


def _check_mass_conservation(rng, grid, k):
    rho0 = random_density(rng, grid)
    p0 = ScalarField(grid, random_band_limited(rng, grid, amplitude=0.3))
    traj = geodesic.shoot(rho0, p0, max(k, 1), 0.5, 0.01)
    return max(abs(d.mass - 1.0) for d in traj.diagnostics), 1e-10


def _check_equilibrium_fixed_point(rng, grid, k):
    rho0 = random_density(rng, grid)
    p0 = ScalarField(grid, np.full(grid.shape, float(rng.normal())))
    traj = geodesic.shoot(rho0, p0, k, 0.2, 0.02)
    return max(np.abs(s.rho.values - rho0.values).max()
               for s in traj.states), 0.0


def _check_shoot_translation_equivariance(rng, grid, k):
    rho0 = random_density(rng, grid)
    p0 = ScalarField(grid, random_band_limited(rng, grid, amplitude=0.3))
    offs = [int(rng.integers(1, grid.n)) for _ in range(grid.dim)]
    kk = max(k, 1)
    base = geodesic.shoot(rho0, p0, kk, 0.3, 0.01)
    shifted = geodesic.shoot(
        ScalarField(grid, shift_values(grid, rho0.values, offs)),
        ScalarField(grid, shift_values(grid, p0.values, offs)),
        kk, 0.3, 0.01)
    err = np.abs(shifted.states[-1].rho.values
                 - shift_values(grid, base.states[-1].rho.values, offs)).max()
    return err, 1e-10


def _check_time_reversibility(rng, grid, k):
    rho0 = random_density(rng, grid)
    p0 = ScalarField(grid, random_band_limited(rng, grid, amplitude=0.3))
    kk = max(k, 1)
    fwd = geodesic.shoot(rho0, p0, kk, 0.3, 0.005)
    end = fwd.states[-1]
    # the flow is time-reversible: back from (rho_T, p_T) is forward from
    # (rho_T, -p_T)
    back = geodesic.shoot(end.rho, ScalarField(grid, -end.p.values), kk,
                          0.3, 0.005)
    err = l2_norm_values(back.states[-1].rho.values - rho0.values)
    return err, 1e-9


def _check_epdiff_energy(rng, grid, k):
    kk = max(k, 1)
    u0 = VectorField(grid, tuple(random_band_limited(rng, grid, amplitude=0.3)
                                 for _ in range(grid.dim)))
    states = epdiff.integrate_epdiff(
        epdiff.identity_state(ScalarField(grid, np.ones(grid.shape)), u0, kk),
        0.3, 0.005)
    energies = [epdiff.epdiff_energy(s.u, kk) for _, s in states]
    return max(abs(e - energies[0]) for e in energies) / energies[0], 1e-8


def _check_project_left_identity_translation(rng, grid, k):
    # the left projection pi(phi) is the pushforward of the uniform density
    uniform = ScalarField(grid, np.ones(grid.shape))
    zero_u = VectorField(grid, tuple(np.zeros(grid.shape)
                                     for _ in range(grid.dim)))
    ident = epdiff.identity_state(uniform, zero_u, max(k, 0))
    c = rng.uniform(0.0, 2 * np.pi, size=grid.dim)
    # the translation by c has the inverse map x - c
    q = tuple(np.full(grid.shape, -ci) for ci in c)
    trans = epdiff.DiffeoState(VectorField(grid, q), uniform, zero_u,
                               max(k, 0))
    errors = [np.abs(epdiff.pushforward_density(phi).values - 1.0).max()
              for phi in (ident, trans)]
    return max(errors), 1e-12


def _check_horizontality_constructed(rng, grid, k):
    kk = max(k, 0)
    rho = random_density(rng, grid)
    p = ScalarField(grid, random_band_limited(rng, grid))
    state = geodesic.make_state(grid, rho.values, p.values, kk)
    u = geodesic.horizontal_velocity(state)
    # the defect of a horizontal u is the roundoff of A u = rho grad p,
    # amplified by A: eps times A's largest value on the retained band
    ops = operators(grid, kk)
    flux = rho.values * gradient(state.p).components
    floor = (np.finfo(np.float64).eps * ops.a[ops.mask].max()
             * np.sqrt((flux ** 2).sum(axis=0).mean()))
    return epdiff.horizontality_defect(u, rho, kk), max(1e-10, floor)


def _check_field_file_roundtrip(rng, grid, k):
    f = ScalarField(grid, rng.normal(size=grid.shape))
    with tempfile.NamedTemporaryFile(suffix=".field") as tmp:
        io.write_field(tmp.name, f)
        back = io.read_field(tmp.name)
    exact = np.array_equal(back.values, f.values)
    return 0.0 if exact else 1.0, 0.0


def _check_matching_objective_zero(rng, grid, k):
    rho0 = random_density(rng, grid)
    problem = matching.MatchProblem(rho0, rho0, max(k, 1), 0.2, 0.02, 2)
    n = matching.n_coeffs(grid, 2)
    return abs(matching.objective(problem, np.zeros(n))), 0.0


CHECKS = [
    ("spectral-roundtrip", _check_spectral_roundtrip),
    ("grad-div-skew-adjoint", _check_grad_div_skew_adjoint),
    ("inertia-self-adjoint-positive", _check_inertia_self_adjoint_positive),
    ("multiplier-translation-equivariance",
     _check_multiplier_translation_equivariance),
    ("lrho-self-adjoint-positive", _check_lrho_self_adjoint_positive),
    ("solve-apply-roundtrip", _check_solve_apply_roundtrip),
    ("hamilton-jacobi-consistency", _check_hamilton_jacobi),
    ("mass-conservation", _check_mass_conservation),
    ("equilibrium-fixed-point", _check_equilibrium_fixed_point),
    ("shoot-translation-equivariance", _check_shoot_translation_equivariance),
    ("time-reversibility", _check_time_reversibility),
    ("epdiff-energy-conservation", _check_epdiff_energy),
    ("project-left-identity-translation",
     _check_project_left_identity_translation),
    ("horizontality-constructed", _check_horizontality_constructed),
    ("field-file-roundtrip", _check_field_file_roundtrip),
    ("matching-objective-zero", _check_matching_objective_zero),
]


def run_suite(dim: int = 1, n: int = 32, k: int = 1, seed: int = 0) -> dict:
    """Run every named invariant check; returns a machine-readable report.
    A check whose solver aborts has failed: it keeps the abort's message,
    with no measured value or tolerance, and the other checks still run."""
    grid = make_grid(dim, n)
    results = {}
    for name, fn in CHECKS:
        rng = np.random.default_rng([seed, zlib.crc32(name.encode())])
        try:
            measured, tol = fn(rng, grid, k)
        except geodesic.SolverAbort as exc:
            results[name] = {"passed": False, "measured": None,
                             "tolerance": None, "abort": str(exc)}
            continue
        results[name] = {
            "passed": bool(measured <= tol),
            "measured": float(measured),
            "tolerance": float(tol),
        }
    report = {
        "grid": {"dim": dim, "n": n},
        "k": k,
        "seed": seed,
        "checks": results,
        "all_passed": all(r["passed"] for r in results.values()),
    }
    return report
