"""Acceptance suite: one test per acceptance criterion.

Each test prints a PASS/FAIL line with the measured quantities so a plain
``pytest -v -s tests/test_acceptance.py`` run doubles as an acceptance report.
All thresholds are asserted, so the suite fails loudly if any criterion slips.
"""
import json
import os

import numpy as np
import pytest

from densgeo import cli, epdiff as ep, geodesic as ge, matching as ma, \
    spectral as sp


def report(criterion, passed, detail):
    verdict = "PASS" if passed else "FAIL"
    print(f"[acceptance] criterion {criterion}: {verdict} - {detail}",
          flush=True)
    assert passed, f"criterion {criterion}: {detail}"


def band_basis(grid):
    x = grid.coords[0]
    out = []
    for m in range(1, grid.n // 3 + 1):
        out.append(np.cos(m * x))
        out.append(np.sin(m * x))
    return out


def band_coeffs(basis, norms, values):
    return np.array([float((values * b).mean()) / nm
                     for b, nm in zip(basis, norms)])


def reference_state(n=64, k=1):
    grid = sp.make_grid(1, n)
    x = grid.coords[0]
    rho0 = sp.ScalarField(grid, 1 + 0.5 * np.cos(x))
    p0 = sp.ScalarField(grid, 0.2 * np.sin(x))
    return grid, rho0, p0, k


def energy_drift(traj):
    energies = np.array([d.energy for d in traj.diagnostics])
    return float(np.abs(energies - energies[0]).max() / energies[0])


def test_criterion_1_operator_oracle_equivalence():
    grid = sp.make_grid(1, 16)
    x = grid.coords[0]
    rho = sp.ScalarField(grid, 1 + 0.3 * np.cos(x))
    basis = band_basis(grid)
    norms = [float((b * b).mean()) for b in basis]
    p_vals = np.cos(x) + 0.5 * np.sin(2 * x) - 0.3 * np.cos(4 * x)
    worst_apply = worst_solve = worst_sym = 0.0
    min_eig = np.inf
    for k in (0, 1):
        mat = np.zeros((len(basis), len(basis)))
        for j, bj in enumerate(basis):
            out = ge.apply_L_rho(rho, sp.ScalarField(grid, bj), k).values
            mat[:, j] = band_coeffs(basis, norms, out)
        # symmetric bilinear form <L b_j, b_i>
        form = np.diag(norms) @ mat
        worst_sym = max(worst_sym, float(np.abs(form - form.T).max()))
        min_eig = min(min_eig, float(np.linalg.eigvalsh(
            0.5 * (form + form.T)).min()))
        # apply_L_rho against the dense matrix
        direct = ge.apply_L_rho(rho, sp.ScalarField(grid, p_vals), k).values
        via_mat = sum(c * b for c, b in zip(
            mat @ band_coeffs(basis, norms, p_vals), basis))
        worst_apply = max(worst_apply, float(
            np.abs(direct - via_mat).max() / np.abs(direct).max()))
        # solve_L_rho against the dense solve
        rhs = sp.ScalarField(grid, direct)
        sol = ge.solve_L_rho(rho, rhs, k).values
        dense_sol = sum(c * b for c, b in zip(
            np.linalg.solve(mat, band_coeffs(basis, norms, rhs.values)),
            basis))
        worst_solve = max(worst_solve, float(
            np.abs(sol - dense_sol).max() / np.abs(dense_sol).max()))
    report(1, worst_apply <= 1e-8 and worst_solve <= 1e-8
           and worst_sym <= 1e-10 and min_eig > 0.0,
           f"apply rel err {worst_apply:.2e} (<=1e-8), "
           f"solve rel err {worst_solve:.2e} (<=1e-8), "
           f"asymmetry {worst_sym:.2e} (<=1e-10), min eig {min_eig:.2e} (>0)")


def test_criterion_2_constant_density_symbol():
    worst = 0.0
    grid = sp.make_grid(1, 64)
    one = sp.ScalarField(grid, np.ones(grid.shape))
    x = grid.coords[0]
    for k in (0, 1, 2):
        for m in range(1, grid.n // 3 + 1):
            out = ge.apply_L_rho(one, sp.ScalarField(grid, np.cos(m * x)),
                                 k).values
            expected = m ** 2 / (1.0 + m ** 2) ** (k + 1)
            worst = max(worst, float(
                np.abs(out - expected * np.cos(m * x)).max() / expected))
    g2 = sp.make_grid(2, 16)
    x2, y2 = g2.coords
    one2 = sp.ScalarField(g2, np.ones(g2.shape))
    mode = np.cos(x2 + 2 * y2)
    out = ge.apply_L_rho(one2, sp.ScalarField(g2, mode), 1).values
    expected = 5.0 / 36.0  # |xi|^2 = 5, (1 + 5)^2 = 36
    worst = max(worst, float(np.abs(out - expected * mode).max() / expected))
    report(2, worst <= 1e-10,
           f"max relative symbol deviation {worst:.2e} (<=1e-10)")


def test_criterion_3_conservation_laws():
    grid, rho0, p0, k = reference_state()
    traj = ge.shoot(rho0, p0, k, 5.0, 1e-3, store_every=100)
    mass_err = max(abs(d.mass - 1.0) for d in traj.diagnostics)
    drift = energy_drift(traj)
    drifts = [energy_drift(ge.shoot(rho0, p0, k, 5.0, dt, store_every=10))
              for dt in (0.1, 0.05, 0.025)]
    orders = [np.log2(a / b) for a, b in zip(drifts, drifts[1:])]
    order = float(np.mean(orders))
    report(3, mass_err <= 1e-9 and drift <= 1e-8 and order >= 3.5,
           f"mass err {mass_err:.2e} (<=1e-9), energy drift {drift:.2e} "
           f"(<=1e-8), observed order {order:.2f} (>=3.5)")


def test_criterion_4_global_regime_smoke():
    grid, rho0, p0, k = reference_state()
    traj = ge.shoot(rho0, p0, k, 10.0, 1e-3, store_every=200)
    min_rho = min(d.min_rho for d in traj.diagnostics)
    max_tail = max(d.spectral_tail for d in traj.diagnostics)
    report(4, traj.times[-1] == pytest.approx(10.0) and min_rho >= 0.1
           and max_tail < 1e-6,
           f"completed T=10, min rho {min_rho:.3f} (>=0.1), "
           f"spectral tail {max_tail:.2e} (<1e-6)")


def test_criterion_5_submersion_cross_validation():
    grid, rho0, p0, k = reference_state()
    rep = ep.cross_validate(rho0, p0, k, 1.0, 1e-3)
    final = rep["l2_discrepancy_final"]
    defect = rep["horizontality_defect_max"]
    finals = [ep.cross_validate(rho0, p0, k, 1.0, dt)["l2_discrepancy_final"]
              for dt in (0.25, 0.125, 0.0625)]
    orders = [np.log2(a / b) for a, b in zip(finals, finals[1:])]
    order = float(np.mean(orders))
    report(5, final <= 1e-5 and defect <= 1e-6 and order >= 3.5,
           f"final discrepancy {final:.2e} (<=1e-5), horizontality defect "
           f"{defect:.2e} (<=1e-6), observed order {order:.2f} (>=3.5)")


def test_criterion_6_hamilton_jacobi_limit():
    grid = sp.make_grid(1, 64)
    x = grid.coords[0]
    one = sp.ScalarField(grid, np.ones(grid.shape))
    rng = np.random.default_rng(6)
    worst = 0.0
    for _ in range(20):
        p = np.zeros(grid.shape)
        for m in range(1, grid.n // 6 + 1):
            p += rng.normal() * np.cos(m * x) + rng.normal() * np.sin(m * x)
        state = ge.DensityState(one, sp.ScalarField(grid, p - p.mean()), -1)
        _, pdot = ge.hamiltonian_rhs(state)
        gradp = sp.gradient(state.p).components[0]
        expected = -gradp ** 2
        expected -= expected.mean()
        worst = max(worst, float(np.abs(pdot.values - expected).max()))
    report(6, worst <= 1e-10,
           f"max |pdot + P0 |grad p|^2| over 20 samples {worst:.2e} (<=1e-10)")


def test_criterion_7_time_reversibility():
    grid, rho0, p0, k = reference_state()
    errs = []
    for dt in (0.1, 0.05, 0.025):
        fwd = ge.shoot(rho0, p0, k, 1.0, dt, store_every=10 ** 9)
        end = fwd.states[-1]
        # back from (rho_T, p_T) is forward from (rho_T, -p_T)
        back = ge.shoot(end.rho, sp.ScalarField(grid, -end.p.values), k, 1.0,
                        dt, store_every=10 ** 9)
        errs.append(sp.l2_norm_values(back.states[-1].rho.values
                                      - rho0.values))
    orders = [np.log2(a / b) for a, b in zip(errs, errs[1:])]
    order = float(np.mean(orders))
    report(7, order >= 3.5,
           f"return errors {errs[0]:.2e}/{errs[1]:.2e}/{errs[2]:.2e}, "
           f"observed order {order:.2f} (>=3.5)")


def test_criterion_8_matching():
    grid = sp.make_grid(1, 32)
    x = grid.coords[0]
    # self-consistency: the target lies on a geodesic from a known p0*
    rho0 = sp.ScalarField(grid, 1 + 0.2 * np.cos(x))
    pstar = sp.ScalarField(grid, 0.1 * np.sin(x) + 0.05 * np.cos(2 * x))
    rho1 = ge.shoot(rho0, pstar, 1, 0.5, 0.02).states[-1].rho
    prob_sc = ma.MatchProblem(rho0, sp.ScalarField(grid, rho1.values),
                              1, 0.5, 0.02, 8,
                              ma.OptSettings(max_iter=300, grad_tol=1e-10))
    res_sc = ma.solve_match(prob_sc)
    # bump translation
    def bump(c, w=0.7, base=0.5):
        f = base + np.exp((np.cos(x - c) - 1) / w ** 2)
        return f / f.mean()

    prob_b = ma.MatchProblem(sp.ScalarField(grid, bump(np.pi - 0.8)),
                             sp.ScalarField(grid, bump(np.pi + 0.8)),
                             1, 1.0, 0.02, 8,
                             ma.OptSettings(max_iter=200, grad_tol=1e-10))
    res_b = ma.solve_match(prob_b)
    monotone = (np.all(np.diff(res_sc.objective_history) <= 0.0)
                and np.all(np.diff(res_b.objective_history) <= 0.0))
    # directional central differences converge at O(h^2), so consecutive
    # Richardson gaps shrink by ~4 per h-halving; the finest meets the exact
    # gradient
    rng = np.random.default_rng(8)
    n = ma.n_coeffs(grid, 8)
    coeffs = 0.05 * rng.normal(size=n)
    e = rng.normal(size=n)
    e /= np.linalg.norm(e)

    def directional(h):
        return (ma.objective(prob_b, coeffs + h * e)
                - ma.objective(prob_b, coeffs - h * e)) / (2 * h)

    d1, d2, d3 = directional(4e-3), directional(2e-3), directional(1e-3)
    fd_order = float(np.log2(abs(d1 - d2) / abs(d2 - d3)))
    grad_gap = abs(float(ma.objective_gradient(prob_b, coeffs) @ e) - d3)
    report(8, res_sc.final_l2_mismatch <= 1e-6
           and res_b.final_l2_mismatch <= 1e-3
           and len(res_b.objective_history) <= 201 and monotone
           and fd_order >= 1.5 and grad_gap < 1e-6,
           f"self-consistency mismatch {res_sc.final_l2_mismatch:.2e} "
           f"(<=1e-6), bump mismatch {res_b.final_l2_mismatch:.2e} (<=1e-3) "
           f"in {len(res_b.objective_history) - 1} iters, monotone={monotone}, "
           f"FD order {fd_order:.2f} (>=1.5), grad gap {grad_gap:.2e}")


def test_criterion_9_symmetry_suite():
    grid, rho0, p0, k = reference_state()
    x = grid.coords[0]
    shift = 9
    s = shift * grid.spacing
    # shoot equivariance
    traj = ge.shoot(rho0, p0, k, 0.5, 0.01, store_every=10 ** 9)
    moved = ge.shoot(
        sp.ScalarField(grid, sp.shift_values(grid, rho0.values, [shift])),
        sp.ScalarField(grid, sp.shift_values(grid, p0.values, [shift])),
        k, 0.5, 0.01, store_every=10 ** 9)
    shoot_err = float(np.abs(
        moved.states[-1].rho.values
        - sp.shift_values(grid, traj.states[-1].rho.values, [shift])).max())
    # epdiff equivariance of the inverse map, which f does not enter
    one = sp.ScalarField(grid, np.ones(grid.shape))
    u0 = sp.VectorField(grid, (sp.dealias(grid, 0.3 * np.sin(x)),))
    u0s = sp.VectorField(
        grid, (sp.shift_values(grid, u0.components[0], [shift]),))
    end = ep.integrate_epdiff(ep.identity_state(one, u0, k),
                              0.5, 0.01)[-1][1]
    end_s = ep.integrate_epdiff(ep.identity_state(one, u0s, k),
                                0.5, 0.01)[-1][1]
    ep_err = float(np.abs(
        end_s.q.components[0]
        - sp.shift_values(grid, end.q.components[0], [shift])).max())
    # matching objective invariance (rotate the trig coefficients exactly)
    g32 = sp.make_grid(1, 32)
    x32 = g32.coords[0]
    sh32 = 7
    s32 = sh32 * g32.spacing
    r0 = sp.ScalarField(g32, 1 + 0.2 * np.cos(x32))
    r1 = sp.ScalarField(g32, 1 + 0.2 * np.cos(x32 - 0.9))
    prob = ma.MatchProblem(r0, r1, 1, 0.5, 0.02, 4)
    prob_m = ma.MatchProblem(
        sp.ScalarField(g32, sp.shift_values(g32, r0.values, [sh32])),
        sp.ScalarField(g32, sp.shift_values(g32, r1.values, [sh32])),
        1, 0.5, 0.02, 4)
    rng = np.random.default_rng(9)
    coeffs = 0.1 * rng.normal(size=ma.n_coeffs(g32, 4))
    coeffs_m = coeffs.copy()
    for m in range(1, 5):
        c, sn = coeffs[2 * m - 2], coeffs[2 * m - 1]
        # cos(m(x-s)) = cos(ms) cos(mx) + sin(ms) sin(mx), likewise for sin
        coeffs_m[2 * m - 2] = c * np.cos(m * s32) - sn * np.sin(m * s32)
        coeffs_m[2 * m - 1] = c * np.sin(m * s32) + sn * np.cos(m * s32)
    match_err = abs(ma.objective(prob, coeffs)
                    - ma.objective(prob_m, coeffs_m))
    # equilibrium: constant p0 gives an exactly constant trajectory
    eq = ge.shoot(rho0, sp.ScalarField(grid, np.full(grid.shape, 2.0)),
                  k, 0.5, 0.01)
    exact = all(np.array_equal(st.rho.values, rho0.values)
                and np.all(st.p.values == 0.0) for st in eq.states)
    report(9, shoot_err <= 1e-10 and ep_err <= 1e-10 and match_err <= 1e-10
           and exact,
           f"shoot equivariance {shoot_err:.2e}, epdiff equivariance "
           f"{ep_err:.2e}, matching invariance {match_err:.2e} (all <=1e-10), "
           f"equilibrium exact={exact}")


def test_criterion_10_reproducibility(tmp_path):
    cfg = tmp_path / "validate.ini"
    cfg.write_text("[run]\nseed = 42\n[grid]\ndim = 1\nn = 32\n"
                   "[metric]\nk = 1\n")
    blobs = []
    for name in ("a", "b"):
        out = str(tmp_path / name)
        rc = cli.main(["validate", "--config", str(cfg),
                       "--output-dir", out, "--quiet"])
        assert rc == 0
        with open(os.path.join(out, "validation.json"), "rb") as fh:
            blobs.append(fh.read())
    identical = blobs[0] == blobs[1]
    all_passed = json.loads(blobs[0])["all_passed"]
    report(10, identical and all_passed,
           f"bitwise identical reports={identical}, all checks "
           f"passed={all_passed}")
