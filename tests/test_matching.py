import ast
import inspect
import weakref
from dataclasses import astuple
from functools import partial

import numpy as np
import pytest

from densgeo import geodesic as ge, matching as ma, spectral as sp


def grid1d(n=32):
    return sp.make_grid(1, n)


def make_problem(grid, rho1_vals=None, **kw):
    x = grid.coords[0]
    rho0 = sp.ScalarField(grid, 1 + 0.2 * np.cos(x))
    if rho1_vals is None:
        rho1_vals = rho0.values
    defaults = dict(k=1, T=0.5, dt=0.02, n_modes=4)
    defaults.update(kw)
    return ma.MatchProblem(rho0, sp.ScalarField(grid, rho1_vals), **defaults)


class TestObjective:
    def test_zero_at_identical_targets(self):
        problem = make_problem(grid1d())
        n = ma.n_coeffs(problem.grid, problem.n_modes)
        assert ma.objective(problem, np.zeros(n)) == 0.0

    def test_positive_for_translated_target(self):
        g = grid1d()
        x = g.coords[0]
        rho0 = 1 + 0.2 * np.cos(x)
        problem = make_problem(g, rho1_vals=1 + 0.2 * np.cos(x - 0.5))
        n = ma.n_coeffs(g, problem.n_modes)
        j = ma.objective(problem, np.zeros(n))
        expected = 0.5 * (((rho0 - (1 + 0.2 * np.cos(x - 0.5))) ** 2).mean())
        assert j == pytest.approx(expected, rel=1e-12)

    def test_translation_invariance(self):
        g = grid1d()
        x = g.coords[0]
        shift = 7
        problem = make_problem(g, rho1_vals=1 + 0.2 * np.cos(x - 0.9))
        moved = ma.MatchProblem(
            sp.ScalarField(g, sp.shift_values(g, problem.rho0.values, [shift])),
            sp.ScalarField(g, sp.shift_values(g, problem.rho1.values, [shift])),
            problem.k, problem.T, problem.dt, problem.n_modes)
        rng = np.random.default_rng(0)
        coeffs = 0.1 * rng.normal(size=ma.n_coeffs(g, 4))
        # translate the p0 parametrization along with the data
        p_moved = sp.shift_values(
            g, ma.p_from_coeffs(problem, coeffs).values, [shift])
        basis = [ma.p_from_coeffs(problem, e).values
                 for e in np.eye(len(coeffs))]
        gram = np.array([[float((a * b).mean()) for b in basis] for a in basis])
        rhs = np.array([float((b * p_moved).mean()) for b in basis])
        coeffs_moved = np.linalg.solve(gram, rhs)
        assert abs(ma.objective(problem, coeffs)
                   - ma.objective(moved, coeffs_moved)) < 1e-10

    def test_abort_raises_the_shoots_time(self):
        # 2 of these 5 momenta abort the shoot before T, at t = 0.06 and
        # 0.87; the other 3 reach T, and T = 5 too
        problem = violent_problem(T=1.0)
        rows = np.zeros((5, 4))
        rows[:, 1] = [0.0, 5.0, 0.01, 0.3, 0.03]
        rows[:, 2] = [0.0, 0.1, -0.002, 0.0, 0.001]
        aborts = 0
        for row in rows:
            try:
                traj = ge.shoot(problem.rho0, ma.p_from_coeffs(problem, row),
                                problem.k, problem.T, problem.dt)
            except ge.SolverAbort as exc:
                aborts += 1
                with pytest.raises(ge.SolverAbort) as info:
                    ma.objective(problem, row)
                assert info.value.time == exc.time
            else:
                r = traj.states[-1].rho.values - problem.rho1.values
                assert ma.objective(problem, row) == 0.5 * np.mean(r ** 2)
        assert aborts == 2


def reference_basis(grid, n_modes):
    """The half-space wave vectors by their defining loops, and the grid
    fields of the coefficients by formula: cos(m . x), then sin(m . x), of
    each wave vector in turn."""
    if grid.dim == 1:
        modes = [(m,) for m in range(1, n_modes + 1)]
    else:
        modes = [(m1, m2) for m1 in range(0, n_modes + 1)
                 for m2 in range(-n_modes, n_modes + 1) if m1 > 0 or m2 > 0]
    fields = []
    for mode in modes:
        phase = sum(m * x for m, x in zip(mode, grid.coords))
        fields += [np.cos(phase), np.sin(phase)]
    return np.array(modes), np.array(fields)


@pytest.mark.parametrize("dim,n_modes", [(1, 10), (2, 4)])
def test_unit_placements_are_the_cos_sin_fields(dim, n_modes):
    # in 2-D the modes include m2 < 0 ones, held as the conjugate entry at
    # -m, and m2 = 0 ones, whose column-0 entries at m and -m are both set
    g = sp.make_grid(dim, 32)
    modes, reference = reference_basis(g, n_modes)
    assert np.array_equal(ma.half_space_modes(g, n_modes), modes)
    n = ma.n_coeffs(g, n_modes)
    assert n == len(reference)
    if dim == 2:
        assert (modes[:, 1] < 0).any() and (modes[:, 1] == 0).any()
    p_hat = ma.momentum_hat(g, n_modes, np.eye(n))
    assert p_hat.shape == (n,) + sp.operators(g).band.mask.shape
    assert np.all(p_hat[(Ellipsis,) + (0,) * dim] == 0.0)
    fields = sp.operators(g).band.ifft(p_hat)
    assert np.abs(fields - reference).max() <= 1e-14


def violent_problem(T=5.0, **kw):
    """k = -1 with steep data: strong sin(x) momenta abort the shoot."""
    g = grid1d()
    x = g.coords[0]
    rho0 = sp.ScalarField(g, (1 + 0.9 * np.cos(x))
                          / (1 + 0.9 * np.cos(x)).mean())
    return ma.MatchProblem(rho0, rho0, -1, T, 0.01, 2, **kw)


class TestObjectiveGradient:
    def test_zero_at_global_minimum(self):
        problem = make_problem(grid1d())
        n = ma.n_coeffs(problem.grid, problem.n_modes)
        assert np.all(ma.objective_gradient(problem, np.zeros(n)) == 0.0)

    def test_agrees_with_richardson_difference(self):
        # the central differences of J along e at h and h / 2, extrapolated
        # to O(h^4): they agree to about 2e-15 here, and the bound 1e-12 is
        # far inside criterion 8's 1e-6
        g = grid1d()
        x = g.coords[0]
        problem = make_problem(g, rho1_vals=1 + 0.2 * np.cos(x - 0.4))
        rng = np.random.default_rng(2)
        n = ma.n_coeffs(g, problem.n_modes)
        coeffs = 0.05 * rng.normal(size=n)
        e = rng.normal(size=n)
        e /= np.linalg.norm(e)

        def directional(h):
            return (ma.objective(problem, coeffs + h * e)
                    - ma.objective(problem, coeffs - h * e)) / (2 * h)

        richardson = (4 * directional(1e-3) - directional(2e-3)) / 3.0
        grad = ma.objective_gradient(problem, coeffs)
        assert abs(float(grad @ e) - richardson) <= 1e-12

    def test_norm_at_rest_is_lms_first_grad_norm(self):
        g = grid1d()
        problem = make_problem(g, rho1_vals=1 + 0.2 * np.cos(g.coords[0] - 0.6),
                               opt=ma.OptSettings(max_iter=1))
        n = ma.n_coeffs(g, problem.n_modes)
        grad = ma.objective_gradient(problem, np.zeros(n))
        gnorm = ma.solve_match(problem).history_rows[0][2]
        assert float(np.linalg.norm(grad)) == gnorm

    def test_abort_raises_the_shoots_time(self):
        problem = violent_problem()
        coeffs = np.zeros(4)
        coeffs[1] = 5.0
        with pytest.raises(ge.SolverAbort) as residual_abort:
            ma._residual(problem, coeffs)
        with pytest.raises(ge.SolverAbort) as info:
            ma.objective_gradient(problem, coeffs)
        assert info.value.time == residual_abort.value.time
        assert str(info.value) == str(residual_abort.value)

    def test_nonfinite_tangent_names_the_coefficient(self, monkeypatch):
        g = grid1d()
        problem = make_problem(g, rho1_vals=1 + 0.2 * np.cos(g.coords[0] - 0.6))
        jacobian = ma._jacobian

        def bad_row(*args):
            jac = jacobian(*args)
            jac[3, 5] = np.inf
            return jac

        monkeypatch.setattr(ma, "_jacobian", bad_row)
        with pytest.raises(ge.SolverAbort, match=r"coefficient 3\b"):
            ma.objective_gradient(problem, np.full(8, 0.01))


def fd_jacobian(problem, coeffs, h=1e-5):
    """The central-difference residual Jacobian (n_coeffs, N), steps
    h * max(1, |c_i|)."""
    steps = h * np.maximum(1.0, np.abs(coeffs))
    jac = np.empty((len(coeffs), problem.grid.npoints))
    for i, shift in enumerate(np.diag(steps)):
        diff = (ma._residual(problem, coeffs + shift)[0]
                - ma._residual(problem, coeffs - shift)[0])
        jac[i] = diff.ravel() / (2.0 * steps[i])
    return jac


def mean_free_basis(problem):
    """The momenta of the unit coefficient vectors, as masked band spectra
    (n_coeffs, *band.mask.shape) with the mean entry zeroed: the transforms
    of their grid fields, not `momentum_hat`'s placements."""
    n = ma.n_coeffs(problem.grid, problem.n_modes)
    band = sp.operators(problem.grid).band
    dp = np.array([ma.p_from_coeffs(problem, e).values for e in np.eye(n)])
    dp_hat = band.fft(dp) * band.mask
    dp_hat[band.zero] = 0.0
    return dp_hat


def tangent_problem(dim):
    """A translated target: 8 coefficients in 1-D (n 32, k 1), 24 in 2-D
    (n 16, k 2)."""
    if dim == 1:
        g = grid1d()
        return make_problem(g, rho1_vals=1 + 0.2 * np.cos(g.coords[0] - 0.4))
    g = sp.make_grid(2, 16)
    coords = g.coords
    rho0 = 1 + 0.2 * np.prod(np.cos(coords), axis=0)
    rho1 = 1 + 0.2 * np.prod(np.cos(coords - 0.3), axis=0)
    return ma.MatchProblem(sp.ScalarField(g, rho0 / rho0.mean()),
                           sp.ScalarField(g, rho1 / rho1.mean()),
                           2, 0.5, 0.05, 2)


def tangent_point(problem, at):
    """c = 0 (at rest) or a small random c (moving)."""
    n = ma.n_coeffs(problem.grid, problem.n_modes)
    if at == "rest":
        return np.zeros(n)
    return 0.1 * np.random.default_rng(5).normal(size=n)


@pytest.mark.parametrize("dim", [1, 2])
class TestTangentJacobian:
    @pytest.mark.parametrize("at", ["rest", "moving"])
    def test_agrees_with_fd_jacobian(self, dim, at):
        problem = tangent_problem(dim)
        coeffs = tangent_point(problem, at)
        fd = fd_jacobian(problem, coeffs)
        jac = ma._jacobian(problem, coeffs)
        assert np.linalg.norm(jac - fd) <= 1e-6 * np.linalg.norm(fd)

    @pytest.mark.parametrize("at", ["rest", "moving"])
    def test_taylor_remainder_is_second_order(self, dim, at):
        problem = tangent_problem(dim)
        coeffs = tangent_point(problem, at)
        d = np.random.default_rng(6).normal(size=len(coeffs))
        r = ma._residual(problem, coeffs)[0]
        jd = d @ ma._jacobian(problem, coeffs)
        remainders = []
        for eps in (1e-2, 1e-3, 1e-4):
            r_eps = ma._residual(problem, coeffs + eps * d)[0]
            remainders.append(np.linalg.norm((r_eps - r).ravel() - eps * jd))
        ratios = np.array(remainders[:-1]) / remainders[1:]
        assert np.all((70.0 < ratios) & (ratios < 130.0)), ratios

    def test_rest_shortcut_equals_integrated_tangent(self, dim):
        problem = tangent_problem(dim)
        coeffs = tangent_point(problem, "rest")
        shortcut = ma._jacobian(problem, coeffs)
        # the same tangents stepped through the time loop from rest
        basis = mean_free_basis(problem)
        ops = sp.operators(problem.grid, problem.k)
        base = ge._state_rows(ops.band, problem.rho0.values,
                              np.zeros(problem.grid.shape))
        tangents = ge._rows(ops.band,
                            np.zeros((len(basis),) + problem.grid.shape),
                            basis)
        y = np.concatenate((base[None], tangents))
        for _, y, _ in ge.flow(partial(ge.step_rk4, ops), y, problem.T,
                               problem.dt):
            pass
        integrated = ge._split(ops.band, y[1:])[0].reshape(len(basis), -1)
        assert np.abs(integrated - shortcut).max() <= (
            1e-13 * np.abs(shortcut).max())

    def test_base_endpoint_equals_shoot_endpoints(self, dim):
        problem = tangent_problem(dim)
        coeffs = tangent_point(problem, "moving")
        p = ma.p_from_coeffs(problem, coeffs)
        rho_T, _, _ = ge.shoot_tangents(problem.rho0, p.values,
                                        mean_free_basis(problem), problem.k,
                                        problem.T, problem.dt)
        traj = ge.shoot(problem.rho0, p, problem.k, problem.T, problem.dt)
        assert np.array_equal(rho_T, traj.states[-1].rho.values)

    @pytest.mark.parametrize("at", ["rest", "moving"])
    def test_split_stacks_equal_one_stack(self, dim, at, monkeypatch):
        problem = tangent_problem(dim)
        coeffs = tangent_point(problem, at)
        whole = ma._jacobian(problem, coeffs)
        # the base and 5 tangents per stack: 8 = 5 + 3, 24 = 4 * 5 + 4
        monkeypatch.setattr(ma, "MAX_STACK_POINTS", 6 * problem.grid.npoints)
        assert np.array_equal(ma._jacobian(problem, coeffs), whole)


def test_residual_abort_times_are_the_shoots():
    # violent_problem's data over T = 1: sin(x) momenta above about 0.3
    # abort before T
    rho0 = violent_problem().rho0
    problem = ma.MatchProblem(rho0, rho0, -1, 1.0, 0.02, 2)
    rows = np.zeros((3, 4))
    rows[:, 1] = [5.0, 0.1, 0.8]
    aborts = 0
    for row in rows:
        p0 = ma.p_from_coeffs(problem, row)
        try:
            traj = ge.shoot(problem.rho0, p0, problem.k, problem.T,
                            problem.dt)
        except ge.SolverAbort as exc:
            aborts += 1
            with pytest.raises(ge.SolverAbort) as info:
                ma._residual(problem, row)
            assert info.value.time == exc.time
            assert str(info.value) == str(exc)
        else:
            assert np.array_equal(ma._residual(problem, row)[0],
                                  traj.states[-1].rho.values
                                  - problem.rho1.values)
    assert 0 < aborts < len(rows)


def test_jacobian_base_abort_raises_at_its_time():
    problem = violent_problem()
    coeffs = np.zeros(4)
    coeffs[1] = 5.0
    with pytest.raises(ge.SolverAbort) as residual_abort:
        ma._residual(problem, coeffs)
    with pytest.raises(ge.SolverAbort) as info:
        ma._jacobian(problem, coeffs)
    assert info.value.time == residual_abort.value.time


class TestSolveMatch:
    def test_identical_targets_converges_immediately(self):
        problem = make_problem(grid1d())
        result = ma.solve_match(problem)
        assert result.status == "converged"
        assert len(result.objective_history) == 1
        assert np.all(result.p0.values == 0.0)

    def test_start_takes_no_shoot(self, monkeypatch):
        # the flow from c = 0 rests, so J(0) comes without a shoot and equals
        # the shot value bit for bit
        g = grid1d()
        problem = make_problem(g, rho1_vals=1 + 0.2 * np.cos(g.coords[0] - 0.6),
                               opt=ma.OptSettings(max_iter=3))
        shot = []
        residual = ma._residual

        def spy(problem, coeffs, dp=None):
            shot.append(np.array(coeffs))
            return residual(problem, coeffs, dp)

        monkeypatch.setattr(ma, "_residual", spy)
        result = ma.solve_match(problem)
        assert shot and all(coeffs.any() for coeffs in shot)
        r = problem.rho0.values - problem.rho1.values
        assert result.objective_history[0] == 0.5 * np.mean(r ** 2)
        assert result.objective_history[0] == ma.objective(problem,
                                                           np.zeros(8))

    def test_self_consistency_recovers_endpoint(self):
        g = grid1d()
        x = g.coords[0]
        rho0 = sp.ScalarField(g, 1 + 0.2 * np.cos(x))
        pstar = 0.1 * np.sin(x) + 0.05 * np.cos(2 * x)
        traj = ge.shoot(rho0, sp.ScalarField(g, pstar), 1, 0.5, 0.02)
        rho1 = traj.states[-1].rho
        problem = ma.MatchProblem(
            rho0, sp.ScalarField(g, rho1.values), 1, 0.5, 0.02, 4,
            ma.OptSettings(max_iter=300, grad_tol=1e-10))
        result = ma.solve_match(problem)
        assert result.final_l2_mismatch < 1e-6

    def test_history_monotone(self):
        g = grid1d()
        x = g.coords[0]
        problem = make_problem(g, rho1_vals=1 + 0.2 * np.cos(x - 0.6),
                               opt=ma.OptSettings(max_iter=20))
        result = ma.solve_match(problem)
        assert np.all(np.diff(result.objective_history) <= 0.0)

    def test_deterministic(self):
        g = grid1d()
        x = g.coords[0]
        problem = make_problem(g, rho1_vals=1 + 0.2 * np.cos(x - 0.6),
                               opt=ma.OptSettings(max_iter=10))
        r1 = ma.solve_match(problem)
        r2 = ma.solve_match(problem)
        assert np.array_equal(r1.coeffs, r2.coeffs)
        assert np.array_equal(r1.objective_history, r2.objective_history)

    @pytest.mark.parametrize("failure", ["abort", "nan"])
    def test_jacobian_failure_ends_stalled_at_best_seen(self, failure,
                                                        monkeypatch):
        # the first Jacobian fails: its base aborts, or a tangent is NaN
        g = grid1d()
        problem = make_problem(g, rho1_vals=1 + 0.2 * np.cos(g.coords[0] - 0.6),
                               n_modes=2)
        shoot_tangents = ge.shoot_tangents

        def failing(*args, **kwargs):
            if failure == "abort":
                raise ge.SolverAbort("t=0.02: positivity lost", time=0.02)
            rho_T, drho_T, rows = shoot_tangents(*args, **kwargs)
            drho_T[1, 3] = np.nan
            return rho_T, drho_T, rows

        monkeypatch.setattr(ge, "shoot_tangents", failing)
        result = ma.solve_match(problem)
        assert result.status == "stalled"
        assert np.array_equal(result.coeffs, np.zeros(4))
        assert len(result.objective_history) == 1
        assert result.history_rows == []

    def test_local_regime_warning_once_per_solve(self, caplog):
        g = grid1d()
        x = g.coords[0]
        counts = []
        for max_iter in (1, 3):
            problem = make_problem(g, rho1_vals=1 + 0.2 * np.cos(x - 0.6),
                                   k=-1, opt=ma.OptSettings(max_iter=max_iter))
            caplog.clear()
            with caplog.at_level("WARNING", logger="densgeo.geodesic"):
                result = ma.solve_match(problem)
            assert len(result.history_rows) == max_iter
            counts.append(sum("local regime" in r.getMessage()
                              for r in caplog.records))
        assert counts[0] == counts[1] == 1

    @pytest.mark.parametrize("k,warnings", [(1, 1), (2, 0)])
    def test_local_regime_warning_follows_the_dimension(self, k, warnings,
                                                        caplog):
        """On T^2 the regime is global only for k > 1."""
        g = sp.make_grid(2, 16)
        x, y = g.coords
        rho0 = sp.ScalarField(g, 1 + 0.2 * np.cos(x) * np.cos(y))
        problem = ma.MatchProblem(rho0, rho0, k, 0.5, 0.05, 2,
                                  ma.OptSettings(max_iter=0))
        with caplog.at_level("WARNING", logger="densgeo.geodesic"):
            ma.solve_match(problem)
        assert sum("local regime on T^2" in r.getMessage()
                   for r in caplog.records) == warnings


def bump_problem():
    """The bump translation of acceptance criterion 8: 16 coefficients, 14
    accepted trials, some iterations won by a retry."""
    g = grid1d()
    x = g.coords[0]

    def bump(c, w=0.7, base=0.5):
        f = base + np.exp((np.cos(x - c) - 1) / w ** 2)
        return sp.ScalarField(g, f / f.mean())

    return ma.MatchProblem(bump(np.pi - 0.8), bump(np.pi + 0.8), 1, 1.0,
                           0.02, 8, ma.OptSettings(grad_tol=1e-10))


def self_consistent_problem(dim, **kw):
    """A target reached by a low-mode momentum, as in the benchmark's
    match-1d: 1-D n 32, k 1, 3 modes (6 coefficients), T 0.5, dt 0.02 (25
    steps), converged after 2 accepted trials; 2-D n 16, k 2, 2 modes (24
    coefficients, one stack), T 0.5, dt 0.05."""
    if dim == 1:
        g = grid1d()
        x = g.coords[0]
        rho0 = sp.ScalarField(g, 1 + 0.2 * np.cos(x))
        pstar = 0.1 * np.sin(x) + 0.05 * np.cos(2 * x)
        args = (1, 0.5, 0.02, 3)
    else:
        g = sp.make_grid(2, 16)
        x, y = g.coords
        rho0 = 1 + 0.2 * np.cos(x) * np.cos(y)
        rho0 = sp.ScalarField(g, rho0 / rho0.mean())
        pstar = 0.1 * np.sin(x) + 0.05 * np.cos(y) + 0.03 * np.sin(x + y)
        args = (2, 0.5, 0.05, 2)
    rho1 = ge.shoot(rho0, sp.ScalarField(g, pstar), *args[:3]).states[-1].rho
    return ma.MatchProblem(rho0, sp.ScalarField(g, rho1.values), *args, **kw)


def steep_problem(dt=0.02, **kw):
    """k = -1 with steep data, 4 coefficients: at dt 0.02 the first
    Gauss-Newton trial aborts, and a retry wins the first iteration."""
    g = grid1d()
    x = g.coords[0]

    def steep(c):
        f = 1 + 0.9 * np.cos(x - c)
        return sp.ScalarField(g, f / f.mean())

    return ma.MatchProblem(steep(0.0), steep(1.0), -1, 1.0, dt, 2, **kw)


def lm_end(case, monkeypatch):
    """A match that ends each way that decides which record it keeps:
    criterion 8's bump converges; the steep data at dt 0.2 stall at a
    repeated trial after 66 accepted ones; the bump with one trial per
    iteration stalls after 2 accepted, its trials spent; and a NaN tangent
    carried by the first accepted trial stalls the next Jacobian."""
    if case == "criterion-8":
        return bump_problem()
    if case == "stall-repeated":
        return steep_problem(dt=0.2)
    if case == "stall-trials":
        monkeypatch.setattr(ma, "LM_MAX_TRIALS", 1)
        return bump_problem()
    assert case == "stall-jacobian"
    away = []
    shoot_tangents = ge.shoot_tangents

    def failing(rho0, p0, *args, **kwargs):
        rho_T, drho_T, rows = shoot_tangents(rho0, p0, *args, **kwargs)
        if p0.any():
            away.append(p0)
            if len(away) == 1 and len(drho_T):
                drho_T[1, 3] = np.nan
        return rho_T, drho_T, rows

    monkeypatch.setattr(ge, "shoot_tangents", failing)
    return self_consistent_problem(1)


class TestLevenbergMarquardt:
    def test_bump_translation_converges(self):
        problem = bump_problem()
        result = ma.solve_match(problem)
        assert result.status == "converged"
        assert len(result.objective_history) - 1 <= 30
        assert np.all(np.diff(result.objective_history) < 0.0)

    def test_aborting_trial_is_rejected(self, monkeypatch):
        problem = steep_problem(opt=ma.OptSettings(max_iter=3))
        trial_aborts = []
        residual = ma._residual

        def spy(problem, coeffs, dp=None):
            try:
                r = residual(problem, coeffs, dp)
            except ge.SolverAbort:
                trial_aborts.append(True)
                raise
            trial_aborts.append(False)
            return r

        monkeypatch.setattr(ma, "_residual", spy)
        result = ma.solve_match(problem)
        # trial_aborts[0] is the first trial: the start c = 0 takes no shoot
        assert trial_aborts[:1] == [True]
        assert result.history_rows[0][3] > ma.LM_LAMBDA0
        assert np.all(np.diff(result.objective_history) < 0.0)
        assert max(result.objective_history) < 1.0
        assert result.status == "max_iter"
        assert len(result.history_rows) == 3

    def test_stalls_at_the_first_repeated_trial(self, monkeypatch):
        # the steep data run to the objective's noise floor: after 65
        # accepted steps lambda is so small that raising it no longer
        # changes the step, and a repeated trial is rejected again
        problem = steep_problem(dt=0.2)
        trials = []
        residual = ma._residual

        def spy(problem, coeffs, dp=None):
            trials.append(np.array(coeffs))
            return residual(problem, coeffs, dp)

        monkeypatch.setattr(ma, "_residual", spy)
        result = ma.solve_match(problem)
        assert result.status == "stalled"
        assert result.history_rows[-1][2] > problem.opt.grad_tol
        assert not any(np.array_equal(a, b)
                       for a, b in zip(trials, trials[1:]))

    @pytest.mark.parametrize("case", ["criterion-8", "stall-repeated",
                                      "stall-trials"])
    def test_one_record_at_a_time(self, case, monkeypatch):
        """Whenever a shoot runs inside solve_match, at most one record
        (the rows `shoot_tangents` returns when recording) is alive: the
        shoot's own, or, while a Jacobian is shot, the accepted trial's."""
        problem = lm_end(case, monkeypatch)
        records, alive = [], []  # weak references to every record's rows
        shoot_tangents = ge.shoot_tangents

        def counted(*args, record=False):
            alive.append(sum(rows() is not None for rows in records) + record)
            out = shoot_tangents(*args, record=record)
            if out[2] is not None:
                records.append(weakref.ref(out[2]))
            return out

        monkeypatch.setattr(ge, "shoot_tangents", counted)
        result = ma.solve_match(problem)
        assert result.status == (
            "converged" if case == "criterion-8" else "stalled")
        assert len(records) > 2
        assert max(alive) == 1

    def test_2d_self_consistency(self):
        problem = self_consistent_problem(
            2, opt=ma.OptSettings(grad_tol=1e-10))
        assert ma.n_coeffs(problem.grid, 2) == 24
        result = ma.solve_match(problem)
        assert result.status == "converged"
        assert result.final_l2_mismatch <= 1e-6


class TestCarriedTangents:
    """The first trial of an iteration carries the next Jacobian's tangents
    when they fit one stack; an accepted one is not shot again."""

    def test_match_1d_size_takes_two_time_loops(self, monkeypatch):
        # 2 trials, each carrying its Jacobian; the Jacobian at c = 0 takes
        # no time loop, and the final geodesic is the last trial's record
        problem = self_consistent_problem(1)
        loops, steps = [], []
        flow = ge.flow

        def counted(step, *args, **kw):
            loops.append(1)

            def counted_step(y, dt):
                steps.append(1)
                return step(y, dt)

            return flow(counted_step, *args, **kw)

        monkeypatch.setattr(ge, "flow", counted)
        result = ma.solve_match(problem)
        assert result.status == "converged"
        assert len(result.history_rows) == 3
        assert (len(loops), len(steps)) == (2, 50)

    @pytest.mark.parametrize("dim", [1, 2])
    def test_carried_jacobian_equals_jacobian(self, dim, monkeypatch):
        problem = self_consistent_problem(dim)
        trials, checked, shot_at = [], [], []
        residual, check, jacobian = (ma._residual, ma._check_tangents,
                                     ma._jacobian)

        def spy_residual(problem, coeffs, dp=None):
            out = residual(problem, coeffs, dp)
            trials.append((np.array(coeffs), out[1]))
            return out

        def spy_jacobian(problem, coeffs):
            shot_at.append(np.array(coeffs))
            return jacobian(problem, coeffs)

        monkeypatch.setattr(ma, "_residual", spy_residual)
        monkeypatch.setattr(ma, "_check_tangents",
                            lambda jac: checked.append(jac) or check(jac))
        monkeypatch.setattr(ma, "_jacobian", spy_jacobian)
        result = ma.solve_match(problem)
        assert result.status == "converged"
        carried = [(coeffs, jac) for coeffs, jac in trials
                   if any(jac is c for c in checked)]
        assert len(carried) == len(result.history_rows) - 1 >= 2
        assert len(shot_at) == 1 and not shot_at[0].any()  # c = 0 only
        for coeffs, jac in carried:
            assert jac.shape == (len(coeffs), problem.grid.npoints)
            assert np.array_equal(jac, jacobian(problem, coeffs))

    def test_nan_in_a_carried_tangent_ends_stalled(self, monkeypatch):
        # the first shoot away from rest is the first trial; it is accepted,
        # and its carried Jacobian has a NaN tangent
        problem = self_consistent_problem(1)
        away = []
        shoot_tangents = ge.shoot_tangents

        def failing(rho0, p0, *args, **kwargs):
            rho_T, drho_T, rows = shoot_tangents(rho0, p0, *args, **kwargs)
            if p0.any():
                away.append(p0)
                if len(away) == 1 and len(drho_T):
                    drho_T[1, 3] = np.nan
            return rho_T, drho_T, rows

        monkeypatch.setattr(ge, "shoot_tangents", failing)
        result = ma.solve_match(problem)
        assert result.status == "stalled"
        assert np.array_equal(ma.p_from_coeffs(problem, result.coeffs).values,
                              away[0])
        # as a match stopped after the accepted trial, with no row for the
        # iteration whose Jacobian failed
        monkeypatch.setattr(ge, "shoot_tangents", shoot_tangents)
        one = ma.solve_match(self_consistent_problem(
            1, opt=ma.OptSettings(max_iter=1)))
        assert np.array_equal(result.coeffs, one.coeffs)
        assert np.array_equal(result.objective_history, one.objective_history)
        assert result.history_rows == one.history_rows
        assert len(result.history_rows) == 1

    def test_two_stack_path_takes_the_same_steps(self, monkeypatch):
        # criterion 8's bump, whose rejected first trials are retried with
        # plain shoots, against a stack bound that splits its 16 tangents
        # over two stacks: plain trials, and _jacobian at every iteration
        def run(max_stack_points):
            monkeypatch.setattr(ma, "MAX_STACK_POINTS", max_stack_points)
            tangents, jacobians = [], []
            residual, jacobian = ma._residual, ma._jacobian

            def spy_residual(problem, coeffs, dp=None):
                tangents.append(len(dp))
                return residual(problem, coeffs, dp)

            def spy_jacobian(problem, coeffs):
                jacobians.append(1)
                return jacobian(problem, coeffs)

            monkeypatch.setattr(ma, "_residual", spy_residual)
            monkeypatch.setattr(ma, "_jacobian", spy_jacobian)
            result = ma.solve_match(bump_problem())
            monkeypatch.setattr(ma, "_residual", residual)
            monkeypatch.setattr(ma, "_jacobian", jacobian)
            return result, tangents, len(jacobians)

        problem = bump_problem()
        assert ma.n_coeffs(problem.grid, problem.n_modes) == 16
        assert ma._per_stack(problem.grid) >= 16
        one, one_tangents, one_jacobians = run(ma.MAX_STACK_POINTS)
        two, two_tangents, two_jacobians = run(9 * problem.grid.npoints)
        assert np.array_equal(one.objective_history, two.objective_history)
        assert np.array_equal(one.coeffs, two.coeffs)
        assert one.history_rows == two.history_rows
        assert one.status == two.status == "converged"
        # one stack: the first trial of each iteration carries 16 tangents
        # and its retries none; a retry's win re-shoots the Jacobian
        iterations = len(one.history_rows) - 1
        assert one_tangents[0] == 16
        assert set(one_tangents) == {0, 16}
        assert one_tangents.count(16) == iterations < len(one_tangents)
        assert 1 < one_jacobians < len(one.history_rows)
        # two stacks: every trial is plain
        assert set(two_tangents) == {0}
        assert len(two_tangents) == len(one_tangents)
        assert two_jacobians == len(two.history_rows)


class TestFinalGeodesic:
    """The final geodesic is the last accepted trial's record, summarized
    in stacks by `geodesic.summarize`, which summarizes `geodesic.shoot`'s
    states one at a time: its times, diagnostics and final state are, bit
    for bit, those of the shoot of the returned coefficients. A match that
    accepted no trial rests at rho0, in 1-D and 2-D."""

    @pytest.mark.parametrize("case", ["match-1d", "retry", "max_iter=0",
                                      "2d-max_iter=0", "2d", "2d-stacks"])
    def test_equals_the_shoot_of_the_coefficients(self, case, monkeypatch):
        if case == "match-1d":
            problem = self_consistent_problem(1)
        elif case == "retry":
            problem = steep_problem(opt=ma.OptSettings(max_iter=1))
        elif case.endswith("max_iter=0"):
            problem = self_consistent_problem(
                2 if case.startswith("2d") else 1,
                opt=ma.OptSettings(max_iter=0))
        else:
            problem = self_consistent_problem(
                2, opt=ma.OptSettings(max_iter=2))
        if case == "2d-stacks":
            # 8 tangents per stack for 24 coefficients: every trial is plain
            monkeypatch.setattr(ma, "MAX_STACK_POINTS",
                                9 * problem.grid.npoints)
        trials = []
        residual = ma._residual

        def spy(problem, coeffs, dp=None):
            trials.append((np.array(coeffs), len(dp)))
            return residual(problem, coeffs, dp)

        monkeypatch.setattr(ma, "_residual", spy)
        result = ma.solve_match(problem)
        accepted = [m for coeffs, m in trials
                    if np.array_equal(coeffs, result.coeffs)]
        if case == "match-1d":
            assert result.status == "converged"
            assert accepted == [len(result.coeffs)]
        elif case == "retry":
            assert len(trials) > 1 and accepted == [0]  # a plain retry
        elif case.endswith("max_iter=0"):
            assert trials == [] and not result.coeffs.any()
        elif case == "2d":  # its 11 rows replayed in one stack (of 25 at most)
            assert accepted == [len(result.coeffs)]
        else:
            assert set(m for _, m in trials) == {0}
            assert len(result.history_rows) == 2 and result.coeffs.any()
        traj = ge.shoot(problem.rho0, ma.p_from_coeffs(problem, result.coeffs),
                        problem.k, problem.T, problem.dt)
        assert result.times.tobytes() == traj.times.tobytes()
        assert (np.array([astuple(d) for d in result.diagnostics]).tobytes()
                == np.array([astuple(d) for d in traj.diagnostics]).tobytes())
        end = traj.states[-1]
        assert (result.final_state.rho.values.tobytes()
                == end.rho.values.tobytes())
        assert result.final_state.p.values.tobytes() == end.p.values.tobytes()
        assert result.final_l2_mismatch == (
            sp.l2_norm_values(end.rho.values - problem.rho1.values)
            / sp.l2_norm_values(problem.rho1.values))

    @pytest.mark.parametrize("case", ["criterion-8", "stall-repeated",
                                      "stall-trials", "stall-jacobian"])
    def test_is_the_accepted_trials_record(self, case, monkeypatch):
        """Bit for bit, the final geodesic is the last accepted trial's
        record, summarized. A match whose trials stall shoots the accepted
        coefficients once more, plainly, for that record, since it dropped
        it before its trials; its rows are the accepted trial's."""
        problem = lm_end(case, monkeypatch)
        shots = []
        residual = ma._residual

        def spy(problem, coeffs, dp=None):
            out = residual(problem, coeffs, dp)
            shots.append((np.array(coeffs), len(dp), out[2].copy()))
            return out

        monkeypatch.setattr(ma, "_residual", spy)
        result = ma.solve_match(problem)
        assert result.status == (
            "converged" if case == "criterion-8" else "stalled")
        final = [(m, rows) for coeffs, m, rows in shots
                 if np.array_equal(coeffs, result.coeffs)]
        trial_stall = case in ("stall-repeated", "stall-trials")
        assert [m for m, _ in final[1:]] == ([0] if trial_stall else [])
        rows = final[0][1]
        for _, again in final[1:]:
            assert again.tobytes() == rows.tobytes()
        ops, _, p_out = ge.prepare(problem.rho0, result.p0.values,
                                   problem.k)
        rho, p, diagnostics = ge.summarize(ops, p_out, rows)
        n_steps, step = ge.time_steps(problem.T, problem.dt)
        assert (result.times.tobytes()
                == (np.arange(n_steps + 1) * step).tobytes())
        assert (np.array([astuple(d) for d in result.diagnostics]).tobytes()
                == np.array([astuple(d) for d in diagnostics]).tobytes())
        assert result.final_state.rho.values.tobytes() == rho[-1].tobytes()
        assert result.final_state.p.values.tobytes() == p[-1].tobytes()

    @pytest.mark.parametrize("case,height", [("match-1d", 7), ("stacks", 1)])
    def test_replays_in_stacks_no_taller_than_a_trial(self, case, height,
                                                      monkeypatch):
        """The record is summarized in stacks of at most 1 + the carried
        tangents, the rows of a trial: 7 on a match-1d-sized problem, and 1
        when the tangents need several stacks and no trial carries any."""
        problem = self_consistent_problem(1)
        if case == "stacks":
            # one tangent per stack for 6 coefficients
            monkeypatch.setattr(ma, "MAX_STACK_POINTS",
                                2 * problem.grid.npoints)
        heights = []
        summary = ge.diagnostics_for

        def spy(ops, rho, p):
            heights.append(len(rho))
            return summary(ops, rho, p)

        monkeypatch.setattr(ge, "diagnostics_for", spy)
        result = ma.solve_match(problem)
        assert result.status == "converged"
        assert max(heights) == height
        assert sum(heights) == len(result.times) == 26

    @pytest.mark.parametrize("column,value,message", [
        (5, np.nan, "rho not finite"), (5, -1.0, "rho not positive"),
        (32 + 2, np.nan, "p not finite")])
    def test_every_replayed_state_is_checked(self, column, value, message,
                                             monkeypatch):
        """A record row that a `DensityState` would reject, inside the first
        stack (not the final state), stops the replay with its error."""
        problem = self_consistent_problem(1, opt=ma.OptSettings(max_iter=1))
        residual = ma._residual

        def corrupt(problem, coeffs, dp=None):
            out = residual(problem, coeffs, dp)
            if dp is not None:
                out[2][3, column] = value  # step 3: rho, then p's spectrum
            return out

        monkeypatch.setattr(ma, "_residual", corrupt)
        with pytest.raises(ge.StateError, match=message):
            ma.solve_match(problem)


def test_rows_become_states_only_in_geodesic():
    """matching leaves turning a record's rows into states, and checking
    them, to `geodesic.replay`."""
    tree = ast.parse(inspect.getsource(ma))
    used = {node.attr for node in ast.walk(tree)
            if isinstance(node, ast.Attribute)
            and getattr(node.value, "id", None) == "geodesic"}
    used |= {alias.name for node in ast.walk(tree)
             if isinstance(node, ast.ImportFrom) for alias in node.names}
    assert "replay" in used
    assert not used & {"prepare", "snapshots", "summarize", "check_finite"}


class TestOptSettings:
    @pytest.mark.parametrize("kw", [
        dict(max_iter=-3), dict(grad_tol=-1.0), dict(grad_tol=np.nan),
        dict(grad_tol=np.inf)])
    def test_rejects_bad_settings(self, kw):
        with pytest.raises(ValueError, match=next(iter(kw))):
            ma.OptSettings(**kw)

    def test_rejects_non_integer_max_iter(self):
        with pytest.raises(ValueError, match="max_iter"):
            ma.OptSettings(max_iter=2.5)

    def test_rejects_boolean_max_iter(self):
        with pytest.raises(ValueError, match="max_iter must be an integer"):
            ma.OptSettings(max_iter=True)

    def test_accepts_zero_iterations_and_tolerance(self):
        opt = ma.OptSettings(max_iter=0, grad_tol=0.0)
        problem = make_problem(grid1d(), opt=opt)
        result = ma.solve_match(problem)
        assert result.status == "max_iter"
        assert result.history_rows == []


class TestProblemValidation:
    def test_rejects_negative_density(self):
        g = grid1d()
        x = g.coords[0]
        with pytest.raises(ValueError):
            ma.MatchProblem(sp.ScalarField(g, np.cos(x)),
                            sp.ScalarField(g, np.ones(g.shape)),
                            1, 1.0, 0.01, 4)

    def test_rejects_n_modes_outside_band(self):
        g = grid1d(32)
        one = sp.ScalarField(g, np.ones(g.shape))
        with pytest.raises(ValueError):
            ma.MatchProblem(one, one, 1, 1.0, 0.01, 11)  # n/3 = 10

    @pytest.mark.parametrize("kw,name", [
        (dict(T=-1.0), "positive"), (dict(dt=np.nan), "finite"),
        (dict(T=1.0, dt=1e-300), "MAX_STEPS"), (dict(n_modes=2.5), "n_modes"),
        (dict(n_modes=True), "n_modes")])
    def test_rejects_bad_time_and_modes(self, kw, name):
        with pytest.raises(ValueError, match=name):
            make_problem(grid1d(), **kw)

    @pytest.mark.parametrize("k", [127, -2])
    def test_rejects_metric_order_the_grid_cannot_use(self, k):
        # at construction, not at solve_match's first Jacobian
        with pytest.raises(ValueError, match=f"k={k}|k must be >= -1"):
            make_problem(grid1d(32), k=k, n_modes=2)

    def test_rejects_nan_density(self):
        g = grid1d()
        rho = np.ones(g.shape)
        rho[4] = np.nan
        one = sp.ScalarField(g, np.ones(g.shape))
        with pytest.raises(ValueError):
            ma.MatchProblem(sp.ScalarField(g, rho), one, 1, 1.0, 0.01, 4)
        with pytest.raises(ValueError):
            ma.MatchProblem(one, sp.ScalarField(g, rho), 1, 1.0, 0.01, 4)
