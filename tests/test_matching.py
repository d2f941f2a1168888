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
        n = len(ma.basis_fields(problem.grid, problem.n_modes))
        assert ma.objective(problem, np.zeros(n)) == 0.0

    def test_positive_for_translated_target(self):
        g = grid1d()
        x = g.coords[0]
        rho0 = 1 + 0.2 * np.cos(x)
        problem = make_problem(g, rho1_vals=1 + 0.2 * np.cos(x - 0.5))
        n = len(ma.basis_fields(g, problem.n_modes))
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
        coeffs = 0.1 * rng.normal(size=len(ma.basis_fields(g, 4)))
        # translate the p0 parametrization along with the data
        p_moved = sp.shift_values(
            g, ma.p_from_coeffs(problem, coeffs).values, [shift])
        basis = ma.basis_fields(g, 4)
        gram = np.array([[float((a * b).mean()) for b in basis] for a in basis])
        rhs = np.array([float((b * p_moved).mean()) for b in basis])
        coeffs_moved = np.linalg.solve(gram, rhs)
        assert abs(ma.objective(problem, coeffs)
                   - ma.objective(moved, coeffs_moved)) < 1e-10

    def test_penalty_on_abort(self):
        # k = -1 with violent data aborts; objective returns the penalty
        g = grid1d()
        x = g.coords[0]
        rho0 = sp.ScalarField(g, (1 + 0.9 * np.cos(x))
                              / (1 + 0.9 * np.cos(x)).mean())
        problem = ma.MatchProblem(rho0, rho0, -1, 5.0, 0.01, 2)
        coeffs = np.zeros(len(ma.basis_fields(g, 2)))
        coeffs[1] = 5.0  # large sin(x) momentum
        assert ma.objective(problem, coeffs) >= ma.PENALTY_BASE

    def test_penalty_is_base_plus_the_time_left(self):
        # 2 of these 5 momenta abort the shoot before T
        problem = violent_problem()
        rows = np.zeros((5, 4))
        rows[:, 1] = [0.0, 5.0, 0.01, 0.3, 0.03]
        rows[:, 2] = [0.0, 0.1, -0.002, 0.0, 0.001]
        aborts = 0
        for row in rows:
            value = ma.objective(problem, row)
            try:
                traj = ge.shoot(problem.rho0, ma.p_from_coeffs(problem, row),
                                problem.k, problem.T, problem.dt)
            except ge.SolverAbort as exc:
                aborts += 1
                assert value == ma.PENALTY_BASE + (problem.T - exc.time)
            else:
                r = traj.states[-1].rho.values - problem.rho1.values
                assert value == 0.5 * np.mean(r ** 2) < ma.PENALTY_BASE
        assert aborts == 2


def violent_problem(**kw):
    """k = -1 with steep data: strong sin(x) momenta abort the shoot."""
    g = grid1d()
    x = g.coords[0]
    rho0 = sp.ScalarField(g, (1 + 0.9 * np.cos(x))
                          / (1 + 0.9 * np.cos(x)).mean())
    return ma.MatchProblem(rho0, rho0, -1, 5.0, 0.01, 2, **kw)


def abort_boundary(problem, i, lo, hi, width):
    """Bisect coefficient i between a finite lo and an aborting hi until
    hi - lo < width."""
    def aborts(amp):
        row = np.zeros(4)
        row[i] = amp
        return ma.objective(problem, row) >= ma.PENALTY_BASE

    assert aborts(hi) and not aborts(lo)
    while hi - lo >= width:
        mid = 0.5 * (lo + hi)
        if aborts(mid):
            hi = mid
        else:
            lo = mid
    return lo, hi


class TestStackedObjectives:
    def test_gradient_equals_serial_objective_loop(self):
        g = grid1d()
        x = g.coords[0]
        problem = make_problem(g, rho1_vals=1 + 0.2 * np.cos(x - 0.4))
        rng = np.random.default_rng(3)
        coeffs = 0.1 * rng.normal(size=8)
        coeffs[2] = 1.7  # a step scaled by |c|
        h = 1e-5
        ref = np.zeros(8)
        for i in range(8):
            step = h * max(1.0, abs(coeffs[i]))
            cp = coeffs.copy()
            cp[i] = coeffs[i] + step
            jp = ma.objective(problem, cp)
            cp[i] = coeffs[i] - step
            jm = ma.objective(problem, cp)
            ref[i] = (jp - jm) / (2.0 * step)
        assert np.array_equal(ma.gradient_fd(problem, coeffs, h=h), ref)


@pytest.fixture(scope="module")
def stencil_at_abort():
    """violent_problem at a point whose FD stencil meets an abort: sin(x)'s
    coefficient within FD_STEP below the abort boundary. Also the first
    coefficient whose stencil, shot serially, meets an abort."""
    problem = violent_problem()
    h = ma.FD_STEP
    lo, _ = abort_boundary(problem, 1, 0.0, 5.0, h)
    coeffs = np.zeros(4)
    coeffs[1] = lo
    assert ma.objective(problem, coeffs) < 1.0

    def stencil_aborts(i):
        cp = coeffs.copy()
        for sign in (1.0, -1.0):
            cp[i] = coeffs[i] + sign * h * max(1.0, abs(coeffs[i]))
            if ma.objective(problem, cp) >= ma.PENALTY_BASE:
                return True
        return False

    first = next((i for i in range(4) if stencil_aborts(i)), None)
    assert first is not None
    return problem, coeffs, first


class TestGradientFD:
    def test_zero_at_global_minimum(self):
        problem = make_problem(grid1d())
        n = len(ma.basis_fields(problem.grid, problem.n_modes))
        grad = ma.gradient_fd(problem, np.zeros(n), h=1e-5)
        assert np.abs(grad).max() < 1e-10

    def test_directional_consistency(self):
        g = grid1d()
        x = g.coords[0]
        problem = make_problem(g, rho1_vals=1 + 0.2 * np.cos(x - 0.4))
        rng = np.random.default_rng(1)
        n = len(ma.basis_fields(g, problem.n_modes))
        coeffs = 0.05 * rng.normal(size=n)
        grad = ma.gradient_fd(problem, coeffs, h=1e-6)
        e = rng.normal(size=n)
        e /= np.linalg.norm(e)
        h = 1e-5
        fd = (ma.objective(problem, coeffs + h * e)
              - ma.objective(problem, coeffs - h * e)) / (2 * h)
        assert abs(float(grad @ e) - fd) < 1e-6

    def test_richardson_agreement(self):
        g = grid1d()
        x = g.coords[0]
        problem = make_problem(g, rho1_vals=1 + 0.2 * np.cos(x - 0.4))
        rng = np.random.default_rng(2)
        n = len(ma.basis_fields(g, problem.n_modes))
        coeffs = 0.05 * rng.normal(size=n)
        g1 = ma.gradient_fd(problem, coeffs, h=2e-4)
        g2 = ma.gradient_fd(problem, coeffs, h=1e-4)
        richardson = (4 * g2 - g1) / 3.0
        rel = np.linalg.norm(ma.gradient_fd(problem, coeffs, h=1e-5)
                             - richardson) / np.linalg.norm(richardson)
        assert rel < 0.01

    def test_stencil_across_an_abort_raises(self, stencil_at_abort):
        problem, coeffs, first = stencil_at_abort
        with pytest.raises(ge.SolverAbort, match=rf"coefficient {first}\b"):
            ma.gradient_fd(problem, coeffs)

    def test_stencil_stops_at_the_first_aborting_coefficient(
            self, stencil_at_abort, monkeypatch):
        # the two shoots of each coefficient up to the one it names
        problem, coeffs, first = stencil_at_abort
        shoots = []
        shoot_tangents = ge.shoot_tangents

        def counted(*args):
            shoots.append(1)
            return shoot_tangents(*args)

        monkeypatch.setattr(ge, "shoot_tangents", counted)
        with pytest.raises(ge.SolverAbort) as info:
            ma.gradient_fd(problem, coeffs)
        assert len(shoots) == 2 * (first + 1)
        # the earlier abort of the named coefficient's two shoots
        step = ma.FD_STEP * max(1.0, abs(coeffs[first]))
        times = []
        for sign in (1.0, -1.0):
            cp = coeffs.copy()
            cp[first] += sign * step
            try:
                ma._residual(problem, cp)
            except ge.SolverAbort as exc:
                times.append(exc.time)
        assert info.value.time == min(times)

    def test_rejects_nonpositive_h(self):
        problem = make_problem(grid1d())
        with pytest.raises(ValueError):
            ma.gradient_fd(problem, np.zeros(8), h=0.0)


def fd_jacobian(problem, coeffs, h=ma.FD_STEP):
    """The central-difference residual Jacobian (n_coeffs, N), steps
    h * max(1, |c_i|)."""
    steps = h * np.maximum(1.0, np.abs(coeffs))
    jac = np.empty((len(coeffs), problem.grid.npoints))
    for i, shift in enumerate(np.diag(steps)):
        diff = (ma._residual(problem, coeffs + shift)
                - ma._residual(problem, coeffs - shift))
        jac[i] = diff.ravel() / (2.0 * steps[i])
    return jac


def mean_free_basis(problem):
    """The momenta of the unit coefficient vectors (n_coeffs, *shape)."""
    n = len(ma.basis_fields(problem.grid, problem.n_modes))
    return np.array([ma.p_from_coeffs(problem, e).values for e in np.eye(n)])


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
    n = len(ma.basis_fields(problem.grid, problem.n_modes))
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
        r = ma._residual(problem, coeffs)
        jd = d @ ma._jacobian(problem, coeffs)
        remainders = []
        for eps in (1e-2, 1e-3, 1e-4):
            r_eps = ma._residual(problem, coeffs + eps * d)
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
        tangents = ge._state_rows(ops.band, np.zeros_like(basis), basis)
        y = np.concatenate((base[None], tangents))
        y = ge.integrate(partial(ge.step_rk4, ops), y, problem.T,
                         problem.dt)
        integrated = ge._split(ops.band, y[1:])[0].reshape(len(basis), -1)
        assert np.abs(integrated - shortcut).max() <= (
            1e-13 * np.abs(shortcut).max())

    def test_base_endpoint_equals_shoot_endpoints(self, dim):
        problem = tangent_problem(dim)
        coeffs = tangent_point(problem, "moving")
        p = ma.p_from_coeffs(problem, coeffs)
        rho_T, _ = ge.shoot_tangents(problem.rho0, p.values,
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
            assert np.array_equal(ma._residual(problem, row),
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

        def failing(*args):
            if failure == "abort":
                raise ge.SolverAbort("t=0.02: positivity lost", time=0.02)
            rho_T, drho_T = shoot_tangents(*args)
            drho_T[1, 3] = np.nan
            return rho_T, drho_T

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

    def test_2d_self_consistency(self):
        problem = self_consistent_problem(
            2, opt=ma.OptSettings(grad_tol=1e-10))
        assert len(ma.basis_fields(problem.grid, 2)) == 24
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
        integrate = ge.integrate

        def counted(step, *args, **kw):
            loops.append(1)

            def counted_step(y, dt):
                steps.append(1)
                return step(y, dt)

            return integrate(counted_step, *args, **kw)

        monkeypatch.setattr(ge, "integrate", counted)
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

        def failing(rho0, p0, *args):
            rho_T, drho_T = shoot_tangents(rho0, p0, *args)
            if p0.any():
                away.append(p0)
                if len(away) == 1 and len(drho_T):
                    drho_T[1, 3] = np.nan
            return rho_T, drho_T

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
        assert len(ma._basis_stack(problem)) == 16
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
