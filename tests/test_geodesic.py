import warnings
from dataclasses import astuple
from functools import partial

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from densgeo import epdiff, geodesic as ge, matching as ma, presets, \
    spectral as sp


def grid1d(n=64):
    return sp.make_grid(1, n)


def band_basis(grid):
    """Real trig basis of the retained mean-zero band (dealiased modes)."""
    x = grid.coords[0]
    out = []
    for m in range(1, grid.n // 3 + 1):
        out.append(np.cos(m * x))
        out.append(np.sin(m * x))
    return out


def dense_lrho(grid, rho, k):
    """Column-by-column assembly of L_rho in the retained trig basis."""
    basis = band_basis(grid)
    mat = np.zeros((len(basis), len(basis)))
    norms = [float((b * b).mean()) for b in basis]
    for j, bj in enumerate(basis):
        out = ge.apply_L_rho(rho, sp.ScalarField(grid, bj), k).values
        for i, bi in enumerate(basis):
            mat[i, j] = float((out * bi).mean()) / norms[i]
    return mat, basis, norms


def smooth_state(grid, k=1, amp_rho=0.3, amp_p=0.2):
    x = grid.coords[0]
    return ge.make_state(grid, 1 + amp_rho * np.cos(x),
                         amp_p * np.sin(x), k)


class TestApplyLRho:
    def test_constant_p_maps_to_zero(self):
        g = grid1d()
        rho = sp.ScalarField(g, 1 + 0.3 * np.cos(g.coords[0]))
        out = ge.apply_L_rho(rho, sp.ScalarField(g, np.full(g.shape, 2.0)), 1)
        assert np.abs(out.values).max() < 1e-14

    @pytest.mark.parametrize("k,mode", [(-1, 1), (0, 2), (1, 1), (2, 3)])
    def test_constant_density_symbol(self, k, mode):
        g = grid1d()
        x = g.coords[0]
        one = sp.ScalarField(g, np.ones(g.shape))
        out = ge.apply_L_rho(one, sp.ScalarField(g, np.cos(mode * x)), k)
        factor = mode ** 2 / (1 + mode ** 2) ** (k + 1)
        assert np.abs(out.values - factor * np.cos(mode * x)).max() < 1e-12

    def test_k1_mode1_quarter(self):
        g = grid1d()
        x = g.coords[0]
        one = sp.ScalarField(g, np.ones(g.shape))
        out = ge.apply_L_rho(one, sp.ScalarField(g, np.cos(x)), 1)
        assert np.abs(out.values - np.cos(x) / 4).max() < 1e-13

    def test_dense_matrix_symmetry(self):
        g = grid1d(16)
        rho = sp.ScalarField(g, 1 + 0.3 * np.cos(g.coords[0]))
        mat, basis, norms = dense_lrho(g, rho, 1)
        # symmetry holds in the L2 metric: N M symmetric with N = diag(norms)
        weighted = np.diag(norms) @ mat
        assert np.abs(weighted - weighted.T).max() < 1e-10

    def test_rejects_nonpositive_rho(self):
        g = grid1d(16)
        rho = sp.ScalarField(g, np.cos(g.coords[0]))
        with pytest.raises(ge.StateError):
            ge.apply_L_rho(rho, sp.ScalarField(g, np.ones(g.shape)), 1)


class TestSolveLRho:
    def test_zero_rhs(self):
        g = grid1d(16)
        rho = sp.ScalarField(g, np.ones(g.shape))
        zero = sp.ScalarField(g, np.zeros(g.shape))
        assert np.all(ge.solve_L_rho(rho, zero, 1).values == 0.0)

    def test_constant_density_inverse_symbol(self):
        g = grid1d()
        x = g.coords[0]
        one = sp.ScalarField(g, np.ones(g.shape))
        rhodot = sp.ScalarField(g, np.cos(x))
        p = ge.solve_L_rho(one, rhodot, 1)
        assert np.abs(p.values - 4 * np.cos(x)).max() < 1e-9

    def test_against_dense_solve(self):
        g = grid1d(16)
        x = g.coords[0]
        rho = sp.ScalarField(g, 1 + 0.3 * np.cos(x))
        rng = np.random.default_rng(7)
        mat, basis, _ = dense_lrho(g, rho, 1)
        coeffs = rng.normal(size=len(basis)) / (1 + np.arange(len(basis)))
        rhodot_vals = sum(c * b for c, b in zip(coeffs, basis))
        sol_coeffs = np.linalg.solve(mat, coeffs)
        expected = sum(c * b for c, b in zip(sol_coeffs, basis))
        p = ge.solve_L_rho(rho, sp.ScalarField(g, rhodot_vals), 1)
        err = np.abs(p.values - expected).max() / np.abs(expected).max()
        assert err < 1e-8

    def test_roundtrip_identity_on_mean_zero(self):
        g = grid1d()
        state = smooth_state(g)
        rhodot = ge.apply_L_rho(state.rho, state.p, 1)
        p = ge.solve_L_rho(state.rho, rhodot, 1)
        assert np.abs(p.values - state.p.values).max() < 1e-10

    def test_nan_curvature_is_a_breakdown(self):
        # at k = 100 the inertia symbol overflows the curvature to NaN on
        # the first iteration; the guard must not let it run to the limit
        g = grid1d(32)
        x = g.coords[0]
        with np.errstate(all="ignore"), pytest.raises(
                ge.SolverAbort, match="^CG breakdown: non-positive "
                "curvature nan at iter 1$"):
            ge.solve_L_rho(sp.ScalarField(g, 1 + 0.5 * np.cos(x)),
                           sp.ScalarField(g, np.sin(x)), 100)


class TestHorizontalVelocity:
    def test_constant_p_zero_velocity(self):
        g = grid1d()
        state = ge.make_state(g, np.ones(g.shape), np.zeros(g.shape), 1)
        u = ge.horizontal_velocity(state)
        assert np.abs(u.components[0]).max() == 0.0

    def test_otto_limit_is_rho_grad_p(self):
        g = grid1d()
        x = g.coords[0]
        state = ge.make_state(g, 1 + 0.2 * np.cos(x), 0.1 * np.sin(x), -1)
        u = ge.horizontal_velocity(state)
        expected = (1 + 0.2 * np.cos(x)) * 0.1 * np.cos(x)
        assert np.abs(u.components[0] - expected).max() < 1e-12

    def test_k0_symbol(self):
        g = grid1d()
        x = g.coords[0]
        state = ge.make_state(g, np.ones(g.shape), np.sin(x), 0)
        u = ge.horizontal_velocity(state)
        assert np.abs(u.components[0] - np.cos(x) / 2).max() < 1e-12


class TestHamiltonianRHS:
    def test_equilibrium(self):
        g = grid1d()
        state = ge.make_state(g, 1 + 0.3 * np.cos(g.coords[0]),
                              np.zeros(g.shape), 1)
        rhodot, pdot = ge.hamiltonian_rhs(state)
        assert np.all(rhodot.values == 0.0)
        assert np.all(pdot.values == 0.0)

    def test_hamilton_jacobi_limit(self):
        g = grid1d()
        x = g.coords[0]
        state = ge.make_state(g, np.ones(g.shape),
                              0.3 * np.sin(x) + 0.1 * np.cos(2 * x), -1)
        _, pdot = ge.hamiltonian_rhs(state)
        gp = sp.gradient(state.p).components[0]
        sq = gp ** 2
        assert np.abs(pdot.values + (sq - sq.mean())).max() < 1e-10

    def test_rhodot_matches_epdiff_finite_difference(self):
        # cross-module oracle: central difference of the projected EPDiff flow
        g = grid1d()
        x = g.coords[0]
        state = ge.make_state(g, 1 + 0.3 * np.cos(x), np.sin(x), 1)
        rhodot, _ = ge.hamiltonian_rhs(state)
        eps = 1e-4
        u0 = ge.horizontal_velocity(state)
        rhos = {}
        for sign in (+1, -1):
            u_init = sp.VectorField(g, tuple(sign * c for c in u0.components))
            states = epdiff.integrate_epdiff(
                epdiff.identity_state(state.rho, u_init, 1), eps, eps / 4)
            rhos[sign] = epdiff.pushforward_density(states[-1][1]).values
        fd = (rhos[+1] - rhos[-1]) / (2 * eps)
        assert np.abs(fd - rhodot.values).max() < 5e-7  # O(eps^2) + spectral


def stack_of(state):
    """The rows (1, R) of one state (rho, p_hat), with no tangents, as
    shoot steps them."""
    band = sp.operators(state.grid, state.k).band
    return ge._state_rows(band, state.rho.values, state.p.values)[None]


def fields_of(state, y):
    """The physical (rho, p) stack (B, 2, *shape) of rows y of state's grid."""
    band = sp.operators(state.grid, state.k).band
    rho, p_hat = ge._split(band, y)
    return np.stack((rho, band.ifft(p_hat)), axis=1)


def steps(state, dt, count):
    """`count` RK4 steps of one state's rows; every step must pass."""
    ops = sp.operators(state.grid, state.k)
    y = stack_of(state)
    for _ in range(count):
        y, reason = ge.step_rk4(ops, y, dt)
        assert reason is None
    return y


class TestStepRK4:
    def test_rest_state_fixed(self):
        g = grid1d()
        state = ge.make_state(g, 1 + 0.3 * np.cos(g.coords[0]),
                              np.zeros(g.shape), 1)
        assert np.array_equal(steps(state, 0.1, 1), stack_of(state))

    def test_reverse_step_local_error(self):
        g = grid1d()
        state = smooth_state(g)
        for dt in (0.1, 0.05):
            (rho, p), = fields_of(state, steps(state, dt, 1))
            back_state = ge.DensityState(sp.ScalarField(g, rho),
                                         sp.ScalarField(g, -p), 1)
            (back, _), = fields_of(state, steps(back_state, dt, 1))
            err = np.abs(back - state.rho.values).max()
            assert err < 5.0 * dt ** 5

    def test_one_step_order(self):
        g = grid1d()
        state = smooth_state(g)
        ref, half, coarse = (fields_of(state, steps(state, dt, count))[0, 0]
                             for dt, count in ((0.025, 2), (0.0125, 4),
                                               (0.05, 1)))
        e1 = np.abs(coarse - half).max()
        e2 = np.abs(ref - half).max()
        assert e1 / e2 > 12.0  # halving dt shrinks one-step error ~16x


class TestShoot:
    def test_rejects_p0_on_another_grid(self):
        # named by both grids, not by numpy's broadcast of their spectra
        rho0 = sp.ScalarField(grid1d(16), np.ones(16))
        p0 = sp.ScalarField(grid1d(32), np.zeros(32))
        with pytest.raises(sp.GridError, match="n=16.*n=32"):
            ge.shoot(rho0, p0, 1, 0.1, 0.01)
        with pytest.raises(sp.GridError, match="n=16.*n=32"):
            epdiff.cross_validate(rho0, p0, 1, 0.1, 0.01)

    def test_rest_trajectory_constant(self):
        g = grid1d()
        rho0 = sp.ScalarField(g, 1 + 0.3 * np.cos(g.coords[0]))
        p0 = sp.ScalarField(g, np.zeros(g.shape))
        traj = ge.shoot(rho0, p0, 1, 1.0, 0.05)
        for s in traj.states:
            assert np.array_equal(s.rho.values, rho0.values)

    def test_constant_p0_trajectory_constant(self):
        g = grid1d()
        rho0 = sp.ScalarField(g, 1 + 0.3 * np.cos(g.coords[0]))
        p0 = sp.ScalarField(g, np.full(g.shape, 1.7))
        traj = ge.shoot(rho0, p0, 1, 0.5, 0.05)
        for s in traj.states:
            assert np.array_equal(s.rho.values, rho0.values)

    def test_translation_equivariance(self):
        g = grid1d()
        x = g.coords[0]
        rho0 = sp.ScalarField(g, 1 + 0.5 * np.cos(x))
        p0 = sp.ScalarField(g, 0.2 * np.sin(x))
        shift = 13
        base = ge.shoot(rho0, p0, 1, 0.5, 0.01)
        moved = ge.shoot(
            sp.ScalarField(g, sp.shift_values(g, rho0.values, [shift])),
            sp.ScalarField(g, sp.shift_values(g, p0.values, [shift])),
            1, 0.5, 0.01)
        err = np.abs(moved.states[-1].rho.values
                     - sp.shift_values(g, base.states[-1].rho.values,
                                       [shift])).max()
        assert err < 1e-10

    def test_mass_and_energy_conserved(self):
        g = grid1d()
        x = g.coords[0]
        traj = ge.shoot(sp.ScalarField(g, 1 + 0.5 * np.cos(x)),
                        sp.ScalarField(g, 0.2 * np.sin(x)), 1, 2.0, 0.002)
        masses = [d.mass for d in traj.diagnostics]
        energies = [d.energy for d in traj.diagnostics]
        assert max(abs(m - 1.0) for m in masses) < 1e-10
        assert max(abs(e - energies[0]) for e in energies) / energies[0] < 1e-10

    def test_backward_then_forward(self):
        g = grid1d()
        traj = ge.shoot(smooth_state(g).rho, smooth_state(g).p, 1, 0.5, 0.01)
        end = traj.states[-1]
        # back from (rho_T, p_T) is forward from (rho_T, -p_T)
        back = ge.shoot(end.rho, sp.ScalarField(g, -end.p.values), 1, 0.5,
                        0.01)
        err = np.abs(back.states[-1].rho.values
                     - traj.states[0].rho.values).max()
        assert err < 1e-9

    @pytest.mark.parametrize("backward", [False, True])
    @pytest.mark.parametrize("dim,n", [(1, 32), (2, 16)])
    def test_out_of_band_momentum_carried_aside(self, dim, n, backward):
        # the flow sees p only on the band; a mode above n/3 rides along in
        # every stored p. rho and the band part differ from the band-only
        # shoot's in the last bits only: on the band, the spectrum of a sum
        # is the sum of the spectra to roundoff. A backward shoot is the
        # forward shoot of -p.
        sign = -1.0 if backward else 1.0
        g = sp.make_grid(dim, n)
        x = g.coords
        rho0 = sp.ScalarField(g, 1 + 0.3 * np.cos(x[0]))
        p_band = 0.3 * np.sin(x[0]) + 0.2 * np.cos(2 * x[-1])
        p_out = 2.0 * np.cos((n // 3 + 1) * x[-1])
        trajs = [ge.shoot(rho0, sp.ScalarField(g, sign * p), 1, 0.3, 0.05)
                 for p in (p_band, p_band + p_out)]
        for a, b in zip(*(t.states for t in trajs)):
            assert np.abs(b.rho.values - a.rho.values).max() <= 1e-14
            assert np.abs(b.p.values - (a.p.values + sign * p_out)).max() \
                <= 1e-13
        for a, b in zip(*(t.diagnostics for t in trajs)):
            assert a.max_abs_p < 0.6 and b.max_abs_p > 2.0

    def test_abort_reports_time(self):
        # k = -1 steep data loses positivity; abort carries the failing time
        g = grid1d(32)
        x = g.coords[0]
        rho0 = sp.ScalarField(g, 1 + 0.9 * np.cos(x))
        p0 = sp.ScalarField(g, 3.0 * np.sin(x))
        with pytest.raises(ge.SolverAbort) as exc_info:
            ge.shoot(rho0, p0, -1, 5.0, 0.01)
        assert exc_info.value.time is not None

    def test_positivity_abort_names_the_last_good_spectral_tail(self):
        # a stride-1 shoot's last snapshot is the state the failed step
        # started from: the abort names that state's spectral tail
        g = grid1d(32)
        x = g.coords[0]
        rho0 = sp.ScalarField(g, 1 + 0.9 * np.cos(x))
        p0 = sp.ScalarField(g, 3.0 * np.sin(x))
        traj = ge.Trajectory()
        with pytest.raises(ge.SolverAbort) as exc_info:
            ge.shoot(rho0, p0, -1, 5.0, 0.01, out=traj)
        message, last = str(exc_info.value), traj.diagnostics[-1]
        assert message.startswith(
            f"t={exc_info.value.time:.6g}: positivity lost: min rho ")
        assert f"spectral_tail {last.spectral_tail:.3e}" in message
        assert last.spectral_tail > 0.0
        assert traj.times[-1] == pytest.approx(exc_info.value.time - 0.01)


def replay_data(dim):
    """A unit-mass density and a momentum with a mode above the band, on
    the n = 32 grid."""
    g = sp.make_grid(dim, 32)
    x = g.coords
    rho = 1 + 0.3 * np.cos(x[0]) + 0.1 * np.sin(x[0] + x[-1])
    p = (0.2 * np.sin(x[0]) + 0.1 * np.cos(2 * x[-1])
         + 0.01 * np.cos(11 * x[-1]))
    return sp.ScalarField(g, rho / rho.mean()), p


class TestReplay:
    """`replay` turns a `Record` of a shoot into `shoot`'s geodesic."""

    @pytest.mark.parametrize("height", [1, 7, None], ids=["1", "7", "all"])
    @pytest.mark.parametrize("m", [0, 6, "rest"])
    @pytest.mark.parametrize("dim,k", [(1, 1), (2, 2)])
    def test_equals_the_shoot(self, dim, k, m, height):
        """Bit for bit, a record of `shoot_tangents` (carrying m tangents,
        or at rest) replayed in stacks of any height gives the times,
        diagnostics and final state of `shoot`'s `Trajectory`."""
        rho0, p0 = replay_data(dim)
        if m == "rest":
            p0 = np.full(rho0.grid.shape, 0.5)
        T, dt = 0.2, 0.02
        x = rho0.grid.coords[0]
        dp = np.array([np.cos(j * x) + np.sin((j + 1) * x)
                       for j in range(0 if m == "rest" else m)])
        record = ge.Record(T, dt)
        dp = tangent_spectra(rho0.grid,
                             dp.reshape((-1,) + rho0.grid.shape))
        ge.shoot_tangents(rho0, p0, dp, k, T, dt, record)
        assert (record.rows is None) == (m == "rest")
        times, diagnostics, final = ge.replay(
            rho0, p0, k, T, dt, record.rows, height or record.n_steps + 1)
        traj = ge.shoot(rho0, sp.ScalarField(rho0.grid, p0), k, T, dt)
        assert times.tobytes() == traj.times.tobytes()
        assert (np.array([astuple(d) for d in diagnostics]).tobytes()
                == np.array([astuple(d) for d in traj.diagnostics]).tobytes())
        end = traj.states[-1]
        assert final.k == k
        assert final.rho.values.tobytes() == end.rho.values.tobytes()
        assert final.p.values.tobytes() == end.p.values.tobytes()


@pytest.mark.parametrize("dim,k,warns", [
    (1, -1, True), (1, 0, True), (1, 1, False), (2, 1, True), (2, 2, False)])
def test_local_regime_warning_follows_the_order(dim, k, warns, caplog):
    """Solutions are global for k > d/2 (arXiv:1702.08870): a shoot below
    that order warns once, one above it does not."""
    g = sp.make_grid(dim, 16)
    rho0 = sp.ScalarField(g, np.ones(g.shape))
    with caplog.at_level("WARNING", logger="densgeo.geodesic"):
        ge.shoot(rho0, sp.ScalarField(g, np.zeros(g.shape)), k, 0.1, 0.05)
    messages = [r.getMessage() for r in caplog.records]
    assert len(messages) == warns
    assert all(f"k={k} is in the local regime on T^{dim}" in message
               for message in messages)


def metric_energy(state):
    """The state's kinetic energy 0.5 * <p, L_rho p>, as `diagnostics_for`
    reports it."""
    ops = sp.operators(state.grid, state.k)
    return ge.diagnostics_for(ops, state.rho.values[None],
                              state.p.values[None])[0].energy


class TestMetricEnergy:
    def test_zero_momentum(self):
        g = grid1d()
        state = ge.make_state(g, np.ones(g.shape), np.zeros(g.shape), 1)
        assert metric_energy(state) == 0.0

    def test_constant_density_value(self):
        g = grid1d()
        x = g.coords[0]
        state = ge.make_state(g, np.ones(g.shape), np.cos(x), 1)
        # 0.5 * (1/4) * <cos, cos> = 1/16
        assert metric_energy(state) == pytest.approx(1 / 16, abs=1e-14)

    def test_quadratic_scaling(self):
        g = grid1d()
        state = smooth_state(g)
        doubled = ge.make_state(g, state.rho.values, 2 * state.p.values, 1)
        assert metric_energy(doubled) == pytest.approx(
            4 * metric_energy(state), rel=1e-12)


def diagnostics_per_state(grid, k, rho, p):
    """The summary of one state (rho, p) on the grid, as a tuple of
    `Diagnostics` fields, in the per-state arithmetic: the reference of
    `diagnostics_for`'s stacks."""
    band = sp.operators(grid, k).band
    rhodot = ge._lrho(band, rho, band.fft(p) * band.mask)
    ops = sp.operators(grid)
    power = np.abs(ops.fft(rho)) ** 2 * ops.weight
    power[ops.zero] = 0.0
    retained = power * ops.mask
    maxabs = np.abs(ops.k_mesh).max(axis=0)
    tail = (maxabs > (2.0 * (grid.n // 3)) / 3.0) & ops.mask
    total = retained.sum()
    return (float(rho.mean()), float(0.5 * (p * rhodot).mean()),
            float(rho.min()), float(np.abs(p).max()),
            0.0 if total == 0.0 else float(retained[tail].sum() / total))


class TestStackedDiagnostics:
    @pytest.mark.parametrize("height", [1, 7, 26])
    @pytest.mark.parametrize("dim,n", [(1, 32), (2, 16), (2, 32)])
    def test_each_state_as_alone(self, dim, n, height):
        """A stack's diagnostics are, bit for bit, those of each state
        alone and those of the per-state arithmetic. The densities are
        views of wider rows, as a `Record`'s are, and one is constant (a
        tail of 0 over 0)."""
        g = sp.make_grid(dim, n)
        k = 2
        rng = np.random.default_rng(10 * n + height)
        rows = rng.normal(size=(height, g.npoints + 5))
        rows[:, :g.npoints] = 1.0 + 0.3 * np.tanh(rows[:, :g.npoints])
        rows[-1, :g.npoints] = 1.0
        rho = rows[:, :g.npoints].reshape((height,) + g.shape)
        p = rng.normal(size=(height,) + g.shape)
        ops = sp.operators(g, k)
        got = [astuple(d) for d in ge.diagnostics_for(ops, rho, p)]
        alone = [astuple(ge.diagnostics_for(ops, rho[j:j + 1], p[j:j + 1])[0])
                 for j in range(height)]
        reference = [diagnostics_per_state(g, k, rho[j].copy(), p[j])
                     for j in range(height)]
        assert np.array(got).tobytes() == np.array(alone).tobytes()
        assert np.array(got).tobytes() == np.array(reference).tobytes()
        assert got[-1][4] == 0.0


@settings(max_examples=15, deadline=None)
@given(seed=st.integers(0, 10 ** 6), k=st.integers(0, 2))
def test_lrho_self_adjoint_and_positive(seed, k):
    g = sp.make_grid(1, 32)
    x = g.coords[0]
    rng = np.random.default_rng(seed)

    def rand_field(scale):
        vals = np.zeros(g.shape)
        for m in range(1, 6):
            vals += (rng.normal() * np.cos(m * x)
                     + rng.normal() * np.sin(m * x)) / m ** 2
        return scale * vals

    rho = sp.ScalarField(g, 1 + 0.3 * np.tanh(rand_field(1.0)))
    p = sp.ScalarField(g, rand_field(1.0))
    q = sp.ScalarField(g, rand_field(1.0))
    lp = ge.apply_L_rho(rho, p, k)
    lq = ge.apply_L_rho(rho, q, k)
    assert abs(sp.l2_inner(q, lp) - sp.l2_inner(p, lq)) < 1e-10
    assert sp.l2_inner(p, lp) > 0.0


def test_state_invariants_enforced():
    g = grid1d(16)
    with pytest.raises(ge.StateError):
        ge.make_state(g, np.cos(g.coords[0]), np.zeros(g.shape), 1)  # negative
    with pytest.raises(ge.StateError):
        ge.make_state(g, 2 * np.ones(g.shape), np.zeros(g.shape), 1)  # mass 2


@pytest.mark.parametrize("field,bad", [
    ("rho", -1.0), ("rho", np.nan), ("p", np.nan)])
def test_hand_built_state_checks_itself(field, bad):
    # a DensityState with rho = -1 at one point constructed, and
    # diagnostics_for reported min_rho -1.0
    g = grid1d(16)
    values = {"rho": np.ones(g.shape), "p": np.sin(g.coords[0])}
    values[field][3] = bad
    with pytest.raises(ge.StateError, match=f"^{field} not"):
        ge.DensityState(sp.ScalarField(g, values["rho"]),
                        sp.ScalarField(g, values["p"]), 1)


@pytest.mark.parametrize("k", [1.5, 2.0, True])
@pytest.mark.parametrize("entry", ["operators", "make_state", "shoot",
                                   "solve_L_rho", "MatchProblem",
                                   "cross_validate", "DensityState",
                                   "DiffeoState"])
def test_rejects_non_integer_metric_order(entry, k):
    # the CLI parses k as an integer, and k = 1.5 ran through the API as a
    # fractional power of 1 - Laplacian; True ran as k = 1
    g = grid1d(16)
    one = sp.ScalarField(g, np.ones(g.shape))
    p = sp.ScalarField(g, 0.1 * np.sin(g.coords[0]))
    sp.operators(g, 2)  # k = 2.0 must not be served k = 2's cached table
    calls = {
        "operators": lambda: sp.operators(g, k),
        "make_state": lambda: ge.make_state(g, one.values, p.values, k),
        "shoot": lambda: ge.shoot(one, p, k, 0.1, 0.01),
        "solve_L_rho": lambda: ge.solve_L_rho(one, p, k),
        "MatchProblem": lambda: ma.MatchProblem(one, one, k, 0.1, 0.01, 1),
        "cross_validate": lambda: epdiff.cross_validate(one, p, k, 0.1, 0.01),
        "DensityState": lambda: ge.DensityState(one, p, k),
        "DiffeoState": lambda: epdiff.DiffeoState(
            sp.VectorField(g, p.values[None]), one,
            sp.VectorField(g, p.values[None]), k),
    }
    with pytest.raises(ValueError, match="must be an integer"):
        calls[entry]()


@pytest.mark.parametrize("dim", [1, 2])
def test_large_momentum_accepted(dim):
    # the mean of p after its subtraction is roundoff of size eps * max|p|,
    # far above 1e-12 here
    g = sp.make_grid(dim, 32)
    p = 1e6 * presets.raw_preset(g, "gauss-like center 1 width 0.5")
    one = np.ones(g.shape)
    state = ge.make_state(g, one, p, 2)
    assert np.array_equal(state.p.values, p - p.mean())
    traj = ge.shoot(sp.ScalarField(g, one), sp.ScalarField(g, p), 2,
                    1e-5, 1e-6)
    assert len(traj.times) == 11  # all 10 steps taken


def test_default_dt_cfl():
    g = grid1d()
    state = smooth_state(g)
    dt = ge.default_dt(state)
    u = ge.horizontal_velocity(state)
    umax = np.abs(u.components[0]).max()
    assert dt == pytest.approx(0.5 * g.spacing / umax)
    rest = ge.make_state(g, np.ones(g.shape), np.zeros(g.shape), 1)
    assert ge.default_dt(rest) is None


class TestNonFiniteRejected:
    def test_make_state_rejects_nan_rho(self):
        g = grid1d(16)
        rho = np.ones(g.shape)
        rho[3] = np.nan
        with pytest.raises(ge.StateError):
            ge.make_state(g, rho, np.zeros(g.shape), 1)

    def test_make_state_rejects_inf_rho_and_nan_p(self):
        g = grid1d(16)
        rho = np.ones(g.shape)
        rho[5] = np.inf
        with pytest.raises(ge.StateError):
            ge.make_state(g, rho, np.zeros(g.shape), 1)
        p = np.zeros(g.shape)
        p[5] = np.nan
        with pytest.raises(ge.StateError):
            ge.make_state(g, np.ones(g.shape), p, 1)

    def test_shoot_rejects_nan_rho(self):
        g = grid1d(16)
        rho = np.ones(g.shape)
        rho[0] = np.nan
        with pytest.raises(ge.StateError):
            ge.shoot(sp.ScalarField(g, rho), sp.ScalarField(g, np.zeros(g.shape)),
                     1, 0.1, 0.01)

    @pytest.mark.parametrize("name,value", [
        ("rho", np.inf), ("rho", np.nan), ("p", np.inf), ("p", np.nan)])
    def test_l_rho_rejects_non_finite_input(self, monkeypatch, name, value):
        # at entry, before any L_rho product: an inf rho passes a min > 0
        # check, and a NaN right-hand side would run CG to its limit
        g = grid1d(16)
        fields = {"rho": np.ones(g.shape), "p": np.cos(g.coords[0])}
        fields[name][3] = value
        rho, f = (sp.ScalarField(g, fields[key]) for key in ("rho", "p"))

        def kernel(*args):
            raise AssertionError("L_rho applied to non-finite input")

        monkeypatch.setattr(ge, "_lrho", kernel)
        with pytest.raises(ge.StateError, match="finite"):
            ge.apply_L_rho(rho, f, 1)
        with pytest.raises(ge.StateError, match="finite"):
            ge.solve_L_rho(rho, f, 1)

    def test_step_aborts_on_nan_state(self):
        # a state built without validation must not step to a "valid" one
        g = grid1d(16)
        rho = np.ones(g.shape)
        rho[2] = np.nan
        ops = sp.operators(g, 1)
        y = ge._state_rows(ops.band, rho, np.zeros(g.shape))
        _, reason = ge.step_rk4(ops, y[None], 0.01)
        assert reason == "state is no longer finite"

    def test_overflow_is_reported_by_the_guard_alone(self):
        """A momentum of amplitude 1e150 overflows the first step's
        products. The finiteness guard reports it; numpy's overflow and
        invalid-value warnings from the right-hand side do not reach the
        user first (`rk4` silences them)."""
        g = grid1d(32)
        rho0 = sp.ScalarField(g, np.ones(g.shape))
        p0 = sp.ScalarField(g, presets.raw_preset(
            g, "sin-bump amplitude 1e150 mode 1"))
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(ge.SolverAbort) as info:
                ge.shoot(rho0, p0, 1, 1.0, 1.0)
        assert str(info.value) == "t=1: state is no longer finite"


class TestTimeSteps:
    def test_ceil_and_exact_end(self):
        assert ge.time_steps(1.0, 0.3) == (4, 0.25)

    def test_ratio_within_rounding_is_integer(self):
        n_steps, dt = ge.time_steps(0.07, 0.01)  # 0.07/0.01 = 7.000000000000001
        assert n_steps == 7
        assert dt == pytest.approx(0.01, rel=1e-15)

    def test_integer_ratios_keep_dt(self):
        for T, dt, n in ((1.0, 0.01, 100), (0.5, 0.02, 25), (0.5, 0.01, 50),
                         (0.01, 0.01, 1)):
            assert ge.time_steps(T, dt) == (n, dt)

    @pytest.mark.parametrize("T,dt", [(0.0, 0.1), (1.0, 0.0), (-1.0, 0.1),
                                      (np.nan, 0.1), (1.0, np.nan)])
    def test_rejects_bad_values(self, T, dt):
        with pytest.raises(ValueError):
            ge.time_steps(T, dt)

    @pytest.mark.parametrize("T,dt,match", [
        (np.inf, 0.1, "finite"), (1.0, np.inf, "finite"),
        (-np.inf, 0.1, "finite"), (1e300, 1e-300, "too many steps")])
    def test_rejects_non_finite_and_uncountable(self, T, dt, match):
        with pytest.raises(ValueError, match=match):
            ge.time_steps(T, dt)

    def test_step_count_bounded(self):
        assert ge.time_steps(1.0, 1e-7) == (10 ** 7, 1e-7)
        for dt in (0.99e-7, 1e-300):
            with pytest.raises(ValueError, match="MAX_STEPS = 10000000"):
                ge.time_steps(1.0, dt)

    def test_shoot_stops_exactly_at_T(self):
        g = grid1d(16)
        state = smooth_state(g)
        traj = ge.shoot(state.rho, state.p, 1, 1.0, 0.3)
        assert len(traj.times) == 5  # 4 steps
        assert traj.times[-1] == 1.0

    @pytest.mark.parametrize("stride", [0, -2])
    def test_shoot_rejects_store_every_below_one(self, stride):
        # flow rejects it, naming store_every: it would observe no step
        state = smooth_state(grid1d(16))
        with pytest.raises(ValueError, match="store_every"):
            ge.shoot(state.rho, state.p, 1, 0.1, 0.05, store_every=stride)

    def test_shoot_step_count_not_fooled_by_rounding(self):
        g = grid1d(16)
        state = smooth_state(g)
        traj = ge.shoot(state.rho, state.p, 1, 0.07, 0.01)
        assert len(traj.times) == 8  # 7 steps
        assert traj.times[-1] == pytest.approx(0.07, rel=1e-15)


def test_rk4_fourth_order_on_linear_ode():
    # y' = M y with a rotation-plus-decay generator; exact solution expm(M t)
    m = np.array([[-0.3, 1.0], [-1.0, -0.3]])
    y0 = np.array([[1.0, 0.5], [0.0, -1.0]])
    angle = np.array([[np.cos(1.0), np.sin(1.0)], [-np.sin(1.0), np.cos(1.0)]])
    exact = np.exp(-0.3) * angle @ y0
    errors = []
    for n_steps in (10, 20, 40):
        y = y0
        for _ in range(n_steps):
            y = ge.rk4(lambda v: m @ v, y, 1.0 / n_steps)
        errors.append(np.abs(y - exact).max())
    orders = np.log2(np.array(errors[:-1]) / np.array(errors[1:]))
    assert np.all(orders > 3.8) and np.all(orders < 4.2)


def rk4_expression(f, y, dt):
    """Classical RK4 written as the expressions whose roundings `ge.rk4`
    keeps."""
    k1 = f(y)
    k2 = f(y + 0.5 * dt * k1)
    k3 = f(y + 0.5 * dt * k2)
    k4 = f(y + dt * k3)
    return y + (dt / 6) * (k1 + 2 * k2 + 2 * k3 + k4)


@pytest.mark.parametrize("dim,n", [(1, 32), (2, 16)])
@pytest.mark.parametrize("m", [0, 3])
def test_rk4_in_place_rounds_as_the_expression(dim, n, m):
    # random rows (1 + m, R) of a state and m tangents, stepped by _rhs
    g = sp.make_grid(dim, n)
    band = sp.operators(g, 1).band
    rng = np.random.default_rng(dim * 10 + m)
    shape = (1 + m,) + g.shape
    rho = rng.uniform(0.5, 1.5, shape)
    rho[1:] -= 1.0
    y = ge._state_rows(band, rho, rng.normal(0.0, 0.3, shape))
    f = partial(ge._rhs, band)
    for dt in rng.uniform(0.001, 0.05, 8):
        assert ge.rk4(f, y, dt).tobytes() == rk4_expression(f, y, dt).tobytes()


def tangent_spectra(grid, dp):
    """Tangent momenta dp (m, *shape) as `shoot_tangents` takes them: masked
    band spectra (m, *band.mask.shape), the mean entry zeroed."""
    band = sp.operators(grid).band
    dp_hat = band.fft(dp) * band.mask
    dp_hat[band.zero] = 0.0
    return dp_hat


def state_stack(grid, n_members, seed):
    """(n_members, 2, *shape) stack of valid, distinct (rho, p) states."""
    rng = np.random.default_rng(seed)
    coords = grid.coords
    rows = []
    for _ in range(n_members):
        a, b, c = rng.uniform(-1.0, 1.0, size=3)
        rho = 1 + 0.2 * a * np.prod(np.cos(coords), axis=0)
        p = 0.3 * b * np.sin(coords[0]) + 0.2 * c * np.cos(coords[-1])
        rows.append(np.stack((rho / rho.mean(), p - p.mean())))
    return np.stack(rows)


class TestStackedFlow:
    def test_flow_yields_and_raises_at_the_failing_step(self):
        # y = (value, bound) steps value += dt and fails past its bound
        calls = []

        def step(y, dt):
            calls.append(y[0])
            y = y + [dt, 0.0]
            return y, None if y[0] <= y[1] else f"past {y[1]}"

        seen = list(ge.flow(step, np.array([0.0, np.inf]), 1.0, 0.1, 4))
        assert [i for i, _, _ in seen] == list(range(11))
        # observed: step 0, every 4th step and the last
        assert [i for i, _, observed in seen if observed] == [0, 4, 8, 10]
        assert len(calls) == 10
        for every in (1, 4):
            calls.clear()
            seen.clear()
            with pytest.raises(ge.SolverAbort,
                               match=r"^t=0\.3: past 0\.25$") as info:
                for i, _, _ in ge.flow(step, np.array([0.0, 0.25]), 1.0, 0.1,
                                       every):
                    seen.append(i)
            assert info.value.time == 3 * 0.1
            assert len(calls) == 3  # no step after the failed one
            assert seen == [0, 1, 2]  # nothing yielded at or after it

    def test_flow_observes_step_zero_and_each_good_step(self):
        def step(y, dt):
            return y + [dt, 0.0], None

        y0 = np.array([0.0, np.inf])
        seen = list(ge.flow(step, y0, 1.0, 0.1))
        assert [(i, observed) for i, _, observed in seen] == [
            (i, True) for i in range(11)]
        assert seen[0][1] is y0
        assert np.allclose([y[0] for _, y, _ in seen], np.arange(11) * 0.1)
        for every in (0, -2):
            with pytest.raises(ValueError, match="store_every must be >= 1"):
                next(ge.flow(step, y0, 1.0, 0.1, every))

    @pytest.mark.parametrize("dim,n", [(1, 32), (2, 16)])
    def test_shoot_endpoints_equal_shoot(self, dim, n):
        # shoot_tangents with no tangents ends where shoot ends, bit for bit
        g = sp.make_grid(dim, n)
        ys = state_stack(g, 4, seed=7)
        rho0 = sp.ScalarField(g, ys[0, 0])
        no_tangents = tangent_spectra(g, np.empty((0,) + g.shape))
        for p in ys[:, 1]:
            end, drho = ge.shoot_tangents(rho0, p, no_tangents, 2, 0.3, 0.02)
            assert drho.shape == (0,) + g.shape
            traj = ge.shoot(rho0, sp.ScalarField(g, p), 2, 0.3, 0.02)
            assert np.array_equal(traj.states[-1].rho.values, end)

    def test_aborted_members_dropped_with_their_times(self):
        # k = -1 steep data: strong sin(x) momenta lose positivity, weak ones
        # reach T; shoot_tangents aborts, or ends, as shoot does
        g = grid1d(32)
        x = g.coords[0]
        rho0 = sp.ScalarField(g, 1 + 0.9 * np.cos(x))
        dp = tangent_spectra(g, np.stack([np.cos(x), np.sin(2 * x)]))
        aborts = 0
        for amp in [0.0, 3.0, 0.05, 5.0, 1.0]:
            p = amp * np.sin(x)
            try:
                traj = ge.shoot(rho0, sp.ScalarField(g, p), -1, 2.0, 0.01)
            except ge.SolverAbort as exc:
                aborts += 1
                with pytest.raises(ge.SolverAbort) as info:
                    ge.shoot_tangents(rho0, p, dp, -1, 2.0, 0.01)
                assert info.value.time == exc.time
                assert str(info.value) == str(exc)
            else:
                end, _ = ge.shoot_tangents(rho0, p, dp, -1, 2.0, 0.01)
                assert np.array_equal(traj.states[-1].rho.values, end)
        assert 0 < aborts < 5

    def test_stack_validated_like_make_state(self):
        g = grid1d(16)
        p0 = np.zeros(g.shape)
        p0[3] = np.nan
        with pytest.raises(ge.StateError, match="finite"):
            ge.shoot_tangents(sp.ScalarField(g, np.ones(g.shape)), p0,
                              tangent_spectra(g, np.zeros((2,) + g.shape)),
                              1, 0.1, 0.01)

    def test_only_shoot_warns_about_local_regime(self, caplog):
        g = grid1d(16)
        rho0 = sp.ScalarField(g, np.ones(g.shape))
        x = g.coords[0]
        with caplog.at_level("WARNING", logger="densgeo.geodesic"):
            ge.shoot_tangents(rho0, 0.1 * np.sin(x),
                              tangent_spectra(g, np.cos(x)[None]), -1, 0.1,
                              0.05)
            assert not caplog.records
            ge.shoot(rho0, sp.ScalarField(g, np.zeros(g.shape)), -1, 0.1, 0.05)
        assert len(caplog.records) == 1
        assert "local regime" in caplog.records[0].getMessage()
