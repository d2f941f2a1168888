import numpy as np
import pytest
from scipy.optimize import brentq

from densgeo import epdiff as ep, geodesic as ge, spectral as sp
from densgeo import validation as va
from fullgrid import full_grid


def grid1d(n=64):
    return sp.make_grid(1, n)


def zero_velocity(grid):
    return sp.VectorField(grid, tuple(np.zeros(grid.shape)
                                      for _ in range(grid.dim)))


class TestEpdiffRHS:
    def test_zero_velocity(self):
        g = grid1d()
        out = ep._epdiff_rhs(sp.operators(g, 1), zero_velocity(g).components)
        assert np.all(out[0] == 0.0)

    def test_constant_velocity_is_geodesic(self):
        g = grid1d()
        u = sp.VectorField(g, (np.full(g.shape, 0.7),))
        out = ep._epdiff_rhs(sp.operators(g, 1), u.components)
        assert np.abs(out[0]).max() < 1e-13

    def test_against_direct_1d_form(self):
        # independent 1-D implementation: u_t = -Ainv(u m_x + 2 u_x m)
        g = grid1d()
        x = g.coords[0]
        uv = sp.dealias(g, 0.3 * np.sin(x) + 0.1 * np.cos(3 * x))
        k = 0
        full = full_grid(g)
        a_sym = (1.0 + full.ksq) ** (k + 1)
        ik = full.ik[0]
        m = np.fft.ifft(a_sym * np.fft.fft(uv)).real
        ux = np.fft.ifft(ik * np.fft.fft(uv)).real
        mx = np.fft.ifft(ik * np.fft.fft(m)).real
        total = sp.dealias(g, uv * mx) + 2.0 * sp.dealias(g, ux * m)
        direct = -np.fft.ifft(
            np.fft.fft(total) * full.mask / a_sym).real
        out = ep._epdiff_rhs(sp.operators(g, k), uv[None])
        assert np.abs(out[0] - direct).max() < 1e-12


class TestIntegrate:
    def test_zero_velocity_flow_is_static(self):
        g = grid1d()
        state0 = ep.identity_state(g, zero_velocity(g), 1)
        states = ep.integrate_epdiff(state0, 1.0, 0.1)
        for _, s in states:
            assert np.all(s.disp.components[0] == 0.0)

    def test_constant_velocity_translation_flow(self):
        g = grid1d()
        c = 0.4
        u = sp.VectorField(g, (np.full(g.shape, c),))
        states = ep.integrate_epdiff(ep.identity_state(g, u, 1), 1.0, 0.05)
        t, end = states[-1]
        assert np.abs(end.disp.components[0] - c * t).max() < 1e-12

    def test_energy_conservation_order(self):
        g = grid1d()
        x = g.coords[0]
        uv = sp.dealias(g, 0.5 * np.sin(x) + 0.2 * np.cos(2 * x))
        drifts = []
        for dt in (0.1, 0.025):
            states = ep.integrate_epdiff(
                ep.identity_state(g, sp.VectorField(g, (uv,)), 1), 1.0, dt)
            energies = [ep.epdiff_energy(s.u, 1) for _, s in states]
            drifts.append(max(abs(e - energies[0]) for e in energies)
                          / energies[0])
        assert drifts[0] < 1e-6
        order = np.log2(drifts[0] / drifts[1]) / 2.0  # two halvings
        assert order > 3.0

    def test_aborts_when_the_jacobian_folds(self):
        # a strong k = 0 compression folds the flow map before T
        g = grid1d(32)
        u = sp.VectorField(g, (sp.dealias(g, 5.0 * np.sin(g.coords[0])),))
        with pytest.raises(ge.SolverAbort) as info:
            ep.integrate_epdiff(ep.identity_state(g, u, 0), 2.0, 0.01)
        assert str(info.value) == (
            "t=0.27: Jacobian lost positivity (min -1.247e-02)")
        assert info.value.time == 0.27

    @pytest.mark.parametrize("stride", [0, -2])
    def test_rejects_store_every_below_one(self, stride):
        # integrate stores nothing at 0: there would be no end state
        g = grid1d(16)
        with pytest.raises(ValueError, match="store_every"):
            ep.integrate_epdiff(ep.identity_state(g, zero_velocity(g), 1),
                                0.1, 0.05, store_every=stride)


class TestEvalPeriodic:
    def test_exact_on_band_limited(self):
        g = grid1d()
        f = np.cos(3 * g.coords[0]) - 0.5 * np.sin(7 * g.coords[0])
        pts = np.array([0.0, 0.123, 2.0, 6.4, -1.0])
        expected = np.cos(3 * pts) - 0.5 * np.sin(7 * pts)
        assert np.abs(ep.eval_periodic(g, f, [pts]) - expected).max() < 1e-12

    def test_exact_2d(self):
        g = sp.make_grid(2, 16)
        x, y = g.coords
        f = np.sin(2 * x) * np.cos(y)
        rng = np.random.default_rng(0)
        px = rng.uniform(0, 2 * np.pi, 20)
        py = rng.uniform(0, 2 * np.pi, 20)
        expected = np.sin(2 * px) * np.cos(py)
        assert np.abs(ep.eval_periodic(g, f, [px, py]) - expected).max() < 1e-12

    @pytest.mark.parametrize("dim,n", [(1, 16), (1, 64), (2, 16), (2, 32)])
    def test_matches_dense_exponential_oracle(self, dim, n):
        # at points well outside [0, 2 pi)
        g = sp.make_grid(dim, n)
        rng = np.random.default_rng(n + dim)
        values = rng.normal(size=(2,) + g.shape)
        points = rng.uniform(-7.0, 14.0, size=(dim, 50))
        dense = dense_series(g, values, points)
        got = ep.eval_periodic(g, values, points)
        assert np.abs(got - dense).max() <= 1e-13 * np.abs(dense).max()

    @pytest.mark.parametrize("dim", [1, 2])
    def test_several_blocks_of_points(self, dim):
        # two full blocks of points and a partial one
        g = sp.make_grid(dim, 16)
        rng = np.random.default_rng(dim)
        values = rng.normal(size=(2,) + g.shape)
        points = rng.uniform(-7.0, 14.0, size=(dim, 2 * ep.EVAL_BLOCK + 100))
        dense = dense_series(g, values, points)
        got = ep.eval_periodic(g, values, points)
        assert np.abs(got - dense).max() <= 1e-13 * np.abs(dense).max()


def dense_series(g, values, points):
    """The full series over the non-Nyquist modes, every exponential taken
    by np.exp."""
    freq = full_grid(g).freq
    keep = np.abs(freq) != g.n // 2
    modes = freq[keep]
    fhat = np.fft.fftn(values, axes=tuple(range(1, g.dim + 1)))
    fhat = fhat[(Ellipsis,) + np.ix_(*[keep] * g.dim)]
    e = [np.exp(1j * np.outer(x, modes)) for x in points]
    if g.dim == 1:
        return np.einsum("ca,pa->cp", fhat, e[0]).real / g.npoints
    return np.einsum("cab,pa,pb->cp", fhat, e[0], e[1]).real / g.npoints


def uniform(grid):
    return sp.ScalarField(grid, np.ones(grid.shape))


class TestProjectLeft:
    # the left projection pi(phi) is the pushforward of the uniform density
    def test_identity(self):
        g = grid1d()
        rho = ep.pushforward_density(
            uniform(g), ep.identity_state(g, zero_velocity(g), 1))
        assert np.abs(rho.values - 1.0).max() < 1e-12

    def test_translation_volume_preserving(self):
        g = grid1d()
        disp = sp.VectorField(g, (np.full(g.shape, 1.234),))
        phi = ep.DiffeoState(disp, zero_velocity(g), 1)
        rho = ep.pushforward_density(uniform(g), phi)
        assert np.abs(rho.values - 1.0).max() < 1e-12

    def test_against_rootfinding_oracle(self):
        g = grid1d()
        x = g.coords[0]
        disp = sp.VectorField(g, (0.3 * np.sin(x),))
        phi = ep.DiffeoState(disp, zero_velocity(g), 1)
        rho = ep.pushforward_density(uniform(g), phi)
        psi = np.array([brentq(lambda y: y + 0.3 * np.sin(y) - xi,
                               xi - 0.5, xi + 0.5) for xi in x])
        exact = 1.0 / (1.0 + 0.3 * np.cos(psi))
        exact /= exact.mean()
        assert np.abs(rho.values - exact).max() < 1e-9
        # the Jacobian of the inverse map has unit mass before normalizing
        inverse = ep.invert_map(g, disp.components)
        assert abs(ep.jacobian_det(g, inverse).mean() - 1.0) < 1e-8

    def test_nonpositive_jacobian_rejected(self):
        g = grid1d()
        x = g.coords[0]
        phi = ep.DiffeoState(
            sp.VectorField(g, (1.5 * np.sin(x),)), zero_velocity(g), 1)
        with pytest.raises(ge.SolverAbort):
            ep.pushforward_density(uniform(g), phi)


class TestInvertMap:
    def test_1d_against_bisection(self):
        # a monotone map with max |disp'| = 0.8, inverted pointwise by
        # bisection on the exact displacement
        g = grid1d(32)
        x = g.coords[0]

        def disp(y):
            return 0.4 * np.sin(y) + 0.2 * np.sin(2 * y)

        q = ep.invert_map(g, disp(x)[None])[0]
        lo, hi = x - 1.0, x + 1.0
        for _ in range(80):
            mid = 0.5 * (lo + hi)
            below = mid + disp(mid) < x
            lo, hi = np.where(below, mid, lo), np.where(below, hi, mid)
        assert np.abs(q - (0.5 * (lo + hi) - x)).max() <= 1e-12

    def test_2d_residual(self):
        g = sp.make_grid(2, 32)
        x, y = g.coords
        disp = np.stack((0.3 * np.sin(x + 2 * y) + 0.1 * np.cos(y),
                         0.2 * np.cos(2 * x - y) - 0.15 * np.sin(x)))
        assert ep.jacobian_det(g, disp).min() > 0.0
        q = ep.invert_map(g, disp)
        pts = g.coords + q
        res = pts + ep.eval_periodic(g, disp, pts) - g.coords
        assert np.abs(res).max() <= 1e-12

    @pytest.mark.parametrize("dim", [1, 2])
    def test_few_evaluations(self, monkeypatch, dim):
        # the damped fixed point took 60 evaluations on these maps
        g = sp.make_grid(dim, 32)
        x, y = g.coords[0], g.coords[-1]
        disp = 0.2 * np.stack((np.sin(x + y), np.cos(2 * x - y))[:dim])
        calls = []
        evaluate = ep.eval_periodic

        def counted(*args):
            calls.append(1)
            return evaluate(*args)

        monkeypatch.setattr(ep, "eval_periodic", counted)
        ep.invert_map(g, disp)
        assert 1 <= len(calls) <= 4

    def test_folded_map_rejected(self):
        # x + 1.5 sin x folds (Jacobian 1 + 1.5 cos x): it is not a
        # diffeomorphism, and its "pushforward" density would go negative
        g = grid1d(32)
        x = g.coords[0]
        phi = ep.DiffeoState(
            sp.VectorField(g, (1.5 * np.sin(x),)), zero_velocity(g), 1)
        one = sp.ScalarField(g, np.ones(g.shape))
        with pytest.raises(ge.SolverAbort, match="Jacobian not positive"):
            ep.invert_map(g, phi.disp.components)
        with pytest.raises(ge.SolverAbort, match="Jacobian not positive"):
            ep.pushforward_density(one, phi)


class TestPushforward:
    def test_identity_returns_rho0(self):
        g = grid1d()
        x = g.coords[0]
        rho0 = sp.ScalarField(g, 1 + 0.5 * np.cos(x))
        out = ep.pushforward_density(
            rho0, ep.identity_state(g, zero_velocity(g), 1))
        assert np.abs(out.values - rho0.values).max() < 1e-11

    def test_translation_shifts_density(self):
        g = grid1d()
        x = g.coords[0]
        rho0 = sp.ScalarField(g, 1 + 0.5 * np.cos(x))
        c = 0.8
        phi = ep.DiffeoState(
            sp.VectorField(g, (np.full(g.shape, c),)), zero_velocity(g), 1)
        out = ep.pushforward_density(rho0, phi)
        assert np.abs(out.values - (1 + 0.5 * np.cos(x - c))).max() < 1e-10


class TestHorizontalLift:
    # the horizontal lift of p at rho is horizontal_velocity
    def test_constant_p_zero_lift(self):
        g = grid1d()
        state = ge.make_state(g, np.ones(g.shape), np.zeros(g.shape), 1)
        u = ge.horizontal_velocity(state)
        assert np.abs(u.components[0]).max() == 0.0

    def test_lifted_velocity_is_horizontal(self):
        g = grid1d()
        x = g.coords[0]
        one = uniform(g)
        p = 0.2 * np.sin(x) + 0.1 * np.cos(2 * x)
        u = ge.horizontal_velocity(ge.make_state(g, one.values, p, 1))
        assert ep.horizontality_defect(u, one, 1) < 1e-10


class TestHorizontalityDefect:
    def test_divergence_free_is_fully_vertical(self):
        # 1-D divergence-free means constant; defect = |Au| = |u| for const u
        g = grid1d()
        one = sp.ScalarField(g, np.ones(g.shape))
        u = sp.VectorField(g, (np.full(g.shape, 0.3),))
        assert ep.horizontality_defect(u, one, 1) == pytest.approx(0.3, rel=1e-12)

    def test_stays_small_along_horizontal_trajectory(self):
        g = grid1d()
        x = g.coords[0]
        state = ge.make_state(g, 1 + 0.3 * np.cos(x), 0.2 * np.sin(x), 1)
        u0 = ge.horizontal_velocity(state)
        states = ep.integrate_epdiff(
            ep.identity_state(g, u0, 1), 1.0, 0.005, store_every=20)
        for _, s in states:
            rho = ep.pushforward_density(state.rho, s)
            assert ep.horizontality_defect(s.u, rho, 1) < 1e-6

    @pytest.mark.parametrize("n", [32, 64])
    def test_validate_check_catches_a_non_horizontal_part(self, monkeypatch, n):
        # a divergence-free part of relative size 1e-6 added to the constructed
        # horizontal velocity fails the check at its roundoff-scaled tolerance
        g = sp.make_grid(2, n)
        check = dict(va.CHECKS)["horizontality-constructed"]
        horizontal = ge.horizontal_velocity

        def l2(v):
            return np.sqrt((v ** 2).sum(axis=0).mean())

        for seed in range(2):
            psi = va.random_band_limited(np.random.default_rng(seed), g)
            gx, gy = sp.gradient(sp.ScalarField(g, psi)).components
            swirl = np.stack((gy, -gx))  # divergence-free

            def tilted(state):
                u = horizontal(state).components
                return sp.VectorField(g, u + 1e-6 * l2(u) / l2(swirl) * swirl)

            clean = check(np.random.default_rng(seed), g, 2)
            monkeypatch.setattr(va.geodesic, "horizontal_velocity", tilted)
            measured, tol = check(np.random.default_rng(seed), g, 2)
            monkeypatch.undo()
            assert clean[0] <= clean[1]
            assert tol == clean[1]  # the tolerance does not depend on u
            assert measured > tol


class TestCrossValidate:
    def test_rest_data_zero_discrepancy(self):
        g = grid1d(32)
        x = g.coords[0]
        rho0 = sp.ScalarField(g, (1 + 0.3 * np.cos(x))
                              / (1 + 0.3 * np.cos(x)).mean())
        p0 = sp.ScalarField(g, np.zeros(g.shape))
        rep = ep.cross_validate(rho0, p0, 1, 0.5, 0.05)
        assert rep["l2_discrepancy_max"] < 1e-11

    def test_generic_data_small_discrepancy(self):
        g = grid1d()
        x = g.coords[0]
        rho0 = sp.ScalarField(g, 1 + 0.3 * np.cos(x))
        p0 = sp.ScalarField(g, 0.2 * np.sin(x))
        rep = ep.cross_validate(rho0, p0, 1, 0.5, 0.01)
        assert rep["l2_discrepancy_max"] < 1e-9
        assert rep["horizontality_defect_max"] < 1e-10
        assert rep["energy_drift_density"] < 1e-10
        assert rep["energy_drift_epdiff"] < 1e-10

    def test_rejects_negative_order(self):
        g = grid1d(32)
        rho0 = sp.ScalarField(g, np.ones(g.shape))
        p0 = sp.ScalarField(g, np.zeros(g.shape))
        with pytest.raises(ValueError):
            ep.cross_validate(rho0, p0, -1, 0.1, 0.05)


def test_lagrangian_eulerian_consistency():
    # d/dt [rho(phi(x)) * Jac(phi)] = 0 along the flow, to integrator order
    g = grid1d()
    x = g.coords[0]
    state = ge.make_state(g, 1 + 0.3 * np.cos(x), 0.3 * np.sin(x), 1)
    u0 = ge.horizontal_velocity(state)
    states = ep.integrate_epdiff(ep.identity_state(g, u0, 1), 0.5, 0.005,
                                 store_every=25)
    ref = None
    for _, s in states:
        rho_t = ep.pushforward_density(state.rho, s)
        disp = s.disp.components
        pts = [xc + dc for xc, dc in zip(g.coords, disp)]
        composed = ep.eval_periodic(g, rho_t.values, pts) * ep.jacobian_det(
            g, list(disp))
        if ref is None:
            ref = composed
        else:
            assert np.abs(composed - ref).max() < 1e-8


class TestEvalPeriodicStack:
    @pytest.mark.parametrize("dim,n", [(1, 32), (2, 16)])
    def test_stack_equals_componentwise(self, dim, n):
        g = sp.make_grid(dim, n)
        rng = np.random.default_rng(dim)
        values = np.stack([sp.dealias(g, rng.normal(size=g.shape))
                           for _ in range(dim)])
        points = g.coords + 0.3 * rng.normal(size=(dim,) + g.shape)
        stacked = ep.eval_periodic(g, values, points)
        assert stacked.shape == values.shape
        for c in range(dim):
            assert np.array_equal(stacked[c],
                                  ep.eval_periodic(g, values[c], points))


class TestExactFinalTime:
    def test_integrate_epdiff_ends_at_T(self):
        g = grid1d(16)
        u = sp.VectorField(g, (np.full(g.shape, 0.4),))
        states = ep.integrate_epdiff(ep.identity_state(g, u, 1), 1.0, 0.3)
        assert [t for t, _ in states] == [0.0, 0.25, 0.5, 0.75, 1.0]
        assert np.abs(states[-1][1].disp.components[0] - 0.4).max() < 1e-12

    def test_cross_validate_reports_step_taken(self):
        g = grid1d(32)
        x = g.coords[0]
        rho0 = sp.ScalarField(g, 1 + 0.3 * np.cos(x))
        p0 = sp.ScalarField(g, 0.2 * np.sin(x))
        rep = ep.cross_validate(rho0, p0, 1, 0.2, 0.03)
        assert rep["dt"] == 0.2 / 7
        assert rep["l2_discrepancy_max"] < 1e-8
