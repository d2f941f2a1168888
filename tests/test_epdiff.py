import gc
import warnings

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


def uniform(grid):
    return sp.ScalarField(grid, np.ones(grid.shape))


def rhs_on_grid(g, k, u):
    """_epdiff_rhs of u's band spectrum, u and u_t returned to the grid."""
    band = sp.operators(g, k).band
    u_grid, ut_hat = ep._epdiff_rhs(band, band.fft(u) * band.mask)
    return u_grid, band.ifft(ut_hat)


class TestEpdiffRHS:
    def test_zero_velocity(self):
        g = grid1d()
        _, out = rhs_on_grid(g, 1, zero_velocity(g).components)
        assert np.all(out[0] == 0.0)

    def test_constant_velocity_is_geodesic(self):
        g = grid1d()
        u = sp.VectorField(g, (np.full(g.shape, 0.7),))
        _, out = rhs_on_grid(g, 1, u.components)
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
        u, out = rhs_on_grid(g, k, uv[None])
        assert np.abs(u[0] - uv).max() < 1e-15
        assert np.abs(out[0] - direct).max() < 1e-12


class TestIntegrate:
    def test_zero_velocity_flow_is_static(self):
        g = grid1d()
        state0 = ep.identity_state(uniform(g), zero_velocity(g), 1)
        states = ep.integrate_epdiff(state0, 1.0, 0.1)
        for _, s in states:
            assert np.all(s.q.components[0] == 0.0)
            assert np.all(s.f.values == 1.0)

    def test_constant_velocity_translation_flow(self):
        g = grid1d()
        c = 0.4
        u = sp.VectorField(g, (np.full(g.shape, c),))
        states = ep.integrate_epdiff(ep.identity_state(uniform(g), u, 1),
                                     1.0, 0.05)
        t, end = states[-1]
        # the translation by c t has the inverse map x - c t
        assert np.abs(end.q.components[0] + c * t).max() < 1e-12

    def test_energy_conservation_order(self):
        g = grid1d()
        x = g.coords[0]
        uv = sp.dealias(g, 0.5 * np.sin(x) + 0.2 * np.cos(2 * x))
        drifts = []
        for dt in (0.1, 0.025):
            states = ep.integrate_epdiff(
                ep.identity_state(uniform(g), sp.VectorField(g, (uv,)), 1),
                1.0, dt)
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
            ep.integrate_epdiff(ep.identity_state(uniform(g), u, 0), 2.0, 0.01)
        assert str(info.value) == (
            "t=0.27: Jacobian lost positivity (min -7.773e-02)")
        assert info.value.time == 0.27

    def test_aborts_when_f_loses_positivity(self):
        # a steep density carried by a strong velocity: f went below zero
        # (to -0.604) while the Jacobian stayed positive, the run reached T
        # with all 101 states, and the last one projected to a "density"
        # with min -0.764
        g = grid1d(32)
        x = g.coords[0]
        rho0 = 0.01 + np.exp((np.cos(x - np.pi) - 1.0) / 0.2 ** 2)
        u = sp.VectorField(g, (sp.dealias(g, 0.5 * np.sin(x)),))
        state0 = ep.identity_state(sp.ScalarField(g, rho0 / rho0.mean()), u,
                                   1)
        with pytest.raises(ge.SolverAbort) as info:
            ep.integrate_epdiff(state0, 1.0, 0.01)
        assert str(info.value) == "t=0.43: f lost positivity (min -2.311e-03)"
        assert info.value.time == 0.43

    def test_aborts_when_the_state_is_no_longer_finite(self):
        # at k = 100 the right-hand side overflows in the first step; the
        # NaN state is reported as such, not as a folded map
        g = grid1d(32)
        u = sp.VectorField(g, (sp.dealias(g, 0.1 * np.sin(g.coords[0])),))
        with np.errstate(all="ignore"), pytest.raises(
                ge.SolverAbort) as info:
            ep.integrate_epdiff(ep.identity_state(uniform(g), u, 100), 0.1,
                                0.05)
        assert str(info.value) == "t=0.05: state is no longer finite"
        assert info.value.time == 0.05

    @pytest.mark.parametrize("stride", [0, -2])
    def test_rejects_store_every_below_one(self, stride):
        # flow rejects it, naming store_every: it would observe no step
        g = grid1d(16)
        with pytest.raises(ValueError, match="store_every"):
            ep.integrate_epdiff(
                ep.identity_state(uniform(g), zero_velocity(g), 1),
                0.1, 0.05, store_every=stride)


class TestInitialState:
    # the flow carries u as its band spectrum, so integrate_epdiff checks
    # that u0 is band-limited; a DiffeoState checks the rest when it is built
    @pytest.mark.parametrize("mode,accepted", [(10, True), (11, False),
                                               (15, False)])
    def test_velocity_must_be_band_limited(self, mode, accepted):
        # n = 32 keeps the modes up to n // 3 = 10; the parent integrated
        # mode n/2 - 1 = 15, though the flow only adds band-limited u_t
        g = grid1d(32)
        u = sp.VectorField(g, (0.1 * np.cos(mode * g.coords[0]),))
        state0 = ep.identity_state(uniform(g), u, 1)
        if accepted:
            ep.integrate_epdiff(state0, 0.1, 0.05)
            return
        with pytest.raises(ge.StateError, match="u not band-limited"):
            ep.integrate_epdiff(state0, 0.1, 0.05)

    @pytest.mark.parametrize("field,bad", [
        ("f", np.nan), ("f", -0.5), ("q", np.nan), ("u", np.inf)])
    def test_rejects_a_bad_hand_built_state(self, field, bad):
        # a NaN or negative f once ran to T, and a NaN q or an infinite u
        # stopped at the first step as "min nan"; the state now refuses to
        # be built
        g = grid1d(32)
        x = g.coords[0]
        values = {"q": 0.1 * np.sin(x), "f": 1.0 + 0.3 * np.cos(x),
                  "u": sp.dealias(g, 0.1 * np.sin(x))}
        values[field][5] = bad
        with pytest.raises(ge.StateError, match=f"^{field} not"):
            ep.DiffeoState(sp.VectorField(g, (values["q"],)),
                           sp.ScalarField(g, values["f"]),
                           sp.VectorField(g, (values["u"],)), 1)


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


class TestIdentityState:
    @pytest.mark.parametrize("field,bad", [
        ("u", np.nan), ("rho0", np.inf), ("rho0", np.nan), ("rho0", -0.5)])
    def test_rejects_bad_input_at_entry(self, field, bad):
        # a NaN velocity ran until the step guard read "min nan", and a
        # signed rho0 projected to a "density" with negative values
        g = grid1d(32)
        x = g.coords[0]
        rho0 = 1.0 + 0.3 * np.cos(x)
        u = 0.1 * np.sin(x)
        (rho0 if field == "rho0" else u)[5] = bad
        with pytest.raises(ge.StateError, match=field):
            ep.identity_state(sp.ScalarField(g, rho0),
                              sp.VectorField(g, (u,)), 1)


class TestProjectLeft:
    # the left projection pi(phi) is the pushforward of the uniform density
    def test_identity(self):
        g = grid1d()
        rho = ep.pushforward_density(
            ep.identity_state(uniform(g), zero_velocity(g), 1))
        assert np.abs(rho.values - 1.0).max() < 1e-12

    def test_translation_volume_preserving(self):
        g = grid1d()
        q = sp.VectorField(g, (np.full(g.shape, -1.234),))
        phi = ep.DiffeoState(q, uniform(g), zero_velocity(g), 1)
        rho = ep.pushforward_density(phi)
        assert np.abs(rho.values - 1.0).max() < 1e-12

    def test_against_rootfinding_oracle(self):
        # phi = x + 0.3 sin x, its inverse psi = x + q found pointwise
        g = grid1d()
        x = g.coords[0]
        psi = np.array([brentq(lambda y: y + 0.3 * np.sin(y) - xi,
                               xi - 0.5, xi + 0.5) for xi in x])
        phi = ep.DiffeoState(sp.VectorField(g, (psi - x,)), uniform(g),
                             zero_velocity(g), 1)
        rho = ep.pushforward_density(phi)
        exact = 1.0 / (1.0 + 0.3 * np.cos(psi))
        exact /= exact.mean()
        assert np.abs(rho.values - exact).max() < 1e-9

    def test_nonpositive_jacobian_rejected(self):
        g = grid1d()
        x = g.coords[0]
        # x + 1.5 sin x folds (Jacobian 1 + 1.5 cos x): it is not a
        # diffeomorphism, and its "pushforward" density would go negative
        phi = ep.DiffeoState(sp.VectorField(g, (1.5 * np.sin(x),)),
                             uniform(g), zero_velocity(g), 1)
        with pytest.raises(ge.SolverAbort, match="Jacobian not positive"):
            ep.pushforward_density(phi)

    @pytest.mark.parametrize("field,bad,message", [
        ("f", -1.0, r"^f not positive \(min -1.000e\+00\)$"),
        ("q", np.nan, "^q not finite$")])
    def test_rejects_a_state_it_could_not_project(self, field, bad, message):
        # f = 1 but for one entry -1 projected to a "density" with min
        # -1.07, and a NaN q was refused as "Jacobian not positive (min nan)"
        g = grid1d(32)
        values = {"q": np.zeros(g.shape), "f": np.ones(g.shape)}
        values[field][3] = bad
        with pytest.raises(ge.StateError, match=message):
            ep.DiffeoState(sp.VectorField(g, (values["q"],)),
                           sp.ScalarField(g, values["f"]), zero_velocity(g), 1)


class TestInvertMap:
    # the flow carries the inverse map psi = x + q of its flow map phi
    def test_1d_against_bisection(self):
        # phi(x) is the particle path x' = u(t, x), by RK4 through the flow's
        # own velocities at t, t + dt/2 and t + dt; inverting the transported
        # psi by bisection must land on it
        g = grid1d()
        x = g.coords[0]
        state = ge.make_state(g, 1 + 0.3 * np.cos(x), np.sin(x), 1)
        T, dt = 1.0, 0.005
        states = ep.integrate_epdiff(
            ep.identity_state(state.rho, ge.horizontal_velocity(state), 1),
            T, dt / 2)

        def vel(i, pts):
            return dense_series(g, states[i][1].u.components, pts[None])[0]

        pts = x.copy()
        for i in range(0, len(states) - 1, 2):
            k1 = vel(i, pts)
            k2 = vel(i + 1, pts + dt / 2 * k1)
            k3 = vel(i + 1, pts + dt / 2 * k2)
            k4 = vel(i + 2, pts + dt * k3)
            pts = pts + dt / 6 * (k1 + 2 * k2 + 2 * k3 + k4)
        assert np.abs(pts - x).max() > 0.4  # far from the identity

        q = states[-1][1].q.components
        lo, hi = x - 1.0, x + 1.0
        for _ in range(80):
            mid = 0.5 * (lo + hi)
            below = mid + dense_series(g, q, mid[None])[0] < x
            lo, hi = np.where(below, mid, lo), np.where(below, hi, mid)
        assert np.abs(pts - 0.5 * (lo + hi)).max() <= 1e-12

    def test_folded_map_rejected(self):
        # psi = x + 1.5 sin x folds (Jacobian 1 + 1.5 cos x): the step guard
        # stops a flow started from it at the first step, as the projection
        # refuses it
        g = grid1d(32)
        x = g.coords[0]
        phi = ep.DiffeoState(sp.VectorField(g, (1.5 * np.sin(x),)),
                             uniform(g), zero_velocity(g), 1)
        with pytest.raises(ge.SolverAbort) as info:
            ep.integrate_epdiff(phi, 0.1, 0.05)
        assert str(info.value) == (
            "t=0.05: Jacobian lost positivity (min -5.000e-01)")
        with pytest.raises(ge.SolverAbort, match="Jacobian not positive"):
            ep.pushforward_density(phi)


class TestPushforward:
    def test_identity_returns_rho0(self):
        g = grid1d()
        x = g.coords[0]
        rho0 = sp.ScalarField(g, 1 + 0.5 * np.cos(x))
        out = ep.pushforward_density(
            ep.identity_state(rho0, zero_velocity(g), 1))
        assert np.abs(out.values - rho0.values).max() < 1e-11

    def test_translation_shifts_density(self):
        g = grid1d()
        x = g.coords[0]
        rho0 = sp.ScalarField(g, 1 + 0.5 * np.cos(x))
        c = 0.8
        u = sp.VectorField(g, (np.full(g.shape, c),))
        _, phi = ep.integrate_epdiff(ep.identity_state(rho0, u, 1), 1.0,
                                     0.01)[-1]
        out = ep.pushforward_density(phi)
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

    def test_rejects_an_infinite_density(self):
        # the defect came back finite (0.00694) with one inf in rho
        g = grid1d(32)
        rho = np.ones(g.shape)
        rho[3] = np.inf
        u = sp.VectorField(g, (0.1 * np.sin(g.coords[0]),))
        with pytest.raises(ge.StateError, match="rho not finite"):
            ep.horizontality_defect(u, sp.ScalarField(g, rho), 1)

    @pytest.mark.parametrize("measure", [
        lambda u, one: ep.horizontality_defect(u, one, 1),
        lambda u, one: ep.epdiff_energy(u, 1)], ids=["defect", "energy"])
    def test_rejects_a_non_finite_velocity(self, measure):
        # both returned NaN for one NaN entry of u
        g = grid1d(32)
        u = 0.1 * np.sin(g.coords[0])
        u[3] = np.nan
        with pytest.raises(ge.StateError, match="^u not finite$"):
            measure(sp.VectorField(g, (u,)), uniform(g))

    def test_stays_small_along_horizontal_trajectory(self):
        g = grid1d()
        x = g.coords[0]
        state = ge.make_state(g, 1 + 0.3 * np.cos(x), 0.2 * np.sin(x), 1)
        u0 = ge.horizontal_velocity(state)
        states = ep.integrate_epdiff(
            ep.identity_state(state.rho, u0, 1), 1.0, 0.005, store_every=20)
        for _, s in states:
            rho = ep.pushforward_density(s)
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


def cross_check_data(dim):
    """A smooth unit-mass density and a momentum on the n = 32 grid."""
    g = sp.make_grid(dim, 32)
    x = g.coords
    rho = 1.0 + 0.3 * np.cos(x[0]) * np.cos(2 * x[-1]) + 0.1 * np.sin(
        3 * x[0] + x[-1])
    p = 0.2 * (np.sin(x[0] + 2 * x[-1]) + 0.5 * np.cos(3 * x[0] - x[-1]))
    return sp.ScalarField(g, rho / rho.mean()), sp.ScalarField(g, p)


def report_from_trajectory(rho0, p0, k, T, dt):
    """cross_validate's report and comparisons, assembled from the whole
    `Trajectory` of the density flow and the list of EPDiff states."""
    n_steps, dt = ge.time_steps(T, dt)
    stride = max(1, n_steps // (ep.N_CHECKS - 1))
    traj = ge.shoot(rho0, p0, k, T, dt, store_every=stride)
    u0 = ge.horizontal_velocity(traj.states[0])
    states = ep.integrate_epdiff(ep.identity_state(rho0, u0, k), T, dt,
                                 stride)
    rows = []
    for (t, phi), state, d in zip(states, traj.states, traj.diagnostics,
                                  strict=True):
        rho_ep = ep.pushforward_density(phi)
        rows.append((t, sp.l2_norm_values(rho_ep.values - state.rho.values),
                     ep.horizontality_defect(phi.u, rho_ep, k), d.energy,
                     ep.epdiff_energy(phi.u, k)))
    _, discrepancies, defects, e_dens, e_ep = map(list, zip(*rows))

    def rel_drift(values):
        ref = abs(values[0])
        if ref == 0.0:
            return 0.0
        return float(max(abs(v - values[0]) for v in values) / ref)

    grid = rho0.grid
    return {
        "grid": {"dim": grid.dim, "n": grid.n},
        "k": k,
        "dt": dt,
        "T": T,
        "l2_discrepancy_final": discrepancies[-1],
        "l2_discrepancy_max": max(discrepancies),
        "horizontality_defect_max": max(defects),
        "energy_drift_density": rel_drift(e_dens),
        "energy_drift_epdiff": rel_drift(e_ep),
    }, rows


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

    @pytest.mark.parametrize("dim,k", [(1, 1), (2, 2)])
    def test_equals_the_report_from_the_trajectory(self, dim, k):
        """Key for key and bit for bit, the report and each comparison
        handed to out are those assembled from `geodesic.shoot`'s whole
        `Trajectory` and `integrate_epdiff`'s states."""
        rho0, p0 = cross_check_data(dim)
        T, dt = 0.5, 0.02
        comparisons = []
        report = ep.cross_validate(rho0, p0, k, T, dt,
                                   out=lambda *c: comparisons.append(c))
        expected, rows = report_from_trajectory(rho0, p0, k, T, dt)
        assert list(report) == list(expected)
        for key in expected:
            assert repr(report[key]) == repr(expected[key]), key
        assert len(comparisons) == 14  # 25 steps, every 2nd and the last
        assert repr(comparisons) == repr(rows)

    def test_energies_share_one_convention(self):
        """At t = 0 of a check of xval-2d's size (2-D n 32, k 2) EPDiff's
        0.5 <Au, u> is the density flow's 0.5 <p, L_rho p>."""
        rho0, p0 = cross_check_data(2)
        comparisons = []
        ep.cross_validate(rho0, p0, 2, 0.04, 0.02,
                          out=lambda *c: comparisons.append(c))
        t, _, _, energy_density, energy_epdiff = comparisons[0]
        assert t == 0.0
        assert energy_epdiff == pytest.approx(energy_density, rel=1e-12)

    def test_holds_no_density_state_while_epdiff_runs(self, monkeypatch):
        """Of the density flow's snapshots only rho and the energy are
        kept, so no `geodesic.DensityState` is alive while EPDiff runs."""
        def density_states():
            gc.collect()
            return sum(isinstance(obj, ge.DensityState)
                       for obj in gc.get_objects())

        alive = []
        integrate_epdiff = ep.integrate_epdiff

        def counted(*args, **kw):
            alive.append(density_states())
            return integrate_epdiff(*args, **kw)

        monkeypatch.setattr(ep, "integrate_epdiff", counted)
        rho0, p0 = cross_check_data(2)
        before = density_states()
        ep.cross_validate(rho0, p0, 2, 0.5, 0.02)
        assert alive == [before]

    def test_transposed_data_give_the_same_comparisons(self):
        """Generic 2-D data and their transpose (n 16, k 2, T 0.5, dt 0.05)
        give the same comparisons: both flows and the horizontality defect
        treat the two axes alike. The 2-D transforms take the axes in
        different orders, so they agree to roundoff only. Measured: the
        discrepancies within 4.8e-18, the energies within 2.2e-19 (of about
        6e-4) and the defects within 2.3e-14 (of about 1.4e-6)."""
        g = sp.make_grid(2, 16)
        rng = np.random.default_rng(0)
        rho0 = va.random_density(rng, g).values
        p0 = va.random_band_limited(rng, g, amplitude=0.3)
        runs = []
        for rho, p in ((rho0, p0), (rho0.T, p0.T)):
            rows = []
            ep.cross_validate(sp.ScalarField(g, rho), sp.ScalarField(g, p),
                              2, 0.5, 0.05, out=lambda *row: rows.append(row))
            runs.append(np.array(rows))
        (t, disc, defect, e_dens, e_ep), swapped = runs[0].T, runs[1].T
        assert np.array_equal(t, swapped[0])
        # discrepancies and energies: within 1e-15, about 200 times the
        # measured agreement
        for ours, theirs in zip((disc, e_dens, e_ep), swapped[[1, 3, 4]]):
            assert np.abs(ours - theirs).max() <= 1e-15
        # defects: within 1e-12, about 40 times the measured agreement
        assert np.abs(defect - swapped[2]).max() <= 1e-12

    def test_rejects_negative_order(self):
        g = grid1d(32)
        rho0 = sp.ScalarField(g, np.ones(g.shape))
        p0 = sp.ScalarField(g, np.zeros(g.shape))
        with pytest.raises(ValueError):
            ep.cross_validate(rho0, p0, -1, 0.1, 0.05)

    def test_overflow_is_reported_by_the_guard_alone(self):
        """At k = 40 EPDiff's products overflow in the first step. The
        finiteness guard reports it; numpy's overflow and invalid-value
        warnings from the right-hand side do not reach the user first."""
        g = grid1d(32)
        x = g.coords[0]
        rho0 = sp.ScalarField(g, 1 + 0.3 * np.cos(x))
        p0 = sp.ScalarField(g, 0.2 * np.sin(x))
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(ge.SolverAbort) as info:
                ep.cross_validate(rho0, p0, 40, 0.5, 0.01)
        assert str(info.value) == "t=0.01: state is no longer finite"


def test_lagrangian_eulerian_consistency():
    # the transported f is rho0 composed with the transported inverse map
    g = grid1d()
    x = g.coords[0]
    state = ge.make_state(g, 1 + 0.3 * np.cos(x), 0.3 * np.sin(x), 1)
    u0 = ge.horizontal_velocity(state)
    states = ep.integrate_epdiff(ep.identity_state(state.rho, u0, 1), 0.5,
                                 0.005, store_every=25)
    assert len(states) == 5
    for _, s in states:
        composed = dense_series(g, state.rho.values[None],
                                g.coords + s.q.components)[0]
        assert np.abs(s.f.values - composed).max() < 1e-8


class TestExactFinalTime:
    def test_integrate_epdiff_ends_at_T(self):
        g = grid1d(16)
        u = sp.VectorField(g, (np.full(g.shape, 0.4),))
        states = ep.integrate_epdiff(ep.identity_state(uniform(g), u, 1),
                                     1.0, 0.3)
        assert [t for t, _ in states] == [0.0, 0.25, 0.5, 0.75, 1.0]
        assert np.abs(states[-1][1].q.components[0] + 0.4).max() < 1e-12

    def test_cross_validate_reports_step_taken(self):
        g = grid1d(32)
        x = g.coords[0]
        rho0 = sp.ScalarField(g, 1 + 0.3 * np.cos(x))
        p0 = sp.ScalarField(g, 0.2 * np.sin(x))
        rep = ep.cross_validate(rho0, p0, 1, 0.2, 0.03)
        assert rep["dt"] == 0.2 / 7
        assert rep["l2_discrepancy_max"] < 1e-8
