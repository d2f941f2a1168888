"""Dimension embedding: 2-D data constant along one axis evolves as 1-D data.

A field on T^1 repeated along x2 (or along x1) is a field on T^2 whose
spectrum lies on the column m2 = 0 (or on the row m1 = 0). The geodesic
flow, the EPDiff cross-check and a match of such data must each give the
1-D run's values, repeated the same way: this catches a slip of the 2-D
band, of the vector axis or of the 2-D coefficient placement (the mirrored
column-0 entries) that the 1-D tests cannot see. The match has 24
coefficients in 2-D and 4 in 1-D; the 20 of the modes off the embedded
axis have no gradient, so they stay 0 and the iterates agree.

Measured agreement (n 16, k 2, T 0.5, dt 0.05, n_modes 2): the shoots'
rho equal, p within 1.4e-16, energies within 8.4e-16 relative; the
cross-checks' discrepancies within 3.6e-17, horizontality defects within
1.1e-16 (of about 1.9e-9) and energies within 1e-15 relative; the matches'
final rho within 4.4e-16 and p0 within 1.6e-14, with the same status and
iteration count.
"""
import numpy as np
import pytest

from densgeo import epdiff as ep, geodesic as ge, matching as ma
from densgeo import spectral as sp

N, K, T, DT, N_MODES = 16, 2, 0.5, 0.05, 2
# the tolerances, each about 100 times the measured agreement
SHOOT_TOL = 1e-14  # max |rho2 - rho1|, |p2 - p1| over the snapshots
ENERGY_RTOL = 1e-13  # relative, the shoots' and cross-checks' energies
XVAL_TOL = 1e-14  # the cross-checks' L2 discrepancies and defects
MATCH_RHO_TOL = 1e-13  # max |rho2 - rho1| of the matches' final states
MATCH_P0_TOL = 1e-12  # max |p0_2 - p0_1| of the matches' momenta

AXES = pytest.mark.parametrize("axis", [0, 1], ids=["x1", "x2"])


def data_1d():
    """rho0, rho1 (its translate) and p0 on T^1, n = N."""
    x = sp.make_grid(1, N).coords[0]
    rho0 = 1 + 0.2 * np.cos(x) + 0.1 * np.sin(2 * x)
    rho1 = 1 + 0.2 * np.cos(x - 0.4) + 0.1 * np.sin(2 * x - 0.8)
    p0 = 0.3 * np.sin(x) + 0.1 * np.cos(2 * x)
    return rho0 / rho0.mean(), rho1 / rho1.mean(), p0


def embed(values, axis):
    """1-D values (N,) as a field on T^2 that varies along x_(axis+1) only."""
    return np.repeat(np.expand_dims(values, 1 - axis), N, axis=1 - axis)


def fields(dim, axis):
    """ScalarFields (rho0, rho1, p0) on T^dim, embedded along axis in 2-D."""
    g = sp.make_grid(dim, N)
    return [sp.ScalarField(g, v if dim == 1 else embed(v, axis))
            for v in data_1d()]


@AXES
def test_shoot(axis):
    one, two = (ge.shoot(rho0, p0, K, T, DT)
                for rho0, _, p0 in (fields(1, axis), fields(2, axis)))
    assert np.array_equal(one.times, two.times)
    for a, b in zip(one.states, two.states):
        assert np.abs(b.rho.values - embed(a.rho.values, axis)).max() \
            <= SHOOT_TOL
        assert np.abs(b.p.values - embed(a.p.values, axis)).max() \
            <= SHOOT_TOL
    for a, b in zip(one.diagnostics, two.diagnostics):
        assert abs(b.energy - a.energy) <= ENERGY_RTOL * abs(a.energy)


def cross_check(dim, axis):
    """The comparisons (t, discrepancy, defect, energy_density,
    energy_epdiff) of `cross_validate`, one row each."""
    rho0, _, p0 = fields(dim, axis)
    rows = []
    ep.cross_validate(rho0, p0, K, T, DT, out=lambda *row: rows.append(row))
    return np.array(rows)


@AXES
def test_cross_check(axis):
    one, two = cross_check(1, axis), cross_check(2, axis)
    assert np.array_equal(one[:, 0], two[:, 0])
    assert np.abs(two[:, 1] - one[:, 1]).max() <= XVAL_TOL
    assert np.all(np.abs(two[:, 3:] - one[:, 3:])
                  <= ENERGY_RTOL * np.abs(one[:, 3:]))


@AXES
def test_cross_check_defect(axis):
    one, two = cross_check(1, axis), cross_check(2, axis)
    assert np.abs(two[:, 2] - one[:, 2]).max() <= XVAL_TOL


@AXES
def test_match(axis):
    one, two = (ma.solve_match(ma.MatchProblem(rho0, rho1, K, T, DT,
                                               N_MODES))
                for rho0, rho1, _ in (fields(1, axis), fields(2, axis)))
    assert (len(one.coeffs), len(two.coeffs)) == (4, 24)
    assert one.status == two.status == "converged"
    assert len(one.history_rows) == len(two.history_rows)
    assert np.abs(two.final_state.rho.values
                  - embed(one.final_state.rho.values, axis)).max() \
        <= MATCH_RHO_TOL
    assert np.abs(two.p0.values - embed(one.p0.values, axis)).max() \
        <= MATCH_P0_TOL
