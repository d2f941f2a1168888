"""Property tests of the input, time-step and abort guards."""
import math
import os
import tempfile

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from densgeo import geodesic as ge, io, matching as ma, spectral as sp

BAD = st.sampled_from([np.nan, np.inf, -np.inf])
GRIDS = st.sampled_from([(1, 16), (2, 8)])


def smooth_density(grid):
    x = grid.coords[0]
    rho = 1.0 + 0.3 * np.cos(x)
    return rho / rho.mean()


def spoiled(values, index, bad):
    out = values.copy()
    out.flat[index % out.size] = bad
    return out


@pytest.mark.filterwarnings("error::RuntimeWarning")
@settings(max_examples=30, deadline=None)
@given(grid=GRIDS, index=st.integers(0, 10 ** 6), bad=BAD,
       target=st.sampled_from(["rho", "p"]))
def test_make_state_rejects_non_finite(grid, index, bad, target):
    g = sp.make_grid(*grid)
    fields = {"rho": smooth_density(g), "p": np.sin(g.coords[0])}
    fields[target] = spoiled(fields[target], index, bad)
    with pytest.raises(ge.StateError, match="finite"):
        ge.make_state(g, fields["rho"], fields["p"], 1)


@settings(max_examples=30, deadline=None)
@given(grid=GRIDS, index=st.integers(0, 10 ** 6), bad=BAD,
       target=st.sampled_from(["rho0", "rho1"]))
def test_match_problem_rejects_non_finite(grid, index, bad, target):
    g = sp.make_grid(*grid)
    fields = {"rho0": smooth_density(g), "rho1": np.ones(g.shape)}
    fields[target] = spoiled(fields[target], index, bad)
    with pytest.raises(ValueError, match="finite"):
        ma.MatchProblem(sp.ScalarField(g, fields["rho0"]),
                        sp.ScalarField(g, fields["rho1"]), 1, 0.1, 0.05, 2)


@settings(max_examples=30, deadline=None)
@given(grid=GRIDS, index=st.integers(0, 10 ** 6), bad=BAD,
       vector=st.booleans())
def test_read_field_rejects_non_finite(grid, index, bad, vector):
    g = sp.make_grid(*grid)
    if vector:
        values = np.ones((g.dim,) + g.shape)
        field = sp.VectorField(g, spoiled(values, index, bad))
    else:
        field = sp.ScalarField(g, spoiled(np.ones(g.shape), index, bad))
    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, "f.field")
        io.write_field(path, field)
        with pytest.raises(io.FieldFormatError, match="non-finite"):
            io.read_field(path)


@settings(max_examples=200, deadline=None)
@given(T=st.floats(1e-3, 50.0), ratio=st.floats(0.5, 5000.0))
def test_time_steps_end_exactly_at_T(T, ratio):
    dt = T / ratio
    n, step = ge.time_steps(T, dt)
    assert n >= 1 and step <= dt / (1.0 - ge.STEP_RTOL)
    # the integrators' times (i + 1) * step, and a running sum of the steps
    tol = n * math.ulp(T)
    assert abs(n * step - T) <= tol
    total = 0.0
    for _ in range(n):
        total += step
    assert abs(total - T) <= tol


@settings(max_examples=12, deadline=None)
@given(amps=st.lists(st.floats(0.0, 1.0), min_size=1, max_size=4),
       shift=st.floats(0.0, 2 * np.pi))
@example(amps=[0.1, 0.8], shift=0.0)  # one shoot reaches T, one aborts
def test_shoot_endpoints_partial_output_is_valid(amps, shift):
    # k = -1 on a steep density: momenta above about 0.3 lose positivity and
    # abort before T, weaker ones reach it. Matching's residual is a valid
    # endpoint where the shoot reaches T, and its SolverAbort, scored with
    # the penalty, where it aborts.
    g = sp.make_grid(1, 32)
    x = g.coords[0]
    rho0 = sp.ScalarField(g, 1.0 + 0.9 * np.cos(x))
    T = 1.0
    problem = ma.MatchProblem(rho0, rho0, -1, T, 0.02, 1)
    for a in amps:
        # a sin(x + shift) in the basis cos(x), sin(x)
        coeffs = np.array([a * np.sin(shift), a * np.cos(shift)])
        j = ma.objective(problem, coeffs)
        try:
            r = ma._residual(problem, coeffs)
        except ge.SolverAbort as exc:
            assert 0.0 < exc.time <= T
            assert j == ma.PENALTY_BASE + (T - exc.time)
        else:
            assert r.shape == g.shape
            rho_T = r + rho0.values
            assert np.isfinite(rho_T).all() and rho_T.min() > 0.0
            assert abs(rho_T.mean() - 1.0) <= ge.MASS_TOL
            assert j == 0.5 * np.mean(r ** 2)
