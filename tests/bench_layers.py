"""Layer timings of the 2-D flow at n = 128, k = 2 (the shoot-2d grid), of
the 1-D flow at n = 32, k = 1 (the match-1d grid), of one matching
Jacobian and one solve_match at the match-1d size, of one guarded EPDiff
step at the shoot-2d grid, and of one integrate_epdiff and one
cross_validate at the xval-2d size.

    PYTHONPATH=src python -m pytest tests/bench_layers.py --benchmark-only

Not part of the test suite (the name does not match test_*.py). It times a
dealiased transform pair on the full half spectrum (rfft2/irfft2) and on the
2/3-rule band, and one Hamiltonian right-hand side and one guarded RK4 step
of the rows the flow steps: a state, a row of the grid values of rho and p's
band spectrum (`geodesic._rows`), and its m tangents. The cases are one
state (m = 0, a plain shoot) on each grid, and on the 1-D grid the rows of a
match-1d Jacobian (the state and 6 tangents), where per-call overhead
dominates. The Jacobian case (1-D n = 32, k = 1, 3 modes = 6 coefficients,
T = 0.5, dt = 0.02: 25 steps) times the central-difference stencil (12
shoots), the tangent rows (the base and 6 tangents) and the c = 0 shortcut.
The solve_match case runs Levenberg-Marquardt on the same problem to
convergence (5 iterations: the c = 0 Jacobian and 4 accepted trials, each
carrying the next Jacobian and keeping its state at every step; the last
one's record, summarized in stacks of 7 rows, is the final geodesic, with
no shoot of its own: 4 time loops). The EPDiff case (2-D
n = 32, k = 2, T = 0.5, dt = 0.01: 50 steps, 11 states built, at the
steps cross_validate compares) integrates the identity map carrying a smooth
density with the horizontal velocity of a unit-size momentum; the EPDiff
step case takes one guarded RK4 step (dt = 0.01) of that flow's initial row
(`epdiff._rows`) at 2-D n = 128, k = 2. The cross-check case runs
cross_validate on that density and momentum at the xval-2d size: the
density flow, in a forked worker where one can be forked, beside EPDiff,
compared at those 11 steps. The right-hand side, the RK4 steps,
integrate_epdiff and cross_validate also record the traced peak
(tracemalloc) of one call above what was held at its entry, in
`extra_info`: in bytes and in rows of the state (8 bytes times the row
length R; EPDiff's row for cross_validate), so that layer runs report
memory next to time. tracemalloc sees only the calling process, so
cross_validate's peak leaves out a forked density flow.
"""
import tracemalloc

import numpy as np
import pytest

from densgeo import epdiff as ep, geodesic as ge, matching as ma, \
    spectral as sp
from test_matching import fd_jacobian

# case -> (dim, n, k, dt, tangents)
FLOWS = {"2d-n128": (2, 128, 2, 0.01, 0),
         "1d-n32": (1, 32, 1, 0.02, 0),
         "1d-n32-jacobian": (1, 32, 1, 0.02, 6)}


def flow(case):
    """The table of a grid and the rows (1 + m, R) of a smooth state of the
    size and strength of the workload's inputs there and m tangents."""
    dim, n, k, dt, m = FLOWS[case]
    ops = sp.operators(sp.make_grid(dim, n), k)
    x = ops.grid.coords
    rho = 1.0 + 0.4 * np.cos(x[0]) * np.cos(2 * x[-1]) + 0.2 * np.sin(
        3 * x[0] + x[-1])
    amp = 15.0 if dim == 2 else 0.3
    p = np.stack([amp * (np.sin(x[0] + 2 * x[-1]) + 0.5 * np.cos(
        3 * x[0] - x[-1]) + 0.1 * i * np.sin(2 * x[0]))
        for i in range(1 + m)])
    p -= p.mean(axis=tuple(range(-dim, 0)), keepdims=True)
    rhos = np.zeros(p.shape)  # tangents (0, dp)
    rhos[0] = rho / rho.mean()
    return ops, dt, ge._state_rows(ops.band, rhos, p)


@pytest.fixture(scope="module", params=list(FLOWS))
def stack(request):
    return flow(request.param)


@pytest.mark.parametrize("table", ["full", "band"])
def test_dealiased_transform_pair(benchmark, table):
    ops, _, y = flow("2d-n128")
    t = ops if table == "full" else ops.band
    p = t.ifft(ge._split(ops.band, y)[1][0])
    benchmark(lambda: t.ifft(t.fft(p) * t.mask))


def record_peak(benchmark, row_bytes, f, *args):
    """Put the traced peak of one call f(*args) in the benchmark's
    extra_info, in bytes and in rows of row_bytes bytes."""
    tracemalloc.start()
    try:
        start = tracemalloc.get_traced_memory()[0]
        f(*args)
        peak = tracemalloc.get_traced_memory()[1] - start
    finally:
        tracemalloc.stop()
    benchmark.extra_info["peak_bytes"] = peak
    benchmark.extra_info["peak_rows"] = peak / row_bytes


def test_rhs(benchmark, stack):
    ops, _, y = stack
    record_peak(benchmark, y[0].nbytes, ge._rhs, ops.band, y)
    benchmark(ge._rhs, ops.band, y)


def test_guarded_rk4_step(benchmark, stack):
    ops, dt, y = stack
    record_peak(benchmark, y[0].nbytes, ge.step_rk4, ops, y, dt)
    _, reason = benchmark(ge.step_rk4, ops, y, dt)
    assert reason is None


@pytest.fixture(scope="module")
def match_problem():
    """A match-1d-sized problem: a translated bump, 6 coefficients."""
    g = sp.make_grid(1, 32)
    x = g.coords[0]
    rho0 = 1.0 + 0.3 * np.cos(x) + 0.1 * np.sin(2 * x)
    rho1 = 1.0 + 0.3 * np.cos(x - 0.3) + 0.1 * np.sin(2 * x - 0.6)
    return ma.MatchProblem(sp.ScalarField(g, rho0 / rho0.mean()),
                           sp.ScalarField(g, rho1 / rho1.mean()),
                           1, 0.5, 0.02, 3)


@pytest.mark.parametrize("method", ["fd_stencil", "tangent", "rest"])
def test_matching_jacobian(benchmark, match_problem, method):
    coeffs = np.zeros(6)
    if method != "rest":
        coeffs = 0.05 * np.random.default_rng(0).normal(size=6)
    jacobian = fd_jacobian if method == "fd_stencil" else ma._jacobian
    jac = benchmark(jacobian, match_problem, coeffs)
    assert jac.shape == (6, 32)


def test_solve_match(benchmark, match_problem):
    result = benchmark(ma.solve_match, match_problem)
    assert result.status == "converged"


def density_state(n):
    """A smooth density state with a unit-size momentum (2-D, k = 2)."""
    g = sp.make_grid(2, n)
    x = g.coords
    rho = 1.0 + 0.3 * np.cos(x[0]) * np.cos(2 * x[1]) + 0.1 * np.sin(
        3 * x[0] + x[1])
    p = np.sin(x[0] + 2 * x[1]) + 0.5 * np.cos(3 * x[0] - x[1])
    return ge.make_state(g, rho / rho.mean(), p, 2)


@pytest.fixture(scope="module")
def xval_state():
    """An xval-2d-sized density state (2-D n = 32, k = 2)."""
    return density_state(32)


def epdiff_start(state):
    """The identity map carrying the state's density with its horizontal
    velocity, and that flow's table and initial row."""
    state0 = ep.identity_state(state.rho, ge.horizontal_velocity(state), 2)
    ops = sp.operators(state.grid, 2)
    return state0, ops, ep._initial_row(ops, state0)


def test_epdiff_flow_step(benchmark):
    _, ops, y = epdiff_start(density_state(128))
    ep._flow_step(ops, y, 0.01)  # builds jacobian_det's table
    record_peak(benchmark, y.nbytes, ep._flow_step, ops, y, 0.01)
    _, reason = benchmark(ep._flow_step, ops, y, 0.01)
    assert reason is None


def test_integrate_epdiff(benchmark, xval_state):
    state0, _, y = epdiff_start(xval_state)
    record_peak(benchmark, y.nbytes, ep.integrate_epdiff, state0, 0.5, 0.01,
                5)
    states = benchmark(ep.integrate_epdiff, state0, 0.5, 0.01,
                       store_every=5)
    assert len(states) == 11


def test_cross_validate(benchmark, xval_state):
    _, _, y = epdiff_start(xval_state)
    record_peak(benchmark, y.nbytes, ep.cross_validate, xval_state.rho,
                xval_state.p, 2, 0.5, 0.01)
    report = benchmark(ep.cross_validate, xval_state.rho, xval_state.p, 2,
                       0.5, 0.01)
    assert report["l2_discrepancy_final"] < 1e-5
