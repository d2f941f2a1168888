"""Layer timings of the 2-D flow at n = 128, k = 2 (the shoot-2d grid), of
the 1-D flow at n = 32, k = 1 (the match-1d grid), of one matching
Jacobian and one solve_match at the match-1d size, and of one
integrate_epdiff at the xval-2d size.

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
density with the horizontal velocity of a unit-size momentum.
"""
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
    p -= p.mean(axis=ops.axes, keepdims=True)
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


def test_rhs(benchmark, stack):
    ops, _, y = stack
    benchmark(ge._rhs, ops.band, y)


def test_guarded_rk4_step(benchmark, stack):
    ops, dt, y = stack
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


@pytest.fixture(scope="module")
def epdiff_state():
    """An xval-2d-sized initial state (2-D n = 32, k = 2)."""
    g = sp.make_grid(2, 32)
    x = g.coords
    rho = 1.0 + 0.3 * np.cos(x[0]) * np.cos(2 * x[1]) + 0.1 * np.sin(
        3 * x[0] + x[1])
    p = np.sin(x[0] + 2 * x[1]) + 0.5 * np.cos(3 * x[0] - x[1])
    state = ge.make_state(g, rho / rho.mean(), p, 2)
    return ep.identity_state(state.rho, ge.horizontal_velocity(state), 2)


def test_integrate_epdiff(benchmark, epdiff_state):
    states = benchmark(ep.integrate_epdiff, epdiff_state, 0.5, 0.01,
                       store_every=5)
    assert len(states) == 11
