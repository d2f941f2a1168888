"""Layer timings of the 2-D flow at n = 128, k = 2 (the shoot-2d grid), and
of one matching Jacobian at the match-1d size.

    PYTHONPATH=src python -m pytest tests/bench_layers.py --benchmark-only

Not part of the test suite (the name does not match test_*.py). It times a
dealiased transform pair on the full half spectrum (rfft2/irfft2) and on the
2/3-rule band, one Hamiltonian right-hand side on each, and one guarded RK4
step of the one-member stack that `shoot` steps. The Jacobian case (1-D
n = 32, k = 1, 3 modes = 6 coefficients, T = 0.5, dt = 0.02: 25 steps) times
the central-difference stencil (two stacked shoots of 6 members), the
tangent stack (the base and 6 tangents) and the c = 0 shortcut.
"""
import numpy as np
import pytest

from densgeo import geodesic as ge, matching as ma, spectral as sp
from test_matching import fd_jacobian

N, K, DT = 128, 2, 0.01


@pytest.fixture(scope="module")
def ops():
    return sp.operators(sp.make_grid(2, N), K)


@pytest.fixture(scope="module")
def state(ops):
    """A smooth (rho, p) of the size and strength of shoot-2d's inputs."""
    x, y = ops.grid.coords
    rho = 1.0 + 0.4 * np.cos(x) * np.cos(2 * y) + 0.2 * np.sin(3 * x + y)
    p = 15.0 * (np.sin(x + 2 * y) + 0.5 * np.cos(3 * x - y))
    return np.stack((rho / rho.mean(), p - p.mean()))


@pytest.mark.parametrize("table", ["full", "band"])
def test_dealiased_transform_pair(benchmark, ops, state, table):
    t = ops if table == "full" else ops.band
    benchmark(lambda: t.ifft(t.fft(state[1]) * t.mask))


@pytest.mark.parametrize("table", ["full", "band"])
def test_rhs(benchmark, ops, state, table):
    benchmark(ge._rhs, ops if table == "full" else ops.band, state)


def test_guarded_rk4_step(benchmark, ops, state):
    y, reasons = benchmark(ge.step_rk4, ops, state[None], DT)
    assert reasons == [None]


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
