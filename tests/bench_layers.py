"""Layer timings of the 2-D flow at n = 128, k = 2 (the shoot-2d grid).

    PYTHONPATH=src python -m pytest tests/bench_layers.py --benchmark-only

Not part of the test suite (the name does not match test_*.py). It times a
dealiased transform pair on the full half spectrum (rfft2/irfft2) and on the
2/3-rule band, one Hamiltonian right-hand side on each, and one guarded RK4
step of the one-member stack that `shoot` steps.
"""
import numpy as np
import pytest

from densgeo import geodesic as ge, spectral as sp

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
