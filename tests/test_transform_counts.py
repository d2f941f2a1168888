"""numpy transform calls per right-hand side and per RK4 step of the flow.

The flow carries p as its band spectrum, so a right-hand side takes grad p
straight from it and returns p_t as a spectrum: 6 numpy calls in 1-D
(irfft of grad p, the Ainv pair, the flux's rfft and irfft, the advection
term's rfft) and 12 in 2-D, where each transform is two calls. The tangent
stack takes the same calls for all its rows. The counters patch numpy.fft,
so these counts also check that the operator table looks its transforms up
there at call time.
"""
from functools import partial

import numpy as np
import pytest

from densgeo import geodesic as ge, spectral as sp

CASES = [(1, 32, 1, 6), (2, 32, 2, 12)]  # dim, n, k, calls per rhs


@pytest.fixture
def calls(monkeypatch):
    """A counter of numpy.fft.{rfft,irfft,fft,ifft} calls."""
    count = [0]
    for name in ("rfft", "irfft", "fft", "ifft"):
        def counted(*args, _f=getattr(np.fft, name), **kwargs):
            count[0] += 1
            return _f(*args, **kwargs)
        monkeypatch.setattr(np.fft, name, counted)
    return count


def stacks(dim, n, k, m=3):
    """The table, a two-member stack of states and a one-member tangent
    stack with m tangents, as `step_rk4` steps them."""
    g = sp.make_grid(dim, n)
    ops = sp.operators(g, k)
    x = g.coords
    rho = 1 + 0.3 * np.cos(x[0])
    p = np.stack([a * np.sin(x[0]) + 0.1 * np.cos(x[-1]) for a in (0.2, 0.4)])
    y = ge._state_rows(ops.band, np.broadcast_to(rho, p.shape), p)
    dp = np.stack([np.cos((i + 1) * x[-1]) for i in range(m)])
    tangents = ge._state_rows(ops.band, np.zeros_like(dp), dp)
    return ops, y, np.concatenate((y[:1], tangents))[None]


@pytest.mark.parametrize("dim,n,k,per_rhs", CASES)
def test_rhs(calls, dim, n, k, per_rhs):
    ops, y, tangent = stacks(dim, n, k)
    calls[0] = 0
    ge._rhs(ops.band, y)
    assert calls[0] == per_rhs
    calls[0] = 0
    ge._tangent_rhs(ops.band, tangent)
    assert calls[0] == per_rhs


@pytest.mark.parametrize("dim,n,k,per_rhs", CASES)
def test_step_rk4(calls, dim, n, k, per_rhs):
    ops, y, tangent = stacks(dim, n, k)
    for stack, rhs in ((y, ge._rhs), (tangent, ge._tangent_rhs)):
        calls[0] = 0
        _, reasons = ge.step_rk4(ops, stack, 0.01, rhs=rhs)
        assert reasons == [None] * len(stack)
        assert calls[0] == 4 * per_rhs


def test_hamiltonian_rhs_converts_at_both_ends(calls):
    # the right-hand side of a physical state: fft(p) and a last irfft on
    # top of the six calls above
    g = sp.make_grid(1, 32)
    state = ge.make_state(g, 1 + 0.3 * np.cos(g.coords[0]),
                          0.2 * np.sin(g.coords[0]), 1)
    calls[0] = 0
    ge.hamiltonian_rhs(state)
    assert calls[0] == 8
