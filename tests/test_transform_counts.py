"""numpy transform calls per right-hand side and per RK4 step of the flow.

The flow carries p as its band spectrum, so a right-hand side takes grad p
straight from it and returns p_t as a spectrum: 6 numpy calls in 1-D
(irfft of grad p, the Ainv pair, the flux's rfft and irfft, the advection
term's rfft) and 12 in 2-D, where each transform is two calls. A state with
m tangents takes the same calls for all its rows, m = 0 included. The
counters patch numpy.fft, so these counts also check that the operator table
looks its transforms up there at call time. `shoot_tangents` takes its
tangents as band spectra, so over s steps it adds to the steps' calls only
the forward transform of the base p0. The horizontal velocity of a state is
fft(p) and `_velocity`'s three transforms: 4 calls in 1-D and 8 in 2-D.

EPDiff carries u as its band spectrum too: a right-hand side takes u, m = Au
and their gradients from it in two inverse transforms, transports q and f by
one gradient (a forward and an inverse transform) and returns u_t as a
spectrum, one forward transform: 5 calls in 1-D and 10 in 2-D. A guarded
step adds the gradient of q that the Jacobian guard reads.
"""
import numpy as np
import pytest

from densgeo import epdiff as ep, geodesic as ge, matching as ma
from densgeo import spectral as sp

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


def rows(dim, n, k, m):
    """The table and the rows (1 + m, R) of a state and m tangents, as
    `step_rk4` steps them."""
    g = sp.make_grid(dim, n)
    ops = sp.operators(g, k)
    x = g.coords
    state = ge._state_rows(ops.band, 1 + 0.3 * np.cos(x[0]),
                           0.2 * np.sin(x[0]) + 0.1 * np.cos(x[-1]))
    dp = np.array([np.cos((i + 1) * x[-1])
                   for i in range(m)]).reshape((m,) + g.shape)
    tangents = ge._state_rows(ops.band, np.zeros_like(dp), dp)
    return ops, np.concatenate((state[None], tangents))


@pytest.mark.parametrize("dim,n,k,per_rhs", CASES)
def test_rhs(calls, dim, n, k, per_rhs):
    for m in (0, 3):
        ops, y = rows(dim, n, k, m)
        calls[0] = 0
        ge._rhs(ops.band, y)
        assert calls[0] == per_rhs


@pytest.mark.parametrize("dim,n,k,per_rhs", CASES)
def test_step_rk4(calls, dim, n, k, per_rhs):
    for m in (0, 3):
        ops, y = rows(dim, n, k, m)
        calls[0] = 0
        _, reason = ge.step_rk4(ops, y, 0.01)
        assert reason is None
        assert calls[0] == 4 * per_rhs


@pytest.mark.parametrize("dim,n,k,per_rhs", CASES)
def test_shoot_tangents(calls, dim, n, k, per_rhs):
    # 2 steps: 4 right-hand sides each, and one forward transform of p0
    # (one call per grid axis); the tangents are never transformed
    g = sp.make_grid(dim, n)
    x = g.coords
    rho0 = sp.ScalarField(g, 1 + 0.3 * np.cos(x[0]))
    p0 = 0.2 * np.sin(x[0]) + 0.1 * np.cos(x[-1])
    for m in (0, 3):
        dp = ma.momentum_hat(g, 2, np.eye(m, ma.n_coeffs(g, 2)))
        calls[0] = 0
        ge.shoot_tangents(rho0, p0, dp, k, 0.02, 0.01)
        assert calls[0] == 4 * 2 * per_rhs + dim


@pytest.mark.parametrize("dim,per_call", [(1, 4), (2, 8)])
def test_horizontal_velocity(calls, dim, per_call):
    # fft(p), then grad p, rho grad p's forward and Ainv's inverse transform
    g = sp.make_grid(dim, 32)
    x = g.coords
    state = ge.make_state(g, 1 + 0.3 * np.cos(x[0]),
                          0.2 * np.sin(x[0]) + 0.1 * np.cos(x[-1]), 2)
    calls[0] = 0
    ge.horizontal_velocity(state)
    assert calls[0] == per_call


def test_hamiltonian_rhs_converts_at_both_ends(calls):
    # the right-hand side of a physical state: fft(p) and a last irfft on
    # top of the six calls above
    g = sp.make_grid(1, 32)
    state = ge.make_state(g, 1 + 0.3 * np.cos(g.coords[0]),
                          0.2 * np.sin(g.coords[0]), 1)
    calls[0] = 0
    ge.hamiltonian_rhs(state)
    assert calls[0] == 8


@pytest.mark.parametrize("dim,per_rhs,per_step", [(1, 5, 22), (2, 10, 44)])
def test_epdiff_rhs_and_step(calls, dim, per_rhs, per_step):
    g = sp.make_grid(dim, 32)
    ops = sp.operators(g, 2)
    x = g.coords
    state = ge.make_state(g, 1 + 0.3 * np.cos(x[0]),
                          0.2 * np.sin(x[0]) + 0.1 * np.cos(x[-1]), 2)
    y = ep._initial_row(ops, ep.identity_state(
        state.rho, ge.horizontal_velocity(state), 2))
    calls[0] = 0
    ep._flow_rhs(ops, y)
    assert calls[0] == per_rhs
    calls[0] = 0
    _, reason = ep._flow_step(ops, y, 0.01)
    assert reason is None
    assert calls[0] == per_step
