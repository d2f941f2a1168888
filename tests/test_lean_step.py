"""The density flow's step: the same bytes as the reference formulas of its
kernel, and a working set that the traced peak of a shoot bounds.

The reference below writes the kernel as one expression per quantity, with
no regard for how long its temporaries live: `_rhs` and every caller of the
whole kernel (`apply_L_rho`, `horizontal_velocity`, `diagnostics_for`) must
give its values bit for bit.
"""
import tracemalloc

import numpy as np
import pytest

from densgeo import geodesic as ge, spectral as sp

# the memory guard's bound, in rows of the state (see `geodesic._rows`):
# the step read 7.84 rows before its dual products went into their
# operands' buffers, and 7.48 after
PEAK_ROWS = 7.6


def reference_dual(a, b):
    if len(a) == 1:
        return a * b
    out = a[:1] * b
    out[1:] += a[1:] * b[:1]
    return out


def reference_lrho(ops, rho, p_hat):
    gradp = ops.ifft(ops.ik * p_hat[ops.vec])
    rho_v = rho[ops.vec]
    u = ops.apply(ops.ainv_band, reference_dual(rho_v, gradp))
    div_hat = (ops.ik * ops.fft(reference_dual(rho_v, u))).sum(
        axis=-ops.grid.dim - 1)
    rhodot = -ops.ifft(div_hat * ops.mask)
    return rhodot, gradp, u


def reference_rhs(ops, y):
    rho, p_hat = ge._split(ops, y)
    rhodot, gradp, u = reference_lrho(ops, rho, p_hat)
    adv = reference_dual(gradp, u).sum(axis=-ops.grid.dim - 1)
    pdot_hat = ops.fft(adv) * ops.mask
    pdot_hat[ops.zero] = 0.0
    return ge._rows(ops, rhodot, np.negative(pdot_hat, out=pdot_hat))


def smooth_rows(dim, n, k, m, seed=0):
    """The table and rows (1 + m, R) of 1 + m smooth states of positive
    density, the state and m tangents of `_rhs`."""
    ops = sp.operators(sp.make_grid(dim, n), k)
    x = ops.grid.coords
    rng = np.random.default_rng(seed)
    rho, p = [], []
    for _ in range(1 + m):
        a = rng.normal(size=4)
        rho.append(1.0 + 0.2 * np.cos(x[0] + a[0]) * np.cos(2 * x[-1] + a[1]))
        p.append(np.sin(x[0] + 2 * x[-1] + a[2]) + 0.5 * np.cos(
            3 * x[0] - x[-1] + a[3]))
    return ops, ge._state_rows(ops.band, np.array(rho), np.array(p))


CASES = [(1, 32, 1), (2, 32, 2), (2, 128, 2)]


@pytest.mark.parametrize("m", [0, 6])
@pytest.mark.parametrize("dim,n,k", CASES)
def test_rhs_is_the_reference(dim, n, k, m):
    ops, y = smooth_rows(dim, n, k, m)
    assert (ge._rhs(ops.band, y).tobytes()
            == reference_rhs(ops.band, y).tobytes())


@pytest.mark.parametrize("m", [0, 6])
@pytest.mark.parametrize("dim,n,k", CASES)
def test_callers_of_the_kernel_are_the_reference(monkeypatch, dim, n, k, m):
    ops, y = smooth_rows(dim, n, k, m)
    rho, p_hat = ge._split(ops.band, y)
    p = ops.band.ifft(p_hat)
    grid = ops.grid
    state = ge.DensityState(sp.ScalarField(grid, rho[0]),
                            sp.ScalarField(grid, p[0]), k)

    def outputs():
        return (ge.apply_L_rho(state.rho, state.p, k).values.tobytes(),
                ge.horizontal_velocity(state).components.tobytes(),
                ge.diagnostics_for(ops, rho, p))

    got = outputs()
    monkeypatch.setattr(ge, "_lrho", lambda *args: reference_lrho(*args)[0])
    assert got == outputs()


def shoot_peak_rows(store_every):
    """The traced peak of a 7-step 2-D shoot, in rows of its state."""
    grid, k = sp.make_grid(2, 64), 2
    x, y = grid.coords
    rho0 = sp.ScalarField(grid, 1 + 0.3 * np.cos(x) * np.cos(2 * y))
    p0 = sp.ScalarField(grid, 2.0 * np.sin(x + y) + np.cos(2 * x - y))
    ge.shoot(rho0, p0, k, 0.02, 0.01)  # builds the table
    row = 8 * (grid.npoints + 2 * sp.operators(grid, k).band.mask.size)
    tracing = tracemalloc.is_tracing()
    if not tracing:
        tracemalloc.start()
    try:
        start = tracemalloc.get_traced_memory()[0]
        tracemalloc.reset_peak()
        ge.shoot(rho0, p0, k, 0.07, 0.01, store_every=store_every,
                 out=lambda *snapshot: None)
        return (tracemalloc.get_traced_memory()[1] - start) / row
    finally:
        if not tracing:
            tracemalloc.stop()


def test_shoot_peak_memory():
    """A 2-D shoot holds under PEAK_ROWS rows at its traced peak: RK4's
    state, stage and accumulator, and the step's temporaries."""
    peak = shoot_peak_rows(1)
    assert peak <= PEAK_ROWS, f"{peak:.2f} rows"


def test_strided_shoot_peak_memory():
    """With a snapshot stride the bound holds too: no observed state or row
    outlives its snapshot into the unobserved steps that follow."""
    peak = shoot_peak_rows(3)
    assert peak <= PEAK_ROWS, f"{peak:.2f} rows"
