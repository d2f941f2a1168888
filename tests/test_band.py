"""The table's transforms and its 2/3-rule band view against numpy's.

The table's transforms must equal numpy's rfft/irfft in 1-D and rfft2/irfft2
in 2-D, bit for bit. In 2-D the band transforms run the first-axis pass on
the last-axis columns 0 .. n//3 only; the reference is rfft2 cut to those
columns and irfft2 of the zero-padded spectrum, and band operators are
checked against the table's, whose transforms run over all n//2 + 1
columns. On spectra that are zero outside the band, every value must be
equal bit for bit, not just to roundoff.
"""
from types import SimpleNamespace
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from densgeo import geodesic as ge, spectral as sp

SIZES = st.sampled_from([8, 16, 32, 64])
LEADS = st.sampled_from([(), (3,), (2, 2)])
ORDERS = st.sampled_from([-1, 0, 1, 2])


def fields(grid, lead, seed):
    """A positive density stack and a momentum stack of shape lead + grid."""
    rng = np.random.default_rng(seed)
    rho = 1.0 + 0.3 * rng.uniform(size=lead + grid.shape)
    return rho, rng.normal(size=lead + grid.shape)


def full_solve_L_rho(rho, rhodot, k):
    """solve_L_rho with the full table in place of its band."""
    def full(grid, k):
        return SimpleNamespace(band=sp.operators(grid, k))

    with mock.patch.object(ge, "operators", full):
        return ge.solve_L_rho(rho, rhodot, k)


@pytest.mark.parametrize("n", [8, 32, 128])
@pytest.mark.parametrize("k", [-1, 2])
def test_1d_band_is_the_table(n, k):
    ops = sp.operators(sp.make_grid(1, n), k)
    assert ops.band is ops


@pytest.mark.parametrize("dim", [1, 2])
@pytest.mark.parametrize("n", [8, 16, 32, 64, 128])
@pytest.mark.parametrize("lead", [(), (3,), (2, 2)])
def test_table_transforms_are_numpys(dim, n, lead):
    g = sp.make_grid(dim, n)
    ops = sp.operators(g)
    rng = np.random.default_rng(n + dim)
    v = rng.normal(size=lead + g.shape)
    ref = np.fft.rfft(v) if dim == 1 else np.fft.rfft2(v)
    got = ops.fft(v)
    assert got.shape == ref.shape and np.array_equal(got, ref)
    spectrum = ref * (1.0 + rng.normal(size=ref.shape))
    inverse = (np.fft.irfft(spectrum, n) if dim == 1
               else np.fft.irfft2(spectrum, g.shape))
    assert np.array_equal(ops.ifft(spectrum), inverse)


@settings(max_examples=25, deadline=None)
@given(n=SIZES, lead=LEADS, k=ORDERS, seed=st.integers(0, 2 ** 16))
def test_band_transforms_equal_full_half_spectrum(n, lead, k, seed):
    g = sp.make_grid(2, n)
    ops = sp.operators(g, k)
    band = ops.band
    m = n // 3 + 1
    for sym in (band.mask, band.ik, band.ainv_band, band.precond):
        assert sym.shape[-1] == m and not sym.flags.writeable
    _, v = fields(g, lead, seed)
    full = np.fft.rfft2(v)
    assert np.array_equal(band.fft(v), full[..., :m])
    masked = full * ops.mask
    assert not masked[..., m:].any()
    assert np.array_equal(band.ifft(masked[..., :m]),
                          np.fft.irfft2(masked, g.shape))
    for name in ("mask", "ainv_band", "precond"):
        assert np.array_equal(band.apply(getattr(band, name), v),
                              ops.apply(getattr(ops, name), v))
    assert np.array_equal(sp.dealias(g, v), ops.apply(ops.mask, v))


@settings(max_examples=25, deadline=None)
@given(n=SIZES, lead=LEADS, k=ORDERS, seed=st.integers(0, 2 ** 16))
def test_flow_on_band_equals_full_half_spectrum(n, lead, k, seed):
    g = sp.make_grid(2, n)
    ops = sp.operators(g, k)
    rho, p = fields(g, lead, seed)

    def lrho(t):
        """L_rho of the stack p at one density, as the callers on the grid
        apply it, then its grad p and u; each view carries p_hat on its own
        columns."""
        rho0, p_hat = rho.reshape((-1,) + g.shape)[0], t.fft(p) * t.mask
        return (ge._lrho(t, rho0, p_hat),) + ge._velocity(t, rho0, p_hat)

    for got, ref in zip(lrho(ops.band), lrho(ops)):
        assert np.array_equal(got, ref)

    def flow(t):
        """(rho_t, p_t) on the grid; each view carries p on its own columns.
        The rows are one state and, given a stack, tangents: its other
        members."""
        y = ge._state_rows(t, rho, p)
        rows = y.reshape(-1, y.shape[-1])
        rhodot, pdot_hat = ge._split(t, ge._rhs(t, rows).reshape(y.shape))
        return rhodot, t.ifft(pdot_hat)

    for got, ref in zip(flow(ops.band), flow(ops)):
        assert np.array_equal(got, ref)


# k = 2 left out: on these rough densities CG then takes seconds at n = 64
@settings(max_examples=15, deadline=None)
@given(n=SIZES, k=st.sampled_from([-1, 0, 1]), seed=st.integers(0, 2 ** 16))
def test_cg_on_band_equals_full_half_spectrum(n, k, seed):
    g = sp.make_grid(2, n)
    rho, p = fields(g, (), seed)
    rho = sp.ScalarField(g, rho)
    rhodot = sp.ScalarField(g, p - p.mean())
    got = ge.solve_L_rho(rho, rhodot, k)
    assert np.array_equal(got.values, full_solve_L_rho(rho, rhodot, k).values)
