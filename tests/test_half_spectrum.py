"""The half-spectrum operator table against a full complex-FFT reference.

The table transforms real fields with rfft/irfft and keeps the last-axis
wavenumbers 0 .. n/2 only. Each reference below is the same formula on the
full spectrum, with complex fftn/ifftn and full-grid symbols built from
np.fft.fftfreq by `fullgrid.full_grid`, independently of the table; on random
real stacks the two agree to roundoff.
"""
import numpy as np
import pytest

from densgeo import epdiff as ep, geodesic as ge, spectral as sp
from fullgrid import full_grid

RTOL = 1e-13
CASES = [(dim, n) for dim in (1, 2) for n in (8, 16, 32)]


def rel_err(a, b):
    return np.abs(a - b).max() / np.abs(b).max()


class Full:
    """Complex-FFT reference on the full spectrum of one grid."""

    def __init__(self, grid, k=-1):
        self.g = grid
        self.wave = full_grid(grid)
        self.axes = tuple(range(-grid.dim, 0))
        self.vec = (Ellipsis, None) + (slice(None),) * grid.dim
        self.a = (1.0 + self.wave.ksq) ** (k + 1)
        self.ainv_band = self.wave.mask / self.a

    def fft(self, v):
        return np.fft.fftn(v, axes=self.axes)

    def ifft(self, v):
        return np.fft.ifftn(v, axes=self.axes).real

    def apply(self, sym, v):
        return self.ifft(sym * self.fft(v))

    def grad(self, v):
        return self.ifft(self.wave.ik * self.fft(v)[self.vec])

    def div(self, v):
        return self.ifft(
            (self.wave.ik * self.fft(v)).sum(axis=-self.g.dim - 1))

    def rhs(self, y):
        """The Hamiltonian right-hand side of a stack y (B, 2, *shape)."""
        ik, mask = self.wave.ik, self.wave.mask
        rho, p = y[:, 0], y[:, 1]
        gradp = self.ifft(ik * (self.fft(p) * mask)[self.vec])
        u = self.apply(self.ainv_band, rho[self.vec] * gradp)
        rhodot = -self.ifft(
            (ik * self.fft(rho[self.vec] * u)).sum(axis=1) * mask)
        adv = self.fft((gradp * u).sum(axis=1)) * mask
        adv[(Ellipsis,) + (0,) * self.g.dim] = 0.0
        return np.stack((rhodot, -self.ifft(adv)), axis=1)


def random_stack(grid, lead, seed):
    return np.random.default_rng(seed).normal(size=lead + grid.shape)


@pytest.mark.parametrize("dim,n", CASES)
def test_apply_matches_full_spectrum(dim, n):
    g = sp.make_grid(dim, n)
    ops, full = sp.operators(g, 2), Full(g, 2)
    v = random_stack(g, (3, 2), seed=n + dim)
    for half_sym, full_sym in ((ops.a, full.a),
                               (ops.ainv_band, full.ainv_band),
                               (ops.mask, full.wave.mask)):
        assert rel_err(ops.apply(half_sym, v), full.apply(full_sym, v)) <= RTOL


@pytest.mark.parametrize("dim,n", CASES)
def test_grad_and_divergence_match_full_spectrum(dim, n):
    g = sp.make_grid(dim, n)
    ops, full = sp.operators(g), Full(g)
    f = random_stack(g, (3,), seed=n + dim)
    assert rel_err(ops.grad(f), full.grad(f)) <= RTOL
    v = random_stack(g, (dim,), seed=n + dim + 1)
    assert rel_err(sp.divergence(sp.VectorField(g, v)).values,
                   full.div(v)) <= RTOL


@pytest.mark.parametrize("dim,n", CASES)
def test_hamiltonian_rhs_matches_full_spectrum(dim, n):
    g = sp.make_grid(dim, n)
    rng = np.random.default_rng(n + dim)
    y = rng.normal(size=(4, 2) + g.shape)
    y[:, 0] = 1.0 + 0.3 * rng.uniform(size=(4,) + g.shape)
    ops = sp.operators(g, 2)
    rows = ge._state_rows(ops, y[:, 0], y[:, 1])
    # each state alone, as rows (1, R) with no tangents
    rhodot, pdot_hat = ge._split(
        ops, np.concatenate([ge._rhs(ops, row[None]) for row in rows]))
    got = np.stack((rhodot, ops.ifft(pdot_hat)), axis=1)
    assert rel_err(got, Full(g, 2).rhs(y)) <= RTOL


def full_tail_fraction(g, values):
    full = Full(g)
    power = np.abs(full.fft(values)) ** 2
    power[(0,) * g.dim] = 0.0
    retained = power * full.wave.mask
    maxabs = np.abs(full.wave.k_mesh).max(axis=0)
    tail = (maxabs > (2.0 * (g.n // 3)) / 3.0) & full.wave.mask
    return retained[tail].sum() / retained.sum()


@pytest.mark.parametrize("dim,n", CASES)
def test_tail_fraction_matches_full_spectrum(dim, n):
    g = sp.make_grid(dim, n)
    for seed in range(3):
        f = random_stack(g, (), seed=seed)
        ref = full_tail_fraction(g, f)
        got = sp.tail_fractions(sp.operators(g), f[None])[0]
        assert abs(got - ref) <= RTOL * ref


def full_horizontality_defect(g, u, rho, k):
    """The non-gradient part of w = Au/rho over the full spectrum, on the
    wave vectors of the spectral derivative ik, summed over the modes with
    no Nyquist component on any axis."""
    full = Full(g, k)
    what = full.fft(full.apply(full.a, u) / rho)
    kvec = full.wave.ik.imag
    ksq = (kvec ** 2).sum(axis=0)
    grad_part = kvec * (kvec * what).sum(axis=0) / np.where(ksq > 0, ksq, 1.0)
    inside = np.all(np.abs(full.wave.k_mesh) < g.n // 2, axis=0)
    sq = (np.abs(what - grad_part) ** 2).sum(axis=0)[inside].sum()
    return np.sqrt(sq) / g.npoints


@pytest.mark.parametrize("dim,n", CASES)
def test_horizontality_defect_matches_full_spectrum(dim, n):
    g = sp.make_grid(dim, n)
    rng = np.random.default_rng(n + dim)
    for _ in range(3):
        u = rng.normal(size=(dim,) + g.shape)
        rho = 1.0 + 0.3 * rng.uniform(size=g.shape)
        ref = full_horizontality_defect(g, u, rho, 1)
        got = ep.horizontality_defect(sp.VectorField(g, u),
                                      sp.ScalarField(g, rho), 1)
        assert abs(got - ref) <= RTOL * ref


@pytest.mark.parametrize("dim,n", CASES)
def test_weight_counts_each_mode_of_the_full_spectrum(dim, n):
    # sum over the full spectrum = weighted sum over the half, any real field
    g = sp.make_grid(dim, n)
    ops = sp.operators(g)
    f = random_stack(g, (), seed=n)
    full_sum = (np.abs(Full(g).fft(f)) ** 2).sum()
    half_sum = (np.abs(ops.fft(f)) ** 2 * ops.weight).sum()
    assert abs(half_sum - full_sum) <= RTOL * full_sum
