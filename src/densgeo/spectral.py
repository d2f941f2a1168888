"""Spectral toolbox on the flat torus T^d: grids, fields, Fourier operators.

All fields live on uniform periodic grids with n points per axis on [0, 2*pi).
The measure is normalized so that the constant field 1 integrates to exactly 1;
integrals are plain grid means. Differential operators are exact for
band-limited fields; products of fields are dealiased with the 2/3 rule.

The solvers work on plain arrays whose trailing `dim` axes are the grid: a
vector field is one (dim, *shape) array, and any stack of fields is
transformed in one call. Every transform and Fourier symbol they use comes
from one cached table per (grid, k), built by `operators`. Fields are real, so
the table works on the half spectrum of real transforms: the last axis holds
the wavenumbers 0 .. n/2 only, the other half being the complex conjugate.
The table builds its wave vectors and symbols on that half directly; a `Grid`
is only its size and coordinates.

A spectrum that is dealiased before it is used, or that is zero outside the
2/3-rule band, goes through the table's band view, `operators(...).band`. In
2-D it holds the last-axis wavenumbers 0 .. n//3 only. Its transforms are the
table's, cut to those columns, so their first-axis pass does about two thirds
of the table's work (see `Band`). In 1-D there is no complex pass to prune,
and the band is the table itself. The geodesic flow (L_rho, its CG inverse,
the Hamiltonian right-hand side), `dealias` and EPDiff's velocity (carried as
its band spectrum: u, m = Au and their gradients, and the band-limited Ainv
of u_t) use the band; every user of an unmasked spectrum keeps the full half
spectrum: `grad` of raw fields, `tail_fractions`, and in `epdiff` and
`validation` the transport of q and f, the Jacobian guard, the band check of
EPDiff's initial velocity, the horizontality defect and the checks.
"""
from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property, lru_cache

import numpy as np

TWO_PI = 2.0 * np.pi


class GridError(ValueError):
    """Invalid grid parameters or mismatched grids."""


@dataclass(frozen=True)
class Grid:
    """Uniform periodic grid on T^dim with n points per axis (power of two)."""

    dim: int
    n: int

    def __post_init__(self):
        for name in ("dim", "n"):
            value = getattr(self, name)
            if not is_integer(value):
                raise GridError(f"{name} must be an integer, got {value!r}")
            object.__setattr__(self, name, int(value))
        if self.dim not in (1, 2):
            raise GridError(f"dim must be 1 or 2, got {self.dim}")
        if self.n < 8 or (self.n & (self.n - 1)) != 0:
            raise GridError(f"n must be a power of two >= 8, got {self.n}")

    @property
    def shape(self) -> tuple:
        return (self.n,) * self.dim

    @property
    def npoints(self) -> int:
        return self.n ** self.dim

    @property
    def spacing(self) -> float:
        return TWO_PI / self.n

    @cached_property
    def coords(self) -> np.ndarray:
        """Stacked meshgrid coordinates, (dim, *shape), 'ij' indexing."""
        x = np.arange(self.n) * self.spacing
        return np.stack(np.meshgrid(*([x] * self.dim), indexing="ij"))


def make_grid(dim: int, n: int) -> Grid:
    return Grid(dim, n)


def check_same_grid(a: Grid, b: Grid) -> None:
    if a != b:
        raise GridError(f"grid mismatch: {a} vs {b}")


def is_integer(value) -> bool:
    """A Python or numpy integer, and not a bool (which int accepts): the
    test of an integer setting such as a metric order or a mode count."""
    return isinstance(value, (int, np.integer)) and not isinstance(value, bool)


class Operators:
    """Transforms and Fourier symbols of one grid and metric order k.

    Arrays may carry leading axes; the transforms act on the trailing grid
    axes: rfft/irfft in 1-D; in 2-D, rfft over the last axis cut to `cols`,
    then fft over the first, and back ifft, then irfft to n points, which
    zero-pads the cut columns. With all n/2 + 1 columns, the table's cut,
    that is numpy's rfft2/irfft2, bit for bit. Each is looked up on
    numpy.fft at call time, so that a patched numpy.fft sees every call. A
    spectrum holds the last-axis wavenumbers 0 .. n/2, and the wave vectors
    and every symbol are built on that half directly. A sum over the full
    spectrum is the sum over the half weighted by `weight`: 1 on the
    last-axis columns 0 and n/2, which are their own conjugate mirror, and 2
    elsewhere. Its arrays, shared with every caller, are read-only. `band`
    is the view for dealiased spectra: a `Band` in 2-D, the table in 1-D.
    """

    def __init__(self, grid: Grid, k: int):
        if not is_integer(k):
            raise ValueError(f"metric order k must be an integer, got {k!r}")
        if k < -1:
            raise ValueError(f"metric order k must be >= -1, got {k}")
        self.grid = grid
        self.cols = (Ellipsis, slice(grid.n // 2 + 1))
        # wave vectors in FFT layout, the last axis cut to 0 .. n/2; its
        # Nyquist entry stays -n/2, as in the full layout
        n = grid.n
        freq = np.fft.fftfreq(n, 1.0 / n)
        self.k_mesh = np.stack(np.meshgrid(
            *([freq] * (grid.dim - 1) + [freq[:n // 2 + 1]]), indexing="ij"))
        self.mask = np.all(np.abs(self.k_mesh) <= n // 3, axis=0)
        # 1j*k with the Nyquist mode zeroed, which keeps derivatives real
        self.ik = 1j * self.k_mesh
        self.ik[np.abs(self.k_mesh) == n // 2] = 0.0
        self.weight = np.full(n // 2 + 1, 2.0)
        self.weight[[0, -1]] = 1.0
        # flat indices of the top third of the retained band, the modes of
        # `tail_fractions`
        self.tail = np.flatnonzero(
            (np.abs(self.k_mesh).max(axis=0) > (2.0 * (n // 3)) / 3.0)
            & self.mask)
        # precomputed indices into arrays with leading axes, so that the hot
        # paths build no index tuples: the mean mode, and a new vector axis
        # before the grid axes
        self.zero = (Ellipsis,) + (0,) * grid.dim
        self.vec = (Ellipsis, None) + (slice(None),) * grid.dim
        ksq = sum(km ** 2 for km in self.k_mesh)
        base = 1.0 + ksq
        # A = (1 - Laplacian)^(k+1), and its inverse on the band; k = -1 is
        # the identity
        with np.errstate(over="ignore"):
            self.a = base ** (k + 1)
        if not np.isfinite(self.a).all():
            raise ValueError(
                f"metric order k={k} is too large for {grid}: the inertia "
                "symbol (1 + |xi|^2)^(k+1) overflows")
        self.a_band = self.a * self.mask
        self.ainv_band = base ** (-(k + 1)) * self.mask
        # the exact constant-density inverse of L_rho on the retained band,
        # (1 + |xi|^2)^(k+1) / |xi|^2, zero on the mean mode
        ksq[self.zero] = 1.0
        self.precond = self.mask * self.a / ksq
        self.precond[self.zero] = 0.0
        for arr in (self.k_mesh, self.mask, self.ik, self.weight, self.tail,
                    self.a, self.a_band, self.ainv_band, self.precond):
            arr.flags.writeable = False
        self.band = self if grid.dim == 1 else Band(self)

    def fft(self, values: np.ndarray) -> np.ndarray:
        """values' spectrum; in 2-D it lets values go after the first pass."""
        if self.grid.dim == 1:
            return np.fft.rfft(values)
        values = np.fft.rfft(values)[self.cols]
        return np.fft.fft(values, axis=-2)

    def ifft(self, values_hat: np.ndarray) -> np.ndarray:
        """The grid values of a spectrum, letting it go as `fft` does."""
        if self.grid.dim == 1:
            return np.fft.irfft(values_hat, self.grid.n)
        values_hat = np.fft.ifft(values_hat, axis=-2)
        return np.fft.irfft(values_hat, self.grid.n)

    def apply(self, symbol: np.ndarray, values: np.ndarray) -> np.ndarray:
        """Real Fourier multiplier: values -> ifft(symbol * fft(values))."""
        return self.ifft(symbol * self.fft(values))

    def grad(self, values: np.ndarray) -> np.ndarray:
        """Spectral gradient, (..., *shape) -> (..., dim, *shape)."""
        return self.ifft(self.ik * self.fft(values)[self.vec])


class Band:
    """The 2/3-rule band of a 2-D operator table, with the table's interface.

    A band spectrum holds the last-axis wavenumbers 0 .. n//3, the columns
    the dealias mask keeps. Its transforms are the table's with that column
    cut (see `Operators`), so on spectra that are zero outside the band they
    give the table's values bit for bit. Only the masked symbols are here,
    so a symbol that is nonzero outside the band, such as `a`, cannot be
    applied through it by mistake. Its arrays are read-only.
    """

    def __init__(self, table: Operators):
        self.grid = table.grid
        self.zero, self.vec = table.zero, table.vec
        self.cols = (Ellipsis, slice(table.grid.n // 3 + 1))
        self.mask, self.ik, self.a_band, self.ainv_band, self.precond = (
            np.ascontiguousarray(arr[self.cols]) for arr in
            (table.mask, table.ik, table.a_band, table.ainv_band,
             table.precond))
        for arr in (self.mask, self.ik, self.a_band, self.ainv_band,
                    self.precond):
            arr.flags.writeable = False

    fft = Operators.fft
    ifft = Operators.ifft
    apply = Operators.apply


@lru_cache(maxsize=None, typed=True)
def operators(grid: Grid, k: int = -1) -> Operators:
    """The operator table of (grid, k); k only sets the metric symbols. Typed,
    so that k = 2.0 reaches Operators' check instead of k = 2's table."""
    return Operators(grid, k)


@dataclass
class ScalarField:
    """Real scalar field on a grid."""

    grid: Grid
    values: np.ndarray

    def __post_init__(self):
        self.values = np.asarray(self.values, dtype=np.float64).reshape(
            self.grid.shape)


@dataclass
class VectorField:
    """Real vector field: one (dim, *shape) array of components."""

    grid: Grid
    components: np.ndarray

    def __post_init__(self):
        comps = np.asarray(self.components, dtype=np.float64)
        if len(comps) != self.grid.dim:
            raise GridError(
                f"expected {self.grid.dim} components, got {len(comps)}")
        self.components = comps.reshape((self.grid.dim,) + self.grid.shape)


def dealias(grid: Grid, values: np.ndarray) -> np.ndarray:
    """Zero the top third of frequencies (2/3 rule) of a physical-space field."""
    band = operators(grid).band
    return band.apply(band.mask, values)


def gradient(f: ScalarField) -> VectorField:
    return VectorField(f.grid, operators(f.grid).grad(f.values))


def divergence(v: VectorField) -> ScalarField:
    ops = operators(v.grid)
    return ScalarField(v.grid, ops.ifft(
        (ops.ik * ops.fft(v.components)).sum(axis=-v.grid.dim - 1)))


def l2_inner(f: ScalarField, g: ScalarField) -> float:
    check_same_grid(f.grid, g.grid)
    return float((f.values * g.values).mean())


def l2_norm_values(values: np.ndarray) -> float:
    return float(np.sqrt((np.asarray(values) ** 2).mean()))


def shift_values(grid: Grid, values: np.ndarray, offsets) -> np.ndarray:
    """Translate a field by whole grid offsets (periodic roll)."""
    return np.roll(values, shift=tuple(int(o) for o in offsets),
                   axis=tuple(range(grid.dim)))


def tail_fractions(ops: Operators, values: np.ndarray) -> list:
    """Energy fraction carried by the top third of *retained* (dealiased)
    modes, for each field of a stack (B, *shape) on the grid of the full
    table ops (of any k: the fractions use no symbol of k), as a list.

    The mean mode is excluded; a field with no fluctuation has fraction 0.
    A field's sums each run over one contiguous row of its own, so its
    fraction is the same, bit for bit, in any stack.
    """
    power = np.abs(ops.fft(values)) ** 2 * ops.weight
    power[ops.zero] = 0.0
    retained = (power * ops.mask).reshape(len(values), -1)
    total = retained.sum(axis=1).tolist()
    tail = retained.take(ops.tail, axis=1).sum(axis=1).tolist()
    return [t / s if s else 0.0 for t, s in zip(tail, total)]

