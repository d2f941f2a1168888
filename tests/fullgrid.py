"""Full-grid wave vectors for the tests' references, from np.fft.fftfreq alone.

The operator table builds its half-spectrum symbols itself; a reference built
here shares no code with the table it checks.
"""
from types import SimpleNamespace

import numpy as np


def full_grid(grid):
    """The wavenumbers `freq` of one axis and the wave vectors `k_mesh`
    (dim, *shape) of the full spectrum, both in FFT layout, `ksq` = |k|^2, `ik` = 1j*k with the Nyquist mode zeroed, and the
    2/3-rule `mask` (|k_j| <= n//3 on every axis)."""
    freq = np.fft.fftfreq(grid.n, 1.0 / grid.n)
    k_mesh = np.stack(np.meshgrid(*([freq] * grid.dim), indexing="ij"))
    return SimpleNamespace(
        freq=freq,
        k_mesh=k_mesh,
        ksq=(k_mesh ** 2).sum(axis=0),
        ik=np.where(np.abs(k_mesh) == grid.n // 2, 0.0, 1j * k_mesh),
        mask=np.all(np.abs(k_mesh) <= grid.n // 3, axis=0))
