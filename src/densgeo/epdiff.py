"""EPDiff flow on Diff(T^d) and the left projection to densities.

This is the cross-validation side: geodesics of the right-invariant metric with
inertia operator A = (1 - Laplacian)^(k+1), integrated in Eulerian momentum
form with the flow map co-integrated as a periodic displacement. Horizontal
initial momenta m = rho * grad p project onto density geodesics, which the
density module computes independently.

Compositions use exact band-limited Fourier evaluation at displaced points, so
the spatial error budget stays spectral.
"""
from __future__ import annotations

from dataclasses import dataclass
from functools import partial

import numpy as np

from . import geodesic
from .geodesic import SolverAbort, integrate, rk4, time_steps
from .spectral import (
    Grid,
    Operators,
    ScalarField,
    VectorField,
    check_same_grid,
    l2_norm_values,
    operators,
)


@dataclass
class DiffeoState:
    """Torus diffeomorphism phi(x) = x + disp(x) with Eulerian velocity u."""

    disp: VectorField
    u: VectorField
    k: int

    def __post_init__(self):
        check_same_grid(self.disp.grid, self.u.grid)

    @property
    def grid(self) -> Grid:
        return self.disp.grid


# points per block of eval_periodic: its work arrays are (modes, block), small
# enough to be reused from call to call instead of taken from fresh pages
EVAL_BLOCK = 512
INVERT_TOL = 1e-12
INVERT_MAX_ITER = 200
N_CHECKS = 11  # cross_validate's comparison times, about evenly spaced


def identity_state(grid: Grid, u: VectorField, k: int) -> DiffeoState:
    zeros = np.zeros((grid.dim,) + grid.shape)
    return DiffeoState(VectorField(grid, zeros), u, k)


def eval_periodic(grid: Grid, values: np.ndarray, points) -> np.ndarray:
    """Evaluate band-limited grid fields at arbitrary points (exact).

    values: (..., *grid.shape), any leading axes; points: array of shape
    (dim, ...) with arbitrary real coordinates. Returns an array of shape
    (..., *points[0].shape). The Fourier series handles periodicity without
    wrapping. Nyquist modes are dropped (they are zero for dealiased fields
    anyway). The series runs over the half spectrum, weighted for the
    conjugate half. The points go in blocks of EVAL_BLOCK, so the work
    arrays stay small; a block's exponentials are built once for all leading
    components, as (modes, points) rows. In 2-D the sum is real arithmetic:
    a real coefficient matrix per component (_coefficients_2d) between the
    rows cos(j x), sin(j x) and cos(l y), -sin(l y), with one product buffer
    reused across components.
    """
    values = np.asarray(values)
    lead = values.shape[:values.ndim - grid.dim]
    half = grid.n // 2
    ops = operators(grid)
    fhat = ops.fft(values)[..., :half] * (ops.weight[:half] / grid.npoints)
    fhat = fhat.reshape((-1,) + fhat.shape[len(lead):])
    pts = np.asarray(points).reshape(grid.dim, -1)
    out = np.empty((len(fhat), pts.shape[1]))
    coef = fhat if grid.dim == 1 else _coefficients_2d(fhat)
    for start in range(0, pts.shape[1], EVAL_BLOCK):
        blk = slice(start, start + EVAL_BLOCK)
        e = _powers(pts[0, blk], half)
        if grid.dim == 1:
            for c, f in enumerate(coef):
                out[c, blk] = (f @ e).real
        else:
            cs0 = np.concatenate((e.real, e.imag))
            e = _powers(pts[1, blk], half)
            cs1 = np.concatenate((e.real, -e.imag))
            prod = np.empty_like(cs1)
            for c, m in enumerate(coef):
                np.matmul(m, cs0, out=prod)
                prod *= cs1
                prod.sum(axis=0, out=out[c, blk])
    return out.reshape(lead + np.shape(points[0]))


def _powers(x: np.ndarray, count: int) -> np.ndarray:
    """exp(i j x) at the points x for j = 0 .. count - 1, as (count, len(x))
    rows, powers of exp(i x) by repeated products."""
    e = np.empty((count, len(x)), dtype=np.complex128)
    e[0] = 1.0
    np.exp(1j * x, out=e[1])
    for j in range(2, count):
        np.multiply(e[j - 1], e[1], out=e[j])
    return e


def _coefficients_2d(fhat: np.ndarray) -> np.ndarray:
    """Real (2h, 2h) matrices M, h = fhat.shape[-1], one per component, with
    Re sum_{j, l} fhat[j, l] exp(i (j x + l y)) = [cos(l y); -sin(l y)] . M
    [cos(j x); sin(j x)] over |j|, l < h. The first axis holds its negative
    wavenumbers in FFT order, and modes j and -j share cos(j x) and sin(j x):
    their sum multiplies cos(j x) and i times their difference sin(j x)."""
    half = fhat.shape[-1]
    pos = fhat[:, :half]
    neg = np.zeros_like(pos)
    neg[:, 1:] = fhat[:, :half:-1]
    plus, minus = pos + neg, pos - neg
    cos_rows = np.concatenate((plus.real, plus.imag), axis=2)
    sin_rows = np.concatenate((-minus.imag, minus.real), axis=2)
    return np.concatenate((cos_rows, sin_rows), axis=1).transpose(0, 2, 1)


def _epdiff_rhs(ops: Operators, u: np.ndarray) -> np.ndarray:
    """u_t = -Ainv{(u.grad)m + (div u)m + (grad u)^T m}, m = Au, dealiased."""
    m = ops.apply(ops.a, u)
    du = ops.grad(u)  # du[i, j] = d_j u_i
    dm = ops.grad(m)
    divu = sum(du[j, j] for j in range(ops.grid.dim))
    conv = (u * dm).sum(axis=1)
    stretch = (m[:, None] * du).sum(axis=0)
    return -ops.band.apply(ops.band.ainv_band, conv + divu * m + stretch)


def jacobian_det(grid: Grid, disp) -> np.ndarray:
    """det(I + grad disp) on the grid (spectral derivatives)."""
    return _det(operators(grid).grad(np.asarray(disp)))


def _det(d: np.ndarray) -> np.ndarray:
    """det(I + d) of the displacement gradient d[i, j] = d_j disp_i."""
    if len(d) == 1:
        return 1.0 + d[0, 0]
    return (1.0 + d[0, 0]) * (1.0 + d[1, 1]) - d[0, 1] * d[1, 0]


def _flow_rhs(ops: Operators, y: np.ndarray) -> np.ndarray:
    """d/dt of y = (disp, u): (u o phi, EPDiff)."""
    disp, u = y
    grid = ops.grid
    return np.stack((eval_periodic(grid, u, grid.coords + disp),
                     _epdiff_rhs(ops, u)))


def _flow_step(ops: Operators, y: np.ndarray, dt: float):
    """One RK4 step of _flow_rhs; it fails when the flow map stops being a
    grid-resolved diffeomorphism."""
    y = rk4(partial(_flow_rhs, ops), y, dt)
    jac = jacobian_det(ops.grid, y[0]).min()
    if jac > 0.0:
        return y, None
    return y, f"Jacobian lost positivity (min {jac:.3e})"


def integrate_epdiff(state0: DiffeoState, T: float, dt: float,
                     store_every: int = 1) -> list:
    """RK4 on the coupled system (phi_t = u o phi, EPDiff for u).

    Takes ceil(T/dt) equal steps that end exactly at T. Returns the list of
    stored (t, DiffeoState). Aborts when the flow map stops being a
    grid-resolved diffeomorphism (nonpositive Jacobian).
    """
    if not store_every >= 1:
        raise ValueError(f"store_every must be >= 1, got {store_every}")
    grid, k = state0.grid, state0.k
    y = np.stack((state0.disp.components, state0.u.components))
    _, stored = integrate(partial(_flow_step, operators(grid, k)), y, T, dt,
                          store_every)
    return [(t, DiffeoState(VectorField(grid, disp), VectorField(grid, u), k))
            for t, (disp, u) in stored]


class InversionError(RuntimeError):
    """Newton inversion of the flow map failed."""


def invert_map(grid: Grid, disp) -> np.ndarray:
    """Inverse displacement q with (x + q) + disp(x + q) = x, by Newton.

    Rejects a map whose Jacobian det(I + grad disp) is not positive on the
    grid (SolverAbort): it is not a diffeomorphism, and its inverse is not a
    map. Newton's method then solves res(q) = q + disp(x + q) = 0 pointwise,
    starting from q = -disp, with the Jacobian I + (grad disp)(x + q): each
    iteration evaluates disp and its gradient at x + q in one eval_periodic
    call and solves the dim x dim system per point in closed form. It stops
    once max |res| < INVERT_TOL, after taking the last step. Raises
    InversionError at once on a non-finite residual or a non-positive
    determinant at a point, and after INVERT_MAX_ITER iterations.
    """
    disp = np.asarray(disp)
    dim = grid.dim
    grad = operators(grid).grad(disp)
    jac = _det(grad)
    if not jac.min() > 0.0:
        raise SolverAbort(f"Jacobian not positive (min {jac.min():.3e})")
    fields = np.concatenate((disp, grad.reshape((dim * dim,) + grid.shape)))
    q = -disp
    for _ in range(INVERT_MAX_ITER):
        vals = eval_periodic(grid, fields, grid.coords + q)
        res = q + vals[:dim]
        err = np.abs(res).max()
        if not np.isfinite(err):
            raise InversionError("map inversion met a non-finite residual")
        d = vals[dim:].reshape((dim, dim) + grid.shape)
        det = _det(d)
        if not det.min() > 0.0:
            raise InversionError(
                f"map inversion met a non-positive Jacobian (min {det.min():.3e})")
        if dim == 1:
            q = q - res / det
        else:
            q = q - np.stack(((1.0 + d[1, 1]) * res[0] - d[0, 1] * res[1],
                              (1.0 + d[0, 0]) * res[1] - d[1, 0] * res[0])) / det
        if err < INVERT_TOL:
            return q
    raise InversionError(
        f"map inversion stalled at residual {err:.3e} after "
        f"{INVERT_MAX_ITER} iterations")


def pushforward_density(rho0: ScalarField, phi: DiffeoState):
    """Pushforward (rho0 o phi^{-1}) * Jac(phi^{-1}), normalized to unit mass.

    For the uniform rho0 this is the left projection pi(phi) = phi_* mu,
    Jac(phi^{-1}): eval_periodic returns the constant 1 exactly, so the
    density is the normalized Jacobian bit for bit. For another rho0 it is
    the left projection of the flow started at a diffeomorphism projecting
    to rho0, computed without constructing that diffeomorphism: the flow
    from the identity composed on the right leaves it invariant.
    """
    grid = phi.grid
    check_same_grid(grid, rho0.grid)
    q = invert_map(grid, phi.disp.components)
    points = grid.coords + q
    vals = eval_periodic(grid, rho0.values, points) * jacobian_det(grid, q)
    mass = float(vals.mean())
    return ScalarField(grid, vals / mass)


def horizontality_defect(u: VectorField, rho: ScalarField, k: int) -> float:
    """L2 norm of the divergence-free Hodge component of w = (1/rho) Au."""
    grid = u.grid
    check_same_grid(grid, rho.grid)
    if not rho.values.min() > 0.0:
        raise ValueError("rho must be strictly positive")
    ops = operators(grid, k)
    what = ops.fft(ops.apply(ops.a, u.components) / rho.values)
    # the gradient part k (k.w) / |k|^2, zero on the divergence-free
    # constant mode. In 2-D the first-axis Nyquist row is its own conjugate
    # mirror; with k0 = 0 there, as in ik, the summand is the same on each
    # mode and its mirror, and the weighted half spectrum sums the full one.
    kvec = ops.k_mesh
    if grid.dim == 2:
        kvec = kvec.copy()
        kvec[0, grid.n // 2] = 0.0
    ksq = (kvec ** 2).sum(axis=0)
    grad_part = kvec * (kvec * what).sum(axis=0) / np.where(ksq > 0.0, ksq, 1.0)
    sq = (np.abs(what - grad_part) ** 2 * ops.weight).sum()
    return float(np.sqrt(sq)) / grid.npoints


def epdiff_energy(u: VectorField, k: int) -> float:
    """Right-invariant energy <Au, u> (conserved along EPDiff solutions)."""
    ops = operators(u.grid, k)
    total = 0.0
    for au, c in zip(ops.apply(ops.a, u.components), u.components):
        total += float((au * c).mean())
    return total


def cross_validate(rho0: ScalarField, p0: ScalarField, k: int, T: float,
                   dt: float) -> dict:
    """Run the density geodesic and the lifted horizontal EPDiff flow side by side.

    Reports the L2 discrepancy between the density trajectory and the left
    projection of the EPDiff trajectory, the worst horizontality defect, and
    the relative energy drift on both sides. The reported dt is the step
    taken, T / ceil(T/dt).
    """
    if k < 0:
        raise ValueError("cross validation requires k >= 0")
    grid = rho0.grid
    n_steps, dt = time_steps(T, dt)
    stride = max(1, n_steps // (N_CHECKS - 1))

    traj = geodesic.shoot(rho0, p0, k, T, dt, store_every=stride)
    u0 = geodesic.horizontal_velocity(traj.states[0])
    ep = integrate_epdiff(identity_state(grid, u0, k), T, dt,
                          store_every=stride)
    discrepancies = []
    defects = []
    # both flows store through geodesic.integrate: the same times, in order
    for dstate, (_, phi) in zip(traj.states, ep):
        rho_ep = pushforward_density(rho0, phi)
        discrepancies.append(
            l2_norm_values(rho_ep.values - dstate.rho.values))
        defects.append(horizontality_defect(phi.u, rho_ep, k))

    e_dens = [d.energy for d in traj.diagnostics]
    e_ep = [epdiff_energy(s.u, k) for _, s in ep]

    def rel_drift(values):
        ref = abs(values[0])
        if ref == 0.0:
            return 0.0
        return float(max(abs(v - values[0]) for v in values) / ref)

    return {
        "grid": {"dim": grid.dim, "n": grid.n},
        "k": k,
        "dt": dt,
        "T": T,
        "l2_discrepancy_final": discrepancies[-1],
        "l2_discrepancy_max": max(discrepancies),
        "horizontality_defect_max": max(defects),
        "energy_drift_density": rel_drift(e_dens),
        "energy_drift_epdiff": rel_drift(e_ep),
    }
