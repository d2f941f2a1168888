"""Geodesic flow on probability densities in Hamiltonian coordinates (rho, p).

The flow solves

    rho_t = -div(rho * Ainv(rho * grad p)),
    p_t   = -grad p . Ainv(rho * grad p),

with inertia operator A = (1 - Laplacian)^(k+1). The first equation is the
operator field L_rho applied to p; L_rho is self-adjoint and strictly positive
on mean-zero fields, which the preconditioned CG inverse exploits. Products are
dealiased with the 2/3 rule, arranged so that the discrete L_rho is exactly
symmetric. p enters only through grad p, and p_t is dealiased, so the flow
carries p as its masked band spectrum: a state is one real row of rho's grid
values and that spectrum (`_rows`), and only `shoot` returns p to the grid.
Every shoot steps the rows (1 + m, R) of one state: row 0 is the state and
rows 1.. are m tangents, carried by the flow linearized along it (`_rhs`).
A plain shoot has m = 0; the tangents of `shoot_tangents` give the
derivatives of its endpoint, matching's exact Jacobian.
"""
from __future__ import annotations

import logging
import math
from dataclasses import dataclass
from functools import partial

import numpy as np

from .spectral import (
    Band,
    Grid,
    Operators,
    ScalarField,
    VectorField,
    check_same_grid,
    l2_norm_values,
    operators,
    spectral_tail_fraction,
)

log = logging.getLogger(__name__)

MASS_TOL = 1e-10
MASS_DRIFT_TOL = 1e-8
STEP_RTOL = 1e-9  # T/dt this close to an integer counts as that integer
MAX_STEPS = 10 ** 7  # over 45 minutes even on 1-D n = 8: more is a typo
CFL = 0.5  # default_dt's fraction of a grid cell per step
CG_ITERS_PER_POINT = 10  # solve_L_rho's iteration limit per grid point


class SolverAbort(RuntimeError):
    """A time step failed (positivity loss, mass drift, or CG breakdown)."""

    def __init__(self, message: str, time: float | None = None):
        super().__init__(message)
        self.time = time


class StateError(ValueError):
    """Density-state invariants violated."""


def rk4(f, y: np.ndarray, dt: float) -> np.ndarray:
    """One classical Runge-Kutta step of y' = f(y) on an array state."""
    k1 = f(y)
    k2 = f(y + 0.5 * dt * k1)
    k3 = f(y + 0.5 * dt * k2)
    k4 = f(y + dt * k3)
    # in place, holding fewer arrays; the same roundings as
    # y + (dt / 6) * (k1 + 2 k2 + 2 k3 + k4), since a + b == b + a exactly
    acc = 2.0 * k2
    acc += k1
    acc += 2.0 * k3
    acc += k4
    acc *= dt / 6.0
    acc += y
    return acc


def time_steps(T: float, dt: float):
    """(n_steps, step) that end exactly at T: ceil(T/dt) steps of T/n_steps."""
    if not (math.isfinite(T) and math.isfinite(dt)):
        raise ValueError(f"T and dt must be finite, got T={T}, dt={dt}")
    if not (T > 0.0 and dt > 0.0):
        raise ValueError("T and dt must be positive")
    ratio = T / dt * (1.0 - STEP_RTOL)
    if not ratio <= MAX_STEPS:
        raise ValueError(f"T/dt = {T}/{dt} is too many steps: {ratio:.6g} "
                         f"> MAX_STEPS = {MAX_STEPS}")
    n_steps = math.ceil(ratio)
    return n_steps, T / n_steps


def _lrho(ops: Operators | Band, rho: np.ndarray, p_hat: np.ndarray):
    """Dealiased L_rho p of p's masked spectrum p_hat, with grad p and
    u = Ainv(rho grad p): the one kernel of the operator.

    Its products are dual ones (`_dual`): a grid rho (*shape) applies L_rho
    to each of a stack of p_hat, and rows (1 + m, ...) of a state and m
    tangents give L_rho p in row 0 and, in tangent row i, its linearization
    -div(drho u + rho du), du = Ainv(drho grad p + rho grad dp). grad p and u
    carry the vector axis before the grid axes. Dealiasing placement (input,
    after the first product, and on the output) makes the discrete operator
    exactly symmetric on the retained band. Callers on the grid pass
    `ops.fft(p) * ops.mask` on the table's band view (`Operators.band`); the
    full table gives the same values, bit for bit.
    """
    gradp = ops.ifft(ops.ik * p_hat[ops.vec])
    rho_v = rho[ops.vec]
    u = ops.apply(ops.ainv_band, _dual(rho_v, gradp))
    rhodot = -ops.ifft(ops.div_hat(_dual(rho_v, u)) * ops.mask)
    return rhodot, gradp, u


def _rows(ops: Operators | Band, rho: np.ndarray, p_hat: np.ndarray):
    """Stacked states (..., R) as real rows: the grid values of rho, then
    the spectrum p_hat on ops' columns viewed as reals. Real linear
    combinations of rows are the complex ones of their spectra, bit for bit,
    so `rk4` steps rows as plain arrays. The stack may be empty."""
    lead = rho.shape[:-ops.grid.dim]
    return np.concatenate((rho.reshape(lead + (ops.grid.npoints,)),
                           p_hat.view(np.float64).reshape(
                               lead + (2 * ops.mask.size,))),
                          axis=-1)


def _state_rows(ops: Operators | Band, rho: np.ndarray, p: np.ndarray):
    """`_rows` of states (rho, p) given on the grid: p_hat is p's masked
    spectrum on ops' columns, its mean mode zeroed."""
    p_hat = ops.fft(p) * ops.mask
    p_hat[ops.zero] = 0.0
    return _rows(ops, rho, p_hat)


def _split(ops: Operators | Band, y: np.ndarray):
    """Views (rho, p_hat) of rows y (..., R) built by `_rows`."""
    lead, npoints = y.shape[:-1], ops.grid.npoints
    p_hat = y[..., npoints:].view(np.complex128)
    return (y[..., :npoints].reshape(lead + ops.grid.shape),
            p_hat.reshape(lead + ops.mask.shape))


def _dual(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Products of dual rows a, b (1 + m, ...): a[0] b[0] in row 0 and, in
    tangent row i, its linearization a[0] b[i] + a[i] b[0]. With m = 0 it
    is the plain product."""
    if len(a) == 1:
        return a * b
    out = a[:1] * b
    out[1:] += a[1:] * b[:1]
    return out


def _rhs(ops: Operators | Band, y: np.ndarray) -> np.ndarray:
    """d/dt of rows y (1 + m, R): row 0 is a state (rho, p_hat) (see
    `_rows`) whose p_hat is masked and mean-free, and rows 1.. are tangents
    (drho, dp_hat) carried by the flow linearized there. rho_t and its
    tangents are `_lrho`'s; p_t = -grad p . u, and in the tangent rows
    dp_t = -(grad p . du + grad dp . u), a dual product too. p enters only
    through grad p, so the flow never needs it in physical space, and p_t's
    spectrum is masked and mean-free again. All rows go through the same
    transform calls: 6 in 1-D.
    """
    rho, p_hat = _split(ops, y)
    rhodot, gradp, u = _lrho(ops, rho, p_hat)
    adv = _dual(gradp, u).sum(axis=-ops.grid.dim - 1)
    pdot_hat = ops.fft(adv) * ops.mask
    pdot_hat[ops.zero] = 0.0  # mean-zero representative of p_t
    return _rows(ops, rhodot, np.negative(pdot_hat, out=pdot_hat))


@dataclass(frozen=True)
class Diagnostics:
    mass: float
    energy: float
    min_rho: float
    max_abs_p: float
    spectral_tail: float


@dataclass
class DensityState:
    """Hamiltonian coordinates: positive unit-mass rho and mean-zero momentum p."""

    rho: ScalarField
    p: ScalarField
    k: int

    def __post_init__(self):
        check_same_grid(self.rho.grid, self.p.grid)
        if self.k < -1:
            raise StateError(f"metric order k must be >= -1, got {self.k}")

    @property
    def grid(self) -> Grid:
        return self.rho.grid


def _validate(rho: np.ndarray, p: np.ndarray) -> None:
    """Check the invariants of a state (rho, p) given on the grid. p's mean
    is left unchecked: callers subtract it, which leaves roundoff only."""
    if not (np.isfinite(rho).all() and np.isfinite(p).all()):
        raise StateError("rho and p must be finite")
    rho_min = rho.min()
    if not rho_min > 0.0:
        raise StateError(f"rho must be strictly positive (min {rho_min:.3e})")
    mass_err = abs(rho.mean() - 1.0)
    if not mass_err <= MASS_TOL:
        raise StateError(f"rho mass deviates from 1 by {mass_err:.3e}")


@dataclass
class Trajectory:
    times: np.ndarray
    states: list
    diagnostics: list


def make_state(grid: Grid, rho_values, p_values, k: int) -> DensityState:
    """Build a state, pinning the mean-zero representative of p; validates."""
    rho = ScalarField(grid, rho_values)
    p_vals = np.asarray(p_values, dtype=np.float64).reshape(grid.shape)
    if not np.isfinite(p_vals).all():
        raise StateError("p must be finite")
    p = ScalarField(grid, p_vals - p_vals.mean())
    state = DensityState(rho, p, k)
    _validate(rho.values, p.values)
    return state


def apply_L_rho(rho: ScalarField, p: ScalarField, k: int) -> ScalarField:
    """p -> -div(rho * Ainv(rho * grad p)); mean-zero output."""
    check_same_grid(rho.grid, p.grid)
    if not rho.values.min() > 0.0:
        raise StateError("rho must be strictly positive")
    ops = operators(rho.grid, k).band
    rhodot, _, _ = _lrho(ops, rho.values, ops.fft(p.values) * ops.mask)
    return ScalarField(rho.grid, rhodot)


def solve_L_rho(rho: ScalarField, rhodot: ScalarField, k: int,
                tol: float = 1e-10) -> ScalarField:
    """Invert L_rho on the mean-zero band by preconditioned conjugate gradients.

    Preconditioner: the exact constant-density inverse symbol
    (1+|xi|^2)^(k+1)/|xi|^2 on nonzero retained modes.
    """
    check_same_grid(rho.grid, rhodot.grid)
    grid = rho.grid
    if not rho.values.min() > 0.0:
        raise StateError("rho must be strictly positive")
    if not tol > 0.0:
        raise ValueError("tol must be positive")
    ops = operators(grid, k).band
    b = ops.apply(ops.mask, rhodot.values)
    b = b - b.mean()
    bnorm = l2_norm_values(b)
    if bnorm == 0.0:
        return ScalarField(grid, np.zeros(grid.shape))
    max_iter = CG_ITERS_PER_POINT * grid.npoints

    x = np.zeros(grid.shape)
    r = b.copy()
    z = ops.apply(ops.precond, r)
    q = z.copy()
    rz = float((r * z).mean())
    for iters in range(1, max_iter + 1):
        lq, _, _ = _lrho(ops, rho.values, ops.fft(q) * ops.mask)
        qlq = float((q * lq).mean())
        if qlq <= 0.0:
            raise SolverAbort(
                f"CG breakdown: non-positive curvature {qlq:.3e} at iter {iters}"
            )
        alpha = rz / qlq
        x = x + alpha * q
        r = r - alpha * lq
        if l2_norm_values(r) <= tol * bnorm:
            break
        z = ops.apply(ops.precond, r)
        rz_new = float((r * z).mean())
        q = z + (rz_new / rz) * q
        rz = rz_new
    else:
        raise SolverAbort(
            f"CG did not converge in {max_iter} iterations; "
            f"relative residual {l2_norm_values(r) / bnorm:.3e}"
        )
    return ScalarField(grid, x - x.mean())


def horizontal_velocity(state: DensityState) -> VectorField:
    """u = Ainv(rho * grad p): the horizontal (Eulerian) velocity of the state."""
    ops = operators(state.grid, state.k).band
    _, _, u = _lrho(ops, state.rho.values, ops.fft(state.p.values) * ops.mask)
    return VectorField(state.grid, u)


def hamiltonian_rhs(state: DensityState):
    """Time derivatives (rhodot, pdot) of the geodesic flow at a state."""
    ops = operators(state.grid, state.k).band
    # rows (1, R): on a bare row (R,), _dual would read 2-D's vector axis
    # as tangent rows
    y = _state_rows(ops, state.rho.values, state.p.values)[None]
    rhodot, pdot_hat = _split(ops, _rhs(ops, y)[0])
    return (ScalarField(state.grid, rhodot),
            ScalarField(state.grid, ops.ifft(pdot_hat)))


def metric_energy(state: DensityState) -> float:
    """Kinetic energy 0.5 * <p, L_rho p>; zero iff p is constant."""
    ops = operators(state.grid, state.k).band
    rhodot, _, _ = _lrho(ops, state.rho.values,
                         ops.fft(state.p.values) * ops.mask)
    return float(0.5 * (state.p.values * rhodot).mean())


def diagnostics_for(state: DensityState) -> Diagnostics:
    rv = state.rho.values
    return Diagnostics(
        mass=float(rv.mean()),
        energy=metric_energy(state),
        min_rho=float(rv.min()),
        max_abs_p=float(np.abs(state.p.values).max()),
        spectral_tail=spectral_tail_fraction(state.grid, rv),
    )


def step_rk4(ops: Operators, y: np.ndarray, dt: float):
    """One RK4 step of y' = _rhs(ops.band, y) on the rows y (1 + m, R) of a
    state and its tangents (see `_rows`, on ops.band). Returns the new rows
    and the guard the state (row 0) failed (no longer finite, positivity
    lost, mass drift), or None; tangents are not guarded. p_hat's mean mode
    needs no correction: it starts at 0 and every p_t has it 0."""
    npoints = ops.grid.npoints
    mass = y[0, :npoints].mean()
    y = rk4(partial(_rhs, ops.band), y, dt)
    state = y[0]
    if not np.isfinite(state).all():
        return y, "state is no longer finite"
    rho = state[:npoints]
    rho_min = rho.min()
    if not rho_min > 0.0:
        return y, (f"positivity lost: min rho {rho_min:.3e} "
                   "(under-resolved or outside the global regime)")
    drift = abs(rho.mean() - mass)
    if not drift <= MASS_DRIFT_TOL:
        return y, f"mass drift {drift:.3e} exceeds {MASS_DRIFT_TOL}"
    return y, None


def integrate(step, y: np.ndarray, T: float, dt: float, store_every: int = 0):
    """Step y over time_steps(T, dt) by step(y, dt) -> (y, reason), the
    reason None for a good step. Given store_every, stores (t, y) at t = 0,
    every store_every steps and at the last step. Returns the final y and
    the stored pairs; raises SolverAbort("t=...: reason") with the time of
    the first failed step."""
    n_steps, dt = time_steps(T, dt)
    stored = [(0.0, y)] if store_every else []
    for i in range(1, n_steps + 1):
        y, reason = step(y, dt)
        if reason is not None:
            t = i * dt
            raise SolverAbort(f"t={t:.6g}: {reason}", time=t)
        if store_every and (i % store_every == 0 or i == n_steps):
            stored.append((i * dt, y))
    return y, stored


def default_dt(state: DensityState) -> float | None:
    """CFL-style default step CFL * dx / max|u|; None for a resting state."""
    u = horizontal_velocity(state)
    umax = float(np.abs(u.components).max())
    if umax == 0.0:
        return None
    return CFL * state.grid.spacing / umax


def shoot(rho0: ScalarField, p0: ScalarField, k: int, T: float, dt: float,
          store_every: int = 1, backward: bool = False) -> Trajectory:
    """Integrate the geodesic flow from (rho0, p0) over [0, T].

    Takes ceil(T/dt) equal steps that end exactly at T (see time_steps),
    from the state `_initial_rows` prepares, with no tangent rows. The flow
    carries p's band spectrum only; the part of p0 outside the band, p_out,
    never changes, and each stored p is the band part plus p_out. Backward
    runs negate p, integrate forward, and negate back (the flow is
    time-reversible). Aborts propagate with the failing time attached.
    """
    if not store_every >= 1:
        raise ValueError(f"store_every must be >= 1, got {store_every}")
    if k in (-1, 0):
        log.warning(
            "k=%d is in the local regime: global existence is not guaranteed "
            "and positivity loss is expected behavior", k)
    grid = rho0.grid
    ops = operators(grid, k)
    band = ops.band
    y, p_out = _initial_rows(ops, rho0, -p0.values if backward else p0.values)
    p_out -= band.ifft(_split(band, y[0])[1])  # p0's part outside the band
    _, stored = integrate(partial(step_rk4, ops), y, T, dt, store_every)
    times, states = np.array([t for t, _ in stored]), []
    stored.reverse()
    while stored:  # each row is freed once its state is built
        _, y = stored.pop()
        rho, p_hat = _split(band, y[0])
        p = band.ifft(p_hat)
        p += p_out
        if backward:
            np.negative(p, out=p)
        states.append(DensityState(ScalarField(grid, rho.copy()),
                                   ScalarField(grid, p), k))
    return Trajectory(times, states, [diagnostics_for(s) for s in states])


def shoot_tangents(rho0: ScalarField, p0: np.ndarray, dp0: np.ndarray, k: int,
                   T: float, dt: float):
    """The shoot from (rho0, p0) and the derivatives of its final density
    along the initial momenta dp0 (m, *shape), m >= 0, by the linearized
    flow (see `_rhs`) stepped with the state as its rows (1 + m, R).

    The state is prepared and stepped as `shoot` prepares and steps it, so
    its endpoint is bit-identical to shoot's; only the state is guarded.
    Returns (rho_T, drho_T), (*shape) and (m, *shape); raises
    SolverAbort("t=...: reason") at the time of the state's failed step.
    At rest (p0's band part 0) the linearized flow is drho_t = L_rho0 dp,
    dp_t = 0, on which RK4 is exact: drho_T is T L_rho0 dp0, one stacked
    L_rho apply with no time loop.
    """
    ops = operators(rho0.grid, k)
    band = ops.band
    base = _initial_rows(ops, rho0, p0)[0]
    rho, p_hat = _split(band, base[0])
    if not p_hat.any():
        time_steps(T, dt)  # the same checks of T and dt
        return rho, T * _lrho(band, rho, band.fft(dp0) * band.mask)[0]
    y = np.concatenate((base, _state_rows(band, np.zeros_like(dp0), dp0)))
    y, _ = integrate(partial(step_rk4, ops), y, T, dt)
    rho_T = _split(band, y)[0]
    return rho_T[0], rho_T[1:]


def _initial_rows(ops: Operators, rho0: ScalarField, p0: np.ndarray):
    """The rows (1, R) of the validated state (rho0, p_hat) on ops.band (see
    `_rows`), p_hat the masked, mean-free spectrum of p, which is p0 with
    its mean subtracted twice: the second subtraction removes most of the
    roundoff the first leaves; and p."""
    p = p0 - p0.mean()
    p -= p.mean()
    _validate(rho0.values, p)
    return _state_rows(ops.band, rho0.values[None], p[None]), p
