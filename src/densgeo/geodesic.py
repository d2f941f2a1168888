"""Geodesic flow on probability densities in Hamiltonian coordinates (rho, p).

The flow solves

    rho_t = -div(rho * Ainv(rho * grad p)),
    p_t   = -grad p . Ainv(rho * grad p),

with inertia operator A = (1 - Laplacian)^(k+1). The first equation is the
operator field L_rho applied to p; L_rho is self-adjoint and strictly positive
on mean-zero fields, which the preconditioned CG inverse exploits. Products are
dealiased with the 2/3 rule, arranged so that the discrete L_rho is exactly
symmetric.
"""
from __future__ import annotations

import logging
import math
from dataclasses import dataclass
from functools import partial

import numpy as np

from .spectral import (
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
MEAN_TOL = 1e-12
MASS_DRIFT_TOL = 1e-8
STEP_RTOL = 1e-9  # T/dt this close to an integer counts as that integer


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
    if not (T > 0.0 and dt > 0.0):
        raise ValueError("T and dt must be positive")
    n_steps = math.ceil(T / dt * (1.0 - STEP_RTOL))
    return n_steps, T / n_steps


def _lrho(ops: Operators, rho: np.ndarray, p: np.ndarray):
    """Dealiased L_rho p, with grad p and u = Ainv(rho grad p).

    rho and p may carry leading stack axes; grad p and u then carry the
    vector axis between those and the grid axes. Dealiasing placement
    (input, after the first product, and on the output) makes the discrete
    operator exactly symmetric on the retained band.
    """
    gradp = ops.ifft(ops.ik * (ops.fft(p) * ops.mask)[ops.vec])
    rho_v = rho[ops.vec]
    u = ops.apply(ops.ainv_band, rho_v * gradp)
    rhodot = -ops.ifft(ops.div_hat(rho_v * u) * ops.mask)
    return rhodot, gradp, u


def _rhs(ops: Operators, y: np.ndarray) -> np.ndarray:
    """Hamiltonian right-hand side d/dt of states y = (..., 2, *shape),
    each a stacked (rho, p)."""
    rhodot, gradp, u = _lrho(ops, y[ops.part[0]], y[ops.part[1]])
    adv_hat = ops.fft((gradp * u).sum(axis=-ops.grid.dim - 1)) * ops.mask
    adv_hat[ops.zero] = 0.0  # mean-zero representative of p_t
    # np.stack, not writes into an np.empty_like(y): those made the 128^2
    # shoot slower in paired runs
    return np.stack((rhodot, -ops.ifft(adv_hat)),
                    axis=-ops.grid.dim - 1)


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

    def validate(self) -> None:
        # not operators(...).axes: building the table here, before the run's
        # first step, left shoot-2d with a 0.8 MB higher peak RSS
        _validate(self.rho.values, self.p.values,
                  tuple(range(-self.grid.dim, 0)))


def _validate(rho: np.ndarray, p: np.ndarray, axes: tuple) -> None:
    """Check the state invariants of every member of a stack of states
    (rho and p with the grid on `axes`); reports the worst member."""
    if not (np.isfinite(rho).all() and np.isfinite(p).all()):
        raise StateError("rho and p must be finite")
    rho_min = rho.min(axis=axes)
    if not (rho_min > 0.0).all():
        raise StateError(
            f"rho must be strictly positive (min {rho_min.min():.3e})")
    mass_err = np.abs(rho.mean(axis=axes) - 1.0)
    if not (mass_err <= MASS_TOL).all():
        raise StateError(f"rho mass deviates from 1 by {mass_err.max():.3e}")
    p_mean = np.abs(p.mean(axis=axes))
    if not (p_mean <= MEAN_TOL).all():
        raise StateError(f"p mean {p_mean.max():.3e} exceeds {MEAN_TOL}")


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
    state.validate()
    return state


def apply_L_rho(rho: ScalarField, p: ScalarField, k: int) -> ScalarField:
    """p -> -div(rho * Ainv(rho * grad p)); mean-zero output."""
    check_same_grid(rho.grid, p.grid)
    if not rho.values.min() > 0.0:
        raise StateError("rho must be strictly positive")
    rhodot, _, _ = _lrho(operators(rho.grid, k), rho.values, p.values)
    return ScalarField(rho.grid, rhodot)


def solve_L_rho(rho: ScalarField, rhodot: ScalarField, k: int,
                tol: float = 1e-10, max_iter: int | None = None) -> ScalarField:
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
    ops = operators(grid, k)
    b = ops.apply(ops.mask, rhodot.values)
    b = b - b.mean()
    bnorm = l2_norm_values(b)
    if bnorm == 0.0:
        return ScalarField(grid, np.zeros(grid.shape))
    if max_iter is None:
        max_iter = 10 * grid.npoints

    x = np.zeros(grid.shape)
    r = b.copy()
    z = ops.apply(ops.precond, r)
    q = z.copy()
    rz = float((r * z).mean())
    for iters in range(1, max_iter + 1):
        lq, _, _ = _lrho(ops, rho.values, q)
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
    _, _, u = _lrho(operators(state.grid, state.k), state.rho.values,
                    state.p.values)
    return VectorField(state.grid, u)


def hamiltonian_rhs(state: DensityState):
    """Time derivatives (rhodot, pdot) of the geodesic flow at a state."""
    y = np.stack((state.rho.values, state.p.values))
    rhodot, pdot = _rhs(operators(state.grid, state.k), y)
    return ScalarField(state.grid, rhodot), ScalarField(state.grid, pdot)


def metric_energy(state: DensityState) -> float:
    """Kinetic energy 0.5 * <p, L_rho p>; zero iff p is constant."""
    rhodot, _, _ = _lrho(operators(state.grid, state.k), state.rho.values,
                         state.p.values)
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


def _guarded_step(ops: Operators, y: np.ndarray, dt: float):
    """One RK4 step of states y (..., 2, *shape), guarded per state.

    Returns the stepped states and, per state in flat order, the reason it
    failed a guard (no longer finite, positivity lost, mass drift) or None.
    """
    at_rho, at_p = ops.part
    mass = y[at_rho].mean(axis=ops.axes)
    y = rk4(partial(_rhs, ops), y, dt)
    # in place, so that a new state is its stacked buffer
    y[at_p] -= y[at_p].mean(axis=ops.axes, keepdims=True)
    # at least 1-D: the reductions of step_rk4's one unstacked state are 0-d
    finite, rho_min, drift = np.atleast_1d(
        np.isfinite(y).all(axis=(-ops.grid.dim - 1,) + ops.axes),
        y[at_rho].min(axis=ops.axes),
        np.abs(y[at_rho].mean(axis=ops.axes) - mass))
    reasons = [None] * len(finite)
    for i in np.flatnonzero(~(finite & (rho_min > 0.0)
                              & (drift <= MASS_DRIFT_TOL))):
        if not finite[i]:
            reasons[i] = "state is no longer finite"
        elif not rho_min[i] > 0.0:
            reasons[i] = (f"positivity lost: min rho {rho_min[i]:.3e} "
                          "(under-resolved or outside the global regime)")
        else:
            reasons[i] = f"mass drift {drift[i]:.3e} exceeds {MASS_DRIFT_TOL}"
    return y, reasons


def step_rk4(state: DensityState, dt: float) -> DensityState:
    """One classical RK4 step; aborts on positivity loss or mass drift."""
    if not dt > 0.0:
        raise ValueError("dt must be positive")
    grid = state.grid
    y, (reason,) = _guarded_step(
        operators(grid, state.k),
        np.stack((state.rho.values, state.p.values)), dt)
    if reason is not None:
        raise SolverAbort(reason)
    return DensityState(ScalarField(grid, y[0]), ScalarField(grid, y[1]),
                        state.k)


def default_dt(state: DensityState, cfl: float = 0.5) -> float | None:
    """CFL-style default step 0.5 * dx / max|u|; None for a resting state."""
    u = horizontal_velocity(state)
    umax = float(np.abs(u.components).max())
    if umax == 0.0:
        return None
    return cfl * state.grid.spacing / umax


def shoot(rho0: ScalarField, p0: ScalarField, k: int, T: float, dt: float,
          store_every: int = 1, backward: bool = False) -> Trajectory:
    """Integrate the geodesic flow from (rho0, p0) over [0, T].

    Takes ceil(T/dt) equal steps that end exactly at T (see time_steps).
    Backward runs negate p, integrate forward, and negate back (the flow is
    time-reversible). Aborts propagate with the failing time attached.
    """
    n_steps, dt = time_steps(T, dt)
    if k in (-1, 0):
        log.warning(
            "k=%d is in the local regime: global existence is not guaranteed "
            "and positivity loss is expected behavior", k)
    grid = rho0.grid
    p_init = p0.values - p0.values.mean()
    if backward:
        p_init = -p_init
    state = make_state(grid, rho0.values, p_init, k)
    times = [0.0]
    states = [state]
    diags = [diagnostics_for(state)]
    for i in range(n_steps):
        t = (i + 1) * dt
        try:
            state = step_rk4(state, dt)
        except SolverAbort as exc:
            raise SolverAbort(f"t={t:.6g}: {exc}", time=t) from None
        if (i + 1) % store_every == 0 or (i + 1) == n_steps:
            times.append(t)
            states.append(state)
            diags.append(diagnostics_for(state))
    if backward:
        # in place: each stored p is a view into its state's stacked buffer
        for s in states:
            np.negative(s.p.values, out=s.p.values)
        diags = [diagnostics_for(s) for s in states]
    return Trajectory(np.array(times), states, diags)


def shoot_endpoints(rho0: ScalarField, p0: np.ndarray, k: int, T: float,
                    dt: float):
    """Final densities of independent shoots from rho0, one per momentum in
    the stack p0 (B, *shape), integrated together as one stack.

    Each member is prepared as `shoot` prepares its state and takes the same
    steps as `shoot`, so its endpoint is bit-identical to shoot's. Every
    member is validated and guarded as `make_state` and `step_rk4` do; a
    member that fails a step's guard is dropped from the stack. Returns
    (rho_T, t_abort): t_abort (B,) holds the time of each member's failed
    step, NaN for a member that reached T; rho_T (B, *shape) holds the
    final densities, NaN on the rows of aborted members.
    """
    n_steps, dt = time_steps(T, dt)
    ops = operators(rho0.grid, k)
    at_rho, at_p = ops.part
    # the mean subtractions of shoot's p_init and of make_state
    p = p0 - p0.mean(axis=ops.axes, keepdims=True)
    y = np.empty((len(p), 2) + rho0.grid.shape)
    y[at_rho] = rho0.values
    y[at_p] = p - p.mean(axis=ops.axes, keepdims=True)
    _validate(y[at_rho], y[at_p], ops.axes)
    t_abort = np.full(len(y), np.nan)
    live = np.arange(len(y))
    for i in range(n_steps):
        if not len(live):
            break
        y, reasons = _guarded_step(ops, y, dt)
        failed = np.array([r is not None for r in reasons])
        if failed.any():
            t_abort[live[failed]] = (i + 1) * dt
            live, y = live[~failed], y[~failed]
    rho_T = np.full((len(t_abort),) + rho0.grid.shape, np.nan)
    rho_T[live] = y[at_rho]
    return rho_T, t_abort
