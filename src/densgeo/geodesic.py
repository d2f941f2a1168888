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
values and that spectrum (`_rows`). Rows turn back into states only here:
`snapshots` yields each state as the flow reaches it (`shoot` hands them to
a sink), and `replay` turns the rows a `Record` kept into the same states'
summaries, bit for bit. Every time step is taken by one loop, the
generator `flow`.
Every shoot steps the rows (1 + m, R) of one state: row 0 is the state and
rows 1.. are m tangents, carried by the flow linearized along it (`_rhs`).
A plain shoot has m = 0; the tangents of `shoot_tangents` give the
derivatives of its endpoint, matching's exact Jacobian.

A `DensityState` checks its invariants when it is built, `make_state` adds
unit mass, and `step_rk4`'s guard stops a shoot at the first step that
breaks them: every state a shoot hands out is valid.
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
    tail_fractions,
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
    """A state's invariants violated."""


def rk4(f, y: np.ndarray, dt: float) -> np.ndarray:
    """One classical Runge-Kutta step of y' = f(y) on an array state; f
    returns a new array, which rk4 may overwrite.

    Beside y and f's output it holds two arrays, the stage and the
    accumulator (k1's array): each k is folded in once its stage is formed.
    The roundings are those of the stages y + (dt / 2) k1, y + (dt / 2) k2,
    y + dt k3 and of y + (dt / 6) (k1 + 2 k2 + 2 k3 + k4), since
    a + b == b + a and a * b == b * a exactly.

    numpy's overflow and invalid-value warnings are silenced inside the
    step: a guarded step (`step_rk4`, `epdiff._flow_step`) reports an
    overflow through its finiteness check alone."""
    with np.errstate(over="ignore", invalid="ignore"):
        acc = f(y)
        stage = np.multiply(acc, 0.5 * dt)
        stage += y
        for c in (0.5 * dt, dt):  # k2, then k3
            k = f(stage)
            np.multiply(k, c, out=stage)
            stage += y
            k *= 2.0
            acc += k
            del k  # freed before the next stage's f
        acc += f(stage)
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
    """Dealiased L_rho p = -div(rho u), u = Ainv(rho grad p), of p's masked
    spectrum p_hat: the one kernel of the operator, in two halves.

    Its products are dual ones (`_dual`): a grid rho (*shape) applies L_rho
    to each of a stack of p_hat, and rows (1 + m, ...) of a state and m
    tangents give L_rho p in row 0 and, in tangent row i, its linearization
    -div(drho u + rho du), du = Ainv(drho grad p + rho grad dp). grad p and u
    (`_velocity`) carry the vector axis before the grid axes. Dealiasing placement (input,
    after the first product, and on the output) makes the discrete operator
    exactly symmetric on the retained band. Callers on the grid pass
    `ops.fft(p) * ops.mask` on the table's band view (`Operators.band`); the
    full table gives the same values, bit for bit.
    """
    return _divergence(ops, rho, _velocity(ops, rho, p_hat)[1])


def _velocity(ops: Operators | Band, rho: np.ndarray, p_hat: np.ndarray):
    """`_lrho`'s first half: grad p and u = Ainv(rho grad p)."""
    gradp = ops.ifft(ops.ik * p_hat[ops.vec])
    return gradp, ops.ifft(ops.fft(_dual(rho[ops.vec], gradp)) * ops.ainv_band)


def _divergence(ops: Operators | Band, rho: np.ndarray, u: np.ndarray):
    """`_lrho`'s second half: -div(rho u), dealiased. rho u is written into
    u's buffer (`_dual_into`), so u is spent; the symbols apply in place."""
    div_hat = ops.fft(_dual_into(rho[ops.vec], u))
    div_hat *= ops.ik
    div_hat = div_hat.sum(axis=-ops.grid.dim - 1)
    div_hat *= ops.mask
    return ops.ifft(np.negative(div_hat, out=div_hat))


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


def _dual_into(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """`_dual(a, b)` written into b's buffer, which has the product's shape,
    and returned: with the same roundings, since a product commutes and so
    does the sum a[0] b[i] + a[i] b[0] of a tangent row. The tangent rows
    go first, while b[0] is still b's."""
    if len(a) == 1:
        b *= a
    else:
        b[1:] *= a[:1]
        b[1:] += a[1:] * b[:1]
        b[:1] *= a[:1]
    return b


def _rhs(ops: Operators | Band, y: np.ndarray) -> np.ndarray:
    """d/dt of rows y (1 + m, R): row 0 is a state (rho, p_hat) (see
    `_rows`) whose p_hat is masked and mean-free, and rows 1.. are tangents
    (drho, dp_hat) carried by the flow linearized there. rho_t and its
    tangents are `_lrho`'s; p_t = -grad p . u, and in the tangent rows
    dp_t = -(grad p . du + grad dp . u), a dual product too. p enters only
    through grad p, so the flow never needs it in physical space, and p_t's
    spectrum is masked and mean-free again. All rows go through the same
    transform calls: 6 in 1-D. Each dual product after `_velocity`'s is
    written into an operand that is not used again (`_dual_into`): p_t's
    into grad p, rho u into u. Each temporary dies at its last use: grad p
    before the divergence transform (after p_t's product), u after it.
    """
    rho, p_hat = _split(ops, y)
    gradp, u = _velocity(ops, rho, p_hat)
    adv = _dual_into(u, gradp).sum(axis=-ops.grid.dim - 1)
    del gradp
    rhodot = _divergence(ops, rho, u)
    del u
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
    """Hamiltonian coordinates (rho, p) of metric order k, checked when built:
    rho finite and positive, p finite, k an order the grid's table takes."""

    rho: ScalarField
    p: ScalarField
    k: int

    def __post_init__(self):
        check_same_grid(self.rho.grid, self.p.grid)
        check_density(self.rho.values)
        check_finite(self.p.values, "p")
        operators(self.grid, self.k)

    @property
    def grid(self) -> Grid:
        return self.rho.grid


def check_finite(values: np.ndarray, name: str) -> None:
    """Raises StateError naming the field unless all its values are finite."""
    if not np.isfinite(values).all():
        raise StateError(f"{name} not finite")


def check_density(rho: np.ndarray, name: str = "rho",
                  unit_mass: bool = False) -> None:
    """The one density check: rho finite and positive and, with unit_mass,
    of mass 1 within MASS_TOL. Raises StateError naming the field."""
    check_finite(rho, name)
    rho_min = rho.min()
    if not rho_min > 0.0:
        raise StateError(f"{name} not positive (min {rho_min:.3e})")
    if unit_mass:
        mass_err = abs(rho.mean() - 1.0)
        if not mass_err <= MASS_TOL:
            raise StateError(f"{name} mass deviates from 1 by {mass_err:.3e}")


class Trajectory:
    """`shoot`'s default sink: keeps each snapshot it is handed."""

    def __init__(self):
        self._times, self.states, self.diagnostics = [], [], []

    def __call__(self, t: float, state: DensityState, diagnostics) -> None:
        self._times.append(t)
        self.states.append(state)
        self.diagnostics.append(diagnostics)

    @property
    def times(self) -> np.ndarray:
        return np.array(self._times)


def make_state(grid: Grid, rho_values, p_values, k: int) -> DensityState:
    """The `DensityState` of rho and p's mean-zero representative, of unit
    mass; p is checked finite before its mean is taken."""
    p_vals = np.asarray(p_values, dtype=np.float64).reshape(grid.shape)
    check_finite(p_vals, "p")
    state = DensityState(ScalarField(grid, rho_values),
                         ScalarField(grid, p_vals - p_vals.mean()), k)
    check_density(state.rho.values, unit_mass=True)
    return state


def _check_operands(rho: ScalarField, f: ScalarField, name: str) -> None:
    """rho and f of apply_L_rho or solve_L_rho: on one grid, finite, and
    rho positive."""
    check_same_grid(rho.grid, f.grid)
    check_density(rho.values)
    check_finite(f.values, name)


def apply_L_rho(rho: ScalarField, p: ScalarField, k: int) -> ScalarField:
    """p -> -div(rho * Ainv(rho * grad p)); mean-zero output."""
    _check_operands(rho, p, "p")
    ops = operators(rho.grid, k).band
    rhodot = _lrho(ops, rho.values, ops.fft(p.values) * ops.mask)
    return ScalarField(rho.grid, rhodot)


def solve_L_rho(rho: ScalarField, rhodot: ScalarField, k: int,
                tol: float = 1e-10) -> ScalarField:
    """Invert L_rho on the mean-zero band by preconditioned conjugate gradients.

    Preconditioner: the exact constant-density inverse symbol
    (1+|xi|^2)^(k+1)/|xi|^2 on nonzero retained modes.
    """
    _check_operands(rho, rhodot, "rhodot")
    grid = rho.grid
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
        lq = _lrho(ops, rho.values, ops.fft(q) * ops.mask)
        qlq = float((q * lq).mean())
        if not qlq > 0.0:
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
    ops, rho = operators(state.grid, state.k).band, state.rho.values
    _, u = _velocity(ops, rho, ops.fft(state.p.values) * ops.mask)
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


def diagnostics_for(ops: Operators, rho: np.ndarray, p: np.ndarray) -> list:
    """The `Diagnostics` of a stack of states on the grid, rho and p
    (B, *shape), on their (grid, k) table: one band transform of p and one
    L_rho apply of the stack (on axis 1, so that `_dual` multiplies plainly)
    give the energies, one full-table transform of rho the spectral tails.
    Each reduction of a state runs over one contiguous row of its own, so a
    state's diagnostics are the same, bit for bit, in any stack."""
    band, size = ops.band, ops.grid.npoints
    rhodot = _lrho(band, rho[None], (band.fft(p) * band.mask)[None])[0]
    rho_rows = rho.reshape(len(rho), size)
    p_rows = p.reshape(len(p), size)
    # means as sums / size, the arithmetic of .mean() without its overhead
    energy = 0.5 * ((p_rows * rhodot.reshape(len(p), size)).sum(axis=1)
                    / size)
    return [Diagnostics(*values) for values in zip(
        (rho_rows.sum(axis=1) / size).tolist(), energy.tolist(),
        rho_rows.min(axis=1).tolist(), np.abs(p_rows).max(axis=1).tolist(),
        tail_fractions(ops, rho))]


def step_rk4(ops: Operators, y: np.ndarray, dt: float):
    """One RK4 step of y' = _rhs(ops.band, y) on the rows y (1 + m, R) of a
    state and its tangents (see `_rows`, on ops.band). Returns the new rows
    and the guard the state (row 0) failed (no longer finite, positivity
    lost, naming the last good state's spectral tail; mass drift), or None;
    tangents are not guarded. p_hat's mean mode needs no correction: it
    starts at 0 and every p_t has it 0."""
    npoints = ops.grid.npoints
    mass = y[0, :npoints].mean()
    y1 = rk4(partial(_rhs, ops.band), y, dt)
    state = y1[0]
    if not np.isfinite(state).all():
        return y1, "state is no longer finite"
    rho = state[:npoints]
    rho_min = rho.min()
    if not rho_min > 0.0:
        tail = tail_fractions(ops, _split(ops.band, y[:1])[0])[0]
        return y1, (f"positivity lost: min rho {rho_min:.3e} (the last good "
                    f"state's spectral_tail {tail:.3e})")
    drift = abs(rho.mean() - mass)
    if not drift <= MASS_DRIFT_TOL:
        return y1, f"mass drift {drift:.3e} exceeds {MASS_DRIFT_TOL}"
    return y1, None


def flow(step, y: np.ndarray, T: float, dt: float, every: int = 1):
    """The one time loop: steps y over time_steps(T, dt) by step(y, dt) ->
    (y, reason), the reason None for a good step, and yields (i, y,
    observed) with the initial y (i = 0) and after every good step i;
    observed is true at i = 0, at every `every`-th step and at the last.
    Raises SolverAbort("t=...: reason") with the time of the first failed
    step, after which nothing is yielded.

    It yields every step, observed or not, so that a consumer's last y is
    always the one the next step starts from: a consumer that keeps only
    what it observes holds no rows of its own while the flow steps."""
    if not every >= 1:
        raise ValueError(f"store_every must be >= 1, got {every}")
    n_steps, dt = time_steps(T, dt)
    yield 0, y, True
    for i in range(1, n_steps + 1):
        y, reason = step(y, dt)
        if reason is not None:
            t = i * dt
            raise SolverAbort(f"t={t:.6g}: {reason}", time=t)
        yield i, y, i % every == 0 or i == n_steps


class Record:
    """`shoot_tangents`' observer that keeps a shoot's state, row 0 of its rows
    (1 + m, R), at every step i of time_steps(T, dt) as rows[i]: one array
    (n_steps + 1, R), allocated at step 0. rows stays None for a shoot at
    rest, which takes no time loop (see `shoot_tangents`). `replay` turns
    its rows into the shoot's geodesic."""

    def __init__(self, T: float, dt: float):
        self.n_steps = time_steps(T, dt)[0]
        self.rows = None

    def __call__(self, i: int, y: np.ndarray) -> None:
        if i == 0:
            self.rows = np.empty((self.n_steps + 1, y.shape[-1]))
        self.rows[i] = y[0]


def default_dt(state: DensityState) -> float | None:
    """CFL-style default step CFL * dx / max|u|; None for a resting state."""
    u = horizontal_velocity(state)
    umax = float(np.abs(u.components).max())
    return CFL * state.grid.spacing / umax if umax != 0.0 else None


def warn_local_regime(k: int, dim: int) -> None:
    """Logs that k is in the local regime, unless k > dim / 2, the order
    above which geodesics on T^dim are global (Bauer, Joshi & Modin,
    arXiv:1702.08870): `shoot` logs it, `matching.solve_match` once per
    match, and `cli.main` lets a command log it once."""
    if not k > dim / 2:
        log.warning(
            "k=%d is in the local regime on T^%d (k <= d/2): global "
            "existence is not guaranteed and positivity loss is expected "
            "behavior", k, dim)


def shoot(rho0: ScalarField, p0: ScalarField, k: int, T: float, dt: float,
          store_every: int = 1, backward: bool = False, out=None):
    """Integrate the geodesic flow from (rho0, p0) over [0, T]: hands
    out(t, state, diagnostics) each of `snapshots`' snapshots as the flow
    reaches it, and returns out, by default a new `Trajectory`. Aborts
    propagate with the failing time attached.
    """
    out = Trajectory() if out is None else out
    for snapshot in snapshots(rho0, p0, k, T, dt, store_every, backward):
        out(*snapshot)
        del snapshot  # no state is held while the flow steps
    return out


def snapshots(rho0: ScalarField, p0: ScalarField, k: int, T: float,
              dt: float, store_every: int = 1, backward: bool = False):
    """The geodesic flow from (rho0, p0) over [0, T] as a generator of its
    snapshots (t, state, diagnostics), each yielded as the flow reaches it.

    Takes ceil(T/dt) equal steps that end exactly at T (see time_steps);
    the snapshots are those at t = 0, every store_every steps and T, each
    summarized as a stack of one (see `summarize`). Backward runs negate
    p0, integrate forward, and negate each snapshot's p back (the flow is
    time-reversible; the energy and max|p| are even in p). Aborts raise
    from the generator with the failing time attached.

    While suspended it holds the flow's current rows and p_out (see
    `prepare`), and no snapshot: each is built in a call and yielded at
    once, so a consumer that lets go of it holds no state while the flow
    steps.
    """
    check_same_grid(rho0.grid, p0.grid)
    warn_local_regime(k, rho0.grid.dim)
    # y: a list of the initial rows, popped into flow, which then holds
    # the only reference (see shoot_tangents)
    ops, *y, p_out = prepare(rho0, -p0.values if backward else p0.values, k)
    step = time_steps(T, dt)[1]
    for i, rows, observed in flow(partial(step_rk4, ops), y.pop(), T, dt,
                                  store_every):
        if observed:
            yield _snapshot(ops, p_out, rows, i * step, k, backward)


def _snapshot(ops: Operators, p_out: np.ndarray, rows: np.ndarray, t: float,
              k: int, backward: bool):
    """`snapshots`' snapshot (t, state, diagnostics) of the state in row 0
    of the rows (1, R)."""
    rho, p, (diagnostics,) = summarize(ops, p_out, rows)
    if backward:
        np.negative(p, out=p)
    return t, DensityState(ScalarField(ops.grid, rho[0].copy()),
                           ScalarField(ops.grid, p[0]), k), diagnostics


def replay(rho0: ScalarField, p0: np.ndarray, k: int, T: float, dt: float,
           rows: np.ndarray | None, height: int):
    """The geodesic of the shoot from (rho0, p0) whose state a `Record`
    kept at every step (rows None for a shoot at rest), as (times,
    diagnostics, final_state): bit for bit those of `shoot`'s `Trajectory`.

    The rows are summarized in stacks of `height` (see `summarize`), so the
    replay holds no more than such a stack; each stack passes the checks a
    `DensityState` makes, and only the final state is built as one. At
    rest RK4 keeps the initial rows exactly, so their one summary stands
    for every step."""
    ops, y, p_out = prepare(rho0, p0, k)
    n_steps, step = time_steps(T, dt)
    if rows is None:
        rho, p, diagnostics = summarize(ops, p_out, y)
        diagnostics *= n_steps + 1
    else:
        diagnostics = []
        for lo in range(0, n_steps + 1, height):
            rho, p, part = summarize(ops, p_out, rows[lo:lo + height])
            check_density(rho)
            check_finite(p, "p")
            diagnostics += part
    final_state = DensityState(ScalarField(ops.grid, rho[-1].copy()),
                               ScalarField(ops.grid, p[-1]), k)
    return np.arange(n_steps + 1) * step, diagnostics, final_state


def prepare(rho0: ScalarField, p0: np.ndarray, k: int):
    """The one preparation of a shoot from (rho0, p0): its operator table,
    its initial rows (1, R) and p_out, p0's part outside the band. The flow
    carries p's band spectrum only, so a state's p is its band part plus
    p_out, which never changes (see `summarize`)."""
    ops = operators(rho0.grid, k)
    y, p_out = _initial_rows(ops, rho0, p0, k)
    p_out -= ops.band.ifft(_split(ops.band, y[0])[1])  # p0's out of band
    return ops, y, p_out


def summarize(ops: Operators, p_out: np.ndarray, rows: np.ndarray):
    """A stack of a shoot's state rows (B, R), the rows `flow` yields or
    rows of a `Record`, as (rho, p, diagnostics): the states on
    the grid (B, *shape), rho a view of the rows and p its band part plus
    the shoot's p_out (see `prepare`), and their `diagnostics_for`. It
    does not check them: `snapshots` builds each as a `DensityState`, which
    checks itself, and `replay` checks its stacks."""
    rho, p_hat = _split(ops.band, rows)
    p = ops.band.ifft(p_hat)
    p += p_out
    return rho, p, diagnostics_for(ops, rho, p)


def shoot_tangents(rho0: ScalarField, p0: np.ndarray, dp0: np.ndarray, k: int,
                   T: float, dt: float, observe=None):
    """The shoot from (rho0, p0) and the derivatives of its final density
    along the initial momenta dp0, m >= 0 masked band spectra with the mean
    entry 0, (m, *band.mask.shape), by the linearized flow (see `_rhs`)
    stepped with the state as its rows (1 + m, R).

    The state is prepared and stepped as `shoot` prepares and steps it, so
    its endpoint is bit-identical to shoot's; only the state is guarded.
    Returns (rho_T, drho_T), (*shape) and (m, *shape); raises
    SolverAbort("t=...: reason") at the time of the state's failed step.
    Given observe, it calls observe(i, rows) at every step i.
    At rest (p0's band part 0) the linearized flow is drho_t = L_rho0 dp,
    dp_t = 0, on which RK4 is exact: drho_T is T L_rho0 dp0, one stacked
    L_rho apply with no time loop, and observe is not called.
    """
    ops = operators(rho0.grid, k)
    band = ops.band
    base = _initial_rows(ops, rho0, p0, k)[0]
    rho, p_hat = _split(band, base[0])
    if not p_hat.any():
        time_steps(T, dt)  # the same checks of T and dt
        return rho, T * _lrho(band, rho, dp0)
    del rho, p_hat
    # flow holds the only reference to the initial rows: freed at step 1
    for i, y, _ in flow(partial(step_rk4, ops), np.concatenate(
            (base, _rows(band, np.zeros((len(dp0),) + ops.grid.shape), dp0))),
            T, dt):
        if observe is not None:
            observe(i, y)
    rho_T = _split(band, y)[0]
    return rho_T[0], rho_T[1:]


def _initial_rows(ops: Operators, rho0: ScalarField, p0: np.ndarray, k: int):
    """The rows (1, R) of `make_state`'s state of (rho0, p0) on ops.band
    (see `_rows`), its p with the mean subtracted once more: the second
    subtraction removes most of the roundoff the first leaves; and that p."""
    p = make_state(rho0.grid, rho0.values, p0, k).p.values
    p -= p.mean()
    return _state_rows(ops.band, rho0.values[None], p[None]), p
