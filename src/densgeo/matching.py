"""Density matching by geodesic shooting.

Finds an initial momentum potential p0, parametrized by low Fourier modes,
that steers rho0 to rho1 at time T under the geodesic flow. The objective
J(c) = 0.5 * mean((rho(T; c) - rho1)^2) is a least-squares problem, solved
by Levenberg-Marquardt on the exact residual Jacobian: the tangent-linear
flow carries one tangent per basis field with the base shoot (see
`geodesic.shoot_tangents`), and at c = 0, where every match starts, the
Jacobian is T L_rho0 B and the residual rho0 - rho1, both without a
shoot. A trial step is accepted only when it lowers J, so the objective
history is monotone.

Every objective value comes from `_residual`, one shoot of one coefficient
vector, whose SolverAbort reports an abort: `objective` scores it with a
penalty, Levenberg-Marquardt rejects the trial and `gradient_fd` names the
coefficient. Every Jacobian comes from tangent stacks: a base shoot and
its tangents stepped together, at most MAX_STACK_POINTS grid points per
stack (`_per_stack` tangents). When the whole Jacobian fits in one stack,
the first trial of each Levenberg-Marquardt iteration is shot with its
tangents, and if it is accepted they are the next iteration's Jacobian;
the base ends bit for bit where a plain shoot ends, so no value changes.
`_jacobian` shoots the Jacobian only where no trial carried it: at c = 0
(without a time loop), after an iteration won by a retry, and when the
tangents need several stacks, one base shoot per stack. Tangents are
independent given the base, so the split does not change any value.

Every trial keeps its state at every step (a `geodesic.Record`), and the
match's final geodesic is the last accepted trial's record: `solve_match`
summarizes it with `geodesic.summarize`, as `geodesic.shoot` summarizes
its states, with no shoot of its own, bit for bit those of shoot from the
coefficients.
"""
from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from . import geodesic
from .spectral import (
    Grid,
    ScalarField,
    check_same_grid,
    is_integer,
    l2_norm_values,
    operators,
)

PENALTY_BASE = 1.0e6
# Levenberg-Marquardt damping: its start, the factor it falls by after an
# accepted trial and grows by after a rejected one, and the rejected trials
# in a row after which a match stalls
LM_LAMBDA0 = 1.0e-3
LM_FACTOR = 10.0
LM_MAX_TRIALS = 30
# grid points per tangent stack (the base and its tangents); bounds the
# memory of a Jacobian's shoot in 2-D
MAX_STACK_POINTS = 2 ** 14
# gradient_fd's default relative step
FD_STEP = 1.0e-5


@dataclass(frozen=True)
class OptSettings:
    max_iter: int = 200
    grad_tol: float = 1e-8

    def __post_init__(self):
        if not is_integer(self.max_iter):
            raise ValueError(
                f"max_iter must be an integer, got {self.max_iter!r}")
        if not self.max_iter >= 0:
            raise ValueError(f"max_iter must be >= 0, got {self.max_iter}")
        if not 0.0 <= self.grad_tol < np.inf:
            raise ValueError(
                f"grad_tol must be finite and >= 0, got {self.grad_tol}")


@dataclass
class MatchProblem:
    rho0: ScalarField
    rho1: ScalarField
    k: int
    T: float
    dt: float
    n_modes: int
    opt: OptSettings = field(default_factory=OptSettings)

    def __post_init__(self):
        check_same_grid(self.rho0.grid, self.rho1.grid)
        operators(self.rho0.grid, self.k)  # raises for k the grid cannot use
        for name, f in (("rho0", self.rho0), ("rho1", self.rho1)):
            geodesic.check_density(f.values, name, unit_mass=True)
        geodesic.time_steps(self.T, self.dt)
        if not is_integer(self.n_modes):
            raise ValueError(
                f"n_modes must be an integer, got {self.n_modes!r}")
        if self.n_modes < 1 or self.n_modes > self.rho0.grid.n // 3:
            raise ValueError(
                f"n_modes must lie in [1, n/3], got {self.n_modes}")

    @property
    def grid(self) -> Grid:
        return self.rho0.grid


@dataclass
class MatchResult:
    status: str  # converged | max_iter | stalled
    p0: ScalarField
    coeffs: np.ndarray
    objective_history: np.ndarray
    final_l2_mismatch: float
    # the final geodesic, p0's: its times, diagnostics and final state
    times: np.ndarray
    diagnostics: list
    final_state: geodesic.DensityState
    history_rows: list  # (iter, objective, grad_norm, lambda), history.csv


def half_space_modes(grid: Grid, n_modes: int) -> list:
    """(m, m . x) for the nonzero wave vectors m with |m_j| <= n_modes,
    one of each pair +-m.

    On T^1: m = 1..n_modes. On T^2: m1 >= 0, and m2 > 0 when m1 = 0.
    """
    if grid.dim == 1:
        modes = [(m,) for m in range(1, n_modes + 1)]
    else:
        modes = [(m1, m2) for m1 in range(0, n_modes + 1)
                 for m2 in range(-n_modes, n_modes + 1) if m1 > 0 or m2 > 0]
    return [(mode, sum(m * x for m, x in zip(mode, grid.coords)))
            for mode in modes]


def basis_fields(grid: Grid, n_modes: int) -> list:
    """Mean-zero cosine/sine basis up to n_modes per axis.

    On T^1: cos(m x), sin(m x) for m = 1..n_modes. On T^2 the same set of wave
    vectors taken over a half-space so the basis is not redundant.
    """
    out = []
    for _, phase in half_space_modes(grid, n_modes):
        out.append(np.cos(phase))
        out.append(np.sin(phase))
    return out


def p_from_coeffs(problem: MatchProblem, coeffs: np.ndarray) -> ScalarField:
    """The mean-zero momentum sum_i c_i b_i of coefficients c over
    `basis_fields`."""
    basis = basis_fields(problem.grid, problem.n_modes)
    coeffs = np.asarray(coeffs, dtype=np.float64)
    if coeffs.shape != (len(basis),):
        raise ValueError(
            f"expected {len(basis)} coefficients, got shape {coeffs.shape}")
    p = np.zeros(problem.grid.shape)
    for c, b in zip(coeffs, basis):
        p += c * b
    return ScalarField(problem.grid, p - p.mean())


def _residual(problem: MatchProblem, coeffs: np.ndarray, dp=None):
    """rho(T) - rho1 of the shoot of coeffs' momentum (`shoot_tangents`
    with no tangents). Given tangent momenta dp (m, *shape), m >= 0, the
    shoot carries them and keeps its state at every step (a
    `geodesic.Record`), and the result is (rho(T) - rho1, jac, rows): jac
    (m, N) holds the derivatives of rho(T) along dp, C-contiguous as
    `_jacobian` builds it, so that it frees the shoot's rows, and rows are
    the record's. Raises the shoot's SolverAbort, with its time."""
    tangents = np.empty((0,) + problem.grid.shape) if dp is None else dp
    record = None if dp is None else geodesic.Record(problem.T, problem.dt)
    rho_T, drho = geodesic.shoot_tangents(
        problem.rho0, p_from_coeffs(problem, coeffs).values, tangents,
        problem.k, problem.T, problem.dt, record)
    r = rho_T - problem.rho1.values
    if dp is None:
        return r
    return (r, drho.reshape(len(drho), problem.grid.npoints).copy(),
            record.rows)


def objective(problem: MatchProblem, coeffs: np.ndarray) -> float:
    """0.5 * ||rho(T) - rho1||_2^2; a shoot that aborts at t scores
    PENALTY_BASE + (T - t)."""
    try:
        r = _residual(problem, coeffs)
    except geodesic.SolverAbort as exc:
        return PENALTY_BASE + (problem.T - exc.time)
    return float(0.5 * np.mean(r ** 2))


def gradient_fd(problem: MatchProblem, coeffs: np.ndarray,
                h: float = FD_STEP) -> np.ndarray:
    """Central finite-difference gradient over the stencil c +- h_i e_i,
    h_i = h * max(1, |c_i|): two shoots per coefficient.

    Raises SolverAbort at the first coefficient whose stencil meets an
    abort, naming it and the earlier abort time of its two shoots: the
    penalty would turn into a meaningless slope of order 1/h.
    """
    if not h > 0.0:
        raise ValueError("h must be positive")
    coeffs = np.asarray(coeffs, dtype=np.float64)
    steps = h * np.maximum(1.0, np.abs(coeffs))
    grad = np.empty(len(coeffs))
    for i, shift in enumerate(np.diag(steps)):
        values, times = [], []
        for trial in (coeffs + shift, coeffs - shift):
            try:
                values.append(0.5 * np.mean(_residual(problem, trial) ** 2))
            except geodesic.SolverAbort as exc:
                times.append(exc.time)
        if times:
            raise geodesic.SolverAbort(
                f"FD stencil of coefficient {i} (step {steps[i]:.3e}) "
                f"crosses a shoot that aborts at t={min(times):.6g}",
                time=min(times))
        grad[i] = (values[0] - values[1]) / (2.0 * steps[i])
    return grad


def _basis_stack(problem: MatchProblem) -> np.ndarray:
    """The basis fields (n_coeffs, *shape), each with its mean subtracted:
    the tangent momenta of the Jacobian."""
    basis = np.array(basis_fields(problem.grid, problem.n_modes))
    basis -= basis.mean(axis=operators(problem.grid).axes, keepdims=True)
    return basis


def _per_stack(grid: Grid) -> int:
    """The tangents a stack holds beside its base: MAX_STACK_POINTS // N - 1,
    at least 1."""
    return max(1, MAX_STACK_POINTS // grid.npoints - 1)


def _carries(grid: Grid, n_coeffs: int) -> bool:
    """Whether the first trial of each iteration carries one tangent per
    basis field: when they fit one stack (`_per_stack`)."""
    return n_coeffs <= _per_stack(grid)


def _check_tangents(jac: np.ndarray) -> None:
    """Raises SolverAbort naming the first coefficient whose tangent (row
    of jac) is not finite; only a shoot's base is guarded."""
    bad = np.flatnonzero(~np.isfinite(jac).all(axis=1))
    if len(bad):
        raise geodesic.SolverAbort(
            f"the tangent of coefficient {bad[0]} is not finite")


def _jacobian(problem: MatchProblem, coeffs: np.ndarray) -> np.ndarray:
    """The residual Jacobian d rho(T) / dc (n_coeffs, N) at coeffs, from
    tangent stacks of the base shoot and at most `_per_stack` basis fields
    each; the base is shot again for each stack. At c = 0 it takes no time
    loop (see `shoot_tangents`). `solve_match` calls it where no accepted
    trial carried the Jacobian, and checks its tangents (`_check_tangents`).

    Raises SolverAbort when the base shoot aborts.
    """
    p = p_from_coeffs(problem, coeffs).values
    basis = _basis_stack(problem)
    per_stack = _per_stack(problem.grid)
    jac = np.empty((len(basis), problem.grid.npoints))
    for lo in range(0, len(basis), per_stack):
        part = slice(lo, lo + per_stack)
        _, drho = geodesic.shoot_tangents(problem.rho0, p, basis[part],
                                          problem.k, problem.T, problem.dt)
        jac[part] = drho.reshape(len(drho), -1)
    return jac


def _levenberg_marquardt(problem: MatchProblem):
    """`solve_match`'s iterations: (status, coeffs, objective history,
    history rows, record): record holds the last accepted trial's state at
    every step (the rows `_residual` returns), None while the match rests
    at rho0. Its Jacobians and the other shoots are freed when it returns."""
    opt = problem.opt
    basis = _basis_stack(problem)
    # the first trial of an iteration carries the next Jacobian's tangents
    # when they fit one stack; retries carry none
    carried = basis if _carries(problem.grid, len(basis)) else basis[:0]
    coeffs = np.zeros(len(basis))
    # the flow from p = 0 rests exactly, rho(T) = rho0: no shoot, and the
    # problem's checks are the ones a shoot makes of rho0
    r = problem.rho0.values - problem.rho1.values
    history = [float(0.5 * np.mean(r ** 2))]
    rows = []
    lam = LM_LAMBDA0
    status = "max_iter"
    jac = None  # the Jacobian at coeffs, when the accepted trial carried it
    record = None  # the accepted trial's states

    for it in range(opt.max_iter):
        try:
            if jac is None:
                jac = _jacobian(problem, coeffs)
            _check_tangents(jac)
        except geodesic.SolverAbort:
            status = "stalled"
            break
        # the gradient and the Gauss-Newton matrix of the mean-based J
        g = jac @ r.ravel() / r.size
        hess = jac @ jac.T / r.size
        jac = None
        gnorm = float(np.linalg.norm(g))
        if gnorm <= opt.grad_tol:
            status = "converged"
        else:
            rejected = None
            dp = carried
            for _ in range(LM_MAX_TRIALS):
                trial = coeffs + np.linalg.solve(
                    hess + lam * np.diag(np.diag(hess)), -g)
                if rejected is not None and np.array_equal(trial, rejected):
                    # lambda is too small to change the step, and the shoot
                    # of a repeated trial is rejected again
                    status = "stalled"
                    break
                try:
                    r_trial, jac_trial, rows_trial = _residual(
                        problem, trial, dp)
                except geodesic.SolverAbort:
                    pass  # an aborted trial is rejected
                else:
                    j_trial = float(0.5 * np.mean(r_trial ** 2))
                    if j_trial < history[-1]:
                        break
                lam *= LM_FACTOR
                rejected = trial
                dp = basis[:0]
            else:
                status = "stalled"
        rows.append((it, history[-1], gnorm, lam))
        if status != "max_iter":
            break
        coeffs, r, record = trial, r_trial, rows_trial
        if len(jac_trial):
            jac = jac_trial
        history.append(j_trial)
        lam /= LM_FACTOR
    return status, coeffs, history, rows, record


def solve_match(problem: MatchProblem) -> MatchResult:
    """Levenberg-Marquardt descent of the shooting objective from p0 = 0.

    At c = 0 the flow rests, so the first residual is rho0 - rho1 without a
    shoot. Each iteration forms the gradient g and the Gauss-Newton matrix H
    from the exact Jacobian, stops as converged when ||g|| <= grad_tol, and
    otherwise shoots the trial c + s, (H + lambda diag H) s = -g. A trial is
    accepted only when it lowers J, and lambda then falls by LM_FACTOR; a
    rejected trial, an aborted one included, raises lambda by LM_FACTOR and
    is retried. The history is monotone, so the last iterate is the best.

    When the Jacobian fits in one stack (n_coeffs <= `_per_stack`), the
    first trial of each iteration is shot with one tangent per basis field,
    and when it is accepted its tangents are the next Jacobian. Retries are
    plain shoots, so a rejection wastes at most one stack per iteration.
    `_jacobian` shoots the Jacobian at c = 0 (without a time loop), after
    an iteration won by a retry, and at every iteration when the tangents
    need several stacks. A trial's residual is the same either way.

    Ends as stalled after LM_MAX_TRIALS rejected trials in a row, when a
    trial repeats the rejected one before it (lambda has fallen so far that
    raising it no longer changes the step), or when the Jacobian fails: its
    base shoot aborts or a tangent is not finite. A stalled match returns
    the best coefficients seen, the last accepted ones.

    Every trial keeps its state at every step (a `geodesic.Record`), and
    the final geodesic, with no shoot of its own, is the last accepted
    trial's record summarized by `geodesic.summarize` in stacks as tall as
    that trial's rows (1 + the carried tangents): bit for bit
    `geodesic.shoot`'s times, diagnostics and final state from the
    coefficients. Each stack passes a `DensityState`'s checks, and only the
    final state is built as one. A match that accepted no trial rests at
    rho0. A k in {-1, 0} logs the local-regime warning once, at the start.
    """
    geodesic.warn_local_regime(problem.k)
    status, coeffs, history, rows, record = _levenberg_marquardt(problem)
    p0 = p_from_coeffs(problem, coeffs)
    ops, y, p_out = geodesic.snapshots(problem.rho0, p0.values, problem.k)
    n_steps, step = geodesic.time_steps(problem.T, problem.dt)
    if record is None:
        # the match rests, and RK4 keeps its initial rows y exactly
        rho, p, diagnostics = geodesic.summarize(ops, p_out, y)
        diagnostics *= n_steps + 1
    else:
        # a trial's rows: the state and the tangents it carries
        n = len(coeffs)
        height = 1 + n if _carries(problem.grid, n) else 1
        diagnostics = []
        for lo in range(0, n_steps + 1, height):
            rho, p, part = geodesic.summarize(ops, p_out,
                                              record[lo:lo + height])
            # the checks a DensityState makes, on the stack
            geodesic.check_density(rho)
            geodesic.check_finite(p, "p")
            diagnostics += part
    final_state = geodesic.DensityState(
        ScalarField(problem.grid, rho[-1].copy()),
        ScalarField(problem.grid, p[-1]), problem.k)
    mismatch = l2_norm_values(final_state.rho.values - problem.rho1.values)
    mismatch /= l2_norm_values(problem.rho1.values)
    return MatchResult(
        status=status,
        p0=p0,
        coeffs=coeffs,
        objective_history=np.array(history),
        final_l2_mismatch=mismatch,
        times=np.arange(n_steps + 1) * step,
        diagnostics=diagnostics,
        final_state=final_state,
        history_rows=rows,
    )
