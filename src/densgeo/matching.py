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
coefficient. Every Jacobian comes from tangent stacks: the base shoot and
its tangents stepped together, at most MAX_STACK_POINTS grid points per
stack, more tangents split over several stacks. Tangents are independent
given the base, so the split does not change any value.
"""
from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from . import geodesic
from .spectral import (
    Grid,
    ScalarField,
    check_same_grid,
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
        if not isinstance(self.max_iter, (int, np.integer)):
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
        for name, f in (("rho0", self.rho0), ("rho1", self.rho1)):
            if not np.isfinite(f.values).all():
                raise ValueError(f"{name} must be finite")
            if not f.values.min() > 0.0:
                raise ValueError(f"{name} must be strictly positive")
            if not abs(f.values.mean() - 1.0) <= geodesic.MASS_TOL:
                raise ValueError(f"{name} must have unit mass")
        geodesic.time_steps(self.T, self.dt)
        if not isinstance(self.n_modes, (int, np.integer)):
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
    geodesic: geodesic.Trajectory
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


def _residual(problem: MatchProblem, coeffs: np.ndarray) -> np.ndarray:
    """rho(T) - rho1 of the shoot of coeffs' momentum (`shoot_tangents`
    with no tangents). Raises the shoot's SolverAbort, with its time."""
    rho_T, _ = geodesic.shoot_tangents(
        problem.rho0, p_from_coeffs(problem, coeffs).values,
        np.empty((0,) + problem.grid.shape), problem.k, problem.T, problem.dt)
    return rho_T - problem.rho1.values


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


def _jacobian(problem: MatchProblem, coeffs: np.ndarray) -> np.ndarray:
    """The residual Jacobian d rho(T) / dc (n_coeffs, N) at coeffs, from
    tangent stacks of the base shoot and at most MAX_STACK_POINTS // N - 1
    (at least 1) basis fields each; the base is shot again for each stack.

    Raises SolverAbort when the base shoot aborts or a tangent is not
    finite.
    """
    grid = problem.grid
    p = p_from_coeffs(problem, coeffs).values
    basis = np.array(basis_fields(grid, problem.n_modes))
    basis -= basis.mean(axis=operators(grid).axes, keepdims=True)
    per_stack = max(1, MAX_STACK_POINTS // grid.npoints - 1)
    jac = np.empty((len(basis), grid.npoints))
    for lo in range(0, len(basis), per_stack):
        part = slice(lo, lo + per_stack)
        _, drho = geodesic.shoot_tangents(problem.rho0, p, basis[part],
                                          problem.k, problem.T, problem.dt)
        jac[part] = drho.reshape(len(drho), -1)
    bad = np.flatnonzero(~np.isfinite(jac).all(axis=1))
    if len(bad):
        raise geodesic.SolverAbort(
            f"the tangent of coefficient {bad[0]} is not finite")
    return jac


def solve_match(problem: MatchProblem) -> MatchResult:
    """Levenberg-Marquardt descent of the shooting objective from p0 = 0.

    At c = 0 the flow rests, so the first residual is rho0 - rho1 without a
    shoot. Each iteration forms the gradient g and the Gauss-Newton matrix H
    from the exact Jacobian (`_jacobian`; at c = 0 without a shoot), stops as
    converged when ||g|| <= grad_tol, and otherwise shoots the trial c + s,
    (H + lambda diag H) s = -g. A trial is accepted only when it lowers J,
    and lambda then falls by LM_FACTOR; a rejected trial, an aborted one
    included, raises lambda by LM_FACTOR and is retried. The history is
    monotone, so the last iterate is the best.

    Ends as stalled after LM_MAX_TRIALS rejected trials in a row, when a
    trial repeats the rejected one before it (lambda has fallen so far that
    raising it no longer changes the step), or when the Jacobian fails: its
    base shoot aborts or a tangent is not finite. A stalled match returns
    the best coefficients seen, the last accepted ones.
    """
    opt = problem.opt
    n_coeffs = len(basis_fields(problem.grid, problem.n_modes))
    coeffs = np.zeros(n_coeffs)
    # the flow from p = 0 rests exactly, rho(T) = rho0: no shoot, and the
    # problem's checks are the ones a shoot makes of rho0
    r = problem.rho0.values - problem.rho1.values
    history = [float(0.5 * np.mean(r ** 2))]
    rows = []
    lam = LM_LAMBDA0
    status = "max_iter"

    for it in range(opt.max_iter):
        try:
            jac = _jacobian(problem, coeffs)
        except geodesic.SolverAbort:
            status = "stalled"
            break
        # the gradient and the Gauss-Newton matrix of the mean-based J
        g = jac @ r.ravel() / r.size
        hess = jac @ jac.T / r.size
        gnorm = float(np.linalg.norm(g))
        if gnorm <= opt.grad_tol:
            status = "converged"
        else:
            rejected = None
            for _ in range(LM_MAX_TRIALS):
                trial = coeffs + np.linalg.solve(
                    hess + lam * np.diag(np.diag(hess)), -g)
                if rejected is not None and np.array_equal(trial, rejected):
                    # lambda is too small to change the step, and the shoot
                    # of a repeated trial is rejected again
                    status = "stalled"
                    break
                try:
                    r_trial = _residual(problem, trial)
                except geodesic.SolverAbort:
                    pass  # an aborted trial is rejected
                else:
                    j_trial = float(0.5 * np.mean(r_trial ** 2))
                    if j_trial < history[-1]:
                        break
                lam *= LM_FACTOR
                rejected = trial
            else:
                status = "stalled"
        rows.append((it, history[-1], gnorm, lam))
        if status != "max_iter":
            break
        coeffs, r = trial, r_trial
        history.append(j_trial)
        lam /= LM_FACTOR

    p0 = p_from_coeffs(problem, coeffs)
    traj = geodesic.shoot(problem.rho0, p0, problem.k, problem.T, problem.dt)
    mismatch = l2_norm_values(traj.states[-1].rho.values - problem.rho1.values)
    mismatch /= l2_norm_values(problem.rho1.values)
    return MatchResult(
        status=status,
        p0=p0,
        coeffs=coeffs,
        objective_history=np.array(history),
        final_l2_mismatch=mismatch,
        geodesic=traj,
        history_rows=rows,
    )
