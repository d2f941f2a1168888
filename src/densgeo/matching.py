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

Every objective value comes from `_residuals`, which shoots one coefficient
row at a time, and every Jacobian from tangent stacks: the base shoot and its
tangents stepped together, at most MAX_STACK_POINTS grid points per stack,
more tangents split over several stacks. Tangents are independent given the
base, so the split does not change any value.
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


def _p_rows(problem: MatchProblem, coeff_rows: np.ndarray) -> np.ndarray:
    """Mean-zero momenta (B, *shape) of coefficient rows (B, n_coeffs)."""
    basis = basis_fields(problem.grid, problem.n_modes)
    if coeff_rows.shape[1] != len(basis):
        raise ValueError(
            f"expected {len(basis)} coefficients, got {coeff_rows.shape[1]}")
    vals = np.zeros((len(coeff_rows),) + problem.grid.shape)
    for c, b in zip(coeff_rows.T, basis):
        vals += np.multiply.outer(c, b)
    return vals - vals.mean(axis=operators(problem.grid).axes, keepdims=True)


def p_from_coeffs(problem: MatchProblem, coeffs: np.ndarray) -> ScalarField:
    return ScalarField(problem.grid,
                       _p_rows(problem, np.asarray(coeffs)[None])[0])


def _residuals(problem: MatchProblem, coeff_rows: np.ndarray):
    """(r, J, t_abort) of each coefficient row, one shoot per row
    (`geodesic.shoot_tangents` with no tangents).

    r (B, *shape) holds rho(T) - rho1, NaN on the rows of aborted shoots; J
    is 0.5 * mean(r^2), PENALTY_BASE + (T - t) where the shoot aborts at t
    (the SolverAbort's time); t_abort is NaN where the shoot reached T.
    """
    grid = problem.grid
    p = _p_rows(problem, np.asarray(coeff_rows, dtype=np.float64))
    r = np.full(p.shape, np.nan)
    t_abort = np.full(len(p), np.nan)
    no_tangents = np.empty((0,) + grid.shape)
    for i, p_row in enumerate(p):
        try:
            rho_T, _ = geodesic.shoot_tangents(problem.rho0, p_row,
                                               no_tangents, problem.k,
                                               problem.T, problem.dt)
        except geodesic.SolverAbort as exc:
            t_abort[i] = exc.time
        else:
            r[i] = rho_T - problem.rho1.values
    j = 0.5 * (r ** 2).mean(axis=operators(grid).axes)
    aborted = ~np.isnan(t_abort)
    j[aborted] = PENALTY_BASE + (problem.T - t_abort[aborted])
    return r, j, t_abort


def objectives(problem: MatchProblem, coeff_rows: np.ndarray) -> np.ndarray:
    """0.5 * ||rho(T) - rho1||_2^2 for each row of coefficients (B, n_coeffs);
    a row whose shoot aborts at t scores PENALTY_BASE + (T - t)."""
    return _residuals(problem, coeff_rows)[1]


def objective(problem: MatchProblem, coeffs: np.ndarray) -> float:
    """0.5 * ||rho(T) - rho1||_2^2; aborted shoots return a large penalty."""
    return float(objectives(problem, np.asarray(coeffs)[None])[0])


def gradient_fd(problem: MatchProblem, coeffs: np.ndarray,
                h: float = FD_STEP) -> np.ndarray:
    """Central finite-difference gradient over the stencil c +- h_i e_i,
    h_i = h * max(1, |c_i|): two shoots per coefficient.

    Raises SolverAbort, naming the coordinate, when a shoot of the stencil
    aborts: the penalty would turn into a meaningless slope of order 1/h.
    """
    if not h > 0.0:
        raise ValueError("h must be positive")
    coeffs = np.asarray(coeffs, dtype=np.float64)
    steps = h * np.maximum(1.0, np.abs(coeffs))
    _, jp, t_plus = _residuals(problem, coeffs + np.diag(steps))
    _, jm, t_minus = _residuals(problem, coeffs - np.diag(steps))
    t_abort = np.fmin(t_plus, t_minus)  # the earlier abort, NaN if none
    aborted = np.flatnonzero(~np.isnan(t_abort))
    if len(aborted):
        i = aborted[0]
        raise geodesic.SolverAbort(
            f"FD stencil of coefficient {i} (step {steps[i]:.3e}) crosses "
            f"a shoot that aborts at t={t_abort[i]:.6g}",
            time=float(t_abort[i]))
    return (jp - jm) / (2.0 * steps)


def _jacobian(problem: MatchProblem, coeffs: np.ndarray) -> np.ndarray:
    """The residual Jacobian d rho(T) / dc (n_coeffs, N) at coeffs, from
    tangent stacks of the base shoot and at most MAX_STACK_POINTS // N - 1
    (at least 1) basis fields each; the base is shot again for each stack.

    Raises SolverAbort when the base shoot aborts or a tangent is not
    finite.
    """
    grid = problem.grid
    p = _p_rows(problem, coeffs[None])[0]
    basis = _p_rows(problem, np.eye(len(coeffs)))
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


def _normal_equations(problem: MatchProblem, coeffs: np.ndarray,
                      r: np.ndarray):
    """(g, H) at coeffs, whose residual is r: the gradient Jr^T r / N of the
    mean-based objective and the Gauss-Newton matrix Jr^T Jr / N, with the
    exact Jacobian Jr (n_coeffs, N) of `_jacobian`.

    Raises SolverAbort when the Jacobian fails (`_jacobian`).
    """
    jac = _jacobian(problem, coeffs)
    npoints = jac.shape[1]
    return jac @ r.ravel() / npoints, jac @ jac.T / npoints


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
    r = (problem.rho0.values - problem.rho1.values)[None]
    axes = operators(problem.grid).axes
    history = [float(0.5 * (r ** 2).mean(axis=axes)[0])]
    rows = []
    lam = LM_LAMBDA0
    status = "max_iter"

    for it in range(opt.max_iter):
        try:
            g, hess = _normal_equations(problem, coeffs, r[0])
        except geodesic.SolverAbort:
            status = "stalled"
            break
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
                r_trial, j_trial, _ = _residuals(problem, trial[None])
                if j_trial[0] < history[-1]:
                    break
                lam *= LM_FACTOR
                rejected = trial
            else:
                status = "stalled"
        rows.append((it, history[-1], gnorm, lam))
        if status != "max_iter":
            break
        coeffs, r = trial, r_trial
        history.append(float(j_trial[0]))
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
