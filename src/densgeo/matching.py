"""Density matching by geodesic shooting.

Finds an initial momentum potential p0, parametrized by low Fourier modes,
that steers rho0 to rho1 at time T under the geodesic flow. Gradients are
central finite differences of the endpoint mismatch; descent uses a
Barzilai-Borwein trial step safeguarded by backtracking line search, so the
accepted objective history is monotone.

Every objective value comes from `objectives`, which shoots a whole stack of
coefficient rows at once: a gradient is two stacked shoots, one per side of
the stencil, each split into stacks of at most MAX_STACK_POINTS grid points.
Stacked members are independent, so the split does not change any value.
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
# grid points per stacked shoot; bounds the memory of a stack in 2-D
MAX_STACK_POINTS = 2 ** 14


@dataclass(frozen=True)
class OptSettings:
    max_iter: int = 200
    grad_tol: float = 1e-8
    sufficient_decrease: float = 1e-4
    backtrack_factor: float = 0.5
    max_backtracks: int = 40
    fd_step: float = 1e-5
    init_step: float = 1.0


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
    history_rows: list  # (iter, objective, grad_norm, step) for history.csv


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


def _evaluate(problem: MatchProblem, coeff_rows: np.ndarray):
    """(J, t_abort) of each coefficient row, from stacked shoots; t_abort is
    NaN where the shoot reached T."""
    rows = np.asarray(coeff_rows, dtype=np.float64)
    j = np.empty(len(rows))
    t_abort = np.empty(len(rows))
    cap = max(1, MAX_STACK_POINTS // problem.grid.npoints)
    axes = operators(problem.grid).axes
    for lo in range(0, len(rows), cap):
        part = slice(lo, lo + cap)
        rho_T, t_abort[part] = geodesic.shoot_endpoints(
            problem.rho0, _p_rows(problem, rows[part]), problem.k, problem.T,
            problem.dt)
        diff = rho_T - problem.rho1.values
        j[part] = 0.5 * (diff ** 2).mean(axis=axes)
    aborted = ~np.isnan(t_abort)
    j[aborted] = PENALTY_BASE + (problem.T - t_abort[aborted])
    return j, t_abort


def objectives(problem: MatchProblem, coeff_rows: np.ndarray) -> np.ndarray:
    """0.5 * ||rho(T) - rho1||_2^2 for each row of coefficients (B, n_coeffs);
    a row whose shoot aborts at t scores PENALTY_BASE + (T - t)."""
    return _evaluate(problem, coeff_rows)[0]


def objective(problem: MatchProblem, coeffs: np.ndarray) -> float:
    """0.5 * ||rho(T) - rho1||_2^2; aborted shoots return a large penalty."""
    return float(objectives(problem, np.asarray(coeffs)[None])[0])


def gradient_fd(problem: MatchProblem, coeffs: np.ndarray,
                h: float | None = None) -> np.ndarray:
    """Central finite-difference gradient: one stacked shoot per side.

    Raises SolverAbort, naming the coordinate, when a shoot of the stencil
    aborts: the penalty would turn into a meaningless slope of order 1/h.
    """
    if h is None:
        h = problem.opt.fd_step
    if h <= 0.0:
        raise ValueError("h must be positive")
    coeffs = np.asarray(coeffs, dtype=np.float64)
    steps = h * np.maximum(1.0, np.abs(coeffs))
    jp, t_plus = _evaluate(problem, coeffs + np.diag(steps))
    jm, t_minus = _evaluate(problem, coeffs - np.diag(steps))
    t_abort = np.fmin(t_plus, t_minus)  # the earlier abort, NaN if none
    aborted = np.flatnonzero(~np.isnan(t_abort))
    if len(aborted):
        i = aborted[0]
        raise geodesic.SolverAbort(
            f"FD stencil of coefficient {i} (step {steps[i]:.3e}) crosses "
            f"a shoot that aborts at t={t_abort[i]:.6g}",
            time=float(t_abort[i]))
    return (jp - jm) / (2.0 * steps)


def solve_match(problem: MatchProblem) -> MatchResult:
    """Descend the shooting objective from p0 = 0; always returns best-seen.

    Ends as stalled when the line search fails or when the FD stencil of a
    gradient crosses an aborted shoot.
    """
    opt = problem.opt
    n_coeffs = len(basis_fields(problem.grid, problem.n_modes))
    coeffs = np.zeros(n_coeffs)
    history = []
    rows = []

    j = objective(problem, coeffs)
    history.append(j)
    best_coeffs = coeffs.copy()
    best_j = j
    status = "max_iter"
    prev_coeffs = None
    prev_grad = None
    step = opt.init_step

    for it in range(opt.max_iter):
        try:
            grad = gradient_fd(problem, coeffs)
        except geodesic.SolverAbort:
            status = "stalled"
            break
        gnorm = float(np.linalg.norm(grad))
        rows.append((it, j, gnorm, step))
        if gnorm <= opt.grad_tol:
            status = "converged"
            break
        if prev_grad is not None:
            s = coeffs - prev_coeffs
            y = grad - prev_grad
            sy = float(s @ y)
            yy = float(y @ y)
            if sy > 0.0 and yy > 0.0:
                step = sy / yy  # Barzilai-Borwein trial step
        prev_coeffs = coeffs.copy()
        prev_grad = grad.copy()

        accepted = False
        t = step
        for _ in range(opt.max_backtracks):
            cand = coeffs - t * grad
            jc = objective(problem, cand)
            if jc <= j - opt.sufficient_decrease * t * gnorm ** 2:
                accepted = True
                break
            t *= opt.backtrack_factor
        if not accepted:
            status = "stalled"
            break
        coeffs = cand
        j = jc
        step = t
        history.append(j)
        if j < best_j:
            best_j = j
            best_coeffs = coeffs.copy()

    p0 = p_from_coeffs(problem, best_coeffs)
    traj = geodesic.shoot(problem.rho0, p0, problem.k, problem.T, problem.dt)
    mismatch = l2_norm_values(traj.states[-1].rho.values - problem.rho1.values)
    mismatch /= l2_norm_values(problem.rho1.values)
    return MatchResult(
        status=status,
        p0=p0,
        coeffs=best_coeffs,
        objective_history=np.array(history),
        final_l2_mismatch=mismatch,
        geodesic=traj,
        history_rows=rows,
    )
