"""Density matching by geodesic shooting.

Finds an initial momentum potential p0, parametrized by low Fourier modes,
that steers rho0 to rho1 at time T under the geodesic flow. Gradients are
central finite differences of the endpoint mismatch; descent uses a
Barzilai-Borwein trial step safeguarded by backtracking line search, so the
accepted objective history is monotone.
"""
from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from . import geodesic
from .spectral import Grid, ScalarField, check_same_grid, l2_norm_values

PENALTY_BASE = 1.0e6


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


def p_from_coeffs(problem: MatchProblem, coeffs: np.ndarray) -> ScalarField:
    basis = basis_fields(problem.grid, problem.n_modes)
    if len(coeffs) != len(basis):
        raise ValueError(
            f"expected {len(basis)} coefficients, got {len(coeffs)}")
    vals = np.zeros(problem.grid.shape)
    for c, b in zip(coeffs, basis):
        vals += c * b
    return ScalarField(problem.grid, vals - vals.mean())


def _shoot_endpoint(problem: MatchProblem, coeffs: np.ndarray,
                    store_every: int = 10 ** 9):
    p0 = p_from_coeffs(problem, coeffs)
    traj = geodesic.shoot(problem.rho0, p0, problem.k, problem.T, problem.dt,
                          store_every=store_every)
    return traj.states[-1].rho, traj


def objective(problem: MatchProblem, coeffs: np.ndarray) -> float:
    """0.5 * ||rho(T) - rho1||_2^2; aborted shoots return a large penalty."""
    try:
        rho_T, _ = _shoot_endpoint(problem, coeffs)
    except geodesic.SolverAbort as exc:
        t_abort = exc.time if exc.time is not None else 0.0
        return PENALTY_BASE + (problem.T - t_abort)
    diff = rho_T.values - problem.rho1.values
    return float(0.5 * (diff ** 2).mean())


def gradient_fd(problem: MatchProblem, coeffs: np.ndarray,
                h: float | None = None) -> np.ndarray:
    """Central finite-difference gradient, one coordinate at a time."""
    if h is None:
        h = problem.opt.fd_step
    if h <= 0.0:
        raise ValueError("h must be positive")
    grad = np.zeros_like(coeffs, dtype=np.float64)
    for i in range(len(coeffs)):
        step = h * max(1.0, abs(coeffs[i]))
        cp = coeffs.copy()
        cp[i] = coeffs[i] + step
        jp = objective(problem, cp)
        cp[i] = coeffs[i] - step
        jm = objective(problem, cp)
        grad[i] = (jp - jm) / (2.0 * step)
    return grad


def solve_match(problem: MatchProblem) -> MatchResult:
    """Descend the shooting objective from p0 = 0; always returns best-seen."""
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
        grad = gradient_fd(problem, coeffs)
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
    rho_T, traj = _shoot_endpoint(problem, best_coeffs, store_every=1)
    mismatch = l2_norm_values(rho_T.values - problem.rho1.values)
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
