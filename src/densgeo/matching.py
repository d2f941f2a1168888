"""Density matching by geodesic shooting.

Finds an initial momentum potential p0, parametrized by low Fourier modes
placed straight on the band spectrum the flow carries (`momentum_hat`),
that steers rho0 to rho1 at time T under the geodesic flow. The objective
J(c) = 0.5 * mean((rho(T; c) - rho1)^2) is a least-squares problem, solved
by Levenberg-Marquardt on the exact residual Jacobian: the tangent-linear
flow carries one tangent per coefficient with the base shoot (see
`geodesic.shoot_tangents`), and at c = 0, where every match starts, the
Jacobian is T L_rho0 P (P the coefficients' unit placements) and the
residual rho0 - rho1, both without a shoot. A trial step is accepted only
when it lowers J, so the objective history is monotone.

Every objective value comes from `_residual`, one shoot of one coefficient
vector, whose SolverAbort reports an abort: `objective` and the exact
gradient `objective_gradient` raise it, and Levenberg-Marquardt rejects the
trial. Every Jacobian comes from tangent stacks: a base shoot and at most
`_per_stack` tangents stepped together, the base ending bit for bit where a
plain shoot ends. Tangents are independent given the base, so how they are
split into stacks changes no value. `solve_match` says which shoots carry
them, and how the final geodesic is replayed from the record of the last
accepted trial.
"""
from __future__ import annotations

from dataclasses import dataclass, field
from functools import lru_cache

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

# Levenberg-Marquardt damping: its start, the factor it falls by after an
# accepted trial and grows by after a rejected one, and the rejected trials
# in a row after which a match stalls
LM_LAMBDA0 = 1.0e-3
LM_FACTOR = 10.0
LM_MAX_TRIALS = 30
# grid points per tangent stack (the base and its tangents); bounds the
# memory of a Jacobian's shoot in 2-D
MAX_STACK_POINTS = 2 ** 14
# the values of an iteration's history row, in order: history.csv's header
HISTORY_COLUMNS = ("iter", "objective", "grad_norm", "lambda")


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
    history_rows: list  # HISTORY_COLUMNS of each iteration, history.csv


def half_space_modes(grid: Grid, n_modes: int) -> np.ndarray:
    """The nonzero wave vectors m (count, dim) with |m_j| <= n_modes, one of
    each pair +-m: m = 1..n_modes on T^1; on T^2 m1 >= 0, and m2 > 0 when
    m1 = 0. In lexicographic order they are the half after m = 0."""
    r = np.arange(-n_modes, n_modes + 1)
    modes = np.stack(np.meshgrid(*[r] * grid.dim, indexing="ij"), axis=-1)
    return modes.reshape(-1, grid.dim)[len(r) ** grid.dim // 2 + 1:]


def n_coeffs(grid: Grid, n_modes: int) -> int:
    """The number of coefficients, two per `half_space_modes` wave vector."""
    return (2 * n_modes + 1) ** grid.dim - 1


@lru_cache(maxsize=None)
def _placement(grid: Grid, n_modes: int):
    """(pair, sign, flat): entry flat of the flattened band spectrum is at
    sign m, m the pair-th of `half_space_modes`: the band holds m2 >= 0, so
    m2 < 0 is held at -m, and on T^2's column m2 = 0 both m and -m are."""
    modes = half_space_modes(grid, n_modes)
    pair = np.r_[:len(modes), np.flatnonzero(modes[:, -1] == 0)]
    sign = np.where((np.arange(len(pair)) >= len(modes))
                    | (modes[pair, -1] < 0), -1, 1)
    return pair, sign, np.ravel_multi_index(  # m1 < 0 wraps to n + m1
        tuple((sign[:, None] * modes[pair]).T),
        operators(grid).band.mask.shape, mode="wrap")


def momentum_hat(grid: Grid, n_modes: int, coeffs: np.ndarray) -> np.ndarray:
    """The band spectra (..., *band.mask.shape) of the momenta of the
    coefficients (..., n_coeffs): 2i is cos(m_i . x) and 2i + 1 sin(m_i . x),
    m_i the i-th of `half_space_modes`, n_modes <= n/3. In numpy's layout
    a pair (a, b) is the entry (N/2)(a - i b) at m_i, its conjugate at -m_i
    (see `_placement`): no transform."""
    pair, sign, flat = _placement(grid, n_modes)
    lead, shape = coeffs.shape[:-1], operators(grid).band.mask.shape
    out = np.zeros(lead + (np.prod(shape),), complex)
    out[..., flat] = (grid.npoints / 2.0) * (
        coeffs[..., 2 * pair] - 1j * sign * coeffs[..., 2 * pair + 1])
    return out.reshape(lead + shape)


def p_from_coeffs(problem: MatchProblem, coeffs: np.ndarray) -> ScalarField:
    """The mean-zero momentum p0 of coefficients c on the grid: the band
    inverse transform of `momentum_hat`."""
    coeffs = np.asarray(coeffs, dtype=np.float64)
    n = n_coeffs(problem.grid, problem.n_modes)
    if coeffs.shape != (n,):
        raise ValueError(
            f"expected {n} coefficients, got shape {coeffs.shape}")
    return ScalarField(problem.grid, operators(problem.grid).band.ifft(
        momentum_hat(problem.grid, problem.n_modes, coeffs)))


def _tangents(problem: MatchProblem, lo: int, hi: int) -> np.ndarray:
    """The band spectra of the unit coefficient vectors e_lo .. e_(hi-1):
    the tangent momenta of the Jacobian's rows lo .. hi - 1."""
    return momentum_hat(problem.grid, problem.n_modes, np.eye(
        hi - lo, n_coeffs(problem.grid, problem.n_modes), lo))


def _residual(problem: MatchProblem, coeffs: np.ndarray, dp=None):
    """(rho(T) - rho1, jac, rows) of the shoot of coeffs' momentum, which
    carries m >= 0 tangent momenta dp (see `_tangents`; none by default):
    the one residual of `objective`, `objective_gradient` and
    Levenberg-Marquardt's trials. jac (m, N) holds the derivatives of rho(T)
    along dp, C-contiguous as `_jacobian` builds it, so that it frees the
    shoot's rows. Given dp the shoot records its state at every step, and
    rows are that record (see `geodesic.shoot_tangents`); else rows is None.
    Raises the shoot's SolverAbort, with its time."""
    rho_T, drho, rows = geodesic.shoot_tangents(
        problem.rho0, p_from_coeffs(problem, coeffs).values,
        _tangents(problem, 0, 0) if dp is None else dp, problem.k,
        problem.T, problem.dt, record=dp is not None)
    return (rho_T - problem.rho1.values,
            drho.reshape(len(drho), problem.grid.npoints).copy(), rows)


def objective(problem: MatchProblem, coeffs: np.ndarray) -> float:
    """J(c) = 0.5 * mean((rho(T) - rho1)^2). Raises the shoot's SolverAbort,
    with its time."""
    return float(0.5 * np.mean(_residual(problem, coeffs)[0] ** 2))


def _per_stack(grid: Grid) -> int:
    """The tangents a stack holds beside its base: MAX_STACK_POINTS // N - 1,
    at least 1."""
    return max(1, MAX_STACK_POINTS // grid.npoints - 1)


def _carries(grid: Grid, n: int) -> bool:
    """Whether the first trial of each iteration carries the tangents of
    all n coefficients: when they fit one stack (`_per_stack`)."""
    return n <= _per_stack(grid)


def _check_tangents(jac: np.ndarray) -> None:
    """Raises SolverAbort naming the first coefficient whose tangent (row
    of jac) is not finite; only a shoot's base is guarded."""
    bad = np.flatnonzero(~np.isfinite(jac).all(axis=1))
    if len(bad):
        raise geodesic.SolverAbort(
            f"the tangent of coefficient {bad[0]} is not finite")


def _jacobian(problem: MatchProblem, coeffs: np.ndarray) -> np.ndarray:
    """The residual Jacobian d rho(T) / dc (n_coeffs, N) at coeffs, from
    tangent stacks of the base shoot and at most `_per_stack` `_tangents`
    each; the base is shot again for each stack. At c = 0 it takes no time
    loop (see `shoot_tangents`). `solve_match` calls it where no accepted
    trial carried the Jacobian, and `objective_gradient` always; both check
    its tangents (`_check_tangents`).

    Raises SolverAbort when the base shoot aborts.
    """
    p = p_from_coeffs(problem, coeffs).values
    n, per_stack = len(coeffs), _per_stack(problem.grid)
    jac = np.empty((n, problem.grid.npoints))
    for lo in range(0, n, per_stack):
        hi = min(n, lo + per_stack)
        _, drho, _ = geodesic.shoot_tangents(
            problem.rho0, p, _tangents(problem, lo, hi), problem.k,
            problem.T, problem.dt)
        jac[lo:hi] = drho.reshape(hi - lo, -1)
    return jac


def objective_gradient(problem: MatchProblem,
                       coeffs: np.ndarray) -> np.ndarray:
    """The exact gradient of `objective`, Jr r / N: r the residual and Jr
    the residual Jacobian Levenberg-Marquardt steps on (`_jacobian`). Raises
    the shoot's SolverAbort, with its time, and a SolverAbort naming the
    first coefficient whose tangent is not finite."""
    r = _residual(problem, coeffs)[0]
    jac = _jacobian(problem, coeffs)
    _check_tangents(jac)
    return jac @ r.ravel() / r.size


def _levenberg_marquardt(problem: MatchProblem):
    """`solve_match`'s iterations: (status, coeffs, objective history,
    history rows, record): record holds the last accepted coefficients'
    state at every step (the rows `_residual` returns), None while the
    match rests at rho0. At most one record is alive at a time: an
    iteration drops the accepted record before its trials, and one that
    stalls there shoots the accepted coefficients again for it. Its
    Jacobians and the other shoots are freed when it returns."""
    opt = problem.opt
    n = n_coeffs(problem.grid, problem.n_modes)
    # the first trial of an iteration carries the next Jacobian's tangents
    # when they fit one stack; retries carry none
    carried = _tangents(problem, 0, n if _carries(problem.grid, n) else 0)
    coeffs = np.zeros(n)
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
            accepted, record = record is not None, None
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
                    r_trial, jac_trial, record = _residual(problem, trial, dp)
                except geodesic.SolverAbort:
                    pass  # an aborted trial is rejected
                else:
                    j_trial = float(0.5 * np.mean(r_trial ** 2))
                    if j_trial < history[-1]:
                        break
                    record = None
                lam *= LM_FACTOR
                rejected = trial
                dp = carried[:0]
            else:
                status = "stalled"
            if status == "stalled" and accepted:
                # a plain shoot: its state rows are the carried trial's
                record = _residual(problem, coeffs, carried[:0])[2]
        rows.append((it, history[-1], gnorm, lam))
        if status != "max_iter":
            break
        coeffs, r = trial, r_trial
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
    first trial of each iteration is shot with one tangent per coefficient,
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

    Every trial records its state at every step (`shoot_tangents`), and
    the final geodesic is the last accepted trial's record (shot again,
    plainly, when the trials stall; see `_levenberg_marquardt`), replayed
    by `geodesic.replay` in stacks as tall as a carrying trial's rows
    (1 + the carried tangents). A match that accepted no trial rests at
    rho0. A k that is not above d/2 logs the local-regime warning once, at
    the start.
    """
    geodesic.warn_local_regime(problem.k, problem.grid.dim)
    status, coeffs, history, rows, record = _levenberg_marquardt(problem)
    p0 = p_from_coeffs(problem, coeffs)
    # a trial's rows: the state and the tangents it carries
    n = len(coeffs)
    times, diagnostics, final_state = geodesic.replay(
        problem.rho0, p0.values, problem.k, problem.T, problem.dt, record,
        1 + n if _carries(problem.grid, n) else 1)
    mismatch = l2_norm_values(final_state.rho.values - problem.rho1.values)
    mismatch /= l2_norm_values(problem.rho1.values)
    return MatchResult(
        status=status,
        p0=p0,
        coeffs=coeffs,
        objective_history=np.array(history),
        final_l2_mismatch=mismatch,
        times=times,
        diagnostics=diagnostics,
        final_state=final_state,
        history_rows=rows,
    )
