"""EPDiff flow on Diff(T^d) and its projection to densities.

This is the cross-validation side: geodesics of the right-invariant metric with
inertia operator A = (1 - Laplacian)^(k+1), integrated in Eulerian momentum
form. Horizontal initial momenta m = rho0 grad p project onto density
geodesics, which the geodesic module computes independently: the flow map phi
projects to the pushforward phi_* rho0 = (rho0 o psi) det(I + grad q), where
psi = phi^{-1} = x + q.

So the flow carries the inverse map and the density rather than phi. Both are
transported by u on the grid, q_t = -u - (u.grad) q and f_t = -u.grad f for
f = rho0 o psi, next to EPDiff for u: spectral derivatives and grid products
only, with no evaluation off the grid and no inversion. This is the standard
LDDMM device (Beg, Miller, Trouve & Younes, IJCV 2005; Vialard, Risser,
Rueckert & Cotter, IJCV 2012).

u_t = -Ainv_band(...) is band-limited, so the flow carries u as its band
spectrum, as the geodesic flow carries p: it steps one real row of q and f on
the grid and u's spectrum on the `Band` columns (`_rows`). A right-hand side
takes u, m = Au and their gradients from that spectrum in two inverse
transforms and returns u_t as a spectrum; q and f stay on the grid, where
their transport needs the full half spectrum. u0 must be band-limited (to
roundoff), and each state handed out gets its physical u back by one
inverse transform.

A `DiffeoState` checks its invariants when it is built, and `_flow_step`
stops the flow at the first step that breaks them or folds the map.

`cross_validate` compares the two flows. The density flow runs beside
EPDiff in a forked worker process where it can (see `_rest_of`), which
streams the compared snapshots through a pipe.
"""
from __future__ import annotations

import os
import pickle
import signal
import sys
import threading
from contextlib import contextmanager
from dataclasses import dataclass
from functools import partial
from itertools import starmap

import numpy as np

from . import geodesic
from .geodesic import (
    SolverAbort,
    StateError,
    check_density,
    check_finite,
    flow,
    rk4,
    time_steps,
)
from .spectral import (
    Band,
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
    """Inverse flow map psi(x) = x + q(x), the transported density factor
    f = rho0 o psi and the Eulerian velocity u of metric order k, checked when
    built: q and u finite, f finite and positive, k an order the grid takes."""

    q: VectorField
    f: ScalarField
    u: VectorField
    k: int

    def __post_init__(self):
        check_same_grid(self.q.grid, self.f.grid)
        check_same_grid(self.q.grid, self.u.grid)
        check_finite(self.q.components, "q")
        check_finite(self.u.components, "u")
        check_density(self.f.values, "f")
        operators(self.grid, self.k)

    @property
    def grid(self) -> Grid:
        return self.q.grid


N_CHECKS = 11  # cross_validate's comparison times, about evenly spaced
BAND_RTOL = 1e-12  # u0's largest mode outside the band, relative: roundoff


def identity_state(rho0: ScalarField, u: VectorField, k: int) -> DiffeoState:
    """The identity map carrying the density rho0, with velocity u; rho0 is
    checked here, so that its StateError names it."""
    check_density(rho0.values, "rho0")
    return DiffeoState(VectorField(u.grid, np.zeros_like(u.components)), rho0,
                       u, k)


def _field_and_grad(band: Operators | Band, v_hat: np.ndarray):
    """v (dim, *shape) and grad v (dim, dim, *shape), grad v[i, j] = d_j v_i,
    on the grid from v's band spectrum v_hat: one inverse transform of the
    stack [v_hat, ik v_hat], whose ik v_hat dies in the concatenation and
    which the transform lets go of after its first pass. Both are views of
    one array, which lives while either does."""
    dim = band.grid.dim
    out = band.ifft(np.concatenate((v_hat, (band.ik * v_hat[band.vec]).reshape(
        (dim * dim,) + band.mask.shape))))
    return out[:dim], out[dim:].reshape((dim, dim) + band.grid.shape)


def _epdiff_rhs(band: Operators | Band, u_hat: np.ndarray):
    """u on the grid and the band spectrum of EPDiff's
    u_t = -Ainv{(u.grad)m + (div u)m + (grad u)^T m}, m = Au, dealiased,
    from u's band spectrum u_hat. u, m and their gradients come from u_hat
    in two inverse transforms, and u_t stays a spectrum: one forward
    transform in all.

    m's stack is transformed first, so that its spectrum a u_hat, a
    temporary, is gone before u's stack is made. Each product is formed in
    place in the stack it reads, once the values it overwrites are used no
    further: u_j d_j m_i in grad m, m_i d_j u_i in grad u, (div u) m in m.
    The sum, in the order (conv + (div u) m) + stretch, accumulates in one
    new array. m's stack dies after the sum's second term and u's after its
    third, before the forward transform; the u returned is a copy that pins
    no grad u."""
    dim = band.grid.dim
    m, dm = _field_and_grad(band, band.a_band * u_hat)
    u, du = _field_and_grad(band, u_hat)
    dm *= u  # dm[i, j] = u_j d_j m_i
    total = dm.sum(axis=1)  # conv
    divu = sum(du[j, j] for j in range(dim))
    du *= m[:, None]  # du[i, j] = m_i d_j u_i
    m *= divu
    total += m
    del m, dm  # m's stack dies
    total += du.sum(axis=0)  # stretch
    del du
    u = u.copy()  # u's stack dies
    ut_hat = band.fft(total)
    ut_hat *= band.ainv_band
    return u, np.negative(ut_hat, out=ut_hat)


def jacobian_det(grid: Grid, q) -> np.ndarray:
    """det(I + grad q) on the grid (spectral derivatives)."""
    d = operators(grid).grad(np.asarray(q))  # d[i, j] = d_j q_i
    if grid.dim == 1:
        return 1.0 + d[0, 0]
    return (1.0 + d[0, 0]) * (1.0 + d[1, 1]) - d[0, 1] * d[1, 0]


def _rows(qf: np.ndarray, u_hat: np.ndarray) -> np.ndarray:
    """The row the flow steps: the grid values of q and f, stacked as qf
    (dim + 1, *shape), then u's band spectrum u_hat viewed as reals, as
    `geodesic._rows` lays out a density state."""
    return np.concatenate((qf.ravel(), u_hat.view(np.float64).ravel()))


def _split(band: Operators | Band, y: np.ndarray):
    """Views (qf, u_hat) of a row y built by `_rows`."""
    grid = band.grid
    cut = (grid.dim + 1) * grid.npoints
    return (y[:cut].reshape((grid.dim + 1,) + grid.shape),
            y[cut:].view(np.complex128).reshape(
                (grid.dim,) + band.mask.shape))


def _initial_row(ops: Operators, state0: DiffeoState) -> np.ndarray:
    """The row (see `_rows`) of an initial state whose u is band-limited;
    the state checked the rest when it was built. u_t is band-limited, so
    the flow can carry u as its band spectrum only if u0 is too; u0's part
    outside the band must be roundoff, and only that is cut."""
    q, f, u = state0.q.components, state0.f.values, state0.u.components
    u_hat = ops.fft(u)
    size = np.abs(u_hat)
    outside, largest = size[..., ~ops.mask].max(), size.max()
    if not outside <= BAND_RTOL * largest:
        raise StateError(
            f"u not band-limited: its largest mode outside the 2/3-rule band "
            f"is {outside / largest:.3e} of its largest mode (dealias it "
            "first)")
    band = ops.band
    return _rows(np.concatenate((q, f[None])), u_hat[band.cols] * band.mask)


def _flow_rhs(ops: Operators, y: np.ndarray) -> np.ndarray:
    """d/dt of the row y = (q, f, u_hat) (see `_rows`): -u - (u.grad) q and
    -u.grad f on the grid, and EPDiff's u_t as a band spectrum. 5 numpy
    transform calls in 1-D, 10 in 2-D.

    Of EPDiff's fields only u (dim, *shape) and u_t's spectrum outlive
    `_epdiff_rhs`; the gradient of q and f, (dim + 1, dim, *shape), is taken
    after it, multiplied by u in place and dies in its sum."""
    dim = ops.grid.dim
    qf, u_hat = _split(ops.band, y)
    u, ut_hat = _epdiff_rhs(ops.band, u_hat)
    adv = ops.grad(qf)
    adv *= u  # adv[i, j] = u_j d_j of q_i and f
    adv = adv.sum(axis=1)  # (u.grad) of q and f
    adv[:dim] += u
    return _rows(np.negative(adv, out=adv), ut_hat)


def _flow_step(ops: Operators, y: np.ndarray, dt: float):
    """One RK4 step of _flow_rhs; it fails when the row stops being finite,
    the inverse map a grid-resolved diffeomorphism or f positive. A step
    that overflows says so through the finiteness check alone (see `rk4`)."""
    y = rk4(partial(_flow_rhs, ops), y, dt)
    if not np.isfinite(y).all():
        return y, "state is no longer finite"
    qf = _split(ops.band, y)[0]
    jac = jacobian_det(ops.grid, qf[:-1]).min()
    if not jac > 0.0:
        return y, f"Jacobian lost positivity (min {jac:.3e})"
    f_min = qf[-1].min()
    if not f_min > 0.0:
        return y, f"f lost positivity (min {f_min:.3e})"
    return y, None


def integrate_epdiff(state0: DiffeoState, T: float, dt: float,
                     store_every: int = 1, out=None):
    """RK4 on the coupled system (transport of q and f by u, EPDiff for u).

    Takes ceil(T/dt) equal steps that end exactly at T and hands out(t,
    state) each state at t = 0, every store_every steps and T as the flow
    reaches it; returns out or, without out, the list of those (t, state).
    Raises StateError for an initial u that is not band-limited (see
    `_initial_row`), and aborts at the first step that fails `_flow_step`.

    The flow holds its rows only: state0 is let go of once its row is
    built, so its q, and f and u unless the caller keeps them, die before
    the time loop, and the initial row goes to `flow` through a popped
    list, dying after the first step (as in `geodesic.snapshots`). A step
    holds RK4's 3 rows and its right-hand side's temporaries (see
    `_epdiff_rhs` and `_flow_rhs`).
    """
    grid, k, dim = state0.grid, state0.k, state0.grid.dim
    ops = operators(grid, k)
    band = ops.band
    step = time_steps(T, dt)[1]
    row = [_initial_row(ops, state0)]
    del state0
    states = []
    sink = (lambda t, s: states.append((t, s))) if out is None else out
    for i, y, observed in flow(partial(_flow_step, ops), row.pop(), T, dt,
                               store_every):
        if observed:
            qf, u_hat = _split(band, y)
            sink(i * step, DiffeoState(VectorField(grid, qf[:dim].copy()),
                                       ScalarField(grid, qf[dim].copy()),
                                       VectorField(grid, band.ifft(u_hat)),
                                       k))
            del qf, u_hat  # views that would pin y through the next step
    return states if out is None else out


def pushforward_density(phi: DiffeoState) -> ScalarField:
    """The projection phi_* rho0 = f det(I + grad q), normalized to unit mass.

    rho0 is the density the flow started from (`identity_state`), carried
    as f. Raises SolverAbort when det(I + grad q) is not positive: the map
    is not a diffeomorphism, and its "density" would not be one.
    """
    jac = jacobian_det(phi.grid, phi.q.components)
    if not jac.min() > 0.0:
        raise SolverAbort(f"Jacobian not positive (min {jac.min():.3e})")
    vals = phi.f.values * jac
    return ScalarField(phi.grid, vals / vals.mean())


def horizontality_defect(u: VectorField, rho: ScalarField, k: int) -> float:
    """L2 norm of the divergence-free Hodge component of w = (1/rho) Au,
    summed over the modes that have no Nyquist component on any axis."""
    grid = u.grid
    check_same_grid(grid, rho.grid)
    check_density(rho.values, "rho")
    check_finite(u.components, "u")
    ops = operators(grid, k)
    what = ops.fft(ops.apply(ops.a, u.components) / rho.values)
    # the gradient part k (k.w) / |k|^2 on ik's wave vectors, zero on the
    # divergence-free constant mode. ik zeroes every Nyquist component, so
    # the modes with one are left out; on the rest the summand is the same
    # on each mode and its mirror, and the weighted half spectrum sums the
    # full one.
    kvec = ops.ik.imag
    ksq = (kvec ** 2).sum(axis=0)
    grad_part = kvec * (kvec * what).sum(axis=0) / np.where(ksq > 0.0, ksq, 1.0)
    sq = (np.abs(what - grad_part) ** 2).sum(axis=0) * ops.weight
    sq = sq[(np.abs(ops.k_mesh) < grid.n // 2).all(axis=0)].sum()
    return float(np.sqrt(sq)) / grid.npoints


def epdiff_energy(u: VectorField, k: int) -> float:
    """Right-invariant energy 0.5 * <Au, u> (conserved along EPDiff
    solutions); for the horizontal u = Ainv(rho grad p) of a density state
    it is the state's energy 0.5 * <p, L_rho p>."""
    check_finite(u.components, "u")
    ops = operators(u.grid, k)
    total = 0.0
    for au, c in zip(ops.apply(ops.a, u.components), u.components):
        total += float((au * c).mean())
    return 0.5 * total


def check_order(k: int) -> None:
    """The cross-check's rule for the metric order: raises ValueError
    unless k >= 0."""
    if not k >= 0:
        raise ValueError(f"EPDiff cross validation requires k >= 0, got {k}")


def _reduced(t: float, state: geodesic.DensityState, diagnostics) -> tuple:
    """What the cross-check compares of a density snapshot (t, state,
    diagnostics): (rho, energy)."""
    return state.rho.values, diagnostics.energy


def _stream(density, pipe) -> None:
    """The density worker's body: pickles into the binary file `pipe` each
    snapshot left in the density flow `density` (a `geodesic.snapshots`
    generator), reduced (see `_reduced`) and flushed at once, and then how
    the flow ended: None when it reached T, its SolverAbort (the message
    and .time) when it aborted. It holds the flow's rows and p_out, and
    one snapshot while pickling it."""
    try:
        for snapshot in density:
            pickle.dump(_reduced(*snapshot), pipe, pickle.HIGHEST_PROTOCOL)
            del snapshot  # not held while the flow steps
            pipe.flush()
    except SolverAbort as exc:
        pickle.dump(exc, pipe)
    else:
        pickle.dump(None, pipe)


def _received(pipe):
    """The reduced snapshots (rho, energy) that `_stream` pickled into the
    binary file `pipe`, as a generator that ends as the density flow did:
    it returns at the flow's end, raises its SolverAbort, and raises
    RuntimeError when the stream ends without saying how the flow did."""
    while True:
        try:
            message = pickle.load(pipe)
        except EOFError:
            raise RuntimeError("the density flow's worker ended without "
                               "its final message") from None
        if message is None:
            return
        if isinstance(message, SolverAbort):
            raise message
        yield message


@contextmanager
def _rest_of(density):
    """The reduced snapshots (rho, energy) left in the density flow
    `density`, a `geodesic.snapshots` generator, as an iterator that raises
    the flow's SolverAbort as the generator does.

    Where os.fork exists and no other Python thread runs, a forked worker
    steps the flow beside the caller (see `_stream`) and streams them
    through a pipe, one per message: the caller's copy of the flow dies
    here, and `_received` reads one snapshot per next. Else the generator
    is iterated in process. Standard output and error are flushed before
    the fork, so that the worker inherits no unwritten output; the worker
    ignores SIGINT, writes only to the pipe and leaves by os._exit. On
    leaving, however it is left, the pipe's read end is closed and the
    worker killed and reaped, so that a worker blocked on a full pipe
    cannot hold the caller."""
    if not hasattr(os, "fork") or threading.active_count() > 1:
        yield starmap(_reduced, density)
        return
    for stream in (sys.stdout, sys.stderr):
        if stream is not None:
            stream.flush()
    read, write = os.pipe()
    # an interrupt waits until the worker ignores it and the parent can
    # reap the worker
    mask = signal.pthread_sigmask(signal.SIG_BLOCK, {signal.SIGINT})
    try:
        pid = os.fork()
    except OSError:
        signal.pthread_sigmask(signal.SIG_SETMASK, mask)
        os.close(read)
        os.close(write)
        raise
    if pid == 0:  # the worker; the parent learns of a failure from the pipe
        try:
            signal.signal(signal.SIGINT, signal.SIG_IGN)
            signal.pthread_sigmask(signal.SIG_SETMASK, mask)
            os.close(read)
            with open(write, "wb") as pipe:
                _stream(density, pipe)
        finally:
            os._exit(0)
    del density
    try:
        os.close(write)
        with open(read, "rb") as pipe:
            signal.pthread_sigmask(signal.SIG_SETMASK, mask)
            yield _received(pipe)
    finally:
        os.kill(pid, signal.SIGKILL)
        os.waitpid(pid, 0)


def cross_validate(rho0: ScalarField, p0: ScalarField, k: int, T: float,
                   dt: float, out=None) -> dict:
    """Run the density geodesic and the lifted horizontal EPDiff flow side by side.

    Reports the L2 discrepancy between the density trajectory and the left
    projection of the EPDiff trajectory, the worst horizontality defect, and
    the relative energy drift on both sides. The reported dt is the step
    taken, T / ceil(T/dt).

    EPDiff starts from the horizontal lift of the density flow's first
    snapshot (u0 = horizontal_velocity), taken in process, and each time
    it reaches a comparison time it takes the density flow's next snapshot
    (`geodesic.snapshots`), reduced to rho and the energy, compares it and
    drops it. The rest of the density flow runs in a forked worker beside
    EPDiff, which streams its reduced snapshots through a pipe, or, where
    no worker can be forked, in process, stepped to each comparison time
    (see `_rest_of`). out(t, l2_discrepancy, horizontality_defect,
    energy_density, energy_epdiff), when given, is called with each
    comparison as it is made. While EPDiff steps, the cross-check holds
    EPDiff's working set, the last rho received (in process, the density
    flow's rows and p_out instead) and the comparisons so far: no density
    state, and no u0, which dies with the identity state once
    `integrate_epdiff` has built its row.

    An abort reports the density flow's reason whenever that flow has one,
    as if it had run first: when EPDiff fails, the density flow is run to
    its end (its snapshots discarded) before EPDiff's abort is raised. A
    worker that ends without saying how the flow ended is a RuntimeError.
    """
    check_order(k)
    grid = rho0.grid
    n_steps, dt = time_steps(T, dt)
    stride = max(1, n_steps // (N_CHECKS - 1))
    density = [geodesic.snapshots(rho0, p0, k, T, dt, store_every=stride)]
    snapshot = next(density[0])
    # popped into the calls that use them, so that neither outlives its use
    lift = [identity_state(rho0, geodesic.horizontal_velocity(snapshot[1]),
                           k)]
    first = [_reduced(*snapshot)]
    del snapshot
    checks = []  # (t, discrepancy, defect, energy_density, energy_epdiff)

    def compare(t, phi):
        # both flows observe the same steps
        rho, energy = first.pop() if first else next(rest)
        rho_ep = pushforward_density(phi)
        check = (t, l2_norm_values(rho_ep.values - rho),
                 horizontality_defect(phi.u, rho_ep, k), energy,
                 epdiff_energy(phi.u, k))
        checks.append(check)
        if out is not None:
            out(*check)
    with _rest_of(density.pop()) as rest:
        try:
            integrate_epdiff(lift.pop(), T, dt, stride, compare)
        except Exception:
            # whatever EPDiff raised, the density flow's abort is reported,
            # as when that flow ran first; a density abort has ended rest
            for _ in rest:
                pass
            raise
    _, discrepancies, defects, e_dens, e_ep = zip(*checks)

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
