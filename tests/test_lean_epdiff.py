"""The EPDiff step: the same bytes as the reference formulas of its kernel,
a working set that the traced peak of `integrate_epdiff` bounds, and no
initial state or row held through the time loop.

The reference below writes the kernel as one expression per quantity, with
no regard for how long its temporaries live: `_epdiff_rhs` (both outputs)
and `_flow_rhs` must give its values bit for bit.
"""
import collections
import io
import os
import tracemalloc
import weakref

import numpy as np
import pytest

from densgeo import epdiff as ep, geodesic as ge, spectral as sp

# numpy's ufunc iteration buffer, 8192 doubles: an in-place product with a
# broadcast operand on a small grid fills one
UFUNC_BUFFER = 8 * 8192


def reference_field_and_grad(band, v_hat):
    dim = band.grid.dim
    dv_hat = (band.ik * v_hat[band.vec]).reshape((dim * dim,) + band.mask.shape)
    out = band.ifft(np.concatenate((v_hat, dv_hat)))
    return out[:dim], out[dim:].reshape((dim, dim) + band.grid.shape)


def reference_epdiff_rhs(band, u_hat):
    dim = band.grid.dim
    u, du = reference_field_and_grad(band, u_hat)
    m, dm = reference_field_and_grad(band, band.a_band * u_hat)
    divu = sum(du[j, j] for j in range(dim))
    conv = (u * dm).sum(axis=1)
    stretch = (m[:, None] * du).sum(axis=0)
    ut_hat = band.fft(conv + divu * m + stretch)
    ut_hat *= band.ainv_band
    return u, np.negative(ut_hat, out=ut_hat)


def reference_flow_rhs(ops, y):
    dim = ops.grid.dim
    qf, u_hat = ep._split(ops.band, y)
    u, ut_hat = reference_epdiff_rhs(ops.band, u_hat)
    adv = (u * ops.grad(qf)).sum(axis=1)
    adv[:dim] += u
    return ep._rows(np.negative(adv, out=adv), ut_hat)


def smooth_state(dim, n, k):
    """A smooth density state of positive density on the grid (dim, n)."""
    g = sp.make_grid(dim, n)
    x = g.coords
    rho = 1.0 + 0.3 * np.cos(x[0]) * np.cos(2 * x[-1]) + 0.1 * np.sin(
        3 * x[0] + x[-1])
    p = np.sin(x[0] + 2 * x[-1]) + 0.5 * np.cos(3 * x[0] - x[-1])
    return ge.make_state(g, rho / rho.mean(), p, k)


def flow_row(dim, n, k):
    """The table and a row (see `epdiff._rows`) a little way along a flow:
    q, f and u all away from the identity's zeros and constants."""
    state = smooth_state(dim, n, k)
    ops = sp.operators(state.grid, k)
    state0 = ep.identity_state(state.rho, ge.horizontal_velocity(state), k)
    y = ep._initial_row(ops, state0)
    for _ in range(2):
        y, reason = ep._flow_step(ops, y, 0.05)
        assert reason is None
    return ops, y


CASES = [(1, 32, 1), (2, 32, 2), (2, 128, 2)]


@pytest.mark.parametrize("dim,n,k", CASES)
def test_epdiff_rhs_is_the_reference(dim, n, k):
    ops, y = flow_row(dim, n, k)
    u_hat = ep._split(ops.band, y)[1]
    got = ep._epdiff_rhs(ops.band, u_hat)
    want = reference_epdiff_rhs(ops.band, u_hat)
    assert [a.tobytes() for a in got] == [a.tobytes() for a in want]


@pytest.mark.parametrize("dim,n,k", CASES)
def test_flow_rhs_is_the_reference(dim, n, k):
    ops, y = flow_row(dim, n, k)
    assert (ep._flow_rhs(ops, y).tobytes()
            == reference_flow_rhs(ops, y).tobytes())


def test_returned_velocity_pins_no_gradient():
    ops, y = flow_row(2, 32, 2)
    u = ep._epdiff_rhs(ops.band, ep._split(ops.band, y)[1])[0]
    assert u.base is None and u.shape == (2,) + ops.grid.shape


def step_accounting(ops):
    """The bytes above its entry that an EPDiff step holds at its peak: RK4's
    3 rows (state, stage, accumulator), and in the right-hand side the
    stacks [m, grad m] and [u, grad u] on the grid, dim + dim^2 fields
    each, with u's stack's band spectrum still alive in its transform, and
    one ufunc buffer."""
    grid = ops.grid
    height = grid.dim + grid.dim ** 2
    row = 8 * ((grid.dim + 1) * grid.npoints + 2 * grid.dim
               * ops.band.mask.size)
    stack = 8 * height * grid.npoints
    spectrum = 16 * height * ops.band.mask.size
    return 3 * row + 2 * stack + spectrum + UFUNC_BUFFER, row


def traced_peak(f):
    """The traced peak of f() above what was held at its entry, in bytes."""
    tracing = tracemalloc.is_tracing()
    if not tracing:
        tracemalloc.start()
    try:
        start = tracemalloc.get_traced_memory()[0]
        tracemalloc.reset_peak()
        f()
        return tracemalloc.get_traced_memory()[1] - start
    finally:
        if not tracing:
            tracemalloc.stop()


def test_integrate_epdiff_peak_memory():
    """A 3-step 2-D EPDiff flow, its initial state built for the call, holds
    no more than the step's accounting: the state it starts from dies with
    its initial row, and a step's temporaries each die at their last use.
    The accounting is 7.14 rows; the step read 8.30 before its temporaries
    were freed at their last use, and its initial state at the first step."""
    k = 2
    state = smooth_state(2, 64, k)
    ops = sp.operators(state.grid, k)
    u0 = ge.horizontal_velocity(state)
    ep.integrate_epdiff(ep.identity_state(state.rho, u0, k), 0.02, 0.01,
                        out=lambda *snapshot: None)  # warm-up
    bound, row = step_accounting(ops)
    peak = traced_peak(lambda: ep.integrate_epdiff(
        ep.identity_state(state.rho, u0, k), 0.03, 0.01,
        out=lambda *snapshot: None))
    assert peak <= bound, f"{peak / row:.2f} rows > {bound / row:.2f}"


def test_time_loop_holds_no_initial_state_or_row(monkeypatch):
    """From the first step on, the state the flow started from (its q and,
    when the caller keeps neither, its u) and the initial row are gone."""
    k = 2
    state = smooth_state(2, 32, k)
    refs = []
    initial_row = ep._initial_row

    def watched(ops, state0):
        y = initial_row(ops, state0)
        refs.extend(weakref.ref(a) for a in (
            state0, state0.q.components, state0.u.components, y))
        return y
    monkeypatch.setattr(ep, "_initial_row", watched)
    alive = []

    def sink(t, phi):
        alive.append([ref() is not None for ref in refs])
    ep.integrate_epdiff(ep.identity_state(
        state.rho, ge.horizontal_velocity(state), k), 0.03, 0.01, out=sink)
    # the initial row lives until the first step, the state not at all
    assert alive == [[False, False, False, True]] + [[False] * 4] * 3


def test_cross_validate_lets_go_of_u0(monkeypatch):
    """cross_validate keeps no reference to u0 once it is in the identity
    state, so that u0 dies with that state, before the time loop."""
    state = smooth_state(2, 16, 2)
    refs = []
    horizontal_velocity = ge.horizontal_velocity

    def watched(s):
        u = horizontal_velocity(s)
        refs.append(weakref.ref(u))
        return u
    monkeypatch.setattr(ge, "horizontal_velocity", watched)
    alive = []
    ep.cross_validate(state.rho, state.p, 2, 0.03, 0.01, out=lambda *check:
                      alive.append(refs[0]() is not None))
    assert alive == [False] * 4


# the small objects a stream of snapshots makes besides its arrays (the
# pickler's or unpickler's, the generator's frame): 879 bytes measured in
# the worker's body
STREAM_OBJECTS = 2048


def test_cross_validate_peak_memory(forks):
    """A 2-D n 32 cross-check holds, above EPDiff's own traced peak on the
    same flow, no more than one received rho, the pipe reader's buffer and
    the stream's small objects: the density flow runs in the worker, and
    the caller's copy of it dies at the fork. tracemalloc sees the parent
    only; the worker's body is bounded by
    `test_density_worker_holds_one_snapshot`. With the density flow in
    process the bound was EPDiff's peak plus the density flow's row, its
    p_out and one snapshot (4.69 fields; it read 2.92), and keeping every
    snapshot's rho until EPDiff reached it read 8.5 density fields more."""
    k, T, dt, stride = 2, 0.5, 0.01, 5  # cross_validate's stride for T/dt
    state = smooth_state(2, 32, k)
    ops = sp.operators(state.grid, k)
    ep.cross_validate(state.rho, state.p, k, T, dt)  # warm-up
    u0 = ge.horizontal_velocity(state)
    epdiff_peak = traced_peak(lambda: ep.integrate_epdiff(
        ep.identity_state(state.rho, u0, k), T, dt, stride,
        out=lambda *snapshot: None))
    field = 8 * ops.grid.npoints
    bound = epdiff_peak + field + io.DEFAULT_BUFFER_SIZE + STREAM_OBJECTS
    peak = traced_peak(lambda: ep.cross_validate(state.rho, state.p, k, T,
                                                 dt))
    assert len(forks) == 2
    assert peak <= bound, (f"{(peak - epdiff_peak) / field:.2f} fields > "
                           f"{(bound - epdiff_peak) / field:.2f}")


def test_density_worker_holds_one_snapshot():
    """The worker's body (`epdiff._stream`), run in process on a pipe that
    holds the whole stream (2-D n 32, the stride of xval-2d), holds above
    its entry no more than the flow's own stepping, drained with nothing
    kept, and the stream's small objects: the density flow's rows, p_out,
    a step's temporaries and one snapshot, pickled between steps and
    dropped before the next."""
    fcntl = pytest.importorskip("fcntl")
    if not hasattr(fcntl, "F_SETPIPE_SZ"):
        pytest.skip("the pipe's capacity cannot be set here")
    k, T, dt, stride = 2, 0.5, 0.01, 5
    state = smooth_state(2, 32, k)

    def rest():
        density = ge.snapshots(state.rho, state.p, k, T, dt,
                               store_every=stride)
        next(density)  # the worker starts after the first snapshot
        return density
    collections.deque(rest(), maxlen=0)  # warm-up
    density = rest()
    drained = traced_peak(lambda: collections.deque(density, maxlen=0))
    read, write = os.pipe()
    fcntl.fcntl(write, fcntl.F_SETPIPE_SZ, 1 << 17)  # 10 snapshots: 83 KB
    try:
        with open(write, "wb") as pipe:
            density = rest()
            peak = traced_peak(lambda: ep._stream(density, pipe))
        with open(read, "rb", closefd=False) as pipe:
            received = list(ep._received(pipe))
    finally:
        os.close(read)
    assert len(received) == 10
    assert peak <= drained + STREAM_OBJECTS, f"{peak - drained} bytes"


def test_density_snapshots_die_once_compared(monkeypatch, forks):
    """Each density snapshot's rho lives in the parent until its comparison
    is made, and no longer: at each comparison only the rho it compared is
    alive. The first snapshot is the parent's own, the others are those
    it received from the worker, one at a time."""
    state = smooth_state(2, 16, 2)
    rhos = []
    snapshots, received = ge.snapshots, ep._received

    class Watched:
        """The density flow's snapshots, each rho watched by weakref."""

        def __init__(self, *args, **kw):
            self.snapshots = snapshots(*args, **kw)

        def __iter__(self):
            return self

        def __next__(self):
            t, snapshot, diagnostics = next(self.snapshots)
            rhos.append(weakref.ref(snapshot.rho.values))
            return t, snapshot, diagnostics

    def watched(pipe):
        for rho, energy in received(pipe):
            rhos.append(weakref.ref(rho))
            yield rho, energy

    monkeypatch.setattr(ge, "snapshots", Watched)
    monkeypatch.setattr(ep, "_received", watched)
    alive = []
    ep.cross_validate(state.rho, state.p, 2, 0.1, 0.01, out=lambda *check:
                      alive.append([ref() is not None for ref in rhos]))
    assert len(forks) == 1
    assert alive == [[False] * i + [True] for i in range(11)]
