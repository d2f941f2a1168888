import numpy as np
import pytest
import sympy
from hypothesis import given, settings, strategies as st

from densgeo import spectral as sp
from fullgrid import full_grid


def grid1d(n=64):
    return sp.make_grid(1, n)


def random_band_limited(rng, grid, max_mode=None):
    if max_mode is None:
        max_mode = grid.n // 6
    x = grid.coords[0]
    vals = np.zeros(grid.shape)
    for m in range(1, max_mode + 1):
        if grid.dim == 1:
            vals += rng.normal() * np.cos(m * x) + rng.normal() * np.sin(m * x)
        else:
            y = grid.coords[1]
            vals += rng.normal() * np.cos(m * x + y) + rng.normal() * np.sin(x - m * y)
    return vals


class TestMakeGrid:
    @pytest.mark.parametrize("dim", [1, 2])
    def test_half_spectrum_layout(self, dim):
        # the last axis holds 0 .. n/2-1 and the Nyquist mode as -n/2; in
        # 2-D the first axis holds the full FFT layout
        ops = sp.operators(sp.make_grid(dim, 8))
        assert ops.k_mesh.shape == (dim,) + (8,) * (dim - 1) + (5,)
        assert ops.k_mesh[-1].reshape(-1, 5)[0].tolist() == [0, 1, 2, 3, -4]
        if dim == 2:
            assert ops.k_mesh[0][:, 0].tolist() == [0, 1, 2, 3, -4, -3, -2, -1]

    def test_2d_point_count(self):
        assert sp.make_grid(2, 16).npoints == 256

    @pytest.mark.parametrize("dim,n", [(1, 7), (1, 4), (3, 16), (0, 16), (2, 12)])
    def test_rejects_bad_parameters(self, dim, n):
        with pytest.raises(sp.GridError):
            sp.make_grid(dim, n)

    @pytest.mark.parametrize("dim,n", [(True, 32), (1, 32.7), (1, 32.0),
                                       (1.0, 32), (1, "32"), (1, None)])
    def test_rejects_non_integers(self, dim, n):
        # Grid(True, 32) built a 1-D grid, make_grid(1, 32.7) truncated to
        # n = 32, and Grid(1, 32.0) raised a bare TypeError
        with pytest.raises(sp.GridError, match="must be an integer"):
            sp.Grid(dim, n)
        with pytest.raises(sp.GridError, match="must be an integer"):
            sp.make_grid(dim, n)

    def test_numpy_integers_give_the_same_grid(self):
        g = sp.make_grid(np.int64(2), np.int32(16))
        assert g == sp.Grid(2, 16) and type(g.n) is int and type(g.dim) is int

    def test_normalized_measure(self):
        g = grid1d()
        one = sp.ScalarField(g, np.ones(g.shape))
        assert sp.l2_inner(one, one) == 1.0


class TestInertiaSymbol:
    def test_k_minus_one_is_identity(self):
        g = grid1d(8)
        assert np.all(sp.operators(g, -1).a == 1.0)

    def test_k0_eigenvalue(self):
        g = grid1d(8)
        sym = sp.operators(g, 0).a
        assert sym[3] == 10.0  # 1 + 3^2 on e^{i3x}

    def test_k1_2d_eigenvalue(self):
        g = sp.make_grid(2, 8)
        sym = sp.operators(g, 1).a
        assert sym[1, 1] == 9.0  # (1 + 2)^2

    def test_rejects_k_below_minus_one(self):
        with pytest.raises(ValueError):
            sp.operators(grid1d(8), -2)

    @pytest.mark.filterwarnings("error::RuntimeWarning")
    def test_rejects_k_whose_symbol_overflows(self):
        # 257^(k+1), 1 + 16^2 at n 32's largest |xi|, is finite up to k 126
        g = grid1d(32)
        assert np.isfinite(sp.Operators(g, 126).a).all()
        with pytest.raises(ValueError, match=r"k=127 .*n=32"):
            sp.Operators(g, 127)


class TestApplyMultiplier:
    def test_identity_round_trip(self):
        g = grid1d()
        rng = np.random.default_rng(0)
        f = rng.normal(size=g.shape)
        ops = sp.operators(g, -1)
        out = ops.apply(ops.a, f)
        assert np.abs(out - f).max() < 1e-12

    def test_biharmonic_on_cos3x_sympy_oracle(self):
        # (1 - d2/dx2)^2 cos(3x), expected value computed symbolically
        xs = sympy.symbols("x")
        expr = sympy.cos(3 * xs)
        once = expr - sympy.diff(expr, xs, 2)
        twice = sympy.expand(once - sympy.diff(once, xs, 2))
        g = grid1d(8)
        x = g.coords[0]
        expected = sympy.lambdify(xs, twice, "numpy")(x)
        ops = sp.operators(g, 1)
        out = ops.apply(ops.a, np.cos(3 * x))
        assert np.abs(out - expected).max() < 1e-10
        assert np.abs(out - 100.0 * np.cos(3 * x)).max() < 1e-10

    def test_inverse_composes_to_identity(self):
        g = grid1d()
        rng = np.random.default_rng(1)
        f = random_band_limited(rng, g)
        ops = sp.operators(g, 2)
        af = ops.apply(ops.a, f)
        back = ops.apply(1 / ops.a, af)
        # error scales with |Af| since A amplifies high modes
        assert np.abs(back - f).max() < 1e-12 * np.abs(af).max()


class TestCalculus:
    def test_gradient_cos(self):
        g = grid1d()
        x = g.coords[0]
        out = sp.gradient(sp.ScalarField(g, np.cos(x)))
        assert np.abs(out.components[0] + np.sin(x)).max() < 1e-12

    def test_gradient_constant_is_zero(self):
        g = grid1d()
        out = sp.gradient(sp.ScalarField(g, np.full(g.shape, 2.5)))
        assert np.abs(out.components[0]).max() < 1e-12

    def test_gradient_2d(self):
        g = sp.make_grid(2, 32)
        x, y = g.coords
        out = sp.gradient(sp.ScalarField(g, np.sin(2 * x) * np.cos(y)))
        assert np.abs(out.components[0] - 2 * np.cos(2 * x) * np.cos(y)).max() < 1e-11
        assert np.abs(out.components[1] + np.sin(2 * x) * np.sin(y)).max() < 1e-11

    def test_divergence_sin(self):
        g = grid1d()
        x = g.coords[0]
        out = sp.divergence(sp.VectorField(g, (np.sin(x),)))
        assert np.abs(out.values - np.cos(x)).max() < 1e-12

    def test_divergence_of_gradient_is_laplacian(self):
        g = grid1d()
        x = g.coords[0]
        lap = sp.divergence(sp.gradient(sp.ScalarField(g, np.cos(x))))
        assert np.abs(lap.values + np.cos(x)).max() < 1e-12

    def test_divergence_mean_zero(self):
        g = sp.make_grid(2, 16)
        rng = np.random.default_rng(2)
        v = sp.VectorField(g, tuple(rng.normal(size=g.shape) for _ in range(2)))
        out = sp.divergence(v)
        assert abs(out.values.mean()) < 1e-12


class TestApplyAInv:
    def test_identity_for_k_minus_one(self):
        g = grid1d()
        rng = np.random.default_rng(3)
        v = rng.normal(size=(1,) + g.shape)
        ops = sp.operators(g, -1)
        assert np.abs(ops.apply(1 / ops.a, v) - v).max() < 1e-12

    def test_constant_field_unchanged(self):
        g = grid1d()
        v = np.full((1,) + g.shape, 3.0)
        for k in (-1, 0, 1, 3):
            ops = sp.operators(g, k)
            assert np.abs(ops.apply(1 / ops.a, v) - 3.0).max() < 1e-12

    def test_k1_on_cos(self):
        g = grid1d()
        x = g.coords[0]
        ops = sp.operators(g, 1)
        out = ops.apply(1 / ops.a, np.cos(x)[None])
        assert np.abs(out[0] - np.cos(x) / 4.0).max() < 1e-12


class TestInnerProduct:
    def test_examples(self):
        g = grid1d()
        x = g.coords[0]
        one = sp.ScalarField(g, np.ones(g.shape))
        cos = sp.ScalarField(g, np.cos(x))
        sin = sp.ScalarField(g, np.sin(x))
        assert sp.l2_inner(one, one) == pytest.approx(1.0, abs=1e-14)
        assert sp.l2_inner(cos, cos) == pytest.approx(0.5, abs=1e-14)
        assert abs(sp.l2_inner(cos, sin)) < 1e-12


@settings(max_examples=20, deadline=None)
@given(seed=st.integers(0, 10 ** 6))
def test_skew_adjointness_property(seed):
    g = sp.make_grid(1, 32)
    rng = np.random.default_rng(seed)
    f = sp.ScalarField(g, random_band_limited(rng, g))
    v = sp.VectorField(g, (random_band_limited(rng, g),))
    lhs = sp.l2_inner(sp.divergence(v), f)
    rhs = float((v.components[0] * sp.gradient(f).components[0]).mean())
    assert abs(lhs + rhs) < 1e-10


@settings(max_examples=20, deadline=None)
@given(seed=st.integers(0, 10 ** 6), k=st.integers(-1, 3))
def test_inertia_operator_self_adjoint_positive(seed, k):
    g = sp.make_grid(1, 32)
    rng = np.random.default_rng(seed)
    f = random_band_limited(rng, g)
    h = random_band_limited(rng, g)
    ops = sp.operators(g, k)
    af, ah = ops.apply(ops.a, f), ops.apply(ops.a, h)
    scale = max(1.0, abs((af * h).mean()))
    assert abs((af * h).mean() - (f * ah).mean()) / scale < 1e-10
    quad = (af * f).mean()
    assert quad >= (f * f).mean() - 1e-10 * max(1.0, quad)


@settings(max_examples=20, deadline=None)
@given(seed=st.integers(0, 10 ** 6), offset=st.integers(1, 31))
def test_multiplier_translation_equivariance(seed, offset):
    g = sp.make_grid(1, 32)
    rng = np.random.default_rng(seed)
    f = random_band_limited(rng, g)
    ops = sp.operators(g, 1)
    shifted_then = ops.apply(ops.a, sp.shift_values(g, f, [offset]))
    then_shifted = sp.shift_values(g, ops.apply(ops.a, f), [offset])
    scale = max(1.0, np.abs(then_shifted).max())
    assert np.abs(shifted_then - then_shifted).max() / scale < 1e-12


def test_dealias_removes_top_third():
    g = grid1d(16)
    x = g.coords[0]
    f = np.cos(6 * x) + np.cos(2 * x)  # mode 6 above cutoff n//3 = 5
    out = sp.dealias(g, f)
    assert np.abs(out - np.cos(2 * x)).max() < 1e-12


def test_spectral_tail_fraction_concentrated_low_modes():
    g = grid1d(64)
    x = g.coords[0]
    ops = sp.operators(g)
    assert sp.tail_fractions(ops, (1 + 0.5 * np.cos(x))[None])[0] < 1e-20
    # energy parked in the top third of retained modes
    high = np.cos(20 * x)
    assert sp.tail_fractions(ops, high[None])[0] == pytest.approx(1.0)


@pytest.mark.parametrize("dim,n", [(1, 32), (2, 16)])
def test_operator_table_on_stacks_equals_per_field(dim, n):
    g = sp.make_grid(dim, n)
    ops = sp.operators(g, 1)
    rng = np.random.default_rng(dim)
    stack = rng.normal(size=(3, dim) + g.shape)
    grads = ops.grad(stack)
    smoothed = ops.apply(1 / ops.a, stack)
    for i in np.ndindex(3, dim):
        assert np.array_equal(grads[i], ops.grad(stack[i]))
        assert np.array_equal(smoothed[i], ops.apply(1 / ops.a, stack[i]))


def test_operator_table_cached_and_read_only():
    g = sp.make_grid(1, 16)
    ops = sp.operators(g, 2)
    assert sp.operators(sp.make_grid(1, 16), 2) is ops
    with pytest.raises(ValueError):
        ops.a[1] = 0.0
    half = (1.0 + full_grid(g).ksq)[..., :g.n // 2 + 1]
    assert np.array_equal(ops.a, half ** 3)
