import tracemalloc

import numpy as np
import pytest

from stochmap.grid import Grid, NonFiniteError, ScalarField, VectorField, stack_members
from stochmap.calculus import (
    _STENCIL_ENTRIES,
    _catmull_rom_weights,
    centered_difference,
    curl,
    derivative,
    divergence,
    dot,
    gradient,
    integrate,
    member_integrals,
    sample_at,
    second_derivative,
)

TWO_PI = 2.0 * np.pi


def grid2(n=64):
    return Grid((n, n), (TWO_PI, TWO_PI))


def test_derivative_of_constant_is_zero():
    f = ScalarField.constant(grid2(), 3.7)
    assert np.all(derivative(f, 0).values == 0.0)
    assert np.all(derivative(f, 1).values == 0.0)


def test_derivative_matches_analytic_within_h2():
    g = Grid((64,), (TWO_PI,))
    f = ScalarField.from_function(g, np.sin)
    x = g.coords()[0]
    h = g.spacing[0]
    err = np.abs(derivative(f, 0).values - np.cos(x)).max()
    assert err < h**2 / 5.0  # leading truncation h^2/6


def test_derivative_matches_fourier_symbol_oracle():
    # the centered stencil acts on each Fourier mode as multiplication by
    # i sin(k h)/h; evaluating it through the FFT is an independent path
    rng = np.random.default_rng(42)
    n = 128
    g = Grid((n,), (TWO_PI,))
    spec = np.zeros(n, dtype=complex)
    for k in range(1, 9):
        c = rng.normal() + 1j * rng.normal()
        spec[k] = c
        spec[-k] = np.conj(c)
    f = ScalarField(g, np.real(np.fft.ifft(spec)))
    h = g.spacing[0]
    k = np.fft.fftfreq(n, d=1.0 / n)
    oracle = np.real(np.fft.ifft(1j * np.sin(k * h) / h * np.fft.fft(f.values)))
    got = derivative(f, 0).values
    assert np.abs(got - oracle).max() / np.abs(oracle).max() < 1e-6


def test_derivative_axis_out_of_range():
    f = ScalarField.constant(grid2(), 1.0)
    with pytest.raises(ValueError):
        derivative(f, 2)


STRIDED = "strided_view"


@pytest.mark.parametrize("shape", [(7,), (8, 12), (5, 6, 9), (4, 4, 4), STRIDED])
def test_centered_difference_equals_shifted_copy_formula(shape):
    # reference: the same (v[k+1] - v[k-1]) * (0.5/h) built from rolled copies;
    # the kernel performs the identical operations, so equality is exact
    if shape == STRIDED:
        # every other plane of a larger array with its axes reversed: a view
        # that is contiguous in neither C nor Fortran order
        v = np.random.default_rng(5).standard_normal((12, 6, 9))[::2, :, 1::2].transpose(2, 1, 0)
        assert not (v.flags.c_contiguous or v.flags.f_contiguous)
        shape = v.shape
    else:
        v = np.random.default_rng(len(shape)).standard_normal(shape)
    g = Grid(shape, tuple(1.0 + 0.5 * p for p in range(len(shape))))
    for axis in range(len(shape)):
        ref = (np.roll(v, -1, axis=axis) - np.roll(v, 1, axis=axis)) * (0.5 / g.spacing[axis])
        assert np.array_equal(centered_difference(v, axis, g), ref)


@pytest.mark.parametrize("shape", [(7,), (8, 12), (5, 6, 9), (4, 4, 4), STRIDED])
def test_centered_difference_is_within_an_ulp_of_the_division_form(shape):
    # the kernel multiplies by 1/(2h); dividing by 2h rounds differently by at
    # most one unit in the last place
    if shape == STRIDED:
        v = np.random.default_rng(5).standard_normal((12, 6, 9))[::2, :, 1::2].transpose(2, 1, 0)
        shape = v.shape
    else:
        v = np.random.default_rng(len(shape)).standard_normal(shape)
    g = Grid(shape, tuple(1.0 + 0.5 * p for p in range(len(shape))))
    for axis in range(len(shape)):
        division = (np.roll(v, -1, axis=axis) - np.roll(v, 1, axis=axis)) / (2.0 * g.spacing[axis])
        got = centered_difference(v, axis, g)
        assert np.all(np.abs(got - division) <= np.spacing(np.abs(division)))


@pytest.mark.parametrize("shape", [(16,), (8, 12), (6, 8, 10)], ids=["1d", "2d", "3d"])
def test_centered_difference_of_a_member_stack_is_per_member(shape):
    # a leading member axis: the grid axes are the trailing ones, and each
    # member gets the bits of its own call
    stack = np.random.default_rng(7).standard_normal((3,) + shape)
    g = Grid(shape, tuple(1.0 + 0.5 * p for p in range(len(shape))))
    for axis in range(len(shape)):
        got = centered_difference(stack, axis, g)
        for k in range(3):
            assert np.array_equal(got[k], centered_difference(stack[k], axis, g))


def _layouts():
    # inputs that are not C-contiguous, so they are made C-contiguous first
    rng = np.random.default_rng(11)
    yield "fortran", (8, 12), np.asfortranarray(rng.standard_normal((8, 12)))
    yield "fortran_3d", (5, 6, 9), np.asfortranarray(rng.standard_normal((5, 6, 9)))
    yield "strided", (6, 9), rng.standard_normal((12, 18))[::2, 1::2]
    yield "stack_strided", (8, 12), rng.standard_normal((6, 8, 12))[::2]
    yield "stack_fortran", (6, 8, 10), np.asfortranarray(rng.standard_normal((3, 6, 8, 10)))
    yield "stack_of_strided", (8, 12), rng.standard_normal((3, 8, 24))[:, :, ::2]
    yield "stack_broadcast", (8, 12), np.broadcast_to(rng.standard_normal((8, 12)), (3, 8, 12))


@pytest.mark.parametrize("name, shape, v", list(_layouts()), ids=[c[0] for c in _layouts()])
def test_centered_difference_of_any_layout_is_bitwise_its_contiguous_copy(name, shape, v):
    # the rolled-copy formula reads the layout itself, so a kernel that
    # misreads a layout's strides differs from it
    assert not v.flags.c_contiguous
    g = Grid(shape, tuple(1.0 + 0.5 * p for p in range(len(shape))))
    for axis in range(len(shape)):
        a = v.ndim - len(shape) + axis
        ref = (np.roll(v, -1, axis=a) - np.roll(v, 1, axis=a)) * (0.5 / g.spacing[axis])
        assert np.array_equal(centered_difference(v, axis, g), ref)


@pytest.mark.parametrize("dtype", [np.int64, np.float32])
@pytest.mark.parametrize("shape", [(16,), (8, 12), (6, 8, 10), (3, 8, 12)],
                         ids=["1d", "2d", "3d", "stack"])
def test_centered_difference_of_int_and_float32_is_the_float64_result(shape, dtype):
    # the flat subtraction steps by the axis stride in elements of the input's
    # own item size, and every subtraction runs in float64
    rng = np.random.default_rng(12)
    v = (rng.integers(-1000, 1000, shape) if dtype is np.int64
         else rng.standard_normal(shape)).astype(dtype)
    grid_shape = shape[1:] if shape == (3, 8, 12) else shape
    g = Grid(grid_shape, tuple(1.0 + 0.5 * p for p in range(len(grid_shape))))
    for axis in range(len(grid_shape)):
        got = centered_difference(v, axis, g)
        assert got.dtype == np.float64
        assert np.array_equal(got, centered_difference(v.astype(np.float64), axis, g))


@pytest.mark.parametrize("shape, grid_shape", [((128, 128), (128, 128)),
                                               ((4, 64, 64), (64, 64)),
                                               ((24, 24, 24), (24, 24, 24))])
def test_centered_difference_allocates_only_its_output(shape, grid_shape):
    # a C-contiguous input is differenced through its flattened view: no
    # contiguous copy and no temporary the size of the array.  Along an axis
    # with array axes on both sides (a member stack's first grid axis, a 3D
    # grid's middle axis) each end node is a 2D plane, for which numpy's ufunc
    # iterator holds buffers for the three operands, under four planes in all
    v = np.random.default_rng(13).standard_normal(shape)
    g = Grid(grid_shape, (TWO_PI,) * len(grid_shape))
    for axis in range(len(grid_shape)):
        a = v.ndim - g.dim + axis
        centered_difference(v, axis, g)  # numpy's first-call caches are not the call's
        tracemalloc.start()
        try:
            out = centered_difference(v, axis, g)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        planes = 4 if 0 < a < v.ndim - 1 else 0
        assert peak <= out.nbytes + 1024 + planes * out.nbytes // v.shape[a]


def test_a_field_takes_at_most_one_member_axis_and_measures_one_member(tmp_path):
    # values (members, *grid.shape) are a batch; a second leading axis is an
    # error, and what measures or writes one field refuses a batch
    from stochmap.fldio import write_field

    g = grid2(8)
    with pytest.raises(ValueError, match="at most one leading member axis"):
        ScalarField(g, np.zeros((2, 3) + g.shape))
    batch = ScalarField(g, np.ones((2,) + g.shape))
    assert batch.batch_shape == (2,) and ScalarField.zeros(g).batch_shape == ()
    for what, measure in [("write_field", lambda f: write_field(tmp_path / "f.fld", f)),
                          ("integrate", integrate),
                          ("sample_at", lambda f: sample_at(f, g.points()[:3])),
                          ("ScalarField.min", ScalarField.min),
                          ("ScalarField.max", ScalarField.max)]:
        with pytest.raises(ValueError, match=rf"{what} takes one member; .* batched over \(2,\)"):
            measure(batch)
        measure(ScalarField.constant(g, 1.0))


def test_derivative_linearity():
    rng = np.random.default_rng(0)
    g = grid2(32)
    f1 = ScalarField(g, rng.standard_normal(g.shape))
    f2 = ScalarField(g, rng.standard_normal(g.shape))
    lhs = derivative(2.5 * f1 + (-1.25) * f2, 0).values
    rhs = 2.5 * derivative(f1, 0).values - 1.25 * derivative(f2, 0).values
    assert np.allclose(lhs, rhs, atol=1e-14)


def test_second_derivative_constant_and_analytic():
    g = Grid((64,), (TWO_PI,))
    assert np.all(second_derivative(ScalarField.constant(g, 2.0), 0, 0).values == 0.0)
    f = ScalarField.from_function(g, np.sin)
    x = g.coords()[0]
    err = np.abs(second_derivative(f, 0, 0).values + np.sin(x)).max()
    assert err < 4 * g.spacing[0] ** 2


def test_second_derivative_symmetric():
    rng = np.random.default_rng(1)
    g = grid2(32)
    f = ScalarField(g, rng.standard_normal(g.shape))
    a = second_derivative(f, 0, 1).values
    b = second_derivative(f, 1, 0).values
    assert np.allclose(a, b, atol=1e-13)


def test_integrate_constant_exact():
    g = Grid((17, 23), (1.0, 1.0))
    assert integrate(ScalarField.constant(g, 1.0)) == pytest.approx(1.0, abs=1e-14)


def test_integrate_periodic_mean_zero():
    g = grid2()
    f = ScalarField.from_function(g, lambda x, y: np.sin(x))
    assert abs(integrate(f)) < 1e-12


def test_integrate_is_mean_times_volume():
    rng = np.random.default_rng(2)
    g = grid2(16)
    f = ScalarField(g, rng.standard_normal(g.shape))
    assert integrate(f) == pytest.approx(f.values.mean() * g.volume, rel=1e-12)


def test_integral_of_derivative_telescopes():
    rng = np.random.default_rng(3)
    g = grid2(32)
    f = ScalarField(g, rng.standard_normal(g.shape))
    for p in range(2):
        assert abs(integrate(derivative(f, p))) < 1e-13


def test_summation_by_parts_exact():
    rng = np.random.default_rng(4)
    g = grid2(32)
    u = ScalarField(g, rng.standard_normal(g.shape))
    v = ScalarField(g, rng.standard_normal(g.shape))
    lhs = integrate(u * derivative(v, 0))
    rhs = -integrate(derivative(u, 0) * v)
    assert lhs == pytest.approx(rhs, abs=1e-12)


def test_divergence_and_curl_of_constant():
    v = VectorField.constant(grid2(), (1.0, -2.0))
    assert np.all(divergence(v).values == 0.0)
    assert np.all(curl(v).values == 0.0)


def test_curl_2d_analytic():
    g = grid2(64)
    v = VectorField(
        g,
        (
            ScalarField.from_function(g, lambda x, y: -np.sin(y)),
            ScalarField.from_function(g, lambda x, y: np.sin(x)),
        ),
    )
    x, y = g.coords()
    err = np.abs(curl(v).values - (np.cos(x) + np.cos(y))).max()
    assert err < 2 * g.spacing[0] ** 2


def test_curl_needs_2d_or_3d():
    g = Grid((16,), (1.0,))
    with pytest.raises(ValueError):
        curl(VectorField.constant(g, (1.0,)))


def test_div_of_curl_vanishes_3d():
    rng = np.random.default_rng(5)
    g = Grid((16, 16, 16), (TWO_PI,) * 3)
    w = VectorField(g, tuple(ScalarField(g, rng.standard_normal(g.shape)) for _ in range(3)))
    assert np.abs(divergence(curl(w)).values).max() < 1e-12


def test_curl_integration_by_parts_3d():
    # <curl v, w> = <v, curl w> holds exactly for the centered stencils
    rng = np.random.default_rng(6)
    g = Grid((12, 12, 12), (TWO_PI,) * 3)
    v = VectorField(g, tuple(ScalarField(g, rng.standard_normal(g.shape)) for _ in range(3)))
    w = VectorField(g, tuple(ScalarField(g, rng.standard_normal(g.shape)) for _ in range(3)))
    assert integrate(dot(curl(v), w)) == pytest.approx(integrate(dot(v, curl(w))), abs=1e-12)


def test_gradient_components_match_derivative():
    rng = np.random.default_rng(7)
    g = grid2(16)
    f = ScalarField(g, rng.standard_normal(g.shape))
    gr = gradient(f)
    for p in range(2):
        assert np.array_equal(gr.components[p].values, derivative(f, p).values)


# --- point sampling ---------------------------------------------------------

def test_sample_at_reproduces_nodes():
    rng = np.random.default_rng(8)
    g = grid2(16)
    f = ScalarField(g, rng.standard_normal(g.shape))
    got = sample_at(f, g.points())
    assert np.allclose(got, f.values.reshape(-1), atol=1e-13)


def test_sample_constant_anywhere():
    g = grid2(16)
    f = ScalarField.constant(g, 4.25)
    pts = np.random.default_rng(9).uniform(-10, 10, size=(100, 2))
    assert np.allclose(sample_at(f, pts), 4.25, atol=1e-13)


def test_sample_midpoints_fourth_order():
    errs = {}
    for n in (32, 64):
        g = Grid((n,), (1.0,))
        f = ScalarField.from_function(g, lambda x: np.sin(2 * np.pi * x))
        mid = ((np.arange(n) + 0.5) / n)[:, None]
        errs[n] = np.abs(sample_at(f, mid) - np.sin(2 * np.pi * mid[:, 0])).max()
    assert errs[32] < 5e-5          # measured 3.46e-5
    assert 12 < errs[32] / errs[64] < 20   # halving h cuts the error ~16x


def test_sample_wraps_periodically():
    rng = np.random.default_rng(10)
    g = grid2(16)
    f = ScalarField(g, rng.standard_normal(g.shape))
    pts = rng.uniform(0, TWO_PI, size=(50, 2))
    shifted = pts + np.array([3 * TWO_PI, -2 * TWO_PI])
    assert np.allclose(sample_at(f, pts), sample_at(f, shifted), atol=1e-12)


def test_sample_3d_nodes_exact():
    rng = np.random.default_rng(11)
    g = Grid((8, 8, 8), (1.0, 1.0, 1.0))
    f = ScalarField(g, rng.standard_normal(g.shape))
    got = sample_at(f, g.points())
    assert np.allclose(got, f.values.reshape(-1), atol=1e-13)


def _fancy_index_sample(f, pts, chunk=1 << 15):
    """The kernel as it was before the shared stencil: per-axis wrapped index
    and weight tables, one fancy-indexed gather per field, 2^15 points per
    chunk in every dimension.  In 1D the four products v * w are summed in C
    order from +0.0, written out, since the order numpy's einsum takes there
    depends on how numpy was built."""
    grid = f.grid
    out = np.empty(pts.shape[0])
    for start in range(0, pts.shape[0], chunk):
        sl = slice(start, min(start + chunk, pts.shape[0]))
        idx, wts = [], []
        for p in range(grid.dim):
            xi = pts[sl, p] / grid.spacing[p]
            base = np.floor(xi).astype(np.int64)
            idx.append(np.mod(base[:, None] + np.arange(-1, 3), grid.shape[p]))
            wts.append(np.ascontiguousarray(_catmull_rom_weights(xi - base).T))
        if grid.dim == 1:
            p = f.values[idx[0]] * wts[0]
            out[sl] = (((0.0 + p[:, 0]) + p[:, 1]) + p[:, 2]) + p[:, 3]
        elif grid.dim == 2:
            out[sl] = np.einsum("nab,na,nb->n", f.values[idx[0][:, :, None], idx[1][:, None, :]], *wts)
        else:
            gathered = f.values[idx[0][:, :, None, None], idx[1][:, None, :, None], idx[2][:, None, None, :]]
            out[sl] = np.einsum("nabc,na,nb,nc->n", gathered, *wts)
    return out


@pytest.mark.parametrize("shape, extents", [
    ((16,), (1.0,)), ((7,), (3.0,)),
    ((16, 16), (TWO_PI, TWO_PI)), ((12, 9), (2.0, 5.0)),
    ((8, 8, 8), (1.0, 1.0, 1.0)), ((6, 9, 5), (1.0, 2.5, 0.7)),
])
def test_sample_at_is_bitwise_the_fancy_index_kernel(shape, extents):
    # the padded flat gather reads the same node values in the same order,
    # so every result keeps its bits: at nodes, inside, far outside the
    # domain, and over more points than one chunk (2^17 points in 1D, 2^15
    # in 2D, 8192 in 3D)
    rng = np.random.default_rng(12)
    g = Grid(shape, extents)
    f = ScalarField(g, rng.standard_normal(shape))
    ell = np.asarray(extents)
    point_sets = {
        "nodes": g.points(),
        "inside": rng.uniform(0.0, 1.0, (300, g.dim)) * ell,
        "outside": rng.uniform(-50.0, 50.0, (300, g.dim)) * ell,
        "negative": -rng.uniform(0.0, 3.0, (300, g.dim)) * ell,
        "many": rng.uniform(-1.0, 2.0, (140_000, g.dim)) * ell,
    }
    for name, pts in point_sets.items():
        assert np.array_equal(sample_at(f, pts), _fancy_index_sample(f, pts)), name
    # at the origin every weight is +0.0 or 1.0, so every product of a -0.0
    # field is -0.0; einsum's sums start from +0.0 and give +0.0
    negative_zero, origin = ScalarField(g, np.full(shape, -0.0)), np.zeros((3, g.dim))
    got = sample_at(negative_zero, origin)
    assert got.tobytes() == _fancy_index_sample(negative_zero, origin).tobytes()
    assert not np.signbit(got).any()


@pytest.mark.parametrize("shape, extents, n", [
    ((7,), (3.0,), 50_000), ((12, 9), (2.0, 5.0), 20_000), ((6, 9, 5), (1.0, 2.5, 0.7), 5_000),
])
def test_sample_at_of_a_batch_is_bitwise_the_fancy_index_kernel_per_member(shape, extents, n):
    # each member of a batch, at its own points, has the reference's bits;
    # one member's points straddle a chunk of the flattened batch (2^17
    # points in 1D, 2^15 in 2D, 8192 in 3D)
    rng = np.random.default_rng(15)
    g = Grid(shape, extents)
    batch = ScalarField(g, rng.standard_normal((3,) + shape))
    pts = rng.uniform(-2.0, 2.0, (3, n, g.dim)) * np.asarray(extents)
    chunk = _STENCIL_ENTRIES // 4**g.dim
    assert any(m * n // chunk != ((m + 1) * n - 1) // chunk for m in range(3))
    got = sample_at(batch, pts)
    assert got.shape == (3, n)
    for member, x, row in zip(batch.members(), pts, got):
        assert row.tobytes() == _fancy_index_sample(member, x).tobytes()


def test_sample_at_of_one_point_has_the_point_set_shape():
    # points (dim,) give a scalar () and a vector (dim,), with the bits of a
    # one-point set; points without a coordinate axis are refused
    rng = np.random.default_rng(16)
    for g in (Grid((7,), (3.0,)), Grid((12, 9), (2.0, 5.0)), Grid((6, 9, 5), (1.0, 2.5, 0.7))):
        f = ScalarField(g, rng.standard_normal(g.shape))
        v = VectorField.from_arrays(g, [rng.standard_normal(g.shape) for _ in range(g.dim)])
        x = rng.uniform(-2.0, 2.0, g.dim) * np.asarray(g.extents)
        for field, shape in ((f, ()), (v, (g.dim,))):
            got = sample_at(field, x)
            assert got.shape == shape
            assert got.tobytes() == sample_at(field, x[None]).tobytes()
        with pytest.raises(ValueError, match=f"points must have {g.dim} columns"):
            sample_at(f, 0.5)


def test_sample_at_of_a_vector_field_stacks_its_components():
    rng = np.random.default_rng(13)
    for g in (Grid((12, 9), (2.0, 5.0)), Grid((6, 9, 5), (1.0, 2.5, 0.7))):
        v = VectorField.from_arrays(g, [rng.standard_normal(g.shape) for _ in range(g.dim)])
        pts = rng.uniform(-2.0, 2.0, (20_000, g.dim)) * np.asarray(g.extents)
        got = sample_at(v, pts)
        assert got.shape == (20_000, g.dim)
        assert np.array_equal(got, np.stack([sample_at(c, pts) for c in v.components], axis=-1))
    batch = stack_members([v, v])
    with pytest.raises(ValueError, match="sample_at takes one member"):
        sample_at(batch, pts[:3])


def test_sample_at_of_an_ensemble_is_each_members_own_call():
    # one field at each member's points, and a field batched over members at
    # one point set per member, equal the per-member calls bit for bit; 3 x
    # 20 000 points in 2D cross the 2^15-point chunks inside a member
    rng = np.random.default_rng(14)
    for g in (Grid((12, 9), (2.0, 5.0)), Grid((6, 9, 5), (1.0, 2.5, 0.7))):
        pts = rng.uniform(-2.0, 2.0, (3, 20_000, g.dim)) * np.asarray(g.extents)
        f = ScalarField(g, rng.standard_normal(g.shape))
        batch = ScalarField(g, rng.standard_normal((3,) + g.shape))
        v = VectorField.from_arrays(g, [rng.standard_normal((3,) + g.shape) for _ in range(g.dim)])
        for got, want in [(sample_at(f, pts), [sample_at(f, x) for x in pts]),
                          (sample_at(batch, pts), [sample_at(m, x) for m, x in zip(batch.members(), pts)]),
                          (sample_at(v, pts), [sample_at(VectorField(g, tuple(c.members()[k] for c in v.components)), x)
                                               for k, x in enumerate(pts)])]:
            assert got.tobytes() == np.stack(want).tobytes()
        with pytest.raises(ValueError, match=r"a batch takes one set per member, \(3, N"):
            sample_at(batch, pts[:2])


def test_sample_at_3d_memory_stays_under_the_old_gathered_array():
    # 46^3 nodes span twelve 8192-point chunks; the fancy-index kernel's
    # gathered values alone took 2^15 points x 64 entries x 8 bytes per chunk
    g = Grid((46, 46, 46), (1.0, 1.0, 1.0))
    f = ScalarField(g, np.random.default_rng(14).standard_normal(g.shape))
    pts = g.points()
    old_gathered = (1 << 15) * 4**3 * 8
    tracemalloc.start()
    try:
        sample_at(f, pts)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak <= old_gathered


def test_a_batch_measures_each_member_and_names_a_non_finite_one():
    # per-member integrals and max norms have the bits of each member's own
    # call; the finiteness scan of a batch names the first bad member
    g = Grid((8, 6), (2.0, 3.0))
    rng = np.random.default_rng(4)
    members = [VectorField.from_arrays(g, [rng.normal(size=g.shape) for _ in range(2)]) for _ in range(3)]
    batch = stack_members(members)
    assert batch.components[0].batch_shape == (3,)
    assert member_integrals(batch.components[1]) == [integrate(u.components[1]) for u in members]
    assert list(batch.max_norm()) == [u.max_norm() for u in members]
    for view, u in zip(batch.components[0].members(), members):
        assert np.array_equal(view.values, u.components[0].values)
        assert view.values.base is not None      # a view into the batch
    bad = np.ones((3,) + g.shape)
    bad[2, 1, 1] = np.nan
    bad[1, 0, 0] = np.inf
    with pytest.raises(NonFiniteError, match=r"^member 1: field values must be finite$") as info:
        ScalarField(g, bad)
    assert (info.value.member, info.value.detail) == (1, "field values must be finite")
    with pytest.raises(ValueError, match="batched over members"):
        member_integrals(members[0].components[0])
