import numpy as np
import pytest

from stochmap.grid import Grid, NonFiniteError, ScalarField, VectorField, stack_members
from stochmap.calculus import (
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
    # reference: the same (v[k+1] - v[k-1]) / (2h) built from rolled copies;
    # the slice kernel performs the identical operations, so equality is exact
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
        ref = (np.roll(v, -1, axis=axis) - np.roll(v, 1, axis=axis)) / (2.0 * g.spacing[axis])
        assert np.array_equal(centered_difference(v, axis, g), ref)


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
