"""Discrete calculus on periodic grids.

Centered second-order stencils throughout, all from the one periodic kernel
`centered_difference` on raw arrays.  On a C-contiguous input a call costs
one subtraction over the flattened array, two periodic slices for the first
and last node and one multiply by 1/(2h), with no axis reordering and no copy;
any other input is made C-contiguous first.  A grid axis is counted from the
trailing end of the array (array axis
``v.ndim - grid.dim + axis``), so an array with a leading member axis (see
`grid`) is differenced member by member, with the bits of each member's own
call.  The summation-by-parts identity

    sum_k u_k (D v)_k = -sum_k (D u)_k v_k

holds to round-off for the centered difference D, which is what makes the
flux-form conservation checks close to round-off.

Point evaluation (`sample_at`) is separable Catmull-Rom cubic interpolation;
it reproduces node values (exactly in exact arithmetic: ``x_k / h`` need not
round to ``k``) and is fourth-order accurate at cell midpoints.  Each point
set gets one stencil (`_stencil`), laid out entry-major: per axis the
Catmull-Rom weights, shape (4, N), and the wrapped base node, folded into one
flat index per stencil entry, shape (4**dim, N), into the field padded
periodically by one node before and two after each axis.  Every field
sampled, a scalar or each component of a vector field, is padded once per
call and gathered through that index with one flat `take`.  The contraction
(`_contract`) then forms each entry's ``(v * w0[a]) * w1[b] [* w2[c]]`` in
one reused buffer and adds it to a sum started from +0.0, entry by entry in
C order of (a, b[, c]); in 1D it adds the four products as
``(p0 + p2) + (p1 + p3)``.  Those are the products and the summation order
of numpy's `einsum` over a point-major gather, so every result keeps the
bits of that kernel.  Points are taken in chunks of a fixed number of stencil
entries (2^19: 2^15 points in 2D, 8192 in 3D), which bounds the index and
gather temporaries.  A point's bits do not depend on its chunk, so the
members of an ensemble are sampled by one call: one field at the members'
point sets concatenated, or a field batched over members at one point set
per member, each member's flat index offset by the size of its padded array.
"""
from __future__ import annotations

import itertools

import numpy as np

from .grid import Array, Grid, ScalarField, VectorField

# Stencil entries per interpolation chunk: 2^15 points in 2D, 8192 in 3D.  A
# chunk's flat index and gathered values (8 MB together) stay under the
# gathered array of a 2^15-point 3D chunk gathered by fancy indexing.
_STENCIL_ENTRIES = 1 << 19


def _axis_slices(axis: int) -> tuple[tuple[slice, ...], ...]:
    """Index tuples selecting, along array axis ``axis``, the kernel's four
    end-node ranges: 1:2, -1:, :1 (first node), -2:-1 (last node)."""
    lead = (slice(None),) * axis
    ranges = ((1, 2), (-1, None), (None, 1), (-2, -1))
    return tuple(lead + (slice(*r),) for r in ranges)


# grids have 1 to 3 axes, and arrays at most one leading member axis
_SLICES = tuple(_axis_slices(axis) for axis in range(4))


def centered_difference(v: Array, axis: int, grid: Grid) -> Array:
    """Periodic (v[k+1] - v[k-1]) * (0.5/h) along grid axis ``axis`` of a raw
    array, subtracted in float64; a leading member axis rides along.  The
    multiply is within 1 ulp of a division by 2h.

    The input, made C-contiguous first, is differenced on its flattened
    values, ``s`` elements apart for an axis stride of ``s`` elements.  That
    one subtraction mixes two rows only at the first and last node along the
    axis, which the two periodic slices then overwrite."""
    a = v.ndim - grid.dim + axis
    v = np.ascontiguousarray(v)
    out = np.empty(v.shape)
    second, last, first, next_to_last = _SLICES[a]
    src, dst = v, out
    s = v.strides[a] // v.itemsize
    flat, flat_out = v.reshape(-1), out.reshape(-1)
    np.subtract(flat[2 * s:], flat[:-2 * s], out=flat_out[s:-s], dtype=np.float64)
    if s == 1:
        # the trailing axis: each end node is one strided run of the flat array
        n = v.shape[-1]
        src, dst = flat, flat_out
        second, last, first, next_to_last = (slice(1, None, n), slice(n - 1, None, n),
                                             slice(0, None, n), slice(n - 2, None, n))
    np.subtract(src[second], src[last], out=dst[first], dtype=np.float64)
    np.subtract(src[first], src[next_to_last], out=dst[last], dtype=np.float64)
    out *= 0.5 / grid.spacing[axis]
    return out


def derivative(f: ScalarField, axis: int) -> ScalarField:
    """Centered first derivative along ``axis`` with periodic wraparound."""
    _check_axis(f.grid, axis)
    return f.with_values(centered_difference(f.values, axis, f.grid))


def second_derivative(f: ScalarField, axis_p: int, axis_q: int) -> ScalarField:
    """Composition of centered first differences; symmetric in (p, q)."""
    _check_axis(f.grid, axis_p)
    _check_axis(f.grid, axis_q)
    return derivative(derivative(f, axis_p), axis_q)


def gradient(f: ScalarField) -> VectorField:
    return VectorField(f.grid, tuple(derivative(f, p) for p in range(f.grid.dim)))


def divergence(v: VectorField) -> ScalarField:
    out = derivative(v.components[0], 0)
    for p in range(1, v.dim):
        out = out + derivative(v.components[p], p)
    return out


def curl(v: VectorField):
    """2D: scalar curl dU_y/dx - dU_x/dy.  3D: the usual curl vector."""
    if v.dim == 2:
        return derivative(v.components[1], 0) - derivative(v.components[0], 1)
    if v.dim == 3:
        cx, cy, cz = v.components
        return VectorField(
            v.grid,
            (
                derivative(cz, 1) - derivative(cy, 2),
                derivative(cx, 2) - derivative(cz, 0),
                derivative(cy, 0) - derivative(cx, 1),
            ),
        )
    raise ValueError("curl needs a 2D or 3D vector field")


def integrate(f: ScalarField) -> float:
    """Domain integral: node sum times cell volume (exact trapezoid on the torus)."""
    f.require_single_member("integrate")
    return float(f.values.sum() * f.grid.cell_volume)


def member_integrals(f: ScalarField) -> list[float]:
    """`integrate` of each member of a field batched over members, each a sum
    over the member's own contiguous view, with the bits of its own call."""
    if not f.batch_shape:
        raise ValueError("member_integrals takes a field batched over members")
    return [float(v.sum() * f.grid.cell_volume) for v in f.values]


def dot(a: VectorField, b: VectorField) -> ScalarField:
    out = a.components[0] * b.components[0]
    for p in range(1, a.dim):
        out = out + a.components[p] * b.components[p]
    return out


# ---------------------------------------------------------------------------
# point evaluation

def _catmull_rom_weights(t: Array) -> Array:
    """Weights for nodes (-1, 0, 1, 2) at fractional offsets t in [0, 1),
    shape (4,) + t.shape:

        0.5 * (-t + 2 t^2 - t^3),     0.5 * (2 - 5 t^2 + 3 t^3),
        0.5 * (t + 4 t^2 - 3 t^3),    0.5 * (-t^2 + t^3),

    each summed left to right, written in place into the rows.  ``-a + b``
    is computed as ``b - a``, which rounds the same."""
    t2 = t * t
    t3 = t2 * t
    three_t3 = 3.0 * t3
    w = np.empty((4,) + t.shape)
    np.multiply(2.0, t2, out=w[0])
    w[0] -= t
    w[0] -= t3
    np.multiply(5.0, t2, out=w[1])
    np.subtract(2.0, w[1], out=w[1])
    w[1] += three_t3
    np.multiply(4.0, t2, out=w[2])
    np.add(t, w[2], out=w[2])
    w[2] -= three_t3
    np.subtract(t3, t2, out=w[3])
    w *= 0.5
    return w


def sample_at(f: ScalarField | VectorField, points: Array) -> Array:
    """Evaluate ``f`` at arbitrary points (wrapped periodically).

    ``points`` has shape (..., dim); returns shape (...) for a ScalarField
    and (..., dim) for a VectorField, whose components share one stencil.
    A field batched over M members takes one point set per member, points of
    shape (M, N, dim), and samples each member at its own points.

    Per chunk of points, each field is gathered entry-major, shape
    (4**dim, N), and contracted with the weights by `_contract`.
    """
    vector = isinstance(f, VectorField)
    comps = f.components if vector else (f,)
    grid = f.grid
    batch = comps[0].batch_shape
    pts = np.asarray(points, dtype=np.float64)
    if pts.ndim == 0 or pts.shape[-1] != grid.dim:
        raise ValueError(f"points must have {grid.dim} columns")
    if batch and pts.shape[:-2] != batch:
        raise ValueError(f"sample_at takes one member; got a field batched over {batch} and points of shape "
                         f"{pts.shape}, where a batch takes one set per member, ({batch[0]}, N, {grid.dim})")
    lead = pts.shape[:-1]
    pts = pts.reshape(-1, grid.dim)
    padded = [np.pad(c.values, [(0, 0)] * len(batch) + [(1, 2)] * grid.dim, mode="wrap").ravel()
              for c in comps]
    member_size = padded[0].size // batch[0] if batch else 0
    chunk = _STENCIL_ENTRIES // 4**grid.dim
    out = np.empty((pts.shape[0], len(comps)))
    acc, term = np.empty((2, min(chunk, pts.shape[0])))
    for start in range(0, pts.shape[0], chunk):
        sl = slice(start, min(start + chunk, pts.shape[0]))
        # in a batch, point i belongs to member i // N, whose padded array starts at member * member_size
        first = np.arange(sl.start, sl.stop) // lead[-1] * member_size if batch else 0
        lin, wts = _stencil(grid, pts[sl], first)
        n = sl.stop - sl.start
        for k, values in enumerate(padded):
            out[sl, k] = _contract(values.take(lin), wts, acc[:n], term[:n])
    return out.reshape(lead + (len(comps),)) if vector else out[:, 0].reshape(lead)


def _stencil(grid: Grid, pts: Array, first: Array | int = 0) -> tuple[Array, list[Array]]:
    """Each point's stencil, entry-major: the padded flat index of each of the
    4**dim entries, shape (4**dim, N) with the entries (a, b[, c]) in C order,
    and per axis the Catmull-Rom weights, each (4, N).  Entry (a, b, c) is
    weighted by ``wts[0][a] * wts[1][b] * wts[2][c]``.

    Node ``base - 1 + a`` on an axis of n nodes sits at ``mod(base, n) + a``
    in an array padded by one node before and two after; ``first`` is the
    flat index of each point's padded array among those gathered from."""
    lin = np.zeros(pts.shape[0], dtype=np.int64)
    wts = []
    for p in range(grid.dim):
        xi = pts[:, p] / grid.spacing[p]
        base = np.floor(xi).astype(np.int64)
        wts.append(_catmull_rom_weights(xi - base))
        lin = lin * (grid.shape[p] + 3) + base - grid.shape[p] * (base // grid.shape[p])   # mod(base, n)
    lin += first
    padded_shape = tuple(n + 3 for n in grid.shape)
    offsets = np.ravel_multi_index(np.indices((4,) * grid.dim), padded_shape)
    return offsets.reshape(-1, 1) + lin, wts


def _contract(gathered: Array, wts: list[Array], acc: Array, term: Array) -> Array:
    """Sum over the stencil entries of gathered value times weights, into
    ``acc``, with ``term`` (and in 1D ``gathered``) as scratch: the products
    and the order of their sum are those of numpy's `einsum` over the
    point-major layout, so each result keeps its bits.

    In 2D and 3D einsum forms each entry's ``(v * w0[a]) * w1[b] [* w2[c]]``
    and adds it to a sum started from +0.0, entry by entry in C order of
    (a, b[, c]); the +0.0 start turns a sum of -0.0 products into +0.0.  In
    1D its two-operand kernel adds the four products ``p = v * w0`` in two
    lanes of a 128-bit vector, then the lanes: ``(p0 + p2) + (p1 + p3)``,
    onto +0.0."""
    if len(wts) == 1:
        np.multiply(gathered, wts[0], out=gathered)
        np.add(gathered[0], gathered[2], out=acc)
        np.add(gathered[1], gathered[3], out=term)
        acc += term
        acc += 0.0
        return acc
    acc[...] = 0.0
    for e, entry in enumerate(itertools.product(range(4), repeat=len(wts))):
        np.multiply(gathered[e], wts[0][entry[0]], out=term)
        for p in range(1, len(wts)):
            term *= wts[p][entry[p]]
        acc += term
    return acc


def _check_axis(grid: Grid, axis: int) -> None:
    if not 0 <= axis < grid.dim:
        raise ValueError(f"axis {axis} out of range for a {grid.dim}D grid")
