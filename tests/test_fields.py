import numpy as np
import pytest

import spinrep as sr
from spinrep import fields
from spinrep.fields import boundary_max, weighted_gradient_l1

from _helpers import cube, gaussian_values, kernel_derivatives


def test_grid_geometry():
    grid = sr.Grid3((8, 10, 12), (-1.0, 0.0, 2.0, 1.0, 5.0, 8.0))
    np.testing.assert_allclose(grid.spacing, (2 / 7, 5 / 9, 6 / 11), rtol=1e-15)
    assert grid.npoints == 8 * 10 * 12
    assert grid.axes[1][0] == 0.0 and grid.axes[1][-1] == 5.0
    # trapezoid weights resolve the exact box volume
    np.testing.assert_allclose(sr.integrate_values(grid, np.ones(grid.dims)), 2.0 * 5.0 * 6.0,
                               rtol=1e-13)


@pytest.mark.parametrize("dims", [(3, 8, 8), (8, 0, 8)])
def test_grid_rejects_too_few_nodes(dims):
    with pytest.raises(ValueError):
        sr.Grid3(dims, (-1, -1, -1, 1, 1, 1))


def test_grid_rejects_inverted_box():
    with pytest.raises(ValueError):
        sr.Grid3((8, 8, 8), (-1, -1, -1, 1, -2, 1))


def test_field_arrays_are_read_only(grid32):
    f = sr.ScalarField(grid32, gaussian_values(grid32))
    with pytest.raises(ValueError):
        f.values[0, 0, 0] = 1.0


def test_field_accepts_flat_input(grid32):
    vals = gaussian_values(grid32)
    f = sr.ScalarField(grid32, vals.ravel())
    assert f.values.shape == grid32.dims
    np.testing.assert_array_equal(f.values, vals)


def test_field_rejects_wrong_size(grid32):
    with pytest.raises(ValueError):
        sr.ScalarField(grid32, np.zeros((4, 4, 4)))


def test_gradient_exact_on_affine(grid32):
    x, y, z = grid32.meshgrid()
    gsq = sr.grad_magnitude_sq(grid32, 2.0 * x - 3.0 * y + 0.5 * z)
    np.testing.assert_allclose(gsq, 2.0**2 + 3.0**2 + 0.5**2, atol=1e-12)


def test_gradient_order4_exact_on_quartic_interior():
    grid = cube(16, 2.0)
    x, _, _ = grid.meshgrid()
    gsq = sr.grad_magnitude_sq(grid, x**4 - 2.0 * x**3)
    exact = 4.0 * x**3 - 6.0 * x**2
    np.testing.assert_allclose(np.sqrt(gsq[2:-2]), np.abs(exact[2:-2]), atol=1e-10)


def test_gradient_fourth_order_convergence():
    # gaussian: max-norm error of |grad f| should shrink ~h^4 as h halves
    errs = []
    for n in (33, 65):
        grid = cube(n)
        vals = gaussian_values(grid, width=1.5)
        x, y, z = grid.meshgrid()
        exact = 2.0 * np.sqrt(x * x + y * y + z * z) / 1.5**2 * vals
        errs.append(np.max(np.abs(np.sqrt(sr.grad_magnitude_sq(grid, vals)) - exact)))
    order = np.log2(errs[0] / errs[1])
    assert 3.5 < order < 4.5


def test_gradient_second_order_convergence():
    # the one-sided closure on the boundary planes is second order: where the
    # field does not vanish there, the max-norm error of |grad f| shrinks ~h^2
    errs = []
    for n in (25, 49):
        grid = cube(n, 1.0)
        x, y, z = grid.meshgrid()
        vals = np.exp(0.6 * x - 0.4 * y + 0.2 * z)
        exact = np.sqrt(0.6**2 + 0.4**2 + 0.2**2) * vals
        errs.append(np.max(np.abs(np.sqrt(sr.grad_magnitude_sq(grid, vals)) - exact)))
    ratio = errs[0] / errs[1]
    assert 3.2 < ratio < 5.5


def test_gradient_order4_beats_order2():
    # the kernel's x derivative against a second-order central difference
    grid = cube(32)
    f = sr.ScalarField(grid, gaussian_values(grid, width=1.5))
    x, _, _ = grid.meshgrid()
    exact = -2.0 * x / 1.5**2 * f.values
    err2 = np.max(np.abs(np.gradient(f.values, grid.spacing[0], axis=0, edge_order=2) - exact))
    err4 = np.max(np.abs(kernel_derivatives(grid, f.values)[0] - exact))
    assert err4 < 0.2 * err2


def test_gradient_rejects_bad_order(grid32):
    for order in (2, 3):
        with pytest.raises(ValueError):
            sr.grad_magnitude_sq(grid32, gaussian_values(grid32), order)


def test_integrate_unit_gaussian(grid32):
    f = sr.ScalarField(grid32, gaussian_values(grid32))
    assert abs(sr.integrate(f) - 1.0) < 1e-10


def test_integrate_complex(grid32):
    g = gaussian_values(grid32)
    f = sr.ComplexField(grid32, (1.0 + 2.0j) * g)
    val = sr.integrate(f)
    assert isinstance(val, complex)
    np.testing.assert_allclose(val, 1.0 + 2.0j, rtol=1e-10)


def test_grad_magnitude_sq_matches_components(grid32):
    vals = gaussian_values(grid32, width=1.5)
    gx, gy, gz = kernel_derivatives(grid32, vals)
    np.testing.assert_allclose(
        sr.grad_magnitude_sq(grid32, vals, 4), gx**2 + gy**2 + gz**2, rtol=1e-14)


def test_h1_seminorm_gaussian_oracle():
    # int |grad sqrt(rho)|^2 = 3N/(2a^2) for rho = N g_a
    grid = cube(48)
    vals = np.sqrt(2.0 * gaussian_values(grid))
    assert abs(sr.h1_seminorm(grid, vals) - 3.0) < 0.015


def test_lp_norm_basics(grid32):
    g = gaussian_values(grid32)
    n1 = sr.lp_norm(grid32, g, 1.0)
    assert abs(n1 - 1.0) < 1e-10
    # p-homogeneity
    n32 = sr.lp_norm(grid32, g, 1.5)
    scaled = sr.lp_norm(grid32, 3.0 * g, 1.5)
    np.testing.assert_allclose(scaled, 3.0 * n32, rtol=1e-12)
    with pytest.raises(ValueError):
        sr.lp_norm(grid32, g, 0.5)


def test_weighted_gradient_l1_analytic():
    # int |grad rho|^2 / rho = 6N/a^2 for rho = N g_a
    grid = cube(48)
    rho = 2.0 * gaussian_values(grid)
    f = sr.ScalarField(grid, rho)
    w = sr.ScalarField(grid, rho)
    res = weighted_gradient_l1(f, w, floor=1e-12 * rho.max())
    assert abs(res.value - 12.0) < 0.12
    assert res.significant_masked_points == 0


def test_weighted_gradient_l1_floor_insensitive():
    grid = cube(32)
    rho = 2.0 * gaussian_values(grid)
    f = sr.ScalarField(grid, rho)
    w = sr.ScalarField(grid, rho)
    lo = weighted_gradient_l1(f, w, floor=1e-14 * rho.max())
    hi = weighted_gradient_l1(f, w, floor=1e-10 * rho.max())
    # finite-difference leakage in the decaying tail leaves a ~1e-5 relative
    # shell contribution between floor levels; the value itself is stable
    np.testing.assert_allclose(lo.value, hi.value, rtol=1e-4)


def test_weighted_gradient_l1_flags_masked_contribution():
    # an affine profile keeps |grad f| ~ 1 out in the masked tail, which must
    # be reported as significant rather than silently dropped
    grid = cube(32)
    rho = 2.0 * gaussian_values(grid)
    x, _, _ = grid.meshgrid()
    res = weighted_gradient_l1(
        sr.ScalarField(grid, x), sr.ScalarField(grid, rho),
        floor=1e-12 * rho.max())
    assert res.masked_points > 0
    assert res.significant_masked_points > 0
    assert 0.0 < res.masked_fraction < 1.0


def test_weighted_gradient_l1_constant_is_zero(grid32):
    rho = 2.0 * gaussian_values(grid32)
    res = weighted_gradient_l1(
        sr.ScalarField(grid32, np.ones(grid32.dims)),
        sr.ScalarField(grid32, rho), floor=1e-12 * rho.max())
    assert res.value == 0.0
    assert res.significant_masked_points == 0


def test_weighted_gradient_l1_rejects_bad_floor(grid32):
    f = sr.ScalarField(grid32, gaussian_values(grid32))
    with pytest.raises(ValueError):
        weighted_gradient_l1(f, f, floor=0.0)


def test_read_only_input_is_kept_without_a_copy(grid32):
    for cls, dtype in ((sr.ScalarField, np.float64), (sr.ComplexField, np.complex128)):
        arr = np.ones(grid32.dims, dtype=dtype)
        arr.flags.writeable = False
        assert cls(grid32, arr).values is arr
        flat = arr.reshape(-1)
        assert np.shares_memory(cls(grid32, flat).values, arr)


def test_bytes_backed_read_only_input_is_kept(grid32):
    arr = np.frombuffer(np.ones(grid32.npoints).tobytes()).reshape(grid32.dims)
    assert sr.ScalarField(grid32, arr).values is arr


def test_memory_mapped_input_is_copied(grid32, tmp_path):
    path = tmp_path / "ones.npy"
    np.save(path, np.ones(grid32.dims))
    arr = np.load(path, mmap_mode="r")  # the file may be rewritten by anyone
    f = sr.ScalarField(grid32, arr)
    assert not np.shares_memory(f.values, arr)
    del arr


def test_writable_input_is_copied(grid32):
    arr = np.ones(grid32.dims)
    f = sr.ScalarField(grid32, arr)
    arr[0, 0, 0] = 5.0  # a later write by the caller does not reach the field
    assert f.values[0, 0, 0] == 1.0
    assert not f.values.flags.writeable


@pytest.mark.parametrize("make", [
    lambda a: a[:, :, ::-1],            # not C-contiguous
    lambda a: a.astype(np.float32),     # another dtype
    lambda a: a.view(),                 # read-only view of writable memory
    # read-only arrays all the way down, over a writable bytearray
    lambda a: sr.fields.frozen(np.frombuffer(bytearray(a.tobytes()))).reshape(a.shape),
])
def test_input_that_is_not_frozen_is_copied(grid32, make):
    base = np.ones(grid32.dims)
    arr = make(base)
    arr.flags.writeable = False
    f = sr.ScalarField(grid32, arr)
    assert not np.shares_memory(f.values, arr)
    assert f.values.dtype == np.float64 and f.values.flags.c_contiguous


def test_boundary_max(grid32):
    f = sr.ScalarField(grid32, gaussian_values(grid32))
    b = boundary_max(f)
    assert 0.0 < b < 1e-25
    c = sr.ScalarField(grid32, np.full(grid32.dims, 0.7))
    assert boundary_max(c) == 0.7


@pytest.mark.parametrize("shape", [(4, 4, 4), (45, 38, 51), (96, 96, 96)])
# None: the default slab size; 64 bytes hold less than one row of any grid
@pytest.mark.parametrize("slab_bytes", [None, 64])
@pytest.mark.parametrize("workers", [1, 2, 3])
def test_blockwise_slabs_cover_every_row_once(monkeypatch, shape, slab_bytes, workers):
    if slab_bytes is not None:
        monkeypatch.setattr(fields, "_SLAB_BYTES", slab_bytes)
    monkeypatch.setattr(fields, "_cpus", lambda: workers)
    covered = np.zeros(shape[0], dtype=int)
    slabs = []

    def step(lo, hi, *bufs):
        covered[lo:hi] += 1
        slabs.append((hi - lo, [(b.shape, b.dtype) for b in bufs]))

    fields.blockwise(shape, step, scratch=2)
    assert np.all(covered == 1)
    heights = sorted(n for n, _ in slabs)
    rows, row_bytes = heights[-1], 8 * shape[1] * shape[2]
    if slab_bytes is None:  # as many whole rows as _SLAB_BYTES holds
        assert rows * row_bytes <= fields._SLAB_BYTES < (rows + 1) * row_bytes or rows == shape[0]
    else:
        assert rows == 1
    assert heights[1:] == [rows] * (len(heights) - 1)  # only one slab may be shorter
    assert all(bufs == [((n,) + shape[1:], np.float64)] * 2 for n, bufs in slabs)
