import numpy as np
import pytest

import spinrep as sr

from _helpers import cube, field_from_arrays, gaussian_values, max_abs_diff


def constant_field(up, dn, sigma, n_electrons=2):
    grid = cube(4, 1.0)
    return field_from_arrays(
        grid,
        np.full(grid.dims, up),
        np.full(grid.dims, dn),
        np.full(grid.dims, sigma, dtype=complex),
        n_electrons=n_electrons,
    )


def test_det_constant_oracle():
    r = constant_field(1.0, 1.0, 0.5j)
    det = sr.det_field(r)
    np.testing.assert_allclose(det.values, 0.75, rtol=1e-15)


def test_det_clamps_roundoff_negatives(diagonal32):
    # |sigma|^2 = rho_up rho_dn (1+eps) with eps far below the clamp threshold
    eps = 2e-12
    sigma = np.sqrt(diagonal32.rho_up.values * diagonal32.rho_dn.values * (1 + eps))
    r = field_from_arrays(
        diagonal32.grid, diagonal32.rho_up.values, diagonal32.rho_dn.values, sigma)
    det = sr.det_field(r)
    assert det.values.min() == 0.0


def test_det_preserves_real_violations(diagonal32):
    eps = 1e-6
    sigma = np.sqrt(diagonal32.rho_up.values * diagonal32.rho_dn.values * (1 + eps))
    r = field_from_arrays(
        diagonal32.grid, diagonal32.rho_up.values, diagonal32.rho_dn.values, sigma)
    assert sr.det_field(r).values.min() < -1e-8 * r.scale**2


def test_trace_integral(diagonal32):
    assert abs(sr.trace_integral(diagonal32) - 2.0) < 1e-10


def test_rho_total_and_scale(diagonal32):
    np.testing.assert_array_equal(
        diagonal32.rho_total.values,
        diagonal32.rho_up.values + diagonal32.rho_dn.values)
    assert diagonal32.scale == diagonal32.rho_total.values.max()


def test_spin_swap_exchanges_and_conjugates(mixture32):
    swapped = sr.spin_swap(mixture32)
    np.testing.assert_array_equal(swapped.rho_up.values, mixture32.rho_dn.values)
    np.testing.assert_array_equal(swapped.rho_dn.values, mixture32.rho_up.values)
    np.testing.assert_array_equal(swapped.sigma.values, np.conj(mixture32.sigma.values))


def test_spin_swap_reuses_rho_total(mixture32):
    total, scale = mixture32.rho_total, mixture32.scale
    swapped = sr.spin_swap(mixture32)
    assert swapped.rho_total is total
    assert swapped.scale == scale
    # the sum the swapped field would have formed has the same bits
    fresh = sr.SpinDensityField(swapped.rho_up, swapped.rho_dn, swapped.sigma,
                                swapped.n_electrons)
    assert np.array_equal(fresh.rho_total.values, total.values)


def test_spin_swap_involution(mixture32):
    assert max_abs_diff(sr.spin_swap(sr.spin_swap(mixture32)), mixture32) == 0.0


def test_spin_swap_preserves_det(mixture32):
    d1 = sr.det_field(mixture32).values
    d2 = sr.det_field(sr.spin_swap(mixture32)).values
    np.testing.assert_allclose(d2, d1, rtol=0, atol=1e-15 * mixture32.scale**2)


def test_field_rejects_grid_mismatch(grid32):
    g = gaussian_values(grid32)
    other = cube(16)
    with pytest.raises(ValueError):
        sr.SpinDensityField(
            rho_up=sr.ScalarField(grid32, g),
            rho_dn=sr.ScalarField(other, gaussian_values(other)),
            sigma=sr.ComplexField(grid32, np.zeros(grid32.dims, dtype=np.complex128)),
            n_electrons=2,
        )


@pytest.mark.parametrize("n", [0, -1])
def test_field_rejects_bad_electron_count(grid32, n):
    g = gaussian_values(grid32)
    with pytest.raises(ValueError):
        sr.SpinDensityField(
            rho_up=sr.ScalarField(grid32, g),
            rho_dn=sr.ScalarField(grid32, g),
            sigma=sr.ComplexField(grid32, np.zeros(grid32.dims, dtype=np.complex128)),
            n_electrons=n,
        )
