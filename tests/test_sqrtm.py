import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import spinrep as sr
from spinrep.tolerances import REFINE_THRESHOLD

from _helpers import (
    cube,
    field_from_arrays,
    gaussian_values,
    max_abs_diff,
    random_psd_arrays,
    squared,
)


def constant_field(up, dn, sigma):
    grid = cube(4, 1.0)
    return field_from_arrays(
        grid,
        np.full(grid.dims, float(up)),
        np.full(grid.dims, float(dn)),
        np.full(grid.dims, complex(sigma)),
    )


def assert_constant(field, value, tol=1e-14):
    np.testing.assert_allclose(field.values, value, rtol=0, atol=tol)


def test_sqrt_of_scaled_identity():
    sq = sr.sqrt_field(constant_field(2.0, 2.0, 0.0))
    assert_constant(sq.r_up, np.sqrt(2.0))
    assert_constant(sq.r_dn, np.sqrt(2.0))
    assert_constant(sq.s, 0.0)


def test_sqrt_of_ones_matrix():
    # [[1,1],[1,1]] has sqrt [[1,1],[1,1]]/sqrt(2)
    sq = sr.sqrt_field(constant_field(1.0, 1.0, 1.0))
    inv = 1.0 / np.sqrt(2.0)
    assert_constant(sq.r_up, inv)
    assert_constant(sq.r_dn, inv)
    assert_constant(sq.s, inv)


def test_sqrt_of_diagonal():
    sq = sr.sqrt_field(constant_field(9.0, 1.0, 0.0))
    assert_constant(sq.r_up, 3.0)
    assert_constant(sq.r_dn, 1.0)
    assert_constant(sq.s, 0.0)


def test_sqrt_of_null_det_complex():
    # [[4, 2i], [-2i, 1]]: det 0, sqrt = R / sqrt(5)
    sq = sr.sqrt_field(constant_field(4.0, 1.0, 2.0j))
    inv = 1.0 / np.sqrt(5.0)
    assert_constant(sq.r_up, 4.0 * inv)
    assert_constant(sq.r_dn, 1.0 * inv)
    assert_constant(sq.s, 2.0j * inv)


def test_sqrt_of_zero_field():
    sq = sr.sqrt_field(constant_field(0.0, 0.0, 0.0))
    assert np.all(sq.r_up.values == 0.0)
    assert np.all(sq.r_dn.values == 0.0)
    assert np.all(sq.s.values == 0.0)


def test_reconstruct_random_psd():
    rng = np.random.default_rng(7)
    grid = cube(8, 1.0)
    up, dn, sigma = random_psd_arrays(grid.dims, rng)
    r = field_from_arrays(grid, up, dn, sigma)
    back = squared(sr.sqrt_field(r))
    assert max_abs_diff(back, r) <= 1e-12 * r.scale


def test_reconstruct_mixture(mixture32):
    back = squared(sr.sqrt_field(mixture32))
    assert max_abs_diff(back, mixture32) <= 1e-12 * mixture32.scale


def test_sqrt_entries_are_psd(mixture32):
    sq = sr.sqrt_field(mixture32)
    assert sq.r_up.values.min() >= 0.0
    assert sq.r_dn.values.min() >= 0.0
    det = sq.r_up.values * sq.r_dn.values - np.abs(sq.s.values) ** 2
    assert det.min() >= -1e-14 * mixture32.scale


def test_sqrt_det_identity(mixture32):
    # det(sqrt R)^2 == det R wherever det is resolved
    sq = sr.sqrt_field(mixture32)
    det_sq = sq.r_up.values * sq.r_dn.values - np.abs(sq.s.values) ** 2
    det = sr.det_field(mixture32).values
    m = det > 1e-6 * mixture32.scale**2
    np.testing.assert_allclose(det_sq[m] ** 2, det[m], rtol=1e-10)


def test_sqrt_floor_zeroes_unresolved_points(diagonal32):
    # plant an exactly-zero pocket; the sqrt must vanish there
    up = diagonal32.rho_up.values.copy()
    up[:4, :4, :4] = 0.0
    r = field_from_arrays(diagonal32.grid, up, up, np.zeros_like(up, dtype=complex))
    sq = sr.sqrt_field(r)
    assert np.all(sq.r_up.values[:4, :4, :4] == 0.0)
    assert np.all(sq.r_dn.values[:4, :4, :4] == 0.0)


def test_sqrt_rejects_negative_density(diagonal32):
    up = diagonal32.rho_up.values.copy()
    up[16, 16, 16] = -1e-3
    r = field_from_arrays(diagonal32.grid, up, diagonal32.rho_dn.values,
                          np.zeros_like(up, dtype=complex))
    with pytest.raises(sr.NotPositiveSemidefiniteError):
        sr.sqrt_field(r)


def test_sqrt_rejects_oversized_coupling(diagonal32):
    sigma = 1.01 * np.sqrt(diagonal32.rho_up.values * diagonal32.rho_dn.values)
    r = field_from_arrays(diagonal32.grid, diagonal32.rho_up.values,
                          diagonal32.rho_dn.values, sigma)
    with pytest.raises(sr.NotPositiveSemidefiniteError):
        sr.sqrt_field(r)


def direct_eigenvalues(r):
    """Quadratic-formula eigensolve, kept independent of the sqrt route."""
    up, dn = r.rho_up.values, r.rho_dn.values
    s2 = np.abs(r.sigma.values) ** 2
    half_gap = np.sqrt(0.25 * (up - dn) ** 2 + s2)
    mean = 0.5 * (up + dn)
    return mean + half_gap, mean - half_gap


def test_eigen_densities_match_direct_solve(mixture32):
    eig = sr.eigen_densities(mixture32)
    plus, minus = direct_eigenvalues(mixture32)
    atol = 1e-10 * mixture32.scale
    np.testing.assert_allclose(eig.rho_plus.values, plus, rtol=0, atol=atol)
    np.testing.assert_allclose(eig.rho_minus.values, minus, rtol=0, atol=atol)


def test_eigen_densities_diagonal_case(grid32):
    # decoupled spins: eigenvalues are just the ordered densities
    up = 2.0 * gaussian_values(grid32, width=1.0)
    dn = 1.0 * gaussian_values(grid32, width=1.0)
    r = field_from_arrays(grid32, up, dn, np.zeros_like(up, dtype=complex))
    eig = sr.eigen_densities(r)
    atol = 1e-13 * r.scale
    np.testing.assert_allclose(eig.rho_plus.values, up, rtol=0, atol=atol)
    np.testing.assert_allclose(eig.rho_minus.values, dn, rtol=0, atol=atol)


def test_eigen_sum_and_product_identities(mixture32):
    eig = sr.eigen_densities(mixture32)
    total = eig.rho_plus.values + eig.rho_minus.values
    np.testing.assert_allclose(total, mixture32.rho_total.values, rtol=0,
                               atol=1e-12 * mixture32.scale)
    prod = eig.rho_plus.values * eig.rho_minus.values
    np.testing.assert_allclose(prod, sr.det_field(mixture32).values, rtol=0,
                               atol=1e-12 * mixture32.scale**2)


def test_eigen_rank1_collapses(rank1_32):
    eig = sr.eigen_densities(rank1_32)
    assert eig.rho_minus.values.max() <= 1e-13 * rank1_32.scale


def test_eigen_regularity_check_passes(mixture32, mixture48):
    def seminorms(r):
        eig = sr.eigen_densities(r)
        return [sr.h1_seminorm(r.grid, np.sqrt(f.values)) for f in (eig.rho_plus, eig.rho_minus)]

    values = seminorms(mixture32)
    # finite, and stable under refinement
    for coarse, fine in zip(values, seminorms(mixture48)):
        assert np.isfinite(coarse)
        assert abs(fine - coarse) <= REFINE_THRESHOLD * max(coarse, fine)
    # values agree with the direct eigensolve route
    plus, minus = direct_eigenvalues(mixture32)
    for value, lam in zip(values, (plus, minus)):
        oracle = sr.h1_seminorm(mixture32.grid, np.sqrt(np.clip(lam, 0.0, None)))
        np.testing.assert_allclose(value, oracle, rtol=1e-8)


@settings(max_examples=60, deadline=None)
@given(
    up=st.floats(0.0, 10.0),
    dn=st.floats(0.0, 10.0),
    t=st.floats(0.0, 1.0),
    phase=st.floats(0.0, 2 * np.pi),
)
def test_sqrt_squares_back_pointwise(up, dn, t, phase):
    sigma = t * np.sqrt(up * dn) * np.exp(1j * phase)
    r = constant_field(up, dn, sigma)
    back = squared(sr.sqrt_field(r))
    scale = max(r.scale, 1.0)
    assert max_abs_diff(back, r) <= 1e-13 * scale
