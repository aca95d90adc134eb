import numpy as np
import pytest

import spinrep as sr

from _helpers import cube, max_abs_diff


def test_gaussian_diagonal_normalized(grid32):
    r = sr.gaussian_diagonal(grid32, 2)
    assert abs(sr.trace_integral(r) - 2.0) < 1e-10
    np.testing.assert_array_equal(r.rho_up.values, r.rho_dn.values)
    assert np.all(r.sigma.values == 0.0)


def test_gaussian_diagonal_kinetic_oracle():
    # int |grad sqrt(rho)|^2 = 3N/(2 a^2)
    for n, a, half, expect in ((2, 1.0, 8.0, 3.0), (1, 2.0, 12.0, 0.375)):
        grid = cube(48, half)
        r = sr.gaussian_diagonal(grid, n, width=a)
        vals = np.sqrt(r.rho_total.values)
        assert abs(sr.h1_seminorm(grid, vals) - expect) < 0.01 * expect


def test_gaussian_diagonal_passes_check(grid32):
    assert sr.check(sr.gaussian_diagonal(grid32, 2)).passed


def test_gaussian_diagonal_rejects_tight_box():
    with pytest.raises(sr.GeneratorError):
        sr.gaussian_diagonal(cube(16, 3.0), 2, width=2.0)


def test_gaussian_spinor_normalization(grid32):
    up, dn = sr.gaussian_spinor(grid32, width_up=1.5, spin_fraction=0.3)
    total = sr.integrate_values(grid32, np.abs(up.values) ** 2 + np.abs(dn.values) ** 2)
    np.testing.assert_allclose(total, 1.0, atol=1e-10)
    up_mass = sr.integrate_values(grid32, np.abs(up.values) ** 2)
    np.testing.assert_allclose(up_mass, 0.3, atol=1e-10)


def test_gaussian_spinor_phase_gradient(grid32):
    up, _ = sr.gaussian_spinor(grid32, phase_gradient=0.9)
    x, _, _ = grid32.meshgrid()
    # modulus is phase-free; the phase winds along x at the requested rate
    live = np.abs(up.values) > 1e-8
    angles = np.angle(up.values[live])
    expect = np.angle(np.exp(1j * 0.9 * x[live]))
    np.testing.assert_allclose(angles, expect, atol=1e-10)


def test_rank1_from_orbital_structure(grid32):
    up, dn = sr.gaussian_spinor(grid32, width_up=1.2, spin_fraction=0.5,
                                phase_gradient=0.4)
    r = sr.rank1_from_orbital(up, dn, 2)
    np.testing.assert_allclose(
        r.rho_up.values, 2.0 * np.abs(up.values) ** 2, rtol=1e-13)
    np.testing.assert_allclose(
        r.sigma.values, 2.0 * up.values * np.conj(dn.values), rtol=1e-13)
    # rank-1 by construction
    det = sr.det_field(r).values
    assert np.max(np.abs(det)) <= 1e-14 * r.scale**2
    assert abs(sr.trace_integral(r) - 2.0) < 1e-9


def test_rank1_from_orbital_rejects_unnormalized(grid32):
    up, dn = sr.gaussian_spinor(grid32)
    scaled = sr.ComplexField(grid32, 1.01 * up.values)
    with pytest.raises(sr.GeneratorError):
        sr.rank1_from_orbital(scaled, dn, 2)


def test_full_rank_mixture_uncoupled_matches_diagonal(grid32):
    a = sr.full_rank_mixture(grid32, 2, coupling=0.0)
    b = sr.gaussian_diagonal(grid32, 2)
    assert max_abs_diff(a, b) == 0.0


def test_full_rank_mixture_det_identity(grid32):
    # |sigma|^2 = c^2 rho_up rho_dn pointwise, so det = (1-c^2) rho_up rho_dn
    c = 0.5
    r = sr.full_rank_mixture(grid32, 2, coupling=c, phase_gradient=0.7)
    expect = (1.0 - c * c) * r.rho_up.values * r.rho_dn.values
    np.testing.assert_allclose(sr.det_field(r).values, expect,
                               rtol=0, atol=1e-15 * r.scale**2)


def test_full_rank_mixture_is_admissible(mixture32):
    assert sr.check(mixture32).passed
    assert sr.det_field(mixture32).values.max() > 0.0


def test_full_rank_mixture_asymmetric_widths():
    r = sr.full_rank_mixture(cube(32, 10.0), 2, coupling=0.9, width_up=1.3,
                             width_dn=2.2)
    assert abs(sr.trace_integral(r) - 2.0) < 1e-9
    assert sr.check(r).passed


@pytest.mark.parametrize("coupling", [1.0, -1.0, 1.5])
def test_full_rank_mixture_rejects_unit_coupling(grid32, coupling):
    with pytest.raises(sr.GeneratorError):
        sr.full_rank_mixture(grid32, 2, coupling=coupling)


@pytest.mark.parametrize("fraction", [0.0, 1.0, -0.2])
def test_full_rank_mixture_rejects_degenerate_fraction(grid32, fraction):
    with pytest.raises(sr.GeneratorError):
        sr.full_rank_mixture(grid32, 2, spin_fraction=fraction)
