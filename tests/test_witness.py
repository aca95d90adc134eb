import math
from dataclasses import replace

import numpy as np
import pytest

import spinrep as sr
from spinrep.witness import kinetic_by_spin

from _helpers import cube, family_witness, max_abs_diff, nan_witness, symmetric_rank1

erf = np.vectorize(math.erf)


@pytest.fixture(scope="module")
def pure1():
    # N=1, width 1, no coupling phase: kinetic energy known in closed form
    return symmetric_rank1(48, n_electrons=1, width=1.0, phase_gradient=0.0)


@pytest.fixture(scope="module")
def witness1(pure1):
    return sr.construct_witness(pure1)


@pytest.fixture(scope="module")
def witness48(mixture48):
    return sr.construct_witness(mixture48)


def test_density_roundtrip_single_branch(pure1, witness1):
    assert max_abs_diff(sr.density_of(witness1), pure1) <= 1e-12 * pure1.scale


def test_duplicated_half_branches_reproduce(witness1, pure1):
    b = witness1.branches[0]
    doubled = sr.Witness(
        grid=witness1.grid, n_electrons=1,
        branches=(sr.WitnessBranch(0.5, b.orbitals, b.swapped),
                  sr.WitnessBranch(0.5, b.orbitals, b.swapped)))
    assert max_abs_diff(sr.density_of(doubled), pure1) <= 1e-12 * pure1.scale


def test_kinetic_energy_matches_analytic_orbital(pure1, witness1):
    # independent route: the family of the exact erf phase and the sqrt(rho/2)
    # amplitude, on the same grid
    grid = pure1.grid
    amp = np.sqrt(0.5 * pure1.rho_total.values)
    f_exact = 0.5 * (1.0 + erf(grid.axes[0]))
    manual = family_witness(grid, amp, amp, 0, f_exact, (1,))
    np.testing.assert_allclose(
        sr.kinetic_energy(witness1), sr.kinetic_energy(manual), rtol=1e-9)


def test_kinetic_energy_continuum_limit():
    # T = 3/(2 a^2) + 4 pi^2 int(f'^3) with int(f'^3) = 1/(a^2 pi sqrt(3)); the
    # family's T is taken from its base and phase line, which a stencil on
    # the oscillating orbital would miss by about 1% at 96^3
    r = symmetric_rank1(96, n_electrons=1, width=1.0, phase_gradient=0.0)
    exact = 1.5 + 4.0 * np.pi**2 / (np.pi * np.sqrt(3.0))
    t = sr.kinetic_energy(sr.construct_witness(r))
    assert abs(t - exact) < 2e-4 * exact


def test_kinetic_splits_evenly_for_symmetric_state(witness1):
    t_up, t_dn = kinetic_by_spin(witness1)
    np.testing.assert_allclose(t_up, t_dn, rtol=1e-10)
    np.testing.assert_allclose(t_up + t_dn, sr.kinetic_energy(witness1), rtol=1e-12)


def test_kinetic_quadratic_in_phase_winding():
    # the phase part of T is <k^2> times one integral: families with k = 0, 1
    # and 2 on one real base and phase line give the ratio 4
    r = symmetric_rank1(48, half=10.0, n_electrons=1, width=2.0,
                        phase_gradient=0.0)
    orbs = sr.build_orbitals(r)
    t0, t1, t2 = (
        sr.kinetic_energy(sr.Witness(grid=r.grid, n_electrons=1, branches=(
            sr.WitnessBranch(1.0, replace(orbs, orbitals=replace(orbs.orbitals, ks=(k,)))),)))
        for k in (0, 1, 2))
    ratio = (t2 - t0) / (t1 - t0)
    assert abs(ratio - 4.0) < 1e-10


# -- occupation spectrum ---------------------------------------------------------


def test_occupations_pure_state(witness1):
    # the symmetric pure state splits into four branches whose orbitals all
    # describe the same state (up to the phase axis, which can tie-break
    # differently between branches); one direction carries ~all the weight
    occ = sr.occupation_spectrum(witness1)
    assert occ.shape == (len(witness1.branches),)
    assert occ.min() >= -1e-8
    assert occ.max() <= 1.0 + 1e-8
    np.testing.assert_allclose(occ.sum(), 1.0, rtol=1e-8)
    assert occ[0] > 0.9


def test_occupations_bounded_for_mixture(witness48):
    occ = sr.occupation_spectrum(witness48)
    assert occ.shape == (4,)
    assert occ.min() >= -1e-8
    assert occ.max() <= 1.0 + 1e-8
    np.testing.assert_allclose(occ.sum(), 2.0, rtol=1e-6)


def test_occupations_stay_bounded_on_coarse_grid():
    # wide state on a deliberately coarse grid: the Pauli ceiling must hold
    # even when individual overlaps carry visible quadrature error (the full
    # pipeline would honestly report indeterminate here, so build directly)
    r = symmetric_rank1(16, n_electrons=1, width=1.8, phase_gradient=0.5)
    orbs = sr.build_orbitals(r)
    w = sr.Witness(grid=r.grid, n_electrons=1,
                   branches=(sr.WitnessBranch(1.0, orbs),))
    occ = sr.occupation_spectrum(w)
    assert occ.max() <= 1.0 + 1e-8
    assert occ.min() >= -1e-8


# -- verification ------------------------------------------------------------------


def test_verify_passes(mixture48, witness48):
    report = sr.verify(witness48, mixture48)
    assert report.passed
    assert report.mismatch <= 1e-10
    assert abs(report.weight_sum - 1.0) <= 1e-12
    names = [c.name for c in report.checks]
    assert names == ["density_match", "orbital_gram", "weight_sum",
                     "kinetic_finite", "kinetic_bounds"]


def test_verify_kinetic_bounds_details(mixture48, witness48):
    report = sr.verify(witness48, mixture48)
    cond = report["kinetic_bounds"]
    for key in ("sqrt_rho_up_h1", "sqrt_rho_dn_h1", "sigma_grad_over_rho",
                "sqrtdet_grad_over_rho"):
        lhs, rhs = cond.details[f"{key}_lhs"], cond.details[f"{key}_rhs"]
        assert lhs <= rhs * 1.05
    assert report.kinetic_total == report.kinetic_up + report.kinetic_dn


def test_verify_to_text(mixture48, witness48):
    text = sr.verify(witness48, mixture48).to_text()
    assert "density_match" in text
    assert "overall: pass" in text


def test_verify_flags_corrupted_weights(mixture48, witness48):
    bad = sr.Witness(
        grid=witness48.grid, n_electrons=2,
        branches=tuple(sr.WitnessBranch(0.9 * b.weight, b.orbitals, b.swapped)
                       for b in witness48.branches))
    report = sr.verify(bad, mixture48)
    assert not report.passed
    assert report["weight_sum"].verdict == "fail"
    assert report["density_match"].verdict == "fail"


def test_verify_flags_corrupted_orbital(mixture48, witness48):
    b0 = witness48.branches[0]
    orb0 = b0.orbitals.orbitals[0]
    tampered = sr.Spinor(
        up=sr.ComplexField(witness48.grid, 1.001 * orb0.up.values),
        dn=orb0.dn)
    orbs = sr.OrbitalSet(grid=witness48.grid,
                         orbitals=(tampered,) + b0.orbitals.orbitals[1:])
    bad = sr.Witness(
        grid=witness48.grid, n_electrons=2,
        branches=(sr.WitnessBranch(b0.weight, orbs, b0.swapped),)
        + witness48.branches[1:])
    report = sr.verify(bad, mixture48)
    assert not report.passed
    assert report["orbital_gram"].verdict == "fail"


def test_verify_reports_a_non_finite_witness_density():
    w, target = nan_witness()
    report = sr.verify(w, target)
    assert report.verdict == "fail"
    for name in ("density_match", "orbital_gram", "kinetic_finite", "kinetic_bounds"):
        assert report[name].verdict == "fail"
    assert report["weight_sum"].verdict == "pass"
    assert "overall: fail" in report.to_text()


def test_reconstruction_error_of_a_non_finite_witness_is_nan():
    w, target = nan_witness()
    assert np.isnan(sr.reconstruction_error(w.branches[0].orbitals.orbitals, target))
    w, target = nan_witness(np.inf)
    with np.errstate(invalid="ignore"):
        error = sr.reconstruction_error(w.branches[0].orbitals.orbitals, target)
    assert not np.isfinite(error)


def test_verify_rejects_grid_mismatch(witness48):
    other = sr.gaussian_diagonal(cube(32), 2)
    with pytest.raises(ValueError):
        sr.verify(witness48, other)


def test_verify_rejects_electron_mismatch(witness48, mixture48):
    other = sr.SpinDensityField(
        rho_up=mixture48.rho_up, rho_dn=mixture48.rho_dn,
        sigma=mixture48.sigma, n_electrons=3)
    with pytest.raises(ValueError):
        sr.verify(witness48, other)


def test_orbitals_on_another_grid_are_refused():
    # a one-orbital witness on a box of +-6 under a set, and a target, of +-8
    r = symmetric_rank1(32, half=6.0, n_electrons=1, width=1.0, phase_gradient=0.0)
    family = sr.build_orbitals(r).orbitals
    with pytest.raises(ValueError, match="different grid"):
        sr.OrbitalSet(grid=cube(32), orbitals=family)
    with pytest.raises(ValueError, match="different grid"):
        sr.OrbitalSet(grid=cube(32), orbitals=(family[0],))
    sr.OrbitalSet(grid=r.grid, orbitals=(family[0],))  # its own grid is accepted


def test_spinor_components_share_one_grid():
    up = sr.ComplexField(cube(8, 6.0), np.zeros((8, 8, 8), complex))
    dn = sr.ComplexField(cube(8), np.zeros((8, 8, 8), complex))
    with pytest.raises(ValueError, match="different grids"):
        sr.Spinor(up=up, dn=dn)


def test_witness_validates_branch_shapes(witness1, pure1):
    with pytest.raises(ValueError):
        sr.Witness(grid=witness1.grid, n_electrons=1, branches=())
    # orbital count must match the electron count
    with pytest.raises(ValueError):
        sr.Witness(grid=witness1.grid, n_electrons=2,
                   branches=(sr.WitnessBranch(1.0, witness1.branches[0].orbitals),))
