"""Acceptance suite: the eight headline guarantees, one test each.

Each test prints a single ``ACCEPTANCE <n> <label>: PASS/FAIL`` line directly
to the terminal (bypassing capture) so the final log shows the verdicts at a
glance.  Grids stay at or below 96^3; the timed criteria carry explicit
wall-clock budgets.
"""

import time
from contextlib import contextmanager

import numpy as np
import pytest

import spinrep as sr

from _helpers import (
    cube,
    field_from_arrays,
    gaussian_values,
    kinetic_bound,
    max_abs_diff,
    mixture,
    random_psd_arrays,
    squared,
)


@contextmanager
def criterion(capsys, num, label):
    ok = False
    try:
        yield
        ok = True
    finally:
        with capsys.disabled():
            print(f"\nACCEPTANCE {num} {label}: {'PASS' if ok else 'FAIL'}")


@pytest.fixture(scope="module")
def mix64():
    return mixture(64)


@pytest.fixture(scope="module")
def witness64(mix64):
    return sr.construct_witness(mix64)


def test_criterion_1_sqrt_identity(capsys, mix64):
    with criterion(capsys, 1, "pointwise square-root identity"):
        t0 = time.monotonic()

        # 1000 independent random PSD matrices
        grid = cube(10, 1.0)
        rng = np.random.default_rng(202)
        up, dn, sigma = random_psd_arrays(grid.dims, rng)
        r = field_from_arrays(grid, up, dn, sigma)
        back = squared(sr.sqrt_field(r))
        scale = max(float(np.max(up)), float(np.max(dn)))
        assert max_abs_diff(back, r) <= 1e-10 * scale

        # and the smooth mixture at 64^3
        back = squared(sr.sqrt_field(mix64))
        assert max_abs_diff(back, mix64) <= 1e-10 * mix64.scale

        assert time.monotonic() - t0 < 5.0


def test_criterion_2_eigen_equivalence(capsys, mix64):
    with criterion(capsys, 2, "eigen densities match direct eigensolve"):
        eig = sr.eigen_densities(mix64)
        up = mix64.rho_up.values
        dn = mix64.rho_dn.values
        mean = 0.5 * (up + dn)
        # independent route: quadratic formula for the 2x2 eigenvalues
        gap = np.sqrt(0.25 * (up - dn) ** 2 + np.abs(mix64.sigma.values) ** 2)
        scale = mix64.scale
        assert np.max(np.abs(eig.rho_plus.values - (mean + gap))) <= 1e-10 * scale
        assert np.max(np.abs(eig.rho_minus.values - (mean - gap))) <= 1e-10 * scale

        total = eig.rho_plus.values + eig.rho_minus.values
        product = eig.rho_plus.values * eig.rho_minus.values
        det = up * dn - np.abs(mix64.sigma.values) ** 2
        assert np.max(np.abs(total - (up + dn))) <= 1e-12 * scale
        assert np.max(np.abs(product - det)) <= 1e-12 * scale * scale


def test_criterion_3_h1_norm_anchor(capsys):
    with criterion(capsys, 3, "analytic H1 anchor 3.0 for the gaussian pair"):
        t0 = time.monotonic()
        for n, rel_tol in ((64, 0.01), (96, 0.001)):
            grid = cube(n, 8.0)
            r = sr.gaussian_diagonal(grid, 2, width=1.0)
            value = sr.h1_seminorm(grid, np.sqrt(r.rho_total.values))
            assert abs(value - 3.0) / 3.0 < rel_tol
        assert time.monotonic() - t0 < 10.0


def test_criterion_4_equidensity_reconstruction(capsys):
    with criterion(capsys, 4, "phase-orbital reconstruction for N=1,2,3"):
        cases = (
            (1, 1.0, 8.0, 0.9),
            (2, 1.5, 8.0, 0.7),
            (3, 2.5, 10.5, 0.5),
        )
        for n_elec, width, half, alpha in cases:
            grid = cube(64, half)
            psi_up, psi_dn = sr.gaussian_spinor(
                grid, width_up=width, phase_gradient=alpha)
            r = sr.rank1_from_orbital(psi_up, psi_dn, n_elec)
            orbs = sr.build_orbitals(r)

            assert sr.reconstruction_error(orbs.orbitals, r) <= 1e-12 * r.scale
            gram = sr.gram_matrix(orbs.orbitals)
            assert np.max(np.abs(gram - np.eye(n_elec))) <= 1e-6
            phase = sr.build_phase(r.rho_total, n_elec, orbs.orbitals.axis)
            for k in range(1, n_elec + 1):
                lhs = n_elec * sr.h1_seminorm(grid, orbs.orbitals[k - 1].up.values)
                assert lhs <= kinetic_bound(r, phase, k)


def test_criterion_5_end_to_end_round_trip(capsys, mix64, witness64):
    with criterion(capsys, 5, "construct and verify the mixture witness"):
        t0 = time.monotonic()
        report = sr.verify(witness64, mix64)

        assert report["density_match"].value <= 1e-8
        assert abs(report.weight_sum - 1.0) <= 1e-12

        scale2 = mix64.scale ** 2
        for branch in witness64.branches:
            dens = branch_density(branch, mix64.grid)
            det = dens.rho_up.values * dens.rho_dn.values \
                - np.abs(dens.sigma.values) ** 2
            assert np.max(np.abs(det)) <= 1e-10 * scale2

        bounds = report["kinetic_bounds"]
        assert bounds.verdict == "pass"
        assert bounds.details["slack"] == 0.05
        assert report.passed
        assert time.monotonic() - t0 < 60.0


def branch_density(branch, grid):
    up = np.zeros(grid.dims)
    dn = np.zeros(grid.dims)
    sg = np.zeros(grid.dims, dtype=np.complex128)
    for orb in branch.orbitals.orbitals:
        up += np.abs(orb.up.values) ** 2
        dn += np.abs(orb.dn.values) ** 2
        sg += orb.up.values * np.conj(orb.dn.values)
    return field_from_arrays(grid, up, dn, sg,
                             n_electrons=len(branch.orbitals.orbitals))


def test_criterion_6_pure_mixed_separation(capsys, mix64, witness64):
    with criterion(capsys, 6, "full-rank density needs a mixed witness"):
        det = mix64.rho_up.values * mix64.rho_dn.values \
            - np.abs(mix64.sigma.values) ** 2
        # strictly positive determinant on a macroscopic share of the box:
        # no single-determinant (rank-1) state can produce this field
        positive = det > 1e-12 * mix64.scale ** 2
        assert positive.mean() > 0.10

        report = sr.verify(witness64, mix64)
        assert len(witness64.branches) > 1
        assert report["density_match"].value <= 1e-8


VIOLATIONS = ("rho_nonneg", "det_nonneg", "normalization")


def test_criterion_7_checker_soundness(capsys):
    with criterion(capsys, 7, "violations fail exactly the intended condition"):
        # 48^3 so the narrow lobe is quadrature-resolved: at 32^3 its mass
        # error would leak into the normalization condition as well
        grid = cube(48, 8.0)
        g = gaussian_values(grid, width=1.0)
        eps = 0.05
        lobe = eps * gaussian_values(grid, width=0.5, center=(3.0, 0.0, 0.0))
        amp = 2.0 / (2.0 * (1.0 - eps))

        fields = {
            "rho_nonneg": field_from_arrays(
                grid, amp * (g - lobe), amp * (g - lobe), 0.0 * g),
            "det_nonneg": field_from_arrays(grid, g, g, 1.001 * g),
            "normalization": field_from_arrays(grid, 1.1 * g, 1.1 * g, 0.5 * g),
        }
        for expected, field in fields.items():
            report = sr.check(field)
            failed = [c.name for c in report.conditions if c.verdict == "fail"]
            assert failed == [expected], (expected, failed)


def test_criterion_8_refinement_stability(capsys, mix64):
    with criterion(capsys, 8, "discrete norms stable from 64^3 to 96^3"):
        fine = mixture(96)
        report = sr.check(mix64, refined=fine)
        assert report.passed
        for cond in report.conditions[3:]:
            assert cond.details["change"] < 0.01, (cond.name, cond.details)
