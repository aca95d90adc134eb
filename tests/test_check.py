
import tracemalloc

import numpy as np
import pytest

import spinrep as sr
from spinrep import fields
from spinrep.check import FAIL, INDETERMINATE, PASS

from _helpers import cube, field_from_arrays, gaussian_values, mixture

CONDITION_NAMES = [
    "rho_nonneg",
    "det_nonneg",
    "normalization",
    "sqrt_rho_h1",
    "sigma_sqrtdet_w32",
    "sigma_grad_over_rho",
    "sqrtdet_grad_over_rho",
]


def verdict_map(report):
    return {c.name: c.verdict for c in report.conditions}


def assert_single_failure(report, failing_name):
    verdicts = verdict_map(report)
    for name in CONDITION_NAMES:
        expected = FAIL if name == failing_name else PASS
        assert verdicts[name] == expected, (name, verdicts[name])
    assert report.verdict == FAIL
    assert not report.passed


# ---------------------------------------------------------------- fixtures


def negative_lobe_field(n=48):
    """Renormalized so only the pointwise positivity condition is violated."""
    grid = cube(n)
    eps = 0.05
    g1 = gaussian_values(grid, width=1.0)
    g2 = gaussian_values(grid, width=0.5, center=(3.0, 0.0, 0.0))
    amp = 2.0 / (2.0 * (1.0 - eps))
    rho = amp * (g1 - eps * g2)
    return field_from_arrays(grid, rho, rho.copy(), np.zeros_like(rho, dtype=complex))


def oversized_coupling_field(n=48):
    grid = cube(n)
    g = gaussian_values(grid, width=1.0)
    sigma = 1.001 * g
    return field_from_arrays(grid, g, g.copy(), sigma.astype(complex))


def step_split_field(n):
    """Smooth total density whose up/down split jumps at x = 0.1.

    det = w(1-w) rho^2 is continuous because w(1-w) is the same on both
    sides, so only the sqrt(rho_s) kinetic integrals diverge on refinement.
    """
    grid = cube(n)
    env = 2.0 * gaussian_values(grid, width=1.5)
    x, _, _ = grid.meshgrid()
    w = np.where(x < 0.1, 0.2, 0.8)
    up, dn = w * env, (1.0 - w) * env
    r = field_from_arrays(grid, up, dn, np.zeros_like(env, dtype=complex))
    scale = 2.0 / sr.trace_integral(r)
    return field_from_arrays(
        grid, up * scale, dn * scale, np.zeros_like(env, dtype=complex))


# ------------------------------------------------------------------ tests


def test_gaussian_passes_all_conditions(diagonal32):
    report = sr.check(diagonal32)
    assert [c.name for c in report.conditions] == CONDITION_NAMES
    assert report.verdict == PASS
    assert report.passed
    assert not report.boundary_warning


def test_mixture_passes_with_refinement(mixture32, mixture48):
    report = sr.check(mixture32, refined=mixture48)
    assert report.passed
    for c in report.conditions[3:]:
        assert "change" in c.details


@pytest.mark.traced
@pytest.mark.parametrize("workers", [1, 2])
def test_check_drops_each_gradient_once_used(monkeypatch, workers):
    # on a fresh field (rho_total not yet cached) check holds rho_total, at
    # most a function and its |grad|^2, and det R only until sqrt det R is
    # formed, plus each worker's slab scratch, so the worker count is pinned
    monkeypatch.setattr(fields, "_cpus", lambda: workers)
    r = mixture(96)
    tracemalloc.start()
    try:
        report = sr.check(r)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert report.passed
    assert peak <= 3.5 * 8 * r.grid.npoints


def test_negative_lobe_fails_only_positivity():
    r = negative_lobe_field()
    assert r.rho_up.values.min() < -1e-3  # fixture sanity
    assert_single_failure(sr.check(r), "rho_nonneg")


def test_oversized_coupling_fails_only_det():
    r = oversized_coupling_field()
    assert_single_failure(sr.check(r), "det_nonneg")


def test_scaled_density_fails_only_normalization(diagonal32):
    r = field_from_arrays(
        diagonal32.grid,
        1.01 * diagonal32.rho_up.values,
        1.01 * diagonal32.rho_dn.values,
        diagonal32.sigma.values,
    )
    assert_single_failure(sr.check(r), "normalization")


def test_step_split_fails_only_h1_under_refinement():
    report = sr.check(step_split_field(48), refined=step_split_field(72))
    assert_single_failure(report, "sqrt_rho_h1")
    assert report["sqrt_rho_h1"].details["change"] > 0.05


def test_step_split_passes_without_refinement():
    # without a refined companion the divergence is invisible: finite value,
    # honest pass at this resolution
    report = sr.check(step_split_field(48))
    assert report.passed


def test_spin_swap_symmetry(mixture32):
    base = sr.check(mixture32)
    swapped = sr.check(sr.spin_swap(mixture32))
    assert verdict_map(base) == verdict_map(swapped)
    np.testing.assert_allclose(
        swapped["sigma_grad_over_rho"].value,
        base["sigma_grad_over_rho"].value, rtol=1e-12)
    np.testing.assert_allclose(
        swapped["sqrt_rho_h1"].details["h1_dn"],
        base["sqrt_rho_h1"].details["h1_up"], rtol=1e-12)


def test_masked_points_without_significance_still_pass(mixture32):
    # the far tail always drops below the floor; that alone must not flip
    # the verdict as long as the dropped gradient mass is insignificant
    report = sr.check(mixture32)
    cond = report["sigma_grad_over_rho"]
    assert cond.details["masked_points"] > 0
    assert cond.details["significant_masked_points"] == 0
    assert cond.verdict == PASS


def test_huge_floor_turns_indeterminate(mixture32):
    tol = sr.ToleranceConfig(floor_abs=0.05 * mixture32.scale)
    report = sr.check(mixture32, tol=tol)
    assert report.verdict == INDETERMINATE
    assert report["sigma_grad_over_rho"].verdict == INDETERMINATE
    assert report["sigma_grad_over_rho"].details["significant_masked_points"] > 0


def test_tightened_negativity_tolerance_flips(diagonal32):
    up = diagonal32.rho_up.values.copy()
    up[0, 0, 0] = -1e-11 * diagonal32.scale
    r = field_from_arrays(diagonal32.grid, up, diagonal32.rho_dn.values,
                          diagonal32.sigma.values)
    assert sr.check(r)["rho_nonneg"].verdict == PASS
    tight = sr.ToleranceConfig(neg_abs=1e-13 * r.scale)
    assert sr.check(r, tol=tight)["rho_nonneg"].verdict == FAIL


def test_nan_input_fails(diagonal32):
    up = diagonal32.rho_up.values.copy()
    up[5, 5, 5] = np.nan
    r = field_from_arrays(diagonal32.grid, up, diagonal32.rho_dn.values,
                          diagonal32.sigma.values)
    assert sr.check(r).verdict == FAIL


def test_boundary_warning(grid32):
    # mass parked near a wall: conditions hold but the report must flag it
    g = gaussian_values(grid32, width=1.0, center=(6.5, 0.0, 0.0))
    r = field_from_arrays(grid32, g, g.copy(), np.zeros_like(g, dtype=complex))
    scale = 2.0 / sr.trace_integral(r)
    r = field_from_arrays(grid32, g * scale / 2.0 * 2.0, g * scale / 2.0 * 2.0,
                          np.zeros_like(g, dtype=complex))
    report = sr.check(r)
    assert report.boundary_warning
    assert report.boundary_value > 0.0
    assert report.passed


def test_refined_grid_must_be_finer(mixture32):
    with pytest.raises(ValueError):
        sr.check(mixture32, refined=mixture32)


def test_refined_grid_must_share_box(mixture48):
    other = sr.full_rank_mixture(cube(64, 10.0), 2, coupling=0.5,
                                 width_up=1.5, phase_gradient=0.7)
    with pytest.raises(ValueError):
        sr.check(mixture48, refined=other)


def spinless(grid, rho, n_electrons):
    """A spin-unresolved density rho embedded as R = diag(rho/2, rho/2)."""
    half = 0.5 * rho
    zero = np.zeros(grid.dims, dtype=np.complex128)
    return field_from_arrays(grid, half, half, zero, n_electrons)


def test_check_spinless_gaussian(grid32):
    rho = 2.0 * gaussian_values(grid32)
    report = sr.check(spinless(grid32, rho, 2))
    assert report.passed


def test_check_spinless_wrong_count(grid32):
    rho = 2.0 * gaussian_values(grid32)
    assert_single_failure(sr.check(spinless(grid32, rho, 3)), "normalization")


def test_report_text_roundup(mixture32):
    report = sr.check(mixture32)
    text = report.to_text()
    assert text.count("condition:") == 7
    assert "overall: pass" in text
    for name in CONDITION_NAMES:
        assert name in text


def test_report_getitem_unknown(mixture32):
    report = sr.check(mixture32)
    with pytest.raises(KeyError):
        report["no_such_condition"]


def test_verdict_precedence():
    mk = lambda name, verdict: sr.ConditionResult(
        name=name, verdict=verdict, value=0.0, details={})
    rep = sr.CheckReport(
        conditions=(mk("a", PASS), mk("b", INDETERMINATE), mk("c", FAIL)),
        n_electrons=1, boundary_warning=False, boundary_value=0.0)
    assert rep.verdict == FAIL
    rep = sr.CheckReport(
        conditions=(mk("a", PASS), mk("b", INDETERMINATE)),
        n_electrons=1, boundary_warning=False, boundary_value=0.0)
    assert rep.verdict == INDETERMINATE
