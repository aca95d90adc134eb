import math
import tracemalloc

import numpy as np
import pytest

import spinrep as sr
from spinrep import fields, orbitals
from spinrep.orbitals import _base_spinor, _spectral_antiderivative, _transverse_marginal
from spinrep.spin_density import rows
from spinrep.tolerances import GRAM_TOL

from _helpers import (
    cube,
    field_from_arrays,
    gaussian_values,
    gram_gate,
    kinetic_bound,
    max_abs_diff,
    mixture,
    symmetric_rank1,
)

erf = np.vectorize(math.erf)


# -- phase --------------------------------------------------------------------


def test_phase_matches_gaussian_cdf():
    grid = cube(64)
    rho = sr.ScalarField(grid, 2.0 * gaussian_values(grid, width=1.2))
    phase = sr.build_phase(rho, 2)
    exact = 2.0 * 0.5 * (1.0 + erf(grid.axes[0] / 1.2))
    assert np.max(np.abs(phase.values - exact)) < 1e-8


def test_phase_endpoints_and_monotonicity(diagonal32):
    phase = sr.build_phase(diagonal32.rho_total, 2)
    assert phase.values[0] == 0.0
    assert phase.values[-1] == 2.0
    assert np.all(np.diff(phase.values) >= 0.0)
    assert abs(phase.adjustment) < 1e-9


def test_phase_marginal_is_renormalized(diagonal32):
    # at 32 nodes the spectral cumulative carries ~1e-6 truncation against the
    # trapezoid sum; the rescaled marginal mass shares that budget
    grid, rho = diagonal32.grid, diagonal32.rho_total
    phase = sr.build_phase(rho, 2)
    wax = grid.axis_weights[phase.axis]
    np.testing.assert_allclose(np.sum(wax * phase.marginal), 2.0, rtol=1e-5)
    marginal = np.clip(_transverse_marginal(grid, rho.values, phase.axis), 0.0, None)
    spectral = _spectral_antiderivative(marginal, grid.spacing[phase.axis])[-1]
    assert abs(spectral - np.sum(wax * marginal)) < 1e-5


def test_phase_rejects_unnormalized(diagonal32):
    rho = sr.ScalarField(diagonal32.grid, 1.001 * diagonal32.rho_total.values)
    with pytest.raises(sr.PhaseNormalizationError):
        sr.build_phase(rho, 2)


def test_phase_rejects_empty_axis(grid32):
    with pytest.raises(sr.PhaseNormalizationError):
        sr.build_phase(sr.ScalarField(grid32, np.zeros(grid32.dims)), 1)


def test_build_phase_rejects_an_axis_outside_0_to_2(diagonal32):
    for axis in (3, -1, "z"):
        with pytest.raises(ValueError, match="axis must be 0, 1 or 2"):
            sr.build_phase(diagonal32.rho_total, 2, axis)


def anisotropic_density(grid, widths):
    x, y, z = grid.meshgrid()
    vals = np.exp(-(x / widths[0]) ** 2 - (y / widths[1]) ** 2 - (z / widths[2]) ** 2)
    return sr.ScalarField(grid, vals)


def test_choose_phase_axis_picks_most_structured(grid32):
    assert sr.choose_phase_axis(anisotropic_density(grid32, (2.0, 1.0, 1.0))) == 0
    assert sr.choose_phase_axis(anisotropic_density(grid32, (1.0, 3.0, 1.0))) == 1


# -- base spinor ----------------------------------------------------------------


def test_base_spinor_symmetric_real(grid32):
    # sigma = sqrt(rho_up rho_dn) real: phi_up must reduce to sqrt(rho_up)
    g = gaussian_values(grid32)
    r = field_from_arrays(grid32, g, g.copy(), g.astype(complex))
    up, dn, _ = _base_spinor(r)
    np.testing.assert_allclose(up, np.sqrt(g), rtol=0, atol=1e-14)
    np.testing.assert_allclose(dn, np.sqrt(g), rtol=0, atol=1e-14)


def test_base_spinor_carries_phase(grid32):
    g = gaussian_values(grid32)
    r = field_from_arrays(grid32, g, g.copy(), 1j * g)
    up, _, _ = _base_spinor(r)
    # compare away from the nodal fallback set, where the phase is arbitrary
    live = g >= 1e-10 * g.max()
    np.testing.assert_allclose(up[live], 1j * np.sqrt(g[live]),
                               rtol=0, atol=1e-14)


def test_base_spinor_requires_null_det(mixture32):
    with pytest.raises(sr.NullDeterminantError):
        _base_spinor(mixture32)


def test_base_spinor_requires_dominated_up(grid32):
    # rank-1 but fully up-polarized: rho_up > 2 rho_dn
    g = gaussian_values(grid32)
    r = field_from_arrays(grid32, g, np.zeros_like(g), np.zeros_like(g, dtype=complex))
    with pytest.raises(sr.RatioHypothesisError):
        _base_spinor(r)


# -- orbital construction --------------------------------------------------------


@pytest.fixture(scope="module")
def pure48():
    return symmetric_rank1(48, n_electrons=2, width=1.5, phase_gradient=0.7)


@pytest.fixture(scope="module")
def orbs48(pure48):
    return sr.build_orbitals(pure48)


def test_orbitals_reconstruct_density(pure48, orbs48):
    assert orbs48.diagnostics["reconstruction_rel"] <= 1e-12
    # check one component explicitly against the orbital sum
    up = sum(np.abs(o.up.values) ** 2 for o in orbs48.orbitals)
    np.testing.assert_allclose(up, pure48.rho_up.values, rtol=0,
                               atol=1e-12 * pure48.scale)
    sig = sum(o.up.values * np.conj(o.dn.values) for o in orbs48.orbitals)
    np.testing.assert_allclose(sig, pure48.sigma.values, rtol=0,
                               atol=1e-12 * pure48.scale)


def test_orbitals_are_orthonormal(pure48, orbs48):
    gram = sr.gram_matrix(orbs48.orbitals)
    assert np.max(np.abs(gram - np.eye(2))) <= 1e-6
    assert orbs48.diagnostics["gram_deviation"] <= 1e-6


def test_orbital_count_matches_electrons(orbs48):
    assert len(orbs48.orbitals) == 2


def test_orbital_moduli_are_k_independent(orbs48):
    # the phase factor is unimodular, so all orbitals share |Phi|
    a, b = orbs48.orbitals
    np.testing.assert_allclose(np.abs(a.up.values), np.abs(b.up.values), rtol=1e-13)
    np.testing.assert_allclose(np.abs(a.dn.values), np.abs(b.dn.values), rtol=1e-13)


def test_phase_cubed_moment_identity(pure48, orbs48):
    # integral(rho f'^2) over the box equals integral(f'^3) along the axis
    phase = sr.build_phase(pure48.rho_total, pure48.n_electrons, orbs48.orbitals.axis)
    shape = [1, 1, 1]
    shape[phase.axis] = pure48.grid.dims[phase.axis]
    fp = phase.marginal.reshape(shape)
    lhs = sr.integrate_values(pure48.grid, pure48.rho_total.values * fp**2)
    wax = pure48.grid.axis_weights[phase.axis]
    rhs = np.sum(wax * phase.marginal**3)
    np.testing.assert_allclose(lhs, rhs, rtol=1e-6)


def test_kinetic_bound_per_orbital(pure48, orbs48):
    phase = sr.build_phase(pure48.rho_total, pure48.n_electrons, orbs48.orbitals.axis)
    for k in (1, 2):
        lhs = pure48.n_electrons * sr.h1_seminorm(pure48.grid, orbs48.orbitals[k - 1].up.values)
        assert lhs <= kinetic_bound(pure48, phase, k)
    # the k^2 phase term must make the bound grow
    assert kinetic_bound(pure48, phase, 2) > kinetic_bound(pure48, phase, 1)


def test_build_orbitals_single_electron():
    r = symmetric_rank1(32, n_electrons=1, width=1.0, phase_gradient=0.9)
    orbs = sr.build_orbitals(r)
    assert len(orbs.orbitals) == 1
    assert orbs.diagnostics["gram_deviation"] <= 1e-8
    assert orbs.diagnostics["reconstruction_rel"] <= 1e-12
    # single orbital modulus is pinned by the density itself
    np.testing.assert_allclose(
        np.abs(orbs.orbitals[0].up.values) ** 2, r.rho_up.values,
        rtol=0, atol=1e-13 * r.scale)


def test_build_orbitals_explicit_axis(pure48):
    orbs = sr.build_orbitals(pure48, axis=1)
    assert orbs.orbitals.axis == 1
    assert orbs.diagnostics["reconstruction_rel"] <= 1e-12
    assert orbs.diagnostics["gram_deviation"] <= 1e-6


def test_build_orbitals_nodal_fallback_is_recorded(orbs48):
    assert "nodal_points" in orbs48.diagnostics
    assert "nodal_fallback_points" in orbs48.diagnostics


def test_exchange_components_involution(orbs48):
    back = sr.exchange_components(sr.exchange_components(orbs48))
    for a, b in zip(back.orbitals, orbs48.orbitals):
        np.testing.assert_array_equal(a.up.values, b.up.values)
        np.testing.assert_array_equal(a.dn.values, b.dn.values)


def test_exchanged_orbitals_reconstruct_swapped_density(pure48, orbs48):
    swapped = sr.spin_swap(pure48)
    exchanged = sr.exchange_components(orbs48)
    up = sum(np.abs(o.up.values) ** 2 for o in exchanged.orbitals)
    np.testing.assert_allclose(up, swapped.rho_up.values, rtol=0,
                               atol=1e-12 * pure48.scale)
    sig = sum(o.up.values * np.conj(o.dn.values) for o in exchanged.orbitals)
    np.testing.assert_allclose(sig, swapped.sigma.values, rtol=0,
                               atol=1e-12 * pure48.scale)


def test_gram_matrix_is_hermitian(orbs48):
    gram = sr.gram_matrix(orbs48.orbitals)
    np.testing.assert_array_equal(gram, gram.conj().T)


# -- Gram gate --------------------------------------------------------------------


def branch_fields(r):
    """The fields construct_witness builds orbitals for, swapped where it swaps."""
    for _, piece in sr.rank1_split(r).pairs():
        for swap, (_, sub) in zip((True, False), sr.ratio_split(piece).slots()):
            if sub is not None:
                yield sr.spin_swap(sub) if swap else sub


@pytest.mark.parametrize("n", [48, 64])
def test_gate_gram_matches_the_built_orbitals(n):
    # the gate's 1-D Gram deviation against verify's 3-D one, on branches
    # inside the envelope (N = 1, 2) and far outside it (N = 3..6)
    for n_electrons in range(1, 7):
        for f in branch_fields(mixture(n, n_electrons=n_electrons)):
            with gram_gate(10.0):
                orbs = sr.build_orbitals(f)
            gate = orbs.diagnostics["gram_deviation"]
            gram = sr.gram_matrix(orbs.orbitals)
            full = float(np.max(np.abs(gram - np.eye(len(gram)))))
            assert abs(gate - full) <= 1e-12
            assert (gate <= GRAM_TOL) == (full <= GRAM_TOL)


@pytest.mark.traced
def test_gate_refuses_before_building():
    f = next(branch_fields(mixture(48, n_electrons=3)))  # Gram deviation 3.5e-2
    tracemalloc.start()
    try:
        with pytest.raises(sr.OrthonormalityError, match="deviation 3.521e-02 > 1.000e-06"):
            sr.build_orbitals(f)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    # the three orbitals alone would be six complex grids
    assert peak < 6 * 16 * f.grid.npoints
    assert issubclass(sr.OrthonormalityError, ValueError)


# -- the marginals of a streamed field ----------------------------------------------


MARGINAL_GRIDS = {
    "45x38x51": sr.Grid3((45, 38, 51), (-8.0, -7.5, -8.5, 8.0, 7.5, 8.2)),
    "5x9x7": sr.Grid3((5, 9, 7), (-3.0, -1.0, -2.0, 2.0, 3.0, 1.7)),
    "64^3": cube(64),
}


@pytest.mark.parametrize("grid_name", MARGINAL_GRIDS)
@pytest.mark.parametrize("slab", [None, 1000], ids=["default", "small"])
@pytest.mark.parametrize("workers", [1, 2, 3], ids=lambda w: f"{w}w")
def test_streamed_marginals_have_the_bits_of_the_whole_array(monkeypatch, grid_name, slab,
                                                             workers):
    """_Transverse fed axis-0 and axis-1 slabs gives _transverse_marginal's bits, zeros signed."""
    grid = MARGINAL_GRIDS[grid_name]
    if slab is not None:
        monkeypatch.setattr(fields, "_SLAB_BYTES", slab)
    monkeypatch.setattr(fields, "_cpus", lambda: workers)
    rng = np.random.default_rng(sum(grid.dims))
    v = rng.random(grid.dims) * np.exp(-rng.random(grid.dims))
    v.reshape(-1)[::7] = -0.0
    v.reshape(-1)[::11] = 0.0
    marginals = orbitals._Transverse(grid, range(3))
    for cut in (0, 1):
        # a new block per slab, as a streamed field forms its entries
        fields._small_slabs(grid.dims, lambda lo, hi: marginals.add(
            cut, lo, hi, rows(lo, hi, cut)(v).copy()), cut)
    for axis, got in marginals.result().items():
        want = _transverse_marginal(grid, v, axis)
        assert got.tobytes() == want.tobytes()


def test_build_orbitals_forms_three_marginals_and_reuses_the_chosen_one(monkeypatch):
    """One marginal per axis and branch; the phase takes the chosen axis's, no fourth."""
    formed, whole = [], []
    result = orbitals._Transverse.result

    def counted(self):
        out = result(self)
        formed.append(len(out))
        return out

    monkeypatch.setattr(orbitals._Transverse, "result", counted)
    monkeypatch.setattr(orbitals, "_transverse_marginal", lambda *a: whole.append(a))
    w = sr.construct_witness(mixture(48))
    assert len(w.branches) == 2
    assert formed == [3, 3] and whole == []
