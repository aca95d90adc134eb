"""Shared fixture builders for the test suite."""

from contextlib import contextmanager
from dataclasses import replace

import numpy as np
import pytest

import spinrep as sr
from spinrep import fields, orbitals
from spinrep.check import _gradient_norms
from spinrep.tolerances import DEFAULT


def cube(n: int, half: float = 8.0) -> sr.Grid3:
    return sr.Grid3((n, n, n), (-half, -half, -half, half, half, half))


def gaussian_values(grid: sr.Grid3, width: float = 1.0, center=(0.0, 0.0, 0.0)) -> np.ndarray:
    """Unit-mass gaussian (pi a^2)^{-3/2} exp(-|r-c|^2/a^2)."""
    x, y, z = grid.meshgrid()
    r2 = (x - center[0]) ** 2 + (y - center[1]) ** 2 + (z - center[2]) ** 2
    return (np.pi * width * width) ** -1.5 * np.exp(-r2 / (width * width))


def mixture(n: int = 32, half: float = 8.0, n_electrons: int = 2, coupling: float = 0.5,
            width_up: float = 1.5, width_dn: float | None = None,
            phase_gradient: float = 0.7) -> sr.SpinDensityField:
    return sr.full_rank_mixture(
        cube(n, half), n_electrons, coupling=coupling,
        width_up=width_up, width_dn=width_dn, phase_gradient=phase_gradient,
    )


def symmetric_rank1(n: int = 32, half: float = 8.0, n_electrons: int = 2,
                    width: float = 1.5, phase_gradient: float = 0.7) -> sr.SpinDensityField:
    grid = cube(n, half)
    psi_up, psi_dn = sr.gaussian_spinor(
        grid, width_up=width, spin_fraction=0.5, phase_gradient=phase_gradient)
    return sr.rank1_from_orbital(psi_up, psi_dn, n_electrons)


def random_psd_arrays(shape, rng, rho_scale: float = 2.0):
    """Pointwise-PSD (rho_up, rho_dn, sigma) arrays: |sigma| = t sqrt(up*dn), t<=1."""
    up = rho_scale * rng.random(shape)
    dn = rho_scale * rng.random(shape)
    t = rng.random(shape)
    phase = np.exp(2j * np.pi * rng.random(shape))
    sigma = t * np.sqrt(up * dn) * phase
    return up, dn, sigma


def field_from_arrays(grid: sr.Grid3, up, dn, sigma, n_electrons: int = 2) -> sr.SpinDensityField:
    return sr.SpinDensityField(
        rho_up=sr.ScalarField(grid, up),
        rho_dn=sr.ScalarField(grid, dn),
        sigma=sr.ComplexField(grid, sigma),
        n_electrons=n_electrons,
    )


def squared(sq) -> sr.SpinDensityField:
    """sqrt(R) @ sqrt(R) from the entries of a square-root field, with a placeholder N."""
    ru, rd, s = sq.r_up.values, sq.r_dn.values, sq.s.values
    s2 = s.real * s.real + s.imag * s.imag
    return field_from_arrays(sq.r_up.grid, ru * ru + s2, rd * rd + s2, s * (ru + rd))


def recombined(pairs) -> sr.SpinDensityField:
    """sum_i w_i R_i over (weight, field) pairs."""
    pairs = list(pairs)
    up, dn, sg = (sum(w * getattr(r, name).values for w, r in pairs)
                  for name in ("rho_up", "rho_dn", "sigma"))
    return field_from_arrays(pairs[0][1].grid, up, dn, sg, pairs[0][1].n_electrons)


def kinetic_bound(r: sr.SpinDensityField, phase, k: int) -> float:
    """Upper bound on N integral |grad Phi_k_up|^2 for the k-th orbital of ``build_orbitals``:

        integral( 6 |grad sigma|^2 / rho + 4 |grad sqrt(rho_dn)|^2 )
        + 4 pi^2 k^2 integral( f'^3 ) dx_axis,

    the last term being integral(rho f'^2) after the transverse integration.
    """
    parts, ratios = _gradient_norms(r, DEFAULT, w32=False)
    moment = float(np.sum(r.grid.axis_weights[phase.axis] * phase.marginal ** 3))
    return (6.0 * ratios["sigma_grad_over_rho"].value + 4.0 * parts["sqrt_rho_h1"]["h1_dn"]
            + 4.0 * np.pi ** 2 * k * k * moment)


def dipped(r: sr.SpinDensityField, depth: float) -> sr.SpinDensityField:
    """``r`` with rho_up[0, 0, 0] set to -depth * max(rho), which leaves max(rho) as it is."""
    up = r.rho_up.values.copy()
    up[0, 0, 0] = -depth * r.scale
    return field_from_arrays(r.grid, up, r.rho_dn.values, r.sigma.values, r.n_electrons)


@contextmanager
def gram_gate(value: float):
    """Run the block with ``build_orbitals`` refusing Gram deviations above ``value``.

    The gate is the constant ``GRAM_TOL``; a looser one lets orbitals that miss
    orthonormality on a coarse grid through, for tests that compare them.
    """
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(orbitals, "GRAM_TOL", value)
        yield


def max_abs_diff(r1: sr.SpinDensityField, r2: sr.SpinDensityField) -> float:
    return max(
        float(np.max(np.abs(r1.rho_up.values - r2.rho_up.values))),
        float(np.max(np.abs(r1.rho_dn.values - r2.rho_dn.values))),
        float(np.max(np.abs(r1.sigma.values - r2.sigma.values))),
    )


def kernel_derivatives(grid: sr.Grid3, values) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The three axis derivatives that the |grad f|^2 kernel forms, as whole arrays.

    Runs ``fields._slab_derivatives`` over the slabs and workers that
    ``grad_magnitude_sq`` uses, and copies each slab's derivative out of the
    reused buffer; complex data gives complex128 derivatives.
    """
    v, complex_data = fields._float_view(values)
    dtype = np.complex128 if complex_data else np.float64
    out = [np.empty(grid.dims, dtype=dtype) for _ in range(3)]

    def work(slabs):
        rows = fields._slab_rows(v.shape)
        deriv, v8 = np.empty((rows,) + v.shape[1:]), np.empty((rows + 2) * v[0].size)
        for lo, hi in slabs:
            for ax, g in enumerate(fields._slab_derivatives(
                    v, grid.spacing, lo, hi, deriv[:hi - lo], v8, complex_data)):
                out[ax][lo:hi] = g.view(np.complex128)[..., 0] if complex_data else g

    fields._over_slabs(v.shape, work)
    return tuple(out)


def density_sums(grid: sr.Grid3, weighted):
    """The up-up, dn-dn and up-dn sums of ``orbitals._add_density`` over (p, orbital) pairs."""
    sums = orbitals._density_sums(grid)
    for p, orb in weighted:
        orbitals._add_density(sums, p, orb.up.values, orb.dn.values)
    return sums


def materialised(w):
    """``w`` with every branch's orbitals built once and held as a tuple (explicit orbitals)."""
    return sr.Witness(w.grid, w.n_electrons, tuple(
        replace(b, orbitals=replace(b.orbitals, orbitals=tuple(b.orbitals.orbitals)))
        for b in w.branches))


def family_witness(grid, up, dn, axis, phase, ks, exchanged=False):
    """A one-branch witness whose orbitals are the family (up, dn) exp(2 i pi k phase) / sqrt(n)."""
    fam = orbitals.OrbitalFamily(sr.ComplexField(grid, up), sr.ScalarField(grid, dn), axis, phase,
                                 ks, exchanged)
    return sr.Witness(grid=grid, n_electrons=len(fam), branches=(
        sr.WitnessBranch(1.0, sr.OrbitalSet(grid=grid, orbitals=fam)),))


def single_orbital_witness(grid, up, dn):
    orb = sr.Spinor(up=sr.ComplexField(grid, up), dn=sr.ComplexField(grid, dn))
    return sr.Witness(grid=grid, n_electrons=1, branches=(
        sr.WitnessBranch(1.0, sr.OrbitalSet(grid=grid, orbitals=(orb,))),))


def nan_witness(value=np.nan):
    """A one-orbital witness of a 24^3 gaussian spinor (N = 1), one dn value NaN, and its target.

    ``value`` replaces the NaN.
    """
    grid = cube(24)
    psi_up, psi_dn = sr.gaussian_spinor(grid, width_up=1.5, spin_fraction=0.6,
                                        phase_gradient=0.0)
    dn = psi_dn.values.copy()
    dn[12, 12, 12] = value
    return single_orbital_witness(grid, psi_up.values, dn), sr.rank1_from_orbital(psi_up, psi_dn, 1)
