"""Shared fixture builders for the test suite."""

import numpy as np

import spinrep as sr
from spinrep import fields


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
        rows = fields._slab_rows(v)
        deriv, v8 = np.empty((rows,) + v.shape[1:]), np.empty((rows + 2) * v[0].size)
        for lo, hi in slabs:
            for ax, g in enumerate(fields._slab_derivatives(
                    v, grid.spacing, lo, hi, deriv[:hi - lo], v8, complex_data)):
                out[ax][lo:hi] = g.view(np.complex128)[..., 0] if complex_data else g

    fields._over_slabs(v, work)
    return tuple(out)
