"""Analytic density families used as fixtures and CLI inputs.

All families are Gaussian-based, centred on the box, so every norm the
checker computes has a closed form to compare against.  Generators reject
parameter choices that leave non-negligible mass outside the box, since
the discrete operators silently assume decay at the boundary.
"""

from __future__ import annotations

import math

import numpy as np

from .fields import ComplexField, Grid3, ScalarField, frozen, integrate_values
from .spin_density import SpinDensityField
from .tolerances import NORM_REL

BOUNDARY_MASS_TOL = 1e-8


class GeneratorError(ValueError):
    """Parameters produce a field the discrete operators cannot represent."""


def _center(grid: Grid3) -> tuple[float, float, float]:
    return tuple(0.5 * (grid.box[ax] + grid.box[3 + ax]) for ax in range(3))


def _gaussian(grid: Grid3, width: float) -> np.ndarray:
    """Unit-mass gaussian (pi a^2)^{-3/2} exp(-|r-c|^2 / a^2) about the box centre c."""
    center = _center(grid)
    x, y, z = grid.meshgrid()
    r2 = (x - center[0]) ** 2 + (y - center[1]) ** 2 + (z - center[2]) ** 2
    return (math.pi * width * width) ** -1.5 * np.exp(-r2 / (width * width))


def _outside_mass(grid: Grid3, width: float) -> float:
    """Exact mass of the unit gaussian outside the box (product of erf factors)."""
    center = _center(grid)
    inside = 1.0
    for ax in range(3):
        lo = (grid.box[ax] - center[ax]) / width
        hi = (grid.box[3 + ax] - center[ax]) / width
        inside *= 0.5 * (math.erf(hi) - math.erf(lo))
    return 1.0 - inside


def _require_contained(grid: Grid3, width: float, what: str) -> None:
    if not (np.isfinite(width) and width > 0.0):
        raise GeneratorError(f"{what}: width must be positive, got {width}")
    outside = _outside_mass(grid, width)
    if outside > BOUNDARY_MASS_TOL:
        raise GeneratorError(
            f"{what}: {outside:.3e} of the mass lies outside the box "
            f"(limit {BOUNDARY_MASS_TOL:.0e}); enlarge the box or shrink the width"
        )


def gaussian_diagonal(
    grid: Grid3,
    n_electrons: int,
    width: float = 1.0,
) -> SpinDensityField:
    """Unpolarized gaussian: rho_up = rho_dn = (N/2) g_width, sigma = 0.

    Closed forms used in tests: integral(rho) = N and
    integral |grad sqrt(rho_a)|^2 = (3/2) (N_a / width^2) per spin, so the
    total sqrt-density seminorm is 3 N / (2 width^2).
    """
    _require_contained(grid, width, "gaussian_diagonal")
    half = 0.5 * n_electrons * _gaussian(grid, width)
    return SpinDensityField(
        rho_up=ScalarField(grid, frozen(half)),
        rho_dn=ScalarField(grid, half),
        sigma=ComplexField(grid, frozen(np.zeros(grid.dims, dtype=np.complex128))),
        n_electrons=n_electrons,
    )


def gaussian_spinor(
    grid: Grid3,
    width_up: float = 1.0,
    width_dn: float | None = None,
    spin_fraction: float = 0.5,
    phase_gradient: float = 0.0,
) -> tuple[ComplexField, ComplexField]:
    """Normalized spinor with gaussian components.

    |psi_up|^2 integrates to spin_fraction, |psi_dn|^2 to 1 - spin_fraction.
    ``phase_gradient`` puts the phase exp(i alpha x) on the up component,
    which makes sigma genuinely complex.
    """
    if not 0.0 <= spin_fraction <= 1.0:
        raise GeneratorError(f"spin_fraction must lie in [0, 1], got {spin_fraction}")
    if width_dn is None:
        width_dn = width_up
    _require_contained(grid, width_up, "gaussian_spinor (up)")
    _require_contained(grid, width_dn, "gaussian_spinor (dn)")
    up = np.sqrt(spin_fraction * _gaussian(grid, width_up)).astype(np.complex128)
    if phase_gradient != 0.0:
        x = grid.meshgrid()[0]
        up = up * np.exp(1j * phase_gradient * (x - _center(grid)[0]))
    dn = np.sqrt((1.0 - spin_fraction) * _gaussian(grid, width_dn)).astype(np.complex128)
    return ComplexField(grid, frozen(up)), ComplexField(grid, frozen(dn))


def rank1_from_orbital(
    psi_up: ComplexField,
    psi_dn: ComplexField,
    n_electrons: int,
) -> SpinDensityField:
    """Pure-state density R = N psi psi^dagger from one normalized spinor.

    The determinant vanishes identically by construction.  The spinor must
    integrate to 1 within the normalization tolerance; the N scaling is then
    applied uniformly to all entries.
    """
    if psi_up.grid != psi_dn.grid:
        raise ValueError("spinor components live on different grids")
    grid = psi_up.grid
    u, d = psi_up.values, psi_dn.values
    up = u.real * u.real + u.imag * u.imag
    dn = d.real * d.real + d.imag * d.imag
    total = float(integrate_values(grid, up + dn))
    if abs(total - 1.0) > NORM_REL:
        raise GeneratorError(
            f"spinor is not normalized: integral = {total!r} "
            f"(tolerance {NORM_REL:.3e})"
        )
    n = float(n_electrons)
    return SpinDensityField(
        rho_up=ScalarField(grid, frozen(n * up)),
        rho_dn=ScalarField(grid, frozen(n * dn)),
        sigma=ComplexField(grid, frozen(n * (u * np.conj(d)))),
        n_electrons=n_electrons,
    )


def full_rank_mixture(
    grid: Grid3,
    n_electrons: int,
    coupling: float = 0.5,
    width_up: float = 1.0,
    width_dn: float | None = None,
    spin_fraction: float = 0.5,
    phase_gradient: float = 0.0,
) -> SpinDensityField:
    """Strictly mixed family: gaussian diagonal with partial coupling

        sigma = c exp(i theta(x)) sqrt(rho_up rho_dn),   |c| < 1,

    so det R = (1 - c^2) rho_up rho_dn > 0 wherever both densities are
    positive.  theta = phase_gradient * (x - box centre).  coupling = 0 with
    equal widths reduces exactly to :func:`gaussian_diagonal`.
    """
    if not abs(coupling) < 1.0:
        raise GeneratorError(
            f"|coupling| must be < 1 for a strictly mixed state, got {coupling}"
        )
    if not 0.0 < spin_fraction < 1.0:
        raise GeneratorError(f"spin_fraction must lie in (0, 1), got {spin_fraction}")
    if width_dn is None:
        width_dn = width_up
    _require_contained(grid, width_up, "full_rank_mixture (up)")
    _require_contained(grid, width_dn, "full_rank_mixture (dn)")
    up = spin_fraction * n_electrons * _gaussian(grid, width_up)
    dn = (1.0 - spin_fraction) * n_electrons * _gaussian(grid, width_dn)
    if coupling == 0.0:
        sigma = np.zeros(grid.dims, dtype=np.complex128)
    else:
        sigma = (coupling * np.sqrt(up * dn)).astype(np.complex128)
        if phase_gradient != 0.0:
            x = grid.meshgrid()[0]
            sigma = sigma * np.exp(1j * phase_gradient * (x - _center(grid)[0]))
    return SpinDensityField(
        rho_up=ScalarField(grid, frozen(up)),
        rho_dn=ScalarField(grid, frozen(dn)),
        sigma=ComplexField(grid, frozen(sigma)),
        n_electrons=n_electrons,
    )
