"""Analytic density families used as fixtures and CLI inputs.

All families are Gaussian-based, centred on the box, so every norm the
checker computes has a closed form to compare against.  Generators reject
parameter choices that leave non-negligible mass outside the box, since
the discrete operators silently assume decay at the boundary.

Each family is one blocked pass over axis-0 row slabs on the workers of
``fields``, with |r-c|^2 and the x-only phase built from the 1-D axes.  The
bits are those of the whole-array expressions it replaced, zero signs
included, for any slab height and number of workers, and must stay so.
"""

from __future__ import annotations

import math

import numpy as np

from .fields import (ComplexField, Grid3, ScalarField, _abs2, _weighted_sum, blockwise_arrays,
                     frozen)
from .spin_density import SpinDensityField
from .tolerances import NORM_REL

BOUNDARY_MASS_TOL = 1e-8


class GeneratorError(ValueError):
    """Parameters produce a field the discrete operators cannot represent."""


def _center(grid: Grid3) -> tuple[float, float, float]:
    return tuple(0.5 * (grid.box[ax] + grid.box[3 + ax]) for ax in range(3))


def _gaussian(grid: Grid3, width: float, scale: float, lo: int, hi: int, out) -> np.ndarray:
    """Rows lo:hi of scale (pi a^2)^{-3/2} exp(-|r-c|^2 / a^2), c the box centre, into out."""
    x, y, z = (a - c for a, c in zip((grid.axes[0][lo:hi],) + grid.axes[1:], _center(grid)))
    np.add((x ** 2)[:, None, None] + (y ** 2)[None, :, None], z ** 2, out=out)
    np.negative(out, out=out)
    out /= width * width
    np.exp(out, out=out)
    out *= (math.pi * width * width) ** -1.5
    out *= scale
    return out


def _phase(grid: Grid3, alpha: float) -> np.ndarray | None:
    """exp(i alpha (x - c_x)) on the x axis, shaped (nx, 1, 1); None for alpha = 0."""
    if alpha == 0.0:
        return None
    return np.exp(1j * alpha * (grid.axes[0] - _center(grid)[0]))[:, None, None]


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
    half = frozen(blockwise_arrays(grid.dims, (float,), lambda lo, hi, out:
                                   _gaussian(grid, width, 0.5 * n_electrons, lo, hi, out))[0])
    return SpinDensityField(
        rho_up=ScalarField(grid, half),
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
    phase = _phase(grid, phase_gradient)

    def step(lo, hi, up, dn, buf):
        up[...] = np.sqrt(_gaussian(grid, width_up, spin_fraction, lo, hi, buf), out=buf)
        if phase is not None:
            up *= phase[lo:hi]
        dn[...] = np.sqrt(_gaussian(grid, width_dn, 1.0 - spin_fraction, lo, hi, buf), out=buf)

    up, dn = blockwise_arrays(grid.dims, (complex, complex), step, scratch=1)
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
    up, dn = np.empty(grid.dims), np.empty(grid.dims)
    uf, df, upf, dnf = (a.reshape(-1) for a in (u, d, up, dn))

    def densities(lo, hi, buf):  # |psi_up|^2 and |psi_dn|^2, kept, and their sum
        _abs2(uf[lo:hi], upf[lo:hi], buf)
        _abs2(df[lo:hi], dnf[lo:hi], buf)
        return np.add(upf[lo:hi], dnf[lo:hi], out=buf)

    total = float(_weighted_sum(grid, np.float64, densities))
    if abs(total - 1.0) > NORM_REL:
        raise GeneratorError(
            f"spinor is not normalized: integral = {total!r} "
            f"(tolerance {NORM_REL:.3e})"
        )
    n = float(n_electrons)
    # the multiply is fused, so the order shows: numpy reuses the temporary conj(d)
    # of a whole-grid u * conj(d) from 256 KiB on, making it conj(d) * u
    swap = grid.npoints * 16 >= 256 * 1024

    def step(lo, hi, sg):
        up[lo:hi] *= n
        dn[lo:hi] *= n
        c = np.conj(d[lo:hi], out=sg)
        np.multiply(*((c, u[lo:hi]) if swap else (u[lo:hi], c)), out=sg)
        sg *= n

    sigma, = blockwise_arrays(grid.dims, (complex,), step)
    return SpinDensityField(
        rho_up=ScalarField(grid, frozen(up)),
        rho_dn=ScalarField(grid, frozen(dn)),
        sigma=ComplexField(grid, frozen(sigma)),
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
    phase = _phase(grid, phase_gradient if coupling else 0.0)

    def step(lo, hi, up, dn, sg, buf):
        _gaussian(grid, width_up, spin_fraction * n_electrons, lo, hi, up)
        _gaussian(grid, width_dn, (1.0 - spin_fraction) * n_electrons, lo, hi, dn)
        t = np.sqrt(np.multiply(up, dn, out=buf), out=buf)
        # coupling 0 (or -0.0) makes sigma +0 exactly, whatever the phase
        sg[...] = np.multiply(t, coupling, out=t) if coupling else 0.0
        if phase is not None:
            sg *= phase[lo:hi]

    up, dn, sigma = blockwise_arrays(grid.dims, (float, float, complex), step, scratch=1)
    return SpinDensityField(
        rho_up=ScalarField(grid, frozen(up)),
        rho_dn=ScalarField(grid, frozen(dn)),
        sigma=ComplexField(grid, frozen(sigma)),
        n_electrons=n_electrons,
    )
