"""Closed-form pointwise square root of the 2x2 spin-density matrix field.

For a PSD 2x2 matrix R with trace rho and determinant d,

    sqrt(R) = (R + sqrt(d) I) / sqrt(rho + 2 sqrt(d)),

which gives the entries used below:

    r_up = (rho_up + sqrt(d)) / sqrt(rho + 2 sqrt(d))
    r_dn = (rho_dn + sqrt(d)) / sqrt(rho + 2 sqrt(d))
    s    = sigma / sqrt(rho + 2 sqrt(d))

with det(sqrt R) = sqrt(d).  Where rho + 2 sqrt(d) falls below a floor the
matrix is numerically zero and sqrt(R) is set to 0.

The eigen densities of R are recovered from the sqrt entries rather than by
a direct eigensolve: with Delta = (r_up - r_dn)^2 + 4 |s|^2 the eigenvalues
of sqrt(R) are (r_up + r_dn +- sqrt(Delta)) / 2, and squaring them gives
rho_plus / rho_minus.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .check import _psd_conditions, _sqrt_clipped
from .fields import ComplexField, ScalarField, blockwise_arrays, frozen
from .spin_density import SpinDensityField
from .tolerances import DEFAULT, ToleranceConfig, sqrt_floor


class NotPositiveSemidefiniteError(ValueError):
    """Input field violates rho >= 0 or det >= 0 beyond tolerance."""


@dataclass(frozen=True)
class SqrtField:
    """Entries of the pointwise matrix square root (itself Hermitian PSD)."""

    r_up: ScalarField
    r_dn: ScalarField
    s: ComplexField


@dataclass(frozen=True)
class EigenDensities:
    """Pointwise eigenvalue fields of R, ordered rho_plus >= rho_minus."""

    rho_plus: ScalarField
    rho_minus: ScalarField


def sqrt_field(r: SpinDensityField, tol: ToleranceConfig = DEFAULT) -> SqrtField:
    """Pointwise matrix square root; rejects inputs that are not PSD within tolerance.

    The test is conditions (a) and (b) of :func:`spinrep.check.check`.
    """
    with np.errstate(invalid="ignore"):  # non-finite input fails the conditions quietly
        *conditions, det = _psd_conditions(r, tol)
    for c in conditions:
        if not c.passed:
            raise NotPositiveSemidefiniteError(
                f"{c.name}: {c.value:.3e} at {c.details['worst_location']} "
                f"(threshold {c.details['threshold']:.3e})"
            )
    root = _sqrt_clipped(det)
    del det
    up, dn, s = _entries(r, root)
    return SqrtField(
        r_up=ScalarField(r.grid, frozen(up)),
        r_dn=ScalarField(r.grid, frozen(dn)),
        s=ComplexField(r.grid, frozen(s)),
    )


def _entries(r: SpinDensityField, root: np.ndarray) -> list[np.ndarray]:
    """The entries r_up, r_dn and s of sqrt(R), new arrays; ``root`` holds sqrt(max(det R, 0))."""
    rho_up, rho_dn, sigma = r.rho_up.values, r.rho_dn.values, r.sigma.values
    floor = sqrt_floor(r.scale)

    def step(lo, hi, u, d, s, denom, inv):
        sq_det = root[lo:hi]
        np.clip(rho_up[lo:hi], 0.0, None, out=u)
        np.clip(rho_dn[lo:hi], 0.0, None, out=d)
        denom = np.add(u, d, out=denom)
        denom += np.multiply(2.0, sq_det, out=inv)
        mask = denom >= floor
        inv.fill(0.0)
        np.divide(1.0, np.sqrt(denom, out=denom), out=inv, where=mask)
        # (x + sq_det) * inv, in place
        for a in (u, d):
            a += sq_det
            a *= inv
        np.multiply(sigma[lo:hi], inv, out=s)

    return blockwise_arrays(r.grid.dims, (float, float, complex), step, scratch=2)


def eigen_densities(r: SpinDensityField, tol: ToleranceConfig = DEFAULT) -> EigenDensities:
    """Ordered eigenvalue fields rho_plus >= rho_minus of R, via the sqrt entries."""
    sq = sqrt_field(r, tol)
    ru, rd, s = sq.r_up.values, sq.r_dn.values, sq.s.values
    # sp, sm: the eigenvalues of sqrt(R), i.e. sqrt(rho_plus) and sqrt(rho_minus)
    delta = (ru - rd) ** 2 + 4.0 * (s.real * s.real + s.imag * s.imag)
    root = np.sqrt(delta)
    sp = 0.5 * (ru + rd + root)
    # analytically >= 0; clamp the round-off negatives
    sm = np.clip(0.5 * (ru + rd - root), 0.0, None)
    return EigenDensities(
        rho_plus=ScalarField(r.grid, frozen(sp * sp)),
        rho_minus=ScalarField(r.grid, frozen(sm * sm)),
    )
