"""2x2 spin-density matrix fields R = [[rho_up, sigma], [conj(sigma), rho_dn]]."""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .fields import ComplexField, Grid3, ScalarField, blockwise_arrays, frozen, integrate
from .tolerances import DET_CLAMP_REL


@dataclass(frozen=True)
class SpinDensityField:
    """Hermitian 2x2 matrix field with its intended electron count.

    The container itself only enforces structure (matching grids, a positive
    integer electron count); whether the data is actually an admissible
    spin density is the job of :func:`spinrep.check.check`.
    """

    rho_up: ScalarField
    rho_dn: ScalarField
    sigma: ComplexField
    n_electrons: int

    def __post_init__(self) -> None:
        if not (self.rho_up.grid == self.rho_dn.grid == self.sigma.grid):
            raise ValueError("rho_up, rho_dn and sigma must share one grid")
        n = self.n_electrons
        if not (isinstance(n, (int, np.integer)) and int(n) >= 1):
            raise ValueError(f"n_electrons must be a positive integer, got {n!r}")
        object.__setattr__(self, "n_electrons", int(n))

    @property
    def grid(self) -> Grid3:
        return self.rho_up.grid

    @cached_property
    def rho_total(self) -> ScalarField:
        up, dn = self.rho_up.values, self.rho_dn.values
        total, = blockwise_arrays(self.grid.dims, (float,),
                                  lambda lo, hi, out: np.add(up[lo:hi], dn[lo:hi], out=out))
        return ScalarField(self.grid, frozen(total))

    @cached_property
    def scale(self) -> float:
        """max of the total density; the reference scale for tolerances."""
        return float(np.max(self.rho_total.values))


def det_field(r: SpinDensityField) -> ScalarField:
    """Pointwise determinant rho_up*rho_dn - |sigma|^2.

    Negative values within round-off of zero (magnitude up to
    ``DET_CLAMP_REL * max(rho)^2``) are clamped to 0 so that downstream
    square roots stay real; larger negatives are genuine PSD violations and
    are preserved for the checker to flag.
    """
    up, dn, s = r.rho_up.values, r.rho_dn.values, r.sigma.values
    clamp = DET_CLAMP_REL * r.scale * r.scale

    def step(lo, hi, d, re2, im2):
        # up * dn - (re^2 + im^2), written block by block into d
        sg = s[lo:hi]
        mod2 = np.multiply(sg.real, sg.real, out=re2)
        mod2 += np.multiply(sg.imag, sg.imag, out=im2)
        np.multiply(up[lo:hi], dn[lo:hi], out=d)
        d -= mod2
        d[(d < 0.0) & (d >= -clamp)] = 0.0

    det, = blockwise_arrays(r.grid.dims, (float,), step, scratch=2)
    return ScalarField(r.grid, frozen(det))


def trace_integral(r: SpinDensityField) -> float:
    """integral of rho_up + rho_dn (should equal n_electrons)."""
    return integrate(r.rho_up) + integrate(r.rho_dn)


def spin_swap(r: SpinDensityField) -> SpinDensityField:
    """Exchange the spin channels: (rho_up, rho_dn, sigma) -> (rho_dn, rho_up, conj sigma).

    Involutive, leaves the determinant and total density unchanged.  The
    input's cached ``rho_total`` and ``scale`` carry over: IEEE addition
    commutes, so rho_dn + rho_up has the same bits as rho_up + rho_dn.
    """
    swapped = SpinDensityField(
        rho_up=r.rho_dn,
        rho_dn=r.rho_up,
        sigma=ComplexField(r.grid, frozen(np.conj(r.sigma.values))),
        n_electrons=r.n_electrons,
    )
    for name in ("rho_total", "scale"):
        if name in r.__dict__:
            swapped.__dict__[name] = r.__dict__[name]
    return swapped
