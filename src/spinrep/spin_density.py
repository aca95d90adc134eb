"""2x2 spin-density matrix fields R = [[rho_up, sigma], [conj(sigma), rho_dn]].

A field's entries are held whole (:class:`SpinDensityField`) or formed
block by block where they are used (:class:`StreamedDensity`); both give
them on a block as ``parts(sel)``, ``sel(a)`` being the block of an array.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from typing import Callable

import numpy as np

from .fields import (ComplexField, Grid3, ScalarField, _small_slabs, blockwise_arrays, frozen,
                     integrate)
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

    def parts(self, sel, sigma: bool = True):
        """rho_up, rho_dn and (with ``sigma``, else None) sigma on the block ``sel`` selects."""
        return (sel(self.rho_up.values), sel(self.rho_dn.values),
                sel(self.sigma.values) if sigma else None)


def rows(lo: int, hi: int, axis: int = 0):
    """The selector of the planes lo:hi of ``axis``, by default axis-0 rows.

    Complex planes of another axis are copied to a C-contiguous block: numpy
    may multiply strided complex data by another loop, which can round
    differently.
    """
    index = (slice(None),) * axis + (slice(lo, hi),)
    return lambda a: np.ascontiguousarray(a[index]) if a.dtype.kind == "c" else a[index]


def total(r, sel) -> np.ndarray:
    """rho_up + rho_dn of ``r`` on the block ``sel`` selects, with the bits of ``rho_total``."""
    up, dn, _ = r.parts(sel, sigma=False)
    return np.add(up, dn)


@dataclass(frozen=True, eq=False)
class StreamedDensity:
    """A spin density never held whole: ``parts(sel, sigma=True)`` forms its entries on a block.

    They are new arrays, each a pointwise expression, so a block has the
    bits of the same points of the whole array.
    """

    grid: Grid3
    n_electrons: int
    parts: Callable

    @cached_property
    def scale(self) -> float:
        """max of rho_up + rho_dn over small slabs, with the bits of ``SpinDensityField.scale``."""
        maxima = []
        _small_slabs(self.grid.dims,
                     lambda lo, hi: maxima.append(np.max(total(self, rows(lo, hi)))))
        return float(np.max(maxima))

    def field(self) -> SpinDensityField:
        """The density held whole."""
        def step(lo, hi, *outs):
            for out, part in zip(outs, self.parts(rows(lo, hi))):
                np.copyto(out, part)

        g = self.grid
        up, dn, sg = blockwise_arrays(g.dims, (float, float, complex), step)
        return SpinDensityField(ScalarField(g, frozen(up)), ScalarField(g, frozen(dn)),
                                ComplexField(g, frozen(sg)), self.n_electrons)


def det_field(r: SpinDensityField) -> ScalarField:
    """Pointwise determinant rho_up*rho_dn - |sigma|^2.

    Negative values within round-off of zero (magnitude up to
    ``DET_CLAMP_REL * max(rho)^2``) are clamped to 0 so that downstream
    square roots stay real; larger negatives are genuine PSD violations and
    are preserved for the checker to flag.
    """
    clamp = DET_CLAMP_REL * r.scale * r.scale
    det, = blockwise_arrays(r.grid.dims, (float,),
                            lambda lo, hi, d, *bufs: _det(r.parts(rows(lo, hi)), clamp, d, *bufs),
                            scratch=2)
    return ScalarField(r.grid, frozen(det))


def _det(parts, clamp: float, d: np.ndarray, re2: np.ndarray, im2: np.ndarray) -> np.ndarray:
    """:func:`det_field` on a block of its entries ``parts``, into ``d``; re2, im2 are scratch."""
    up, dn, s = parts
    # up * dn - (re^2 + im^2)
    mod2 = np.multiply(s.real, s.real, out=re2)
    mod2 += np.multiply(s.imag, s.imag, out=im2)
    np.multiply(up, dn, out=d)
    d -= mod2
    d[(d < 0.0) & (d >= -clamp)] = 0.0
    return d


def trace_integral(r: SpinDensityField) -> float:
    """integral of rho_up + rho_dn (should equal n_electrons)."""
    return integrate(r.rho_up) + integrate(r.rho_dn)


def spin_swap(r: SpinDensityField) -> SpinDensityField:
    """Exchange the spin channels: (rho_up, rho_dn, sigma) -> (rho_dn, rho_up, conj sigma).

    Involutive, leaves the determinant and total density unchanged.  The
    input's cached ``rho_total`` and ``scale`` carry over: IEEE addition
    commutes, so rho_dn + rho_up has the same bits as rho_up + rho_dn.
    """
    up, dn, sg = _swap(r.rho_up, r.rho_dn, r.sigma.values)
    out = SpinDensityField(rho_up=up, rho_dn=dn, sigma=ComplexField(r.grid, frozen(sg)),
                           n_electrons=r.n_electrons)
    for name in ("rho_total", "scale"):
        if name in r.__dict__:
            out.__dict__[name] = r.__dict__[name]
    return out


def _swap(up, dn, sg):
    """The entries of the spin-swapped density: (dn, up, conj sigma); sigma may be None."""
    return dn, up, None if sg is None else np.conj(sg)


def swapped(r) -> StreamedDensity:
    """:func:`spin_swap` of ``r``, streamed."""
    return StreamedDensity(r.grid, r.n_electrons,
                           lambda sel, sigma=True: _swap(*r.parts(sel, sigma)))
