"""Explicit orbitals for a rank-1 spin density with constrained spin ratio.

Given R with det R = 0 pointwise and rho_up <= 2 rho_dn, the N spinor
orbitals

    Phi_k = (1/sqrt(N)) * (sigma / sqrt(rho_dn), sqrt(rho_dn)) * exp(2 i pi k f(x))

reproduce R exactly: sum_k Phi_k^a conj(Phi_k^b) = R^{ab} because the phases
cancel in every product.  Here f is the cumulative of the 1-D marginal of
the total density along one axis, rescaled so f runs from 0 to N; the phase
factors make the orbitals orthonormal in the continuum (the overlap integral
of exp(2 i pi (l-k) f) against f' is a full period of a unit circle),
and nearly so on the grid.

Two hypotheses are enforced up to tolerance: the determinant must vanish
(otherwise sigma / sqrt(rho_dn) does not carry the full up density) and the
ratio bound rho_up <= 2 rho_dn (otherwise the kinetic energy of the up
component is not controlled).  On the nodal set of rho_dn the quotient is
replaced by sqrt(rho_up) with phase 0 — sigma vanishes there by the
determinant hypothesis, so reconstruction is unaffected.

All N orbitals share the base spinor and f, so a built branch stores only
those: an :class:`OrbitalFamily` holds the base (sigma / sqrt(rho_dn) and
sqrt(rho_dn)), the phase axis, f at its nodes, the k-set and whether the
up and dn components trade places.  It is the ``orbitals`` sequence of its
:class:`OrbitalSet`, and item i is built when it is asked for, by one slab
multiply (:func:`_orbital_values`), and is not kept.  ``build_orbitals``
needs R only slab by slab, so it takes R streamed and holds none of it.

What the witness needs of a family comes from its base and phase line, and
builds no orbital: its density is that of the base (the phases cancel);
its Gram matrix, construct's gate, is a sum along the phase line against
the transverse marginal of |base|^2 (:func:`_family_gram`); the overlaps
of two families are sums against a 1-D or 2-D marginal of the product of
their bases (:func:`_cross_overlaps`); and its kinetic energy is the
product rule on the base with the f' of its own phase line
(:func:`_family_kinetic`).  The overlaps and density sums of explicit
orbitals take them one at a time in order, so that a caller need hold at
most one branch's orbitals.
"""

from __future__ import annotations

import math
from collections.abc import Sequence
from dataclasses import dataclass, field, replace
from typing import Mapping

import numpy as np

from .fields import (ComplexField, Grid3, ScalarField, _abs2, _grad_sq, _is_frozen, _small_slabs,
                     _slab_rows, _weighted_sum, _worst, blockwise, blockwise_arrays, frozen,
                     integrate_values)
from .spin_density import SpinDensityField, _det, rows, total
from .tolerances import (DEFAULT, DET_CLAMP_REL, GRAM_TOL, NULL_DET_FRACTION, NULL_DET_REL,
                         PHASE_RENORM_FACTOR, PHASE_ROUGHNESS_REL, RATIO_REL, TINY,
                         ToleranceConfig, sqrt_floor)

class NullDeterminantError(ValueError):
    """det R is not numerically zero where the construction requires it."""


class RatioHypothesisError(ValueError):
    """rho_up <= 2 rho_dn fails somewhere beyond tolerance."""


class PhaseNormalizationError(ValueError):
    """Cumulative phase missed n_electrons by more than the allowed adjustment."""


class OrthonormalityError(ValueError):
    """The orbitals would miss orthonormality on the grid by more than ``GRAM_TOL``."""


@dataclass(frozen=True)
class PhaseFunction:
    """Cumulative phase profile along one axis.

    ``marginal`` is the (renormalized) transverse integral of the density at
    the axis nodes, ``values`` its antiderivative with values[0] = 0 and
    values[-1] = n_electrons.  ``adjustment`` records how far the raw
    cumulative missed n_electrons before renormalization.
    """

    axis: int
    marginal: np.ndarray = field(repr=False)
    values: np.ndarray = field(repr=False)
    n_electrons: int
    adjustment: float
    max_dip: float = 0.0

    def __post_init__(self) -> None:
        for name in ("marginal", "values"):
            arr = np.array(getattr(self, name), dtype=np.float64, copy=True)
            arr.flags.writeable = False
            object.__setattr__(self, name, arr)


@dataclass(frozen=True)
class Spinor:
    up: ComplexField
    dn: ComplexField

    def __post_init__(self) -> None:
        if self.up.grid != self.dn.grid:
            raise ValueError("the up and dn components live on different grids")

    @property
    def grid(self) -> Grid3:
        return self.up.grid


@dataclass(frozen=True, eq=False)
class OrbitalFamily(Sequence):
    """The orbitals (base_up, base_dn) exp(2 i pi k f(x_axis)) / sqrt(n), k in ``ks``.

    ``phase`` holds f at the nodes of ``axis`` and n is ``len(ks)``.  Item i
    is the orbital of ``ks[i]``, built on each access and not kept; with
    ``exchanged`` its up and dn components trade places.
    """

    base_up: ComplexField
    base_dn: ScalarField
    axis: int
    phase: np.ndarray = field(repr=False)
    ks: tuple[int, ...]
    exchanged: bool = False

    def __post_init__(self) -> None:
        grid = self.base_up.grid
        if self.base_dn.grid != grid:
            raise ValueError("the two base components live on different grids")
        if self.axis not in (0, 1, 2):
            raise ValueError(f"axis must be 0, 1 or 2, got {self.axis!r}")
        f = np.asarray(self.phase, dtype=np.float64)
        if f.shape != (grid.dims[self.axis],):
            raise ValueError(f"phase has shape {f.shape}, expected ({grid.dims[self.axis]},)")
        if not (f.flags.c_contiguous and _is_frozen(f)):
            f = frozen(f.copy())
        object.__setattr__(self, "phase", f)
        object.__setattr__(self, "ks", tuple(int(k) for k in self.ks))
        if not self.ks:
            raise ValueError("a family needs at least one k")
        # the phases take k as a float64, which holds every integer up to 2^53
        if not all(abs(k) <= 2**53 for k in self.ks):
            raise ValueError(f"each k must be at most 2^53 in magnitude, got {self.ks!r}")

    @property
    def grid(self) -> Grid3:
        return self.base_up.grid

    def __len__(self) -> int:
        return len(self.ks)

    def __getitem__(self, i):
        if isinstance(i, slice):
            return tuple(self[j] for j in range(*i.indices(len(self))))
        up, dn = _orbital_values(self.base_up.values, self.base_dn.values, self.axis,
                                 self.phase, self.ks[i], 1.0 / math.sqrt(len(self.ks)))
        up, dn = ComplexField(self.grid, frozen(up)), ComplexField(self.grid, frozen(dn))
        return Spinor(up=dn, dn=up) if self.exchanged else Spinor(up=up, dn=dn)


def _orbital_values(
    phi_up: np.ndarray, sqrt_dn: np.ndarray, axis: int, f: np.ndarray, k: int, inv_sqrt_n: float
) -> tuple[np.ndarray, np.ndarray]:
    """(phi_up, sqrt_dn) exp(2 i pi k f(x_axis)) inv_sqrt_n, as two new complex arrays.

    The factor is formed on the axis nodes and broadcast over the row slabs
    of :func:`blockwise_arrays`.
    """
    shape = [1, 1, 1]
    shape[axis] = phi_up.shape[axis]
    factor = np.exp(2j * np.pi * k * f.reshape(shape)) * inv_sqrt_n

    def step(lo, hi, up, dn):
        fac = factor[lo:hi] if axis == 0 else factor
        np.multiply(phi_up[lo:hi], fac, out=up)
        np.multiply(sqrt_dn[lo:hi], fac, out=dn)

    return blockwise_arrays(phi_up.shape, (complex, complex), step)


# construct's diagnostics of a built branch, in the order the witness manifest lists them
DIAGNOSTICS = ("gram_deviation", "reconstruction_abs", "reconstruction_rel", "phase_adjustment",
               "phase_dip", "null_det_violations", "nodal_points", "nodal_fallback_points")


@dataclass(frozen=True)
class OrbitalSet:
    grid: Grid3
    orbitals: Sequence[Spinor]
    diagnostics: Mapping[str, object] = field(default_factory=dict)

    def __post_init__(self) -> None:
        # a family is checked through its base, explicit orbitals one by one
        held = (self.orbitals,) if isinstance(self.orbitals, OrbitalFamily) else self.orbitals
        if any(o.grid != self.grid for o in held):
            raise ValueError("orbitals live on a different grid than their set")


# -- phase ------------------------------------------------------------------


def _transverse_marginal(grid: Grid3, values: np.ndarray, axis: int) -> np.ndarray:
    """Trapezoid integral of ``values`` over the two axes other than ``axis``.

    Of a whole array, for the phase line, whose bits every stored witness
    keeps; :class:`_Transverse` forms the same bits block by block.
    """
    v = np.moveaxis(values, axis, 0)
    w = [grid.axis_weights[ax] for ax in range(3) if ax != axis]
    return (v @ w[1]) @ w[0]


class _Transverse:
    """The bits of :func:`_transverse_marginal` on ``axes``, the values fed block by block.

    Its first product gets each block's part as numpy forms it in the whole
    array: every axis-0 (axis-1) plane is a BLAS matrix-vector product, so
    ``add(cut, lo, hi, v)`` with ``cut`` 0 (1) takes the values on whole
    planes lo:hi of that axis; the axis-2 planes are strided, which numpy
    sums in order over y onto 0 without BLAS, so an axis-0 slab serves too.
    """

    def __init__(self, grid: Grid3, axes):
        nx, ny, nz = grid.dims
        self.grid = grid
        self.first = {ax: np.empty({0: (nx, ny), 1: (ny, nx), 2: (nz, nx)}[ax]) for ax in axes}

    def add(self, cut: int, lo: int, hi: int, v: np.ndarray) -> None:
        _, wy, wz = self.grid.axis_weights
        for ax, first in self.first.items():
            if ax == 2 and cut == 0:
                terms = np.multiply(v, wy[:, None])
                terms[:, 0] += 0.0  # onto 0: a -0.0 first term sums to 0.0
                first[:, lo:hi] = np.sum(terms, axis=1).T
            elif ax == cut:
                np.matmul(np.moveaxis(v, cut, 0), wz, out=first[lo:hi])

    def result(self) -> dict[int, np.ndarray]:
        wx, wy, _ = self.grid.axis_weights
        return {ax: m @ (wy if ax == 0 else wx) for ax, m in self.first.items()}


def _spectral_antiderivative(fp: np.ndarray, h: float) -> np.ndarray:
    """Antiderivative of samples fp on a uniform grid, zero at the first node.

    The linear trend through the endpoints integrates in closed form; the
    residual is periodic (zero at both ends) and integrates in Fourier space.
    For densities that decay at the box boundary this is spectrally accurate,
    which the oscillatory orbital overlaps require — a cumulative trapezoid
    here would leak its O(h^2) phase error coherently into every overlap.
    """
    n = fp.size
    xi = np.arange(n) * h
    slope = (fp[-1] - fp[0]) / ((n - 1) * h)
    resid = fp - (fp[0] + slope * xi)
    mean = resid.mean()
    ck = np.fft.rfft(resid - mean)
    freq = np.fft.rfftfreq(n, d=h)
    ik = np.zeros_like(ck)
    ik[1:] = ck[1:] / (2j * np.pi * freq[1:])
    osc = np.fft.irfft(ik, n)
    return fp[0] * xi + 0.5 * slope * xi * xi + mean * xi + (osc - osc[0])


def choose_phase_axis(rho: ScalarField) -> int:
    """Axis along which the density marginal has the largest spread (std)."""
    return _phase_axis(rho.grid, [np.clip(_transverse_marginal(rho.grid, rho.values, ax), 0.0,
                                          None) for ax in range(3)])


def _phase_axis(grid: Grid3, marginals) -> int:
    """The axis whose clipped marginal (one per axis, in order) has the largest spread."""
    spreads = []
    for ax, m in enumerate(marginals):
        w = grid.axis_weights[ax]
        x = grid.axes[ax]
        mass = float(np.sum(w * m))
        if mass <= 0.0:
            spreads.append(0.0)
            continue
        mean = float(np.sum(w * m * x)) / mass
        var = float(np.sum(w * m * (x - mean) ** 2)) / mass
        spreads.append(math.sqrt(max(var, 0.0)))
    return int(np.argmax(spreads))


def build_phase(
    rho: ScalarField,
    n_electrons: int,
    axis: int = 0,
    tol: ToleranceConfig = DEFAULT,
) -> PhaseFunction:
    """Cumulative phase f with f' = transverse marginal of rho, f(end) = N.

    The raw cumulative ends at integral(rho); it is rescaled to end at N
    exactly and the correction is recorded.  A correction larger than
    ``PHASE_RENORM_FACTOR`` times the normalization tolerance means the
    input was not normalized to start with and is rejected.
    """
    if axis not in (0, 1, 2):
        raise ValueError(f"axis must be 0, 1 or 2, got {axis!r}")
    marginal = np.clip(_transverse_marginal(rho.grid, rho.values, axis), 0.0, None)
    return _phase(rho.grid, marginal, n_electrons, axis, tol)


def _phase(grid: Grid3, marginal: np.ndarray, n_electrons: int, axis: int,
           tol: ToleranceConfig) -> PhaseFunction:
    """:func:`build_phase` from the clipped marginal on ``axis``."""
    h = grid.spacing[axis]
    # normalization is judged against the canonical (trapezoid) quadrature
    trap_total = float(np.sum(grid.axis_weights[axis] * marginal))
    adjustment = n_electrons - trap_total
    if not abs(adjustment) <= PHASE_RENORM_FACTOR * tol.norm_tol(n_electrons):
        raise PhaseNormalizationError(
            f"density mass {trap_total!r} is too far from n_electrons={n_electrons} "
            f"to renormalize (|adjustment| {abs(adjustment):.3e} > "
            f"{PHASE_RENORM_FACTOR * tol.norm_tol(n_electrons):.3e})"
        )
    raw = _spectral_antiderivative(marginal, h)
    raw_end = float(raw[-1])
    if not raw_end > 0.0:
        raise PhaseNormalizationError("density has no mass along the phase axis")
    # spectral vs trapezoid gap is integrator truncation, nonzero only for
    # piecewise-smooth marginals; bounded like the monotonicity ringing below
    quadrature_gap = raw_end - trap_total
    if not abs(quadrature_gap) <= PHASE_ROUGHNESS_REL * n_electrons:
        raise PhaseNormalizationError(
            f"spectral and trapezoid cumulatives disagree by {quadrature_gap:.3e}; "
            "the marginal is too rough to integrate spectrally"
        )
    scale = n_electrons / raw_end
    values = raw * scale
    values[-1] = float(n_electrons)
    # The clipped marginal is >= 0, so the true cumulative is non-decreasing;
    # any dip is spectral ringing (noticeable only for marginals that are
    # merely piecewise smooth, e.g. cutoff-windowed pieces).  Flatten it,
    # record it — the orbital Gram check downstream judges the damage — and
    # reject only outright pathological amplitudes.
    max_dip = _worst(np.append(0.0, -np.diff(values)), largest=True)[0]
    if not max_dip <= PHASE_ROUGHNESS_REL * n_electrons:
        raise PhaseNormalizationError(
            f"cumulative phase decreases by {max_dip:.3e}; "
            "the marginal is too rough to integrate spectrally"
        )
    values = np.maximum.accumulate(values)
    # ringing overshoot ahead of the endpoint would otherwise propagate past N
    np.minimum(values, float(n_electrons), out=values)
    values[-1] = float(n_electrons)
    return PhaseFunction(
        axis=axis,
        marginal=marginal * scale,
        values=values,
        n_electrons=int(n_electrons),
        adjustment=adjustment,
        max_dip=max_dip,
    )


# -- base spinor --------------------------------------------------------------


def require_null_determinant(r: SpinDensityField) -> int:
    """Check |det R| <= NULL_DET_REL max(rho)^2 pointwise, allowing a tiny violating fraction.

    Returns the violating-point count; raises NullDeterminantError when more
    than ``NULL_DET_FRACTION`` of the grid violates, or when det R is not
    finite somewhere, as at a ±inf or NaN entry of R (the allowance is for
    finite violations only).  ``r`` may be a :class:`StreamedDensity`.
    """
    found = []
    _small_slabs(r.grid.dims, lambda lo, hi: found.append(
        _null_det_slab(r.parts(rows(lo, hi)), r.scale, _on_grid(lo, 0))))
    return _null_det_count(found, r.scale, r.grid.npoints)


def _null_det_slab(parts, scale: float, where) -> tuple:
    """(worst |det|, its location, det there, violating count) on a block of entries ``parts``.

    ``where(loc)`` is the grid location of the block's ``loc``; det has the
    bits of :func:`det_field`.
    """
    shape = parts[0].shape
    dt = _det(parts, DET_CLAMP_REL * scale * scale, *(np.empty(shape) for _ in range(3)))
    abs_det = np.abs(dt)
    worst, loc = _worst(abs_det, largest=True)
    bad = int(np.count_nonzero(~(abs_det <= NULL_DET_REL * scale * scale)))
    return worst, where(loc), dt[loc], bad


def _on_grid(lo: int, axis: int):
    """The grid location of a location in the block of planes lo:hi of ``axis``."""
    return lambda loc: tuple(i + lo if ax == axis else i for ax, i in enumerate(loc))


def _first_worst(found) -> tuple:
    """Of per-block (value, grid location, ...), the one ``_worst`` of the whole array finds.

    NaN is worse than any number, and of equal values the first in C order wins.
    """
    worst = _worst([f[0] for f in found], largest=True)[0]
    return min((f for f in found if f[0] == worst or (worst != worst and f[0] != f[0])),
               key=lambda f: f[1])


def _null_det_count(found, scale: float, npoints: int) -> int:
    """The violating count of :func:`require_null_determinant` from its blocks; raises as it does."""
    worst, loc, at, _ = _first_worst(found)
    if not math.isfinite(worst):
        raise NullDeterminantError(f"det R = {at} at {loc}")
    bad = sum(f[-1] for f in found)
    if not bad <= NULL_DET_FRACTION * npoints:
        raise NullDeterminantError(
            f"|det| > {NULL_DET_REL * scale * scale:.3e} at {bad} of {npoints} points; "
            f"worst {at:.3e} at {loc}"
        )
    return bad


def _base_spinor(r, scale: float | None = None, each=None):
    """The unnormalized spinor (sigma / sqrt(rho_dn), sqrt(rho_dn)) of ``r`` and its counts.

    Requires det R = 0 and rho_up <= 2 rho_dn within tolerance, judged
    against ``scale`` (by default ``r.scale``); on the nodal set of rho_dn
    the up component falls back to sqrt(rho_up).  ``r`` may be a
    :class:`StreamedDensity`: one pass over slabs of axis-1 planes forms its
    entries, tests them and writes the base, and ``each(lo, hi, phi,
    sqrt_dn, entries)`` is then called on the slab of planes lo:hi.  The
    tests refuse after the pass, the null determinant first, and the base of
    a refused field is dropped.
    """
    scale = r.scale if scale is None else scale
    floor = sqrt_floor(scale)
    phi_up, sqrt_dn = np.empty(r.grid.dims, np.complex128), np.empty(r.grid.dims)
    dets, excess, counts = [], [], []

    def step(lo, hi):
        parts = r.parts(rows(lo, hi, 1))
        dets.append(_null_det_slab(parts, scale, _on_grid(lo, 1)))
        rho_up, rho_dn, sigma = parts
        # a field the tests refuse may hold infinities: nothing formed from it is used
        with np.errstate(invalid="ignore", over="ignore"):
            worst, loc = _worst(rho_up - 2.0 * rho_dn, largest=True)
            excess.append((worst, _on_grid(lo, 1)(loc)))
            up = np.clip(rho_up, 0.0, None)
            dn = np.clip(rho_dn, 0.0, None)
            live = dn >= floor
            phi = np.empty(sigma.shape, np.complex128)
            np.divide(sigma, np.sqrt(dn, out=dn), out=phi, where=live)
            # nodal set of rho_dn: sigma vanishes there (null det), any phase works
            nodal = ~live
            phi[nodal] = np.sqrt(up[nodal])
            counts.append((np.count_nonzero(nodal), np.count_nonzero(nodal & (up >= floor))))
            phi_up[:, lo:hi], sqrt_dn[:, lo:hi] = phi, dn
            del up, live, nodal  # before each() forms its own
            if each is not None:
                each(lo, hi, phi, dn, parts)

    _small_slabs(r.grid.dims, step, 1)
    stats = {"null_det_violations": float(_null_det_count(dets, scale, r.grid.npoints))}
    worst, loc = _first_worst(excess)
    if not worst <= RATIO_REL * scale:
        raise RatioHypothesisError(
            f"rho_up - 2 rho_dn = {worst:.3e} at {loc} (tolerance {RATIO_REL * scale:.3e})"
        )
    stats["nodal_points"], stats["nodal_fallback_points"] = map(float, np.sum(counts, axis=0))
    return phi_up, sqrt_dn, stats


# -- orbital set ---------------------------------------------------------------


def _overlap(a: Spinor, b: Spinor):
    """<a | b>: the integrand conj(a.up) b.up + conj(a.dn) b.dn is formed leaf by leaf."""
    au, ad, bu, bd = (f.values.reshape(-1) for f in (a.up, a.dn, b.up, b.dn))

    def integrand(lo, hi, buf):
        x = np.multiply(np.conj(au[lo:hi], out=buf), bu[lo:hi], out=buf)
        y = np.conj(ad[lo:hi])
        return np.add(x, np.multiply(y, bd[lo:hi], out=y), out=x)

    return _weighted_sum(a.grid, np.complex128, integrand)


def _overlaps(orbitals: Sequence[Spinor], each=None) -> np.ndarray:
    """Matrix of <Phi_i | Phi_j> under the trapezoid inner product.

    Each pair is integrated once, for j >= i; the lower triangle, the
    diagonal included, holds the conjugates.  The orbitals are taken from
    ``orbitals`` once each, in order, and kept until the last one has its
    column, so a family builds each of its orbitals once.  ``each(orbital)``
    is then called on every orbital after its column; on the last one, once
    the others are let go.
    """
    n = len(orbitals)
    o = np.empty((n, n), dtype=np.complex128)
    held = []
    for j, orb in enumerate(orbitals):
        held.append(orb)
        for i, a in enumerate(held):
            o[i, j] = _overlap(a, orb)
            o[j, i] = np.conj(o[i, j])
        if j == n - 1:
            held.clear()
        if each is not None:
            each(orb)
    return o


def _gram(overlaps: np.ndarray) -> np.ndarray:
    """The Gram matrix of these overlaps (a new array).

    Diagonal overlaps are real; their round-off imaginary part is dropped,
    as -0.0, the sign :func:`gram_matrix` has always returned there.
    """
    g = overlaps.copy()
    np.fill_diagonal(g.imag, -0.0)
    return g


def _deviation(g: np.ndarray) -> tuple[float, tuple[int, ...]]:
    """max |G - I| entrywise and its (k, l) position; NaN if any entry is NaN.

    Each |.| is numpy's scalar absolute value, as construct's Gram gate has
    always taken it; the vectorised one can differ in the last bit.
    """
    return _worst([[abs(x) for x in row] for row in g - np.eye(len(g))], largest=True)


def gram_matrix(orbitals: Sequence[Spinor]) -> np.ndarray:
    """Overlap matrix G_kl = <Phi_k | Phi_l> under the trapezoid inner product."""
    if len(orbitals) == 0:
        raise ValueError("no orbitals")
    return _gram(_overlaps(orbitals))


def _sq(v: np.ndarray, out: np.ndarray, buf: np.ndarray) -> np.ndarray:
    """|v|^2 into ``out``: :func:`_abs2` for complex ``v``, ``v * v`` for real."""
    return _abs2(v, out, buf) if np.iscomplexobj(v) else np.multiply(v, v, out=out)


def _add_density(sums: tuple[np.ndarray, ...], p: float, uv: np.ndarray, dv: np.ndarray,
                 each=None) -> None:
    """Add p (|u|^2, |d|^2, u conj(d)) onto the up-up, dn-dn and up-dn ``sums``.

    ``uv`` and ``dv`` are the up and dn values of one orbital, or a family's
    base components in those places (one may be real).  Pointwise, over the
    row slabs of :func:`blockwise`; ``each(lo, hi, uu, dd, buf)`` is called
    on |u|^2 and |d|^2 of rows lo:hi before they are weighted, with a free
    slab ``buf``.  numpy's complex multiply is fused, so its bits depend on
    the operand order: conj(dn) * up is the order of a whole-grid
    ``up * conj(dn)`` whose temporary numpy reuses (it does from 256 KiB,
    i.e. 16384 points, on).
    """
    up, dn, sg = sums

    def step(lo, hi):
        u, d = uv[lo:hi], dv[lo:hi]
        c = np.empty(u.shape, np.complex128)
        # two real slabs, used before c is
        uu, dd = c.view(np.float64).reshape((2,) + u.shape)
        buf = np.empty(u.shape)
        _sq(u, uu, buf)
        _sq(d, dd, buf)
        if each is not None:
            each(lo, hi, uu, dd, buf)
        for acc, sq in ((up[lo:hi], uu), (dn[lo:hi], dd)):
            acc += np.multiply(p, sq, out=sq)
        np.multiply(np.conj(d, out=c), u, out=c)
        acc = sg[lo:hi]
        acc += np.multiply(p, c, out=c)

    blockwise(up.shape, step)


def _density_sums(grid: Grid3) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Zero up-up, dn-dn and up-dn sums, for :func:`_add_density` to add orbitals onto.

    Adding the orbitals one at a time makes each point add its terms in the
    orbitals' order, and only the current orbital need be alive.
    """
    return np.zeros(grid.dims), np.zeros(grid.dims), np.zeros(grid.dims, np.complex128)


def _each(orbitals: Sequence[Spinor], fn) -> None:
    """Call ``fn(orbital)`` on each orbital in order, letting each go before the next is built."""
    for i in range(len(orbitals)):
        fn(orbitals[i])


def _deviations(sums, entries) -> list:
    """max |sum - entry| on a slab, for each of the up-up, dn-dn and up-dn parts.

    ``sums`` yields the three sums in order, each let go before the next.
    """
    return [np.max(np.abs(next(sums) - t)) for t in entries]


def _base_sums(phi: np.ndarray, sqrt_dn: np.ndarray):
    """The up-up, dn-dn and up-dn sums of the base (phi, sqrt_dn): |phi|^2, sqrt_dn^2, phi sqrt_dn."""
    yield _abs2(phi, np.empty(phi.shape), np.empty(phi.shape))
    yield np.multiply(sqrt_dn, sqrt_dn)
    yield np.multiply(phi, sqrt_dn)


def _max_deviation(r: SpinDensityField, sums) -> float:
    """Largest pointwise |sum - R| of the up-up, dn-dn and up-dn sums; NaN if any is NaN.

    ``sums(lo, hi, up, dn, sg)`` writes the sums on rows lo:hi.
    """
    maxima = []

    def step(lo, hi, up, dn):
        parts = (up, dn, np.empty(up.shape, np.complex128))
        sums(lo, hi, *parts)
        maxima.extend(_deviations(iter(parts), r.parts(rows(lo, hi))))

    blockwise(r.grid.dims, step, scratch=2)
    return float(np.max(maxima))


def reconstruction_error(orbitals: Sequence[Spinor], r: SpinDensityField) -> float:
    """max pointwise deviation of sum_k Phi_k^a conj(Phi_k^b) from R (absolute)."""
    # on finite data a weight of 1.0 changes only the sign of a zero, which |sum - R|
    # does not see; 1.0 * complex(inf, y) is complex(inf, nan), so an inf entry gives NaN
    sums = _density_sums(r.grid)
    _each(orbitals, lambda orb: _add_density(sums, 1.0, orb.up.values, orb.dn.values))

    def copy(lo, hi, *parts):
        for part, s in zip(parts, sums):
            np.copyto(part, s[lo:hi])

    return _max_deviation(r, copy)


# -- a family without its orbitals ------------------------------------------------------
#
# Every quantity of a family's orbitals (base) exp(2 i pi k f) / sqrt(n) that verify and the
# occupation spectrum need reduces to its base and 1-D or 2-D sums along the phase line.


def _components(fam: OrbitalFamily) -> tuple[np.ndarray, np.ndarray]:
    """The family's base values in the up and dn places of its orbitals."""
    u, d = fam.base_up.values, fam.base_dn.values
    return (d, u) if fam.exchanged else (u, d)


def _ladder(fam: OrbitalFamily) -> np.ndarray:
    """exp(2 i pi k f_j) / sqrt(n): one row per k of ``ks``, one column per node j of the axis."""
    return np.exp(2j * np.pi * np.multiply.outer(fam.ks, fam.phase)) / math.sqrt(len(fam.ks))


class _Marginal:
    """The trapezoid integral over the two axes other than ``axis``, fed rows at a time.

    ``add(lo, hi, v)`` takes the integrand on axis-0 rows lo:hi, from any
    worker, and each row is added once.  Each row is contracted on its own
    (over z, or over y for ``axis`` 2) by a stacked matrix-vector product,
    which numpy runs one row at a time, and the rows are summed once all are
    in.  So the result has the same bits however the rows were cut, and for
    ``axis`` 0 those of :func:`_transverse_marginal`.  ``rows`` holds the
    contracted rows, (x, y) for axes 0 and 1 and (x, z) for axis 2.
    """

    def __init__(self, grid: Grid3, axis: int, dtype=np.float64):
        nx, ny, nz = grid.dims
        self.grid, self.axis = grid, axis
        self.rows = np.empty((nx, nz if axis == 2 else ny), dtype)

    def add(self, lo: int, hi: int, v: np.ndarray) -> None:
        _, wy, wz = self.grid.axis_weights
        if self.axis == 2:
            np.matmul(wy, v, out=self.rows[lo:hi])
        else:
            np.matmul(v, wz, out=self.rows[lo:hi])

    def result(self) -> np.ndarray:
        wx, wy, _ = self.grid.axis_weights
        return self.rows @ wy if self.axis == 0 else wx @ self.rows


def _phase_gram(grid: Grid3, axis: int, marginal: np.ndarray, f: np.ndarray, ks) -> np.ndarray:
    """G_kl = sum_j mu_j exp(2 i pi (k_l - k_k) f_j), the Gram matrix of a family's orbitals.

    ``marginal`` is the transverse marginal of |base|^2 on the axis nodes,
    and mu_j is it times the axis weight, divided by n = len(ks).  The
    phase depends on the axis coordinate only, so under the trapezoid rule
    this is <Phi_k | Phi_l> of the built orbitals; each difference of k's
    is summed once.
    """
    mu = grid.axis_weights[axis] * marginal / len(ks)
    sums = {0: np.sum(mu)}
    for d in sorted({l - k for k in ks for l in ks if l > k}):
        sums[d] = np.sum(mu * np.exp(2j * np.pi * d * f))
    return np.array([[sums[l - k] if l >= k else np.conj(sums[k - l]) for l in ks] for k in ks],
                    dtype=np.complex128)


def _family_gram(fam: OrbitalFamily) -> np.ndarray:
    """The Gram matrix of a family's orbitals, none of them built (:func:`_phase_gram`)."""
    phi, s = fam.base_up.values, fam.base_dn.values
    marginal = _Marginal(fam.grid, fam.axis)

    def step(lo, hi):
        out, buf = np.empty(phi[lo:hi].shape), np.empty(phi[lo:hi].shape)
        _abs2(phi[lo:hi], out, buf)
        out += np.multiply(s[lo:hi], s[lo:hi], out=buf)
        marginal.add(lo, hi, out)

    _small_slabs(fam.grid.dims, step, rows=max(1, _slab_rows(fam.grid.dims) // 4))
    return _phase_gram(fam.grid, fam.axis, marginal.result(), fam.phase, fam.ks)


def _add_orbitals(sums, p: float, orbitals: Sequence[Spinor], gram: bool = False):
    """Add p times the density of ``orbitals`` onto ``sums``; with ``gram``, return their Gram matrix.

    A family adds p (|u|^2, |d|^2, u conj(d)) of its base components in one
    pass (the phases cancel), and that pass feeds the marginal of its
    Gram matrix, which has the bits of :func:`_family_gram`.  Explicit
    orbitals are added one by one, and their overlaps are integrated.
    """
    if isinstance(orbitals, OrbitalFamily):
        marginal = _Marginal(orbitals.grid, orbitals.axis) if gram else None

        def each(lo, hi, uu, dd, buf):
            # |phi_up|^2 + |sqrt_dn|^2 whichever place each holds: the sum commutes
            marginal.add(lo, hi, np.add(uu, dd, out=buf))

        _add_density(sums, p, *_components(orbitals), each if gram else None)
        if gram:
            return _phase_gram(orbitals.grid, orbitals.axis, marginal.result(), orbitals.phase,
                               orbitals.ks)
        return None

    def add(orb):
        _add_density(sums, p, orb.up.values, orb.dn.values)

    if gram:
        return _gram(_overlaps(orbitals, add))
    _each(orbitals, add)
    return None


def _cross_overlaps(fa: OrbitalFamily, fb: OrbitalFamily) -> np.ndarray:
    """<Phi_k | Phi_l> for k of family ``fa`` and l of family ``fb``, none of them built.

    The pointwise product c = conj(a_up) b_up + conj(a_dn) b_dn of the two
    bases is integrated over the axes no phase depends on, and the phases
    are summed against what is left: a complex 1-D marginal when both
    families have one axis, a 2-D one when not.  When the two axes are 1
    and 2, each row is first contracted over z with the z family's phases.
    """
    grid = fa.grid
    (au, ad), (bu, bd) = _components(fa), _components(fb)
    ea, eb = np.conj(_ladder(fa)), _ladder(fb)
    a, b = fa.axis, fb.axis
    w = grid.axis_weights
    nx, ny, _ = grid.dims

    def rows_of(contract):
        def step(lo, hi):
            contract(lo, hi, np.conj(au[lo:hi]) * bu[lo:hi] + np.conj(ad[lo:hi]) * bd[lo:hi])

        _small_slabs(grid.dims, step, rows=max(1, _slab_rows(grid.dims) // 4))

    if a == b:
        marginal = _Marginal(grid, a, np.complex128)
        rows_of(marginal.add)
        return ea @ (w[a] * marginal.result() * eb).T
    if 0 in (a, b):
        # the 2-D marginal over the third axis: the rows of the other axis's marginal
        other = a + b
        m = _Marginal(grid, other, np.complex128)
        rows_of(m.add)
        m2 = m.rows * np.multiply.outer(w[0], w[other])
        return ea @ m2 @ eb.T if a == 0 else ea @ m2.T @ eb.T
    # axes 1 and 2: contract z against the phases of the family on it, then x, then y
    ez = eb if b == 2 else ea
    q = np.ascontiguousarray((w[2] * ez).T)
    t = np.empty((nx, ny, len(ez)), np.complex128)
    rows_of(lambda lo, hi, c: np.matmul(c, q, out=t[lo:hi]))
    s = (w[0] @ t.reshape(nx, -1)).reshape(ny, -1) * w[1][:, None]
    return ea @ s if b == 2 else s.T @ eb.T


def _phase_derivative(f: np.ndarray, h: float) -> np.ndarray:
    """f' at the nodes of a uniform axis, from f: the inverse of :func:`_spectral_antiderivative`'s split.

    f is the line through its end values plus a remainder that vanishes at
    both ends.  The line differentiates to its slope; the remainder, taken
    as one period of n - 1 nodes (the last node repeats the first), is
    differentiated in Fourier space.  For a phase whose f' vanishes at the
    box ends this is spectrally accurate.
    """
    n = f.size
    slope = (f[-1] - f[0]) / ((n - 1) * h)
    rest = f[:-1] - (f[0] + slope * (np.arange(n - 1) * h))
    ck = np.fft.rfft(rest)
    ck *= 2j * np.pi * np.fft.rfftfreq(n - 1, d=h)
    if (n - 1) % 2 == 0:
        ck[-1] = 0.0  # the Nyquist mode has no odd derivative
    d = np.fft.irfft(ck, n - 1)
    return slope + np.append(d, d[0])


def _family_kinetic(fam: OrbitalFamily) -> tuple[float, float]:
    """(T_up, T_dn): sum_k integral |grad Phi_k^a|^2 over the family's orbitals, none built.

    For each base component b, on phase axis a, with f' from the family's
    own f (:func:`_phase_derivative`) and <.> the mean over ``ks``:

        integral |grad b|^2 + (2 pi)^2 <k^2> integral f'^2 |b|^2
                            + 4 pi <k> integral f' Im(conj(b) d_a b)

    The first term has the bits of ``h1_seminorm`` of b; its stencil pass
    also gives d_a b to the transverse marginals of the other two, which
    are then summed along the axis.  A real component has no last term.
    """
    grid, ax = fam.grid, fam.axis
    ks = np.asarray(fam.ks, dtype=np.float64)
    k1, k2 = float(np.mean(ks)), float(np.mean(ks * ks))
    fp = _phase_derivative(fam.phase, grid.spacing[ax])
    wfp = grid.axis_weights[ax] * fp

    def kinetic(b):
        complex_base = np.iscomplexobj(b)
        mass, current = _Marginal(grid, ax), _Marginal(grid, ax)

        def each(axis, lo, hi, g):
            if axis != ax:
                return
            v = b[lo:hi]
            mass.add(lo, hi, _sq(v, np.empty(v.shape), np.empty(v.shape)))
            if complex_base:
                # Im(conj(v) dv) = Re v Im dv - Im v Re dv
                current.add(lo, hi, v.real * g[..., 1] - v.imag * g[..., 0])

        t = float(integrate_values(grid, _grad_sq(grid, b, each)))
        t += (2.0 * np.pi) ** 2 * k2 * float(np.sum(wfp * fp * mass.result()))
        if complex_base:
            t += 4.0 * np.pi * k1 * float(np.sum(wfp * current.result()))
        return t

    up, dn = _components(fam)
    return kinetic(up), kinetic(dn)


def build_orbitals(
    r: SpinDensityField,
    axis: int | None = None,
    tol: ToleranceConfig = DEFAULT,
) -> OrbitalSet:
    """Construct the N phase-modulated orbitals reproducing a rank-1 R.

    They are returned as an :class:`OrbitalFamily`, which builds each
    orbital when it is asked for; none is built here.  When their Gram
    deviation on the grid exceeds ``GRAM_TOL``, this raises
    :class:`OrthonormalityError`.  The diagnostics carry that Gram deviation
    (a 1-D sum along the phase axis, exact for these orbitals), the
    absolute and relative reconstruction errors (from the base spinor, in
    which the phases cancel), the nodal-set fallback counts and the phase
    renormalization adjustment.  ``axis`` (0-2) is the phase axis; None
    takes :func:`choose_phase_axis`.

    ``r`` may be a :class:`StreamedDensity`, whose entries are formed where
    they are used, in two passes: one over axis-0 slabs for max(rho) and the
    transverse marginals of rho on axes 0 and 2, then the pass of
    :func:`_base_spinor`, which also gives the marginal on axis 1 and the
    reconstruction error.  The phase of the chosen axis reuses its marginal.
    """
    if axis not in (None, 0, 1, 2):
        raise ValueError(f"axis must be 0, 1 or 2, got {axis!r}")
    grid, n = r.grid, r.n_electrons
    marginals = _Transverse(grid, range(3) if axis is None else (axis,))
    maxima = []

    def rho(lo, hi):
        t = total(r, rows(lo, hi))
        maxima.append(np.max(t))
        marginals.add(0, lo, hi, t)

    # the marginals of axes 0 and 2 and max(rho); the base pass gives axis 1's
    _small_slabs(grid.dims, rho)
    scale, recon = float(np.max(maxima)), []

    def each(lo, hi, phi, sqrt_dn, entries):
        marginals.add(1, lo, hi, np.add(entries[0], entries[1]))
        # the phases cancel: sum_k Phi_k^a conj(Phi_k^b) = base^a conj(base^b)
        recon.extend(_deviations(_base_sums(phi, sqrt_dn), entries))

    phi_up, sqrt_dn, stats = _base_spinor(r, scale, each)
    marginals = {ax: np.clip(m, 0.0, None) for ax, m in marginals.result().items()}
    ax = _phase_axis(grid, marginals.values()) if axis is None else axis
    phase = _phase(grid, marginals[ax], n, ax, tol)
    family = OrbitalFamily(
        base_up=ComplexField(grid, frozen(phi_up)),
        base_dn=ScalarField(grid, frozen(sqrt_dn)),
        axis=ax,
        phase=phase.values,
        ks=tuple(range(1, n + 1)),
    )
    gram = _deviation(_family_gram(family))[0]
    if not gram <= GRAM_TOL:
        raise OrthonormalityError(
            f"orbitals are not orthonormal on this grid: Gram deviation "
            f"{gram:.3e} > {GRAM_TOL:.3e}"
        )
    recon = float(np.max(recon))
    diagnostics = {
        "gram_deviation": gram,
        "reconstruction_abs": recon,
        "reconstruction_rel": recon / _worst((scale, TINY), largest=True)[0],
        "phase_adjustment": phase.adjustment,
        "phase_dip": phase.max_dip,
        **stats,
    }
    return OrbitalSet(grid=grid, orbitals=family, diagnostics=diagnostics)


def exchange_components(orbs: OrbitalSet) -> OrbitalSet:
    """Swap the up/dn components of every orbital (no conjugation).

    Orbitals built for the spin-swapped field turn into orbitals for the
    original field under this exchange.  A family only flips its flag.
    """
    if isinstance(orbs.orbitals, OrbitalFamily):
        swapped = replace(orbs.orbitals, exchanged=not orbs.orbitals.exchanged)
    else:
        swapped = tuple(Spinor(up=o.dn, dn=o.up) for o in orbs.orbitals)
    return replace(orbs, orbitals=swapped, diagnostics=dict(orbs.diagnostics))
