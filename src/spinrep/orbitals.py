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
multiply (:func:`_orbital_values`), and is not kept.  The overlaps and
density sums below take their orbitals one at a time in order, so that a
caller need hold at most one branch's orbitals.
"""

from __future__ import annotations

import functools
import math
from collections.abc import Sequence
from dataclasses import dataclass, field, replace
from typing import Mapping

import numpy as np

from .fields import (ComplexField, Grid3, ScalarField, _abs2, _is_frozen, _weighted_sum, _worst,
                     blockwise, blockwise_arrays, frozen)
from .spin_density import SpinDensityField, det_field
from .tolerances import (DEFAULT, GRAM_TOL, NULL_DET_FRACTION, NULL_DET_REL, PHASE_RENORM_FACTOR,
                         PHASE_ROUGHNESS_REL, RATIO_REL, TINY, ToleranceConfig, sqrt_floor)

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
    """Trapezoid integral of ``values`` over the two axes other than ``axis``."""
    v = np.moveaxis(values, axis, 0)
    w = [grid.axis_weights[ax] for ax in range(3) if ax != axis]
    return (v @ w[1]) @ w[0]


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
    spreads = []
    for ax in range(3):
        m = np.clip(_transverse_marginal(rho.grid, rho.values, ax), 0.0, None)
        w = rho.grid.axis_weights[ax]
        x = rho.grid.axes[ax]
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
    h = rho.grid.spacing[axis]
    # normalization is judged against the canonical (trapezoid) quadrature
    trap_total = float(np.sum(rho.grid.axis_weights[axis] * marginal))
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
    finite violations only).
    """
    dt = det_field(r).values
    thr = NULL_DET_REL * r.scale * r.scale
    abs_det = np.abs(dt)
    worst, loc = _worst(abs_det, largest=True)
    if not math.isfinite(worst):
        raise NullDeterminantError(f"det R = {dt[loc]} at {loc}")
    bad = int(np.count_nonzero(~(abs_det <= thr)))
    if not bad <= NULL_DET_FRACTION * r.grid.npoints:
        raise NullDeterminantError(
            f"|det| > {thr:.3e} at {bad} of {r.grid.npoints} points; "
            f"worst {dt[loc]:.3e} at {loc}"
        )
    return bad


def _base_spinor(r: SpinDensityField) -> tuple[np.ndarray, np.ndarray, dict[str, float]]:
    """The unnormalized spinor (sigma / sqrt(rho_dn), sqrt(rho_dn)) and its counts.

    Requires det R = 0 and rho_up <= 2 rho_dn within tolerance; on the nodal
    set of rho_dn the up component falls back to sqrt(rho_up).
    """
    stats: dict[str, float] = {"null_det_violations": float(require_null_determinant(r))}
    worst, loc = _worst(r.rho_up.values - 2.0 * r.rho_dn.values, largest=True)
    if not worst <= RATIO_REL * r.scale:
        raise RatioHypothesisError(
            f"rho_up - 2 rho_dn = {worst:.3e} at {loc} (tolerance {RATIO_REL * r.scale:.3e})"
        )
    floor = sqrt_floor(r.scale)
    rho_up, rho_dn, sigma = r.rho_up.values, r.rho_dn.values, r.sigma.values
    counts = []

    def step(lo, hi, phi, sqrt_dn, up):
        up = np.clip(rho_up[lo:hi], 0.0, None, out=up)
        dn = np.clip(rho_dn[lo:hi], 0.0, None, out=sqrt_dn)
        live = dn >= floor
        np.divide(sigma[lo:hi], np.sqrt(dn, out=dn), out=phi, where=live)
        # nodal set of rho_dn: sigma vanishes there (null det), any phase works
        nodal = ~live
        phi[nodal] = np.sqrt(up[nodal])
        counts.append((np.count_nonzero(nodal), np.count_nonzero(nodal & (up >= floor))))

    phi_up, sqrt_dn = blockwise_arrays(r.grid.dims, (complex, float), step, scratch=1)
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


def _deviation(g: np.ndarray) -> float:
    """max |G - I| entrywise."""
    return float(np.max(np.abs(g - np.eye(len(g)))))


def gram_matrix(orbitals: Sequence[Spinor]) -> np.ndarray:
    """Overlap matrix G_kl = <Phi_k | Phi_l> under the trapezoid inner product."""
    if len(orbitals) == 0:
        raise ValueError("no orbitals")
    return _gram(_overlaps(orbitals))


def _add_density(sums: tuple[np.ndarray, ...], p: float, orb: Spinor) -> None:
    """Add p Phi^a conj(Phi^b) of one orbital onto the up-up, dn-dn and up-dn ``sums``.

    Pointwise, over the row slabs of :func:`blockwise`.  numpy's complex
    multiply is fused, so its bits depend on the operand order:
    conj(dn) * up is the order of a whole-grid ``up * conj(dn)`` whose
    temporary numpy reuses (it does from 256 KiB, i.e. 16384 points, on).
    """
    up, dn, sg = sums
    uv, dv = orb.up.values, orb.dn.values

    def step(lo, hi):
        u, d = uv[lo:hi], dv[lo:hi]
        c = np.empty(u.shape, np.complex128)
        # two real slabs, used before c is
        sq = c.view(np.float64).reshape((2,) + u.shape)
        for acc, v in ((up[lo:hi], u), (dn[lo:hi], d)):
            acc += np.multiply(p, _abs2(v, sq[0], sq[1]), out=sq[0])
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


def _max_deviation(r: SpinDensityField, sums) -> float:
    """Largest pointwise |sum - R| of the up-up, dn-dn and up-dn sums; NaN if any is NaN.

    ``sums(lo, hi, up, dn, sg)`` writes the sums on rows lo:hi.
    """
    targets = [f.values for f in (r.rho_up, r.rho_dn, r.sigma)]
    maxima = []

    def step(lo, hi, up, dn):
        parts = (up, dn, np.empty(up.shape, np.complex128))
        sums(lo, hi, *parts)
        maxima.extend([np.max(np.abs(a - t[lo:hi])) for a, t in zip(parts, targets)])

    blockwise(r.grid.dims, step, scratch=2)
    return float(np.max(maxima))


def reconstruction_error(orbitals: Sequence[Spinor], r: SpinDensityField) -> float:
    """max pointwise deviation of sum_k Phi_k^a conj(Phi_k^b) from R (absolute)."""
    # on finite data a weight of 1.0 changes only the sign of a zero, which |sum - R|
    # does not see; 1.0 * complex(inf, y) is complex(inf, nan), so an inf entry gives NaN
    sums = _density_sums(r.grid)
    _each(orbitals, functools.partial(_add_density, sums, 1.0))

    def copy(lo, hi, *parts):
        for part, s in zip(parts, sums):
            np.copyto(part, s[lo:hi])

    return _max_deviation(r, copy)


def _phase_gram_deviation(
    phi_up: np.ndarray, sqrt_dn: np.ndarray, phase: PhaseFunction, grid: Grid3
) -> float:
    """max |G - I| of the orbitals (phi_up, sqrt_dn) exp(2 i pi k f) / sqrt(N), k = 1..N.

    The phase depends on the axis coordinate only, so under the trapezoid
    rule G_kl = sum_j mu_j exp(2 i pi (l - k) f_j), where mu_j is the
    trapezoid-weighted transverse marginal of |base|^2 divided by N.  This
    equals max |G - I| of :func:`gram_matrix` of the built orbitals up to round-off,
    without building them.
    """
    def step(lo, hi, out, buf):
        s = sqrt_dn[lo:hi]
        _abs2(phi_up[lo:hi], out, buf)
        out += np.multiply(s, s, out=buf)

    base_sq, = blockwise_arrays(grid.dims, (float,), step, scratch=1)
    ax = phase.axis
    mu = grid.axis_weights[ax] * _transverse_marginal(grid, base_sq, ax) / phase.n_electrons
    devs = [abs(float(np.sum(mu)) - 1.0)]
    devs += [abs(np.sum(mu * np.exp(2j * np.pi * d * phase.values)))
             for d in range(1, phase.n_electrons)]
    return _worst(devs, largest=True)[0]


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
    """
    ax = choose_phase_axis(r.rho_total) if axis is None else axis
    n = r.n_electrons
    phi_up, sqrt_dn, stats = _base_spinor(r)
    phase = build_phase(r.rho_total, n, ax, tol)
    gram = _phase_gram_deviation(phi_up, sqrt_dn, phase, r.grid)
    if not gram <= GRAM_TOL:
        raise OrthonormalityError(
            f"orbitals are not orthonormal on this grid: Gram deviation "
            f"{gram:.3e} > {GRAM_TOL:.3e}"
        )

    def base_sums(lo, hi, up, dn, sg):
        # the phases cancel: sum_k Phi_k^a conj(Phi_k^b) = base^a conj(base^b)
        p, s = phi_up[lo:hi], sqrt_dn[lo:hi]
        _abs2(p, up, dn)
        np.multiply(s, s, out=dn)
        np.multiply(p, s, out=sg)

    recon = _max_deviation(r, base_sums)
    family = OrbitalFamily(
        base_up=ComplexField(r.grid, frozen(phi_up)),
        base_dn=ScalarField(r.grid, frozen(sqrt_dn)),
        axis=ax,
        phase=phase.values,
        ks=tuple(range(1, n + 1)),
    )
    scale = _worst((r.scale, TINY), largest=True)[0]
    diagnostics = {
        "gram_deviation": gram,
        "reconstruction_abs": recon,
        "reconstruction_rel": recon / scale,
        "phase_adjustment": phase.adjustment,
        "phase_dip": phase.max_dip,
        **stats,
    }
    return OrbitalSet(grid=r.grid, orbitals=family, diagnostics=diagnostics)


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
