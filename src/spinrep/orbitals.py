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
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass, field
from typing import Iterable, Mapping, Sequence

import numpy as np

from .fields import (ComplexField, Grid3, ScalarField, _abs2, _over_slabs, _weighted_sum,
                     _worst, blockwise, blockwise_arrays, frozen)
from .check import DensityNorms
from .spin_density import SpinDensityField, det_field
from .tolerances import DEFAULT, PHASE_ROUGHNESS_REL, TINY, ToleranceConfig

AXIS_NAMES = {"x": 0, "y": 1, "z": 2}


class NullDeterminantError(ValueError):
    """det R is not numerically zero where the construction requires it."""


class RatioHypothesisError(ValueError):
    """rho_up <= 2 rho_dn fails somewhere beyond tolerance."""


class PhaseNormalizationError(ValueError):
    """Cumulative phase missed n_electrons by more than the allowed adjustment."""


class OrthonormalityError(ValueError):
    """The orbitals would miss orthonormality on the grid by more than ``gram_tol``."""


@dataclass(frozen=True)
class PhaseFunction:
    """Cumulative phase profile along one axis.

    ``marginal`` is the (renormalized) transverse integral of the density at
    the axis nodes, ``values`` its antiderivative with values[0] = 0 and
    values[-1] = n_electrons.  ``adjustment`` records how far the raw
    cumulative missed n_electrons before renormalization.
    """

    axis: int
    nodes: np.ndarray = field(repr=False)
    marginal: np.ndarray = field(repr=False)
    values: np.ndarray = field(repr=False)
    n_electrons: int
    adjustment: float
    max_dip: float = 0.0
    quadrature_gap: float = 0.0

    def __post_init__(self) -> None:
        for name in ("nodes", "marginal", "values"):
            arr = np.array(getattr(self, name), dtype=np.float64, copy=True)
            arr.flags.writeable = False
            object.__setattr__(self, name, arr)


@dataclass(frozen=True)
class Spinor:
    up: ComplexField
    dn: ComplexField

    @property
    def grid(self) -> Grid3:
        return self.up.grid


@dataclass(frozen=True)
class OrbitalSet:
    grid: Grid3
    n_electrons: int
    orbitals: tuple[Spinor, ...]
    axis: int | None = None
    phase: PhaseFunction | None = None
    diagnostics: Mapping[str, object] = field(default_factory=dict)


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


def resolve_axis(axis, rho: ScalarField | None = None) -> int:
    """Accept 0/1/2, 'x'/'y'/'z' or 'auto' (needs the density for the spread)."""
    if isinstance(axis, str):
        name = axis.lower()
        if name == "auto":
            if rho is None:
                raise ValueError("axis='auto' requires a density")
            return choose_phase_axis(rho)
        if name in AXIS_NAMES:
            return AXIS_NAMES[name]
        raise ValueError(f"unknown axis {axis!r}")
    ax = int(axis)
    if ax not in (0, 1, 2):
        raise ValueError(f"axis must be 0, 1 or 2, got {axis!r}")
    return ax


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
    ``tol.phase_renorm_factor`` times the normalization tolerance means the
    input was not normalized to start with and is rejected.
    """
    ax = resolve_axis(axis, rho)
    marginal = np.clip(_transverse_marginal(rho.grid, rho.values, ax), 0.0, None)
    h = rho.grid.spacing[ax]
    # normalization is judged against the canonical (trapezoid) quadrature
    trap_total = float(np.sum(rho.grid.axis_weights[ax] * marginal))
    adjustment = n_electrons - trap_total
    if not abs(adjustment) <= tol.phase_renorm_factor * tol.norm_tol(n_electrons):
        raise PhaseNormalizationError(
            f"density mass {trap_total!r} is too far from n_electrons={n_electrons} "
            f"to renormalize (|adjustment| {abs(adjustment):.3e} > "
            f"{tol.phase_renorm_factor * tol.norm_tol(n_electrons):.3e})"
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
        axis=ax,
        nodes=rho.grid.axes[ax],
        marginal=marginal * scale,
        values=values,
        n_electrons=int(n_electrons),
        adjustment=adjustment,
        max_dip=max_dip,
        quadrature_gap=quadrature_gap,
    )


# -- base spinor --------------------------------------------------------------


def require_null_determinant(r: SpinDensityField, tol: ToleranceConfig = DEFAULT) -> int:
    """Check |det R| <= tol pointwise, allowing a tiny violating fraction.

    Returns the violating-point count; raises NullDeterminantError when more
    than ``tol.null_det_fraction`` of the grid violates, or when det R holds
    a NaN anywhere (the allowance is for finite violations only).
    """
    dt = det_field(r, tol).values
    thr = tol.null_det_tol(r.scale)
    abs_det = np.abs(dt)
    worst, loc = _worst(abs_det, largest=True)
    bad = int(np.count_nonzero(~(abs_det <= thr)))
    if math.isnan(worst) or not bad <= tol.null_det_fraction * r.grid.npoints:
        raise NullDeterminantError(
            f"|det| > {thr:.3e} at {bad} of {r.grid.npoints} points; "
            f"worst {dt[loc]:.3e} at {loc}"
        )
    return bad


def _base_spinor(
    r: SpinDensityField,
    tol: ToleranceConfig,
    floor: float | None,
) -> tuple[np.ndarray, np.ndarray, dict[str, float]]:
    """The unnormalized spinor (sigma / sqrt(rho_dn), sqrt(rho_dn)) and its counts.

    Requires det R = 0 and rho_up <= 2 rho_dn within tolerance; on the nodal
    set of rho_dn the up component falls back to sqrt(rho_up).
    """
    stats: dict[str, float] = {"null_det_violations": float(require_null_determinant(r, tol))}
    worst, loc = _worst(r.rho_up.values - 2.0 * r.rho_dn.values, largest=True)
    if not worst <= tol.ratio_tol(r.scale):
        raise RatioHypothesisError(
            f"rho_up - 2 rho_dn = {worst:.3e} at {loc} (tolerance {tol.ratio_tol(r.scale):.3e})"
        )
    if floor is None:
        floor = tol.sqrt_floor(r.scale)
    rho_up, rho_dn, sigma = (f.values.reshape(-1) for f in (r.rho_up, r.rho_dn, r.sigma))
    counts = []

    def step(lo, hi, phi, sqrt_dn, up):
        up = np.clip(rho_up[lo:hi], 0.0, None, out=up[:hi - lo])
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


def _overlaps(orbitals: Sequence[Spinor]) -> np.ndarray:
    """Matrix of <Phi_i | Phi_j> under the trapezoid inner product.

    Each pair is integrated once, for j >= i; the lower triangle, the
    diagonal included, holds the conjugates.
    """
    n = len(orbitals)
    o = np.empty((n, n), dtype=np.complex128)
    for i in range(n):
        for j in range(i, n):
            o[i, j] = _overlap(orbitals[i], orbitals[j])
            o[j, i] = np.conj(o[i, j])
    return o


def gram_matrix(orbitals: Sequence[Spinor]) -> np.ndarray:
    """Overlap matrix G_kl = <Phi_k | Phi_l> under the trapezoid inner product."""
    if len(orbitals) == 0:
        raise ValueError("no orbitals")
    g = _overlaps(orbitals)
    # diagonal overlaps are real; drop the round-off imaginary part (as -0.0,
    # the sign this function has always returned there)
    np.fill_diagonal(g.imag, -0.0)
    return g


def gram_deviation(orbitals: Sequence[Spinor]) -> float:
    """max |G - I| entrywise."""
    g = gram_matrix(orbitals)
    return float(np.max(np.abs(g - np.eye(len(orbitals)))))


def _sum_block(weighted, lo: int, hi: int, up, dn, sg) -> None:
    """sum_k p_k Phi_k^a conj(Phi_k^b) on the flat points lo:hi, into up, dn and sg.

    Each point adds the terms onto 0 in order.  numpy's complex multiply is
    fused, so its bits depend on the operand order: conj(dn) * up is the
    order of a whole-grid ``up * conj(dn)`` whose temporary numpy reuses
    (it does from 256 KiB, i.e. 16384 points, on).
    """
    for a in (up, dn, sg):
        a.fill(0.0)
    c = np.empty(hi - lo, np.complex128)
    sq = c.view(np.float64).reshape(2, -1)  # two real rows, used before c is
    for p, orb in weighted:
        u, d = orb.up.values.reshape(-1)[lo:hi], orb.dn.values.reshape(-1)[lo:hi]
        for acc, v in ((up, u), (dn, d)):
            acc += np.multiply(p, _abs2(v, sq[0], sq[1]), out=sq[0])
        np.multiply(np.conj(d, out=c), u, out=c)
        sg += np.multiply(p, c, out=c)


def _density_sums(
    grid: Grid3, weighted: Iterable[tuple[float, Spinor]]
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """sum_k p_k Phi_k^a conj(Phi_k^b) over (p_k, Phi_k) pairs, as up-up, dn-dn, up-dn."""
    return tuple(blockwise_arrays(grid.dims, (float, float, complex),
                                  functools.partial(_sum_block, list(weighted))))


def _max_deviation(r: SpinDensityField, sums) -> float:
    """Largest pointwise |sum - R| of the up-up, dn-dn and up-dn sums; NaN if any is NaN.

    ``sums(lo, hi, up, dn, sg)`` writes the sums on the flat points lo:hi.
    """
    targets = [f.values.reshape(-1) for f in (r.rho_up, r.rho_dn, r.sigma)]
    maxima = []

    def step(lo, hi, up, dn):
        parts = (up[:hi - lo], dn[:hi - lo], np.empty(hi - lo, np.complex128))
        sums(lo, hi, *parts)
        maxima.extend([np.max(np.abs(a - t[lo:hi])) for a, t in zip(parts, targets)])

    blockwise(r.grid.npoints, step, scratch=2)
    return float(np.max(maxima))


def reconstruction_error(orbitals: Sequence[Spinor], r: SpinDensityField) -> float:
    """max pointwise deviation of sum_k Phi_k^a conj(Phi_k^b) from R (absolute)."""
    # a weight of 1.0 leaves every product's bits as they are
    return _max_deviation(r, functools.partial(_sum_block, [(1.0, orb) for orb in orbitals]))


def _phase_gram_deviation(
    phi_up: np.ndarray, sqrt_dn: np.ndarray, phase: PhaseFunction, grid: Grid3
) -> float:
    """max |G - I| of the orbitals (phi_up, sqrt_dn) exp(2 i pi k f) / sqrt(N), k = 1..N.

    The phase depends on the axis coordinate only, so under the trapezoid
    rule G_kl = sum_j mu_j exp(2 i pi (l - k) f_j), where mu_j is the
    trapezoid-weighted transverse marginal of |base|^2 divided by N.  This
    equals :func:`gram_deviation` of the built orbitals up to round-off,
    without building them.
    """
    pu, sd = phi_up.reshape(-1), sqrt_dn.reshape(-1)

    def step(lo, hi, out, buf):
        s, t = sd[lo:hi], buf[:hi - lo]
        _abs2(pu[lo:hi], out, t)
        out += np.multiply(s, s, out=t)

    base_sq, = blockwise_arrays(grid.dims, (float,), step, scratch=1)
    ax = phase.axis
    mu = grid.axis_weights[ax] * _transverse_marginal(grid, base_sq, ax) / phase.n_electrons
    devs = [abs(float(np.sum(mu)) - 1.0)]
    devs += [abs(np.sum(mu * np.exp(2j * np.pi * d * phase.values)))
             for d in range(1, phase.n_electrons)]
    return _worst(devs, largest=True)[0]


def build_orbitals(
    r: SpinDensityField,
    axis="auto",
    tol: ToleranceConfig = DEFAULT,
    floor: float | None = None,
) -> OrbitalSet:
    """Construct the N phase-modulated orbitals reproducing a rank-1 R.

    The orbitals are gated before any of them is allocated: when their Gram
    deviation on the grid exceeds ``tol.gram_tol``, this raises
    :class:`OrthonormalityError`.  The diagnostics carry that Gram deviation
    (a 1-D sum along the phase axis, exact for these orbitals), the
    absolute and relative reconstruction errors (from the base spinor, in
    which the phases cancel), the nodal-set fallback counts and the phase
    renormalization adjustment.
    """
    ax = resolve_axis(axis, r.rho_total)
    n = r.n_electrons
    phi_up, sqrt_dn, stats = _base_spinor(r, tol, floor)
    phase = build_phase(r.rho_total, n, ax, tol)
    gram = _phase_gram_deviation(phi_up, sqrt_dn, phase, r.grid)
    if not gram <= tol.gram_tol:
        raise OrthonormalityError(
            f"orbitals are not orthonormal on this grid: Gram deviation "
            f"{gram:.3e} > {tol.gram_tol:.3e}"
        )

    pu, sd = phi_up.reshape(-1), sqrt_dn.reshape(-1)

    def base_sums(lo, hi, up, dn, sg):
        # the phases cancel: sum_k Phi_k^a conj(Phi_k^b) = base^a conj(base^b)
        p, s = pu[lo:hi], sd[lo:hi]
        _abs2(p, up, dn)
        np.multiply(s, s, out=dn)
        np.multiply(p, s, out=sg)

    recon = _max_deviation(r, base_sums)
    shape = [1, 1, 1]
    shape[ax] = r.grid.dims[ax]
    f = phase.values.reshape(shape)
    inv_sqrt_n = 1.0 / math.sqrt(n)
    factors = [np.exp(2j * np.pi * k * f) * inv_sqrt_n for k in range(1, n + 1)]
    parts = [[np.empty(r.grid.dims, np.complex128) for _ in range(2)] for _ in factors]

    def work(slabs):
        # axis-0 row blocks, along which each factor broadcasts
        for lo, hi in slabs:
            for factor, (up, dn) in zip(factors, parts):
                factor = factor[lo:hi] if ax == 0 else factor
                np.multiply(phi_up[lo:hi], factor, out=up[lo:hi])
                np.multiply(sqrt_dn[lo:hi], factor, out=dn[lo:hi])

    _over_slabs(phi_up, work)
    orbitals = [Spinor(up=ComplexField(r.grid, frozen(up)), dn=ComplexField(r.grid, frozen(dn)))
                for up, dn in parts]
    scale = _worst((r.scale, TINY), largest=True)[0]
    diagnostics = {
        "gram_deviation": gram,
        "reconstruction_abs": recon,
        "reconstruction_rel": recon / scale,
        "phase_adjustment": phase.adjustment,
        "phase_dip": phase.max_dip,
        **stats,
    }
    return OrbitalSet(
        grid=r.grid,
        n_electrons=n,
        orbitals=tuple(orbitals),
        axis=ax,
        phase=phase,
        diagnostics=diagnostics,
    )


def exchange_components(orbs: OrbitalSet) -> OrbitalSet:
    """Swap the up/dn components of every orbital (no conjugation).

    Orbitals built for the spin-swapped field turn into orbitals for the
    original field under this exchange.
    """
    swapped = tuple(Spinor(up=o.dn, dn=o.up) for o in orbs.orbitals)
    return OrbitalSet(
        grid=orbs.grid,
        n_electrons=orbs.n_electrons,
        orbitals=swapped,
        axis=orbs.axis,
        phase=orbs.phase,
        diagnostics=dict(orbs.diagnostics),
    )


# -- kinetic bound -------------------------------------------------------------


def kinetic_bound_rhs(
    r: SpinDensityField,
    phase: PhaseFunction,
    k: int,
    tol: ToleranceConfig = DEFAULT,
) -> float:
    """Integrated upper bound on N |grad Phi_k_up|^2 for the k-th orbital:

        integral( 6 |grad sigma|^2 / rho + 4 |grad sqrt(rho_dn)|^2 )
        + 4 pi^2 k^2 integral( f'^3 ) dx_axis,

    the last term being integral(rho f'^2) after the transverse integration.
    """
    norms = DensityNorms(r, tol, tol.floor(r.scale))
    sig_term = norms.sigma_ratio.value
    dn_term = norms.h1_dn
    wax = r.grid.axis_weights[phase.axis]
    moment = float(np.sum(wax * phase.marginal ** 3))
    return 6.0 * sig_term + 4.0 * dn_term + 4.0 * np.pi ** 2 * k * k * moment

