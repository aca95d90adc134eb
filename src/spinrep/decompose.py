"""Decompose an admissible R into rank-1, ratio-constrained pieces and build a witness.

The route from a full-rank mixed-state density to explicit orbitals:

1. ``rank1_split``: with sqrt(R) entries (r_up, r_dn, s), the two matrices

       T_up = [[r_up^2,   s r_up], [conj(s) r_up, |s|^2 ]]
       T_dn = [[|s|^2,    s r_dn], [conj(s) r_dn, r_dn^2]]

   are rank-1 (null determinant), PSD, and sum exactly to R because
   sqrt(R)^2 = R.  Renormalizing each to trace integral N gives a convex
   split with weight t = integral(tr T_up) / N.

2. ``ratio_split``: a rank-1 piece may still violate the ratio hypothesis
   rho_up <= 2 rho_dn required by the orbital construction.  A C^2 cutoff
   chi of the pointwise ratio rho_up / rho_dn (0 below ratio 1/2, 1 above
   ratio 2) splits it as chi^2 R + (1 - chi^2) R: the first factor is
   supported where rho_dn <= 2 rho_up (build after a spin swap), the second
   where rho_up <= 2 rho_dn (build directly).

3. ``construct_witness`` runs the admissibility check, both splits, builds
   orbitals per piece (through :func:`spinrep.orbitals.build_orbitals`,
   swapping and un-swapping where needed) and returns the convex combination
   as a :class:`spinrep.witness.Witness` with at most four branches.
"""

from __future__ import annotations

import traceback
from dataclasses import dataclass
from typing import Iterator

import numpy as np

from .check import check
from .fields import ComplexField, ScalarField
from .orbitals import build_orbitals, exchange_components, require_null_determinant
from .spin_density import SpinDensityField, spin_swap, trace_integral
from .sqrtm import sqrt_field
from .tolerances import DEFAULT, ToleranceConfig
from .witness import Witness, WitnessBranch


class PipelineError(RuntimeError):
    """A stage of the constructive pipeline rejected its input."""

    def __init__(self, stage: str, message: str):
        super().__init__(f"[{stage}] {message}")
        self.stage = stage


@dataclass(frozen=True)
class CutoffFunction:
    """C^2 monotone step: 0 for x <= lo, 1 for x >= hi, quintic in between."""

    lo: float = 0.5
    hi: float = 2.0

    def __post_init__(self) -> None:
        if not self.hi > self.lo:
            raise ValueError(f"cutoff needs hi > lo, got {self.lo} .. {self.hi}")

    def __call__(self, x: np.ndarray) -> np.ndarray:
        u = np.clip((np.asarray(x, dtype=np.float64) - self.lo) / (self.hi - self.lo), 0.0, 1.0)
        return u * u * u * (10.0 + u * (6.0 * u - 15.0))


@dataclass(frozen=True)
class SplitResult:
    """Convex split R = weight * piece_one + (1 - weight) * piece_two.

    A piece whose weight fell below the degeneracy threshold is dropped
    (None) and the split collapses onto the survivor.
    """

    weight: float
    piece_one: SpinDensityField | None
    piece_two: SpinDensityField | None

    def pairs(self) -> Iterator[tuple[float, SpinDensityField]]:
        if self.piece_one is not None:
            yield self.weight, self.piece_one
        if self.piece_two is not None:
            yield 1.0 - self.weight, self.piece_two

    def slots(self):
        """Both slots in order, dropped pieces included as None."""
        return ((self.weight, self.piece_one), (1.0 - self.weight, self.piece_two))


def _renormalized(
    up: np.ndarray, dn: np.ndarray, sg: np.ndarray, weight: float, template: SpinDensityField
) -> SpinDensityField:
    inv = 1.0 / weight
    return SpinDensityField(
        rho_up=ScalarField(template.grid, up * inv),
        rho_dn=ScalarField(template.grid, dn * inv),
        sigma=ComplexField(template.grid, sg * inv),
        n_electrons=template.n_electrons,
    )


def _split_from_parts(
    parts_one: tuple[np.ndarray, np.ndarray, np.ndarray],
    parts_two: tuple[np.ndarray, np.ndarray, np.ndarray],
    template: SpinDensityField,
    tol: ToleranceConfig,
) -> SplitResult:
    n = template.n_electrons
    grid = template.grid
    w = grid.weights
    t = float(np.sum(w * parts_one[0]) + np.sum(w * parts_one[1])) / n
    if t < tol.degenerate_weight:
        return SplitResult(0.0, None, _renormalized(*parts_two, 1.0 - t, template))
    if t > 1.0 - tol.degenerate_weight:
        return SplitResult(1.0, _renormalized(*parts_one, t, template), None)
    return SplitResult(
        t,
        _renormalized(*parts_one, t, template),
        _renormalized(*parts_two, 1.0 - t, template),
    )


def rank1_split(r: SpinDensityField, tol: ToleranceConfig = DEFAULT) -> SplitResult:
    """Split R into two null-determinant pieces through its matrix square root."""
    sq = sqrt_field(r, tol)
    ru, rd, s = sq.r_up.values, sq.r_dn.values, sq.s.values
    s2 = s.real * s.real + s.imag * s.imag
    parts_one = (ru * ru, s2, s * ru)
    parts_two = (s2, rd * rd, s * rd)
    return _split_from_parts(parts_one, parts_two, r, tol)


def ratio_split(
    r: SpinDensityField,
    tol: ToleranceConfig = DEFAULT,
    cutoff: CutoffFunction = CutoffFunction(),
) -> SplitResult:
    """Split a null-determinant R by the spin ratio.

    piece_one (weight t) is supported where rho_up / rho_dn > lo and
    satisfies rho_dn <= 2 rho_up wherever it is nonzero; piece_two satisfies
    rho_up <= 2 rho_dn.  Points where both densities vanish get ratio 1.
    """
    require_null_determinant(r, tol)
    up = np.clip(r.rho_up.values, 0.0, None)
    dn = np.clip(r.rho_dn.values, 0.0, None)
    with np.errstate(divide="ignore", invalid="ignore"):
        ratio = up / dn
    ratio[np.isnan(ratio)] = 1.0  # 0/0: weightless points, any finite value works
    w = cutoff(ratio) ** 2
    sg = r.sigma.values
    parts_one = (w * up, w * dn, w * sg)
    wc = 1.0 - w
    parts_two = (wc * up, wc * dn, wc * sg)
    return _split_from_parts(parts_one, parts_two, r, tol)


def construct_witness(
    r: SpinDensityField,
    axis="auto",
    tol: ToleranceConfig = DEFAULT,
) -> Witness:
    """Build an explicit mixed state (<= 4 Slater branches) representing R."""
    try:
        return _construct(r, axis, tol)
    except PipelineError as exc:
        # A caller that keeps the refusal keeps every frame its traceback (and
        # its cause's) passes through.  Clear the locals of the finished ones,
        # the orbitals built before the refusal; the frames still print.
        for err in (exc, exc.__cause__):
            if err is not None:
                traceback.clear_frames(err.__traceback__)
        raise


def _construct(r: SpinDensityField, axis, tol: ToleranceConfig) -> Witness:
    report = check(r, tol)
    if report.verdict != "pass":
        failed = [c.name for c in report.conditions if c.verdict != "pass"]
        raise PipelineError(
            "admissibility", f"input field does not certify: {', '.join(failed)}"
        )
    try:
        first = rank1_split(r, tol)
    except ValueError as exc:
        raise PipelineError("rank1_split", str(exc)) from exc
    branches: list[WitnessBranch] = []
    for outer_weight, piece in first.pairs():
        try:
            second = ratio_split(piece, tol)
        except ValueError as exc:
            raise PipelineError("ratio_split", str(exc)) from exc
        for needs_swap, (inner_weight, sub) in zip((True, False), second.slots()):
            if sub is None:
                continue
            weight = outer_weight * inner_weight
            if weight < tol.degenerate_weight:
                continue
            build_field = spin_swap(sub) if needs_swap else sub
            try:
                orbs = build_orbitals(build_field, axis, tol)
            except ValueError as exc:
                raise PipelineError("orbitals", str(exc)) from exc
            # the same orthonormality test as verify's orbital_gram
            gram = orbs.diagnostics["gram_deviation"]
            if not gram <= tol.gram_tol:
                raise PipelineError(
                    "orbitals",
                    f"orbitals are not orthonormal on this grid: Gram deviation "
                    f"{gram:.3e} > {tol.gram_tol:.3e}",
                )
            if needs_swap:
                orbs = exchange_components(orbs)
            branches.append(WitnessBranch(weight=weight, orbitals=orbs, swapped=needs_swap))
    if not branches:
        raise PipelineError("assembly", "no branch survived the degeneracy threshold")
    return Witness(grid=r.grid, n_electrons=r.n_electrons, branches=tuple(branches))
