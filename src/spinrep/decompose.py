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
from .fields import ComplexField, ScalarField, frozen, integrate_values
from .orbitals import build_orbitals, exchange_components, require_null_determinant
from .spin_density import SpinDensityField, spin_swap
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


def _piece(
    parts: tuple[np.ndarray, np.ndarray, np.ndarray], weight: float, template: SpinDensityField
) -> SpinDensityField:
    """The field (up, dn, sigma) / weight; scales the fresh arrays ``parts`` in place."""
    inv = 1.0 / weight
    for a in parts:
        a *= inv  # rounds exactly as a * inv
    up, dn, sg = parts
    grid = template.grid
    return SpinDensityField(
        rho_up=ScalarField(grid, frozen(up)),
        rho_dn=ScalarField(grid, frozen(dn)),
        sigma=ComplexField(grid, frozen(sg)),
        n_electrons=template.n_electrons,
    )


def _weigh(
    up_one: np.ndarray, dn_one: np.ndarray, template: SpinDensityField, tol: ToleranceConfig
) -> tuple[float, float, bool, bool]:
    """Weigh piece one by its unnormalized densities ``up_one``, ``dn_one``.

    Returns (t, split weight, keep piece one, keep piece two): t is the mass
    fraction of piece one, and a piece whose weight falls below
    ``tol.degenerate_weight`` is not kept, so it need not be built.
    """
    grid = template.grid
    t = float(integrate_values(grid, up_one) + integrate_values(grid, dn_one))
    t /= template.n_electrons
    if t < tol.degenerate_weight:
        return t, 0.0, False, True
    if t > 1.0 - tol.degenerate_weight:
        return t, 1.0, True, False
    return t, t, True, True


def rank1_split(r: SpinDensityField, tol: ToleranceConfig = DEFAULT) -> SplitResult:
    """Split R into two null-determinant pieces through its matrix square root."""
    sq = sqrt_field(r, tol)
    ru, rd, s = sq.r_up.values, sq.r_dn.values, sq.s.values
    del sq
    s2 = s.real * s.real + s.imag * s.imag
    uu = ru * ru
    t, weight, keep_one, keep_two = _weigh(uu, s2, r, tol)
    one = two = None
    if keep_one:
        # |s|^2 is a part of both pieces; each piece scales its own
        one = _piece((uu, s2.copy() if keep_two else s2, s * ru), t, r)
    del uu, ru
    if keep_two:
        two = _piece((s2, rd * rd, s * rd), 1.0 - t, r)
    return SplitResult(weight, one, two)


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
    del ratio
    up_one, dn_one = w * up, w * dn
    t, weight, keep_one, keep_two = _weigh(up_one, dn_one, r, tol)
    sg = r.sigma.values
    one = two = None
    if keep_one:
        one = _piece((up_one, dn_one, w * sg), t, r)
    del up_one, dn_one
    if keep_two:
        wc = np.subtract(1.0, w, out=w)
        two = _piece((wc * up, wc * dn, wc * sg), 1.0 - t, r)
    return SplitResult(weight, one, two)


def _drain(items: list) -> Iterator:
    """Yield the items of ``items`` one by one, removing each from the list."""
    while items:
        yield items.pop(0)


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
    # every piece, sub-piece and swapped field is dropped once its branches are
    # built, so the working set beside the witness is one branch's
    pieces = list(first.pairs())
    del first
    branches: list[WitnessBranch] = []
    for outer_weight, piece in _drain(pieces):
        try:
            second = ratio_split(piece, tol)
        except ValueError as exc:
            raise PipelineError("ratio_split", str(exc)) from exc
        del piece
        subs = list(zip((True, False), second.slots()))
        del second
        for needs_swap, (inner_weight, sub) in _drain(subs):
            weight = outer_weight * inner_weight
            if sub is None or weight < tol.degenerate_weight:
                continue
            build_field = spin_swap(sub) if needs_swap else sub
            del sub
            try:
                # refuses orbitals that miss orthonormality by more than gram_tol
                orbs = build_orbitals(build_field, axis, tol)
            except ValueError as exc:
                raise PipelineError("orbitals", str(exc)) from exc
            del build_field
            if needs_swap:
                orbs = exchange_components(orbs)
            branches.append(WitnessBranch(weight=weight, orbitals=orbs, swapped=needs_swap))
    if not branches:
        raise PipelineError("assembly", "no branch survived the degeneracy threshold")
    return Witness(grid=r.grid, n_electrons=r.n_electrons, branches=tuple(branches))
