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
from .fields import ComplexField, ScalarField, _abs2, blockwise_arrays, frozen, integrate_values
from .orbitals import build_orbitals, exchange_components, require_null_determinant
from .spin_density import SpinDensityField, spin_swap
from .sqrtm import sqrt_field
from .tolerances import DEFAULT, DEGENERATE_WEIGHT, ToleranceConfig
from .witness import Witness, WitnessBranch


class PipelineError(RuntimeError):
    """A stage of the constructive pipeline rejected its input."""

    def __init__(self, stage: str, message: str):
        super().__init__(f"[{stage}] {message}")
        self.stage = stage


def cutoff(x: np.ndarray) -> np.ndarray:
    """C^2 monotone step: 0 for x <= 1/2, 1 for x >= 2, quintic in between."""
    u = np.clip((np.asarray(x, dtype=np.float64) - 0.5) / 1.5, 0.0, 1.0)
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


def _product(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """a * b, written block by block into a new array."""
    return blockwise_arrays(a.shape, (np.result_type(a, b),),
                            lambda lo, hi, out: np.multiply(a[lo:hi], b[lo:hi], out=out))[0]


def _weigh(
    up_one: np.ndarray, dn_one: np.ndarray, template: SpinDensityField
) -> tuple[float, float, bool, bool]:
    """Weigh piece one by its unnormalized densities ``up_one``, ``dn_one``.

    Returns (t, split weight, keep piece one, keep piece two): t is the mass
    fraction of piece one, and a piece whose weight falls below
    ``DEGENERATE_WEIGHT`` is not kept, so it need not be built.
    """
    grid = template.grid
    t = float(integrate_values(grid, up_one) + integrate_values(grid, dn_one))
    t /= template.n_electrons
    if t < DEGENERATE_WEIGHT:
        return t, 0.0, False, True
    if t > 1.0 - DEGENERATE_WEIGHT:
        return t, 1.0, True, False
    return t, t, True, True


def rank1_split(r: SpinDensityField, tol: ToleranceConfig = DEFAULT) -> SplitResult:
    """Split R into two null-determinant pieces through its matrix square root."""
    sq = sqrt_field(r, tol)
    ru, rd, s = sq.r_up.values, sq.r_dn.values, sq.s.values
    del sq
    s2, = blockwise_arrays(s.shape, (float,),
                           lambda lo, hi, out, buf: _abs2(s[lo:hi], out, buf), scratch=1)
    uu = _product(ru, ru)
    t, weight, keep_one, keep_two = _weigh(uu, s2, r)
    one = two = None
    if keep_one:
        # |s|^2 is a part of both pieces; each piece scales its own
        one = _piece((uu, s2.copy() if keep_two else s2, _product(s, ru)), t, r)
    del uu, ru
    if keep_two:
        two = _piece((s2, _product(rd, rd), _product(s, rd)), 1.0 - t, r)
    return SplitResult(weight, one, two)


def ratio_split(r: SpinDensityField) -> SplitResult:
    """Split a null-determinant R by the spin ratio.

    piece_one (weight t) is supported where rho_up / rho_dn > 1/2 and
    satisfies rho_dn <= 2 rho_up wherever it is nonzero; piece_two satisfies
    rho_up <= 2 rho_dn.  Points where both densities vanish get ratio 1.
    """
    require_null_determinant(r)
    rho_up, rho_dn, sg = r.rho_up.values, r.rho_dn.values, r.sigma.values
    dims = r.grid.dims

    def clipped(lo, hi, bufs):
        """max(rho_up, 0) and max(rho_dn, 0) on rows lo:hi, in ``bufs``."""
        return [np.clip(x[lo:hi], 0.0, None, out=b)
                for x, b in zip((rho_up, rho_dn), bufs)]

    def weigh_step(lo, hi, w, up_one, dn_one, *bufs):
        up, dn = clipped(lo, hi, bufs)
        with np.errstate(divide="ignore", invalid="ignore"):
            ratio = np.divide(up, dn, out=w)
        ratio[np.isnan(ratio)] = 1.0  # 0/0: weightless points, any finite value works
        np.square(cutoff(ratio), out=w)
        np.multiply(w, up, out=up_one)
        np.multiply(w, dn, out=dn_one)

    w, up_one, dn_one = blockwise_arrays(dims, (float,) * 3, weigh_step, scratch=2)
    t, weight, keep_one, keep_two = _weigh(up_one, dn_one, r)
    one = two = None
    if keep_one:
        one = _piece((up_one, dn_one, _product(w, r.sigma.values)), t, r)
    del up_one, dn_one
    if keep_two:
        def rest_step(lo, hi, up_two, dn_two, sg_two, *bufs):
            wc = np.subtract(1.0, w[lo:hi], out=w[lo:hi])
            for x, out in zip((*clipped(lo, hi, bufs), sg[lo:hi]), (up_two, dn_two, sg_two)):
                np.multiply(wc, x, out=out)

        two = _piece(blockwise_arrays(dims, (float, float, complex), rest_step, scratch=2),
                     1.0 - t, r)
    return SplitResult(weight, one, two)


def _drain(items: list) -> Iterator:
    """Yield the items of ``items`` one by one, removing each from the list."""
    while items:
        yield items.pop(0)


def construct_witness(
    r: SpinDensityField,
    tol: ToleranceConfig = DEFAULT,
) -> Witness:
    """Build an explicit mixed state (<= 4 Slater branches) representing R."""
    try:
        return _construct(r, tol)
    except PipelineError as exc:
        # A caller that keeps the refusal keeps every frame its traceback (and
        # its cause's) passes through.  Clear the locals of the finished ones,
        # the orbitals built before the refusal; the frames still print.
        for err in (exc, exc.__cause__):
            if err is not None:
                traceback.clear_frames(err.__traceback__)
        raise


def _construct(r: SpinDensityField, tol: ToleranceConfig) -> Witness:
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
            second = ratio_split(piece)
        except ValueError as exc:
            raise PipelineError("ratio_split", str(exc)) from exc
        del piece
        subs = list(zip((True, False), second.slots()))
        del second
        for needs_swap, (inner_weight, sub) in _drain(subs):
            weight = outer_weight * inner_weight
            if sub is None or weight < DEGENERATE_WEIGHT:
                continue
            build_field = spin_swap(sub) if needs_swap else sub
            del sub
            try:
                # refuses orbitals that miss orthonormality by more than GRAM_TOL
                orbs = build_orbitals(build_field, tol=tol)
            except ValueError as exc:
                raise PipelineError("orbitals", str(exc)) from exc
            del build_field
            if needs_swap:
                orbs = exchange_components(orbs)
            branches.append(WitnessBranch(weight=weight, orbitals=orbs, swapped=needs_swap))
    if not branches:
        raise PipelineError("assembly", "no branch survived the degeneracy threshold")
    return Witness(grid=r.grid, n_electrons=r.n_electrons, branches=tuple(branches))
