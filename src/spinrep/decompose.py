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

``construct_witness`` holds sqrt(R), whose sqrt(det R) comes from the
check, and no piece or sub-piece whole: each is a
:class:`spinrep.spin_density.StreamedDensity` that forms its entries slab by
slab from sqrt(R) where they are used, by the whole-array expressions in
their order, such as (r_up r_up) (1/t) and (w max(rho_up, 0)) (1/t_sub), so
every bit is that of the pieces held whole.  The masses t and t_sub are
leaf-aligned streamed integrals.  ``rank1_split`` and ``ratio_split`` run
the same steps and hold their pieces whole.
"""

from __future__ import annotations

import traceback
from dataclasses import dataclass
from typing import Iterator

import numpy as np

from .check import _keeping_root, check
from .fields import _abs2, _weighted_sum
from .orbitals import _null_det_count, _null_det_slab, build_orbitals, exchange_components
from .spin_density import SpinDensityField, StreamedDensity, swapped
from .sqrtm import _entries, sqrt_field
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
    (None) and the split collapses onto the survivor.  The public splits
    hold their pieces whole; ``construct_witness`` streams them.
    """

    weight: float
    piece_one: SpinDensityField | StreamedDensity | None
    piece_two: SpinDensityField | StreamedDensity | None

    def pairs(self) -> Iterator[tuple[float, SpinDensityField | StreamedDensity]]:
        if self.piece_one is not None:
            yield self.weight, self.piece_one
        if self.piece_two is not None:
            yield 1.0 - self.weight, self.piece_two

    def slots(self):
        """Both slots in order, dropped pieces included as None."""
        return ((self.weight, self.piece_one), (1.0 - self.weight, self.piece_two))


def _split(grid, n: int, up: float, dn: float, one, two) -> SplitResult:
    """The split into pieces one and two, streamed from their unnormalized entries.

    ``up`` and ``dn`` integrate piece one's rho_up and rho_dn; ``one`` and
    ``two`` give each piece's entries as ``StreamedDensity.parts`` does.
    Piece one is divided by its mass fraction t, piece two by 1 - t, and a
    piece whose weight falls below ``DEGENERATE_WEIGHT`` is dropped.
    """
    t = float(up + dn)
    t /= n
    if t < DEGENERATE_WEIGHT:
        weight, keep = 0.0, (False, True)
    elif t > 1.0 - DEGENERATE_WEIGHT:
        weight, keep = 1.0, (True, False)
    else:
        weight, keep = t, (True, True)

    def scaled(parts, inv):
        def scaled_parts(sel, sigma=True):
            out = parts(sel, sigma)
            for a in out[:3 if sigma else 2]:
                a *= inv  # rounds exactly as a * inv
            return out

        return StreamedDensity(grid, n, scaled_parts)

    return SplitResult(weight, *(scaled(parts, 1.0 / mass) if kept else None for parts, mass, kept
                                 in ((one, t, keep[0]), (two, 1.0 - t, keep[1]))))


def _rank1(r: SpinDensityField, ru: np.ndarray, rd: np.ndarray, s: np.ndarray) -> SplitResult:
    """The rank-1 split of R, streamed from the entries ``ru``, ``rd``, ``s`` of sqrt(R)."""
    def masses(lo, hi, a, b):
        u, z = ru.reshape(-1)[lo:hi], s.reshape(-1)[lo:hi]
        _abs2(z, b, a)
        return np.multiply(u, u, out=a), b

    def piece(x, one):
        def parts(sel, sigma=True):
            x_, z = sel(x), sel(s)
            sq = (np.multiply(x_, x_), _abs2(z, np.empty(z.shape), np.empty(z.shape)))
            return (*(sq if one else sq[::-1]), np.multiply(z, x_) if sigma else None)

        return parts

    return _split(r.grid, r.n_electrons, *_weighted_sum(r.grid, np.float64, masses, count=2),
                  piece(ru, True), piece(rd, False))


def _weights(up: np.ndarray, dn: np.ndarray) -> tuple[np.ndarray, ...]:
    """The weight chi(rho_up / rho_dn)^2, max(rho_up, 0) and max(rho_dn, 0) on a block."""
    up, dn = np.clip(up, 0.0, None), np.clip(dn, 0.0, None)
    with np.errstate(divide="ignore", invalid="ignore"):
        w = np.divide(up, dn)
    w[np.isnan(w)] = 1.0  # 0/0: weightless points, any finite value works
    return np.square(cutoff(w), out=w), up, dn


def _ratio(r) -> SplitResult:
    """The ratio split of a null-determinant R held whole or streamed, its pieces streamed.

    The test of :func:`require_null_determinant` runs in the pass that
    integrates the masses and refuses before they are used.
    """
    dims, scale, tests = r.grid.dims, r.scale, []

    def masses(lo, hi, a, b):
        parts = r.parts(lambda x: x.reshape(-1)[lo:hi])
        tests.append(_null_det_slab(parts, scale, lambda loc: tuple(
            int(i) for i in np.unravel_index(lo + loc[0], dims))))
        with np.errstate(invalid="ignore"):  # a refused field may hold infinities
            w, up, dn = _weights(*parts[:2])
            return np.multiply(w, up, out=a), np.multiply(w, dn, out=b)

    up, dn = _weighted_sum(r.grid, np.float64, masses, count=2)
    _null_det_count(tests, scale, r.grid.npoints)

    def piece(one):
        def parts(sel, sigma=True):
            up, dn, sg = r.parts(sel, sigma)
            w, up, dn = _weights(up, dn)
            if not one:
                w = np.subtract(1.0, w, out=w)
            return (np.multiply(w, up, out=up), np.multiply(w, dn, out=dn),
                    np.multiply(w, sg) if sigma else None)

        return parts

    return _split(r.grid, r.n_electrons, up, dn, piece(True), piece(False))


def _held(split: SplitResult) -> SplitResult:
    """``split`` with its pieces held whole."""
    return SplitResult(split.weight, *(None if p is None else p.field()
                                       for p in (split.piece_one, split.piece_two)))


def rank1_split(r: SpinDensityField, tol: ToleranceConfig = DEFAULT) -> SplitResult:
    """Split R into two null-determinant pieces through its matrix square root."""
    sq = sqrt_field(r, tol)
    return _held(_rank1(r, sq.r_up.values, sq.r_dn.values, sq.s.values))


def ratio_split(r: SpinDensityField) -> SplitResult:
    """Split a null-determinant R by the spin ratio.

    piece_one (weight t) is supported where rho_up / rho_dn > 1/2 and
    satisfies rho_dn <= 2 rho_up wherever it is nonzero; piece_two satisfies
    rho_up <= 2 rho_dn.  Points where both densities vanish get ratio 1.
    """
    return _held(_ratio(r))


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
    with _keeping_root() as root:
        report = check(r, tol)
    if report.verdict != "pass":
        failed = [c.name for c in report.conditions if c.verdict != "pass"]
        raise PipelineError(
            "admissibility", f"input field does not certify: {', '.join(failed)}"
        )
    # the check passed conditions (a) and (b), the test of sqrt_field
    pieces = list(_rank1(r, *_entries(r, root.pop())).pairs())
    branches: list[WitnessBranch] = []
    while pieces:
        outer_weight, piece = pieces.pop(0)
        try:
            second = _ratio(piece)
        except ValueError as exc:
            raise PipelineError("ratio_split", str(exc)) from exc
        for needs_swap, (inner_weight, sub) in zip((True, False), second.slots()):
            weight = outer_weight * inner_weight
            if sub is None or weight < DEGENERATE_WEIGHT:
                continue
            try:
                # refuses orbitals that miss orthonormality by more than GRAM_TOL
                orbs = build_orbitals(swapped(sub) if needs_swap else sub, tol=tol)
            except ValueError as exc:
                raise PipelineError("orbitals", str(exc)) from exc
            if needs_swap:
                orbs = exchange_components(orbs)
            branches.append(WitnessBranch(weight=weight, orbitals=orbs, swapped=needs_swap))
        # piece two reads r_dn and s only: piece one, and so r_up, goes before it
        del piece, second, sub
    if not branches:
        raise PipelineError("assembly", "no branch survived the degeneracy threshold")
    return Witness(grid=r.grid, n_electrons=r.n_electrons, branches=tuple(branches))
