"""Witness states (convex combinations of Slater branches) and their verification.

A branch's orbitals may be an :class:`spinrep.orbitals.OrbitalFamily`: one
base spinor and one phase line.  The density, Gram matrix, kinetic energy
and occupations of a family come from its base and 1-D or 2-D sums along
its phase line, and no orbital of it is built here.  Explicit orbitals
(given one by one) are taken one at a time, branch by branch, and at most
one branch's orbitals are held at once.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass

import numpy as np

from .check import FAIL, PASS, ConditionResult, Report, _gradient_norms, h1_seminorm
from .fields import ComplexField, Field, Grid3, ScalarField, _weighted_sum, _worst, frozen
from .orbitals import (OrbitalFamily, OrbitalSet, Spinor, _add_orbitals, _cross_overlaps,
                       _density_sums, _deviation, _each, _family_gram, _family_kinetic, _overlap,
                       _overlaps)
from .spin_density import SpinDensityField, trace_integral
from .tolerances import (DEFAULT, GRAM_TOL, MISMATCH_TOL, SLACK, TINY, WEIGHT_SUM_TOL,
                         ToleranceConfig)


@dataclass(frozen=True)
class WitnessBranch:
    """One Slater determinant of N orbitals entering with a convex weight."""

    weight: float
    orbitals: OrbitalSet
    swapped: bool = False


@dataclass(frozen=True)
class Witness:
    """Mixed state sum_n p_n |Slater_n><Slater_n| given through its orbitals.

    Structural container: branch weights and Gram properties are *verified*,
    not enforced, so that corrupted witnesses can be loaded and reported on.
    """

    grid: Grid3
    n_electrons: int
    branches: tuple[WitnessBranch, ...]

    def __post_init__(self) -> None:
        if len(self.branches) == 0:
            raise ValueError("a witness needs at least one branch")
        for b in self.branches:
            if b.orbitals.grid != self.grid:
                raise ValueError("branch orbitals live on a different grid")
            if len(b.orbitals.orbitals) != self.n_electrons:
                raise ValueError(
                    f"each branch must carry {self.n_electrons} orbitals, "
                    f"got {len(b.orbitals.orbitals)}"
                )

    @property
    def weights(self) -> tuple[float, ...]:
        return tuple(b.weight for b in self.branches)


def _field(w: Witness, sums) -> SpinDensityField:
    up, dn, sg = sums
    return SpinDensityField(
        rho_up=ScalarField(w.grid, frozen(up)),
        rho_dn=ScalarField(w.grid, frozen(dn)),
        sigma=ComplexField(w.grid, frozen(sg)),
        n_electrons=w.n_electrons,
    )


def density_of(w: Witness) -> SpinDensityField:
    """The 2x2 density matrix field sum_n p_n sum_k Phi_nk^a conj(Phi_nk^b)."""
    sums = _density_sums(w.grid)
    for branch in w.branches:
        _add_orbitals(sums, branch.weight, branch.orbitals.orbitals)
    return _field(w, sums)


def kinetic_by_spin(w: Witness) -> tuple[float, float]:
    """(T_up, T_dn): weighted sums of integral |grad Phi^a|^2 per spin component.

    This is Tr(-Laplacian gamma^aa) for the one-body operator of the witness
    (no 1/2 factor).  A family's share comes from its base and phase line
    (:func:`spinrep.orbitals._family_kinetic`), which resolves the phase
    ladder that a stencil on each orbital cannot; explicit orbitals get the
    stencil, orbital by orbital.
    """
    t = [0.0, 0.0]
    for branch in w.branches:
        p, orbs = branch.weight, branch.orbitals.orbitals
        if isinstance(orbs, OrbitalFamily):
            t_up, t_dn = _family_kinetic(orbs)
            t[0] += p * t_up
            t[1] += p * t_dn
        else:
            _each(orbs, functools.partial(_add_kinetic, t, p))
    return t[0], t[1]


def _add_kinetic(t: list[float], p: float, orb: Spinor) -> None:
    """Add p times the H^1 seminorms of orb's up and dn components onto t[0] and t[1]."""
    t[0] += p * h1_seminorm(orb.grid, orb.up.values)
    t[1] += p * h1_seminorm(orb.grid, orb.dn.values)


def kinetic_energy(w: Witness) -> float:
    """Tr(-Laplacian gamma) of the witness (no 1/2 factor)."""
    t_up, t_dn = kinetic_by_spin(w)
    return t_up + t_dn


def occupation_spectrum(w: Witness) -> np.ndarray:
    """Eigenvalues (descending) of the one-body operator gamma of the witness.

    gamma = sum_n p_n sum_k |Phi_nk><Phi_nk| acts on a space of dimension
    (number of orbitals); its nonzero spectrum equals that of the small
    matrix K_ij = sqrt(p_i p_j) <Phi_i | Phi_j> over all branch orbitals.
    For an admissible mixed state every eigenvalue lies in [0, 1]; an
    overlap that is not finite makes every one NaN.

    A family's block is its Gram matrix, and the block of two families is
    :func:`spinrep.orbitals._cross_overlaps`: neither builds an orbital.
    Every block with explicit orbitals in it is integrated from orbitals,
    one branch's held at a time and the other's built one by one.
    """
    sizes = [len(b.orbitals.orbitals) for b in w.branches]
    starts = np.cumsum([0] + sizes).tolist()
    roots = np.sqrt([max(b.weight, 0.0) for b, m in zip(w.branches, sizes) for _ in range(m)])
    o = np.empty((starts[-1], starts[-1]), dtype=np.complex128)
    # an infinite or NaN entry gives nan, not a warning
    with np.errstate(invalid="ignore", over="ignore"):
        for a, branch in enumerate(w.branches):
            mine = branch.orbitals.orbitals
            family = isinstance(mine, OrbitalFamily)
            rows = slice(starts[a], starts[a + 1])
            held = None if family else tuple(mine)
            o[rows, rows] = _family_gram(mine) if family else _overlaps(held)
            for b in range(a + 1, len(w.branches)):
                theirs, cols = w.branches[b].orbitals.orbitals, slice(starts[b], starts[b + 1])
                if family and isinstance(theirs, OrbitalFamily):
                    o[rows, cols] = _cross_overlaps(mine, theirs)
                    o[cols, rows] = o[rows, cols].conj().T
                    continue
                if held is None:
                    held = tuple(mine)
                for q in range(len(theirs)):
                    orb, j = theirs[q], starts[b] + q
                    for i, held_orb in enumerate(held, start=starts[a]):
                        o[i, j] = _overlap(held_orb, orb)
                        o[j, i] = np.conj(o[i, j])
                    del orb  # before the next orbital is built
            del held  # before the next branch's orbitals are built
        k = np.outer(roots, roots) * o
    if not np.isfinite(k).all():
        # LAPACK need not converge on it
        return np.full(len(k), np.nan)
    return np.sort(np.linalg.eigvalsh(k))[::-1]


def _l1_distance(a: Field, b: Field):
    """integral |a - b|, the integrand formed leaf by leaf."""
    af, bf = a.values.reshape(-1), b.values.reshape(-1)
    return _weighted_sum(a.grid, float, lambda lo, hi, buf: np.abs(af[lo:hi] - bf[lo:hi], out=buf))


@dataclass(frozen=True)
class VerifyReport(Report):
    """Outcome of verifying a witness against a target density."""

    checks: tuple[ConditionResult, ...]
    mismatch: float
    weight_sum: float
    gram_deviations: tuple[float, ...]
    kinetic_up: float
    kinetic_dn: float

    section = "check"

    @property
    def results(self) -> tuple[ConditionResult, ...]:
        return self.checks

    @property
    def kinetic_total(self) -> float:
        return self.kinetic_up + self.kinetic_dn

    def header(self) -> list[str]:
        return [
            "report: verify",
            f"overall: {self.verdict}",
            f"mismatch: {self.mismatch:.12g}",
            f"weight_sum: {self.weight_sum:.17g}",
            f"kinetic_up: {self.kinetic_up:.12g}",
            f"kinetic_dn: {self.kinetic_dn:.12g}",
            f"kinetic_total: {self.kinetic_total:.12g}",
        ]


def verify(
    w: Witness,
    target: SpinDensityField,
    tol: ToleranceConfig = DEFAULT,
) -> VerifyReport:
    """Verify that a witness actually represents the target density.

    Five checks: (i) the reconstructed density matches the target in
    relative L^1; (ii) every branch's orbitals are orthonormal within the
    Gram tolerance, and the worst branch and its (k, l) pair are named;
    (iii) the branch weights are convex; (iv) the witness kinetic energy
    (:func:`kinetic_by_spin`) is finite; (v) the three integrated
    regularity bounds tying the reconstructed density to the kinetic
    energy hold with slack:

        integral |grad sqrt(rho_a)|^2        <= T_aa
        integral |grad sigma|^2 / rho        <= T
        integral |grad sqrt(det R)|^2 / rho  <= 4 T

    A family branch builds no orbital: one pass over its base adds its
    density and gives its Gram matrix, which is the value construct's gate
    stored, and its T takes two stencil passes.  Explicit orbitals are
    taken one at a time for the density and the Gram matrix, and their T
    is the stencil of each.
    """
    if w.grid != target.grid:
        raise ValueError("witness and target live on different grids")
    if w.n_electrons != target.n_electrons:
        raise ValueError("witness and target disagree on n_electrons")
    # an infinite orbital entry gives nan in the products; the checks report it, numpy
    # need not warn about it
    with np.errstate(invalid="ignore"):
        checks: list[ConditionResult] = []

        # one pass per branch adds its density and gives its Gram matrix; a
        # family builds no orbital for either
        sums = _density_sums(w.grid)
        worst = [_deviation(_add_orbitals(sums, b.weight, b.orbitals.orbitals, gram=True))
                 for b in w.branches]
        gram_devs = tuple(dev for dev, _ in worst)
        rec = _field(w, sums)
        t_up, t_dn = kinetic_by_spin(w)

        # (i) density match, relative L1
        denom = _worst((trace_integral(target), TINY), largest=True)[0]
        l1 = (
            float(_l1_distance(rec.rho_up, target.rho_up))
            + float(_l1_distance(rec.rho_dn, target.rho_dn))
            + 2.0 * float(_l1_distance(rec.sigma, target.sigma))
        )
        mismatch = l1 / denom
        checks.append(ConditionResult(
            "density_match",
            PASS if mismatch <= MISMATCH_TOL else FAIL,
            mismatch,
            {"threshold": MISMATCH_TOL, "l1_absolute": l1},
        ))

        # (ii) per-branch orthonormality
        worst_gram, (branch,) = _worst(gram_devs, largest=True)
        checks.append(ConditionResult(
            "orbital_gram",
            PASS if worst_gram <= GRAM_TOL else FAIL,
            worst_gram,
            {"threshold": GRAM_TOL, "per_branch": tuple(float(g) for g in gram_devs),
             "worst_branch": branch, "worst_pair": worst[branch][1]},
        ))

        # (iii) convex weights
        weight_sum = float(np.sum(w.weights))
        min_weight = _worst(w.weights)[0]
        weights_ok = abs(weight_sum - 1.0) <= WEIGHT_SUM_TOL and min_weight >= -WEIGHT_SUM_TOL
        checks.append(ConditionResult(
            "weight_sum",
            PASS if weights_ok else FAIL,
            weight_sum,
            {"threshold": WEIGHT_SUM_TOL, "min_weight": min_weight},
        ))

        # (iv) finite kinetic energy
        total = t_up + t_dn
        checks.append(ConditionResult(
            "kinetic_finite",
            PASS if np.isfinite(total) else FAIL,
            total,
            {"kinetic_up": t_up, "kinetic_dn": t_dn},
        ))

        # (v) integrated regularity bounds on the reconstructed density
        parts, ratios = _gradient_norms(rec, tol, w32=False)
        bounds = (
            ("sqrt_rho_up_h1", parts["sqrt_rho_h1"]["h1_up"], t_up),
            ("sqrt_rho_dn_h1", parts["sqrt_rho_h1"]["h1_dn"], t_dn),
            ("sigma_grad_over_rho", ratios["sigma_grad_over_rho"].value, total),
            ("sqrtdet_grad_over_rho", ratios["sqrtdet_grad_over_rho"].value, 4.0 * total),
        )
        details: dict[str, object] = {"slack": SLACK}
        margins = [0.0]
        ok = True
        for name, lhs, rhs in bounds:
            details[f"{name}_lhs"] = float(lhs)
            details[f"{name}_rhs"] = float(rhs)
            margins.append(lhs / rhs if not rhs <= 0.0 else (0.0 if lhs == 0.0 else np.inf))
            if not lhs <= rhs * (1.0 + SLACK):
                ok = False
        checks.append(ConditionResult(
            "kinetic_bounds",
            PASS if ok else FAIL,
            _worst(margins, largest=True)[0],
            details,
        ))

    return VerifyReport(
        checks=tuple(checks),
        mismatch=mismatch,
        weight_sum=weight_sum,
        gram_deviations=gram_devs,
        kinetic_up=t_up,
        kinetic_dn=t_dn,
    )
