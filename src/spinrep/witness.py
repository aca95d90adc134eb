"""Witness states (convex combinations of Slater branches) and their verification."""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .check import FAIL, PASS, ConditionResult, DensityNorms, Report, h1_seminorm
from .fields import ComplexField, Field, Grid3, ScalarField, _weighted_sum, _worst, frozen
from .orbitals import OrbitalSet, _density_sums, _overlaps, gram_deviation
from .spin_density import SpinDensityField, trace_integral
from .tolerances import DEFAULT, TINY, WEIGHT_SUM_TOL, ToleranceConfig


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


def density_of(w: Witness) -> SpinDensityField:
    """The 2x2 density matrix field sum_n p_n sum_k Phi_nk^a conj(Phi_nk^b)."""
    up, dn, sg = _density_sums(
        w.grid, ((b.weight, orb) for b in w.branches for orb in b.orbitals.orbitals)
    )
    return SpinDensityField(
        rho_up=ScalarField(w.grid, frozen(up)),
        rho_dn=ScalarField(w.grid, frozen(dn)),
        sigma=ComplexField(w.grid, frozen(sg)),
        n_electrons=w.n_electrons,
    )


def kinetic_by_spin(w: Witness) -> tuple[float, float]:
    """(T_up, T_dn): weighted sums of integral |grad Phi^a|^2 per spin component.

    This is Tr(-Laplacian gamma^aa) for the one-body operator of the witness
    (no 1/2 factor).
    """
    t_up = 0.0
    t_dn = 0.0
    for branch in w.branches:
        p = branch.weight
        for orb in branch.orbitals.orbitals:
            t_up += p * h1_seminorm(w.grid, orb.up.values)
            t_dn += p * h1_seminorm(w.grid, orb.dn.values)
    return t_up, t_dn


def kinetic_energy(w: Witness) -> float:
    """Tr(-Laplacian gamma) of the witness (no 1/2 factor)."""
    t_up, t_dn = kinetic_by_spin(w)
    return t_up + t_dn


def occupation_spectrum(w: Witness) -> np.ndarray:
    """Eigenvalues (descending) of the one-body operator gamma of the witness.

    gamma = sum_n p_n sum_k |Phi_nk><Phi_nk| acts on a space of dimension
    (number of orbitals); its nonzero spectrum equals that of the small
    matrix K_ij = sqrt(p_i p_j) <Phi_i | Phi_j> over all branch orbitals.
    For an admissible mixed state every eigenvalue lies in [0, 1].
    """
    orbs = [orb for b in w.branches for orb in b.orbitals.orbitals]
    roots = np.sqrt([max(b.weight, 0.0) for b in w.branches for _ in b.orbitals.orbitals])
    k = np.outer(roots, roots) * _overlaps(orbs)
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
    Gram tolerance; (iii) the branch weights are convex; (iv) the witness
    kinetic energy is finite; (v) the three integrated regularity bounds
    tying the reconstructed density to the kinetic energy hold with slack:

        integral |grad sqrt(rho_a)|^2        <= T_aa
        integral |grad sigma|^2 / rho        <= T
        integral |grad sqrt(det R)|^2 / rho  <= 4 T
    """
    if w.grid != target.grid:
        raise ValueError("witness and target live on different grids")
    if w.n_electrons != target.n_electrons:
        raise ValueError("witness and target disagree on n_electrons")
    checks: list[ConditionResult] = []

    rec = density_of(w)

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
        PASS if mismatch <= tol.mismatch_tol else FAIL,
        mismatch,
        {"threshold": tol.mismatch_tol, "l1_absolute": l1},
    ))

    # (ii) per-branch orthonormality
    gram_devs = tuple(gram_deviation(b.orbitals.orbitals) for b in w.branches)
    worst_gram = _worst(gram_devs, largest=True)[0]
    checks.append(ConditionResult(
        "orbital_gram",
        PASS if worst_gram <= tol.gram_tol else FAIL,
        worst_gram,
        {"threshold": tol.gram_tol, "per_branch": tuple(float(g) for g in gram_devs)},
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
    t_up, t_dn = kinetic_by_spin(w)
    total = t_up + t_dn
    checks.append(ConditionResult(
        "kinetic_finite",
        PASS if np.isfinite(total) else FAIL,
        total,
        {"kinetic_up": t_up, "kinetic_dn": t_dn},
    ))

    # (v) integrated regularity bounds on the reconstructed density
    # a non-finite witness density must surface as failing bounds, not as a floor error
    norms = DensityNorms(rec, tol, tol.floor(rec.scale if math.isfinite(rec.scale) else 0.0))
    bounds = (
        ("sqrt_rho_up_h1", norms.h1_up, t_up),
        ("sqrt_rho_dn_h1", norms.h1_dn, t_dn),
        ("sigma_grad_over_rho", norms.sigma_ratio.value, total),
        ("sqrtdet_grad_over_rho", norms.det_ratio.value, 4.0 * total),
    )
    details: dict[str, object] = {"slack": tol.slack}
    margins = [0.0]
    ok = True
    for name, lhs, rhs in bounds:
        details[f"{name}_lhs"] = float(lhs)
        details[f"{name}_rhs"] = float(rhs)
        margins.append(lhs / rhs if not rhs <= 0.0 else (0.0 if lhs == 0.0 else np.inf))
        if not lhs <= rhs * (1.0 + tol.slack):
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
