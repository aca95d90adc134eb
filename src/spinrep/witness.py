"""Witness states (convex combinations of Slater branches) and their verification.

A branch's orbitals may be an :class:`spinrep.orbitals.OrbitalFamily`, which
builds each orbital when it is asked for.  Everything here takes them one at
a time, branch by branch, and holds at most one branch's orbitals at once.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass, field

import numpy as np

from .check import FAIL, PASS, ConditionResult, Report, _gradient_norms, h1_seminorm
from .fields import ComplexField, Field, Grid3, ScalarField, _weighted_sum, _worst, frozen
from .orbitals import (OrbitalSet, Spinor, _add_density, _density_sums, _deviation, _each, _gram,
                       _overlap, _overlaps)
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
    # branch index -> the read-only _overlaps matrix of its orbitals, filled by
    # verify and occupation_spectrum so that each is integrated once
    _overlap_cache: dict = field(default_factory=dict, init=False, repr=False, compare=False)

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

    def _branch_overlaps(self, index: int, orbitals=None, each=None) -> np.ndarray:
        """The overlap matrix of branch ``index``, integrated on the first call only.

        ``orbitals`` are that branch's orbitals when the caller holds them.
        ``each(orbital)`` is called on every orbital of the branch in order,
        as :func:`spinrep.orbitals._overlaps` calls it, whether the matrix
        is integrated or not.
        """
        if orbitals is None:
            orbitals = self.branches[index].orbitals.orbitals
        o = self._overlap_cache.get(index)
        if o is None:
            o = self._overlap_cache[index] = frozen(_overlaps(orbitals, each))
        elif each is not None:
            _each(orbitals, each)
        return o


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
        _each(branch.orbitals.orbitals, functools.partial(_add_density, sums, branch.weight))
    return _field(w, sums)


def kinetic_by_spin(w: Witness) -> tuple[float, float]:
    """(T_up, T_dn): weighted sums of integral |grad Phi^a|^2 per spin component.

    This is Tr(-Laplacian gamma^aa) for the one-body operator of the witness
    (no 1/2 factor).
    """
    t = [0.0, 0.0]
    for branch in w.branches:
        _each(branch.orbitals.orbitals, functools.partial(_add_kinetic, t, branch.weight))
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
    For an admissible mixed state every eigenvalue lies in [0, 1].

    One branch's orbitals are held at a time; the orbitals of the later
    branches are built one by one for the overlaps across branches.  The
    overlaps within a branch are those :func:`verify` integrated, if it ran.
    """
    sizes = [len(b.orbitals.orbitals) for b in w.branches]
    starts = np.cumsum([0] + sizes).tolist()
    roots = np.sqrt([max(b.weight, 0.0) for b, m in zip(w.branches, sizes) for _ in range(m)])
    o = np.empty((starts[-1], starts[-1]), dtype=np.complex128)
    # an infinite orbital entry gives nan, not a warning
    with np.errstate(invalid="ignore"):
        for a, branch in enumerate(w.branches):
            rows, later = slice(starts[a], starts[a + 1]), range(a + 1, len(w.branches))
            # the last branch's orbitals serve only its own overlaps
            held = tuple(branch.orbitals.orbitals) if later else None
            o[rows, rows] = w._branch_overlaps(a, held)
            for b in later:
                orbs = w.branches[b].orbitals.orbitals
                for q in range(len(orbs)):
                    orb, j = orbs[q], starts[b] + q
                    for i, mine in enumerate(held, start=starts[a]):
                        o[i, j] = _overlap(mine, orb)
                        o[j, i] = np.conj(o[i, j])
                    del orb  # before the next orbital is built
            del held  # before the next branch's orbitals are built
        k = np.outer(roots, roots) * o
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
    # an infinite orbital entry gives nan in the products; the checks report it, numpy
    # need not warn about it
    with np.errstate(invalid="ignore"):
        checks: list[ConditionResult] = []

        # one pass over the orbitals, a branch at a time: each orbital is built
        # once and feeds the density sums, its two H^1 terms and its Gram row
        sums = _density_sums(w.grid)
        t = [0.0, 0.0]
        gram_devs = []
        for index, branch in enumerate(w.branches):
            def feed(orb, p=branch.weight):
                _add_density(sums, p, orb)
                _add_kinetic(t, p, orb)

            gram_devs.append(_deviation(_gram(w._branch_overlaps(index, each=feed))))
        gram_devs = tuple(gram_devs)
        rec = _field(w, sums)
        t_up, t_dn = t

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
        worst_gram = _worst(gram_devs, largest=True)[0]
        checks.append(ConditionResult(
            "orbital_gram",
            PASS if worst_gram <= GRAM_TOL else FAIL,
            worst_gram,
            {"threshold": GRAM_TOL, "per_branch": tuple(float(g) for g in gram_devs)},
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
