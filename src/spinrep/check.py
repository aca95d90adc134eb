"""Necessary-and-sufficient admissibility check for spin-density fields.

A matrix field R = [[rho_up, sigma], [conj sigma, rho_dn]] on the box comes
from an N-electron mixed state with finite kinetic energy iff

  (a) rho_up >= 0 and rho_dn >= 0 pointwise,
  (b) det R = rho_up*rho_dn - |sigma|^2 >= 0 pointwise,
  (c) integral(rho_up + rho_dn) = N,
  (d) sqrt(rho_up), sqrt(rho_dn) have finite H^1 gradient seminorm,
  (e) sigma and sqrt(det R) have finite W^{1,3/2} norm,
  (f) integral |grad sigma|^2 / rho is finite,
  (g) integral |grad sqrt(det R)|^2 / rho is finite,

with rho = rho_up + rho_dn.  (a)-(c) are sharp pointwise/integral tests
against tolerances.  (d)-(g) are finiteness statements, which a single grid
can only probe: the verdict is "pass" when the discrete value is finite (and,
if a refined field is supplied, stable under refinement), "fail" when it is
non-finite or grows beyond the refinement threshold, and "indeterminate"
when too many points were masked by the division floor for the number to
mean anything.
"""

from __future__ import annotations

import math
from contextlib import contextmanager
from contextvars import ContextVar
from dataclasses import dataclass, field
from typing import Iterator, Mapping

import numpy as np

from .fields import (
    ComplexField,
    Grid3,
    ScalarField,
    WeightedGradientL1,
    _worst,
    blockwise_arrays,
    boundary_max,
    frozen,
    grad_magnitude_sq,
    integrate_values,
    lp_norm,
    weighted_gradient_l1,
)
from .spin_density import SpinDensityField, det_field, trace_integral
from .tolerances import (BOUNDARY_REL, DEFAULT, DET_REL, MASKED_FRACTION, REFINE_THRESHOLD,
                         TINY, ToleranceConfig)

PASS = "pass"
FAIL = "fail"
INDETERMINATE = "indeterminate"


@dataclass(frozen=True)
class ConditionResult:
    name: str
    verdict: str
    value: float
    details: Mapping[str, object] = field(default_factory=dict)

    @property
    def passed(self) -> bool:
        return self.verdict == PASS


class Report:
    """Verdict, lookup by name and text of a tuple of results.

    A subclass names its results (``results``), the word that heads each
    result's block of text (``section``) and its header lines.
    """

    section = "condition"

    @property
    def results(self) -> tuple[ConditionResult, ...]:
        raise NotImplementedError

    def header(self) -> list[str]:
        raise NotImplementedError

    @property
    def verdict(self) -> str:
        """fail if any result fails, else indeterminate if any is, else pass."""
        verdicts = {c.verdict for c in self.results}
        for verdict in (FAIL, INDETERMINATE):
            if verdict in verdicts:
                return verdict
        return PASS

    @property
    def passed(self) -> bool:
        return self.verdict == PASS

    def __getitem__(self, name: str) -> ConditionResult:
        for c in self.results:
            if c.name == name:
                return c
        raise KeyError(name)

    def to_text(self) -> str:
        """Header lines, then one block per result headed ``<section>: <name>``."""
        lines = self.header()
        for c in self.results:
            lines += ["", f"{self.section}: {c.name}", f"verdict: {c.verdict}",
                      f"value: {c.value:.12g}"]
            lines += [f"{key}: {_fmt(c.details[key])}" for key in sorted(c.details)]
        return "\n".join(lines) + "\n"


@dataclass(frozen=True)
class CheckReport(Report):
    conditions: tuple[ConditionResult, ...]
    n_electrons: int
    boundary_warning: bool
    boundary_value: float

    @property
    def results(self) -> tuple[ConditionResult, ...]:
        return self.conditions

    def header(self) -> list[str]:
        return [
            "report: check",
            f"overall: {self.verdict}",
            f"n_electrons: {self.n_electrons}",
            f"boundary_warning: {'yes' if self.boundary_warning else 'no'}",
            f"boundary_value: {self.boundary_value:.12g}",
        ]


def _fmt(v: object) -> str:
    if isinstance(v, float):
        return f"{v:.12g}"
    if isinstance(v, tuple) and all(isinstance(x, int) for x in v):
        return " ".join(str(x) for x in v)  # a grid location
    return str(v)


def h1_seminorm(grid: Grid3, values: np.ndarray) -> float:
    """integral |grad f|^2 over the box."""
    return float(integrate_values(grid, grad_magnitude_sq(grid, values)))


def w32_norms(
    grid: Grid3,
    values: np.ndarray,
    grad_sq: np.ndarray | None = None,
) -> tuple[float, float]:
    """(L^{3/2} norm of f, L^{3/2} norm of |grad f|).

    ``grad_sq`` passes |grad f|^2 when the caller has already computed it.
    """
    if grad_sq is None:
        grad_sq = grad_magnitude_sq(grid, values)
    return lp_norm(grid, values, 1.5), lp_norm(grid, grad_sq, 1.5, squared=True)


def _rel_change(coarse: float, fine: float) -> float:
    denom = _worst((abs(coarse), abs(fine)), largest=True)[0]
    if denom == 0.0:
        return 0.0
    return abs(fine - coarse) / denom


def _norm_verdict(
    value: float,
    sig_fraction: float = 0.0,
    change: float | None = None,
) -> tuple[str, str]:
    """Verdict policy for the finiteness conditions (d)-(g)."""
    if not math.isfinite(value):
        return FAIL, "non-finite value"
    if not sig_fraction <= MASKED_FRACTION:
        return INDETERMINATE, "masked points dominate"
    if change is None:
        return PASS, "finite at this resolution"
    if not change <= REFINE_THRESHOLD:
        return FAIL, f"unstable under refinement (change {change:.3g})"
    return PASS, f"stable under refinement (change {change:.3g})"


# -- the seven conditions ----------------------------------------------------


def _sqrt_clipped(values: np.ndarray) -> np.ndarray:
    """sqrt(max(values, 0)), written block by block into one new array."""
    def step(lo, hi, out):
        np.sqrt(np.clip(values[lo:hi], 0.0, None, out=out), out=out)

    return blockwise_arrays(values.shape, (float,), step)[0]


def _held_fields(r: SpinDensityField, root_of=None) -> Iterator:
    """The fields of :func:`_gradient_norms` of a held ``r``, each formed when asked for.

    ``root_of()`` returns sqrt(max(det R, 0)); by default from ``det_field(r)``.
    """
    yield r.rho_total, r.scale
    yield _sqrt_clipped(r.rho_up.values)
    yield _sqrt_clipped(r.rho_dn.values)
    yield r.sigma.values
    yield root_of() if root_of else _sqrt_clipped(det_field(r).values)


def _gradient_norms(
    grid: Grid3,
    tol: ToleranceConfig,
    fields: Iterator,
    w32: bool = True,
) -> tuple[dict[str, dict[str, float]], dict[str, WeightedGradientL1]]:
    """The parts of conditions (d)-(g) by condition name, and their /rho integrals.

    ``fields`` yields rho (a field) and max(rho), then the values of sqrt(max(
    rho_up, 0)), sqrt(max(rho_dn, 0)), sigma and sqrt(max(det R, 0)), as
    :func:`_held_fields` does for a held R.  Each is asked for once the
    |grad f|^2 of the one before is dropped, and is dropped with its own.
    Without ``w32`` the W^{1,3/2} parts of (e) stay empty.  The second dict
    holds the masked-point counts of the /rho conditions.
    """
    rho, scale = next(fields)
    # non-finite data must surface as failing norms, not as a floor error
    floor = tol.floor(scale if math.isfinite(scale) else 0.0)
    h1 = {"h1_up": h1_seminorm(grid, next(fields)), "h1_dn": h1_seminorm(grid, next(fields))}
    sigma = ComplexField(grid, frozen(next(fields)))
    l32: dict[str, float] = {}
    grad_sq = grad_magnitude_sq(grid, sigma.values)
    if w32:
        l32["sigma_l32"], l32["sigma_grad_l32"] = w32_norms(grid, sigma.values, grad_sq)
    sigma_ratio = weighted_gradient_l1(sigma, rho, floor, grad_sq=grad_sq)
    del grad_sq, sigma
    sqrt_det = ScalarField(grid, frozen(next(fields)))
    grad_sq = grad_magnitude_sq(grid, sqrt_det.values)
    if w32:
        l32["sqrtdet_l32"], l32["sqrtdet_grad_l32"] = w32_norms(grid, sqrt_det.values, grad_sq)
    det_ratio = weighted_gradient_l1(sqrt_det, rho, floor, grad_sq=grad_sq)
    parts = {
        "sqrt_rho_h1": h1,
        "sigma_sqrtdet_w32": l32,
        "sigma_grad_over_rho": {"sigma_ratio": sigma_ratio.value},
        "sqrtdet_grad_over_rho": {"det_ratio": det_ratio.value},
    }
    return parts, {"sigma_grad_over_rho": sigma_ratio, "sqrtdet_grad_over_rho": det_ratio}


def _finiteness(
    name: str,
    parts: dict[str, float],
    fine: dict[str, float] | None,
    ratio: WeightedGradientL1 | None = None,
) -> ConditionResult:
    """One of conditions (d)-(g): the sum of its parts must be finite.

    With ``fine``, the same parts on a refined grid, the largest relative
    change of any part must also stay below ``REFINE_THRESHOLD``.
    """
    value = float(sum(parts.values()))
    details: dict[str, object] = dict(parts) if len(parts) > 1 else {}
    change = None
    if fine is not None:
        change = _worst([_rel_change(parts[k], fine[k]) for k in parts], largest=True)[0]
        if len(parts) > 1:
            details.update({f"refined_{k}": fine[k] for k in parts})
        else:
            (details["refined_value"],) = fine.values()
        details["change"] = change
    sig_fraction = 0.0
    if ratio is not None:
        sig_fraction = ratio.significant_fraction
        details["masked_points"] = ratio.masked_points
        details["masked_fraction"] = ratio.masked_fraction
        details["significant_masked_points"] = ratio.significant_masked_points
    verdict, details["status"] = _norm_verdict(value, sig_fraction, change)
    return ConditionResult(name, verdict, value, details)


def _psd_conditions(
    r: SpinDensityField, tol: ToleranceConfig
) -> tuple[ConditionResult, ConditionResult, np.ndarray]:
    """Conditions (a) and (b) on R, and the values of ``det_field(r)``."""
    # (a) pointwise nonnegativity of the diagonal
    neg_tol = tol.neg_tol(r.scale)
    (min_up, loc_up), (min_dn, loc_dn) = _worst(r.rho_up.values), _worst(r.rho_dn.values)
    worst, (k,) = _worst((min_up, min_dn))
    loc, passed = (loc_up, loc_dn)[k], worst >= -neg_tol
    if not math.isfinite(r.scale):
        # max(rho) scales the tolerances: an infinite one would pass anything
        worst, loc = _worst(r.rho_total.values, largest=True)
        passed = False
    nonneg = ConditionResult(
        "rho_nonneg",
        PASS if passed else FAIL,
        worst,
        {
            "min_rho_up": min_up,
            "min_rho_dn": min_dn,
            "worst_location": loc,
            "threshold": -neg_tol,
        },
    )
    # (b) pointwise nonnegativity of the determinant
    det_tol = DET_REL * r.scale * r.scale
    dt = det_field(r).values
    min_det, loc = _worst(dt)
    det_nonneg = ConditionResult(
        "det_nonneg",
        PASS if min_det >= -det_tol else FAIL,
        min_det,
        {"worst_location": loc, "threshold": -det_tol},
    )
    return nonneg, det_nonneg, dt


def _require_refines(grid: Grid3, n: int, fine: Grid3, n_fine: int) -> None:
    """Raise ValueError unless (fine, n_fine) can hold a refinement of a density on (grid, n)."""
    if fine.box != grid.box:
        raise ValueError("refined field must cover the same box")
    if n_fine != n:
        raise ValueError("refined field must have the same n_electrons")
    if any(fine.dims[ax] <= grid.dims[ax] for ax in range(3)):
        raise ValueError("refined field must be strictly finer on every axis")


# where check puts sqrt(max(det R, 0)) for a caller that asks for it
_ROOT: ContextVar[list[np.ndarray] | None] = ContextVar("root", default=None)


@contextmanager
def _keeping_root() -> Iterator[list[np.ndarray]]:
    """Within, :func:`check` without a refined field hands its sqrt(max(det R, 0)) over.

    It appends the array that condition (g) formed to the list yielded.
    """
    root: list[np.ndarray] = []
    token = _ROOT.set(root)
    try:
        yield root
    finally:
        _ROOT.reset(token)


def check(
    r: SpinDensityField,
    tol: ToleranceConfig = DEFAULT,
    refined: SpinDensityField | None = None,
) -> CheckReport:
    """Evaluate all seven admissibility conditions on R.

    ``refined`` optionally supplies the same density sampled on a finer grid;
    when present, the finiteness conditions additionally require the discrete
    norms to move by less than ``REFINE_THRESHOLD`` relative, which is
    what actually distinguishes a finite seminorm from a divergent one.
    """
    if refined is not None:
        _require_refines(r.grid, r.n_electrons, refined.grid, refined.n_electrons)

    # inf - inf and inf / inf in the passes give nan, which fails the condition it
    # reaches; numpy need not warn about it
    with np.errstate(invalid="ignore"):
        n = r.n_electrons
        # (a), (b) and the parts of (d)-(g)
        conditions: list[ConditionResult] = []
        # sqrt det R for a caller that asks (_keeping_root), never held through
        # the refined field's norms
        root = _ROOT.get() if refined is None else None

        def root_of():
            *psd, det = _psd_conditions(r, tol)
            conditions.extend(psd)
            sqrt_det = _sqrt_clipped(det)
            if root is not None:
                root.append(sqrt_det)
            return sqrt_det

        parts, ratios = _gradient_norms(r.grid, tol, _held_fields(r, root_of))

        # (c) normalization of the trace
        norm_tol = tol.norm_tol(n)
        total = trace_integral(r)
        conditions.append(ConditionResult(
            "normalization",
            PASS if abs(total - n) <= norm_tol else FAIL,
            total,
            {"target": float(n), "deviation": abs(total - n), "threshold": norm_tol},
        ))

        # (d)-(g) finiteness of the gradient norms
        fine = None if refined is None else _gradient_norms(refined.grid, tol,
                                                            _held_fields(refined))[0]
        for name, part in parts.items():
            fine_part = None if fine is None else fine[name]
            conditions.append(_finiteness(name, part, fine_part, ratios.get(name)))

        bmax = boundary_max(r.rho_total)
    return CheckReport(
        conditions=tuple(conditions),
        n_electrons=n,
        boundary_warning=not bmax <= BOUNDARY_REL * _worst((r.scale, TINY), largest=True)[0],
        boundary_value=bmax,
    )
