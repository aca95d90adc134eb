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
from dataclasses import dataclass, field
from functools import cached_property
from typing import Iterable, Mapping

import numpy as np

from .fields import (
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
from .tolerances import DEFAULT, TINY, ToleranceConfig

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
        return "\n".join(self.header() + sections(self.section, self.results)) + "\n"


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


def sections(label: str, results: Iterable[ConditionResult]) -> list[str]:
    """Text lines of ``results``, one block each, headed ``<label>: <name>``."""
    lines = []
    for c in results:
        lines += ["", f"{label}: {c.name}", f"verdict: {c.verdict}", f"value: {c.value:.12g}"]
        lines += [f"{key}: {_fmt(c.details[key])}" for key in sorted(c.details)]
    return lines


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
    tol: ToleranceConfig,
    sig_fraction: float = 0.0,
    change: float | None = None,
) -> tuple[str, str]:
    """Verdict policy for the finiteness conditions (d)-(g)."""
    if not math.isfinite(value):
        return FAIL, "non-finite value"
    if not sig_fraction <= tol.masked_fraction:
        return INDETERMINATE, "masked points dominate"
    if change is None:
        return PASS, "finite at this resolution"
    if not change <= tol.refine_threshold:
        return FAIL, f"unstable under refinement (change {change:.3g})"
    return PASS, f"stable under refinement (change {change:.3g})"


# -- the seven conditions ----------------------------------------------------


def _sqrt_clipped(values: np.ndarray) -> np.ndarray:
    """sqrt(max(values, 0)), written block by block into one new array."""
    v = values.reshape(-1)

    def step(lo, hi, out):
        np.sqrt(np.clip(v[lo:hi], 0.0, None, out=out), out=out)

    return blockwise_arrays(values.shape, (float,), step)[0]


class DensityNorms:
    """The gradient norms of conditions (d)-(g) on one density R.

    Each |grad f|^2 (of sqrt rho_up, sqrt rho_dn, sigma and sqrt det R) is
    taken at most once, when a norm first needs it, so a caller pays only for
    the norms it reads.  ``floor`` is the division floor of the /rho
    integrals; ``det`` passes the values of ``det_field(r, tol)`` when the
    caller already has them.
    """

    def __init__(
        self,
        r: SpinDensityField,
        tol: ToleranceConfig,
        floor: float,
        det: np.ndarray | None = None,
    ) -> None:
        self.r = r
        self.tol = tol
        self.floor = floor
        self._det = det

    def _h1_sqrt(self, values: np.ndarray) -> float:
        return h1_seminorm(self.r.grid, _sqrt_clipped(values))

    @cached_property
    def h1_up(self) -> float:
        return self._h1_sqrt(self.r.rho_up.values)

    @cached_property
    def h1_dn(self) -> float:
        return self._h1_sqrt(self.r.rho_dn.values)

    @cached_property
    def _sqrt_det(self) -> ScalarField:
        det = self._det if self._det is not None else det_field(self.r, self.tol).values
        return ScalarField(self.r.grid, frozen(_sqrt_clipped(det)))

    @cached_property
    def _sigma_grad_sq(self) -> np.ndarray:
        return grad_magnitude_sq(self.r.grid, self.r.sigma.values)

    @cached_property
    def _sqrtdet_grad_sq(self) -> np.ndarray:
        return grad_magnitude_sq(self.r.grid, self._sqrt_det.values)

    @cached_property
    def sigma_w32(self) -> tuple[float, float]:
        return w32_norms(self.r.grid, self.r.sigma.values, grad_sq=self._sigma_grad_sq)

    @cached_property
    def sqrtdet_w32(self) -> tuple[float, float]:
        return w32_norms(self.r.grid, self._sqrt_det.values, grad_sq=self._sqrtdet_grad_sq)

    def _over_rho(self, f, grad_sq: np.ndarray) -> WeightedGradientL1:
        return weighted_gradient_l1(
            f, self.r.rho_total, self.floor, self.tol.sig_rel, grad_sq=grad_sq
        )

    @cached_property
    def sigma_ratio(self) -> WeightedGradientL1:
        return self._over_rho(self.r.sigma, self._sigma_grad_sq)

    @cached_property
    def det_ratio(self) -> WeightedGradientL1:
        return self._over_rho(self._sqrt_det, self._sqrtdet_grad_sq)


def _eq_norms(
    r: SpinDensityField, tol: ToleranceConfig, det: np.ndarray | None = None
) -> tuple[dict[str, dict[str, float]], dict[str, WeightedGradientL1]]:
    """The parts of conditions (d)-(g) by condition name, each gradient taken once.

    The second dict holds the masked-point counts of the /rho conditions.
    """
    # non-finite data must surface as failing norms, not as a floor error
    scale = r.scale if math.isfinite(r.scale) else 0.0
    norms = DensityNorms(r, tol, tol.floor(scale), det)
    h1 = {"h1_up": norms.h1_up, "h1_dn": norms.h1_dn}
    sig_f, sig_g = norms.sigma_w32
    det_f, det_g = norms.sqrtdet_w32
    ratios = {"sigma_grad_over_rho": norms.sigma_ratio, "sqrtdet_grad_over_rho": norms.det_ratio}
    parts = {
        "sqrt_rho_h1": h1,
        "sigma_sqrtdet_w32": {
            "sigma_l32": sig_f,
            "sigma_grad_l32": sig_g,
            "sqrtdet_l32": det_f,
            "sqrtdet_grad_l32": det_g,
        },
        "sigma_grad_over_rho": {"sigma_ratio": norms.sigma_ratio.value},
        "sqrtdet_grad_over_rho": {"det_ratio": norms.det_ratio.value},
    }
    return parts, ratios


def _finiteness(
    name: str,
    parts: dict[str, float],
    fine: dict[str, float] | None,
    tol: ToleranceConfig,
    ratio: WeightedGradientL1 | None = None,
) -> ConditionResult:
    """One of conditions (d)-(g): the sum of its parts must be finite.

    With ``fine``, the same parts on a refined grid, the largest relative
    change of any part must also stay below ``tol.refine_threshold``.
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
    verdict, details["status"] = _norm_verdict(value, tol, sig_fraction, change)
    return ConditionResult(name, verdict, value, details)


def _psd_conditions(
    r: SpinDensityField, tol: ToleranceConfig
) -> tuple[ConditionResult, ConditionResult, np.ndarray]:
    """Conditions (a) and (b) on R, and the values of ``det_field(r, tol)``."""
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
    det_tol = tol.det_tol(r.scale)
    dt = det_field(r, tol).values
    min_det, loc = _worst(dt)
    det_nonneg = ConditionResult(
        "det_nonneg",
        PASS if min_det >= -det_tol else FAIL,
        min_det,
        {"worst_location": loc, "threshold": -det_tol},
    )
    return nonneg, det_nonneg, dt


def check(
    r: SpinDensityField,
    tol: ToleranceConfig = DEFAULT,
    refined: SpinDensityField | None = None,
) -> CheckReport:
    """Evaluate all seven admissibility conditions on R.

    ``refined`` optionally supplies the same density sampled on a finer grid;
    when present, the finiteness conditions additionally require the discrete
    norms to move by less than ``tol.refine_threshold`` relative, which is
    what actually distinguishes a finite seminorm from a divergent one.
    """
    if refined is not None:
        if refined.grid.box != r.grid.box:
            raise ValueError("refined field must cover the same box")
        if refined.n_electrons != r.n_electrons:
            raise ValueError("refined field must have the same n_electrons")
        if any(refined.grid.dims[ax] <= r.grid.dims[ax] for ax in range(3)):
            raise ValueError("refined field must be strictly finer on every axis")

    n = r.n_electrons
    *conditions, dt = _psd_conditions(r, tol)

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
    parts, ratios = _eq_norms(r, tol, dt)
    fine = _eq_norms(refined, tol)[0] if refined is not None else None
    for name, part in parts.items():
        fine_part = None if fine is None else fine[name]
        conditions.append(_finiteness(name, part, fine_part, tol, ratios.get(name)))

    bmax = boundary_max(r.rho_total)
    return CheckReport(
        conditions=tuple(conditions),
        n_electrons=n,
        boundary_warning=not bmax <= tol.boundary_rel * _worst((r.scale, TINY), largest=True)[0],
        boundary_value=bmax,
    )

