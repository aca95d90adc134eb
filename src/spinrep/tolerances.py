"""Shared tolerances.

Every threshold in the package has one definition here.  Most are
*relative*: they are multiplied by a field scale (``max(rho)``,
``max(rho)**2`` or the electron count) at the point of use.  The fixed
values are module constants; :class:`ToleranceConfig` holds only the three
absolute overrides a caller (notably the CLI) can set in place of the
relative rule for negativity, normalization and the density floor.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

TINY = float(np.finfo(np.float64).tiny)  # smallest normal float64, a floor on divisors
WEIGHT_SUM_TOL = 1e-12      # convex weights must sum to 1 within this
PHASE_ROUGHNESS_REL = 1e-3  # spectral-integration gap and dip bound, x n_electrons

# clamps on pointwise sign conditions
NEG_REL = 1e-10        # negativity slack, x max(rho)
DET_REL = 1e-10        # PSD determinant slack, x max(rho)^2
DET_CLAMP_REL = 1e-12  # round-off clamp inside det_field, x max(rho)^2

# integral conditions
NORM_REL = 1e-6        # normalization slack, x n_electrons

# division guards
FLOOR_REL = 1e-12       # rho floor for |grad|^2 / rho integrands, x max(rho)
SQRT_FLOOR_REL = 1e-14  # floor on rho + 2*sqrt(det) in the matrix sqrt

# verdict policy for the seminorm conditions
REFINE_THRESHOLD = 0.05  # relative change marking a norm unstable
MASKED_FRACTION = 0.01   # significant-masked fraction -> indeterminate
SIG_REL = 1e-9           # significance cutoff for masked points
BOUNDARY_REL = 1e-8      # boundary-density warning level, x max(rho)

# constructive pipeline
DEGENERATE_WEIGHT = 1e-12   # split weight below which a branch drops
NULL_DET_REL = 1e-10        # |det| tolerance for null-determinant input, x max(rho)^2
NULL_DET_FRACTION = 1e-3    # fraction of points allowed to violate it
RATIO_REL = 1e-10           # slack on rho_up <= 2 rho_dn, x max(rho)
PHASE_RENORM_FACTOR = 10.0  # reject phase renormalization beyond this x norm tol

# witness verification
SLACK = 0.05          # multiplicative slack on integrated bounds
GRAM_TOL = 1e-6       # orbital Gram deviation gate
MISMATCH_TOL = 1e-8   # witness density mismatch gate (relative L1)


def sqrt_floor(scale: float) -> float:
    """Floor on rho (or rho + 2 sqrt(det)) below which a square root is taken as 0."""
    return max(SQRT_FLOOR_REL * scale, TINY)


@dataclass(frozen=True)
class ToleranceConfig:
    """Absolute overrides of three relative tolerances; None -> the relative rule."""

    neg_abs: float | None = None
    norm_abs: float | None = None
    floor_abs: float | None = None

    def __post_init__(self) -> None:
        for name in ("neg_abs", "norm_abs", "floor_abs"):
            value = getattr(self, name)
            if value is not None and not (np.isfinite(value) and value > 0.0):
                raise ValueError(f"tolerance {name} must be positive and finite, got {value}")

    def neg_tol(self, scale: float) -> float:
        if self.neg_abs is not None:
            return self.neg_abs
        return NEG_REL * scale

    def norm_tol(self, n_electrons: float) -> float:
        if self.norm_abs is not None:
            return self.norm_abs
        return NORM_REL * n_electrons

    def floor(self, scale: float) -> float:
        if self.floor_abs is not None:
            return self.floor_abs
        return max(FLOOR_REL * scale, TINY)


DEFAULT = ToleranceConfig()
