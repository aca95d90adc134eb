"""Shared tolerance configuration.

Every threshold in the package is resolved through a single
:class:`ToleranceConfig` so that scale conventions stay in one place.
Most knobs are *relative*: they are multiplied by a field scale
(``max(rho)``, ``max(rho)**2`` or the electron count) at the point of
use.  The three ``*_abs`` fields let callers (notably the CLI) pin an
absolute value instead.  The fixed values nobody tunes are module
constants here, beside the config, so each still has one definition.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

import numpy as np

TINY = float(np.finfo(np.float64).tiny)  # smallest normal float64, a floor on divisors
WEIGHT_SUM_TOL = 1e-12      # convex weights must sum to 1 within this
PHASE_ROUGHNESS_REL = 1e-3  # spectral-integration gap and dip bound, x n_electrons


@dataclass(frozen=True)
class ToleranceConfig:
    # clamps on pointwise sign conditions
    neg_rel: float = 1e-10        # negativity slack, x max(rho)
    det_rel: float = 1e-10        # PSD determinant slack, x max(rho)^2
    det_clamp_rel: float = 1e-12  # round-off clamp inside det_field, x max(rho)^2

    # integral conditions
    norm_rel: float = 1e-6        # normalization slack, x n_electrons

    # division guards
    floor_rel: float = 1e-12      # rho floor for |grad|^2 / rho integrands, x max(rho)
    sqrt_floor_rel: float = 1e-14  # floor on rho + 2*sqrt(det) in the matrix sqrt

    # verdict policy for the seminorm conditions
    refine_threshold: float = 0.05   # relative change marking a norm unstable
    masked_fraction: float = 0.01    # significant-masked fraction -> indeterminate
    sig_rel: float = 1e-9            # significance cutoff for masked points
    boundary_rel: float = 1e-8       # boundary-density warning level, x max(rho)

    # constructive pipeline
    degenerate_weight: float = 1e-12  # split weight below which a branch drops
    null_det_rel: float = 1e-10       # |det| tolerance for null-determinant input
    null_det_fraction: float = 1e-3   # fraction of points allowed to violate it
    ratio_rel: float = 1e-10          # slack on rho_up <= 2 rho_dn, x max(rho)
    phase_renorm_factor: float = 10.0  # reject phase renormalization beyond this x norm tol

    # witness verification
    slack: float = 0.05           # multiplicative slack on integrated bounds
    gram_tol: float = 1e-6        # orbital Gram deviation gate
    mismatch_tol: float = 1e-8    # witness density mismatch gate (relative L1)

    # absolute overrides; None -> use the relative rule
    neg_abs: float | None = None
    norm_abs: float | None = None
    floor_abs: float | None = None

    def __post_init__(self) -> None:
        for name in (
            "neg_rel", "det_rel", "det_clamp_rel", "norm_rel", "floor_rel",
            "sqrt_floor_rel", "refine_threshold", "masked_fraction", "sig_rel",
            "boundary_rel", "degenerate_weight", "null_det_rel",
            "null_det_fraction", "ratio_rel", "phase_renorm_factor", "slack",
            "gram_tol", "mismatch_tol",
        ):
            value = getattr(self, name)
            if not (np.isfinite(value) and value > 0.0):
                raise ValueError(f"tolerance {name} must be positive and finite, got {value}")
        for name in ("neg_abs", "norm_abs", "floor_abs"):
            value = getattr(self, name)
            if value is not None and not (np.isfinite(value) and value > 0.0):
                raise ValueError(f"tolerance {name} must be positive and finite, got {value}")

    # -- scale resolution -------------------------------------------------

    def neg_tol(self, scale: float) -> float:
        if self.neg_abs is not None:
            return self.neg_abs
        return self.neg_rel * scale

    def det_tol(self, scale: float) -> float:
        return self.det_rel * scale * scale

    def det_clamp(self, scale: float) -> float:
        return self.det_clamp_rel * scale * scale

    def norm_tol(self, n_electrons: float) -> float:
        if self.norm_abs is not None:
            return self.norm_abs
        return self.norm_rel * n_electrons

    def floor(self, scale: float) -> float:
        if self.floor_abs is not None:
            return self.floor_abs
        return max(self.floor_rel * scale, TINY)

    def sqrt_floor(self, scale: float) -> float:
        return max(self.sqrt_floor_rel * scale, TINY)

    def null_det_tol(self, scale: float) -> float:
        return self.null_det_rel * scale * scale

    def ratio_tol(self, scale: float) -> float:
        return self.ratio_rel * scale

    def with_overrides(self, *, neg_abs=None, norm_abs=None, floor_abs=None) -> "ToleranceConfig":
        """Return a copy with the given absolute overrides applied."""
        updates = {}
        if neg_abs is not None:
            updates["neg_abs"] = neg_abs
        if norm_abs is not None:
            updates["norm_abs"] = norm_abs
        if floor_abs is not None:
            updates["floor_abs"] = floor_abs
        return replace(self, **updates) if updates else self


DEFAULT = ToleranceConfig()
