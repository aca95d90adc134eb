"""spinrep: admissibility checks and explicit mixed-state construction for
2x2 spin-density matrix fields on uniform grids."""

__version__ = "0.1.0"

from .fields import (
    ComplexField,
    Grid3,
    ScalarField,
    WeightedGradientL1,
    boundary_max,
    grad_magnitude_sq,
    integrate,
    integrate_values,
    lp_norm,
    weighted_gradient_l1,
)
from .spin_density import (
    SpinDensityField,
    det_field,
    spin_swap,
    trace_integral,
)
from .tolerances import DEFAULT, ToleranceConfig
from .check import (
    CheckReport,
    ConditionResult,
    check,
    h1_seminorm,
    w32_norms,
)
from .sqrtm import (
    EigenDensities,
    NotPositiveSemidefiniteError,
    SqrtField,
    eigen_densities,
    sqrt_field,
)
from .orbitals import (
    NullDeterminantError,
    OrbitalSet,
    OrthonormalityError,
    PhaseFunction,
    PhaseNormalizationError,
    RatioHypothesisError,
    Spinor,
    build_orbitals,
    build_phase,
    exchange_components,
    gram_matrix,
    reconstruction_error,
)
from .decompose import (
    PipelineError,
    SplitResult,
    construct_witness,
    rank1_split,
    ratio_split,
)
from .witness import (
    VerifyReport,
    Witness,
    WitnessBranch,
    density_of,
    kinetic_by_spin,
    kinetic_energy,
    occupation_spectrum,
    verify,
)
from .generators import (
    GeneratorError,
    full_rank_mixture,
    gaussian_diagonal,
    gaussian_spinor,
    rank1_from_orbital,
)
from .io import (
    SpdfFormatError,
    UnsupportedVersionError,
    WitnessFormatError,
    read_spdf,
    read_witness,
    write_spdf,
    write_witness,
)

__all__ = [
    "ComplexField", "Grid3", "ScalarField", "WeightedGradientL1",
    "boundary_max", "grad_magnitude_sq", "integrate",
    "integrate_values", "lp_norm", "weighted_gradient_l1",
    "SpinDensityField", "det_field", "spin_swap", "trace_integral",
    "DEFAULT", "ToleranceConfig",
    "CheckReport", "ConditionResult", "check",
    "h1_seminorm", "w32_norms",
    "EigenDensities", "NotPositiveSemidefiniteError", "SqrtField",
    "eigen_densities", "sqrt_field",
    "NullDeterminantError", "OrbitalSet", "OrthonormalityError", "PhaseFunction",
    "PhaseNormalizationError", "RatioHypothesisError", "Spinor",
    "build_orbitals", "build_phase", "exchange_components",
    "gram_matrix", "reconstruction_error",
    "PipelineError", "SplitResult", "construct_witness",
    "rank1_split", "ratio_split",
    "VerifyReport", "Witness", "WitnessBranch", "density_of",
    "kinetic_by_spin", "kinetic_energy", "occupation_spectrum", "verify",
    "GeneratorError", "full_rank_mixture", "gaussian_diagonal",
    "gaussian_spinor", "rank1_from_orbital",
    "SpdfFormatError", "UnsupportedVersionError", "WitnessFormatError",
    "read_spdf", "read_witness", "write_spdf", "write_witness",
]
