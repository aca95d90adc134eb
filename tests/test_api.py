"""The public API: what ``spinrep`` exports, and the names the traced benchmark wraps."""

import importlib
import importlib.util
import os

import spinrep as sr

PUBLIC = [
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

# (home module, name) of functions deleted for having no caller
DELETED = (("spin_density", "convex_combine"), ("sqrtm", "reconstruct"),
           ("orbitals", "gram_deviation"), ("orbitals", "kinetic_bound_rhs"),
           ("orbitals", "choose_phase_axis"))


def test_public_api(monkeypatch):
    assert sr.__all__ == PUBLIC
    assert all(hasattr(sr, name) for name in PUBLIC)
    for module, name in DELETED:
        assert not hasattr(sr, name)
        assert not hasattr(importlib.import_module(f"spinrep.{module}"), name)
    # every function the traced benchmark wraps resolves on its home module
    bench = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "bench")
    monkeypatch.syspath_prepend(bench)
    spec = importlib.util.spec_from_file_location("tracing", os.path.join(bench, "tracing.py"))
    tracing = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracing)
    for module, names in tracing.TRACED.items():
        home = importlib.import_module(f"spinrep.{module}")
        for name in names:
            assert callable(getattr(home, name, None)), f"{module}.{name}"
