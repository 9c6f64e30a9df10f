"""schurmaps: decoherence channels as Schur-product maps.

Correlation-matrix channels, their unitary dilations, random-unitary
decompositions, environment-assisted correction (including the
d-dimensional quantum eraser), and the information-flow bounds relating
them. All entropies are in bits.

The public names below are loaded on first access (PEP 562): ``import
schurmaps`` imports no submodule, and ``schurmaps.X`` or ``from schurmaps
import X`` imports the one submodule that defines ``X``.
"""

import importlib

__version__ = "0.1.0"

# each public name and the submodule that defines it
_SUBMODULE = {
    "CorrelationMatrix": "channels",
    "DensityMatrix": "channels",
    "SchurChannel": "channels",
    "apply_heisenberg": "channels",
    "apply_schrodinger": "channels",
    "asymptotic_state": "channels",
    "iterate": "channels",
    "validate_correlation": "channels",
    "CorrectionOutcomeRecord": "correction",
    "EnvPovm": "correction",
    "EraserScenario": "correction",
    "ScreenPattern": "correction",
    "dilation_from_decomposition": "correction",
    "eraser_scenario": "correction",
    "run_correction": "correction",
    "run_eraser": "correction",
    "screen_pattern": "correction",
    "which_way_readout": "correction",
    "ExtremalityResult": "decomposition",
    "ExtremalityVerdict": "decomposition",
    "FlatDecomposition": "decomposition",
    "SearchConfig": "decomposition",
    "VerificationReport": "decomposition",
    "decompose": "decomposition",
    "decompose_identity_xi": "decomposition",
    "decompose_qubit": "decomposition",
    "extremality_test": "decomposition",
    "flat_search": "decomposition",
    "reconstruct_xi": "decomposition",
    "verify_decomposition": "decomposition",
    "Dilation": "dilation",
    "build_dilation": "dilation",
    "environment_state": "dilation",
    "kolmogorov_vectors": "dilation",
    "BadCount": "errors",
    "BadDiagonal": "errors",
    "BadDimension": "errors",
    "BadTolerance": "errors",
    "DimensionMismatch": "errors",
    "NoDecompositionFound": "errors",
    "NotDistribution": "errors",
    "NotHermitian": "errors",
    "NotPSD": "errors",
    "NotSquare": "errors",
    "NotState": "errors",
    "RecoveryFailure": "errors",
    "SchurMapsError": "errors",
    "SerializationError": "errors",
    "ShapeMismatch": "errors",
    "VerificationFailure": "errors",
    "BoundsReport": "infometrics",
    "EntropyProductionReport": "infometrics",
    "bounds_report": "infometrics",
    "entropy_exchange": "infometrics",
    "entropy_exchange_from_decomposition": "infometrics",
    "entropy_production_check": "infometrics",
    "majorization_check": "infometrics",
    "shannon_entropy": "infometrics",
    "DEFAULT_TOL": "numerics",
    "ToleranceProfile": "numerics",
    "partial_trace_env": "numerics",
    "partial_trace_sys": "numerics",
    "schur_product": "numerics",
    "von_neumann_entropy": "numerics",
}

__all__ = list(_SUBMODULE)


def __getattr__(name):
    """A public name, from its submodule on first access; it is then kept in the
    package's globals, so every later access is a plain lookup."""
    try:
        submodule = _SUBMODULE[name]
    except KeyError:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}") from None
    value = getattr(importlib.import_module(f".{submodule}", __name__), name)
    globals()[name] = value
    return value


def __dir__():
    return sorted(set(globals()) | set(__all__))
