"""schurmaps: decoherence channels as Schur-product maps.

Correlation-matrix channels, their unitary dilations, random-unitary
decompositions, environment-assisted correction (including the
d-dimensional quantum eraser), and the information-flow bounds relating
them. All entropies are in bits.
"""

from .channels import (
    CorrelationMatrix,
    DensityMatrix,
    SchurChannel,
    apply_heisenberg,
    apply_schrodinger,
    asymptotic_state,
    choi_operator,
    iterate,
    jamiolkowski_operator,
    validate_correlation,
)
from .correction import (
    CorrectionOutcomeRecord,
    EnvPovm,
    EraserScenario,
    ScreenPattern,
    dilation_from_decomposition,
    eraser_scenario,
    run_correction,
    run_eraser,
    screen_pattern,
    which_way_readout,
)
from .decomposition import (
    ExtremalityResult,
    ExtremalityVerdict,
    FlatDecomposition,
    SearchConfig,
    VerificationReport,
    decompose,
    decompose_identity_xi,
    decompose_qubit,
    extremality_test,
    flat_search,
    reconstruct_xi,
    verify_decomposition,
)
from .dilation import Dilation, build_dilation, environment_state, kolmogorov_vectors
from .errors import (
    BadCount,
    BadDiagonal,
    BadDimension,
    BadTolerance,
    DimensionMismatch,
    NoDecompositionFound,
    NotDistribution,
    NotHermitian,
    NotPSD,
    NotSquare,
    NotState,
    RecoveryFailure,
    SchurMapsError,
    SerializationError,
    ShapeMismatch,
    VerificationFailure,
)
from .infometrics import (
    BoundsReport,
    EntropyProductionReport,
    bounds_report,
    entropy_exchange,
    entropy_exchange_from_decomposition,
    entropy_production_check,
    majorization_check,
    shannon_entropy,
)
from .numerics import (
    DEFAULT_TOL,
    HermitianEigenResult,
    ToleranceProfile,
    hermitian_eig,
    partial_trace_env,
    partial_trace_sys,
    schur_product,
    von_neumann_entropy,
)

__version__ = "0.1.0"
