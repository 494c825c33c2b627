"""Witnessed-entanglement quantifiers and superposition bounds for qubit registers."""

__version__ = "0.1.0"

from .linops import (
    HermOp,
    Partition,
    is_psd,
    neg_eigenspace_projector,
    operator_norm,
    part,
    partial_transpose,
    single_cut_partitions,
)
from .qstate import (
    Ket,
    Register,
    RegisterMismatchError,
    SuperposCoeffs,
    basis_ket,
    density,
    ghz,
    qubit_register,
    superpose,
)
from .quantifiers import (
    QuantifierConfig,
    RobustnessBounds,
    mix,
    negativity,
    ppt_check,
    rg_bounds_pure,
    rg_lower_via_witness,
    rg_lower_pure,
    rg_ppt_sdp,
    rg_upper_pure,
    rg_upper_via_mixing,
    separability_certificate_diagonal,
)
from .sdpcore import SdpProblem, SdpSolution, SolverFailureError, build_robustness_sdp, check_certificate, solve
from .supbound import (
    BoundReport,
    BoundViolationError,
    SaturationFailureError,
    SweepSummary,
    check_bound_k,
    check_bound_negativity,
    ghz_saturation_experiment,
    random_sweep,
    rhs_from_witness,
)
from .witnesses import (
    ProductSearchConfig,
    Witness,
    WitnessClassError,
    eval_witness,
    ghz_witness,
    max_product_overlap,
    negativity_optimal_witness,
    witness_k,
    zero_witness,
)
