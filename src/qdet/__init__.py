"""Exact simulation and classical verification of determinant estimation by phase estimation."""

from .antisym import asym_state, verify_det_identity
from .errors import (
    MatrixParseError,
    QdetError,
    StateTooLargeError,
    ValidationError,
    VerificationError,
)
from .linalg import (
    DetValue,
    block_encode,
    det_levi_civita,
    det_lu,
    haar_orthogonal,
    haar_unitary,
    is_unitary,
    kron_power,
    mat_pow2,
    operator_norm,
    psd_sqrt,
)
from .qde import (
    ContractionResult,
    PhaseEstimate,
    QdeResult,
    SignResult,
    contraction_run,
    magnitude_estimate,
    phase_from_k,
    qde_run,
    sign_run,
)
from .simulator import (
    CostCounters,
    QubitLayout,
    StateVector,
    ancilla_zero_probability,
    controlled_block_stage,
    controlled_power_stage,
    hadamard_layer,
    init_state,
    inverse_qft,
    load_asym,
    measure_ancilla_postselect,
    measure_register,
    prepare_power_stages,
    register_probabilities,
    shot_rng,
    shot_uniforms,
)

__version__ = "0.1.0"
