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
    det_levi_civita,
    det_lu,
    haar_orthogonal,
    haar_unitary,
    is_unitary,
    operator_norm,
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
    inverse_qft,
    prepare_power_stages,
    register_probabilities,
    shot_rng,
)

__version__ = "0.1.0"
