"""Exact simulation and classical verification of determinant estimation by phase estimation."""

import os

# Before numpy loads OpenBLAS, which reads this once: its idle pool threads
# then sleep after 2**4 polling cycles instead of spinning through about
# 2**28, which otherwise takes a CPU from the run's own workers for its
# first 60-90 ms.  Only how idle threads wait changes, never a result; a
# value already set is kept, and nothing changes if numpy is already loaded.
os.environ.setdefault("OPENBLAS_THREAD_TIMEOUT", "4")

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
