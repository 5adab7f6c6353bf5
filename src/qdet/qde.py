"""The three determinant-estimation modes and their measurement bookkeeping.

* `qde_run`: phase estimation of arg det(U) for unitary U.
* `sign_run`: the one-qubit variant deciding det(O) = +1 or -1 for
  orthogonal O with certainty.
* `contraction_run`: the block-encoded extension to contractions, with
  per-stage ancilla post-selection and magnitude recovery from the
  acceptance rate.  Its ancillas are not simulated: each stage applies the
  block where its ancilla reads 0, and the state is that branch.  `cli`
  takes the law its acceptance follows from the run's one LU oracle.

Every result carries the exact (non-sampled) distributions alongside the
sampled histograms, because the verification suite asserts exact
probabilities, not just frequencies.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import ValidationError, VerificationError
from .linalg import (
    TWO_PI,
    VALIDATION_TOL,
    as_matrix,
    is_unitary,
    operator_norm,
    stage_powers,
)
from .simulator import (
    _AMPLITUDE_FLOOR,
    _NORM_TOL,
    DEFAULT_QUBIT_CAP,
    CostCounters,
    QubitLayout,
    contraction_block,
    inverse_qft,
    power_pass,
    prepare_power_stages,
    register_probabilities,
    sample_distribution,
)


@dataclass(frozen=True)
class PhaseEstimate:
    """Readout of the phase register: modal value, grid phase, histogram."""

    k_prime: int | None
    t: int
    phi_hat: float | None
    histogram: dict[int, int]
    shots: int

    @classmethod
    def from_counts(cls, counts: dict[int, int], t: int) -> "PhaseEstimate":
        shots = sum(counts.values())
        if not counts:
            return cls(k_prime=None, t=t, phi_hat=None, histogram={}, shots=0)
        best = max(counts.values())
        k_prime = min(k for k, c in counts.items() if c == best)
        return cls(
            k_prime=k_prime,
            t=t,
            phi_hat=phase_from_k(k_prime, t),
            histogram=dict(sorted(counts.items())),
            shots=shots,
        )

    def frequencies(self) -> dict[int, float]:
        if self.shots == 0:
            return {}
        return {k: c / self.shots for k, c in self.histogram.items()}


@dataclass(frozen=True)
class QdeResult:
    phase: PhaseEstimate
    counters: CostCounters
    #: Exact Born distribution of the phase register, indexed by k.
    exact_distribution: np.ndarray


@dataclass(frozen=True)
class SignResult:
    sign: int
    shots: int
    unanimous: bool
    #: Exact probability of the majority outcome; 1.0 for orthogonal input.
    majority_probability: float
    counters: CostCounters


@dataclass(frozen=True)
class ContractionResult:
    """What a contraction run measured; `cli` takes the law it is judged by from its LU oracle."""

    accepted: int
    attempted: int
    acceptance_rate: float
    phase: PhaseEstimate
    magnitude_estimate: float
    #: Product of the exact per-stage ancilla-zero probabilities.
    exact_acceptance: float
    #: Exact phase-register distribution conditioned on all-zero ancillas,
    #: or None when that branch has zero probability.
    exact_conditioned_distribution: np.ndarray | None
    no_accepted_shots: bool
    counters: CostCounters


def phase_from_k(k: int, t: int) -> float:
    """Grid phase 2*pi*k / 2**t read off the phase register."""
    if not 0 <= k < (1 << t):
        raise ValidationError(f"register value {k} outside [0, {1 << t})")
    return TWO_PI * k / (1 << t)


def qde_run(u, t: int, shots: int, seed: int, *, qubit_cap: int = DEFAULT_QUBIT_CAP) -> QdeResult:
    """Full unitary-mode pipeline: estimate arg det(U) to t binary digits."""
    arr = as_matrix(u)
    if not is_unitary(arr, VALIDATION_TOL):
        raise ValidationError("input matrix is not unitary to 1e-9")
    layout = QubitLayout(t=t, n_particles=arr.shape[0], qubit_cap=qubit_cap)
    if shots < 1:
        raise ValidationError(f"need at least one shot, got {shots}")

    sv = prepare_power_stages(layout, stage_powers(arr, t))
    inverse_qft(sv)
    exact = register_probabilities(sv)
    counts = sample_distribution(exact, seed, shots)
    return QdeResult(
        phase=PhaseEstimate.from_counts(counts, t),
        counters=sv.counters,
        exact_distribution=exact,
    )


def sign_run(o, shots: int, seed: int, *, qubit_cap: int = DEFAULT_QUBIT_CAP) -> SignResult:
    """Decide the determinant sign of a real orthogonal matrix.

    Runs the t = 1 circuit (Hadamard, controlled slot-wise O, Hadamard);
    the final qubit reads 0 for det +1 and 1 for det -1 with certainty, so
    any disagreement between shots means the input was not orthogonal
    within tolerance and is reported as an inconsistency.
    """
    arr = as_matrix(o)
    if np.max(np.abs(arr.imag)) > VALIDATION_TOL:
        raise ValidationError("input matrix is not real to 1e-9")
    if not is_unitary(arr, VALIDATION_TOL):
        raise ValidationError("input matrix is not orthogonal to 1e-9")

    result = qde_run(arr, 1, shots, seed, qubit_cap=qubit_cap)
    counts = result.phase.histogram
    unanimous = len(counts) == 1
    if not unanimous:
        raise VerificationError(
            f"sign readout was not unanimous over {shots} shots ({counts}); "
            "the input is not orthogonal within tolerance"
        )
    outcome = result.phase.k_prime
    return SignResult(
        sign=1 if outcome == 0 else -1,
        shots=shots,
        unanimous=unanimous,
        majority_probability=float(np.max(result.exact_distribution)),
        counters=result.counters,
    )


def contraction_run(
    a, t: int, shots: int, seed: int, *, qubit_cap: int = DEFAULT_QUBIT_CAP
) -> ContractionResult:
    """Contraction-mode pipeline with per-stage ancilla post-selection.

    The state is the branch where every stage's ancilla reads 0.  Stage m
    applies `contraction_block`'s clamped A**(2**m) to every slot on the
    control-1 branch and multiplies the control-0 branch by rho_m, |det| of
    that block.  Divided by rho_m**(1/N), the block makes both branches
    divide by rho_m, a scalar that renormalisation drops, and the control-0
    branch the identity, so `power_pass` builds the state as for `qde_run`.
    A stage with rho_m**2 < 1e-300 gets a zero block, the pass's last stage.

    Phase column j is final once stage floor(log2 j) has run, and before
    stage m the state is its first 2**m columns repeated.  So P(0)_m is
    rho_m**2 * prefix[m+1] / (2 * prefix[m]), from the pass's record of the
    squared norms of columns [0, 2**m), summed without BLAS.  Norms past the
    float range are rounding noise, amplified by the 1/rho of near-singular
    stages, and read as P(0) 0.

    A shot is rejected at the first stage whose ancilla reads 1, and an
    accepted one samples the phase register with draw t: `sample_distribution`
    walks the shots in bulk as per-shot reruns of substream (seed, s) would.
    A P(0) below 1e-300 rejects every shot, and the counters book the stages
    up to it.
    """
    arr = as_matrix(a)
    norm = operator_norm(arr)
    if norm > 1.0 + VALIDATION_TOL:
        raise ValidationError(f"not a contraction: operator norm {norm:.12g} > 1")
    layout = QubitLayout(t=t, n_particles=arr.shape[0], qubit_cap=qubit_cap)
    if shots < 1:
        raise ValidationError(f"need at least one shot, got {shots}")

    rhos: list[float] = []

    def scaled_blocks():
        for m, a_m in enumerate(stage_powers(arr, t)):
            block, rho = contraction_block(m, a_m)
            rhos.append(rho)
            yield block * rho ** (-1.0 / layout.n_particles) if rho * rho >= _AMPLITUDE_FLOOR else np.zeros_like(block)

    # A generator: the pass reads it once the state is allocated, before a large t overflows a bound.
    sv, prefix = power_pass(layout, scaled_blocks())
    stage_zero_probs: list[float] = []
    conditioned: np.ndarray | None = None
    for m, rho in enumerate(rhos):
        norm_sq = prefix[m + 1]
        p_zero = float(rho * rho * norm_sq / (2.0 * prefix[m])) if np.isfinite(norm_sq) else 0.0
        if p_zero > 1.0 + _NORM_TOL:  # a contraction cannot add norm
            raise VerificationError(f"stage {m}'s ancilla-0 branch has squared norm {p_zero:.12g} > 1")
        if p_zero < _AMPLITUDE_FLOOR:  # no usable amplitude: every shot is rejected here
            stage_zero_probs.append(0.0)
            sv.counters.controlled_slot_applications = (m + 1) * layout.n_particles
            break
        stage_zero_probs.append(min(p_zero, 1.0))  # rounding can leave P(0) a hair above 1
    else:
        sv.amplitudes /= math.sqrt(prefix[-1])
        inverse_qft(sv)
        conditioned = register_probabilities(sv)

    exact_acceptance = float(np.prod(stage_zero_probs))
    counts = {} if conditioned is None else sample_distribution(conditioned, seed, shots, stage_zero_probs)
    accepted = sum(counts.values())
    return ContractionResult(
        accepted=accepted,
        attempted=shots,
        acceptance_rate=accepted / shots,
        phase=PhaseEstimate.from_counts(counts, t),
        magnitude_estimate=magnitude_estimate(accepted, shots, t),
        exact_acceptance=exact_acceptance,
        exact_conditioned_distribution=conditioned,
        no_accepted_shots=accepted == 0,
        counters=sv.counters,
    )


def magnitude_estimate(accepted: int, attempted: int, t: int) -> float:
    """Invert the all-zeros probability law to recover |det A|.

    The acceptance probability is |det A| raised to 2*(2**t - 1), so the
    empirical rate raised to the reciprocal exponent estimates the magnitude.
    """
    if attempted < 1:
        raise ValidationError(f"attempted count must be positive, got {attempted}")
    if accepted == 0:
        return 0.0
    return (accepted / attempted) ** (1.0 / (2 * ((1 << t) - 1)))


__all__ = [
    "PhaseEstimate",
    "QdeResult",
    "SignResult",
    "ContractionResult",
    "phase_from_k",
    "qde_run",
    "sign_run",
    "contraction_run",
    "magnitude_estimate",
]
