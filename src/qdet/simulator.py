"""Exact dense state-vector simulator over the phase / slot / ancilla registers.

Qubit layout (little-endian: qubit q is bit q of the flat amplitude index):

* phase register ("reg 1"): qubits [0, t); its integer value is j.
* slot register ("reg 2"): N slots of n = log2(N) qubits each; slot s
  occupies qubits [t + s*n, t + (s+1)*n) and stores one label in binary.
* ancilla register: qubits [t + N*n, t + N*n + ancilla_count).

The combined slot-register value is r = sum_s label_s * N**s, so the flat
index decomposes as  j + 2**t * r + 2**(t + N*n) * ancilla_value.

Gates that act on phase qubit m split the phase index as (above m, bit m,
below m): the flat amplitudes reshape for free to (ancilla_dim, slot_dim,
2**(t-m-1), 2, 2**m), whose [..., 0, :] and [..., 1, :] are basic-slicing
views of the bit-m = 0 and bit-m = 1 halves.  The Hadamard layer, the
controlled stages and the ancilla measurement write into the existing
amplitude buffer; `inverse_qft` and `qft` bind a new one to
``sv.amplitudes``.  Every gate returns the StateVector, which a run owns
exclusively.  Shot sampling uses one counter-based RNG substream per shot
(Philox keyed by (seed, shot)), so histograms are independent of shot
evaluation order.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .antisym import AsymState, asym_state
from .errors import StateTooLargeError, ValidationError, VerificationError
from .linalg import as_matrix, is_unitary

#: Register identifiers accepted by `measure_register`.
REG_PHASE = "phase"
REG_SLOTS = "slots"
REG_ANCILLA = "ancilla"

DEFAULT_QUBIT_CAP = 26

_NORM_TOL = 1e-10
_U64 = (1 << 64) - 1


@dataclass(frozen=True)
class QubitLayout:
    """Partition of the simulated qubits into the three registers."""

    t: int
    n_particles: int
    ancilla_count: int = 0
    qubit_cap: int = DEFAULT_QUBIT_CAP

    def __post_init__(self):
        if self.t < 1:
            raise ValidationError(f"phase register needs at least 1 qubit, got t={self.t}")
        n = self.n_particles
        if n < 2 or n & (n - 1) != 0:
            raise ValidationError(
                f"slot encoding requires the particle count to be a power of two >= 2, got {n}"
            )
        if self.ancilla_count not in (0, self.t):
            raise ValidationError(
                f"ancilla register must hold 0 or t qubits, got {self.ancilla_count} with t={self.t}"
            )
        if self.total_qubits > self.qubit_cap:
            raise StateTooLargeError(
                f"layout needs {self.total_qubits} qubits "
                f"(t={self.t} + {n}*{self.bits_per_slot} slots + {self.ancilla_count} ancillas), "
                f"exceeding the cap of {self.qubit_cap}"
            )

    @property
    def bits_per_slot(self) -> int:
        return self.n_particles.bit_length() - 1

    @property
    def total_qubits(self) -> int:
        return self.t + self.n_particles * self.bits_per_slot + self.ancilla_count

    @property
    def slot_dim(self) -> int:
        """Dimension of the combined slot register, N**N."""
        return self.n_particles**self.n_particles

    @property
    def phase_dim(self) -> int:
        return 1 << self.t

    @property
    def ancilla_dim(self) -> int:
        return 1 << self.ancilla_count


@dataclass
class CostCounters:
    """Tallies of the gate-model accounting for one run."""

    controlled_slot_applications: int = 0
    modeled_orthonorm_ops: int = 0
    modeled_asym_ops: int = 0
    modeled_qft_ops: int = 0
    modeled_inv_qft_ops: int = 0

    def as_dict(self) -> dict[str, int]:
        return {
            "controlled_slot_applications": self.controlled_slot_applications,
            "modeled_orthonorm_ops": self.modeled_orthonorm_ops,
            "modeled_asym_ops": self.modeled_asym_ops,
            "modeled_qft_ops": self.modeled_qft_ops,
            "modeled_inv_qft_ops": self.modeled_inv_qft_ops,
        }


@dataclass
class StateVector:
    """Amplitudes over the full register space plus the run's counters."""

    layout: QubitLayout
    amplitudes: np.ndarray
    counters: CostCounters = field(default_factory=CostCounters)

    def norm_sq(self) -> float:
        return float(np.sum(np.abs(self.amplitudes) ** 2))


def init_state(layout: QubitLayout) -> StateVector:
    """All-zeros computational basis state for the given layout."""
    amps = np.zeros(1 << layout.total_qubits, dtype=np.complex128)
    amps[0] = 1.0
    return StateVector(layout=layout, amplitudes=amps)


def slot_register_vector(state: AsymState, layout: QubitLayout) -> np.ndarray:
    """Dense slot-register vector (length N**N) for a sparse labeled state."""
    n = layout.n_particles
    if state.n_particles != n:
        raise ValidationError(
            f"state has {state.n_particles} slots but the layout encodes {n}"
        )
    vec = np.zeros(layout.slot_dim, dtype=np.complex128)
    weights = [n**s for s in range(n)]
    for labels, amp in state.amplitudes.items():
        vec[sum(l * w for l, w in zip(labels, weights))] = amp
    return vec


def load_asym(sv: StateVector, state: AsymState) -> StateVector:
    """Write the antisymmetric state into the slot register.

    Requires the freshly initialized all-zeros basis state.  The modeled
    orthonormalization and antisymmetrization costs are booked to the
    counters; the amplitudes themselves are assigned directly.
    """
    vec = slot_register_vector(state, sv.layout)
    amps = sv.amplitudes
    if abs(amps[0] - 1.0) > 1e-12 or np.max(np.abs(amps[1:])) > 1e-12:
        raise ValidationError("load_asym requires the freshly initialized all-zeros state")
    view = _grouped_view(sv)
    view[:] = 0.0
    view[0, :, 0] = vec
    n = sv.layout.n_particles
    log2n = math.log2(n)
    sv.counters.modeled_orthonorm_ops += max(n, math.ceil(n * math.log2(n / math.e)))
    sv.counters.modeled_asym_ops += math.ceil(n * log2n**2)
    _assert_normalized(sv)
    return sv


def hadamard_layer(sv: StateVector) -> StateVector:
    """Hadamard on every phase-register qubit (the QFT of the |0> state)."""
    t = sv.layout.t
    inv_sqrt2 = 1.0 / math.sqrt(2.0)
    for m in range(t):
        view = _phase_bit_view(sv, m)
        a = view[..., 0, :]
        b = view[..., 1, :]
        total = a + b
        np.subtract(a, b, out=b)
        b *= inv_sqrt2
        np.multiply(total, inv_sqrt2, out=a)
    sv.counters.modeled_qft_ops += t
    _assert_normalized(sv)
    return sv


def controlled_power_stage(sv: StateVector, m: int, u_m: np.ndarray) -> StateVector:
    """Apply u_m to each slot, conditioned on phase-register qubit m being 1.

    ``u_m`` is expected to be the 2**m-th power of the base operator,
    precomputed by repeated squaring.  The N slot applications happen
    sequentially and are tallied individually, making the t*N operation
    count of a full run literal.
    """
    layout = sv.layout
    arr = as_matrix(u_m)
    if m < 0 or m >= layout.t:
        raise ValidationError(f"stage index {m} outside phase register of {layout.t} qubits")
    if arr.shape[0] != layout.n_particles:
        raise ValidationError(
            f"stage operator is {arr.shape[0]}x{arr.shape[0]}, slots hold {layout.n_particles} labels"
        )
    # Slot s is base-N digit s of the slot index.  With that index innermost,
    # each matmul over a (rest, N) reshape applies u_m to the next slot and
    # moves it to the front; after N steps the slot index leads, in order.
    # One matmul over all of the rest also rounds every amplitude alike: BLAS
    # rounds a matrix's columns past its last full tile differently, and a
    # batched (before, N, after) matmul would have such a tail in every batch.
    n = layout.n_particles
    on = _phase_bit_view(sv, m)[..., 1, :]
    sub = np.ascontiguousarray(np.moveaxis(on, 1, -1))
    for _ in range(n):
        sub = arr @ sub.reshape(-1, n).T
        sv.counters.controlled_slot_applications += 1
    on[...] = np.moveaxis(sub.reshape((layout.slot_dim, layout.ancilla_dim) + on.shape[2:]), 0, 1)
    _assert_normalized(sv)
    return sv


def inverse_qft(sv: StateVector) -> StateVector:
    """Exact inverse Fourier transform on the phase register.

    Convention: the forward QFT maps |j> to 2**(-t/2) sum_k exp(2i pi jk/2**t)|k>,
    so the inverse is the unitary DFT with the negative-sign kernel.
    """
    t = sv.layout.t
    flat = sv.amplitudes.reshape(-1, 1 << t)
    sv.amplitudes = np.ascontiguousarray(np.fft.fft(flat, axis=1, norm="ortho")).reshape(-1)
    sv.counters.modeled_inv_qft_ops += t * (t + 1) // 2
    _assert_normalized(sv)
    return sv


def qft(sv: StateVector) -> StateVector:
    """Forward QFT on the phase register; adjoint of `inverse_qft`.

    Round-trip helper for tests; not part of the costed pipeline, so no
    counters move.
    """
    t = sv.layout.t
    flat = sv.amplitudes.reshape(-1, 1 << t)
    sv.amplitudes = np.ascontiguousarray(np.fft.ifft(flat, axis=1, norm="ortho")).reshape(-1)
    _assert_normalized(sv)
    return sv


def register_probabilities(sv: StateVector, which: str) -> np.ndarray:
    """Exact Born distribution of one register, marginalizing the others."""
    grouped = _grouped_view(sv)
    probs = np.abs(grouped) ** 2
    if which == REG_PHASE:
        return probs.sum(axis=(0, 1))
    if which == REG_SLOTS:
        return probs.sum(axis=(0, 2))
    if which == REG_ANCILLA:
        return probs.sum(axis=(1, 2))
    raise ValidationError(f"unknown register {which!r}; expected phase/slots/ancilla")


def measure_register(sv: StateVector, which: str, rng_seed: int, shots: int) -> dict[int, int]:
    """Sample the register's Born distribution ``shots`` times.

    Non-destructive: every shot resamples the same final state.  Shot s
    draws from substream (rng_seed, s), so results do not depend on
    evaluation order.
    """
    if shots < 1:
        raise ValidationError(f"need at least one shot, got {shots}")
    return sample_distribution(register_probabilities(sv, which), rng_seed, shots)


def sample_distribution(probs: np.ndarray, rng_seed: int, shots: int) -> dict[int, int]:
    """Histogram of ``shots`` draws from ``probs``; shot s uses substream (rng_seed, s)."""
    cumulative = np.cumsum(probs)
    counts: dict[int, int] = {}
    top = len(cumulative) - 1
    for shot in range(shots):
        u = shot_rng(rng_seed, shot).random()
        outcome = min(int(np.searchsorted(cumulative, u, side="right")), top)
        counts[outcome] = counts.get(outcome, 0) + 1
    return counts


def ancilla_zero_probability(sv: StateVector, ancilla_index: int) -> float:
    """Exact Born probability that the given ancilla qubit reads 0."""
    layout = sv.layout
    if not 0 <= ancilla_index < layout.ancilla_count:
        raise ValidationError(
            f"ancilla index {ancilla_index} outside register of {layout.ancilla_count}"
        )
    split = _ancilla_split_view(sv, ancilla_index)
    return float(np.sum(np.abs(split[:, 0]) ** 2))


def measure_ancilla_postselect(
    sv: StateVector, ancilla_index: int, u: float
) -> tuple[int, StateVector, float]:
    """Projective mid-circuit measurement of one ancilla qubit.

    ``u`` is the caller's uniform draw in [0, 1); the outcome is 0 when
    u < P(0).  Returns (outcome, collapsed renormalized state, exact Born
    probability of that outcome).
    """
    layout = sv.layout
    if not 0 <= ancilla_index < layout.ancilla_count:
        raise ValidationError(
            f"ancilla index {ancilla_index} outside register of {layout.ancilla_count}"
        )
    split = _ancilla_split_view(sv, ancilla_index)
    p0 = float(np.sum(np.abs(split[:, 0]) ** 2))
    p1 = float(np.sum(np.abs(split[:, 1]) ** 2))
    if p0 + p1 < 1e-12:
        raise ValidationError("ancilla measurement on a numerically zero state")
    outcome = 0 if u < p0 else 1
    p_outcome = p0 if outcome == 0 else p1
    if p_outcome < 1e-300:
        raise ValidationError("selected measurement branch has numerically zero probability")
    split[:, 1 - outcome] = 0.0
    sv.amplitudes /= math.sqrt(p_outcome)
    return outcome, sv, p_outcome


def controlled_block_stage(sv: StateVector, m: int, v_m: np.ndarray) -> StateVector:
    """One contraction-mode stage: block-encoded slot operator plus its ancilla.

    ``v_m`` must be the one-ancilla block encoding of the full slot-space
    operator (the stage contraction applied to every slot), with the
    antisymmetric state an eigenvector of its top-left block.  Conditioned on
    phase-register qubit m = 1 the encoding acts jointly on the slot register
    and ancilla m; on the control-0 branch the ancilla undergoes the
    magnitude-matched encoding of rho*I, where rho is the modulus of that
    eigenvalue.  The compensation makes the ancilla-0 amplitude damping
    branch-independent, so P(ancilla m reads 0) = rho**2 exactly and the
    post-selected phase-register amplitudes keep uniform magnitude -- the
    property the product formula for the all-zeros probability and the exact
    post-selected phase readout both rest on.
    """
    layout = sv.layout
    arr = as_matrix(v_m)
    d = layout.slot_dim
    if m < 0 or m >= layout.t:
        raise ValidationError(f"stage index {m} outside phase register of {layout.t} qubits")
    if layout.ancilla_count <= m:
        raise ValidationError(f"layout has {layout.ancilla_count} ancillas; stage {m} needs one")
    if arr.shape[0] != 2 * d:
        raise ValidationError(
            f"block stage operator must act on slot space + 1 ancilla (dim {2 * d}), got {arr.shape[0]}"
        )
    if not is_unitary(arr, 1e-9):
        raise ValidationError("block stage operator is not unitary to 1e-9")

    top_left = arr[:d, :d]
    asym_vec = slot_register_vector(_asym_cache(layout.n_particles), layout)
    image = top_left @ asym_vec
    eigenvalue = complex(np.vdot(asym_vec, image))
    if np.linalg.norm(image - eigenvalue * asym_vec) > 1e-9:
        raise ValidationError(
            "antisymmetric state is not an eigenvector of the encoded block; "
            "expected a slot-wise (tensor power) operator"
        )
    rho = min(abs(eigenvalue), 1.0)
    leak_sq = max(0.0, 1.0 - rho * rho)
    # A leak below the eigenvalue noise floor means the encoded operator is
    # unitary; keep the compensation branch exactly leak-free instead of
    # sqrt-amplifying rounding noise.
    if leak_sq < 1e-11:
        rho, leak = 1.0, 0.0
    else:
        leak = math.sqrt(leak_sq)

    # The ancilla register holds t qubits, so ancilla bit m and phase bit m
    # split their registers alike: (above m, bit m, below m).
    hi, lo = 1 << (layout.t - m - 1), 1 << m
    split = sv.amplitudes.reshape(hi, 2, lo, d, hi, 2, lo)

    on = split[..., 1, :]
    joint = on.transpose(0, 2, 4, 5, 1, 3).reshape(hi, lo, hi * lo, 2 * d) @ arr.T
    on[...] = joint.reshape(hi, lo, hi, lo, 2, d).transpose(0, 4, 1, 5, 2, 3)

    off = split[..., 0, :]
    b0 = rho * off[:, 0] + leak * off[:, 1]
    b1 = leak * off[:, 0] - rho * off[:, 1]
    off[:, 0] = b0
    off[:, 1] = b1

    sv.counters.controlled_slot_applications += layout.n_particles
    _assert_normalized(sv)
    return sv


def asym_fidelity(sv: StateVector, state: AsymState) -> float:
    """Probability weight of the slot register's antisymmetric component."""
    vec = slot_register_vector(state, sv.layout)
    overlaps = np.tensordot(vec.conj(), _grouped_view(sv), axes=([0], [1]))
    return float(np.sum(np.abs(overlaps) ** 2))


def shot_rng(seed: int, shot: int) -> np.random.Generator:
    """Counter-based substream for one shot; order-independent across shots."""
    key = np.array([seed & _U64, shot & _U64], dtype=np.uint64)
    return np.random.Generator(np.random.Philox(key=key))


def _grouped_view(sv: StateVector) -> np.ndarray:
    """View shaped (ancilla_dim, slot_dim, phase_dim)."""
    lay = sv.layout
    return sv.amplitudes.reshape(lay.ancilla_dim, lay.slot_dim, lay.phase_dim)


def _ancilla_split_view(sv: StateVector, ancilla_index: int) -> np.ndarray:
    """View (above, 2, below, slot_dim, phase_dim) isolating one ancilla bit."""
    lay = sv.layout
    hi = 1 << (lay.ancilla_count - 1 - ancilla_index)
    lo = 1 << ancilla_index
    return sv.amplitudes.reshape(hi, 2, lo, lay.slot_dim, lay.phase_dim)


def _phase_bit_view(sv: StateVector, m: int) -> np.ndarray:
    """View (ancilla_dim, slot_dim, 2**(t-m-1), 2, 2**m) isolating phase bit m."""
    lay = sv.layout
    return sv.amplitudes.reshape(lay.ancilla_dim, lay.slot_dim, 1 << (lay.t - m - 1), 2, 1 << m)


_ASYM_CACHE: dict[int, AsymState] = {}


def _asym_cache(n: int) -> AsymState:
    state = _ASYM_CACHE.get(n)
    if state is None:
        state = _ASYM_CACHE[n] = asym_state(n)
    return state


def _assert_normalized(sv: StateVector) -> None:
    drift = abs(sv.norm_sq() - 1.0)
    if drift > _NORM_TOL:
        raise VerificationError(f"state norm drifted by {drift:.3e} after a gate")
