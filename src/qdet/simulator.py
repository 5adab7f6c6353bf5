"""Exact dense state-vector simulator over the phase / slot registers.

Qubit layout (little-endian: qubit q is bit q of the flat amplitude index):

* phase register ("reg 1"): qubits [0, t); its integer value is j.
* slot register ("reg 2"): N slots of n = log2(N) qubits each; slot s
  occupies qubits [t + s*n, t + (s+1)*n) and stores one label in binary.

There is no ancilla register: contraction mode keeps only the branch where a
stage's ancilla reads 0, so the state is that branch.

The combined slot-register value is r = sum_s label_s * N**s, so the flat
index decomposes as  j + 2**t * r.

Every run builds its state and applies its t controlled stages in one pass,
`power_pass`, each stage one N x N matrix applied slot by slot, never a
dense slot-space matrix: the powers of U for a unitary or sign run, through
the norm checks of `prepare_power_stages`; each stage's `contraction_block`
divided by rho**(1/N) for a contraction run (see `qde.contraction_run`).
The per-stage gates, `init_state`, `load_asym`, `hadamard_layer`,
`controlled_power_stage`, `controlled_block_stage` and
`measure_ancilla_postselect`, run the same circuit one stage at a time; no
run calls them, and the tests keep them as the pass's reference.

Stage m applies its matrix to the columns with bit m set (`_bit_columns`):
every other run of 2**m columns.  Phase column j ends as column 0, which
holds the slot column scaled t times by 1/sqrt(2), with the stages of j's
set bits applied in increasing order.  Before stage m, phase qubit m is in
|+>, so the columns with bit m set equal those with it clear.  So the pass
writes a seed of copies of column 0 (`_seed_width`), and stage m writes its
matrix applied to the bit-m-clear columns built so far into the bit-m-set
ones (`power_pass`).  Every step is one job, `_stage`: one `_slot_matmuls`
call over a run of at most a block's width of source columns, written to a
destination; a block is every slot value by a power-of-two run of phase
columns, about `_BLOCK_BYTES` in all (`_block_width`).  A per-stage gate is
one `_stage` over all of its stage's columns, in place.  `_slot_matmuls`
copies its columns into scratch in row order before it transposes them
there.  Every column gets the same N-term sums, in stage order, either way,
so the pass is bit-exact with `init_state`, `load_asym`, `hadamard_layer`
and t `controlled_power_stage` calls.  Every matmul of the pass has a
column count that is a whole number of `_GEMM_TILE`s, or spans a whole
stage's columns, so the blocking and the data movement change no
arithmetic, and amplitudes are bit-exact for any block size.  One limit: a
job takes every slot value, so when one phase column exceeds a block
(N = 8) a job is one column, and its matmuls take two buffers of that
column's size.

The phase distribution works through the state in blocks of about
`_BLOCK_BYTES` too, on up to two workers (`register_probabilities`).
`hadamard_layer` writes one scaled column into every phase column.  Every
gate, `inverse_qft` included, writes into the existing amplitude buffer,
and returns the StateVector, which a run owns exclusively.

One dealer, `_deal`, runs every blocked kernel on up to `_MAX_WORKERS`
threads, the caller and helpers it joins before returning; numpy releases
the interpreter lock in the copies, matmuls, FFTs and sums.  A kernel hands
it levels of block jobs.  Worker w takes jobs w, w + step, ... of each
level, and the workers meet at one barrier between levels, since a level
reads the blocks the levels before it wrote.  The blocks are disjoint and
each runs the same arithmetic on whichever thread takes it, so amplitudes
are bit-exact for any worker count.  The pass has one level per stage, a
job per block-wide run of the columns it writes; `inverse_qft`'s one level
is a job per half of the slot rows, or one job when the state fits in a
block; `register_probabilities`' one level is a job per half of the phase
columns, or one job when the state fits in a block or a half would be one
column, which numpy would sum pairwise rather than row by row.  The pass's
helpers run only while OpenBLAS is held at one thread (`_blas_serial`, for
that call alone): its own threads would oversubscribe the cores.  Each
`_stage` returns the squared norm of what it wrote, summed while it is in
cache, without BLAS (`_norm_sq`); `_deal` hands the values back by level,
and the pass adds each level's sum to one record of prefix norms, from
which every mode takes its per-stage norms: the norm checks of
`prepare_power_stages` and contraction's P(0).

Shot s reads its uniform draws from its own counter-based substream,
`shot_rng(seed, s)` (Philox4x64-10 keyed by (seed, s)), so histograms do not
depend on shot evaluation order.  The draws are not generated one shot at a
time: one numpy kernel, `_philox_words`, evaluates a word block (four draws)
for an array of shots at once, and gives the same words, bit for bit, as
those per-shot substreams.  Sampling takes the shots in chunks of
`_SHOT_CHUNK`, so its memory does not grow with the shot count.  Within a
chunk it draws block by block and keeps only the shots that survived every
post-selection draw so far, so a shot's later blocks are computed only when
it can still use them.
"""

from __future__ import annotations

import contextlib
import ctypes
import functools
import math
import os
import threading
from collections.abc import Callable, Iterable, Sequence
from dataclasses import asdict, dataclass, field

import numpy as np
import numpy.fft  # numpy loads it lazily; pay that at import, not in the first inverse_qft

from .antisym import asym_state
from .errors import StateTooLargeError, ValidationError, VerificationError
from .linalg import VALIDATION_TOL, as_matrix

DEFAULT_QUBIT_CAP = 26

_NORM_TOL = 1e-10
_AMPLITUDE_FLOOR = 1e-300  # a squared norm or P(0) below this has no usable amplitude
_LEAK_SNAP = 1e-11  # 1 - rho**2 below this is rounding noise: rho snaps to 1
_U64 = (1 << 64) - 1
#: Shots sampled per chunk: bounds sampling memory for any shot count.  Picked
#: by two interleaved in-process sweeps of `sample_distribution` on the contract
#: workload's probabilities (2e4 shots, 6 stages), 60 rounds each on a 2-CPU
#: host: medians 11.3 / 17.2, 9.2 / 12.7, 6.9 / 10.1, 8.1 / 11.5 and 7.8 / 10.9 ms
#: at 2,048, 4,096, 8,192, 16,384 and 32,768 shots.
_SHOT_CHUNK = 1 << 13
_INV_SQRT2 = 1.0 / math.sqrt(2.0)
_AMP_BYTES = 16  # complex128

#: Amplitude bytes a blocked kernel works on at a time; every scratch buffer of
#: such a kernel is at most this size (the slot-wise matmuls take two) unless a
#: single slot-wise block is larger (see the module docstring).  Picked by a
#: sweep of 256 KiB to 16 MiB on the qde-phase (64 MiB state) and contract
#: (then 16 MiB, with one ancilla per stage) benchmark workloads on a 2-CPU
#: host with 2 MiB of L2 per core: 512 KiB had the lowest median run time on
#: both, and 4 MiB or more made contract slower than unblocked kernels.
_BLOCK_BYTES = 1 << 19

#: Most threads a blocked kernel runs on.  Two is what was measured, on a
#: 2-CPU host; each thread holds two block-sized scratch buffers.
_MAX_WORKERS = 2

#: The pass's slot-wise matmuls get column counts that are multiples of this.
#: BLAS rounds a matrix's trailing columns past its last full tile differently
#: (OpenBLAS's x86-64 zgemm tile is 4 columns), so a job with no partial tile
#: rounds every column as the matmul over a whole stage's columns does.
_GEMM_TILE = 16

# Philox4x64-10 (Salmon et al., SC'11), as numpy's Philox bit generator runs it:
# the round multipliers of counter words 0 and 2, whole and in 32-bit halves, and
# the Weyl bumps of key words 0 and 1, as columns against a (2, shots) lane pair.
_LO32 = np.uint64(0xFFFFFFFF)
_SHIFT32 = np.uint64(32)
_PHILOX_M = np.array([[0xD2E7470EE14C6C93], [0xCA5A826395121157]], dtype=np.uint64)
_PHILOX_M_LO = _PHILOX_M & _LO32
_PHILOX_M_HI = _PHILOX_M >> _SHIFT32
_PHILOX_W = np.array([[0x9E3779B97F4A7C15], [0xBB67AE8584CAA73B]], dtype=np.uint64)
_PHILOX_ROUNDS = 10


@dataclass(frozen=True)
class QubitLayout:
    """Partition of the simulated qubits into the phase and slot registers."""

    t: int
    n_particles: int
    qubit_cap: int = DEFAULT_QUBIT_CAP

    def __post_init__(self):
        if self.t < 1:
            raise ValidationError(f"phase register needs at least 1 qubit, got t={self.t}")
        n = self.n_particles
        if n < 2 or n & (n - 1) != 0:
            raise ValidationError(
                f"slot encoding requires the particle count to be a power of two >= 2, got {n}"
            )
        if self.total_qubits > self.qubit_cap:
            raise StateTooLargeError(
                f"layout needs {self.total_qubits} qubits "
                f"(t={self.t} + {n}*{self.bits_per_slot} slots), "
                f"exceeding the cap of {self.qubit_cap}"
            )

    @property
    def bits_per_slot(self) -> int:
        return self.n_particles.bit_length() - 1

    @property
    def total_qubits(self) -> int:
        return self.t + self.n_particles * self.bits_per_slot

    @property
    def slot_dim(self) -> int:
        """Dimension of the combined slot register, N**N."""
        return self.n_particles**self.n_particles

    @property
    def phase_dim(self) -> int:
        return 1 << self.t


@dataclass
class CostCounters:
    """Tallies of the gate-model accounting for one run."""

    controlled_slot_applications: int = 0
    modeled_orthonorm_ops: int = 0
    modeled_asym_ops: int = 0
    modeled_qft_ops: int = 0
    modeled_inv_qft_ops: int = 0

    def as_dict(self) -> dict[str, int]:
        return asdict(self)


@dataclass
class StateVector:
    """Amplitudes over the full register space plus the run's counters."""

    layout: QubitLayout
    amplitudes: np.ndarray
    counters: CostCounters = field(default_factory=CostCounters)

    def norm_sq(self) -> float:
        return float(np.vdot(self.amplitudes, self.amplitudes).real)


def init_state(layout: QubitLayout) -> StateVector:
    """All-zeros computational basis state for the given layout.

    StateTooLargeError is raised when numpy refuses the allocation.
    """
    amps = _new_amplitudes(layout, np.zeros)
    amps[0] = 1.0
    return StateVector(layout=layout, amplitudes=amps)


def slot_register_vector(state: np.ndarray, layout: QubitLayout) -> np.ndarray:
    """Slot-register vector (length N**N) of a dense (N,)*N slot tensor, indexed by r.

    Entry r = sum_s label_s * N**s is ``state[label_0, ..., label_{N-1}]``:
    the tensor's Fortran-order ravel, a view for the Fortran-ordered
    `asym_state`.
    """
    n = layout.n_particles
    if state.shape != (n,) * n:
        raise ValidationError(f"slot tensor has shape {state.shape}, the layout encodes {n} slots of {n} labels")
    return state.reshape(-1, order="F")


def load_asym(sv: StateVector, state: np.ndarray) -> StateVector:
    """Write a slot tensor, such as `asym_state`, into phase column 0 of the slot register.

    Requires the freshly initialized all-zeros basis state: amplitude 0
    within 1e-12 of 1, and the others of squared norm at most 1e-24.  Only
    phase column 0 is written.  The modeled orthonormalization and
    antisymmetrization costs are booked to the counters; the amplitudes
    themselves are assigned directly.  Runs build their state in
    `power_pass`, whose reference this is.
    """
    amps = sv.amplitudes
    if abs(amps[0] - 1.0) > 1e-12 or _norm_sq(amps[1:]) > 1e-24:
        raise ValidationError("load_asym requires the freshly initialized all-zeros state")
    amps.reshape(-1, sv.layout.phase_dim)[:, 0] = slot_register_vector(state, sv.layout)
    _book_asym(sv.counters, sv.layout.n_particles)
    _assert_normalized(sv.norm_sq(), "load_asym")
    return sv


def _book_asym(counters: CostCounters, n: int) -> None:
    """Book the modeled orthonormalization and antisymmetrization costs of loading |asym> on n labels."""
    counters.modeled_orthonorm_ops += max(n, math.ceil(n * math.log2(n / math.e)))
    counters.modeled_asym_ops += math.ceil(n * math.log2(n) ** 2)


def hadamard_layer(sv: StateVector) -> StateVector:
    """Hadamard on every phase qubit of a state whose phase register is |0>.

    Every butterfly then pairs (v, 0), and v +- 0 = v exactly, so each phase
    column of the result is phase column 0 scaled t times by 1/sqrt(2),
    rounded after each step: the layer scales a copy of column 0 and writes
    it into every column.  When column 0's squared norm is more than 1e-10
    from 1, ValidationError is raised before anything is written.  Runs
    build their state in `power_pass`, whose reference this is.
    """
    rows = sv.amplitudes.reshape(-1, sv.layout.phase_dim)
    column = rows[:, 0].copy()
    weight = float(np.vdot(column, column).real)
    if abs(weight - 1.0) > _NORM_TOL:
        raise ValidationError(f"hadamard_layer: phase register not |0> (column 0 weight {weight:.12g})")
    for _ in range(sv.layout.t):
        column *= _INV_SQRT2
    rows[...] = column[:, None]
    sv.counters.modeled_qft_ops += sv.layout.t
    _assert_normalized(sv.norm_sq(), "hadamard_layer")
    return sv


def controlled_power_stage(sv: StateVector, m: int, u_m: np.ndarray) -> StateVector:
    """Apply u_m to each slot, conditioned on phase-register qubit m being 1.

    ``u_m`` is expected to be the 2**m-th power of the base operator,
    precomputed by repeated squaring.  The N slot applications happen
    sequentially and each is tallied, making the t*N operation count of a
    full run literal.  Runs take their stages from `power_pass`, whose
    reference this is; its norm check reads the whole state.
    """
    u = _stage_operator(sv.layout, m, u_m)
    part = _bit_columns(sv.amplitudes.reshape(sv.layout.slot_dim, -1), m)
    _stage(u, part, part, np.empty((2, part.size), dtype=np.complex128))
    sv.counters.controlled_slot_applications += sv.layout.n_particles
    _assert_normalized(sv.norm_sq(), f"controlled_power_stage m={m}")
    return sv


def prepare_power_stages(layout: QubitLayout, powers: Iterable) -> StateVector:
    """|+>^t |asym> with the t controlled-power stages applied by `power_pass`, norm-checked.

    ``powers`` gives stage m's operator, U**(2**m).  Amplitudes and counters
    equal those of the per-stage gates (see the module docstring).

    The norm checks read the pass's record, not the state: after stage m
    of the per-stage gates the state is its first 2**(m+1) phase columns
    repeated, so its squared norm is (phase_dim >> (m+1)) * prefix[m+1].
    The checks run in stage order after the pass, so a drift still names
    the stage it arose in.
    """
    sv, prefix = power_pass(layout, powers)
    for m, norm_sq in enumerate(prefix):
        gate = f"controlled_power_stage m={m - 1}" if m else "state preparation"
        _assert_normalized(float((layout.phase_dim >> m) * norm_sq), gate)
    return sv


def power_pass(layout: QubitLayout, operators: Iterable) -> tuple[StateVector, np.ndarray]:
    """|+>^t |asym> with its controlled stages applied, in one blocked pass over a new state; no norm check.

    Stage m applies the m-th N x N of ``operators`` to every slot of the
    phase columns with bit m set.  ``operators`` is read after the state is
    allocated, so a refused state is reported before a large t overflows
    one.  Returns the state, counters booked as by the per-stage gates, and
    the record ``prefix``: prefix[m] is the squared norm of the final phase
    columns [0, 2**m), for m = 0..t, summed without BLAS.

    An all-zero operator, at stage m, is the last stage applied: the pass
    leaves the later phase columns unbuilt (in the circuit those whose bit
    m is clear are not zero), and the record ends at prefix[m+1].

    The pass writes a seed of copies of column 0, then runs one `_deal`
    level per stage: stage m writes its operator applied to the
    bit-m-clear columns of those built so far, [0, max(seed, 2**(m+1))),
    into their bit-m-set ones, a `_stage` job per run of at most a block's
    width.  A stage inside the seed leaves it seed >> (m+1) copies of
    columns [0, 2**(m+1)), so its norm, scaled by the exact power of two
    2**(m+1) / seed, is that of the new columns; from N = 4 on no norm is
    scaled.  prefix[m+1] is prefix[m] plus the sum of the level's norms in
    job order, so the record does not depend on the worker count.
    """
    amps = _new_amplitudes(layout, np.empty)
    ops = [_stage_operator(layout, m, op) for m, op in enumerate(operators)]
    if len(ops) != layout.t:
        raise ValidationError(f"{len(ops)} stage operators for a {layout.t}-qubit phase register")
    ops = ops[: next((m + 1 for m, op in enumerate(ops) if not op.any()), len(ops))]
    n, t = layout.n_particles, layout.t
    seed, width = _seed_width(layout), _block_width(layout)
    rows = amps.reshape(layout.slot_dim, -1)
    column = slot_register_vector(asym_state(n), layout)
    for _ in range(t):
        column *= _INV_SQRT2
    rows[:, :seed] = column[:, None]
    prefix = np.empty(len(ops) + 1)
    prefix[0] = _norm_sq(column)
    del column  # an N = 8 column is 256 MiB: free it before the scratch is allocated

    levels = []
    for m, u in enumerate(ops):
        built = rows[:, : max(seed, 2 << m)]
        source, dest = _bit_columns(built, m, 0), _bit_columns(built, m, 1)
        cuts = [np.s_[..., a : a + width] for a in range(0, 1 << m, width)]
        levels.append([functools.partial(_stage, u, source[cut], dest[cut]) for cut in cuts])
    for m, norms in enumerate(_deal(levels, layout.slot_dim * width)):
        scale = min(1.0, (2 << m) / seed)  # the seed holds seed >> (m+1) copies of the new columns
        prefix[m + 1] = prefix[m] + scale * sum(norms)

    sv = StateVector(layout=layout, amplitudes=amps)
    _book_asym(sv.counters, n)
    sv.counters.modeled_qft_ops += t
    sv.counters.controlled_slot_applications += len(ops) * n
    return sv, prefix


def inverse_qft(sv: StateVector) -> StateVector:
    """Exact inverse Fourier transform on the phase register, in place.

    Convention: the forward QFT maps |j> to 2**(-t/2) sum_k exp(2i pi jk/2**t)|k>,
    so the inverse is the unitary DFT with the negative-sign kernel.  The
    rows transform independently, so a state larger than a block hands
    `_deal` one job per half of its slot rows; no BLAS is involved.
    """
    t = sv.layout.t
    rows = sv.amplitudes.reshape(-1, 1 << t)
    parts = np.split(rows, 2) if sv.amplitudes.nbytes > _BLOCK_BYTES else [rows]
    _deal([[lambda _, part=part: np.fft.fft(part, axis=1, norm="ortho", out=part) for part in parts]], blas=False)
    sv.counters.modeled_inv_qft_ops += t * (t + 1) // 2
    _assert_normalized(sv.norm_sq(), "inverse_qft")
    return sv


def register_probabilities(sv: StateVector) -> np.ndarray:
    """Exact Born distribution of the phase register, marginalizing the slots.

    A state larger than a block whose halves of the phase columns keep two
    columns each hands `_deal` one job per half; otherwise it is one job.
    A job accumulates its columns in blocks of about `_BLOCK_BYTES`: a run
    of them (all or, when that exceeds a block, the largest power-of-two
    piece that fits, at least two columns) by a chunk of slot rows.  Each
    block's squared moduli are stacked under the run's running totals and
    summed down the rows, so every outcome adds its rows in order, as a sum
    over the whole state does.  A one-column run would be summed pairwise
    instead, so no job holds one column alone; no BLAS is involved.
    """
    slot_dim, phase_dim = sv.layout.slot_dim, sv.layout.phase_dim
    rows = sv.amplitudes.reshape(slot_dim, phase_dim)
    cols = phase_dim // 2 if sv.amplitudes.nbytes > _BLOCK_BYTES and phase_dim >= 4 else phase_dim
    fit = max(2, _BLOCK_BYTES // _AMP_BYTES)
    width = min(cols, 1 << (fit.bit_length() - 1))
    per = min(slot_dim, max(1, _BLOCK_BYTES // (_AMP_BYTES * width)))
    totals = np.zeros(phase_dim)
    jobs = [
        functools.partial(_add_probabilities, rows[:, a : a + cols], totals[a : a + cols], width, per)
        for a in range(0, phase_dim, cols)
    ]
    # A job's (per + 1, width) float stack fits in half as many amplitudes: width is even.
    _deal([jobs], (per + 1) * width // 2, blas=False)
    return totals


def _add_probabilities(rows: np.ndarray, totals: np.ndarray, width: int, per: int, buffers: np.ndarray) -> None:
    """Add the squared moduli of the (slots, columns) ``rows`` down each column into ``totals``.

    Blocks of ``per`` rows by ``width`` columns are stacked under their
    running totals in the first of ``buffers``, as `register_probabilities`
    describes.
    """
    stack = buffers[0].view(np.float64)[: (per + 1) * width].reshape(per + 1, width)
    for first in range(0, rows.shape[1], width):
        acc = totals[first : first + width]
        for row in range(0, len(rows), per):
            block = rows[row : row + per, first : first + width]
            part = stack[: len(block) + 1]
            part[0] = acc
            np.square(np.abs(block, out=part[1:]), out=part[1:])
            np.sum(part, axis=0, out=acc)


def measure_register(sv: StateVector, rng_seed: int, shots: int) -> dict[int, int]:
    """Sample the phase register's Born distribution ``shots`` times.

    Non-destructive: every shot resamples the same final state.  Shot s
    draws from substream (rng_seed, s), so results do not depend on
    evaluation order.
    """
    if shots < 1:
        raise ValidationError(f"need at least one shot, got {shots}")
    return sample_distribution(register_probabilities(sv), rng_seed, shots)


def sample_distribution(
    probs: np.ndarray, rng_seed: int, shots: int, postselect: Sequence[float] = ()
) -> dict[int, int]:
    """Histogram of ``shots`` draws from ``probs``, keyed by outcome in ascending order.

    Shot s consumes the draws of substream (rng_seed, s) in order.  With
    ``postselect = (p_0, ..., p_{n-1})`` the shot survives only when its
    draw i is below p_i for every i, and a survivor samples ``probs`` with
    draw n; rejected shots are not counted.  Without it every shot samples
    with its first draw.  An outcome is the first index whose cumulative
    probability exceeds the draw, clamped to the last index when rounding
    leaves the total below the draw.

    The draws are equal bit for bit to the per-shot substreams, but only
    the ones a shot can still use are computed.  The shots go in chunks of
    `_SHOT_CHUNK`.  A chunk computes word block 0 (draws 0-3) for every
    shot, drops the shots that failed a stage draw in it, and computes each
    later block for the survivors only, up to the block that holds draw n.
    """
    cumulative = np.cumsum(probs)
    stages = np.asarray(postselect, dtype=np.float64)
    n = len(stages)
    totals = np.zeros(len(cumulative), dtype=np.int64)
    for first in range(0, shots, _SHOT_CHUNK):
        alive = np.arange(first, min(first + _SHOT_CHUNK, shots), dtype=np.uint64)
        for block in range(n // 4 + 1):
            u = _unit(_philox_words(rng_seed, alive, block))
            block_stages = stages[4 * block : 4 * block + 4, None]
            survived = np.all(u[: len(block_stages)] < block_stages, axis=0)
            alive = alive[survived]
        draws = u[n % 4, survived]
        outcomes = np.minimum(np.searchsorted(cumulative, draws, side="right"), len(cumulative) - 1)
        np.add.at(totals, outcomes, 1)
    return {int(k): int(totals[k]) for k in np.flatnonzero(totals)}


def ancilla_zero_probability(sv: StateVector) -> float:
    """Exact Born probability that the ancilla reads 0.

    The state is the ancilla-0 branch a contraction stage left, so this is
    its squared norm.  No run calls it: runs read each stage's P(0) from the
    record of `power_pass`.
    """
    return sv.norm_sq()


def measure_ancilla_postselect(sv: StateVector) -> float:
    """Renormalise the ancilla-0 branch a contraction stage left; return P(0).

    The state is that branch, and P(0) is its squared norm.  A contraction
    cannot add norm, so P(0) above 1 + 1e-10 raises VerificationError.
    When P(0) < 1e-300 the branch has no usable amplitude and the state is
    left as it was.  Runs read each stage's P(0) from the record of
    `power_pass`; this is their reference.
    """
    p0 = ancilla_zero_probability(sv)
    if p0 > 1.0 + _NORM_TOL:
        raise VerificationError(f"the ancilla-0 branch has squared norm {p0:.12g} > 1")
    if p0 >= _AMPLITUDE_FLOOR:
        sv.amplitudes /= math.sqrt(p0)
        _assert_normalized(sv.norm_sq(), "measure_ancilla_postselect")
    return p0


def controlled_block_stage(sv: StateVector, m: int, a_m: np.ndarray) -> StateVector:
    """One contraction-mode stage: the ancilla-0 block of a_m's block encoding.

    ``a_m`` is the N x N stage contraction A**(2**m).  On the control-1
    branch the block is `contraction_block`'s clamped a_m, applied to every
    slot as `controlled_power_stage` applies its matrix; on the control-0
    branch it is rho = |det| of that block.  So P(the ancilla reads 0) is
    rho**2 and the post-selected phase amplitudes keep a uniform magnitude,
    as the product law and the exact phase readout need.  The state left
    has squared norm P(0).  Runs take their stages from `power_pass`, whose
    reference this is.
    """
    block, rho = contraction_block(m, _stage_operator(sv.layout, m, a_m))
    rows = sv.amplitudes.reshape(sv.layout.slot_dim, -1)
    part = _bit_columns(rows, m)
    _stage(block, part, part, np.empty((2, part.size), dtype=np.complex128))
    off = _bit_columns(rows, m, 0)
    off *= rho
    sv.counters.controlled_slot_applications += sv.layout.n_particles
    return sv


def contraction_block(m: int, a_m: np.ndarray) -> tuple[np.ndarray, float]:
    """Stage m's control-1 block, the N x N a_m with its singular values clamped at 1, and rho.

    rho, |det| of the block, is snapped to 1 when 1 - rho**2 is rounding
    noise, and the block is then the polar factor w @ vh.  A run admits
    inputs of norm up to 1 + 1e-9, so ValidationError is raised when
    a_m = A**(2**m) has a norm above (1 + 1e-9)**(2**m).
    """
    w, s, vh = np.linalg.svd(a_m)
    if s[0] > (1.0 + VALIDATION_TOL) ** (1 << m):
        raise ValidationError(f"not a contraction: stage {m} operator norm {s[0]:.12g} > 1")
    s = np.minimum(s, 1.0)
    rho = float(np.prod(s))
    if 1.0 - rho * rho < _LEAK_SNAP:
        return w @ vh, 1.0  # singular values a hair below 1 would leak norm at every stage
    return (w * s) @ vh, rho


def shot_rng(seed: int, shot: int) -> np.random.Generator:
    """Counter-based substream for one shot; order-independent across shots.

    This defines the draws of every shot; `_philox_words` computes the same
    draws for many shots at once.
    """
    key = np.array([seed & _U64, shot & _U64], dtype=np.uint64)
    return np.random.Generator(np.random.Philox(key=key))


def _philox_words(seed: int, shots: np.ndarray, block: int) -> np.ndarray:
    """Word block ``block`` of each shot's stream, as (4, len(shots)) uint64.

    Column i is Philox4x64-10 on counter (block + 1, 0, 0, 0) under key
    (seed mod 2**64, shots[i]), as numpy's Philox bit generator runs it.  A
    round's two 64 x 64 -> 128-bit products (counter words 0 and 2 by the
    two multipliers) run as one (2, n) array, from 32-bit halves.
    """
    x = np.zeros((2, len(shots)), dtype=np.uint64)  # counter words 0 and 2
    x[0] = block + 1
    y = np.zeros_like(x)  # counter words 1 and 3
    key = np.empty_like(x)
    key[0] = seed & _U64
    key[1] = shots
    for r in range(_PHILOX_ROUNDS):
        if r:
            key += _PHILOX_W
        # With x = xh * 2**32 + xl and m likewise, the high word of m * x is
        # mh * xh plus the carries out of mh * xl, ml * xh and ml * xl.
        lo_x = x & _LO32
        hi_x = x >> _SHIFT32
        carry = _PHILOX_M_LO * lo_x
        carry >>= _SHIFT32
        mid = _PHILOX_M_HI * lo_x
        mid += carry
        cross = np.multiply(_PHILOX_M_LO, hi_x, out=lo_x)
        cross += mid & _LO32
        hi = np.multiply(_PHILOX_M_HI, hi_x, out=hi_x)
        mid >>= _SHIFT32
        hi += mid
        cross >>= _SHIFT32
        hi += cross
        x *= _PHILOX_M
        # Words 0, 2 become hi(m1 * c2) ^ c1 ^ k0, hi(m0 * c0) ^ c3 ^ k1;
        # words 1, 3 the low products m1 * c2 and m0 * c0.
        hi = hi[::-1]
        hi ^= y
        hi ^= key
        x, y = hi, x[::-1]
    return np.stack((x[0], y[0], x[1], y[1]))


def _unit(words: np.ndarray) -> np.ndarray:
    """``Generator.random()``'s double from each word: its top 53 bits times 2**-53."""
    return (words >> np.uint64(11)) * (1.0 / (1 << 53))


def _stage_operator(layout: QubitLayout, m: int, op) -> np.ndarray:
    """The N x N operator of stage m, after checking the stage index and the shape."""
    arr = as_matrix(op)
    if m < 0 or m >= layout.t:
        raise ValidationError(f"stage index {m} outside phase register of {layout.t} qubits")
    if arr.shape[0] != layout.n_particles:
        raise ValidationError(
            f"stage operator is {arr.shape[0]}x{arr.shape[0]}, slots hold {layout.n_particles} labels"
        )
    return arr


def _stage(u: np.ndarray, source: np.ndarray, dest: np.ndarray, buffers: np.ndarray) -> float:
    """Write ``u`` applied to every slot of the (slots, ...) ``source`` into ``dest``; return the squared norm written.

    Slot s is base-N digit s of the slot index.  ``dest`` has ``source``'s
    shape; a per-stage gate passes ``source`` itself.  The matmuls run in
    the first ``source.size`` amplitudes of each of the two ``buffers``.
    """
    out = _slot_matmuls(u, source, *buffers[:, : source.size])
    norm_sq = _norm_sq(out)
    dest[...] = out.reshape(dest.shape)
    return norm_sq


def _norm_sq(amps: np.ndarray) -> float:
    """Squared norm of contiguous amplitudes by numpy's einsum loop: no BLAS, whose rounding varies with its threads."""
    floats = amps.reshape(-1).view(np.float64)
    return float(np.einsum("i,i->", floats, floats))


def _bit_columns(block: np.ndarray, m: int, bit: int = 1) -> np.ndarray:
    """The columns of the (slots, columns) ``block`` whose bit m is ``bit``, as a (slots, runs, 2**m) view."""
    return block.reshape(block.shape[0], -1, 2, 1 << m)[:, :, bit]


def _slot_matmuls(u: np.ndarray, part: np.ndarray, src: np.ndarray, dst: np.ndarray) -> np.ndarray:
    """Apply u to every slot of the (slots, ...) ``part`` through the buffers ``src`` and ``dst``.

    Returns the buffer holding the result, laid out as ``part`` is.
    ``part`` is staged in ``dst`` in row order and transposed from there
    into ``src``, slot index innermost: the state's rows, a power of two
    apart, share cache sets.  Each matmul over a (rest, N) reshape then
    applies u to the next slot and moves it to the front, ping-ponging
    between the two buffers; after N steps the slot index leads again, in
    order.
    """
    n = u.shape[0]
    staged = dst.reshape(part.shape)
    np.copyto(staged, part)
    np.copyto(src.reshape(part.shape[1:] + part.shape[:1]), np.moveaxis(staged, 0, -1))
    for _ in range(n):
        np.matmul(u, src.reshape(-1, n).T, out=dst.reshape(n, -1))
        src, dst = dst, src
    return src


def _deal(levels: Sequence[Sequence[Callable[[np.ndarray], object]]], scratch: int = 0, *, blas: bool = True) -> list[list]:
    """Run a blocked kernel's ``levels`` of jobs ``job(buffers)`` on `_worker_count` threads; return their values.

    Worker w runs jobs w, w + step, ... of each level, step being the worker
    count, in its own pair of ``scratch``-amplitude buffers.  The workers
    meet at one barrier between levels, since a level may read what the
    levels before it wrote.  The values come back as one list per level, in
    job order.  The calling thread is worker 0; helper threads take the rest
    and are joined before this returns.  A job's exception aborts the
    barrier, so no worker waits for it, and is raised here.  The dealt
    kernels are `power_pass`, one level per stage, and `inverse_qft` and
    `register_probabilities`, one level each, of one job per half of the
    state when it exceeds a block; `register_probabilities` halves it only
    where each half keeps at least two phase columns.  With ``blas``,
    helpers run only inside `_blas_serial`, which holds OpenBLAS at one
    thread for the call: its own threads would oversubscribe the cores.  A
    call on one thread leaves OpenBLAS's thread count alone.
    """
    workers = _worker_count(max(map(len, levels)))
    with _blas_serial() if blas and workers > 1 else contextlib.nullcontext(True) as pinned:
        workers = workers if pinned else 1
        # Allocated here, not in the helpers: memory a helper thread frees
        # stays in its own allocator arena, out of reach of later allocations.
        buffers = np.empty((workers, 2, scratch), dtype=np.complex128)
        barrier = threading.Barrier(workers)
        errors: list[BaseException] = []
        values = [[None] * len(level) for level in levels]

        def work(w: int) -> None:
            try:
                for k, level in enumerate(levels):
                    if k:
                        barrier.wait()
                    for i in range(w, len(level), workers):
                        values[k][i] = level[i](buffers[w])
            except threading.BrokenBarrierError:
                pass  # another worker's job raised: its exception is raised below
            except BaseException as exc:  # handed to the caller, which raises it
                errors.append(exc)
                barrier.abort()

        helpers = [threading.Thread(target=work, args=(w,)) for w in range(1, workers)]
        for thread in helpers:
            thread.start()
        work(0)
        for thread in helpers:
            thread.join()
    if errors:
        raise errors[0]
    return values


def _worker_count(blocks: int) -> int:
    """Threads for a kernel of ``blocks`` blocks: one per usable CPU, at most `_MAX_WORKERS`."""
    try:
        cpus = len(os.sched_getaffinity(0))
    except (AttributeError, OSError):  # no affinity call on this platform
        return 1
    return min(cpus, blocks, _MAX_WORKERS)


_pin_lock = threading.Lock()


@contextlib.contextmanager
def _blas_serial():
    """Hold OpenBLAS at one thread for the scope; yield False when it cannot be found.

    OpenBLAS keeps one thread count for the whole process.  The scope takes
    `_pin_lock`, so it does not nest, and restores the count it found on
    exit, on success or error.
    """
    api = _openblas()
    if api is None:
        yield False
        return
    get, put = api
    with _pin_lock:
        restore = get()
        put(1)
        try:
            yield True
        finally:
            put(restore)


@functools.cache
def _openblas() -> tuple | None:
    """The (get, set) thread-count functions of the OpenBLAS numpy links, or None.

    They are looked up through numpy's own, already loaded extension, whose
    handle resolves symbols in the libraries it links: the OpenBLAS found is
    numpy's, whatever other copies the process has mapped.  numpy's wheels
    vendor it with prefixed, suffixed symbols.  Its own thread-local setter
    is not used: in a pthreads build it sets the process-wide count.
    """
    lib = ctypes.CDLL(np._core._multiarray_umath.__file__)
    for prefix, suffix in (("scipy_openblas", "64_"), ("openblas", "64_"), ("openblas", "")):
        get = getattr(lib, f"{prefix}_get_num_threads{suffix}", None)
        put = getattr(lib, f"{prefix}_set_num_threads{suffix}", None)
        if get is not None and put is not None:
            get.argtypes, get.restype = [], ctypes.c_int
            put.argtypes, put.restype = [ctypes.c_int], None
            return get, put
    return None


def _block_width(layout: QubitLayout) -> int:
    """Phase columns a job of `power_pass` takes at most: a power of two of about `_BLOCK_BYTES`, at least the seed."""
    fit = max(1, _BLOCK_BYTES // (_AMP_BYTES * layout.slot_dim))
    return max(_seed_width(layout), min(layout.phase_dim, 1 << (fit.bit_length() - 1)))


def _seed_width(layout: QubitLayout) -> int:
    """Copies of column 0 `power_pass` starts from: the fewest whose half is whole `_GEMM_TILE`s of matmul columns.

    A column is N**(N-1) matmul columns, so that is 16 at N = 2 and column
    0 alone from N = 4 on, or the whole register when it is smaller.
    """
    return min(layout.phase_dim, max(1, 2 * _GEMM_TILE * layout.n_particles // layout.slot_dim))


def _new_amplitudes(layout: QubitLayout, allocate) -> np.ndarray:
    """The layout's amplitudes from ``allocate`` (np.zeros or np.empty); StateTooLargeError if numpy refuses."""
    try:
        return allocate(1 << layout.total_qubits, dtype=np.complex128)
    except (ValueError, MemoryError) as exc:
        raise StateTooLargeError(f"cannot allocate the {layout.total_qubits}-qubit state: {exc}") from exc


def _assert_normalized(norm_sq: float, gate: str) -> None:
    """Raise VerificationError, naming ``gate``, unless the measured squared norm is within 1e-10 of 1."""
    drift = abs(norm_sq - 1.0)
    if drift > _NORM_TOL:
        raise VerificationError(f"state norm drifted by {drift:.3e} after {gate}")
