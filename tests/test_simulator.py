"""Register layout, gates, counters, and measurement behavior of the simulator."""

import collections
import functools
import itertools
import json
import math
import os
import pathlib
import subprocess
import sys
import threading
import time
import tracemalloc
import types

import numpy as np
import pytest
from conftest import random_contraction

from qdet import qde, simulator
from qdet.antisym import asym_state
from qdet.cli import RunConfig, run
from qdet.errors import StateTooLargeError, ValidationError, VerificationError
from qdet.linalg import block_encode, det_lu, haar_unitary, kron_power, mat_pow2, stage_powers
from qdet.simulator import (
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
    sample_distribution,
    shot_rng,
    slot_register_vector,
)

TWO_PI = 2.0 * math.pi


def prepared_state(t, n):
    layout = QubitLayout(t=t, n_particles=n)
    sv = init_state(layout)
    load_asym(sv, asym_state(n))
    return sv


def qft(sv):
    """Forward QFT on the phase register, in place: the adjoint of `inverse_qft`, for round trips."""
    flat = sv.amplitudes.reshape(-1, sv.layout.phase_dim)
    np.fft.ifft(flat, axis=1, norm="ortho", out=flat)
    simulator._assert_normalized(sv.norm_sq(), "qft")
    return sv


def grouped(sv):
    lay = sv.layout
    return sv.amplitudes.reshape(lay.slot_dim, lay.phase_dim)


def with_ancilla(branch, rest=None):
    """Raw one-ancilla amplitudes (2, slots, phase): ``branch``'s in the 0-half, ``rest`` in the 1-half."""
    lay = branch.layout
    raw = np.zeros((2, lay.slot_dim, lay.phase_dim), dtype=np.complex128)
    raw[0] = grouped(branch)
    if rest is not None:
        raw[1] = rest.reshape(lay.slot_dim, lay.phase_dim)
    return raw


def into_ancilla_half(sv, rest):
    """Move ``sv`` into the 0-half of a raw one-ancilla array whose 1-half is ``rest``; return the array.

    The state's amplitudes become a view of that half, as the ancilla-0
    branch of a dense block encoding is.
    """
    raw = with_ancilla(sv, rest)
    sv.amplitudes = raw[0].reshape(-1)
    return raw


def random_amplitudes(rng, size, norm_sq=1.0):
    amps = rng.standard_normal(size) + 1j * rng.standard_normal(size)
    return amps * math.sqrt(norm_sq) / np.linalg.norm(amps)


class TestLayout:
    def test_total_qubits(self):
        lay = QubitLayout(t=2, n_particles=4)
        assert lay.bits_per_slot == 2
        assert lay.total_qubits == 2 + 4 * 2

    def test_rejects_non_power_of_two(self):
        with pytest.raises(ValidationError):
            QubitLayout(t=1, n_particles=3)

    def test_rejects_partial_ancilla_register(self):
        # The layout has two registers, phase and slots: no ancilla qubit is simulated.
        for count in (1, 3):
            with pytest.raises(TypeError):
                QubitLayout(t=3, n_particles=2, ancilla_count=count)

    def test_cap_enforced_with_required_count_in_message(self):
        with pytest.raises(StateTooLargeError, match="32"):
            QubitLayout(t=8, n_particles=8)

    def test_cap_is_configurable(self):
        QubitLayout(t=8, n_particles=8, qubit_cap=32)


class TestStateVectorNorm:
    def test_norm_sq_allocates_no_state_sized_temporary(self):
        rng = np.random.Generator(np.random.PCG64(16))
        amps = rng.standard_normal(1 << 16) + 1j * rng.standard_normal(1 << 16)
        sv = StateVector(layout=QubitLayout(t=8, n_particles=4), amplitudes=amps / np.linalg.norm(amps))
        tracemalloc.start()
        try:
            norm = sv.norm_sq()
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert norm == pytest.approx(1.0, abs=1e-12)
        assert peak < 0.01 * sv.amplitudes.nbytes


class TestInitState:
    def test_small_layout(self):
        sv = init_state(QubitLayout(t=1, n_particles=2))
        assert sv.amplitudes.shape == (8,)
        assert sv.amplitudes[0] == 1.0
        assert np.count_nonzero(sv.amplitudes) == 1

    def test_amplitude_count(self):
        sv = init_state(QubitLayout(t=2, n_particles=4))
        assert sv.amplitudes.shape == (2**10,)

    def test_refused_allocation_is_state_too_large(self, monkeypatch):
        def refuse(*args, **kwargs):
            raise MemoryError

        layout = QubitLayout(t=2, n_particles=4)
        monkeypatch.setattr(simulator.np, "zeros", refuse)
        with pytest.raises(StateTooLargeError, match="10-qubit state"):
            init_state(layout)


class TestLoadAsym:
    def test_two_particle_support(self):
        sv = prepared_state(t=1, n=2)
        g = grouped(sv)
        # Slot-register values: labels (0,1) -> 0 + 1*2 = 2, labels (1,0) -> 1.
        inv = 1.0 / math.sqrt(2)
        assert g[2, 0] == pytest.approx(inv)
        assert g[1, 0] == pytest.approx(-inv)
        assert np.count_nonzero(sv.amplitudes) == 2

    def test_norm_and_counters(self):
        sv = prepared_state(t=2, n=4)
        assert sv.norm_sq() == pytest.approx(1.0, abs=1e-12)
        assert sv.counters.modeled_orthonorm_ops == 4
        assert sv.counters.modeled_asym_ops == 16

    def test_four_particle_support_count(self):
        sv = prepared_state(t=1, n=4)
        slot_probs = (np.abs(grouped(sv)) ** 2).sum(axis=1)
        assert slot_probs.shape == (256,)
        assert np.count_nonzero(slot_probs > 1e-20) == 24

    def test_requires_fresh_state(self):
        sv = prepared_state(t=1, n=2)
        with pytest.raises(ValidationError):
            load_asym(sv, asym_state(2))

    @pytest.mark.parametrize("first", [1j, 1.0 + 2e-12, 0.0])
    def test_requires_unit_first_amplitude(self, first):
        sv = init_state(QubitLayout(t=1, n_particles=2))
        sv.amplitudes[0] = first
        with pytest.raises(ValidationError):
            load_asym(sv, asym_state(2))

    @pytest.mark.parametrize("index", [1, 100, -1])
    def test_refuses_a_stray_amplitude_wherever_it_sits(self, index):
        # A stray amplitude fails the freshness check once the squared norm
        # of every amplitude past the first exceeds 1e-24.
        layout = QubitLayout(t=2, n_particles=4)
        sv = init_state(layout)
        sv.amplitudes[index] = 8e-13 * (1 + 1j)
        with pytest.raises(ValidationError):
            load_asym(sv, asym_state(4))
        sv = init_state(layout)
        sv.amplitudes[index] = 6e-13 * (1 + 1j)
        sv.amplitudes[0] = 1.0 - 1e-12
        load_asym(sv, asym_state(4))

    def test_rejects_slot_mismatch(self):
        sv = init_state(QubitLayout(t=1, n_particles=2))
        with pytest.raises(ValidationError):
            load_asym(sv, asym_state(4))


class TestSlotRegisterVector:
    def test_view_in_slot_register_order(self):
        # Entry r = sum_s label_s * N**s holds the amplitude of those labels;
        # asym_state's Fortran order makes the vector a view of it.
        n = 4
        layout = QubitLayout(t=1, n_particles=n)
        state = np.asfortranarray(np.arange(n**n, dtype=complex).reshape((n,) * n))
        vec = slot_register_vector(state, layout)
        assert np.shares_memory(vec, state)
        for labels in itertools.product(range(n), repeat=n):
            assert vec[sum(label * n**s for s, label in enumerate(labels))] == state[labels]
        asym = asym_state(n)
        assert np.shares_memory(slot_register_vector(asym, layout), asym)

    @pytest.mark.parametrize("shape", [(256,), (16, 16), (4, 4, 4), (2, 2, 2, 2)])
    def test_rejects_wrong_shape(self, shape):
        with pytest.raises(ValidationError, match="slot tensor"):
            slot_register_vector(np.zeros(shape, dtype=complex), QubitLayout(t=1, n_particles=4))


class TestHadamardLayer:
    def test_uniform_from_zero_single_qubit(self):
        sv = prepared_state(t=1, n=2)
        hadamard_layer(sv)
        phase_marginal = register_probabilities(sv)
        assert np.allclose(phase_marginal, [0.5, 0.5], atol=1e-12)

    def test_uniform_from_zero_three_qubits(self):
        sv = prepared_state(t=3, n=2)
        hadamard_layer(sv)
        g = grouped(sv)
        expected = np.full(8, 1.0 / math.sqrt(8))
        assert np.allclose(g[1, :] / g[1, 0] * expected[0], expected, atol=1e-12)
        assert np.allclose(register_probabilities(sv), 1.0 / 8.0, atol=1e-12)

    @pytest.mark.parametrize("ancilla_half", [False, True])
    def test_rejects_weight_outside_phase_column_zero(self, ancilla_half):
        sv = prepared_state(t=2, n=2)
        hadamard_layer(sv)
        whole = sv.amplitudes
        if ancilla_half:
            whole = into_ancilla_half(sv, random_amplitudes(np.random.Generator(np.random.PCG64(3)), whole.size))
        before = whole.copy()
        with pytest.raises(ValidationError, match="hadamard_layer"):
            hadamard_layer(sv)
        assert np.array_equal(whole, before)
        assert sv.counters.modeled_qft_ops == 2

    def test_accepts_column_zero_weight_in_the_ancilla_one_half(self):
        # The state is the 0-half of a raw one-ancilla array whose 1-half also
        # has weight in phase column 0: that weight is not the state's, so it
        # neither fails the |0> check nor is written.
        layout = QubitLayout(t=3, n_particles=2)
        rng = np.random.Generator(np.random.PCG64(3))
        amps = np.zeros(1 << layout.total_qubits, dtype=np.complex128)
        amps.reshape(-1, layout.phase_dim)[:, 0] = random_amplitudes(rng, layout.slot_dim)
        sv = StateVector(layout=layout, amplitudes=amps.copy())
        expected = StateVector(layout=layout, amplitudes=amps)
        raw = into_ancilla_half(sv, np.roll(amps, 1))
        rest = raw[1].copy()
        hadamard_layer(sv)
        reference_hadamard_layer(expected)
        assert np.array_equal(sv.amplitudes, expected.amplitudes)
        assert np.count_nonzero(raw[0]) == layout.slot_dim * layout.phase_dim
        assert np.array_equal(raw[1], rest)


class TestControlledPowerStage:
    def test_control_off_leaves_state(self):
        sv = prepared_state(t=1, n=2)  # phase register still |0>
        before = sv.amplitudes.copy()
        controlled_power_stage(sv, 0, haar_unitary(2, 12))
        assert np.array_equal(sv.amplitudes, before)
        assert sv.counters.controlled_slot_applications == 2

    def test_diagonal_phase_multiplies_controlled_branch(self):
        u = np.diag([1.0, np.exp(1j * math.pi / 2)])
        sv = prepared_state(t=1, n=2)
        hadamard_layer(sv)
        controlled_power_stage(sv, 0, u)
        g = grouped(sv)
        inv = 1.0 / math.sqrt(2)
        # det(u) = e^{i pi/2}; the j=1 branch picks it up, j=0 does not.
        assert g[2, 1] / g[2, 0] == pytest.approx(np.exp(1j * math.pi / 2))
        assert g[2, 0] == pytest.approx(inv * inv)

    def test_phase_kickback_matches_oracle(self):
        # After all t stages the |j> amplitude carries exp(i phi j) with phi
        # the oracle determinant phase.
        t, n = 3, 2
        u = haar_unitary(n, 31)
        phi = det_lu(u).phase
        sv = prepared_state(t=t, n=n)
        hadamard_layer(sv)
        for m in range(t):
            controlled_power_stage(sv, m, mat_pow2(u, m))
        vec = slot_register_vector(asym_state(n), sv.layout)
        overlaps = vec.conj() @ grouped(sv)
        expected = np.exp(1j * phi * np.arange(2**t)) / math.sqrt(2**t)
        assert np.max(np.abs(overlaps - expected)) <= 1e-9
        assert sv.counters.controlled_slot_applications == t * n

    def test_rejects_bad_stage_index(self):
        sv = prepared_state(t=1, n=2)
        with pytest.raises(ValidationError):
            controlled_power_stage(sv, 1, np.eye(2))

    def test_rejects_dimension_mismatch(self):
        sv = prepared_state(t=1, n=2)
        with pytest.raises(ValidationError):
            controlled_power_stage(sv, 0, np.eye(4))

    def test_norm_drift_names_the_stage(self):
        sv = prepared_state(t=2, n=2)
        hadamard_layer(sv)
        with pytest.raises(VerificationError, match=r"after controlled_power_stage m=1$"):
            controlled_power_stage(sv, 1, 1.001 * np.eye(2))

    def test_norm_check_reads_the_state(self):
        # The gate is the one pass's reference: its check is a whole-state sum,
        # so it fails on a drift in the columns the stage leaves alone.
        sv = prepared_state(t=3, n=2)
        hadamard_layer(sv)
        simulator._bit_columns(grouped(sv), 1, 0)[...] *= math.sqrt(1.001)
        with pytest.raises(VerificationError, match=r"after controlled_power_stage m=1$"):
            controlled_power_stage(sv, 1, haar_unitary(2, 5))

    def test_first_check_reads_the_state(self):
        # A state no gate built, of unit norm: the check reads it and passes.
        sv = StateVector(layout=QubitLayout(t=2, n_particles=2), amplitudes=np.full(16, 0.25 + 0j))
        controlled_power_stage(sv, 0, haar_unitary(2, 6))


class TestInverseQft:
    def test_collapses_dyadic_phase_gradient(self):
        t, k0 = 3, 5
        sv = prepared_state(t=t, n=2)
        hadamard_layer(sv)
        g = grouped(sv)
        g[...] *= np.exp(2j * math.pi * np.arange(2**t) * k0 / (2**t))
        inverse_qft(sv)
        probs = register_probabilities(sv)
        assert probs[k0] == pytest.approx(1.0, abs=1e-10)

    def test_single_qubit_inverse_qft_is_hadamard(self):
        a = prepared_state(t=1, n=2)
        b = prepared_state(t=1, n=2)
        inverse_qft(a)
        hadamard_layer(b)
        assert np.max(np.abs(a.amplitudes - b.amplitudes)) <= 1e-12

    def test_roundtrip_identity(self, rng):
        sv = prepared_state(t=2, n=2)
        raw = rng.standard_normal(sv.amplitudes.shape) + 1j * rng.standard_normal(sv.amplitudes.shape)
        sv.amplitudes = raw / np.linalg.norm(raw)
        before = sv.amplitudes.copy()
        qft(sv)
        inverse_qft(sv)
        assert np.max(np.abs(sv.amplitudes - before)) <= 1e-12
        assert sv.counters.modeled_inv_qft_ops == 3

    def test_transforms_in_place(self, rng):
        sv = prepared_state(t=3, n=2)
        raw = rng.standard_normal(sv.amplitudes.shape) + 1j * rng.standard_normal(sv.amplitudes.shape)
        sv.amplitudes = raw / np.linalg.norm(raw)
        buffer = sv.amplitudes
        inverse_qft(sv)
        assert np.shares_memory(sv.amplitudes, buffer)
        qft(sv)
        assert np.shares_memory(sv.amplitudes, buffer)


class TestMeasureRegister:
    def test_basis_state_single_outcome(self):
        sv = prepared_state(t=2, n=2)
        counts = measure_register(sv, rng_seed=0, shots=100)
        assert counts == {0: 100}

    def test_uniform_single_qubit_frequency(self):
        sv = prepared_state(t=1, n=2)
        hadamard_layer(sv)
        counts = measure_register(sv, rng_seed=123, shots=10_000)
        assert abs(counts.get(0, 0) / 10_000 - 0.5) < 0.05

    def test_deterministic_for_fixed_seed(self):
        sv = prepared_state(t=2, n=2)
        hadamard_layer(sv)
        a = measure_register(sv, rng_seed=7, shots=500)
        b = measure_register(sv, rng_seed=7, shots=500)
        assert a == b

    def test_rejects_zero_shots(self):
        sv = prepared_state(t=1, n=2)
        with pytest.raises(ValidationError):
            measure_register(sv, rng_seed=0, shots=0)

    def test_rejects_unknown_register(self):
        # Only the phase register is served; naming another one is an error,
        # not a request answered with the phase distribution.
        sv = prepared_state(t=1, n=2)
        with pytest.raises(TypeError):
            register_probabilities(sv, "slots")


class TestShotRng:
    def test_substreams_are_order_independent(self):
        draws_forward = [shot_rng(9, s).random() for s in range(10)]
        draws_reverse = [shot_rng(9, s).random() for s in reversed(range(10))]
        assert draws_forward == draws_reverse[::-1]

    def test_distinct_streams(self):
        assert shot_rng(9, 0).random() != shot_rng(9, 1).random()
        assert shot_rng(9, 0).random() != shot_rng(10, 0).random()

    def test_negative_seed_accepted(self):
        shot_rng(-3, 0).random()


def reference_uniforms(seed, shots, draws, first_shot=0):
    """The per-shot substreams, drawn one shot at a time."""
    return np.array(
        [[g.random() for _ in range(draws)] for g in (shot_rng(seed, first_shot + i) for i in range(shots))]
    ).reshape(shots, draws)


def bulk_uniforms(seed, shots, draws, first_shot=0):
    """The first ``draws`` uniforms of shots first_shot .. first_shot + shots - 1, as (shots, draws), from the bulk kernel.

    Word w of a shot's stream is word w % 4 of word block w // 4
    (`_philox_words`), and each word becomes a double as `_unit` says.
    """
    ids = np.arange(first_shot, first_shot + shots, dtype=np.uint64)
    words = np.concatenate([simulator._philox_words(seed, ids, block) for block in range(-(-draws // 4))])
    return simulator._unit(words[:draws].T)


def reference_sample_distribution(probs, rng_seed, shots, postselect=()):
    """The per-shot walk `sample_distribution` replaced: the stage draws in order, then the outcome draw."""
    cumulative = np.cumsum(probs)
    counts = {}
    top = len(cumulative) - 1
    for shot in range(shots):
        g = shot_rng(rng_seed, shot)
        if all(g.random() < p for p in postselect):
            outcome = min(int(np.searchsorted(cumulative, g.random(), side="right")), top)
            counts[outcome] = counts.get(outcome, 0) + 1
    return counts


class TestShotUniforms:
    """The bulk Philox kernel's draws equal the per-shot substreams bit for bit."""

    @pytest.mark.parametrize("draws", range(1, 10))
    @pytest.mark.parametrize("seed", [0, 9, -3, 2**63 + 5, 2**64 - 1])
    def test_matches_shot_rng(self, seed, draws):
        u = bulk_uniforms(seed, 37, draws)
        assert u.shape == (37, draws) and u.dtype == np.float64
        assert np.array_equal(u, reference_uniforms(seed, 37, draws))

    @pytest.mark.parametrize("seed", [0, 2**64 - 1])
    def test_single_shot(self, seed):
        assert np.array_equal(bulk_uniforms(seed, 1, 6), reference_uniforms(seed, 1, 6))

    def test_more_than_one_chunk(self):
        shots = simulator._SHOT_CHUNK + 3
        assert np.array_equal(bulk_uniforms(11, shots, 1), reference_uniforms(11, shots, 1))

    def test_first_shot_offset(self):
        first = 3 * simulator._SHOT_CHUNK - 2
        assert np.array_equal(bulk_uniforms(5, 4, 5, first), reference_uniforms(5, 4, 5, first))


class TestSampleDistribution:
    """Chunked bulk sampling reproduces the per-shot loop's histogram."""

    @pytest.mark.parametrize("seed", [0, 7, 2**63 + 5])
    def test_random_probabilities(self, seed):
        probs = np.random.Generator(np.random.PCG64(seed)).dirichlet(np.ones(16))
        assert sample_distribution(probs, seed, 3000) == reference_sample_distribution(probs, seed, 3000)

    def test_total_below_one_clamps_to_top_outcome(self):
        probs = np.full(8, (1.0 - 1e-2) / 8)
        draws = bulk_uniforms(4, 2000, 1)
        assert np.any(draws >= np.cumsum(probs)[-1])
        expected = reference_sample_distribution(probs, 4, 2000)
        assert sample_distribution(probs, 4, 2000) == expected
        assert expected[7] > 2000 / 8 + 10

    @pytest.mark.parametrize("seed", [0, 9, -3])
    def test_single_shot(self, seed):
        probs = np.array([0.25, 0.5, 0.25])
        assert sample_distribution(probs, seed, 1) == reference_sample_distribution(probs, seed, 1)

    def test_shots_span_chunks(self, monkeypatch):
        probs = np.random.Generator(np.random.PCG64(3)).dirichlet(np.ones(5))
        expected = reference_sample_distribution(probs, 3, 2500)
        monkeypatch.setattr(simulator, "_SHOT_CHUNK", 1000)
        assert sample_distribution(probs, 3, 2500) == expected

    def test_more_than_one_default_chunk(self):
        probs = np.array([0.1, 0.2, 0.3, 0.4])
        shots = simulator._SHOT_CHUNK + 17
        assert sample_distribution(probs, 2, shots) == reference_sample_distribution(probs, 2, shots)

    def test_keys_ascending(self):
        counts = sample_distribution(np.full(8, 1 / 8), 1, 500)
        assert list(counts) == sorted(counts)


@pytest.fixture
def kernel_calls(monkeypatch):
    """(word block, shot count) of every `_philox_words` call the test makes."""
    calls = []
    kernel = simulator._philox_words

    def spy(seed, shots, block):
        calls.append((block, len(shots)))
        return kernel(seed, shots, block)

    monkeypatch.setattr(simulator, "_philox_words", spy)
    return calls


def stage_probabilities(n, seed, low=0.8):
    return np.random.Generator(np.random.PCG64(seed)).uniform(low, 1.0, n)


class TestPrunedSurvivalWalk:
    """Post-selected sampling, block by block on the survivors, equals the per-shot walk.

    With n stages the outcome is draw n, in word block n // 4: n = 3 and 7
    end a block, n = 4 and 8 start one, and n = 11 takes three blocks.
    """

    PROBS = np.random.Generator(np.random.PCG64(5)).dirichlet(np.ones(16))

    @pytest.mark.parametrize("n", [3, 4, 7, 8, 11])
    @pytest.mark.parametrize("seed", [1, 2**64 - 1])
    def test_matches_per_shot_walk(self, n, seed):
        stages = stage_probabilities(n, n)
        expected = reference_sample_distribution(self.PROBS, seed, 1500, stages)
        assert 0 < sum(expected.values()) < 1500
        assert sample_distribution(self.PROBS, seed, 1500, stages) == expected

    @pytest.mark.parametrize("n", [3, 4, 7, 8, 11])
    def test_computes_each_block_for_the_survivors_only(self, n, kernel_calls):
        stages = stage_probabilities(n, n)
        sample_distribution(self.PROBS, 3, 1200, stages)
        passed = np.cumprod(reference_uniforms(3, 1200, n) < stages, axis=1)
        assert kernel_calls == [(b, int(np.sum(passed[:, 4 * b - 1])) if b else 1200) for b in range(n // 4 + 1)]

    @pytest.mark.parametrize("n", [3, 4, 7, 8, 11])
    def test_zero_stage_rejects_every_shot_in_block_zero(self, n, kernel_calls):
        stages = stage_probabilities(n, n)
        stages[0] = 0.0
        assert sample_distribution(self.PROBS, 4, 300, stages) == {}
        assert kernel_calls == [(b, 0 if b else 300) for b in range(n // 4 + 1)]

    @pytest.mark.parametrize("n", [3, 4, 8, 11])
    def test_certain_stage(self, n):
        stages = stage_probabilities(n, n + 1)
        stages[n // 2] = 1.0
        expected = reference_sample_distribution(self.PROBS, 6, 1000, stages)
        assert sample_distribution(self.PROBS, 6, 1000, stages) == expected

    @pytest.mark.parametrize("n", [4, 11])
    def test_shots_span_small_chunks(self, n, monkeypatch):
        stages = stage_probabilities(n, n)
        expected = reference_sample_distribution(self.PROBS, 9, 1037, stages)
        monkeypatch.setattr(simulator, "_SHOT_CHUNK", 100)
        assert sample_distribution(self.PROBS, 9, 1037, stages) == expected

    def test_shots_span_default_chunks(self):
        stages = stage_probabilities(7, 7, low=0.9)
        shots = simulator._SHOT_CHUNK + 37
        expected = reference_sample_distribution(self.PROBS, 10, shots, stages)
        assert sample_distribution(self.PROBS, 10, shots, stages) == expected


class TestMeasureAncillaPostselect:
    """Post-selection seen from a raw one-ancilla array: the state is its 0-half.

    `measure_ancilla_postselect` reads that half's squared norm and
    renormalises it in place; the 1-half is never read or written.
    """

    def test_ancilla_in_zero(self):
        sv = prepared_state(t=1, n=2)
        raw = into_ancilla_half(sv, None)
        before = raw.copy()
        p = measure_ancilla_postselect(sv)
        assert p == pytest.approx(1.0, abs=1e-12)
        assert np.max(np.abs(raw - before)) <= 1e-12

    def test_balanced_ancilla_has_half_probability(self):
        sv = prepared_state(t=1, n=2)
        raw = into_ancilla_half(sv, sv.amplitudes)
        raw *= math.sqrt(0.5)
        p = measure_ancilla_postselect(sv)
        assert p == pytest.approx(0.5)
        assert np.allclose(raw[0], raw[1] * math.sqrt(2.0), rtol=0, atol=1e-15)
        assert np.array_equal(raw[1], math.sqrt(0.5) * grouped(prepared_state(t=1, n=2)))

    def test_block_encoded_contraction_zero_probability(self):
        # One application of the encoded 0.9*I slot operator on the
        # antisymmetric state: P(ancilla reads 0) = |det(0.9 I)|^2 = 0.81^2.
        # The stage leaves the ancilla-0 branch; the 1-half takes the rest.
        sv = prepared_state(t=1, n=2)
        g = grouped(sv)
        g[..., [0, 1]] = g[..., [1, 0]]  # put the control qubit into |1>
        rest = math.sqrt(1.0 - 0.81**2) * sv.amplitudes
        controlled_block_stage(sv, 0, 0.9 * np.eye(2, dtype=complex))
        raw = into_ancilla_half(sv, rest)
        assert np.sum(np.abs(raw) ** 2) == pytest.approx(1.0, abs=1e-10)
        assert measure_ancilla_postselect(sv) == pytest.approx(0.81**2, abs=1e-10)
        assert np.array_equal(raw[1], grouped(StateVector(layout=sv.layout, amplitudes=rest)))

    def test_zero_probability_helper_matches_postselect(self):
        sv = prepared_state(t=1, n=2)
        raw = into_ancilla_half(sv, 3.0 * sv.amplitudes)
        raw /= np.linalg.norm(raw)
        p = ancilla_zero_probability(sv)
        p_selected = measure_ancilla_postselect(sv)
        assert p == pytest.approx(0.1)
        assert p_selected == p


class TestPostselectAncillaZero:
    """The contraction pipeline's post-selection: the state is the ancilla-0 branch, P(0) its squared norm."""

    def test_ancilla_in_zero(self):
        sv = prepared_state(t=1, n=2)
        before = sv.amplitudes.copy()
        p = measure_ancilla_postselect(sv)
        assert p == pytest.approx(1.0, abs=1e-12)
        assert np.max(np.abs(sv.amplitudes - before)) <= 1e-12

    def test_balanced_ancilla_has_half_probability(self):
        sv = prepared_state(t=1, n=2)
        sv.amplitudes *= math.sqrt(0.5)
        before = sv.amplitudes.copy()
        buffer = sv.amplitudes
        p = measure_ancilla_postselect(sv)
        assert p == pytest.approx(0.5)
        assert np.shares_memory(sv.amplitudes, buffer)
        assert np.allclose(sv.amplitudes, before * math.sqrt(2.0), rtol=0, atol=1e-15)
        assert sv.norm_sq() == pytest.approx(1.0, abs=1e-12)

    def test_block_encoded_contraction_zero_probability(self):
        # As in TestMeasureAncillaPostselect: P(ancilla reads 0) = 0.81^2.
        sv = prepared_state(t=1, n=2)
        g = grouped(sv)
        g[..., [0, 1]] = g[..., [1, 0]]
        controlled_block_stage(sv, 0, 0.9 * np.eye(2, dtype=complex))
        assert measure_ancilla_postselect(sv) == pytest.approx(0.81**2, abs=1e-10)

    @pytest.mark.parametrize("offset", [0, 2])
    def test_same_bits_and_state_as_measure_ancilla_postselect(self, offset):
        # The branch on its own against the one-ancilla array whose 0-half
        # holds it and whose 1-half holds the rest of the norm: P(0) is the
        # 0-half's squared norm and the state is that half renormalised by hand.
        layout = QubitLayout(t=3, n_particles=2)
        rng = np.random.Generator(np.random.PCG64(91 + offset))
        size = 1 << layout.total_qubits
        sv = StateVector(layout=layout, amplitudes=random_amplitudes(rng, size, 0.7))
        raw = with_ancilla(sv, random_amplitudes(rng, size, 0.3))
        p0 = np.vdot(raw[0], raw[0]).real
        p = measure_ancilla_postselect(sv)
        assert p == p0 == pytest.approx(0.7)
        assert np.array_equal(sv.amplitudes, (raw[0] / math.sqrt(p0)).reshape(-1))

    def test_empty_zero_branch_leaves_state(self):
        sv = prepared_state(t=1, n=2)
        sv.amplitudes[:] = 0.0
        before = sv.amplitudes.copy()
        assert measure_ancilla_postselect(sv) == 0.0
        assert np.array_equal(sv.amplitudes, before)

    def test_rejects_branch_that_gained_norm(self):
        # A contraction cannot add norm: a branch of squared norm 1.01 is a fault.
        sv = prepared_state(t=2, n=2)
        sv.amplitudes *= math.sqrt(1.01)
        with pytest.raises(VerificationError, match="squared norm"):
            measure_ancilla_postselect(sv)


class TestControlledBlockStage:
    def test_unitary_input_matches_power_stage(self):
        u = haar_unitary(2, 44)
        sv_block = prepared_state(t=2, n=2)
        hadamard_layer(sv_block)
        controlled_block_stage(sv_block, 0, u)

        sv_power = prepared_state(t=2, n=2)
        hadamard_layer(sv_power)
        controlled_power_stage(sv_power, 0, u)

        assert np.max(np.abs(sv_block.amplitudes - sv_power.amplitudes)) <= 1e-9
        assert ancilla_zero_probability(sv_block) == pytest.approx(1.0, abs=1e-12)

    @pytest.mark.parametrize("m", [0, 1])
    def test_contraction_scales_asym_component(self, m):
        a = 0.9 * np.eye(2, dtype=complex)
        sv = prepared_state(t=2, n=2)
        g = grouped(sv)
        g[..., [0, 1 << m]] = g[..., [1 << m, 0]]  # control qubit m to |1>
        controlled_block_stage(sv, m, mat_pow2(a, m))
        p = measure_ancilla_postselect(sv)
        assert p == pytest.approx((0.81 ** (2**m)) ** 2, abs=1e-10)

    def test_zero_matrix_flips_ancilla(self):
        # The block encoding of 0 sends the ancilla to |1>: no ancilla-0 branch is left.
        sv = prepared_state(t=1, n=2)
        g = grouped(sv)
        g[..., [0, 1]] = g[..., [1, 0]]
        controlled_block_stage(sv, 0, np.zeros((2, 2)))
        assert ancilla_zero_probability(sv) == 0.0

    def test_rejects_expanding_or_misshapen_operator(self):
        sv = prepared_state(t=1, n=2)
        with pytest.raises(ValidationError, match="not a contraction"):
            controlled_block_stage(sv, 0, 1.5 * np.eye(2))
        with pytest.raises(ValidationError, match="slots hold 2 labels"):
            controlled_block_stage(sv, 0, 0.5 * np.eye(8))

    def test_clears_the_checked_norm(self):
        # The block stage changes the norm and does not check it, so the next
        # power stage must read the norm from the state.
        sv = prepared_state(t=2, n=2)
        hadamard_layer(sv)
        controlled_block_stage(sv, 0, 0.5 * np.eye(2))
        with pytest.raises(VerificationError, match="m=1"):
            controlled_power_stage(sv, 1, np.eye(2))

    def test_rejects_bad_stage_index(self):
        sv = prepared_state(t=2, n=2)
        for m in (-1, 2):
            with pytest.raises(ValidationError, match="outside phase register"):
                controlled_block_stage(sv, m, 0.5 * np.eye(2))

    @pytest.mark.parametrize("t", [1, 3, 5])
    @pytest.mark.parametrize("n", [2, 4])
    def test_matches_dense_block_encoding(self, n, t):
        # The stage leaves the ancilla-0 half of the dense encoding's output
        # on an input whose ancilla reads 0.  The slot-wise stage reorders the
        # arithmetic, so it is held to 1e-12 against it rather than bit for bit.
        layout = QubitLayout(t=t, n_particles=n)
        rng = np.random.Generator(np.random.PCG64(2000 * n + t))
        a = random_contraction(n, 500 + t)
        for m in range(t):
            a_m = mat_pow2(a, m)
            sv = StateVector(layout=layout, amplitudes=random_amplitudes(rng, 1 << layout.total_qubits))
            expected = with_ancilla(sv)
            buffer = sv.amplitudes
            controlled_block_stage(sv, m, a_m)
            reference_block_stage(expected, layout, m, block_encode(kron_power(a_m, n)))
            assert np.shares_memory(sv.amplitudes, buffer)
            assert np.max(np.abs(sv.amplitudes - expected[0].reshape(-1))) <= 1e-12, m

    @pytest.mark.parametrize("t", [1, 3, 5])
    @pytest.mark.parametrize("n", [2, 4])
    def test_in_place_in_the_ancilla_0_half(self, n, t):
        # The state as the 0-half of a raw one-ancilla array: the stage
        # writes that half in place, as the dense encoding's ancilla-0
        # output, and leaves the 1-half as it was.
        layout = QubitLayout(t=t, n_particles=n)
        rng = np.random.Generator(np.random.PCG64(3000 * n + t))
        a = random_contraction(n, 500 + t)
        for m in range(t):
            a_m = mat_pow2(a, m)
            sv = StateVector(layout=layout, amplitudes=random_amplitudes(rng, 1 << layout.total_qubits))
            expected = with_ancilla(sv)
            raw = into_ancilla_half(sv, random_amplitudes(rng, sv.amplitudes.size))
            rest = raw[1].copy()
            controlled_block_stage(sv, m, a_m)
            reference_block_stage(expected, layout, m, block_encode(kron_power(a_m, n)))
            assert np.shares_memory(sv.amplitudes, raw[0])
            assert np.max(np.abs(sv.amplitudes - expected[0].reshape(-1))) <= 1e-12, m
            assert np.array_equal(raw[1], rest), m


class TestPipelineInvariants:
    def test_norm_preserved_through_full_run(self):
        t, n = 3, 2
        u = haar_unitary(n, 60)
        sv = prepared_state(t=t, n=n)
        for step in (hadamard_layer,):
            step(sv)
            assert abs(sv.norm_sq() - 1.0) <= 1e-10
        for m in range(t):
            controlled_power_stage(sv, m, mat_pow2(u, m))
            assert abs(sv.norm_sq() - 1.0) <= 1e-10
        inverse_qft(sv)
        assert abs(sv.norm_sq() - 1.0) <= 1e-10

    def test_counter_exactness(self):
        t, n = 4, 2
        u = haar_unitary(n, 61)
        sv = prepared_state(t=t, n=n)
        hadamard_layer(sv)
        for m in range(t):
            controlled_power_stage(sv, m, mat_pow2(u, m))
        inverse_qft(sv)
        assert sv.counters.controlled_slot_applications == t * n

    def test_dyadic_phase_is_deterministic(self):
        t, k0 = 3, 6
        u = np.diag([np.exp(2j * math.pi * k0 / 2**t), 1.0])
        sv = prepared_state(t=t, n=2)
        hadamard_layer(sv)
        for m in range(t):
            controlled_power_stage(sv, m, mat_pow2(u, m))
        inverse_qft(sv)
        probs = register_probabilities(sv)
        assert probs[k0] >= 1.0 - 1e-9

    def test_concentration_bound(self):
        t = 5
        for seed in range(10):
            u = haar_unitary(2, 700 + seed)
            phi = det_lu(u).phase
            sv = prepared_state(t=t, n=2)
            hadamard_layer(sv)
            for m in range(t):
                controlled_power_stage(sv, m, mat_pow2(u, m))
            inverse_qft(sv)
            probs = register_probabilities(sv)
            k_star = int(round(phi / TWO_PI * 2**t)) % 2**t
            assert probs[k_star] >= 4.0 / math.pi**2 - 1e-9

    def test_slot_register_stays_antisymmetric(self):
        t, n = 3, 2
        u = haar_unitary(n, 62)
        sv = prepared_state(t=t, n=n)
        state = asym_state(n)
        hadamard_layer(sv)
        for m in range(t):
            controlled_power_stage(sv, m, mat_pow2(u, m))
            assert asym_weight(sv, state) >= 1.0 - 1e-9
        inverse_qft(sv)
        assert asym_weight(sv, state) >= 1.0 - 1e-9


def asym_weight(sv, state):
    """Probability weight of the slot register's component along ``state``."""
    vec = slot_register_vector(state, sv.layout)
    return float(np.sum(np.abs(vec.conj() @ grouped(sv)) ** 2))


def _phase_indices_with_bit(t, m, value):
    j = np.arange(1 << t)
    return np.nonzero(((j >> m) & 1) == value)[0]


def reference_hadamard_layer(sv):
    """Fancy-index gather/scatter form of `hadamard_layer`."""
    t = sv.layout.t
    flat = sv.amplitudes.reshape(-1, 1 << t)
    inv_sqrt2 = 1.0 / math.sqrt(2.0)
    for m in range(t):
        low = _phase_indices_with_bit(t, m, 0)
        high = low + (1 << m)
        a = flat[:, low]
        b = flat[:, high]
        flat[:, low] = (a + b) * inv_sqrt2
        flat[:, high] = (a - b) * inv_sqrt2


def reference_power_stage(sv, m, u_m):
    """Fancy-index gather/scatter form of `controlled_power_stage`."""
    lay = sv.layout
    n = lay.n_particles
    tensor = sv.amplitudes.reshape((n,) * n + (lay.phase_dim,))
    selected = _phase_indices_with_bit(lay.t, m, 1)
    sub = tensor[..., selected]
    for s in range(n):
        axis = n - 1 - s
        sub = np.moveaxis(np.tensordot(u_m, sub, axes=([1], [axis])), 0, axis)
    tensor[..., selected] = sub


def reference_block_stage(split, lay, m, v_m):
    """Dense form of `controlled_block_stage` on a raw (2, slots, phase) array: ``v_m`` is the full block encoding."""
    d = lay.slot_dim
    asym_vec = slot_register_vector(asym_state(lay.n_particles), lay)
    eigenvalue = complex(np.vdot(asym_vec, v_m[:d, :d] @ asym_vec))
    rho = min(abs(eigenvalue), 1.0)
    leak_sq = max(0.0, 1.0 - rho * rho)
    rho, leak = (1.0, 0.0) if leak_sq < 1e-11 else (rho, math.sqrt(leak_sq))

    on = _phase_indices_with_bit(lay.t, m, 1)
    sub = split[..., on]
    k = sub.shape[-1]
    joint = sub.transpose(2, 0, 1).reshape(k, 2 * d) @ v_m.T
    split[..., on] = joint.reshape(k, 2, d).transpose(1, 2, 0)
    off = _phase_indices_with_bit(lay.t, m, 0)
    sub0 = split[..., off]
    b0 = rho * sub0[0] + leak * sub0[1]
    b1 = leak * sub0[0] - rho * sub0[1]
    sub0[0] = b0
    sub0[1] = b1
    split[..., off] = sub0


class TestPhaseBitViewGates:
    """The view-based gates reproduce the fancy-index reference bit for bit, in place.

    With ``ancilla_half`` the state is the 0-half of a raw one-ancilla array,
    as the ancilla-0 branch of a block encoding is, and the gate must leave
    the 1-half as it was.
    """

    @pytest.mark.parametrize("ancilla_half", [False, True])
    @pytest.mark.parametrize("t", [1, 2, 3, 4, 5, 6])
    @pytest.mark.parametrize("n", [2, 4])
    def test_bit_exact_and_in_place(self, n, t, ancilla_half):
        layout = QubitLayout(t=t, n_particles=n)
        rng = np.random.Generator(np.random.PCG64(1000 * n + 10 * t + ancilla_half))
        u = haar_unitary(n, 300 + t)
        cases = [(hadamard_layer, reference_hadamard_layer, ())]
        for m in range(t):
            cases.append((controlled_power_stage, reference_power_stage, (m, mat_pow2(u, m))))
        for gate, reference, args in cases:
            amps = rng.standard_normal(1 << layout.total_qubits) + 1j * rng.standard_normal(
                1 << layout.total_qubits
            )
            amps /= np.linalg.norm(amps)
            if gate is hadamard_layer:  # defined on the |0> phase register load_asym leaves
                amps = prepared_state(t, n).amplitudes
            sv = StateVector(layout=layout, amplitudes=amps.copy())
            expected = StateVector(layout=layout, amplitudes=amps.copy())
            raw = into_ancilla_half(sv, random_amplitudes(rng, amps.size)) if ancilla_half else None
            rest = None if raw is None else raw[1].copy()
            buffer = sv.amplitudes
            gate(sv, *args)
            reference(expected, *args)
            assert np.shares_memory(sv.amplitudes, buffer), gate.__name__
            assert np.array_equal(sv.amplitudes, expected.amplitudes), (gate.__name__, args[:1])
            if raw is not None:
                assert np.array_equal(raw[1], rest), gate.__name__


def one_block(monkeypatch, sv):
    """Make the state one slot-wise block: a stage's matmuls then span all of its columns at once."""
    monkeypatch.setattr(simulator, "_BLOCK_BYTES", sv.amplitudes.nbytes)


def with_workers(monkeypatch, workers):
    """Run slot-wise stages on ``workers`` threads where they have that many blocks, whatever the CPU count."""
    monkeypatch.setattr(simulator, "_worker_count", lambda cuts: min(cuts, workers))


def spy_jobs(monkeypatch, hook=None):
    """Record the (thread, OpenBLAS thread count) of each job, one list per `_deal` call; then run ``hook()``.

    Each job's value, and `_deal`'s result, are passed through.
    """
    deals = []
    deal = simulator._deal
    api = simulator._openblas()

    def spy(levels, *args, **kwargs):
        calls = []
        deals.append(calls)

        def recorded(job):
            def run(buffers):
                calls.append((threading.current_thread(), api and api[0]()))
                if hook:
                    hook()
                return job(buffers)

            return run

        return deal([[recorded(job) for job in level] for level in levels], *args, **kwargs)

    monkeypatch.setattr(simulator, "_deal", spy)
    return deals


needs_openblas = pytest.mark.skipif(simulator._openblas() is None, reason="numpy's BLAS is not OpenBLAS")


def unblocked_transform(fft):
    """`inverse_qft` (np.fft.fft) or `qft` (np.fft.ifft) binding a new buffer, as before blocking."""

    def reference(sv):
        flat = sv.amplitudes.reshape(-1, sv.layout.phase_dim)
        sv.amplitudes = np.ascontiguousarray(fft(flat, axis=1, norm="ortho")).reshape(-1)

    return reference


def unblocked_probabilities(sv):
    """`register_probabilities` before blocking: the squared moduli of the whole state at once."""
    return (np.abs(grouped(sv)) ** 2).sum(axis=0)


#: Block sizes of the bit-exact tests, in phase rows: half a row (a row
#: exceeds a block and is cut into pieces) and three rows (several rows a
#: block, the last block short, since every layout has a power-of-two row
#: count).  `test_block_sizes_reach_every_regime` checks that these give
#: every regime, and that slot-wise blocks cut the state.
ROWS_PER_BLOCK = (0.5, 3)


def block_bytes(layout, rows):
    return int(rows * 16 * layout.phase_dim)


class TestBlockedKernels:
    """Every blocked kernel equals its unblocked form bit for bit, at any block size.

    ``ancilla_half`` is as in `TestPhaseBitViewGates`.
    """

    @pytest.mark.parametrize("rows", ROWS_PER_BLOCK)
    @pytest.mark.parametrize("ancilla_half", [False, True])
    @pytest.mark.parametrize("t", [1, 2, 3, 4, 5, 6])
    @pytest.mark.parametrize("n", [2, 4])
    def test_bit_exact_and_in_place(self, n, t, ancilla_half, rows):
        for workers in (1, 2):
            with pytest.MonkeyPatch.context() as monkeypatch:
                with_workers(monkeypatch, workers)
                self.check_bit_exact_and_in_place(monkeypatch, n, t, ancilla_half, rows)

    def check_bit_exact_and_in_place(self, monkeypatch, n, t, ancilla_half, rows):
        # The stage gates are plain, one matmul pass whatever the block size:
        # `TestPhaseBitViewGates` and `TestControlledBlockStage` check them.
        layout = QubitLayout(t=t, n_particles=n)
        rng = np.random.Generator(np.random.PCG64(int(2 * rows) + 100 * n + 10 * t + ancilla_half))
        cases = [
            (hadamard_layer, reference_hadamard_layer, ()),
            (inverse_qft, unblocked_transform(np.fft.fft), ()),
            (qft, unblocked_transform(np.fft.ifft), ()),
        ]
        monkeypatch.setattr(simulator, "_BLOCK_BYTES", block_bytes(layout, rows))
        for gate, reference, args in cases:
            amps = rng.standard_normal(1 << layout.total_qubits) + 1j * rng.standard_normal(
                1 << layout.total_qubits
            )
            amps /= np.linalg.norm(amps)
            if gate is hadamard_layer:
                amps = prepared_state(t, n).amplitudes
            sv = StateVector(layout=layout, amplitudes=amps.copy())
            expected = StateVector(layout=layout, amplitudes=amps.copy())
            raw = into_ancilla_half(sv, random_amplitudes(rng, amps.size)) if ancilla_half else None
            rest = None if raw is None else raw[1].copy()
            buffer = sv.amplitudes
            gate(sv, *args)
            with monkeypatch.context() as unblocked:
                one_block(unblocked, expected)
                reference(expected, *args)
            assert np.shares_memory(sv.amplitudes, buffer), gate.__name__
            assert np.array_equal(sv.amplitudes, expected.amplitudes), (gate.__name__, args[:1])
            if raw is not None:
                assert np.array_equal(raw[1], rest), gate.__name__
        assert np.array_equal(register_probabilities(sv), unblocked_probabilities(sv))

    def test_block_sizes_reach_every_regime(self, monkeypatch):
        seen = set()
        for n, t, rows_per_block in itertools.product((2, 4), (1, 3, 5), ROWS_PER_BLOCK):
            layout = QubitLayout(t=t, n_particles=n)
            monkeypatch.setattr(simulator, "_BLOCK_BYTES", block_bytes(layout, rows_per_block))
            fit = simulator._BLOCK_BYTES // 16  # amplitudes a block holds
            per = fit // layout.phase_dim  # whole phase rows a block holds
            if fit < layout.phase_dim:
                seen.add("a phase row exceeds a block")
            if 1 < per < layout.slot_dim:
                seen.add("several phase rows a block")
            if per and layout.slot_dim % per:
                seen.add("short last block")
            if simulator._block_width(layout) < layout.phase_dim:
                seen.add("slot-wise blocks cut the state")
        assert len(seen) == 4, seen

    def test_hadamard_bit_exact_at_default_block_size(self):
        # From 1 qubit to phase rows longer than a block (t = 17).  Phase rows transform independently, so the
        # reference runs on the N! rows load_asym makes nonzero (on the whole
        # N = 4, t = 14 state it takes seconds); every other row stays zero.
        sizes = ((2, 1), (2, 3), (2, 17), (4, 1), (4, 3), (4, 14))
        for n, t in sizes:
            sv = prepared_state(t, n)
            rows = sv.amplitudes.reshape(-1, sv.layout.phase_dim)
            nonzero = np.flatnonzero(rows[:, 0])
            assert len(nonzero) == math.factorial(n)
            expected = StateVector(layout=sv.layout, amplitudes=rows[nonzero].reshape(-1))
            hadamard_layer(sv)
            reference_hadamard_layer(expected)
            assert np.array_equal(rows[nonzero].reshape(-1), expected.amplitudes), (n, t)
            assert np.count_nonzero(rows) == expected.amplitudes.size, (n, t)


class TestDealtProbabilities:
    """`register_probabilities` deals one job per half of the phase columns, or one job."""

    @pytest.mark.parametrize("block", [None, 1 << 12, 1 << 8], ids=["default", "4KiB", "256B"])
    @pytest.mark.parametrize("t", [1, 2, 3, 4, 5, 6])
    @pytest.mark.parametrize("n", [2, 4])
    def test_bit_exact_with_the_unblocked_sum(self, monkeypatch, n, t, block):
        # At N = 4, t = 1 and 4 KiB the 8 KiB state exceeds a block, but a
        # half would be one column, which numpy sums pairwise: one job.
        layout = QubitLayout(t=t, n_particles=n)
        rng = np.random.Generator(np.random.PCG64(100 * n + t))
        sv = StateVector(layout=layout, amplitudes=random_amplitudes(rng, 1 << layout.total_qubits))
        expected = unblocked_probabilities(sv)
        if block is not None:
            monkeypatch.setattr(simulator, "_BLOCK_BYTES", block)
        for workers in (1, 2):
            with_workers(monkeypatch, workers)
            assert np.array_equal(register_probabilities(sv), expected), workers

    @pytest.mark.parametrize(
        "n, t, block, jobs",
        [(4, 14, None, 2), (4, 3, None, 1), (2, 6, None, 1), (4, 1, 1 << 12, 1), (4, 2, 1 << 12, 2)],
        ids=["qde-phase", "N4-fits", "N2-fits", "one-column-halves", "two-column-halves"],
    )
    def test_one_job_per_half_on_two_workers(self, monkeypatch, n, t, block, jobs):
        if block is not None:
            monkeypatch.setattr(simulator, "_BLOCK_BYTES", block)
        with_workers(monkeypatch, 2)
        deals = spy_jobs(monkeypatch)
        register_probabilities(init_state(QubitLayout(t=t, n_particles=n)))
        assert [len(calls) for calls in deals] == [jobs]
        assert len({thread for thread, _ in deals[0]}) == jobs


#: Jobs per level of `recording_levels`.
DEAL_LEVELS = (1, 3, 5, 2)


def recording_levels(events, fail=None):
    """Levels of `DEAL_LEVELS` jobs, each appending (event, level, index, thread, OpenBLAS threads) to ``events``.

    Odd jobs sleep before they return (level, index), so a worker that
    passed a barrier early would start a job of the next level first.  The
    job at ``fail``, a (level, index) pair, raises instead.
    """

    def job(k, i):
        def run(buffers):
            api = simulator._openblas()
            events.append(("start", k, i, threading.current_thread(), api and api[0]()))
            if (k, i) == fail:
                raise RuntimeError(f"job {i} of level {k} failed")
            time.sleep(0.005 * (i % 2))
            events.append(("end", k, i, threading.current_thread(), None))
            return k, i

        return run

    return [[job(k, i) for i in range(n)] for k, n in enumerate(DEAL_LEVELS)]


def deal_within(levels, **kwargs):
    """Run `_deal` on ``levels`` from a new caller thread, joined with a timeout; return it and what it raised."""
    raised = []

    def deal():
        try:
            simulator._deal(levels, **kwargs)
        except RuntimeError as exc:
            raised.append(exc)

    caller = threading.Thread(target=deal, daemon=True)
    caller.start()
    caller.join(timeout=30)
    assert not caller.is_alive()
    return caller, raised


class TestDeal:
    """The dealer on synthetic levels of recording jobs, with no pass involved."""

    @pytest.mark.parametrize("workers", [1, 2, 3])
    def test_each_job_runs_once_on_worker_index_mod_workers(self, monkeypatch, workers):
        with_workers(monkeypatch, workers)
        events = []
        caller, raised = deal_within(recording_levels(events), blas=False)
        assert not raised
        starts = [(k, i, thread) for event, k, i, thread, _ in events if event == "start"]
        assert sorted((k, i) for k, i, _ in starts) == [(k, i) for k, n in enumerate(DEAL_LEVELS) for i in range(n)]
        threads = [{thread for _, i, thread in starts if i % workers == w} for w in range(workers)]
        assert all(len(worker) == 1 for worker in threads)
        assert threads[0] == {caller}
        assert len(set.union(*threads)) == workers

    @pytest.mark.parametrize("workers", [1, 2, 3])
    def test_returns_each_value_by_level_and_index(self, monkeypatch, workers):
        # Odd jobs return last, on whichever worker took them.
        with_workers(monkeypatch, workers)
        values = simulator._deal(recording_levels([]), blas=False)
        assert values == [[(k, i) for i in range(n)] for k, n in enumerate(DEAL_LEVELS)]

    @pytest.mark.parametrize("workers", [2, 3])
    def test_no_level_starts_before_the_one_before_returns(self, monkeypatch, workers):
        with_workers(monkeypatch, workers)
        events = []
        assert not deal_within(recording_levels(events), blas=False)[1]
        for k in range(len(DEAL_LEVELS) - 1):
            ends = [p for p, (event, level, *_) in enumerate(events) if event == "end" and level == k]
            starts = [p for p, (event, level, *_) in enumerate(events) if event == "start" and level == k + 1]
            assert max(ends) < min(starts), k

    @pytest.mark.parametrize("fail", [None, (2, 0), (2, 1)], ids=["none", "caller", "helper"])
    def test_an_error_reaches_the_caller_and_every_thread_ends(self, monkeypatch, fail):
        # A stand-in OpenBLAS at 3 threads: the jobs run at 1, and the count
        # is restored.  Job 0 of a level runs on the caller, job 1 on the helper.
        with_workers(monkeypatch, 2)
        count = [3]
        sets = []

        def put(threads):
            sets.append(threads)
            count[0] = threads

        monkeypatch.setattr(simulator, "_openblas", lambda: (lambda: count[0], put))
        events = []
        threads = threading.active_count()
        caller, raised = deal_within(recording_levels(events, fail))
        assert threading.active_count() == threads
        assert count[0] == 3
        assert sets == [1, 3]
        starts = [(k, i, thread, blas) for event, k, i, thread, blas in events if event == "start"]
        assert {blas for *_, blas in starts} == {1}
        assert len({thread for _, _, thread, _ in starts}) == 2
        if fail is None:
            assert not raised
            assert len(starts) == sum(DEAL_LEVELS)
        else:
            assert [str(exc) for exc in raised] == [f"job {fail[1]} of level 2 failed"]
            assert [thread is caller for k, i, thread, _ in starts if (k, i) == fail] == [fail[1] == 0]
            assert max(k for k, *_ in starts) == 2  # no job of level 3 ran


class TestSlotwiseWorkers:
    """The one pass on several threads: errors, OpenBLAS's thread count."""

    def test_worker_exception_reaches_the_caller(self, monkeypatch):
        # A stand-in OpenBLAS at 3 threads: the pass whose helper raises
        # still restores the count it set to 1, and its helper ran at 1 thread.
        layout = QubitLayout(t=6, n_particles=4)
        monkeypatch.setattr(simulator, "_BLOCK_BYTES", 4 * 16 * layout.slot_dim)
        with_workers(monkeypatch, 2)
        count = [3]
        sets = []

        def put(threads):
            sets.append(threads)
            count[0] = threads

        monkeypatch.setattr(simulator, "_openblas", lambda: (lambda: count[0], put))

        def failing():
            if threading.current_thread() is not threading.main_thread():
                raise RuntimeError("helper failed")

        deals = spy_jobs(monkeypatch, failing)
        threads = threading.active_count()
        with pytest.raises(RuntimeError, match="helper failed"):
            prepare_power_stages(layout, [haar_unitary(4, 71)] * layout.t)
        assert threading.active_count() == threads
        assert [{(thread is threading.main_thread(), count) for thread, count in calls} for calls in deals] == [
            {(True, 1), (False, 1)}
        ]
        assert sets == [1, 3]

    @needs_openblas
    @pytest.mark.parametrize("fails", [False, True])
    def test_run_restores_the_openblas_thread_count(self, monkeypatch, fails):
        # A run's one blocked pass on two threads sets the count to 1 and
        # restores it, also in a run whose stage 3 then fails its norm
        # check; the run leaves the count as it found it.
        get, put = simulator._openblas()
        layout = QubitLayout(t=6, n_particles=4)
        monkeypatch.setattr(simulator, "_BLOCK_BYTES", block_bytes(layout, 3))
        with_workers(monkeypatch, 2)
        deals = spy_jobs(monkeypatch)
        sets = []

        def recording_put(count):
            sets.append(count)
            put(count)

        monkeypatch.setattr(simulator, "_openblas", lambda: (get, recording_put))
        if fails:
            powers = qde.stage_powers
            monkeypatch.setattr(
                qde, "stage_powers", lambda u, t: (p * (1.001 if m == 3 else 1.0) for m, p in enumerate(powers(u, t)))
            )
        before = get()
        put(2)
        try:
            if fails:
                with pytest.raises(VerificationError, match="m=3$"):
                    qde.qde_run(haar_unitary(4, 90), 6, 10, 1)
            else:
                qde.qde_run(haar_unitary(4, 90), 6, 10, 1)
            assert get() == 2
        finally:
            put(before)
        calls = deals[0]  # the pass's jobs
        assert {thread is threading.main_thread() for thread, _ in calls} == {True, False}
        assert {count for _, count in calls} == {1}
        assert sets == [1, 2]


class TestOpenblasLookup:
    """`_openblas` finds numpy's OpenBLAS through numpy's own extension."""

    @needs_openblas
    def test_finds_openblas_without_opening_a_file(self, monkeypatch):
        def refuse(*args, **kwargs):
            raise PermissionError(f"open{args} refused")

        monkeypatch.setattr("builtins.open", refuse)
        get, put = simulator._openblas.__wrapped__()
        monkeypatch.undo()
        cached_get, cached_put = simulator._openblas()
        before = cached_get()
        try:
            cached_put(1)
            assert get() == 1
            put(before)
            assert cached_get() == before
        finally:
            cached_put(before)

    @pytest.mark.parametrize("symbols", [{}, {"scipy_openblas_get_num_threads64_": lambda: 1}])
    def test_none_without_a_get_and_set_pair(self, monkeypatch, symbols):
        monkeypatch.setattr(simulator.ctypes, "CDLL", lambda path: types.SimpleNamespace(**symbols))
        assert simulator._openblas.__wrapped__() is None


#: A fresh interpreter that imports qdet first, idles 200 ms, and prints the
#: CPU its threads other than the main one used meanwhile (utime + stime,
#: fields 14 and 15 of each thread's stat), OpenBLAS's idle-thread timeout
#: and OpenBLAS's thread count.
IDLE_CHILD = """
import json, os, time
import qdet
from qdet import simulator
time.sleep(0.2)
ticks = 0
for tid in os.listdir("/proc/self/task"):
    if int(tid) != os.getpid():
        with open(f"/proc/self/task/{tid}/stat") as fh:
            fields = fh.read().rsplit(")", 1)[1].split()
        ticks += int(fields[11]) + int(fields[12])
get, _ = simulator._openblas()
print(json.dumps([ticks, os.environ.get("OPENBLAS_THREAD_TIMEOUT"), get()]))
"""


@pytest.mark.skipif(not sys.platform.startswith("linux"), reason="reads per-thread CPU time from /proc")
@needs_openblas
class TestOpenblasIdleThreads:
    """Importing qdet first makes OpenBLAS's idle pool threads sleep, unless the user set how they wait."""

    def idle_child(self, timeout):
        env = {k: v for k, v in os.environ.items() if k != "OPENBLAS_THREAD_TIMEOUT"}
        src = str(pathlib.Path(simulator.__file__).parents[1])
        env["PYTHONPATH"] = os.pathsep.join([src, env.get("PYTHONPATH", "")])
        if timeout is not None:
            env["OPENBLAS_THREAD_TIMEOUT"] = timeout
        done = subprocess.run([sys.executable, "-c", IDLE_CHILD], env=env, capture_output=True, text=True, timeout=60)
        assert done.returncode == 0, done.stderr
        ticks, kept, threads = json.loads(done.stdout)
        if threads < 2:
            pytest.skip("OpenBLAS runs one thread: it has no pool thread to idle")
        return ticks * 1000 / os.sysconf("SC_CLK_TCK"), kept

    def test_pool_thread_sleeps_after_import(self):
        # OpenBLAS's own default spins for about 90 ms of CPU after import.
        cpu_ms, kept = self.idle_child(None)
        assert cpu_ms < 30
        assert kept == "4"

    def test_a_value_the_user_set_is_kept(self):
        assert self.idle_child("28")[1] == "28"


def per_stage_run(layout, u):
    """`prepare_power_stages`' reference: the state preparation gates and one controlled-power stage at a time."""
    sv = prepared_state(layout.t, layout.n_particles)
    hadamard_layer(sv)
    for m in range(layout.t):
        controlled_power_stage(sv, m, mat_pow2(u, m))
    return sv


def power_block_bytes(layout):
    """Block sizes for `prepare_power_stages`: the default, about 256 blocks, and one phase column a block.

    At one column a block every stage past the seed is a level of
    one-column jobs (at N = 2 a block is the 16-column seed); it is tried
    where it makes at most 512 blocks.
    """
    sizes = [simulator._BLOCK_BYTES, max(1 << 14, 16 << layout.total_qubits >> 8)]
    if layout.t <= 9:
        sizes.append(16 * layout.slot_dim)
    return sizes


class TestPreparePowerStages:
    """The one-pass preparation and power stages against the per-stage gates."""

    @pytest.mark.parametrize("n, t", [(2, 1), (2, 3), (2, 9), (2, 14), (2, 17), (4, 1), (4, 3), (4, 9), (4, 14)])
    def test_bit_exact_with_the_per_stage_gates(self, monkeypatch, n, t):
        # N = 4, t = 17 is left out: its state is 512 MiB.
        layout = QubitLayout(t=t, n_particles=n)
        u = haar_unitary(n, 20 * n + t)
        expected = per_stage_run(layout, u)
        widths = set()
        for block in power_block_bytes(layout):
            monkeypatch.setattr(simulator, "_BLOCK_BYTES", block)
            widths.add(simulator._block_width(layout))
            for workers in (1, 2):
                with_workers(monkeypatch, workers)
                sv = prepare_power_stages(layout, [mat_pow2(u, m) for m in range(t)])
                assert np.array_equal(sv.amplitudes, expected.amplitudes), (block, workers)
                assert sv.counters == expected.counters
        if t >= 9:
            assert len(widths) == len(power_block_bytes(layout)), widths

    def test_more_workers_than_cores_under_fast_switching(self, monkeypatch):
        # Every worker writes its own blocks and norms; a lost or crossed
        # write changes the amplitudes or the record of prefix norms.
        layout = QubitLayout(t=6, n_particles=4)
        monkeypatch.setattr(simulator, "_BLOCK_BYTES", 4 * 16 * layout.slot_dim)
        powers = list(stage_powers(haar_unitary(4, 85), layout.t))
        with_workers(monkeypatch, 1)
        serial, serial_prefix = simulator.power_pass(layout, powers)
        with_workers(monkeypatch, 6)
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            for _ in range(5):
                sv, prefix = simulator.power_pass(layout, powers)
                assert np.array_equal(sv.amplitudes, serial.amplitudes)
                assert np.array_equal(prefix, serial_prefix)
        finally:
            sys.setswitchinterval(interval)

    @pytest.mark.parametrize("m", [0, 2, 5])
    def test_norm_drift_names_the_stage(self, monkeypatch, m):
        # Four columns a block: stages 0 and 1 write one and two columns, the rest whole blocks.
        layout = QubitLayout(t=6, n_particles=4)
        monkeypatch.setattr(simulator, "_BLOCK_BYTES", 4 * 16 * layout.slot_dim)
        with_workers(monkeypatch, 2)
        u = haar_unitary(4, 80)
        powers = [mat_pow2(u, k) * (1.001 if k == m else 1.0) for k in range(layout.t)]
        with pytest.raises(VerificationError, match=rf"after controlled_power_stage m={m}$"):
            prepare_power_stages(layout, powers)

    def test_preparation_drift_is_named(self, monkeypatch):
        monkeypatch.setattr(simulator, "asym_state", lambda n: 1.001 * asym_state(n))
        with pytest.raises(VerificationError, match="after state preparation$"):
            prepare_power_stages(QubitLayout(t=3, n_particles=2), [np.eye(2)] * 3)

    def test_norm_checks_take_no_state_pass(self, monkeypatch):
        # Each block's norm is summed while it is in cache, so the checks add gains.
        layout = QubitLayout(t=6, n_particles=4)
        monkeypatch.setattr(simulator, "_BLOCK_BYTES", 4 * 16 * layout.slot_dim)
        check = simulator._assert_normalized
        checked = []

        def recorded(norm_sq, gate):
            checked.append(norm_sq)
            check(norm_sq, gate)

        monkeypatch.setattr(simulator, "_assert_normalized", recorded)
        monkeypatch.setattr(StateVector, "norm_sq", lambda self: pytest.fail("full-state norm pass"))
        sv = prepare_power_stages(layout, list(stage_powers(haar_unitary(4, 86), layout.t)))
        monkeypatch.undo()
        assert len(checked) == layout.t + 1
        assert checked[-1] == pytest.approx(sv.norm_sq(), abs=1e-13)

    def test_rejects_a_wrong_stage_count_or_shape(self):
        layout = QubitLayout(t=3, n_particles=2)
        with pytest.raises(ValidationError, match="2 stage operators"):
            prepare_power_stages(layout, [np.eye(2)] * 2)
        with pytest.raises(ValidationError, match="slots hold 2 labels"):
            prepare_power_stages(layout, [np.eye(4)] * 3)

    def test_worker_exception_reaches_the_caller(self, monkeypatch):
        layout = QubitLayout(t=6, n_particles=4)
        monkeypatch.setattr(simulator, "_BLOCK_BYTES", 4 * 16 * layout.slot_dim)
        with_workers(monkeypatch, 2)

        def failing():
            if threading.current_thread() is not threading.main_thread():
                raise RuntimeError("helper failed")

        deals = spy_jobs(monkeypatch, failing)
        threads = threading.active_count()
        with pytest.raises(RuntimeError, match="helper failed"):
            prepare_power_stages(layout, [haar_unitary(4, 81)] * layout.t)
        assert threading.active_count() == threads
        assert sorted({thread is threading.main_thread() for thread, _ in deals[0]}) == [False, True]

    @pytest.mark.parametrize("raiser, call", [("helper", 2), ("caller", 5)])
    def test_worker_raising_at_a_later_level_breaks_the_barrier(self, monkeypatch, raiser, call):
        # Four columns a block, 16 blocks: the caller runs levels 0 to 2 (one
        # job each, columns 1 to 7), then blocks 2, 4 and 6; the helper
        # blocks 3, 5 and 7.  Each raises at level 4, blocks 4 to 7, while the
        # other waits at, or heads for, the barrier.
        layout = QubitLayout(t=6, n_particles=4)
        monkeypatch.setattr(simulator, "_BLOCK_BYTES", 4 * 16 * layout.slot_dim)
        with_workers(monkeypatch, 2)
        matmuls = simulator._slot_matmuls
        counts = collections.Counter()
        raised = []

        def spy(*args):
            thread = threading.current_thread()
            counts[thread] += 1
            if (thread is runner) == (raiser == "caller") and counts[thread] == call:
                raise RuntimeError(f"{raiser} failed")
            return matmuls(*args)

        def run():
            try:
                prepare_power_stages(layout, list(stage_powers(haar_unitary(4, 82), layout.t)))
            except RuntimeError as exc:
                raised.append(exc)

        monkeypatch.setattr(simulator, "_slot_matmuls", spy)
        threads = threading.active_count()
        runner = threading.Thread(target=run, daemon=True)
        runner.start()
        runner.join(timeout=30)
        assert not runner.is_alive()
        assert [str(exc) for exc in raised] == [f"{raiser} failed"]
        assert len(counts) == 2
        assert threading.active_count() == threads

    @pytest.mark.parametrize("block_bytes, calls", [(None, 7 + 31), (4 * 16 * 256, 2 + 1023)])
    def test_each_later_block_takes_one_matmul(self, monkeypatch, block_bytes, calls):
        # N = 4, t = 12: one matmul a job, and the jobs write columns 1 to
        # 4095 once, in runs of at most a block: 7 shorter runs and 31 blocks
        # of 128 columns at the default block size, 2 shorter runs and 1023
        # blocks of 4 columns at the other.
        layout = QubitLayout(t=12, n_particles=4)
        if block_bytes:
            monkeypatch.setattr(simulator, "_BLOCK_BYTES", block_bytes)
        assert simulator._block_width(layout) == (4 if block_bytes else 128)
        matmuls = simulator._slot_matmuls
        count = [0]

        def spy(*args):
            count[0] += 1
            return matmuls(*args)

        monkeypatch.setattr(simulator, "_slot_matmuls", spy)
        prepare_power_stages(layout, list(stage_powers(haar_unitary(4, 83), layout.t)))
        assert count[0] == calls

    def test_transposes_read_a_staged_copy_not_the_state(self, monkeypatch):
        # N = 4, t = 12: the state's rows are 4096 amplitudes (64 KiB) apart,
        # so a transposing copy straight from a block would read one
        # amplitude from each of 256 rows that share a cache set.  Each
        # block is copied into scratch in row order first, and the
        # transpose reads that copy.
        layout = QubitLayout(t=12, n_particles=4)
        allocate, moveaxis = simulator._new_amplitudes, np.moveaxis
        states, shared = [], []

        def new_amplitudes(*args):
            states.append(allocate(*args))
            return states[-1]

        def spy(a, *args):
            shared.append(np.shares_memory(a, states[0]))
            return moveaxis(a, *args)

        monkeypatch.setattr(simulator, "_new_amplitudes", new_amplitudes)
        monkeypatch.setattr(np, "moveaxis", spy)
        prepare_power_stages(layout, list(stage_powers(haar_unitary(4, 84), layout.t)))
        assert len(states) == 1
        assert shared == [False] * (7 + 31)  # one transpose for each `_slot_matmuls` call

    def test_serial_bit_exact_when_openblas_cannot_be_found(self, monkeypatch):
        layout = QubitLayout(t=9, n_particles=4)
        monkeypatch.setattr(simulator, "_BLOCK_BYTES", 4 * 16 * layout.slot_dim)
        with_workers(monkeypatch, 2)
        powers = list(stage_powers(haar_unitary(4, 84), layout.t))
        parallel, parallel_prefix = simulator.power_pass(layout, powers)
        monkeypatch.setattr(simulator, "_openblas", lambda: None)
        deals = spy_jobs(monkeypatch)
        serial, serial_prefix = simulator.power_pass(layout, powers)
        assert [{thread for thread, _ in calls} for calls in deals] == [{threading.main_thread()}]
        assert np.array_equal(serial.amplitudes, parallel.amplitudes)
        assert np.array_equal(serial_prefix, parallel_prefix)

    def test_more_levels_than_workers_under_fast_switching(self, monkeypatch):
        # 128 blocks of four columns: seven levels of whole blocks after the
        # one- and two-column levels, on six workers; a worker past a barrier
        # too early reads a block not yet written.
        layout = QubitLayout(t=9, n_particles=4)
        monkeypatch.setattr(simulator, "_BLOCK_BYTES", 4 * 16 * layout.slot_dim)
        powers = list(stage_powers(haar_unitary(4, 87), layout.t))
        with_workers(monkeypatch, 1)
        serial, serial_prefix = simulator.power_pass(layout, powers)
        with_workers(monkeypatch, 6)
        deals = spy_jobs(monkeypatch)
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            for _ in range(5):
                sv, prefix = simulator.power_pass(layout, powers)
                assert np.array_equal(sv.amplitudes, serial.amplitudes)
                assert np.array_equal(prefix, serial_prefix)
        finally:
            sys.setswitchinterval(interval)
        # Each pass ran on six threads: every worker took blocks.
        assert {len({thread for thread, _ in calls}) for calls in deals} == {6 if simulator._openblas() else 1}


class TestPassLevels:
    """What a run's one pass hands `_deal`: one level per applied stage, every job a `_stage`."""

    @pytest.mark.parametrize(
        "config, stages",
        [
            (RunConfig(mode="qde", generator="haar-unitary:4", t=14, shots=10), 14),
            # A = 0: stage 0's operator is all zero, the last stage applied.
            (RunConfig(mode="contract", generator="scaled-identity:4:0:0", t=10, shots=10), 1),
        ],
        ids=["qde-phase", "contract-zero"],
    )
    def test_one_level_of_stage_jobs_per_applied_stage(self, monkeypatch, config, stages):
        deal = simulator._deal
        handed = []

        def spy(levels, *args, **kwargs):
            handed.append(levels)
            return deal(levels, *args, **kwargs)

        monkeypatch.setattr(simulator, "_deal", spy)
        run(config)
        levels = handed[0]  # the pass's; `inverse_qft`'s come after it
        assert len(levels) == stages
        jobs = [job for level in levels for job in level]
        assert all(isinstance(job, functools.partial) and job.func is simulator._stage for job in jobs)

    @pytest.mark.parametrize(
        "n, t, columns", [(4, 14, None), (4, 9, 4), (2, 17, None)], ids=["qde-phase", "four-column-block", "n2-t17"]
    )
    def test_each_stage_writes_its_bit_set_columns_from_the_clear_ones(self, monkeypatch, n, t, columns):
        # N = 4 starts from column 0 alone, so the jobs write each later
        # column once; N = 2 from 16 copies of it, which its first 4 stages fill.
        layout = QubitLayout(t=t, n_particles=n)
        if columns:
            monkeypatch.setattr(simulator, "_BLOCK_BYTES", columns * 16 * layout.slot_dim)
        deal = simulator._deal
        handed = []
        monkeypatch.setattr(simulator, "_deal", lambda levels, *args: handed.append(levels) or deal(levels, *args))
        sv, _ = simulator.power_pass(layout, stage_powers(haar_unitary(n, 91), t))
        seed = 16 if n == 2 else 1

        def last_column(view):  # of the view's slot row 0, a row of the state
            row = view[0]
            last = row.ctypes.data + sum((d - 1) * s for d, s in zip(row.shape, row.strides))
            return (last - sv.amplitudes.ctypes.data) // 16

        written = 0
        for m, level in enumerate(handed[0]):
            for job in level:
                _, source, dest = job.args
                assert not np.shares_memory(source, dest), m
                assert (last_column(dest) < seed) == (n == 2 and m < 4), m
                written += dest.size // layout.slot_dim
        if n == 4:
            assert written == layout.phase_dim - seed


def record(layout, operators):
    """The record of `power_pass` on ``operators``: its prefix norms, one more than the stages applied."""
    _, prefix = simulator.power_pass(layout, operators)
    return prefix


class TestPowerPassRecord:
    """`power_pass`'s record: prefix[m], the squared norm of phase columns [0, 2**m), from the pass alone.

    After m stages of the per-stage gates the state is its first 2**m
    columns repeated, so its squared norm is (phase_dim >> m) * prefix[m].
    """

    @pytest.mark.parametrize("rows", [None, 0.5])
    @pytest.mark.parametrize("t", [1, 3, 6])
    @pytest.mark.parametrize("n", [2, 4])
    @pytest.mark.parametrize("contraction", [False, True], ids=["powers", "blocks"])
    def test_matches_the_per_stage_norms(self, monkeypatch, contraction, n, t, rows):
        # Divided by rho**(1/N), a contraction block makes the pass's state
        # that of the block stages divided by the product of the rhos so far.
        layout = QubitLayout(t=t, n_particles=n)
        if rows:
            monkeypatch.setattr(simulator, "_BLOCK_BYTES", block_bytes(layout, rows))
        if contraction:
            # Singular values from 0.99 to 1: P(0) stays well above 0 at t = 6.
            a = (haar_unitary(n, 50 * n + t) * np.linspace(0.99, 1.0, n)) @ haar_unitary(n, 50 * n + t + 1).conj().T
            matrices = list(stage_powers(a, t))
            blocks = [simulator.contraction_block(m, a_m) for m, a_m in enumerate(matrices)]
            operators = [block * rho ** (-1.0 / n) for block, rho in blocks]
            rhos_sq = [rho * rho for _, rho in blocks]
            gate = controlled_block_stage
        else:
            matrices = operators = [mat_pow2(haar_unitary(n, 40 * n + t), m) for m in range(t)]
            rhos_sq = [1.0] * t
            gate = controlled_power_stage
        prefix = record(layout, operators)
        sv = prepared_state(t, n)
        hadamard_layer(sv)
        norms = [sv.norm_sq()]
        for m, matrix in enumerate(matrices):
            norms.append(gate(sv, m, matrix).norm_sq() / math.prod(rhos_sq[: m + 1]))
        assert len(prefix) == t + 1
        for m, norm in enumerate(norms):
            assert (layout.phase_dim >> m) * prefix[m] == pytest.approx(norm, abs=1e-13), m

    @pytest.mark.parametrize("shrink", [1.0, 0.5])
    @pytest.mark.parametrize("four_columns", [False, True], ids=["default-block", "four-column-block"])
    @pytest.mark.parametrize("n, t", [(2, 14), (4, 9)])
    def test_each_step_is_the_norm_of_the_columns_its_stage_built(self, monkeypatch, n, t, four_columns, shrink):
        # At N = 2 stages 0 to 3 fill the 16-column seed.  Each later stage
        # writes its new columns as one job while they fit a block, and as
        # whole blocks after: 8,192 columns (N = 2) or 128 (N = 4) at the
        # default block size, 16 (the seed) or 4 at the other.  A shrinking
        # stage makes each step a fifth of the record: a step taken as the
        # difference of two whole-block norms loses digits.  What the bound
        # leaves room for: at N = 4, t = 9, with shrink 0.5, the step differs
        # by 2.7e-14 (relative), from cancellation in prefix[1] - prefix[0].
        layout = QubitLayout(t=t, n_particles=n)
        if four_columns:
            monkeypatch.setattr(simulator, "_BLOCK_BYTES", 4 * 16 * layout.slot_dim)
        powers = [shrink * p for p in stage_powers(haar_unitary(n, 90 + n), t)]
        sv, prefix = simulator.power_pass(layout, powers)
        rows = grouped(sv)
        assert len(prefix) == t + 1
        for m in range(t):
            built = np.ascontiguousarray(rows[:, 1 << m : 2 << m])
            assert prefix[m + 1] - prefix[m] == pytest.approx(simulator._norm_sq(built), rel=2e-13, abs=0), m

    def test_bit_identical_on_any_worker_count(self, monkeypatch):
        # 128 blocks of four columns: stages 0 and 1 write one and two columns, then seven levels of whole blocks.
        layout = QubitLayout(t=9, n_particles=4)
        monkeypatch.setattr(simulator, "_BLOCK_BYTES", 4 * 16 * layout.slot_dim)
        powers = list(stage_powers(haar_unitary(4, 88), layout.t))
        records = []
        for workers in (1, 2, 6):
            with_workers(monkeypatch, workers)
            records.append(record(layout, powers))
        monkeypatch.setattr(simulator, "_openblas", lambda: None)
        records.append(record(layout, powers))
        assert len(records[0]) == layout.t + 1
        assert all(np.array_equal(prefix, records[0]) for prefix in records)

    @needs_openblas
    def test_bit_identical_on_any_openblas_thread_count(self, monkeypatch):
        # One worker leaves OpenBLAS its threads; eight blocks of 2**15 amplitudes,
        # where a BLAS dot product splits its sum across them.
        with_workers(monkeypatch, 1)
        layout = QubitLayout(t=10, n_particles=4)
        powers = list(stage_powers(haar_unitary(4, 89), layout.t))
        get, put = simulator._openblas()
        before = get()
        records = []
        try:
            for threads in (1, 2):
                put(threads)
                records.append(record(layout, powers))
        finally:
            put(before)
        assert len(records[0]) == layout.t + 1
        assert np.array_equal(records[0], records[1])


class TestKernelMemory:
    """No gate kernel allocates a temporary that scales with the state."""

    @pytest.mark.parametrize("t, contraction", [(12, False), (12, True)])
    def test_peak_at_most_a_quarter_of_the_state(self, monkeypatch, t, contraction):
        # 2**20 amplitudes (N = 4), 2**11 phase columns per half.  The stage
        # gates are plain, one matmul pass through one state's worth of
        # scratch, so they run outside the trace.  Post-selection after a
        # contraction stage reads P(0) with one vdot and scales in place.
        with_workers(monkeypatch, 2)
        n = 4
        layout = QubitLayout(t=t, n_particles=n)
        sv = init_state(layout)
        u = haar_unitary(n, 72)
        # Singular values near 1, so that stage t - 1 (A**2048) leaves the
        # ancilla-0 branch enough norm for the stages after it.
        a = (haar_unitary(n, 71) * np.linspace(0.9999, 1.0, n)) @ haar_unitary(n, 73).conj().T
        steps = [
            (load_asym, (asym_state(n),)),
            (hadamard_layer, ()),
            (controlled_power_stage, (0, u)),
            (controlled_power_stage, (t - 1, u)),
        ]
        if contraction:
            steps += [
                (controlled_block_stage, (0, a)),
                (measure_ancilla_postselect, ()),
                (controlled_block_stage, (t - 1, mat_pow2(a, t - 1))),
                (measure_ancilla_postselect, ()),
            ]
        steps += [(inverse_qft, ()), (register_probabilities, ())]
        peaks = []
        for gate, args in steps:
            if gate in (controlled_power_stage, controlled_block_stage):
                gate(sv, *args)
                continue
            tracemalloc.start()
            try:
                gate(sv, *args)
                peaks.append((gate.__name__, tracemalloc.get_traced_memory()[1] / sv.amplitudes.nbytes))
            finally:
                tracemalloc.stop()
        assert all(peak <= 0.25 for _, peak in peaks), peaks

    def test_one_pass_peak_beyond_its_state_at_most_a_quarter_of_it(self, monkeypatch):
        # The layout of the test above; the pass allocates the state itself.
        with_workers(monkeypatch, 2)
        layout = QubitLayout(t=12, n_particles=4)
        u = haar_unitary(4, 72)
        tracemalloc.start()
        try:
            sv = prepare_power_stages(layout, [mat_pow2(u, m) for m in range(layout.t)])
            peak = tracemalloc.get_traced_memory()[1] - sv.amplitudes.nbytes
        finally:
            tracemalloc.stop()
        assert peak <= 0.25 * sv.amplitudes.nbytes, peak

    def test_contraction_run_peak_beyond_its_state_at_most_a_quarter_of_it(self, monkeypatch):
        # N = 4, t = 12: a 16 MiB state, built by the one pass and read by
        # column norms, the inverse QFT and the sampler in place.
        with_workers(monkeypatch, 2)
        a = (haar_unitary(4, 71) * np.linspace(0.9999, 1.0, 4)) @ haar_unitary(4, 73).conj().T
        state_bytes = 16 << QubitLayout(t=12, n_particles=4).total_qubits
        tracemalloc.start()
        try:
            result = qde.contraction_run(a, t=12, shots=2000, seed=1)
            peak = tracemalloc.get_traced_memory()[1] - state_bytes
        finally:
            tracemalloc.stop()
        assert result.accepted > 0
        assert peak <= 0.25 * state_bytes, peak
