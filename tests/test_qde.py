"""End-to-end behavior of the three determinant-estimation modes."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from qdet import simulator
from qdet.antisym import asym_state
from qdet.cli import generator_spec
from qdet import qde
from qdet.errors import StateTooLargeError, ValidationError, VerificationError
from qdet.linalg import TWO_PI, det_lu, haar_orthogonal, haar_unitary, stage_powers
from qdet.qde import (
    contraction_run,
    magnitude_estimate,
    phase_from_k,
    qde_run,
    sign_run,
)
from qdet.simulator import QubitLayout, sample_distribution, shot_rng

from conftest import random_contraction


def diag_phase(n, k0, t):
    d = np.ones(n, dtype=complex)
    d[0] = np.exp(2j * math.pi * k0 / 2**t)
    return np.diag(d)


def circular_distance(a, b):
    d = abs(a - b) % TWO_PI
    return min(d, TWO_PI - d)


class TestPhaseFromK:
    def test_zero(self):
        assert phase_from_k(0, 5) == 0.0

    def test_half_turn(self):
        assert phase_from_k(1, 1) == pytest.approx(math.pi)

    def test_three_eighths(self):
        assert phase_from_k(3, 3) == pytest.approx(3 * math.pi / 4)

    def test_rejects_out_of_range(self):
        with pytest.raises(ValidationError):
            phase_from_k(8, 3)
        with pytest.raises(ValidationError):
            phase_from_k(-1, 3)


class TestQdeRun:
    def test_identity_matrix_reads_zero(self):
        result = qde_run(np.eye(2), t=3, shots=150, seed=4)
        assert result.phase.k_prime == 0
        assert result.phase.frequencies() == {0: 1.0}

    def test_dyadic_quarter_phase(self):
        result = qde_run(np.diag([1.0, np.exp(1j * math.pi / 2)]), t=2, shots=100, seed=4)
        assert result.phase.k_prime == 1
        assert result.phase.frequencies() == {1: 1.0}
        assert result.phase.phi_hat == pytest.approx(math.pi / 2)

    def test_non_dyadic_phase_concentrates_on_nearest(self):
        # phi = 2*pi*0.3 at t = 3: nearest 3-bit value is k = 2 (0.25).
        result = qde_run(np.diag([np.exp(2j * math.pi * 0.3), 1.0]), t=3, shots=500, seed=9)
        exact_mode = int(np.argmax(result.exact_distribution))
        assert exact_mode == 2
        assert result.exact_distribution[2] >= 4.0 / math.pi**2

    def test_rejects_non_unitary(self):
        with pytest.raises(ValidationError):
            qde_run(0.5 * np.eye(2), t=2, shots=10, seed=0)

    def test_default_qubit_cap_refuses_large_layout(self):
        # N=8, t=3: 3 + 8*3 = 27 qubits, one past the default cap of 26.
        with pytest.raises(StateTooLargeError, match="27 qubits"):
            qde_run(haar_unitary(8, 1), t=3, shots=10, seed=0)

    def test_counters(self):
        result = qde_run(haar_unitary(4, 3), t=3, shots=10, seed=0)
        assert result.counters.controlled_slot_applications == 3 * 4

    def test_deterministic_histogram(self):
        u = haar_unitary(2, 8)
        a = qde_run(u, t=4, shots=300, seed=11)
        b = qde_run(u, t=4, shots=300, seed=11)
        assert a.phase.histogram == b.phase.histogram


class TestOracleAgreement:
    @pytest.mark.parametrize("n,t", [(2, 5), (4, 5)])
    def test_modal_estimate_within_one_grid_step(self, n, t):
        for seed in range(20):
            u = haar_unitary(n, 1000 + seed)
            phi = det_lu(u).phase
            result = qde_run(u, t=t, shots=1, seed=seed)
            exact_mode = int(np.argmax(result.exact_distribution))
            assert circular_distance(phase_from_k(exact_mode, t), phi) <= TWO_PI / 2**t + 1e-9

    def test_dyadic_phases_read_exactly_after_conjugation(self):
        t = 3
        for k0 in range(2**t):
            v = haar_unitary(2, 50 + k0)
            u = v @ np.diag([np.exp(2j * math.pi * k0 / 2**t), 1.0]) @ v.conj().T
            result = qde_run(u, t=t, shots=50, seed=k0)
            assert result.phase.k_prime == k0
            assert result.exact_distribution[k0] >= 1.0 - 1e-9


class TestSignRun:
    def test_identity(self):
        result = sign_run(np.eye(2), shots=25, seed=1)
        assert result.sign == 1 and result.unanimous

    def test_transposition(self):
        result = sign_run(np.array([[0.0, 1.0], [1.0, 0.0]]), shots=25, seed=1)
        assert result.sign == -1 and result.unanimous

    @pytest.mark.parametrize("n", [2, 4])
    def test_matches_oracle_sign(self, n):
        for seed in range(25):
            o = haar_orthogonal(n, 2000 + seed)
            oracle_sign = 1 if det_lu(o).value.real > 0 else -1
            result = sign_run(o, shots=20, seed=seed)
            assert result.sign == oracle_sign
            assert result.unanimous

    def test_exact_certainty(self):
        for seed in range(10):
            result = sign_run(haar_orthogonal(4, 3000 + seed), shots=5, seed=seed)
            assert abs(result.majority_probability - 1.0) <= 1e-12

    def test_rejects_complex_input(self):
        with pytest.raises(ValidationError):
            sign_run(haar_unitary(2, 5), shots=10, seed=0)

    def test_rejects_non_orthogonal(self):
        with pytest.raises(ValidationError):
            sign_run(np.array([[1.0, 1.0], [0.0, 1.0]]), shots=10, seed=0)


class TestContractionRun:
    def test_unitary_input_always_accepts(self):
        result = contraction_run(np.eye(2), t=2, shots=500, seed=3)
        assert result.acceptance_rate == 1.0
        assert result.exact_acceptance == pytest.approx(1.0, abs=1e-12)
        assert result.phase.k_prime == 0
        assert not result.no_accepted_shots

    def test_scaled_identity_acceptance_statistics(self):
        shots = 10_000
        result = contraction_run(0.9 * np.eye(2), t=2, shots=shots, seed=17)
        p = 0.81 ** (2 * (2**2 - 1))
        assert result.exact_acceptance == pytest.approx(p, abs=1e-9)
        assert abs(result.acceptance_rate - p) <= 3.0 * math.sqrt(p * (1 - p) / shots)
        assert abs(result.magnitude_estimate - 0.81) <= 0.02

    def test_postselected_phase_point_mass(self):
        a = 0.95 * np.exp(1j * math.pi / 4) * np.eye(2)
        result = contraction_run(a, t=2, shots=3000, seed=23)
        # arg det = pi/2, the k = 1 grid point at t = 2.
        assert set(result.phase.histogram) == {1}
        assert result.exact_conditioned_distribution[1] >= 1.0 - 1e-9

    def test_zero_matrix_never_accepts(self):
        result = contraction_run(np.zeros((2, 2)), t=2, shots=200, seed=5)
        assert result.accepted == 0
        assert result.no_accepted_shots
        assert result.phase.histogram == {}
        assert result.phase.k_prime is None
        assert result.magnitude_estimate == 0.0
        assert result.exact_acceptance == 0.0

    def test_vanishing_determinant_rejects_without_error(self):
        # |det| = 1e-160, so the first stage's zero branch underflows; the run
        # must report universal rejection, not raise.
        result = contraction_run(1e-80 * np.eye(2), t=3, shots=50, seed=2)
        assert result.no_accepted_shots
        assert result.exact_acceptance == 0.0

    def test_rejects_expanding_matrix(self):
        with pytest.raises(ValidationError):
            contraction_run(1.2 * np.eye(2), t=2, shots=10, seed=0)

    def test_default_qubit_cap_refuses_large_layout(self):
        # N=4, t=19: 19 + 4*2 = 27 qubits, past the default cap of 26.
        with pytest.raises(StateTooLargeError, match="27 qubits"):
            contraction_run(0.5 * np.eye(4), t=19, shots=10, seed=0)

    def test_one_reused_ancilla_fits_under_the_default_cap(self):
        # N=4, t=10: 10 + 4*2 = 18 qubits; one ancilla per stage needed 28.
        result = contraction_run(0.9999 * np.eye(4), t=10, shots=200, seed=1)
        assert result.exact_acceptance == pytest.approx(0.9999 ** (4 * 2 * (2**10 - 1)), abs=1e-9)
        assert result.phase.k_prime == 0

    def test_layout_has_no_ancilla_qubit(self):
        # N=4, t=10 needs exactly t + N*log2(N) = 18 qubits.
        result = contraction_run(0.9999 * np.eye(4), t=10, shots=200, seed=1, qubit_cap=18)
        assert result.phase.k_prime == 0
        with pytest.raises(StateTooLargeError, match="18 qubits"):
            contraction_run(0.9999 * np.eye(4), t=10, shots=200, seed=1, qubit_cap=17)

    @pytest.mark.parametrize(
        "a, t",
        [
            (np.diag([1 + 6e-10, 0.5]), 1),
            ((1 + 2e-10) * np.eye(2), 3),
            ((1 + 5e-10) * np.eye(2), 3),
            ((1 + 9e-10) * np.eye(4), 4),
        ],
    )
    def test_admits_norm_slack(self, a, t):
        # Inputs within the admitted 1e-9 norm slack run every stage; their
        # singular values are clamped at 1 inside the stage.
        result = contraction_run(a, t=t, shots=100, seed=1)
        expected = min(det_lu(a).magnitude, 1.0) ** (2 * (2**t - 1))
        assert result.exact_acceptance == pytest.approx(expected, abs=1e-9)

    def test_exact_acceptance_never_exceeds_one(self):
        # Stages 1-3 read a renormalised zero-branch probability of 1 + 2.2e-16 here.
        result = contraction_run((1 + 9e-10) * np.eye(4), t=4, shots=10, seed=1)
        assert result.exact_acceptance <= 1.0

    def test_exact_acceptance_matches_product_law(self):
        # Exact (non-sampled) acceptance equals |det A|^(2*(2^t - 1)).
        for t in (1, 2, 3):
            for seed in range(5):
                a = random_contraction(2, 4000 + seed)
                result = contraction_run(a, t=t, shots=1, seed=seed)
                expected = det_lu(a).magnitude ** (2 * (2**t - 1))
                assert result.exact_acceptance == pytest.approx(expected, abs=1e-9)

    def test_conditioned_distribution_matches_phase_only_unitary(self):
        # Conditioned on all-zero ancillas the phase register is distributed
        # exactly as a unitary-mode run at phase arg det(A).
        t = 2
        for seed in range(5):
            a = random_contraction(2, 4100 + seed)
            phi = det_lu(a).phase
            contraction = contraction_run(a, t=t, shots=1, seed=seed)
            unitary_mode = qde_run(np.diag([np.exp(1j * phi), 1.0]), t=t, shots=1, seed=seed)
            assert np.max(
                np.abs(contraction.exact_conditioned_distribution - unitary_mode.exact_distribution)
            ) <= 1e-9

    @pytest.mark.skipif(simulator._openblas() is None, reason="numpy's BLAS is not OpenBLAS")
    @pytest.mark.parametrize("t", [6, 8, 10])
    def test_exact_results_do_not_depend_on_openblas_threads(self, t):
        # A pass of one worker (t=6 and 8) leaves OpenBLAS its own threads;
        # neither the amplitudes nor the column norms behind P(0) may depend on them.
        get, put = simulator._openblas()
        before = get()
        results = []
        try:
            for threads in (1, 2):
                put(threads)
                results.append(contraction_run(haar_unitary(4, 2), t=t, shots=10, seed=2))
        finally:
            put(before)
        one, two = results
        assert one.exact_acceptance == two.exact_acceptance
        assert np.array_equal(one.exact_conditioned_distribution, two.exact_conditioned_distribution)

    def test_deterministic_for_fixed_seed(self):
        a = random_contraction(2, 4242)
        r1 = contraction_run(a, t=2, shots=800, seed=77)
        r2 = contraction_run(a, t=2, shots=800, seed=77)
        assert r1.accepted == r2.accepted
        assert r1.phase.histogram == r2.phase.histogram

    def test_four_slot_contraction(self):
        # Non-diagonal input on the larger register: 4 slots of 2 qubits,
        # each stage applied as slot-wise 4x4 matmuls.
        a = 0.97 * haar_unitary(4, 5)
        oracle = det_lu(a)
        result = contraction_run(a, t=2, shots=300, seed=9)
        expected = oracle.magnitude ** (2 * (2**2 - 1))
        assert result.exact_acceptance == pytest.approx(expected, abs=1e-9)
        grid = TWO_PI / 4
        k_star = int(np.argmax(result.exact_conditioned_distribution))
        assert circular_distance(phase_from_k(k_star, 2), oracle.phase) <= grid / 2 + 1e-9


def per_stage_contraction(a, t):
    """The per-stage pipeline the one pass replaced: (stage P(0)s, conditioned distribution or None, counters).

    Each stage's gate goes over the whole state, and its P(0) is the
    squared norm of the state it leaves, which is then renormalised.
    """
    layout = QubitLayout(t=t, n_particles=a.shape[0])
    sv = simulator.init_state(layout)
    simulator.load_asym(sv, asym_state(layout.n_particles))
    simulator.hadamard_layer(sv)
    stage_zero_probs = []
    for m, a_m in enumerate(stage_powers(a, t)):
        simulator.controlled_block_stage(sv, m, a_m)
        p_zero = min(simulator.measure_ancilla_postselect(sv), 1.0)
        if p_zero < 1e-300:
            return stage_zero_probs + [0.0], None, sv.counters
        stage_zero_probs.append(p_zero)
    simulator.inverse_qft(sv)
    return stage_zero_probs, simulator.register_probabilities(sv), sv.counters


def reference_contraction_counts(a, t, shots, seed):
    """The per-stage pipeline plus the per-shot survival walk `contraction_run` replaced."""
    stage_zero_probs, conditioned, _ = per_stage_contraction(a, t)
    cumulative = None if conditioned is None else np.cumsum(conditioned)
    accepted = 0
    counts = {}
    top = (1 << t) - 1
    for shot in range(shots):
        rng = shot_rng(seed, shot)
        survived = True
        for p_zero in stage_zero_probs:
            if rng.random() >= p_zero:
                survived = False
                break
        if survived and cumulative is not None:
            k = min(int(np.searchsorted(cumulative, rng.random(), side="right")), top)
            counts[k] = counts.get(k, 0) + 1
            accepted += 1
    return accepted, dict(sorted(counts.items()))


def workload_style_contraction(n, seed, low):
    """W diag(s) V^dag with Haar W, V and singular values uniform in [low, 1)."""
    rng = np.random.Generator(np.random.PCG64(seed))
    return (haar_unitary(n, seed) * rng.uniform(low, 1.0, n)) @ haar_unitary(n, seed + 1).conj().T


class TestBulkSurvivalWalk:
    """Bulk post-selected sampling reproduces the per-shot walk exactly."""

    @pytest.mark.parametrize(
        "a, t, shots, seed",
        [
            (workload_style_contraction(4, 50, 0.97), 3, 3000, 3),
            (workload_style_contraction(2, 60, 0.97), 4, 3000, 11),
            (np.zeros((2, 2)), 2, 200, 5),
            (np.diag([1 + 6e-10, 0.5]), 1, 500, 1),
            ((1 + 2e-10) * np.eye(2), 3, 500, 1),
            ((1 + 5e-10) * np.eye(2), 3, 500, 1),
            ((1 + 9e-10) * np.eye(4), 4, 500, 1),
        ],
    )
    def test_matches_per_shot_walk(self, a, t, shots, seed, monkeypatch):
        # A small chunk makes every run span several blocks of shots.
        monkeypatch.setattr(simulator, "_SHOT_CHUNK", 700)
        result = contraction_run(a, t=t, shots=shots, seed=seed)
        assert (result.accepted, result.phase.histogram) == reference_contraction_counts(a, t, shots, seed)

    def test_matches_per_shot_walk_at_default_chunk(self):
        a = workload_style_contraction(2, 70, 0.95)
        shots = simulator._SHOT_CHUNK + 100
        result = contraction_run(a, t=2, shots=shots, seed=7)
        assert 0 < result.accepted < shots
        assert (result.accepted, result.phase.histogram) == reference_contraction_counts(a, 2, shots, 7)


PER_STAGE_GATES = ("init_state", "load_asym", "hadamard_layer", "controlled_block_stage", "measure_ancilla_postselect")


class TestOnePassContraction:
    """`contraction_run` builds its state in the one pass and reads P(0) from column norms.

    Against the per-stage gates, which renormalise after every stage, the
    arithmetic differs, so exact results agree within a stated tolerance:
    1e-13 relative on the acceptance and 1e-13 absolute on the conditioned
    distribution.  The inputs are healthy runs, within 1e-9 of the product
    law: where rounding leakage puts a run far off the law, both paths
    report rounding noise, and the CLI's product-law check flags it.
    """

    @pytest.mark.parametrize(
        "a, t",
        [(workload_style_contraction(n, 30 * n + t, 0.999), t) for n in (2, 4) for t in (1, 3, 9, 12)]
        + [(workload_style_contraction(2, 77, 0.9999), 17), (workload_style_contraction(4, 5, 0.995), 6)],
    )
    def test_matches_the_per_stage_gates(self, a, t):
        stage_zero_probs, conditioned, counters = per_stage_contraction(a, t)
        result = contraction_run(a, t=t, shots=2000, seed=3)
        expected = math.prod(stage_zero_probs)
        assert expected == pytest.approx(det_lu(a).magnitude ** (2 * (2**t - 1)), rel=1e-9)
        assert result.exact_acceptance == pytest.approx(expected, rel=1e-13, abs=0.0)
        assert np.max(np.abs(result.exact_conditioned_distribution - conditioned)) <= 1e-13
        assert result.counters == counters
        assert result.phase.histogram == sample_distribution(conditioned, 3, 2000, stage_zero_probs)

    @pytest.mark.parametrize("a", [np.zeros((2, 2)), 1e-80 * np.eye(2)], ids=["zero", "1e-80"])
    def test_vanishing_stage_books_the_per_stage_counters(self, a):
        # Both stop at stage 0: the counters book one stage, not all three.
        stage_zero_probs, conditioned, counters = per_stage_contraction(a, 3)
        result = contraction_run(a, t=3, shots=50, seed=2)
        assert (stage_zero_probs, conditioned) == ([0.0], None)
        assert result.exact_acceptance == 0.0
        assert result.counters == counters
        assert result.counters.controlled_slot_applications == 2

    def test_noise_past_the_float_range_rejects_every_shot(self):
        # Singular A: every stage's rho is rounding noise (1e-17 down to 1e-137),
        # and dividing by it lifts the noise off the antisymmetric state past
        # the float range at stage 7, the last, where the per-stage gates'
        # product of P(0)s has underflowed to 0.  Stage 7 reads P(0) 0, so no
        # inverse QFT runs.
        s = np.random.Generator(np.random.PCG64(0)).uniform(0.5, 1.0, 4)
        s[-1] = 0.0
        a = (haar_unitary(4, 0) * s) @ haar_unitary(4, 1).conj().T
        stage_zero_probs, _, counters = per_stage_contraction(a, 8)
        result = contraction_run(a, t=8, shots=50, seed=0)
        assert result.exact_acceptance == math.prod(stage_zero_probs) == 0.0
        assert (result.accepted, result.exact_conditioned_distribution) == (0, None)
        assert result.counters.controlled_slot_applications == counters.controlled_slot_applications == 8 * 4

    def test_calls_no_per_stage_gate(self, monkeypatch):
        for name in PER_STAGE_GATES:
            monkeypatch.setattr(simulator, name, lambda *args, name=name: pytest.fail(f"{name} called"))
        result = contraction_run(workload_style_contraction(4, 9, 0.999), t=6, shots=100, seed=1)
        assert result.accepted > 0
        assert not [name for name in PER_STAGE_GATES + ("asym_state",) if hasattr(qde, name)]

    def test_zero_branch_gaining_norm_raises(self, monkeypatch):
        # rho 0.1% high makes stage 0's P(0) (1 + 1.001**2) / 2: a contraction cannot add norm.
        block = qde.contraction_block
        monkeypatch.setattr(qde, "contraction_block", lambda m, a_m: (block(m, a_m)[0], 1.001))
        with pytest.raises(VerificationError, match=r"stage 0's ancilla-0 branch has squared norm 1.0010005 > 1$"):
            contraction_run(np.eye(2), t=2, shots=10, seed=1)


class TestDeadStage:
    """A zero block (rho**2 < 1e-300) is the last stage the pass applies; the run reads nothing past it."""

    @pytest.mark.parametrize(
        "a, t, applied",
        [(np.zeros((2, 2)), 3, 1), (np.zeros((4, 4)), 10, 1), (np.diag([1.0, 1e-80]), 4, 2)],
        ids=["zero-2", "zero-4", "stage-1"],
    )
    def test_no_stage_after_the_first_zero_block_is_applied(self, monkeypatch, a, t, applied):
        # diag(1, 1e-80): stage 0's rho**2 is 1e-160, stage 1's 1e-320.
        stage_zero_probs, _, counters = per_stage_contraction(a, t)
        matmuls = simulator._slot_matmuls
        zero_blocks = []

        def spy(u, *args):
            zero_blocks.append(not u.any())
            return matmuls(u, *args)

        monkeypatch.setattr(simulator, "_slot_matmuls", spy)
        monkeypatch.setattr(qde, "inverse_qft", lambda sv: pytest.fail("inverse_qft ran"))
        result = contraction_run(a, t=t, shots=50, seed=1)
        assert zero_blocks == [False] * (applied - 1) + [True]
        assert (result.accepted, result.exact_acceptance, result.exact_conditioned_distribution) == (0, 0.0, None)
        assert stage_zero_probs[-1] == 0.0 and len(stage_zero_probs) == applied
        assert result.counters == counters


class TestPhaseWrap:
    """Determinant phases within half a grid step of 0 or 2*pi read out across the wrap."""

    @given(
        n=st.sampled_from([2, 4]),
        t=st.integers(1, 6),
        eighths=st.integers(-4, 3),
        seed=st.integers(0, 2**32 - 1),
    )
    @settings(max_examples=40, deadline=None)
    def test_modal_value_wraps_to_zero(self, n, t, eighths, seed):
        # diag-phase:N:k:(t+3) has phase 2*pi*k / 2**(t+3): k = eighths mod
        # 2**(t+3) lies eighths/8 of a grid step from 0, on the 2*pi side when
        # negative.  -4/8 is the tie between 2**t - 1 and 0; the sampled mode
        # is kept 1/8 step clear of the other tie, +1/2, where 1 may win.
        k = eighths % (1 << (t + 3))
        phi = TWO_PI * k / (1 << (t + 3))
        result = qde_run(generator_spec(f"diag-phase:{n}:{k}:{t + 3}", seed), t=t, shots=1000, seed=seed)
        assert result.phase.k_prime in (0, (1 << t) - 1)
        assert circular_distance(result.phase.phi_hat, phi) <= math.pi / (1 << t) + 1e-12


class TestNearSingularContraction:
    """Contractions with a vanishing singular value run and keep the acceptance law."""

    @given(
        n=st.sampled_from([2, 4]),
        t=st.integers(1, 4),
        smallest=st.one_of(st.just(0.0), st.floats(3.0, 200.0).map(lambda e: 10.0**-e)),
        seed=st.integers(0, 2**32 - 1),
    )
    @settings(max_examples=40, deadline=None)
    def test_exact_acceptance_matches_product_law(self, n, t, smallest, seed):
        # W diag(s) V^dag with Haar W, V, the other singular values in [0.5, 1).
        s = np.random.Generator(np.random.PCG64(seed)).uniform(0.5, 1.0, n)
        s[-1] = smallest
        a = (haar_unitary(n, seed) * s) @ haar_unitary(n, seed + 1).conj().T
        result = contraction_run(a, t=t, shots=200, seed=seed)
        expected = det_lu(a).magnitude ** (2 * (2**t - 1))
        assert result.exact_acceptance == pytest.approx(expected, abs=1e-9)


class TestMagnitudeEstimate:
    def test_full_acceptance(self):
        assert magnitude_estimate(500, 500, 3) == 1.0

    def test_zero_acceptance(self):
        assert magnitude_estimate(0, 500, 3) == 0.0

    def test_inverts_product_law(self):
        assert magnitude_estimate(2824, 10_000, 2) == pytest.approx(0.81, abs=0.01)

    def test_rejects_zero_attempts(self):
        with pytest.raises(ValidationError):
            magnitude_estimate(0, 0, 2)

    @given(st.integers(1, 1000), st.integers(1, 4))
    @settings(max_examples=50, deadline=None)
    def test_roundtrips_exact_rate(self, accepted, t):
        attempted = 1000
        est = magnitude_estimate(accepted, attempted, t)
        assert 0.0 <= est <= 1.0
        assert est ** (2 * (2**t - 1)) == pytest.approx(accepted / attempted, rel=1e-9)
