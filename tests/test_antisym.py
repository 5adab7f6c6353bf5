"""Permutation signs, the antisymmetric state, and the determinant identity."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from qdet.antisym import (
    _apply_slotwise_tensor,
    asym_state,
    enumerate_permutations,
    state_to_tensor,
    verify_det_identity,
)
from qdet.errors import ValidationError
from qdet.linalg import det_levi_civita, det_lu, haar_unitary

from conftest import random_complex, random_contraction


def permutation_matrix(mapping):
    n = len(mapping)
    p = np.zeros((n, n))
    for src, dst in enumerate(mapping):
        p[dst, src] = 1.0
    return p


class TestEnumeratePermutations:
    def test_single_label(self):
        perms = enumerate_permutations(1)
        assert len(perms) == 1
        assert perms[0].mapping == (0,) and perms[0].sign == 1

    def test_two_labels(self):
        got = {(p.mapping, p.sign) for p in enumerate_permutations(2)}
        assert got == {((0, 1), 1), ((1, 0), -1)}

    def test_alternating_group_is_half(self):
        perms = enumerate_permutations(4)
        assert len(perms) == 24
        assert sum(1 for p in perms if p.sign == 1) == 12

    def test_no_duplicates(self):
        perms = enumerate_permutations(5)
        assert len({p.mapping for p in perms}) == math.factorial(5)

    def test_sign_matches_permutation_matrix_determinant(self):
        # Independent oracle: sgn(sigma) equals det of the permutation matrix.
        for p in enumerate_permutations(4):
            det = det_lu(permutation_matrix(p.mapping)).value.real
            assert round(det) == p.sign

    def test_rejects_large_n(self):
        with pytest.raises(ValidationError):
            enumerate_permutations(9)


class TestAsymState:
    def test_two_particle_singlet_form(self):
        s = asym_state(2)
        inv = 1.0 / math.sqrt(2)
        assert s.amplitudes == pytest.approx({(0, 1): inv, (1, 0): -inv})

    def test_four_particle_support_and_modulus(self):
        s = asym_state(4)
        assert len(s.amplitudes) == 24
        expected = 1.0 / math.sqrt(24)
        for amp in s.amplitudes.values():
            assert abs(abs(amp) - expected) <= 1e-14

    @pytest.mark.parametrize("n", [2, 3, 4, 5])
    def test_normalized(self, n):
        s = asym_state(n)
        assert sum(abs(a) ** 2 for a in s.amplitudes.values()) == pytest.approx(1.0, abs=1e-12)

    def test_accepts_non_power_of_two(self):
        # The power-of-two restriction belongs to the qubit encoding, not to
        # the algebraic state; dimension 3 and 5 must work for the identity
        # checks.
        assert len(asym_state(3).amplitudes) == 6
        assert len(asym_state(5).amplitudes) == 120

    @given(st.integers(2, 5), st.data())
    @settings(max_examples=30, deadline=None)
    def test_antisymmetric_under_label_swap(self, n, data):
        i = data.draw(st.integers(0, n - 1))
        j = data.draw(st.integers(0, n - 1))
        if i == j:
            return
        s = asym_state(n)
        for labels, amp in s.amplitudes.items():
            swapped = list(labels)
            swapped[i], swapped[j] = swapped[j], swapped[i]
            assert s.amplitudes[tuple(swapped)] == pytest.approx(-amp)


def apply_slotwise(a, state):
    """The slot-wise action of ``a`` on a sparse state, as a dense slot tensor."""
    return _apply_slotwise_tensor(a, state_to_tensor(state, state.n_particles))


class TestApplySlotwise:
    def test_identity_preserves_state(self):
        s = asym_state(3)
        assert np.array_equal(apply_slotwise(np.eye(3), s), state_to_tensor(s, 3))

    def test_diagonal_sign_flip_scales_by_determinant(self):
        s = asym_state(2)
        out = apply_slotwise(np.diag([1.0, -1.0]), s)
        assert np.array_equal(out, -state_to_tensor(s, 2))

    def test_random_matrix_scales_by_determinant(self):
        s = asym_state(3)
        a = random_complex(3, 42)
        det = det_levi_civita(a).value
        expected = det * state_to_tensor(s, 3)
        assert np.max(np.abs(apply_slotwise(a, s) - expected)) <= 1e-10


class TestVerifyDetIdentity:
    def test_identity_matrix(self):
        assert verify_det_identity(np.eye(4)) <= 1e-14

    def test_repeated_column_annihilates(self):
        a = np.array([[1.0, 1.0], [2.0, 2.0]])
        assert verify_det_identity(a) <= 1e-10
        assert abs(det_levi_civita(a).value) <= 1e-12
        # det = 0 means the transformed state itself vanishes.
        assert np.max(np.abs(apply_slotwise(a, asym_state(2)))) <= 1e-12

    def test_fifty_random_matrices(self):
        for seed in range(50):
            assert verify_det_identity(random_complex(3, 7000 + seed)) <= 1e-10

    @pytest.mark.parametrize("n", [2, 3, 4, 5, 6])
    def test_holds_for_every_matrix_class(self, n):
        samples = [
            haar_unitary(n, 17 + n),
            random_contraction(n, 23 + n),
            random_complex(n, 29 + n),
        ]
        for a in samples:
            assert verify_det_identity(a) <= 1e-10

    def test_rejects_oversized(self):
        with pytest.raises(ValidationError):
            verify_det_identity(np.eye(7))


class TestEigenstateProperty:
    @pytest.mark.parametrize("n", [2, 4])
    def test_asym_is_determinant_eigenvector(self, n):
        s = asym_state(n)
        base = state_to_tensor(s, n)
        for seed in range(20):
            u = haar_unitary(n, 400 + seed)
            det = det_lu(u).value
            out = apply_slotwise(u, s)
            assert np.linalg.norm(out - det * base) <= 1e-10

    def test_basis_independence(self):
        # Building the antisymmetric state from the columns of a unitary V is
        # the same slot-wise action, so it equals det(V) times the original.
        n = 3
        v = haar_unitary(n, 99)
        s = asym_state(n)
        rebuilt = apply_slotwise(v, s)
        assert np.max(np.abs(rebuilt - det_lu(v).value * state_to_tensor(s, n))) <= 1e-10
