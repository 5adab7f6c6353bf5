"""Permutation signs, the antisymmetric state, and the determinant identity."""

import math
from itertools import permutations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from qdet.antisym import _apply_to_every_slot, asym_state, verify_det_identity
from qdet.errors import ValidationError
from qdet.linalg import det_levi_civita, det_lu, haar_unitary

from conftest import random_complex, random_contraction


def permutation_matrix(mapping):
    n = len(mapping)
    p = np.zeros((n, n))
    for src, dst in enumerate(mapping):
        p[dst, src] = 1.0
    return p


def support(state):
    """The nonzero entries of a dense slot tensor, as {labels: amplitude}."""
    return {tuple(map(int, labels)): state[labels] for labels in zip(*np.nonzero(state))}


def signs(n):
    """{permutation: sign} read off the dense antisymmetric state."""
    return {labels: int(np.sign(amp.real)) for labels, amp in support(asym_state(n)).items()}


class TestEnumeratePermutations:
    """The permutations and their signs, as the support of the dense antisymmetric state."""

    def test_single_label(self):
        assert np.array_equal(asym_state(1), [1.0])

    def test_two_labels(self):
        assert signs(2) == {(0, 1): 1, (1, 0): -1}

    def test_alternating_group_is_half(self):
        got = signs(4)
        assert len(got) == 24
        assert sum(1 for sign in got.values() if sign == 1) == 12

    def test_no_duplicates(self):
        assert set(signs(5)) == set(permutations(range(5)))

    def test_sign_matches_permutation_matrix_determinant(self):
        # Independent oracle: sgn(sigma) equals det of the permutation matrix.
        for mapping, sign in signs(4).items():
            det = det_lu(permutation_matrix(mapping)).value.real
            assert round(det) == sign

    def test_rejects_large_n(self):
        for n in (0, 9):
            with pytest.raises(ValidationError):
                asym_state(n)


class TestAsymState:
    def test_two_particle_singlet_form(self):
        inv = 1.0 / math.sqrt(2)
        assert support(asym_state(2)) == pytest.approx({(0, 1): inv, (1, 0): -inv})

    def test_four_particle_support_and_modulus(self):
        s = asym_state(4)
        assert s.shape == (4,) * 4
        assert np.count_nonzero(s) == 24
        expected = 1.0 / math.sqrt(24)
        for amp in support(s).values():
            assert abs(abs(amp) - expected) <= 1e-14

    @pytest.mark.parametrize("n", [2, 3, 4, 5])
    def test_normalized(self, n):
        s = asym_state(n)
        assert np.vdot(s, s).real == pytest.approx(1.0, abs=1e-12)

    def test_accepts_non_power_of_two(self):
        # The power-of-two restriction belongs to the qubit encoding, not to
        # the algebraic state; dimension 3 and 5 must work for the identity
        # checks.
        assert np.count_nonzero(asym_state(3)) == 6
        assert np.count_nonzero(asym_state(5)) == 120

    @given(st.integers(2, 5), st.data())
    @settings(max_examples=30, deadline=None)
    def test_antisymmetric_under_label_swap(self, n, data):
        # Swapping the labels of slots i and j negates the amplitude.
        i = data.draw(st.integers(0, n - 1))
        j = data.draw(st.integers(0, n - 1))
        if i == j:
            return
        s = asym_state(n)
        assert np.array_equal(np.swapaxes(s, i, j), -s)


def per_permutation_asym_state(n):
    """`asym_state` one permutation at a time, each sign from its inversion count."""
    tensor = np.zeros((n,) * n, dtype=np.complex128, order="F")
    scale = 1.0 / math.sqrt(math.factorial(n))
    for perm in permutations(range(n)):
        inversions = sum(perm[i] > perm[j] for i in range(n) for j in range(i + 1, n))
        tensor[perm] = (-1) ** inversions * scale
    return tensor


@pytest.mark.parametrize("n", range(1, 9))
def test_asym_state_equals_per_permutation_form(n):
    state = asym_state(n)
    assert np.array_equal(state, per_permutation_asym_state(n))
    assert state.flags.f_contiguous


class TestApplySlotwise:
    def test_identity_preserves_state(self):
        s = asym_state(3)
        assert np.array_equal(_apply_to_every_slot(np.eye(3), s), s)

    def test_diagonal_sign_flip_scales_by_determinant(self):
        s = asym_state(2)
        out = _apply_to_every_slot(np.diag([1.0, -1.0]), s)
        assert np.array_equal(out, -s)

    def test_random_matrix_scales_by_determinant(self):
        s = asym_state(3)
        a = random_complex(3, 42)
        det = det_levi_civita(a).value
        assert np.max(np.abs(_apply_to_every_slot(a, s) - det * s)) <= 1e-10


class TestVerifyDetIdentity:
    def test_identity_matrix(self):
        assert verify_det_identity(np.eye(4)) <= 1e-14

    def test_repeated_column_annihilates(self):
        a = np.array([[1.0, 1.0], [2.0, 2.0]])
        assert verify_det_identity(a) <= 1e-10
        assert abs(det_levi_civita(a).value) <= 1e-12
        # det = 0 means the transformed state itself vanishes.
        assert np.max(np.abs(_apply_to_every_slot(a, asym_state(2)))) <= 1e-12

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
        base = asym_state(n)
        for seed in range(20):
            u = haar_unitary(n, 400 + seed)
            det = det_lu(u).value
            out = _apply_to_every_slot(u, base)
            assert np.linalg.norm(out - det * base) <= 1e-10

    def test_basis_independence(self):
        # Building the antisymmetric state from the columns of a unitary V is
        # the same slot-wise action, so it equals det(V) times the original.
        n = 3
        v = haar_unitary(n, 99)
        s = asym_state(n)
        rebuilt = _apply_to_every_slot(v, s)
        assert np.max(np.abs(rebuilt - det_lu(v).value * s)) <= 1e-10
