"""Determinant oracles, Haar sampling, and the block-encoding constructions."""

import math
import warnings
from functools import reduce

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from qdet.errors import ValidationError
from qdet.linalg import (
    DetValue,
    as_matrix,
    block_encode,
    det_levi_civita,
    det_lu,
    haar_orthogonal,
    haar_unitary,
    is_unitary,
    mat_pow2,
    operator_norm,
    psd_sqrt,
    stage_powers,
)

from conftest import random_complex, random_contraction


class TestDetLu:
    def test_identity(self):
        assert det_lu(np.eye(2)).value == pytest.approx(1.0 + 0.0j)

    def test_diagonal_phases(self):
        d = det_lu(np.diag([1j, 1j]))
        assert d.value == pytest.approx(-1.0 + 0.0j, abs=1e-14)
        assert d.phase == pytest.approx(math.pi)

    def test_haar_unitary_has_unit_modulus(self):
        # Unitarity forces |det| = 1; the permutation-sum oracle is the
        # independent cross-check.
        u = haar_unitary(4, 7)
        d = det_lu(u)
        assert abs(d.magnitude - 1.0) <= 1e-10
        assert abs(d.value - det_levi_civita(u).value) <= 1e-11

    def test_rejects_non_square(self):
        with pytest.raises(ValidationError):
            det_lu(np.ones((2, 3)))

    def test_rejects_oversized(self):
        with pytest.raises(ValidationError):
            det_lu(np.eye(65))

    def test_singular_matrix_gives_zero(self):
        assert det_lu(np.array([[1.0, 1.0], [1.0, 1.0]])).magnitude == pytest.approx(0.0, abs=1e-14)

    @pytest.mark.parametrize("a", [np.ones((3, 3)), np.zeros((4, 4))], ids=["ones3", "zeros4"])
    def test_singular_matrix_is_exactly_zero_and_silent(self, a):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            d = det_lu(a)
        assert d.magnitude == 0.0


class TestDetLeviCivita:
    def test_identity_three(self):
        assert det_levi_civita(np.eye(3)).value == pytest.approx(1.0 + 0.0j)

    def test_single_transposition(self):
        assert det_levi_civita(np.array([[0, 1], [1, 0]])).value == pytest.approx(-1.0 + 0.0j)

    def test_agrees_with_lu_oracle(self):
        a = random_complex(4, 11)
        assert abs(det_levi_civita(a).value - det_lu(a).value) <= 1e-11

    def test_rejects_factorial_blowup(self):
        with pytest.raises(ValidationError):
            det_levi_civita(np.eye(9))


class TestDetValue:
    @given(st.integers(0, 2**31 - 1))
    @settings(max_examples=25, deadline=None)
    def test_polar_decomposition_consistent(self, seed):
        d = det_lu(random_complex(3, seed))
        assert abs(d.value - d.magnitude * np.exp(1j * d.phase)) <= 1e-12
        assert 0.0 <= d.phase < 2 * math.pi


class TestIsUnitary:
    def test_identity(self):
        assert is_unitary(np.eye(4), 1e-12)

    def test_scaled_identity_rejected(self):
        assert not is_unitary(0.5 * np.eye(2), 1e-12)

    def test_haar_sample(self):
        assert is_unitary(haar_unitary(4, 7), 1e-10)


class TestAsMatrix:
    @pytest.mark.parametrize("a", [np.ones(4), np.ones((2, 2, 2)), 1.0], ids=["1-D", "3-D", "scalar"])
    def test_rejects_non_2d_input(self, a):
        with pytest.raises(ValidationError, match="expected a 2-D matrix"):
            as_matrix(a)


@pytest.mark.parametrize("haar", [haar_unitary, haar_orthogonal])
@pytest.mark.parametrize("n", [0, -1])
def test_haar_samplers_reject_a_dimension_below_1(haar, n):
    with pytest.raises(ValidationError, match=f"dimension must be positive, got {n}"):
        haar(n, 0)


class TestHaarUnitary:
    def test_one_dimensional_is_a_phase(self):
        u = haar_unitary(1, 5)
        assert abs(abs(u[0, 0]) - 1.0) <= 1e-12

    def test_deterministic_for_fixed_seed(self):
        a = haar_unitary(4, 7)
        b = haar_unitary(4, 7)
        assert np.array_equal(a, b)

    @given(st.integers(0, 2**31 - 1))
    @settings(max_examples=25, deadline=None)
    def test_always_unitary(self, seed):
        assert is_unitary(haar_unitary(4, seed), 1e-10)


class TestHaarOrthogonal:
    def test_one_dimensional_is_a_sign(self):
        for seed in range(10):
            o = haar_orthogonal(1, seed)
            assert abs(abs(o[0, 0].real) - 1.0) <= 1e-12
            assert o[0, 0].imag == 0.0

    def test_orthogonality(self):
        o = haar_orthogonal(4, 3)
        assert np.max(np.abs(o.T @ o - np.eye(4))) <= 1e-10

    def test_both_determinant_signs_occur(self):
        signs = {int(np.sign(det_lu(haar_orthogonal(2, seed)).value.real)) for seed in range(100)}
        assert signs == {-1, 1}


class TestPsdSqrt:
    def test_identity(self):
        assert np.allclose(psd_sqrt(np.eye(2)), np.eye(2), atol=1e-12)

    def test_scaled_identity(self):
        assert np.allclose(psd_sqrt(0.25 * np.eye(2)), 0.5 * np.eye(2), atol=1e-12)

    def test_contraction_gram_complement(self):
        a = 0.6 * np.eye(2)
        assert np.allclose(psd_sqrt(np.eye(2) - a.conj().T @ a), 0.8 * np.eye(2), atol=1e-12)

    def test_rejects_non_hermitian(self):
        with pytest.raises(ValidationError):
            psd_sqrt(np.array([[0.0, 1.0], [0.0, 0.0]]))

    def test_rejects_negative_eigenvalues(self):
        with pytest.raises(ValidationError):
            psd_sqrt(np.diag([1.0, -0.5]))

    def test_roundtrip_on_random_psd(self):
        for seed in range(50):
            z = random_complex(4, 3000 + seed)
            h = z.conj().T @ z
            s = psd_sqrt(h)
            assert np.max(np.abs(s @ s - h)) <= 1e-9
            assert np.max(np.abs(s - s.conj().T)) <= 1e-9


class TestBlockEncode:
    def test_zero_matrix(self):
        v = block_encode(np.zeros((2, 2)))
        expected = np.block([[np.zeros((2, 2)), np.eye(2)], [np.eye(2), np.zeros((2, 2))]])
        assert np.allclose(v, expected, atol=1e-12)

    def test_unitary_input_has_empty_offdiagonal(self):
        u = haar_unitary(2, 9)
        v = block_encode(u)
        assert np.allclose(v[:2, :2], u, atol=1e-12)
        assert np.max(np.abs(v[:2, 2:])) <= 1e-7
        assert np.max(np.abs(v[2:, :2])) <= 1e-7
        assert np.allclose(v[2:, 2:], -u.conj().T, atol=1e-12)

    def test_three_four_five(self):
        v = block_encode(0.6 * np.eye(2))
        expected = np.block(
            [[0.6 * np.eye(2), 0.8 * np.eye(2)], [0.8 * np.eye(2), -0.6 * np.eye(2)]]
        )
        assert np.allclose(v, expected, atol=1e-12)

    def test_rejects_expansion(self):
        with pytest.raises(ValidationError):
            block_encode(1.5 * np.eye(2))

    def test_unitary_for_random_contractions(self):
        for seed in range(50):
            a = random_contraction(3, 5000 + seed)
            assert is_unitary(block_encode(a), 1e-9)

    def test_top_left_block_recovers_input(self):
        a = random_contraction(3, 77)
        assert np.allclose(block_encode(a)[:3, :3], a, atol=1e-12)


class TestMatPow2:
    def test_zero_squarings(self):
        a = random_complex(3, 1)
        assert np.array_equal(mat_pow2(a, 0), a)

    def test_single_squaring(self):
        assert np.allclose(mat_pow2(np.diag([1j, 1.0]), 1), np.diag([-1.0 + 0j, 1.0]), atol=1e-14)

    def test_matches_sequential_products(self):
        u = haar_unitary(4, 7)
        naive = reduce(np.matmul, [u] * 8)
        assert np.max(np.abs(mat_pow2(u, 3) - naive)) <= 1e-10


class TestStagePowers:
    @pytest.mark.parametrize("t", [1, 2, 9])
    def test_bit_identical_to_mat_pow2(self, t):
        u = haar_unitary(4, 30 + t)
        powers = list(stage_powers(u, t))
        assert len(powers) == t
        for m, power in enumerate(powers):
            assert np.array_equal(power, mat_pow2(u, m)), m


class TestOracleConsistency:
    @pytest.mark.parametrize("n", [2, 3, 4, 5, 6])
    def test_lu_vs_permutation_sum(self, n):
        for seed in range(10):
            a = random_complex(n, 100 * n + seed)
            lu = det_lu(a).value
            lc = det_levi_civita(a).value
            assert abs(lu - lc) <= 1e-9 * max(1.0, abs(lu))

    @pytest.mark.parametrize("n", [2, 3, 4, 5, 6])
    def test_lu_matches_permutation_sum_to_1e13_relative(self, n):
        for seed in range(10):
            a = random_complex(n, 100 * n + seed)
            lc = det_levi_civita(a).value
            assert abs(det_lu(a).value - lc) <= 1e-13 * abs(lc)

    @given(st.integers(0, 2**31 - 1), st.integers(0, 2**31 - 1))
    @settings(max_examples=30, deadline=None)
    def test_determinant_multiplicative(self, seed_a, seed_b):
        a, b = random_complex(4, seed_a), random_complex(4, seed_b)
        prod = det_lu(a @ b).value
        assert abs(prod - det_lu(a).value * det_lu(b).value) <= 1e-9 * max(1.0, abs(prod))

    @given(st.integers(0, 2**31 - 1))
    @settings(max_examples=30, deadline=None)
    def test_unitary_determinant_has_unit_modulus(self, seed):
        assert abs(det_lu(haar_unitary(4, seed)).magnitude - 1.0) <= 1e-10


def test_operator_norm_is_largest_singular_value():
    a = np.diag([0.3, 0.9, 0.5])
    assert operator_norm(a) == pytest.approx(0.9)


def test_operator_norm_rejects_a_non_square_matrix():
    with pytest.raises(ValidationError, match="expected a square matrix"):
        operator_norm(np.ones((2, 3)))


def test_detvalue_from_complex_zero():
    d = DetValue.from_complex(0.0)
    assert d.magnitude == 0.0 and d.phase == 0.0


@pytest.mark.parametrize(
    "value", [complex(math.inf, math.nan), complex(math.nan, math.nan), complex(1.5e308, 1.5e308)], ids=str
)
def test_detvalue_from_complex_rejects_a_modulus_past_the_float_range(value):
    with pytest.raises(ValidationError, match="outside the float range"):
        DetValue.from_complex(value)
