"""Dense complex linear algebra: classical determinant oracles and operator builders.

Matrices are plain ``numpy.ndarray`` values of dtype complex128 with the
convention ``A[j, i] = <j|A|i>``.  Everything here is a pure function; the
simulator and the verification suite both consume these as ground truth.
"""

from __future__ import annotations

import math
from collections.abc import Iterator
from dataclasses import dataclass
from itertools import chain, combinations, permutations

import numpy as np

from .errors import ValidationError

#: Largest dimension accepted by the LU determinant oracle.
DEFAULT_DIM_BOUND = 64

#: Largest dimension for the factorial-cost permutation-sum determinant.
LEVI_CIVITA_MAX_DIM = 8

TWO_PI = 2.0 * math.pi

#: Slack admitted on an input's unitarity, realness and operator norm.
VALIDATION_TOL = 1e-9


@dataclass(frozen=True)
class DetValue:
    """A determinant split into polar pieces.

    ``value = magnitude * exp(1j * phase)`` with ``phase`` in [0, 2*pi),
    matching the readout grid of the phase-estimation register.
    """

    value: complex
    magnitude: float
    phase: float

    @classmethod
    def from_complex(cls, value: complex) -> "DetValue":
        """The polar pieces of ``value``; ValidationError when its modulus is not finite, as past the float range."""
        value = complex(value)
        try:
            magnitude = abs(value)
        except OverflowError:  # finite parts whose modulus is not
            magnitude = math.inf
        if not math.isfinite(magnitude):
            raise ValidationError(f"determinant {value} is outside the float range")
        return cls(value=value, magnitude=magnitude, phase=phase_in_2pi(value))


def phase_in_2pi(value: complex) -> float:
    """Argument of ``value`` mapped into [0, 2*pi)."""
    phase = math.atan2(value.imag, value.real) % TWO_PI
    # atan2 of a tiny negative imaginary part wraps to just below 2*pi;
    # that is the intended convention, not an error.
    return 0.0 if phase == TWO_PI else phase


def as_matrix(a, *, square: bool = True) -> np.ndarray:
    """Validate and return ``a`` as a complex128 matrix.

    Raises ValidationError for non-2D input, non-finite entries, or (when
    ``square`` is set) a non-square shape.
    """
    arr = np.asarray(a, dtype=np.complex128)
    if arr.ndim != 2:
        raise ValidationError(f"expected a 2-D matrix, got ndim={arr.ndim}")
    if square and arr.shape[0] != arr.shape[1]:
        raise ValidationError(f"expected a square matrix, got shape {arr.shape}")
    if not np.all(np.isfinite(arr.view(np.float64))):
        raise ValidationError("matrix contains NaN or Inf entries")
    return arr


def det_lu(a) -> DetValue:
    """Determinant via pivoted LU factorization.

    ``np.linalg.det`` runs LAPACK's partial-pivot LU (``zgetrf``) and returns
    sign * exp(log|det|), where sign is the unit phase of the product of U's
    diagonal with the pivot parity folded in.  A singular input is a
    legitimate query: its determinant is exactly zero and nothing warns.
    This is the workhorse oracle; `det_levi_civita` is the independent
    small-dimension cross-check.
    """
    arr = as_matrix(a)
    n = arr.shape[0]
    if n > DEFAULT_DIM_BOUND:
        raise ValidationError(f"dimension {n} exceeds the configured bound {DEFAULT_DIM_BOUND}")
    with np.errstate(over="ignore", invalid="ignore"):  # from_complex reports a determinant past the float range
        return DetValue.from_complex(np.linalg.det(arr))


def det_levi_civita(a) -> DetValue:
    """Determinant as the signed sum over all permutations.

    Enumerates every sigma in the symmetric group and accumulates
    sgn(sigma) * prod_k A[k, sigma(k)].  Costs N!, so N is capped at
    `LEVI_CIVITA_MAX_DIM`.
    """
    arr = as_matrix(a)
    n = arr.shape[0]
    if n > LEVI_CIVITA_MAX_DIM:
        raise ValidationError(
            f"permutation-sum determinant needs N! work; N={n} exceeds {LEVI_CIVITA_MAX_DIM}"
        )
    perms, odd = permutation_parities(n)
    total = 0.0 + 0.0j
    with np.errstate(over="ignore", invalid="ignore"):  # as in det_lu
        for perm, negative in zip(perms.tolist(), odd.tolist()):
            term = 1.0 + 0.0j
            for row, col in enumerate(perm):
                term *= arr[row, col]
            total += (-1 if negative else 1) * term
    return DetValue.from_complex(total)


def permutation_parities(n: int) -> tuple[np.ndarray, np.ndarray]:
    """Every permutation of range(n), in lexicographic order, as (n!, n) rows, and which are odd.

    A permutation is odd when it has an odd number of inversions: pairs
    i < j with perm[i] > perm[j].
    """
    count = math.factorial(n)
    perms = np.fromiter(
        chain.from_iterable(permutations(range(n))), dtype=np.intp, count=count * n
    ).reshape(count, n)
    odd = np.zeros(count, dtype=bool)
    for i, j in combinations(range(n), 2):
        odd ^= perms[:, i] > perms[:, j]
    return perms, odd


def is_unitary(a, tol: float) -> bool:
    """True iff the max-entry norm of A^dag A - I is at most ``tol``."""
    arr = as_matrix(a)
    with np.errstate(over="ignore", invalid="ignore"):  # an overflowing Gram product reads as not unitary
        gram = arr.conj().T @ arr
    gram[np.diag_indices_from(gram)] -= 1.0
    return bool(np.max(np.abs(gram)) <= tol)


def haar_unitary(n: int, seed: int) -> np.ndarray:
    """Haar-distributed unitary, deterministic in ``seed``.

    QR of a complex Gaussian matrix, with R's diagonal rotated to positive
    reals so the factorization (and hence the distribution) is unambiguous.
    """
    if n < 1:
        raise ValidationError(f"dimension must be positive, got {n}")
    rng = np.random.Generator(np.random.PCG64(seed))
    z = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
    return _qr_positive_diagonal(z)


def haar_orthogonal(n: int, seed: int) -> np.ndarray:
    """Haar-distributed real orthogonal matrix (returned as complex128).

    Both determinant signs occur across seeds since the Haar measure on O(N)
    weights the two components equally.
    """
    if n < 1:
        raise ValidationError(f"dimension must be positive, got {n}")
    rng = np.random.Generator(np.random.PCG64(seed))
    z = rng.standard_normal((n, n))
    return _qr_positive_diagonal(z)


def _qr_positive_diagonal(z: np.ndarray) -> np.ndarray:
    q, r = np.linalg.qr(z)
    d = np.diag(r)
    q = q * (d / np.abs(d))
    return np.asarray(q, dtype=np.complex128)


def psd_sqrt(h, *, tol: float = 1e-10, snap: float = 0.0) -> np.ndarray:
    """Hermitian square root of a positive semidefinite matrix.

    Eigenvalues in [-tol, 0) are treated as rounding noise and clamped to
    zero; anything below -tol is a genuine domain violation.  ``snap``
    additionally zeroes eigenvalues in [0, snap): the square root amplifies
    eigenvalue noise near zero (sqrt(1e-16) = 1e-8), so callers whose inputs
    are exact zeros up to rounding snap them away.
    """
    arr = as_matrix(h)
    if np.max(np.abs(arr - arr.conj().T)) > 1e-10:
        raise ValidationError("matrix is not Hermitian to 1e-10")
    evals, evecs = np.linalg.eigh(arr)
    if evals[0] < -tol:
        raise ValidationError(
            f"matrix is not positive semidefinite: smallest eigenvalue {evals[0]:.3e}"
        )
    evals = np.clip(evals, 0.0, None)
    if snap > 0.0:
        evals[evals < snap] = 0.0
    return (evecs * np.sqrt(evals)) @ evecs.conj().T


def operator_norm(a) -> float:
    """Largest singular value."""
    return float(np.linalg.norm(as_matrix(a, square=False), ord=2))


def block_encode(a) -> np.ndarray:
    """Unitary dilation of a contraction: [[A, (1-AA^dag)^1/2], [(1-A^dag A)^1/2, -A^dag]].

    The top-left block of the returned 2d x 2d unitary equals A, so A is
    recovered by projecting the extra qubit onto |0>.  Requires operator norm
    at most 1 (+1e-9 slack for inputs normalized at the boundary).
    """
    arr = as_matrix(a)
    norm = operator_norm(arr)
    if norm > 1.0 + VALIDATION_TOL:
        raise ValidationError(f"not a contraction: operator norm {norm:.12g} > 1")
    d = arr.shape[0]
    eye = np.eye(d)
    # The admitted norm slack means the Gram residuals can dip to about
    # -2e-9; pass a matching tolerance so psd_sqrt clamps instead of raising.
    # Snapping tiny positive eigenvalues keeps the encoding of a unitary
    # exactly block-diagonal instead of sqrt-amplifying rounding noise.
    slack = max(1e-10, (1.0 + VALIDATION_TOL) ** 2 - 1.0 + 1e-12)
    upper_right = psd_sqrt(eye - arr @ arr.conj().T, tol=slack, snap=1e-11)
    lower_left = psd_sqrt(eye - arr.conj().T @ arr, tol=slack, snap=1e-11)
    out = np.empty((2 * d, 2 * d), dtype=np.complex128)
    out[:d, :d] = arr
    out[:d, d:] = upper_right
    out[d:, :d] = lower_left
    out[d:, d:] = -arr.conj().T
    return out


def mat_pow2(a, m: int) -> np.ndarray:
    """A ** (2 ** m) by repeated squaring: the last of ``stage_powers(a, m + 1)``."""
    if m < 0 or m > 62:
        raise ValidationError(f"squaring count must be in [0, 62], got {m}")
    *_, power = stage_powers(a, m + 1)
    return power


def stage_powers(a, t: int) -> Iterator[np.ndarray]:
    """A ** (2 ** m) for m = 0 .. t-1, each squared from the one before: t - 1 squarings in all."""
    power = as_matrix(a)
    for m in range(t):
        if m:
            power = power @ power
        yield power


def kron_power(a, n: int) -> np.ndarray:
    """n-fold Kronecker power: the operator acting as ``a`` on every slot."""
    arr = as_matrix(a)
    if n < 1:
        raise ValidationError(f"Kronecker power needs n >= 1, got {n}")
    out = arr
    for _ in range(n - 1):
        out = np.kron(out, arr)
    return out
