"""Symmetric-group utilities and the completely antisymmetric state.

The central fact checked here: applying any square matrix A to every slot of
the antisymmetric state multiplies the state by det(A).  `verify_det_identity`
certifies this by brute force against the permutation-sum determinant oracle.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from itertools import permutations

import numpy as np

from .errors import ValidationError
from .linalg import _permutation_sign, as_matrix, det_levi_civita

#: N! enumeration bound for permutation utilities and the sparse state.
MAX_PARTICLES = 8

#: Dense N^N tensors get unwieldy beyond this slot count.
MAX_DENSE_PARTICLES = 7


@dataclass(frozen=True)
class SignedPermutation:
    """A bijection on {0, ..., N-1} together with its parity sign."""

    mapping: tuple[int, ...]
    sign: int


@dataclass(frozen=True)
class AsymState:
    """Sparse completely antisymmetric state over N distinct labels.

    ``amplitudes`` maps each label tuple (sigma(0), ..., sigma(N-1)) to
    sgn(sigma) / sqrt(N!); all N! permutation tuples are present and nothing
    else is.
    """

    n_particles: int
    amplitudes: dict[tuple[int, ...], complex]


def enumerate_permutations(n: int) -> list[SignedPermutation]:
    """All N! permutations of {0, ..., N-1} with their signs."""
    if n < 1:
        raise ValidationError(f"need at least one label, got n={n}")
    if n > MAX_PARTICLES:
        raise ValidationError(f"refusing N! enumeration for n={n} > {MAX_PARTICLES}")
    out = []
    for mapping in permutations(range(n)):
        out.append(SignedPermutation(mapping=mapping, sign=_permutation_sign(mapping)))
    return out


def asym_state(n: int) -> AsymState:
    """The normalized antisymmetric state on labels {0, ..., N-1}.

    Any n up to `MAX_PARTICLES` is accepted here; the power-of-two
    requirement is a property of the qubit slot encoding and is enforced when
    the state is loaded into a simulator register, not at construction.
    """
    amps: dict[tuple[int, ...], complex] = {}
    scale = 1.0 / math.sqrt(math.factorial(n))
    for perm in enumerate_permutations(n):
        amps[perm.mapping] = perm.sign * scale
    return AsymState(n_particles=n, amplitudes=amps)


def state_to_tensor(state: AsymState | dict[tuple[int, ...], complex], n: int) -> np.ndarray:
    """Dense rank-N tensor (shape (N,)*N) holding the sparse amplitudes."""
    if n > MAX_DENSE_PARTICLES:
        raise ValidationError(f"dense slot tensor too large for n={n} > {MAX_DENSE_PARTICLES}")
    amps = state.amplitudes if isinstance(state, AsymState) else state
    tensor = np.zeros((n,) * n, dtype=np.complex128)
    for labels, amp in amps.items():
        tensor[labels] = amp
    return tensor


def _apply_slotwise_tensor(arr: np.ndarray, tensor: np.ndarray) -> np.ndarray:
    """Apply the N x N ``arr`` to every slot (the A x A x ... x A action) of a dense slot tensor."""
    # New label k of slot s picks up sum_l A[k, l] * old amplitude with label l
    # in that slot; tensordot contracts one slot axis at a time.
    n = tensor.ndim
    for axis in range(n):
        tensor = np.moveaxis(np.tensordot(arr, tensor, axes=([1], [axis])), 0, axis)
    return tensor


def verify_det_identity(a) -> float:
    """Max-norm residual of (A slotwise on ASYM) - det(A) * ASYM.

    Zero (up to rounding) for every square matrix; values at or below 1e-10
    certify the determinant identity for this input.
    """
    arr = as_matrix(a)
    n = arr.shape[0]
    if n > 6:
        raise ValidationError(f"brute-force identity check limited to n <= 6, got {n}")
    base = state_to_tensor(asym_state(n), n)
    transformed = _apply_slotwise_tensor(arr, base)
    det = det_levi_civita(arr).value
    return float(np.max(np.abs(transformed - det * base)))
