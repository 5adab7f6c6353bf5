"""The completely antisymmetric state and the determinant identity it carries.

The central fact checked here: applying any square matrix A to every slot of
the antisymmetric state multiplies the state by det(A).  `verify_det_identity`
certifies this by brute force against the permutation-sum determinant oracle.
"""

from __future__ import annotations

import math

import numpy as np

from .errors import ValidationError
from .linalg import as_matrix, det_levi_civita, permutation_parities

#: N! enumeration bound for the antisymmetric state.
MAX_PARTICLES = 8

#: Largest n for the brute-force determinant identity check.
VERIFY_MAX_DIM = 6


def asym_state(n: int) -> np.ndarray:
    """The normalized antisymmetric state on labels {0, ..., N-1}, as a dense (N,)*N tensor.

    Entry [l_0, ..., l_{N-1}] is sgn(sigma) / sqrt(N!) when the labels are a
    permutation sigma and 0 elsewhere.  The tensor is Fortran-ordered, so its
    Fortran-order ravel is the slot-register vector indexed by
    r = sum_s l_s * N**s.  Any n up to `MAX_PARTICLES` is accepted here; the
    power-of-two requirement is a property of the qubit slot encoding and is
    enforced when the state is loaded into a simulator register.
    """
    if n < 1:
        raise ValidationError(f"need at least one label, got n={n}")
    if n > MAX_PARTICLES:
        raise ValidationError(f"refusing N! enumeration for n={n} > {MAX_PARTICLES}")
    perms, odd = permutation_parities(n)
    scale = 1.0 / math.sqrt(len(perms))
    tensor = np.zeros((n,) * n, dtype=np.complex128, order="F")
    tensor[tuple(perms.T)] = np.where(odd, -scale, scale)
    return tensor


def _apply_to_every_slot(arr: np.ndarray, tensor: np.ndarray) -> np.ndarray:
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
    if n > VERIFY_MAX_DIM:
        raise ValidationError(f"brute-force identity check limited to n <= {VERIFY_MAX_DIM}, got {n}")
    base = asym_state(n)
    transformed = _apply_to_every_slot(arr, base)
    det = det_levi_civita(arr).value
    return float(np.max(np.abs(transformed - det * base)))
