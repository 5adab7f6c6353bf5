"""Output checks on one CLI report, and the digest behind the determinism check.

A run fails when any check here fails.  The checks compare each report with
closed forms computed from the input matrix, so they hold for any seed.
"""

from __future__ import annotations

import hashlib
import math
import re

import numpy as np
from qdet.linalg import det_lu, mat_pow2

#: Largest allowed |P(k) - kernel(k)| over the phase distribution.
KERNEL_TOL = 1e-9
#: Relative tolerance of the contraction acceptance probability.
ACCEPTANCE_RTOL = 1e-9
#: Largest allowed |z| of the accepted-shot count.
BINOMIAL_Z_MAX = 5.0

_WALL_TIME = re.compile(r',\n  "wall_time_ms": [^\n]*')


def qpe_kernel(phi: float, t: int) -> np.ndarray:
    """Phase-estimation distribution |sin(2^t x/2) / (2^t sin(x/2))|^2, x = phi - 2 pi k / 2^t."""
    size = 1 << t
    x = phi - 2.0 * math.pi * np.arange(size) / size
    half = ((x + math.pi) % (2.0 * math.pi) - math.pi) / 2.0
    den = size * np.sin(half)
    ratio = np.divide(np.sin(size * half), den, out=np.ones(size), where=den != 0.0)
    return ratio**2


def report_digest(text: str) -> str:
    """SHA-256 of the report with its only timing field, ``wall_time_ms``, removed."""
    return hashlib.sha256(_WALL_TIME.sub("", text).encode()).hexdigest()


def mismatched_runs(digests: list[str]) -> list[int]:
    """Indices of the runs whose report bytes differ from the first run's."""
    return [i for i, digest in enumerate(digests) if digest != digests[0]]


def expected_counters(n: int, t: int) -> dict[str, int]:
    """Closed forms of the report's cost counters for N slots and t phase qubits."""
    log2n = math.log2(n)
    return {
        "controlled_slot_applications": t * n,
        "modeled_orthonorm_ops": max(n, math.ceil(n * math.log2(n / math.e))),
        "modeled_asym_ops": math.ceil(n * log2n**2),
        "modeled_qft_ops": t,
        "modeled_inv_qft_ops": t * (t + 1) // 2,
    }


def check_report(doc: dict, mode: str, t: int, matrix: np.ndarray) -> tuple[list[str], dict[str, float]]:
    """Check one parsed report against theory; return (failures, measured deviations)."""
    failures: list[str] = []
    det = det_lu(matrix)
    result = doc["result"]
    if doc["disagreement"]:
        failures.append("report flags disagreement with the oracle")
    expected = expected_counters(matrix.shape[0], t)
    if doc["counters"] != expected:
        failures.append(f"counters {doc['counters']} != closed forms {expected}")

    stats: dict[str, float] = {}
    if mode == "sign":
        stats["max_kernel_dev"] = abs(1.0 - result["majority_probability"])
        if result["sign"] != (1 if det.value.real >= 0 else -1) or not result["unanimous"]:
            failures.append(f"sign {result['sign']} (unanimous={result['unanimous']}) contradicts det {det.value}")
    else:
        exact = np.asarray(result["exact_distribution"], dtype=float)
        stats["max_kernel_dev"] = float(np.max(np.abs(exact - qpe_kernel(det.phase, t))))
    if stats["max_kernel_dev"] > KERNEL_TOL:
        failures.append(f"phase distribution is {stats['max_kernel_dev']:.3e} from the QPE kernel")

    if mode == "contract":
        closed_form = det.magnitude ** (2 * ((1 << t) - 1))
        for key in ("exact_acceptance", "predicted_acceptance"):
            rel = abs(result[key] - closed_form) / closed_form
            stats[f"{key}_rel_dev"] = rel
            if rel > ACCEPTANCE_RTOL:
                failures.append(f"{key} {result[key]!r} is {rel:.3e} from |det A|^(2(2^t-1))")
        shots, accepted, p = result["attempted"], result["accepted"], result["predicted_acceptance"]
        z = (accepted - shots * p) / math.sqrt(shots * p * (1.0 - p))
        stats["acceptance_z"] = z
        if abs(z) > BINOMIAL_Z_MAX:
            failures.append(f"accepted {accepted} of {shots} is z={z:.2f} from predicted_acceptance")
    return failures, stats


def unitarity_dev(matrix: np.ndarray, t: int) -> float:
    """Largest max-entry |P^dag P - I| over the stage powers P = U^(2^m), m < t."""
    worst = 0.0
    for m in range(t):
        power = mat_pow2(matrix, m)
        gram = power.conj().T @ power - np.eye(matrix.shape[0])
        worst = max(worst, float(np.max(np.abs(gram))))
    return worst
