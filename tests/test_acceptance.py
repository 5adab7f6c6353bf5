"""Acceptance suite: every exit criterion at its stated tolerance.

Each test prints one PASS/FAIL line (run with ``pytest -s`` to see them all).
The criteria are exact-property checks at desk scale: identity residuals,
eigenstate norms, dyadic determinism, the concentration bound, counter
exactness, sign certainty, contraction post-selection statistics, and
byte-level reproducibility.
"""

import json
import math
import re
import subprocess
import sys
import time

import numpy as np

from qdet.antisym import _apply_to_every_slot, asym_state, verify_det_identity
from qdet.cli import RunConfig, run
from qdet.linalg import TWO_PI, det_lu, haar_orthogonal, haar_unitary
from qdet.qde import contraction_run, magnitude_estimate, phase_from_k, qde_run, sign_run

from conftest import random_complex


def report(number: int, description: str, passed: bool, detail: str = "") -> None:
    status = "PASS" if passed else "FAIL"
    suffix = f" ({detail})" if detail else ""
    print(f"ACCEPTANCE {number}: {status} - {description}{suffix}")
    assert passed, f"criterion {number} failed: {description}{suffix}"


def circular_distance(a: float, b: float) -> float:
    d = abs(a - b) % TWO_PI
    return min(d, TWO_PI - d)


def test_criterion_1_determinant_identity():
    start = time.perf_counter()
    worst = 0.0
    for n in (2, 3, 4, 5):
        for i in range(50):
            worst = max(worst, verify_det_identity(random_complex(n, 10_000 * n + i)))
    elapsed = time.perf_counter() - start
    report(
        1,
        "identity residual <= 1e-10 for 50 random matrices at each N in {2,3,4,5}, under 5 s",
        worst <= 1e-10 and elapsed < 5.0,
        f"max residual {worst:.3e}, {elapsed:.2f} s",
    )


def test_criterion_2_eigenstate_property():
    worst = 0.0
    for n in (2, 4):
        base = asym_state(n)
        for i in range(20):
            u = haar_unitary(n, 20_000 * n + i)
            det = det_lu(u).value
            out = _apply_to_every_slot(u, base)
            worst = max(worst, float(np.linalg.norm(out - det * base)))
    report(
        2,
        "slot-wise U on the antisymmetric state equals det(U) times it, to 1e-10",
        worst <= 1e-10,
        f"max norm deviation {worst:.3e}",
    )


def test_criterion_3_dyadic_exactness():
    start = time.perf_counter()
    ok = True
    detail = ""
    for t in (1, 2, 3, 4):
        for k0 in range(1 << t):
            u = np.diag([np.exp(2j * math.pi * k0 / (1 << t)), 1.0])
            result = qde_run(u, t=t, shots=200, seed=1000 * t + k0)
            exact_ok = result.exact_distribution[k0] >= 1.0 - 1e-9
            sampled_ok = result.phase.histogram == {k0: 200}
            if not (exact_ok and sampled_ok):
                ok = False
                detail = f"t={t} k0={k0} histogram={result.phase.histogram}"
                break
    elapsed = time.perf_counter() - start
    report(
        3,
        "every dyadic phase reads out its k0 with frequency 1.0 and exact probability >= 1-1e-9, under 10 s",
        ok and elapsed < 10.0,
        detail or f"{elapsed:.2f} s for 30 runs x 200 shots",
    )


def test_criterion_4_concentration_bound():
    t = 5
    bound = 4.0 / math.pi**2 - 1e-9
    grid = TWO_PI / (1 << t)
    ok = True
    detail = ""
    for i in range(20):
        u = haar_unitary(2, 30_000 + i)
        phi = det_lu(u).phase
        result = qde_run(u, t=t, shots=2000, seed=500 + i)
        k_star = int(round(phi / grid)) % (1 << t)
        if result.exact_distribution[k_star] < bound:
            ok = False
            detail = f"seed {30_000 + i}: P(k*)={result.exact_distribution[k_star]:.4f}"
            break
        if circular_distance(phase_from_k(result.phase.k_prime, t), phi) > grid + 1e-9:
            ok = False
            detail = f"seed {30_000 + i}: mode {result.phase.k_prime} off by more than one step"
            break
    report(
        4,
        "nearest 5-bit grid point holds >= 4/pi^2 exactly and the 2000-shot mode is within one step",
        ok,
        detail,
    )


def test_criterion_5_counter_exactness():
    ok = True
    detail = ""
    for n, t in ((2, 1), (2, 3), (2, 6), (4, 2), (4, 5)):
        result = qde_run(haar_unitary(n, 40_000 + 10 * n + t), t=t, shots=1, seed=t)
        if result.counters.controlled_slot_applications != t * n:
            ok = False
            detail = f"N={n} t={t}: {result.counters.controlled_slot_applications} != {t * n}"
            break
    report(5, "every unitary-mode run applies exactly t*N controlled slot operations", ok, detail)


def test_criterion_6_orthogonal_sign_certainty():
    ok = True
    detail = ""
    for n in (2, 4):
        for i in range(100):
            o = haar_orthogonal(n, 50_000 * n + i)
            oracle_sign = 1 if det_lu(o).value.real > 0 else -1
            result = sign_run(o, shots=50, seed=i)
            if result.sign != oracle_sign:  # sign_run raises on a split readout
                ok = False
                detail = f"N={n} seed {50_000 * n + i}: sign {result.sign} vs oracle {oracle_sign}"
                break
            if abs(result.majority_probability - 1.0) > 1e-12:
                ok = False
                detail = f"N={n} seed {50_000 * n + i}: majority prob {result.majority_probability}"
                break
    report(
        6,
        "sign readout unanimous over 50 shots and equal to the oracle sign for 100 matrices at N in {2,4}, "
        "with exact majority probability 1 to 1e-12",
        ok,
        detail,
    )


def test_criterion_7_contraction_acceptance():
    shots = 10_000
    p = 0.81 ** (2 * (2**2 - 1))
    result = contraction_run(0.9 * np.eye(2), t=2, shots=shots, seed=2026)
    exact_ok = abs(result.exact_acceptance - p) <= 1e-9
    sigma3 = 3.0 * math.sqrt(p * (1 - p) / shots)
    rate = result.phase.shots / shots
    magnitude = magnitude_estimate(result.phase.shots, shots, 2)
    empirical_ok = abs(rate - p) <= sigma3
    magnitude_ok = abs(magnitude - 0.81) <= 0.02
    report(
        7,
        "A = 0.9*I at t=2: exact acceptance 0.81^6 to 1e-9, empirical within 3 sigma at 1e4 shots, "
        "magnitude within 0.02 of 0.81",
        exact_ok and empirical_ok and magnitude_ok,
        f"exact {result.exact_acceptance:.9f}, empirical {rate:.4f}, magnitude {magnitude:.4f}",
    )


def test_criterion_8_postselected_phase():
    a = 0.95 * np.exp(1j * math.pi / 4) * np.eye(2)
    result = contraction_run(a, t=2, shots=4000, seed=31)
    point_mass = set(result.phase.histogram) == {1} and result.phase.shots > 0
    exact_ok = result.exact_conditioned_distribution[1] >= 1.0 - 1e-9
    report(
        8,
        "A = 0.95*e^{i pi/4}*I at t=2: accepted shots all read k=1 with exact conditioned probability >= 1-1e-9",
        point_mass and exact_ok,
        f"histogram {result.phase.histogram}, exact P(1) = {result.exact_conditioned_distribution[1]:.12f}",
    )


def test_criterion_9_reproducibility(tmp_path):
    # Two in-process runs plus two separate CLI processes; shot substreams are
    # keyed by (seed, shot), so no execution order or thread count can reorder
    # them.
    def strip_timing(text: str) -> str:
        return re.sub(r'"wall_time_ms": [^\n]+', '"wall_time_ms": 0', text)

    config_args = ["--mode", "contract", "--gen", "scaled-identity:2:0.9:0.5",
                   "--t", "2", "--shots", "2000", "--seed", "13"]
    inproc = [
        strip_timing(
            run(RunConfig(mode="contract", generator="scaled-identity:2:0.9:0.5",
                          t=2, shots=2000, seed=13)).to_json()
        )
        for _ in range(2)
    ]
    procs = [
        subprocess.run(
            [sys.executable, "-m", "qdet.cli", *config_args],
            capture_output=True, text=True, check=True,
        ).stdout
        for _ in range(2)
    ]
    same_inproc = inproc[0] == inproc[1]
    same_procs = strip_timing(procs[0]) == strip_timing(procs[1])
    cross = json.loads(procs[0])["result"]["histogram"] == json.loads(inproc[0])["result"]["histogram"]
    report(
        9,
        "identical config and seed give byte-identical reports (timing excluded) across invocations",
        same_inproc and same_procs and cross,
    )
