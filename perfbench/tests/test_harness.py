"""Tests of the benchmark harness itself: span arithmetic, output checks, determinism.

Run from the repository root with ``python -m pytest perfbench/tests``.
"""

import json
import math
from pathlib import Path

import numpy as np
import pytest

import checks
import qdet
import run
import spans
from qdet import cli
from workloads import WORKLOADS, make_matrix

REPO = Path(__file__).resolve().parents[2]


def cli_report(**config) -> tuple[str, np.ndarray]:
    cfg = cli.RunConfig(**config)
    return cli.run(cfg).to_json(), cli.load_matrix(cfg)


def test_self_time_subtracts_direct_children_only():
    # root [0, 10] holds a [1, 4] (which holds b [2, 3]) and c [5, 9].
    recorded = [
        [0, -1, 0.0, 10.0, 0],
        [1, 0, 1.0, 4.0, 0],
        [2, 1, 2.0, 3.0, 0],
        [3, 0, 5.0, 9.0, 0],
    ]
    assert spans.self_times(recorded) == [3.0, 2.0, 1.0, 4.0]
    assert sum(spans.self_times(recorded)) == 10.0


def test_tracer_summary_and_install_restore():
    ticks = iter(range(100))
    tracer = spans.Tracer(clock=lambda: float(next(ticks)))
    inner = tracer.wrap("m.inner", lambda: None)
    outer = tracer.wrap("m.outer", lambda: inner() or inner())
    outer()
    summary = tracer.summary()
    # outer spans ticks 0..5, the two inner calls 1..2 and 3..4.
    assert summary["m.outer"] == {"s": 3.0, "calls": 1, "rss_mb": 0.0}
    assert summary["m.inner"]["calls"] == 2 and summary["m.inner"]["s"] == 2.0

    original = qdet.qde.hadamard_layer
    tracer = spans.Tracer()
    restore = spans.install(tracer, qdet)
    try:
        assert qdet.qde.hadamard_layer is not original
        cli.run(cli.RunConfig(mode="qde", generator="diag-phase:2:1:3", t=3, shots=20, seed=1))
    finally:
        restore()
    assert qdet.qde.hadamard_layer is original
    summary = tracer.summary()
    assert summary["simulator.controlled_power_stage"]["calls"] == 3
    assert summary["simulator.register_probabilities"]["calls"] == 2
    assert summary["simulator.shot_rng"]["calls"] == 20
    assert summary["simulator.StateVector.norm_sq"]["calls"] > 0
    root = next(s for s in tracer.spans if s[1] == -1)
    assert sum(e["s"] for e in summary.values()) == pytest.approx(root[3] - root[2], abs=1e-12)


def test_kernel_check_is_exact_on_diag_phase():
    text, matrix = cli_report(mode="qde", generator="diag-phase:4:5:4", t=4, shots=64, seed=3)
    kernel = checks.qpe_kernel(2 * math.pi * 5 / 16, 4)
    assert kernel[5] == 1.0
    assert np.max(np.delete(kernel, 5)) < 1e-30
    failures, stats = checks.check_report(json.loads(text), "qde", 4, matrix)
    assert failures == []
    assert stats["max_kernel_dev"] < 1e-15


def test_checks_catch_a_wrong_distribution_and_counter():
    text, matrix = cli_report(mode="qde", generator="haar-unitary:2", t=3, shots=100, seed=5)
    doc = json.loads(text)
    assert checks.check_report(doc, "qde", 3, matrix)[0] == []
    doc["result"]["exact_distribution"][0] += 2e-9
    doc["counters"]["controlled_slot_applications"] += 1
    failures, _ = checks.check_report(doc, "qde", 3, matrix)
    assert len(failures) == 2


def test_contraction_checks_acceptance():
    text, matrix = cli_report(mode="contract", generator="scaled-identity:2:0.9:0.3", t=2, shots=4000, seed=2)
    doc = json.loads(text)
    failures, stats = checks.check_report(doc, "contract", 2, matrix)
    assert failures == [] and abs(stats["acceptance_z"]) <= checks.BINOMIAL_Z_MAX
    doc["result"]["accepted"] += 200
    assert any("z=" in f for f in checks.check_report(doc, "contract", 2, matrix)[0])


def test_determinism_check_fails_when_a_report_byte_changes():
    text, _ = cli_report(mode="qde", generator="haar-unitary:2", t=2, shots=10, seed=4)
    retimed = text.replace('"wall_time_ms": ', '"wall_time_ms": 9')
    assert retimed != text
    assert checks.mismatched_runs([checks.report_digest(t) for t in (text, retimed)]) == []
    at = text.index('"k_prime": ') + len('"k_prime": ')
    changed = text[:at] + ("1" if text[at] != "1" else "2") + text[at + 1:]
    assert checks.mismatched_runs([checks.report_digest(t) for t in (text, retimed, changed)]) == [2]


def test_workload_inputs_depend_only_on_the_seed():
    w = WORKLOADS["contract"]
    assert np.array_equal(make_matrix(w, 7), make_matrix(w, 7))
    assert not np.array_equal(make_matrix(w, 7), make_matrix(w, 8))
    assert np.linalg.norm(make_matrix(w, 7), 2) < 1.0


def test_benchmark_json_lists_every_emitted_metric():
    spec = json.loads((REPO / "BENCHMARK.json").read_text())
    w = WORKLOADS["contract"]
    layers = {name: {"s": 0.5, "calls": 2, "rss_mb": 0.0} for name in spans.TRACED_NAMES}
    doc = {
        "result": {"accepted": 5, "attempted": 20, "acceptance_rate": 0.25},
        "counters": {"controlled_slot_applications": 24},
    }
    traced = {"layers": layers, "doc": doc, "stats": {"max_kernel_dev": 0.0}, "digest": "ab" * 32, "run_s": 40.0}
    metrics = run.layer_metrics(w, {"run_s": 39.0}, traced)
    assert metrics["simulator.hadamard_layer.eff_gbps"][0] == pytest.approx(2 * 2 * w.state_bytes * w.t / 0.5 / 1e9)
    assert metrics["trace.untraced_s"][0] == pytest.approx(40.0 - 0.5 * len(layers))
    assert metrics["trace.overhead_s"][0] == pytest.approx(1.0)
    emitted = {name: unit for name, (_, unit) in metrics.items()}
    emitted.update({"linalg.mat_pow2.unitarity_dev": "abs", "host.copy_gbps": "GB/s"})
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == emitted
    assert {m["name"] for m in spec["end_to_end"]} == {"run_s", "peak_rss_mb", "setup_s"}
    assert all(WORKLOADS[w["name"]].why == w["why"] for w in spec["workloads"])
