"""qdet benchmark: verified single CLI runs, end to end or traced per layer.

Run from the root of a qdet checkout:

    python3 perfbench/run.py --workload qde-phase --seed 1 --seconds 50 --trace 0

Each sample is one fresh interpreter that runs `qdet.cli.run` and
`RunReport.to_json` on a matrix the benchmark generated from ``--seed``
(see `workloads.py` for the workloads and why each was chosen).  Runs go back
to back, one at a time, while the next is expected to end within
``--seconds`` (at least three runs end to end, one pair traced).  Every report is
checked against closed forms (`checks.py`), and all reports of one
invocation must be byte-identical apart from ``wall_time_ms``.

``--trace 0`` reports the end-to-end metrics: median run time, median peak
RSS and the median of several set-up probes (interpreter start to qdet
imported and the input parsed).  ``--trace 1`` alternates untraced and
traced runs and reports per-layer self times, calls and RSS rises from the
traced ones (`spans.py`), plus derived rates and the tracing overhead.

The last line of standard output is one JSON object; the lines before it
give the host, each metric with its sample count, and any failures.  Spans
and per-run samples are written under ``.bench_out/``.
"""

from __future__ import annotations

import argparse
import ctypes
import json
import os
import platform
import statistics
import subprocess
import sys
import time
from pathlib import Path

import spans
from workloads import WORKLOADS, hadamard_bytes, make_matrix, power_stage_bytes, write_matrix

CHILD = Path(__file__).resolve().parent / "child.py"
CHILD_TIMEOUT_S = 120
#: Fewest timed runs per end-to-end invocation, so that the median drops an outlier.
MIN_RUNS = 3
#: Timed set-up probes per end-to-end invocation, after one untimed warm-up.
SETUP_PROBES = 5
#: Array size of the copy probe is this many times the last-level cache.
COPY_CACHE_MULTIPLE = 4


class ChildFailed(Exception):
    pass


def spawn(argv: list[str]) -> tuple[dict, float]:
    """Run one child to completion; return its JSON line and its start time."""
    start = time.monotonic()
    try:
        proc = subprocess.run(
            [sys.executable, str(CHILD), *argv], capture_output=True, text=True, timeout=CHILD_TIMEOUT_S
        )
    except subprocess.TimeoutExpired as exc:
        raise ChildFailed(f"{argv[0]} timed out after {CHILD_TIMEOUT_S} s") from exc
    if proc.returncode != 0:
        tail = proc.stderr.strip().splitlines()[-1:] or ["no stderr"]
        raise ChildFailed(f"{argv[0]} exited with {proc.returncode}: {tail[0]}")
    return json.loads(proc.stdout.strip().splitlines()[-1]), start


class Bench:
    """One invocation: a workload, a seed and its generated input."""

    def __init__(self, workload, seed: int, src: Path, out_dir: Path, checks):
        self.workload = workload
        self.seed = seed
        self.src = src
        self.out_dir = out_dir
        self.checks = checks
        self.matrix_path = out_dir / "matrix.json"
        self.matrix = write_matrix(make_matrix(workload, seed), self.matrix_path)
        self.runs: list[dict] = []

    def setup_probe(self) -> float:
        out, start = spawn(["setup", str(self.src), str(self.matrix_path)])
        return out["ready"] - start

    def run_once(self, *, traced: bool) -> dict:
        w = self.workload
        report_path = self.out_dir / "report.json"
        argv = ["run", str(self.src), str(self.matrix_path), w.mode, str(w.t), str(w.shots), str(self.seed), str(report_path)]
        if traced:
            argv += ["--spans", str(self.out_dir / "spans.json")]
        record: dict = {"traced": traced, "failures": []}
        self.runs.append(record)
        try:
            out, _ = spawn(argv)
        except ChildFailed as exc:
            record["failures"].append(str(exc))
            return record
        text = report_path.read_text()
        report_path.unlink()
        record.update(out)
        record["doc"] = json.loads(text)
        record["digest"] = self.checks.report_digest(text)
        failures, record["stats"] = self.checks.check_report(record["doc"], w.mode, w.t, self.matrix)
        record["failures"] += failures
        if out["exit_code"] != 0:
            record["failures"].append(f"report exit code {out['exit_code']}")
        return record

    def check_determinism(self) -> None:
        digested = [r for r in self.runs if "digest" in r]
        for i in self.checks.mismatched_runs([r["digest"] for r in digested]):
            digested[i]["failures"].append("report bytes differ from the first run of this invocation")


def repeat_for(seconds: float, step, min_steps: int) -> None:
    """Call ``step`` back to back: ``min_steps`` times, then while the next
    call is expected to end within ``seconds`` of the first one's start."""
    start = time.monotonic()
    durations = []
    while True:
        begin = time.monotonic()
        step()
        durations.append(time.monotonic() - begin)
        elapsed = time.monotonic() - start
        if len(durations) >= min_steps and elapsed + statistics.median(durations) > seconds:
            return


def end_to_end(bench: Bench, seconds: float) -> tuple[dict, dict]:
    setups = [bench.setup_probe() for _ in range(SETUP_PROBES)]
    repeat_for(seconds, lambda: bench.run_once(traced=False), MIN_RUNS)
    bench.check_determinism()
    good = [r for r in bench.runs if not r["failures"]]
    if not good:
        return {}, {"setup_s": setups}
    samples = {
        "run_s": [r["run_s"] for r in good],
        "peak_rss_mb": [r["peak_rss_mb"] for r in good],
        "setup_s": setups,
    }
    units = {"run_s": "s", "peak_rss_mb": "MiB", "setup_s": "s"}
    return {name: (statistics.median(values), units[name]) for name, values in samples.items()}, samples


def per_layer(bench: Bench, seconds: float, host: dict) -> tuple[dict, dict]:
    # The first run after a quiet spell pays for memory the kernel has not
    # handed out recently; keep it out of the untraced-traced comparison.
    bench.run_once(traced=False)
    pairs = []
    repeat_for(seconds, lambda: pairs.append((bench.run_once(traced=False), bench.run_once(traced=True))), 1)
    bench.check_determinism()
    w = bench.workload
    fixed = {
        "linalg.mat_pow2.unitarity_dev": (
            bench.checks.unitarity_dev(bench.matrix, w.t) if w.mode != "contract" else 0.0,
            "abs",
        ),
        "host.copy_gbps": (copy_probe(host["l3_bytes"]), "GB/s"),
    }
    per_pair = [layer_metrics(w, plain, traced) for plain, traced in pairs if not plain["failures"] and not traced["failures"]]
    if not per_pair:
        return {}, {}
    samples = {name: [m[name][0] for m in per_pair] for name in per_pair[0]}
    metrics = {name: (statistics.median(values), per_pair[0][name][1]) for name, values in samples.items()}
    metrics.update(fixed)
    return metrics, samples


def layer_metrics(w, plain: dict, traced: dict) -> dict[str, tuple[float, str]]:
    """Per-layer metrics of one traced run and the untraced run next to it."""
    layers = traced["layers"]
    out: dict[str, tuple[float, str]] = {}
    for name in spans.TRACED_NAMES:
        entry = layers[name]
        out[f"{name}.s"] = (entry["s"], "s")
        out[f"{name}.calls"] = (entry["calls"], "count")
        if name in spans.RSS_TRACED:
            out[f"{name}.rss_mb"] = (entry["rss_mb"], "MiB")
    for name, per_call in (
        ("simulator.hadamard_layer", hadamard_bytes(w)),
        ("simulator.controlled_power_stage", power_stage_bytes(w)),
    ):
        entry = layers[name]
        out[f"{name}.eff_gbps"] = (_rate(entry["calls"] * per_call / 1e9, entry["s"]), "GB/s")
    # The per-shot loop: measure_register's own time plus the substreams it
    # draws from, without the register_probabilities pass it starts with.
    sampler = layers["simulator.measure_register"]
    loop_s = sampler["s"] + layers["simulator.shot_rng"]["s"] if sampler["calls"] else 0.0
    out["simulator.measure_register.shots_per_s"] = (_rate(sampler["calls"] * w.shots, loop_s), "1/s")
    doc = traced["doc"]
    result = doc["result"]
    contract = w.mode == "contract"
    out["qde.contraction_run.accepted"] = (result["accepted"] if contract else 0, "count")
    out["qde.contraction_run.attempted"] = (result["attempted"] if contract else 0, "count")
    out["qde.contraction_run.accept_ratio"] = (result["acceptance_rate"] if contract else 0.0, "ratio")
    out["simulator.controlled_slot_applications"] = (doc["counters"]["controlled_slot_applications"], "count")
    out["qde.max_kernel_dev"] = (traced["stats"]["max_kernel_dev"], "abs")
    out["cli.report_sha256"] = (int(traced["digest"][:12], 16), "sha256-48bit")
    out["trace.traced_run_s"] = (traced["run_s"], "s")
    out["trace.untraced_s"] = (traced["run_s"] - sum(e["s"] for e in layers.values()), "s")
    out["trace.overhead_s"] = (traced["run_s"] - plain["run_s"], "s")
    return out


def _rate(amount: float, seconds: float) -> float:
    return amount / seconds if seconds > 0 else 0.0


def copy_probe(l3_bytes: int | None) -> float:
    """numpy copy bandwidth (read + write bytes) in its own process."""
    mib = COPY_CACHE_MULTIPLE * (l3_bytes or 128 << 20) >> 20
    out, _ = spawn(["copy", str(mib)])
    print(f"copy probe: {mib} MiB array, {COPY_CACHE_MULTIPLE}x the L3 of {l3_bytes} bytes")
    return out["copy_gbps"]


def host_info() -> dict:
    import numpy
    import scipy

    return {
        "nproc": os.cpu_count(),
        "blas_threads": blas_threads(),
        "l3_bytes": l3_bytes(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "state_bytes": {name: w.state_bytes for name, w in WORKLOADS.items()},
    }


def l3_bytes() -> int | None:
    """Size of the first level-3 cache listed for CPU 0, if the kernel lists one."""
    for index in sorted(Path("/sys/devices/system/cpu/cpu0/cache").glob("index*")):
        try:
            if (index / "level").read_text().strip() == "3":
                size = (index / "size").read_text().strip()
                return int(size[:-1]) << 10 if size.endswith("K") else int(size)
        except (OSError, ValueError):
            continue
    return None


def blas_threads() -> int | None:
    """Thread count reported by the OpenBLAS that numpy loaded, if it is OpenBLAS."""
    try:
        with open("/proc/self/maps", encoding="utf-8") as fh:
            libs = sorted({line.split()[-1] for line in fh if "openblas" in line.lower()})
    except OSError:
        return None
    for path in libs:
        lib = ctypes.CDLL(path)
        for symbol in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_", "openblas_get_num_threads"):
            fn = getattr(lib, symbol, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                return fn()
    return None


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    root = Path.cwd()
    src = root / "src"
    if not (src / "qdet" / "cli.py").is_file():
        print(f"perfbench: no qdet sources at {src / 'qdet'}; run from the root of a qdet checkout", file=sys.stderr)
        return 2
    sys.path.insert(0, str(src))
    import checks

    workload = WORKLOADS[args.workload]
    out_dir = root / ".bench_out" / f"{workload.name}-seed{args.seed}"
    out_dir.mkdir(parents=True, exist_ok=True)
    host = host_info()
    print("host " + json.dumps(host))
    print(f"workload {workload.name}: {workload.why}")

    bench = Bench(workload, args.seed, src, out_dir, checks)
    bench.setup_probe()  # untimed: compiles bytecode and warms the page cache
    if args.trace:
        metrics, samples = per_layer(bench, args.seconds, host)
    else:
        metrics, samples = end_to_end(bench, args.seconds)

    attempted = len(bench.runs)
    failed = sum(1 for r in bench.runs if r["failures"])
    for i, r in enumerate(bench.runs):
        for failure in r["failures"]:
            print(f"FAILED run {i}{' (traced)' if r['traced'] else ''}: {failure}")
    print(f"failed_frac {failed / attempted:.6g} ({failed} of {attempted} runs)")
    for name, (value, unit) in metrics.items():
        count = len(samples.get(name, [value]))
        print(f"{name} {value!r} {unit} (median of {count})")
    (out_dir / f"result-trace{args.trace}.json").write_text(
        json.dumps(
            {
                "host": host,
                "workload": workload.name,
                "seed": args.seed,
                "runs": [{k: v for k, v in r.items() if k != "doc"} for r in bench.runs],
                "samples": samples,
                "metrics": metrics,
            },
            indent=1,
        )
    )
    if not metrics:
        print("perfbench: no run passed its checks, so there is nothing to report", file=sys.stderr)
        return 1
    result = {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
