"""The benchmark workloads and the inputs they generate from a seed.

Every workload is a closed loop: one caller, runs back to back, each run in a
fresh interpreter, which is how a CLI user pays for a run and what makes peak
RSS a per-run number.  Sizes are relative to the last-level cache of the
reference host (105 MiB L3, 2 CPUs):

* ``qde-phase``   22 qubits, 64 MiB state: fits in L3, gate-bound.
* ``contract``    20 qubits (6 of them ancillas), 16 MiB state: dense block
  encodings plus post-selected sampling.
* ``sign-slots``  25 qubits, 512 MiB state: about 5x L3, streams from DRAM.
* ``qde-shots``   5 qubits, 512 B state: sampling-bound.

Only ``qde-phase`` and ``contract`` are listed in BENCHMARK.json.  On the
shared 2-CPU reference host, speed swung by up to 40% for a minute at a
time.  With all four workloads, and so about 30 seconds per invocation, the
spread of the median run time over ten invocations was 0.11 to 0.14 of the
median for the three array workloads and 0.15 to 0.30 for ``qde-shots``,
whose pure-Python shot loop is the most exposed.  With two workloads each
invocation measures for 50 seconds; two sets of ten gave spreads of 0.10 and
0.14 (``qde-phase``) and 0.11 and 0.18 (``contract``), inside the 0.25 bound
on ``run_s``.  ``sign-slots`` and ``qde-shots`` stay runnable by name for
work on slot-axis memory traffic and shot sampling; the listed workloads
still time every traced function except `sign_run`, including `shot_rng`,
the survival walk and `measure_register`.

Left out for run time: qde N=4 t=16 (about 40 s) and qde N=8 t=2 (about 24 s,
2.6 GB peak RSS); ``sign-slots`` covers the same slot-axis path at half the
memory.

Known defect, and why ``linalg.mat_pow2.unitarity_dev`` is recorded: the
stage powers U**(2**m) come from repeated squaring, whose distance from
unitarity about doubles per extra phase qubit (median max-entry
|P^dag P - I| over ``haar_unitary(2, seed)``, seeds 1-40: 1.9e-12 at t=14,
1.2e-10 at t=20).  The state norm then drifts past the per-gate check
(1e-10) at t=20 on 31 of those 40 seeds, and at t=18 on 2 of them.  qde N=2
t=20 is left out for run time, not to hide that defect, and no workload here
re-seeds around a failure: a run that trips the check counts as failed.
"""

from __future__ import annotations

import json
import zlib
from dataclasses import dataclass
from pathlib import Path

import numpy as np


@dataclass(frozen=True)
class Workload:
    name: str
    mode: str
    n: int
    t: int
    shots: int
    why: str

    @property
    def ancillas(self) -> int:
        return self.t if self.mode == "contract" else 0

    @property
    def qubits(self) -> int:
        return self.t + self.n * (self.n.bit_length() - 1) + self.ancillas

    @property
    def state_bytes(self) -> int:
        return 16 << self.qubits


WORKLOADS = {
    w.name: w
    for w in (
        Workload(
            "qde-phase", "qde", 4, 14, 1000,
            "Haar U, N=4 t=14: 64 MiB state in L3; hadamard and controlled-power gates are about 96% of the run",
        ),
        Workload(
            "sign-slots", "sign", 8, 1, 1000,
            "Haar O, N=8 t=1: 512 MiB state, 5x L3; eight slot-axis contractions and full-state passes stream DRAM",
        ),
        Workload(
            "qde-shots", "qde", 2, 3, 100_000,
            "Haar U, N=2 t=3, 1e5 shots: 512 B state; the per-shot sampling loop is 99% of the run",
        ),
        Workload(
            "contract", "contract", 4, 6, 20_000,
            "A=W diag(s) V+, N=4 t=6, 2e4 shots: dense block encodings and post-selected sampling at about 0.27 acceptance",
        ),
    )
}


def make_matrix(workload: Workload, seed: int) -> np.ndarray:
    """The workload's input matrix; the same seed gives the same matrix."""
    stream = zlib.crc32(workload.name.encode())
    rng = np.random.Generator(np.random.PCG64([seed & ((1 << 64) - 1), stream]))
    if workload.mode == "sign":
        return _haar(rng, workload.n, real=True)
    if workload.mode == "qde":
        return _haar(rng, workload.n, real=False)
    w = _haar(rng, workload.n, real=False)
    v = _haar(rng, workload.n, real=False)
    sigma = rng.uniform(0.995, 1.0, workload.n)
    return (w * sigma) @ v.conj().T


def _haar(rng: np.random.Generator, n: int, *, real: bool) -> np.ndarray:
    z = rng.standard_normal((n, n))
    if not real:
        z = z + 1j * rng.standard_normal((n, n))
    q, r = np.linalg.qr(z)
    d = np.diag(r)
    return np.asarray(q * (d / np.abs(d)), dtype=np.complex128)


def write_matrix(matrix: np.ndarray, path: Path) -> np.ndarray:
    """Write the CLI matrix format and return the matrix as read back."""
    rows = [[[float(z.real), float(z.imag)] for z in row] for row in matrix]
    path.write_text(json.dumps({"n": matrix.shape[0], "rows": rows}))
    doc = json.loads(path.read_text())
    return np.array([[complex(re, im) for re, im in row] for row in doc["rows"]])


def hadamard_bytes(workload: Workload) -> int:
    """Computed bytes of one `hadamard_layer` call: t passes over the state."""
    return 2 * workload.state_bytes * workload.t


def power_stage_bytes(workload: Workload) -> int:
    """Computed bytes of one `controlled_power_stage` call.

    N slot passes, each reading and writing the half of the state whose
    control qubit is 1.
    """
    return workload.n * workload.state_bytes

