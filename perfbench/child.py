"""One benchmark process; `run.py` starts a fresh one for every sample.

    child.py setup SRC MATRIX                 import qdet from SRC, load MATRIX
    child.py run SRC MATRIX MODE T SHOTS SEED REPORT [--spans PATH]
    child.py copy MIB                         numpy copy of a MIB-MiB array

The last line of standard output is one JSON object.  ``setup`` prints the
CLOCK_MONOTONIC time at which it became ready, so the parent can time it from
the moment it started the interpreter.  ``run`` times `qdet.cli.run` plus
`RunReport.to_json`, which is the CLI path without argument parsing, writes
the report to REPORT and, with ``--spans``, traces that call.
"""

from __future__ import annotations

import argparse
import json
import resource
import statistics
import sys
import time
from pathlib import Path


def import_cli(src: str):
    """Import ``qdet.cli`` from SRC and nowhere else."""
    sys.path.insert(0, src)
    import qdet.cli

    if Path(qdet.cli.__file__).resolve().parents[1] != Path(src).resolve():
        raise SystemExit(f"qdet was imported from {qdet.cli.__file__}, not from {src}")
    return qdet.cli


def setup(args) -> dict:
    import_cli(args.src).parse_matrix_file(args.matrix)
    return {"ready": time.monotonic()}


def run(args) -> dict:
    cli = import_cli(args.src)
    config = cli.RunConfig(
        mode=args.mode, matrix_path=args.matrix, t=args.t, shots=args.shots, seed=args.seed
    )
    tracer = None
    if args.spans:
        import qdet
        import spans

        tracer = spans.Tracer()
        spans.install(tracer, qdet)
    start = time.perf_counter()
    report = cli.run(config)
    text = report.to_json()
    run_s = time.perf_counter() - start
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    Path(args.report).write_text(text)
    out = {"run_s": run_s, "peak_rss_mb": peak_rss_mb, "exit_code": report.exit_code}
    if tracer is not None:
        out["layers"] = tracer.summary()
        tracer.dump(Path(args.spans))
    return out


def copy(args) -> dict:
    import numpy as np

    src = np.ones(args.mib << 17)
    dst = np.empty_like(src)
    times = []
    for _ in range(7):
        start = time.perf_counter()
        np.copyto(dst, src)
        times.append(time.perf_counter() - start)
    return {"copy_gbps": 2 * src.nbytes / statistics.median(times) / 1e9}


def main() -> None:
    parser = argparse.ArgumentParser()
    sub = parser.add_subparsers(dest="cmd", required=True)
    p = sub.add_parser("setup")
    p.add_argument("src")
    p.add_argument("matrix")
    p = sub.add_parser("run")
    for name in ("src", "matrix", "mode"):
        p.add_argument(name)
    for name in ("t", "shots", "seed"):
        p.add_argument(name, type=int)
    p.add_argument("report")
    p.add_argument("--spans")
    p = sub.add_parser("copy")
    p.add_argument("mib", type=int)
    args = parser.parse_args()
    print(json.dumps({"setup": setup, "run": run, "copy": copy}[args.cmd](args)))


if __name__ == "__main__":
    main()
