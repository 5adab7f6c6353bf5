"""Command-line front end: matrix I/O, mode dispatch, JSON reports.

Every quantum-mode report embeds the classical oracle determinant, so each
run doubles as a regression test: a mismatch beyond the mode's tolerance
sets the ``disagreement`` flag and a nonzero exit code.

Exit codes: 0 success, 2 validation error, 3 verification or disagreement
failure, 4 resource cap exceeded.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import sys
import time
from dataclasses import asdict, dataclass, field

import numpy as np

from .antisym import VERIFY_MAX_DIM, verify_det_identity
from .errors import (
    MatrixParseError,
    QdetError,
    StateTooLargeError,
    ValidationError,
    VerificationError,
)
from .linalg import (
    DEFAULT_DIM_BOUND,
    LEVI_CIVITA_MAX_DIM,
    TWO_PI,
    DetValue,
    as_matrix,
    det_levi_civita,
    det_lu,
    haar_orthogonal,
    haar_unitary,
    operator_norm,
)
from .qde import PhaseEstimate, contraction_run, phase_from_k, qde_run, sign_run
from .simulator import DEFAULT_QUBIT_CAP

MODES = ("qde", "sign", "contract", "verify", "oracle")

GENERATOR_USAGE = (
    "valid generator specs: haar-unitary:N | haar-orthogonal:N | "
    "diag-phase:N:k:t | scaled-identity:N:r:theta"
)
_GENERATOR_ARITY = {"haar-unitary": 2, "haar-orthogonal": 2, "diag-phase": 4, "scaled-identity": 4}

EXIT_OK = 0
EXIT_VALIDATION = 2
EXIT_VERIFICATION = 3
EXIT_RESOURCE = 4

#: Relative distance of a contract run's exact acceptance from the product
#: law |det A|**(2*(2**t - 1)) beyond which the run reports a disagreement.
_ACCEPTANCE_RTOL = 1e-3


@dataclass
class RunConfig:
    mode: str
    matrix_path: str | None = None
    generator: str | None = None
    t: int = 3
    shots: int = 1000
    seed: int = 1
    output_path: str | None = None
    qubit_cap: int = DEFAULT_QUBIT_CAP
    verify_tolerance: float = 1e-10
    verify_n: int = 3
    verify_count: int = 50

    def __post_init__(self):
        if self.mode not in MODES:
            raise ValidationError(f"unknown mode {self.mode!r}; expected one of {MODES}")
        if self.mode == "sign":
            self.t = 1
        if self.mode in ("qde", "contract") and self.t < 1:
            raise ValidationError(f"mode {self.mode} needs t >= 1, got {self.t}")
        if self.shots < 1:
            raise ValidationError(f"shots must be positive, got {self.shots}")
        if not 0.0 <= self.verify_tolerance < math.inf:  # also refuses NaN
            raise ValidationError(f"--verify-tolerance must be finite and >= 0, got {self.verify_tolerance}")
        if self.mode == "verify" and self.verify_count < 1:
            raise ValidationError(f"verify mode needs --verify-count >= 1, got {self.verify_count}")
        if self.mode == "verify" and not 1 <= self.verify_n <= VERIFY_MAX_DIM:
            raise ValidationError(f"verify mode needs --verify-n in 1..{VERIFY_MAX_DIM}, got {self.verify_n}")
        if self.mode != "verify" and self.matrix_path is None and self.generator is None:
            raise ValidationError(f"mode {self.mode} needs --matrix or --gen")

    def echo(self) -> dict:
        """The config as the report shows it, in field order, without the output path."""
        names = {"matrix_path": "matrix", "generator": "gen"}
        return {names.get(k, k): v for k, v in asdict(self).items() if k != "output_path"}


@dataclass
class RunReport:
    config: dict
    mode: str
    result: dict
    oracle_determinant: dict | None
    counters: dict | None
    disagreement: bool
    wall_time_ms: float = 0.0
    verify_failed: bool = field(default=False, repr=False)

    @property
    def exit_code(self) -> int:
        return EXIT_VERIFICATION if (self.disagreement or self.verify_failed) else EXIT_OK

    def to_json(self) -> str:
        """The report as printed: every field but ``verify_failed``, in field order."""
        return dump_json({key: value for key, value in vars(self).items() if key != "verify_failed"})


def parse_matrix_file(path: str) -> np.ndarray:
    """Read the matrix JSON format {"n": int, "rows": [[[re, im], ...], ...]}."""
    try:
        with open(path, "r", encoding="utf-8") as fh:
            doc = json.load(fh)
    except OSError as exc:
        raise MatrixParseError(f"cannot read matrix file {path}: {exc}") from exc
    except (json.JSONDecodeError, UnicodeDecodeError) as exc:
        raise MatrixParseError(f"malformed JSON in {path}: {exc}") from exc

    if not isinstance(doc, dict) or "n" not in doc or "rows" not in doc:
        raise MatrixParseError(f'{path}: expected an object with "n" and "rows"')
    n = doc["n"]
    rows = doc["rows"]
    if not isinstance(n, int) or isinstance(n, bool) or n < 1:
        raise MatrixParseError(f'{path}: "n" must be a positive integer, got {n!r}')
    if n > DEFAULT_DIM_BOUND:  # det_lu refuses it anyway; refused here before it is built
        raise MatrixParseError(f'{path}: "n" must be at most {DEFAULT_DIM_BOUND}, got {n}')
    if not isinstance(rows, list) or len(rows) != n:
        raise MatrixParseError(f'{path}: expected {n} rows, got {len(rows) if isinstance(rows, list) else type(rows).__name__}')
    out = np.zeros((n, n), dtype=np.complex128)
    for j, row in enumerate(rows):
        if not isinstance(row, list) or len(row) != n:
            raise MatrixParseError(f"{path}: row {j} has length {len(row) if isinstance(row, list) else '??'}, expected {n}")
        for i, entry in enumerate(row):
            if (
                not isinstance(entry, list)
                or len(entry) != 2
                or not all(isinstance(v, (int, float)) and not isinstance(v, bool) for v in entry)
            ):
                raise MatrixParseError(f"{path}: row {j}, column {i}: expected a [re, im] number pair")
            try:
                out[j, i] = complex(entry[0], entry[1])
            except OverflowError as exc:
                raise MatrixParseError(f"{path}: row {j}, column {i}: {exc}") from exc
    return as_matrix(out)


@np.errstate(over="ignore", invalid="ignore")  # as_matrix refuses the inf and nan entries, without numpy's warnings
def generator_spec(spec: str, seed: int) -> np.ndarray:
    """Build one of the named deterministic test matrices.

    The seed is taken modulo 2**64, as the shot substreams take it.
    """
    seed &= (1 << 64) - 1
    parts = spec.split(":")
    kind = parts[0]
    if _GENERATOR_ARITY.get(kind) != len(parts):
        raise MatrixParseError(f"unknown generator spec {spec!r}; {GENERATOR_USAGE}")
    try:
        n = int(parts[1])
        if n < 1:
            raise ValueError(f"N must be positive, got {n}")
        if n > DEFAULT_DIM_BOUND:  # det_lu refuses it anyway; refused here before it is built
            raise ValueError(f"N must be at most {DEFAULT_DIM_BOUND}, got {n}")
        if kind == "haar-unitary":
            return haar_unitary(n, seed)
        if kind == "haar-orthogonal":
            return haar_orthogonal(n, seed)
        if kind == "diag-phase":
            k, t = int(parts[2]), int(parts[3])
            if not 0 <= t <= 1023:  # checked before 1 << t is built: 2**t must convert to a float
                raise ValueError(f"t must be in 0..1023, got {t}")
            diag = np.ones(n, dtype=np.complex128)
            diag[0] = np.exp(2j * math.pi * k / (1 << t))
            return np.diag(diag)
        r, theta = float(parts[2]), float(parts[3])
        return r * np.exp(1j * theta) * np.eye(n, dtype=np.complex128)
    except (ValueError, OverflowError) as exc:
        raise MatrixParseError(f"bad generator spec {spec!r}: {exc}; {GENERATOR_USAGE}") from exc


def load_matrix(config: RunConfig) -> np.ndarray:
    if config.matrix_path is not None:
        return parse_matrix_file(config.matrix_path)
    return generator_spec(config.generator, config.seed)


def run(config: RunConfig) -> RunReport:
    """Run one configured mode and assemble its self-checking report.

    A matrix mode loads its matrix, takes the LU oracle, then runs, so a
    matrix the oracle refuses is refused before any state is built.
    """
    report = _timed_report(config)
    if config.output_path:
        _write_report(config.output_path, report.to_json())
    return report


def _timed_report(config: RunConfig) -> RunReport:
    start = time.perf_counter()
    if config.mode == "verify":
        report = _run_verify(config)
    else:
        matrix = load_matrix(config)
        oracle = det_lu(matrix)
        result, counters, disagreement = _MATRIX_MODES[config.mode](config, matrix, oracle)
        report = RunReport(
            config=config.echo(),
            mode=config.mode,
            result=result,
            oracle_determinant=_det_payload(oracle),
            counters=counters,
            disagreement=disagreement,
        )
    report.wall_time_ms = (time.perf_counter() - start) * 1e3
    return report


def _write_report(path: str, text: str) -> None:
    try:
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(text + "\n")
    except OSError as exc:
        raise ValidationError(f"cannot write the report to {path}: {exc}") from exc


def _run_qde(config: RunConfig, matrix: np.ndarray, oracle: DetValue) -> tuple[dict, dict | None, bool]:
    result = qde_run(matrix, config.t, config.shots, config.seed, qubit_cap=config.qubit_cap)
    payload = _phase_payload(result.phase, exact=result.exact_distribution)
    return payload, result.counters.as_dict(), _phase_disagrees(result.phase, oracle)


def _run_sign(config: RunConfig, matrix: np.ndarray, oracle: DetValue) -> tuple[dict, dict | None, bool]:
    result = sign_run(matrix, config.shots, config.seed, qubit_cap=config.qubit_cap)
    payload = {
        "sign": result.sign,
        "shots": result.shots,
        "unanimous": result.unanimous,
        "majority_probability": result.majority_probability,
    }
    oracle_sign = 1 if oracle.value.real >= 0 else -1
    return payload, result.counters.as_dict(), result.sign != oracle_sign


def _run_contract(config: RunConfig, matrix: np.ndarray, oracle: DetValue) -> tuple[dict, dict | None, bool]:
    result = contraction_run(matrix, config.t, config.shots, config.seed, qubit_cap=config.qubit_cap)
    # The accepted count is binomial in the oracle's law p = |det A|**(2*(2**t - 1)), clamped at 1 since
    # norms up to 1 + 1e-9 are admitted: more than 5 sigma off is a disagreement (any when p is 0 or 1).
    p = min(oracle.magnitude ** (2 * ((1 << config.t) - 1)), 1.0)
    sigma = math.sqrt(result.attempted * p * (1.0 - p))
    disagreement = abs(result.accepted - result.attempted * p) > 5.0 * sigma
    # The exact acceptance follows the same law.  Far from it, it and the
    # exact conditioned distribution are rounding noise: the stages cannot
    # resolve an antisymmetric branch that small.
    disagreement |= abs(result.exact_acceptance - p) > _ACCEPTANCE_RTOL * p
    if not result.no_accepted_shots:
        disagreement |= _phase_disagrees(result.phase, oracle)
    payload = {
        "accepted": result.accepted,
        "attempted": result.attempted,
        "acceptance_rate": result.acceptance_rate,
        "predicted_acceptance": p,
        "exact_acceptance": result.exact_acceptance,
        "magnitude_estimate": result.magnitude_estimate,
        "no_accepted_shots": result.no_accepted_shots,
    }
    payload.update(_phase_payload(result.phase, exact=result.exact_conditioned_distribution))
    return payload, result.counters.as_dict(), disagreement


def _run_oracle(config: RunConfig, matrix: np.ndarray, oracle: DetValue) -> tuple[dict, dict | None, bool]:
    payload: dict = {"lu": _det_payload(oracle), "levi_civita": None}
    disagreement = False
    if matrix.shape[0] <= LEVI_CIVITA_MAX_DIM:
        other = det_levi_civita(matrix)
        payload["levi_civita"] = _det_payload(other)
        disagreement = abs(oracle.value - other.value) > 1e-9 * max(1.0, abs(oracle.value))
    payload["agreement"] = not disagreement
    return payload, None, disagreement


#: Each matrix mode's run: (config, matrix, oracle) -> (result, counters, disagreement).
_MATRIX_MODES = {"qde": _run_qde, "sign": _run_sign, "contract": _run_contract, "oracle": _run_oracle}


def _run_verify(config: RunConfig) -> RunReport:
    """Brute-force the determinant identity over four matrix classes."""
    n = config.verify_n
    rows = []
    max_residual = 0.0
    for class_index, matrix_class in enumerate(("unitary", "orthogonal", "contraction", "complex")):
        for i in range(config.verify_count):
            matrix = _verify_sample(matrix_class, n, config.seed, class_index, i)
            residual = verify_det_identity(matrix)
            max_residual = max(max_residual, residual)
            rows.append(
                {
                    "matrix_class": matrix_class,
                    "index": i,
                    "n": n,
                    "residual": residual,
                    "det": _complex_pair(det_levi_civita(matrix).value),
                }
            )
    passed = max_residual <= config.verify_tolerance
    return RunReport(
        config=config.echo(),
        mode="verify",
        result={
            "rows": rows,
            "max_residual": max_residual,
            "tolerance": config.verify_tolerance,
            "passed": passed,
        },
        oracle_determinant=None,
        counters=None,
        disagreement=False,
        verify_failed=not passed,
    )


def _verify_sample(matrix_class: str, n: int, seed: int, class_index: int, i: int) -> np.ndarray:
    if matrix_class == "unitary":
        return haar_unitary(n, _mix_seed(seed, class_index, i))
    if matrix_class == "orthogonal":
        return haar_orthogonal(n, _mix_seed(seed, class_index, i))
    rng = np.random.Generator(np.random.PCG64([seed & ((1 << 63) - 1), class_index, i]))
    z = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
    if matrix_class == "contraction":
        return z / (operator_norm(z) * 1.01)
    return z


def _mix_seed(seed: int, class_index: int, i: int) -> int:
    return (seed & ((1 << 32) - 1)) * 1_000_003 + class_index * 65_537 + i


def _phase_payload(phase: PhaseEstimate, exact: np.ndarray | None) -> dict:
    return {
        "k_prime": phase.k_prime,
        "t": phase.t,
        "phi_hat": phase.phi_hat,
        "shots": phase.shots,
        "histogram": {str(k): c for k, c in phase.histogram.items()},
        "frequencies": {str(k): f for k, f in phase.frequencies().items()},
        "exact_distribution": None if exact is None else exact.tolist(),
    }


def _det_payload(det: DetValue) -> dict:
    return {
        "value": _complex_pair(det.value),
        "magnitude": det.magnitude,
        "phase": det.phase,
    }


def _complex_pair(value: complex) -> list[float]:
    return [float(value.real), float(value.imag)]


def _phase_disagrees(phase: PhaseEstimate, oracle: DetValue) -> bool:
    """Whether every modal outcome is more than one grid step, 2*pi / 2**t, from the oracle's phase.

    Tied outcomes count alike, not only the one ``k_prime`` picks.
    """
    best = max(phase.histogram.values())
    gaps = [abs(phase_from_k(k, phase.t) - oracle.phase) % TWO_PI for k, c in phase.histogram.items() if c == best]
    return all(min(d, TWO_PI - d) > TWO_PI / (1 << phase.t) + 1e-9 for d in gaps)


def dump_json(obj) -> str:
    """Deterministic JSON with every float at 17 significant digits.

    The stdlib encoder offers no control over float formatting, and the
    reproducibility contract is byte-level, so the writer is explicit.
    """
    pieces: list[str] = []
    _write_json(obj, pieces, 0)
    return "".join(pieces)


def _write_json(obj, pieces: list[str], depth: int) -> None:
    pad = "  " * depth
    inner = "  " * (depth + 1)
    if obj is None:
        pieces.append("null")
    elif isinstance(obj, (bool, np.bool_)):
        pieces.append("true" if obj else "false")
    elif isinstance(obj, (int, np.integer)):
        pieces.append(str(int(obj)))
    elif isinstance(obj, (float, np.floating)):
        pieces.append(format(float(obj), ".17g"))
    elif isinstance(obj, str):
        pieces.append(json.dumps(obj))
    elif isinstance(obj, dict):
        if not obj:
            pieces.append("{}")
            return
        pieces.append("{\n")
        for idx, (key, value) in enumerate(obj.items()):
            pieces.append(f"{inner}{json.dumps(str(key))}: ")
            _write_json(value, pieces, depth + 1)
            pieces.append(",\n" if idx < len(obj) - 1 else "\n")
        pieces.append(pad + "}")
    elif isinstance(obj, (list, tuple)):
        if len(obj) == 0:
            pieces.append("[]")
            return
        if all(type(x) is float for x in obj):
            # The float branch's bytes, such as a distribution's, from one %-format over the list.
            pieces.append("[\n" + ",\n".join([inner + "%.17g"] * len(obj)) % tuple(obj) + "\n" + pad + "]")
            return
        pieces.append("[\n")
        for idx, value in enumerate(obj):
            pieces.append(inner)
            _write_json(value, pieces, depth + 1)
            pieces.append(",\n" if idx < len(obj) - 1 else "\n")
        pieces.append(pad + "]")
    else:
        raise TypeError(f"cannot serialize {type(obj).__name__}")


class _Parser(argparse.ArgumentParser):
    """An argument parser whose refusals keep the CLI's contract: one QDET-ERROR line on stderr, exit 2."""

    def error(self, message: str):
        self.exit(EXIT_VALIDATION, f"QDET-ERROR code=validation: {message}\n")


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="qdet",
        description="Determinant estimation by exact phase-estimation simulation, "
        "self-checked against classical determinant oracles.",
    )
    # Each dest is a RunConfig field and each default is that field's, so
    # `main` builds the config from the parsed namespace as it stands.
    parser.add_argument("--mode", required=True, choices=MODES)
    source = parser.add_mutually_exclusive_group()
    source.add_argument("--matrix", dest="matrix_path", metavar="MATRIX", help="path to a matrix JSON file")
    source.add_argument("--gen", dest="generator", metavar="GEN", help=GENERATOR_USAGE)
    parser.add_argument("--t", type=int, default=RunConfig.t, help="phase-register qubits (default %(default)s)")
    parser.add_argument("--shots", type=int, default=RunConfig.shots, help="measurement shots (default %(default)s)")
    parser.add_argument("--seed", type=int, default=RunConfig.seed, help="RNG seed (default %(default)s)")
    parser.add_argument("--out", dest="output_path", metavar="OUT", help="also write the JSON report to this path")
    parser.add_argument("--qubit-cap", type=int, default=RunConfig.qubit_cap)
    parser.add_argument("--verify-tolerance", type=float, default=RunConfig.verify_tolerance)
    parser.add_argument("--verify-n", type=int, default=RunConfig.verify_n, help="matrix dimension for verify mode")
    parser.add_argument(
        "--verify-count", type=int, default=RunConfig.verify_count, help="matrices per class for verify mode"
    )
    return parser


def main(argv: list[str] | None = None) -> int:
    try:
        args = build_parser().parse_args(argv)
    except SystemExit as exc:  # --help, or an argv the parser refused
        return exc.code
    try:
        config = RunConfig(**vars(args))
        report = _timed_report(config)
        text = report.to_json()  # formatted once, for the file and stdout
        if config.output_path:
            _write_report(config.output_path, text)
    except StateTooLargeError as exc:
        print(f"QDET-ERROR code=resource-cap: {exc}", file=sys.stderr)
        return EXIT_RESOURCE
    except VerificationError as exc:
        print(f"QDET-ERROR code=verification: {exc}", file=sys.stderr)
        return EXIT_VERIFICATION
    except (ValidationError, QdetError) as exc:
        print(f"QDET-ERROR code=validation: {exc}", file=sys.stderr)
        return EXIT_VALIDATION
    try:
        print(text, flush=True)
    except BrokenPipeError:
        # The reader closed stdout: the rest of the report goes to devnull,
        # and so does the interpreter's flush of it at exit.
        devnull = os.open(os.devnull, os.O_WRONLY)
        os.dup2(devnull, sys.stdout.fileno())
        os.close(devnull)
    if report.disagreement:
        print("QDET-ERROR code=disagreement: quantum estimate disagrees with the oracle", file=sys.stderr)
    if report.verify_failed:
        print("QDET-ERROR code=verification: identity residual above tolerance", file=sys.stderr)
    return report.exit_code


if __name__ == "__main__":
    sys.exit(main())
