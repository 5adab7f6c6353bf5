"""Matrix I/O, generator specs, report dispatch, exit codes, reproducibility."""

import dataclasses
import json
import math
import os
import re
import subprocess
import sys
import tracemalloc
import warnings
from pathlib import Path

import numpy as np
import pytest
from conftest import ClosedStdout

import qdet.antisym
import qdet.cli
import qdet.linalg
import qdet.qde
import qdet.simulator
from qdet.cli import (
    EXIT_RESOURCE,
    EXIT_VALIDATION,
    EXIT_VERIFICATION,
    RunConfig,
    RunReport,
    build_parser,
    dump_json,
    generator_spec,
    main,
    parse_matrix_file,
    run,
)
from qdet.errors import MatrixParseError, ValidationError, VerificationError
from qdet.linalg import det_lu, haar_unitary
from qdet.qde import PhaseEstimate, contraction_run, magnitude_estimate, qde_run


def source_env():
    """The environment for a Python subprocess that imports this qdet."""
    src = str(Path(qdet.cli.__file__).resolve().parents[1])
    return dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))


def write_matrix(tmp_path, doc, name="m.json"):
    path = tmp_path / name
    path.write_text(json.dumps(doc))
    return str(path)


class TestParseMatrixFile:
    def test_identity(self, tmp_path):
        path = write_matrix(tmp_path, {"n": 2, "rows": [[[1, 0], [0, 0]], [[0, 0], [1, 0]]]})
        assert np.array_equal(parse_matrix_file(path), np.eye(2))

    def test_imaginary_entries(self, tmp_path):
        path = write_matrix(tmp_path, {"n": 2, "rows": [[[0, 0], [0, 1]], [[0, 1], [0, 0]]]})
        expected = np.array([[0.0, 1j], [1j, 0.0]])
        assert np.array_equal(parse_matrix_file(path), expected)

    def test_row_length_mismatch_names_the_row(self, tmp_path):
        path = write_matrix(tmp_path, {"n": 2, "rows": [[[1, 0], [0, 0]], [[0, 0]]]})
        with pytest.raises(MatrixParseError, match="row 1"):
            parse_matrix_file(path)

    @pytest.mark.parametrize("doc", [[[1, 0]], {"n": 1}, {"rows": []}], ids=["list", "no-rows", "no-n"])
    def test_not_an_object_with_n_and_rows(self, tmp_path, doc):
        with pytest.raises(MatrixParseError, match='expected an object with "n" and "rows"'):
            parse_matrix_file(write_matrix(tmp_path, doc))

    @pytest.mark.parametrize("rows, got", [([[[1, 0]]], "got 1"), ({"0": []}, "got dict")])
    def test_row_count_mismatch(self, tmp_path, rows, got):
        with pytest.raises(MatrixParseError, match=f"expected 2 rows, {got}"):
            parse_matrix_file(write_matrix(tmp_path, {"n": 2, "rows": rows}))

    def test_bad_entry_names_position(self, tmp_path):
        path = write_matrix(tmp_path, {"n": 1, "rows": [[["x", 0]]]})
        with pytest.raises(MatrixParseError, match="row 0, column 0"):
            parse_matrix_file(path)

    def test_malformed_json(self, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text("{not json")
        with pytest.raises(MatrixParseError, match="malformed"):
            parse_matrix_file(str(path))

    def test_missing_file(self, tmp_path):
        with pytest.raises(MatrixParseError):
            parse_matrix_file(str(tmp_path / "void.json"))

    def test_not_utf8_exits_2(self, tmp_path, capsys):
        path = tmp_path / "utf16.json"
        path.write_bytes(b"\xff\xfe\x00{")
        with pytest.raises(MatrixParseError, match="malformed JSON"):
            parse_matrix_file(str(path))
        assert main(["--mode", "oracle", "--matrix", str(path)]) == EXIT_VALIDATION
        assert "code=validation" in capsys.readouterr().err

    def test_non_finite_rejected(self, tmp_path):
        path = write_matrix(tmp_path, {"n": 1, "rows": [[[1e400, 0]]]})
        with pytest.raises(ValidationError):
            parse_matrix_file(path)

    def test_entry_past_float_range_names_position(self, tmp_path, capsys):
        path = write_matrix(tmp_path, {"n": 1, "rows": [[[1, 0]]]})
        Path(path).write_text('{"n": 1, "rows": [[[0, 1' + "0" * 400 + "]]]}")
        with pytest.raises(MatrixParseError, match="row 0, column 0"):
            parse_matrix_file(path)
        assert main(["--mode", "oracle", "--matrix", path]) == EXIT_VALIDATION
        assert "code=validation" in capsys.readouterr().err

    def test_bool_dimension_rejected(self, tmp_path, capsys):
        # JSON true is a Python bool, which isinstance(n, int) accepts.
        path = write_matrix(tmp_path, {"n": True, "rows": [[[1, 0]]]})
        with pytest.raises(MatrixParseError, match='"n" must be a positive integer'):
            parse_matrix_file(path)
        assert main(["--mode", "oracle", "--matrix", path]) == EXIT_VALIDATION
        assert "code=validation" in capsys.readouterr().err

    @pytest.mark.parametrize("n", [65, 4096])
    def test_dimension_above_the_oracle_bound_allocates_nothing(self, tmp_path, n, capsys):
        # A 4096 x 4096 matrix would take 256 MiB before any row's length is checked.
        path = write_matrix(tmp_path, {"n": n, "rows": [[]] * n})
        tracemalloc.start()
        try:
            with pytest.raises(MatrixParseError, match=f'"n" must be at most 64, got {n}'):
                parse_matrix_file(path)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 1 << 20
        assert main(["--mode", "oracle", "--matrix", path]) == EXIT_VALIDATION
        assert "code=validation" in capsys.readouterr().err

    def test_dimension_far_above_the_oracle_bound_exits_2(self, tmp_path, capsys):
        # 400 KB of JSON for a matrix of 160 GB.
        path = write_matrix(tmp_path, {"n": 10**5, "rows": [[]] * 10**5})
        assert main(["--mode", "oracle", "--matrix", path]) == EXIT_VALIDATION
        assert "code=validation" in capsys.readouterr().err

    def test_dimension_at_the_oracle_bound_parses(self, tmp_path):
        eye = [[[float(i == j), 0] for j in range(64)] for i in range(64)]
        assert np.array_equal(parse_matrix_file(write_matrix(tmp_path, {"n": 64, "rows": eye})), np.eye(64))


GENERATOR_FORMS = ["haar-unitary:{n}", "haar-orthogonal:{n}", "diag-phase:{n}:1:2", "scaled-identity:{n}:1:0"]
GENERATOR_KINDS = [form.split(":")[0] for form in GENERATOR_FORMS]


class TestGeneratorSpec:
    def test_diag_phase(self):
        m = generator_spec("diag-phase:2:1:2", seed=0)
        assert np.allclose(m, np.diag([np.exp(1j * math.pi / 2), 1.0]), atol=1e-15)

    def test_scaled_identity(self):
        assert np.allclose(generator_spec("scaled-identity:2:0.9:0", seed=0), 0.9 * np.eye(2))

    def test_scaled_identity_with_angle(self):
        m = generator_spec("scaled-identity:2:0.95:0.7853981633974483", seed=0)
        assert np.allclose(m, 0.95 * np.exp(1j * math.pi / 4) * np.eye(2), atol=1e-12)

    def test_haar_unitary_deterministic(self):
        assert np.array_equal(generator_spec("haar-unitary:4", 7), generator_spec("haar-unitary:4", 7))

    def test_negative_seed_taken_modulo_2_64(self, capsys):
        assert np.array_equal(generator_spec("haar-unitary:4", -5), haar_unitary(4, 2**64 - 5))
        code = main(["--mode", "qde", "--gen", "haar-unitary:4", "--t", "2", "--shots", "10", "--seed", "-5"])
        assert code == 0

    def test_unknown_spec_lists_valid_ones(self):
        with pytest.raises(MatrixParseError, match="haar-unitary"):
            generator_spec("fibonacci:3", seed=0)

    def test_malformed_arguments(self):
        with pytest.raises(MatrixParseError):
            generator_spec("diag-phase:two:1:2", seed=0)

    @pytest.mark.parametrize("t", [-1, 1024, 100_000_000_000])
    def test_diag_phase_exponent_out_of_range_allocates_nothing(self, t):
        # 1 << 100000000000 would take about 12.5 GB: the range check comes first.
        tracemalloc.start()
        try:
            with pytest.raises(MatrixParseError, match=rf"bad generator spec .*t must be in 0\.\.1023, got {t}"):
                generator_spec(f"diag-phase:2:1:{t}", seed=0)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 1 << 20

    def test_diag_phase_largest_exponent(self):
        m = generator_spec("diag-phase:2:1:1023", seed=0)
        assert m[0, 0] == np.exp(2j * math.pi / (1 << 1023))

    @pytest.mark.parametrize("n", [65, 10**5])
    @pytest.mark.parametrize("form", GENERATOR_FORMS, ids=GENERATOR_KINDS)
    def test_dimension_above_the_oracle_bound_allocates_nothing(self, form, n, capsys):
        # det_lu refuses N > 64 in every matrix mode; a 10**5 x 10**5 matrix would take 160 GB.
        spec = form.format(n=n)
        tracemalloc.start()
        try:
            with pytest.raises(MatrixParseError, match=rf"bad generator spec .*N must be at most 64, got {n}"):
                generator_spec(spec, seed=0)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 1 << 20
        assert main(["--mode", "oracle", "--gen", spec]) == EXIT_VALIDATION
        assert "code=validation" in capsys.readouterr().err

    @pytest.mark.parametrize("form", GENERATOR_FORMS, ids=GENERATOR_KINDS)
    def test_dimension_at_the_oracle_bound_builds(self, form):
        assert generator_spec(form.format(n=64), seed=0).shape == (64, 64)


class TestRunConfig:
    def test_sign_mode_forces_single_phase_qubit(self):
        config = RunConfig(mode="sign", generator="haar-orthogonal:2", t=5)
        assert config.t == 1

    def test_requires_matrix_for_quantum_modes(self):
        with pytest.raises(ValidationError):
            RunConfig(mode="qde")

    def test_verify_needs_no_matrix(self):
        RunConfig(mode="verify")

    def test_rejects_zero_shots(self):
        with pytest.raises(ValidationError):
            RunConfig(mode="verify", shots=0)

    def test_rejects_an_unknown_mode(self):
        with pytest.raises(ValidationError, match="unknown mode 'nope'"):
            RunConfig(mode="nope", generator="haar-unitary:2")

    @pytest.mark.parametrize("count", [0, -3])
    def test_verify_rejects_an_empty_sample(self, count, capsys):
        # A verify run over no matrices would check nothing and report "passed".
        with pytest.raises(ValidationError, match="verify-count"):
            RunConfig(mode="verify", verify_count=count)
        assert main(["--mode", "verify", "--verify-count", str(count)]) == EXIT_VALIDATION
        assert "code=validation" in capsys.readouterr().err

    @pytest.mark.parametrize("n", [0, 7, 100_000])
    def test_verify_rejects_a_dimension_outside_the_identity_check(self, n, monkeypatch, capsys):
        # Refused before any matrix is sampled: 10**5 would take 160 GB per matrix.
        def no_sample(*args):
            raise AssertionError("a matrix was sampled")

        monkeypatch.setattr(qdet.cli, "_verify_sample", no_sample)
        with pytest.raises(ValidationError, match=rf"--verify-n in 1\.\.6, got {n}"):
            RunConfig(mode="verify", verify_n=n)
        assert main(["--mode", "verify", "--verify-n", str(n), "--verify-count", "1"]) == EXIT_VALIDATION
        assert "code=validation" in capsys.readouterr().err

    @pytest.mark.parametrize("n", [1, 6])
    def test_verify_accepts_the_identity_check_range(self, n):
        assert run(RunConfig(mode="verify", verify_n=n, verify_count=1)).result["passed"]

    @pytest.mark.parametrize("tolerance", ["nan", "-1e-10", "inf"])
    def test_rejects_a_tolerance_not_finite_and_non_negative(self, tolerance, capsys):
        # A NaN or negative tolerance would fail every verify run (exit 3), whatever its residuals.
        with pytest.raises(ValidationError, match="--verify-tolerance must be finite and >= 0"):
            RunConfig(mode="verify", verify_tolerance=float(tolerance))
        # "=" joins the value: argparse takes a lone "-1e-10" for an option.
        assert main(["--mode", "verify", "--verify-count", "1", f"--verify-tolerance={tolerance}"]) == EXIT_VALIDATION
        assert "code=validation" in capsys.readouterr().err

    def test_accepts_a_zero_tolerance(self):
        assert RunConfig(mode="verify", verify_tolerance=0.0).verify_tolerance == 0.0

    def test_other_modes_only_echo_verify_n(self):
        config = RunConfig(mode="oracle", generator="haar-unitary:2", verify_n=100_000)
        assert run(config).config["verify_n"] == 100_000

    def test_parser_defaults_are_the_config_defaults(self):
        args = build_parser().parse_args(["--mode", "qde", "--gen", "g"])
        assert RunConfig(**vars(args)) == RunConfig(mode="qde", generator="g")


class TestRunDispatch:
    def test_qde_report(self):
        config = RunConfig(mode="qde", generator="diag-phase:2:1:2", t=2, shots=100, seed=3)
        report = run(config)
        assert report.result["k_prime"] == 1
        assert report.result["frequencies"]["1"] == 1.0
        assert report.counters["controlled_slot_applications"] == 4
        assert not report.disagreement
        assert report.exit_code == 0
        assert report.oracle_determinant["phase"] == pytest.approx(math.pi / 2)

    def test_sign_report_matches_oracle(self):
        # CI's sign example.
        config = RunConfig(mode="sign", generator="haar-orthogonal:4", shots=50, seed=3)
        report = run(config)
        assert report.result["shots"] == 50
        assert report.result["unanimous"] is True
        oracle_sign = 1 if report.oracle_determinant["value"][0] > 0 else -1
        assert report.result["sign"] == oracle_sign
        assert not report.disagreement

    def test_contract_report(self):
        config = RunConfig(mode="contract", generator="scaled-identity:2:0.9:0", t=2, shots=2000, seed=5)
        report = run(config)
        assert report.result["predicted_acceptance"] == pytest.approx(0.81**6)
        assert report.result["exact_acceptance"] == pytest.approx(0.81**6, abs=1e-9)
        assert not report.disagreement

    def test_contract_flags_implausible_acceptance(self, monkeypatch, capsys):
        # The phase is right but the accepted count sits far outside the
        # binomial spread of the predicted acceptance rate (0.81**6 = 0.28).
        def skewed_run(*args, **kwargs):
            result = contraction_run(*args, **kwargs)
            return dataclasses.replace(result, phase=PhaseEstimate.from_counts({0: 1000}, result.phase.t))

        monkeypatch.setattr(qdet.cli, "contraction_run", skewed_run)
        argv = ["--mode", "contract", "--gen", "scaled-identity:2:0.9:0", "--t", "2", "--shots", "2000"]
        assert main(argv) == EXIT_VERIFICATION
        doc = json.loads(capsys.readouterr().out)
        assert doc["disagreement"] is True
        result = doc["result"]
        # Every count the report prints is the histogram's the run returned.
        assert result["accepted"] == result["shots"] == sum(result["histogram"].values()) == 1000
        assert result["acceptance_rate"] == 0.5

    def test_contract_law_above_one_is_clamped(self, capsys):
        # Norms up to 1 + 1e-9 are admitted, so |det A| = 1 + 5e-10 is: at
        # t = 19 the law |det A|**(2*(2**t - 1)) reads 1.001, while every
        # shot is accepted and the exact acceptance is 1 within rounding.
        argv = ["--mode", "contract", "--gen", "scaled-identity:2:1.0000000005:0", "--t", "19", "--shots", "10"]
        assert main(argv) == 0
        result = json.loads(capsys.readouterr().out)["result"]
        assert result["predicted_acceptance"] == 1.0
        assert result["accepted"] == 10

    def test_contract_flags_any_deviation_at_certain_acceptance(self, monkeypatch):
        def one_rejected(*args, **kwargs):
            result = contraction_run(*args, **kwargs)
            return dataclasses.replace(result, phase=PhaseEstimate.from_counts({0: 499}, result.phase.t))

        monkeypatch.setattr(qdet.cli, "contraction_run", one_rejected)
        config = RunConfig(mode="contract", generator="scaled-identity:2:1:0", t=2, shots=500, seed=3)
        report = run(config)
        assert report.disagreement
        assert report.exit_code == EXIT_VERIFICATION

    # Each id names A's smallest singular value, t, and whether the run is flagged.
    @pytest.mark.parametrize(
        "a, t, flagged",
        [
            pytest.param((haar_unitary(2, 1) * [0.9, 1e-3]) @ haar_unitary(2, 2).conj().T, 3, True, id="0.001-3-True"),
            pytest.param((haar_unitary(2, 1) * [0.9, 1e-5]) @ haar_unitary(2, 2).conj().T, 2, False, id="1e-05-2-False"),
            pytest.param(haar_unitary(2, 1) * [0.99, 1.0], 15, True, id="0.99-15-True"),
        ],
    )
    def test_contract_flags_exact_acceptance_off_the_law(self, tmp_path, capsys, a, t, flagged):
        # A = W diag(0.9, 1e-3) V^dag at t=3: the law gives 2.3e-43, below
        # what the stages resolve, and the exact acceptance reads 7.3e-39.
        # A = W diag(0.9, 1e-5) V^dag at t=2: it stays within 1.7e-5
        # (relative) of the law's 5.3e-31.  A = W diag(0.99, 1) at t=15: the
        # law gives 9.05e-287 and the exact acceptance reads 2.5e-137.  No
        # shot is accepted in any of these runs.
        path = write_matrix(tmp_path, {"n": 2, "rows": [[[z.real, z.imag] for z in row] for row in a]})
        argv = ["--mode", "contract", "--matrix", path, "--t", str(t), "--shots", "200", "--seed", "1"]
        assert main(argv) == (EXIT_VERIFICATION if flagged else 0)
        assert json.loads(capsys.readouterr().out)["disagreement"] is flagged

    def test_contract_tie_straddling_the_oracle_agrees(self, tmp_path, capsys):
        # Two accepted shots tie at k' = 3100 and 3102 around the oracle's
        # 3101.6: k' takes 3100, 1.6 grid steps off, but 3102 is within one.
        a = haar_unitary(2, 3) * [0.9995, 1]
        path = write_matrix(tmp_path, {"n": 2, "rows": [[[z.real, z.imag] for z in row] for row in a]})
        argv = ["--mode", "contract", "--matrix", path, "--t", "12", "--shots", "100", "--seed", "3"]
        assert main(argv) == 0
        doc = json.loads(capsys.readouterr().out)
        assert doc["result"]["histogram"] == {"3100": 1, "3102": 1}
        assert doc["result"]["k_prime"] == 3100
        assert doc["disagreement"] is False

    def test_qde_tie_far_from_the_oracle_disagrees(self, capsys):
        # Two shots tie at k' = 3 and 4, each over two grid steps from the oracle's 0.47.
        argv = ["--mode", "qde", "--gen", "haar-unitary:2", "--t", "4", "--shots", "2", "--seed", "7"]
        assert main(argv) == EXIT_VERIFICATION
        doc = json.loads(capsys.readouterr().out)
        assert doc["result"]["histogram"] == {"3": 1, "4": 1}
        assert doc["disagreement"] is True

    def test_readme_contract_example_agrees(self, capsys):
        # qdet --mode contract --gen scaled-identity:2:0.9:0 --t 2 --shots 10000 --seed 1
        argv = ["--mode", "contract", "--gen", "scaled-identity:2:0.9:0", "--t", "2"]
        assert main(argv + ["--shots", "10000", "--seed", "1"]) == 0
        assert json.loads(capsys.readouterr().out)["disagreement"] is False

    def test_verify_passes_at_default_tolerance(self):
        config = RunConfig(mode="verify", verify_n=3, verify_count=50, seed=1)
        report = run(config)
        assert report.result["passed"] is True
        assert report.result["max_residual"] <= 1e-10
        assert len(report.result["rows"]) == 200
        classes = {row["matrix_class"] for row in report.result["rows"]}
        assert classes == {"unitary", "orthogonal", "contraction", "complex"}
        assert report.exit_code == 0

    def test_verify_fails_at_absurd_tolerance(self):
        config = RunConfig(mode="verify", verify_n=2, verify_count=3, verify_tolerance=1e-30)
        report = run(config)
        assert report.result["passed"] is False
        assert report.exit_code == EXIT_VERIFICATION

    def test_verify_above_tolerance_exits_3_after_its_report(self, capsys):
        argv = ["--mode", "verify", "--verify-n", "2", "--verify-count", "1", "--verify-tolerance", "0"]
        assert main(argv) == EXIT_VERIFICATION
        out, err = capsys.readouterr()
        assert json.loads(out)["result"]["passed"] is False
        assert err.splitlines() == ["QDET-ERROR code=verification: identity residual above tolerance"]

    def test_verification_error_exits_3_with_no_report(self, monkeypatch, capsys):
        def drifting(*args, **kwargs):
            raise VerificationError("state norm drifted by 1.000e-03 after controlled_power_stage m=0")

        monkeypatch.setattr(qdet.cli, "qde_run", drifting)
        assert main(["--mode", "qde", "--gen", "haar-unitary:2", "--t", "2", "--shots", "10"]) == EXIT_VERIFICATION
        out, err = capsys.readouterr()
        assert out == ""
        assert err.splitlines() == [
            "QDET-ERROR code=verification: state norm drifted by 1.000e-03 after controlled_power_stage m=0"
        ]

    @pytest.mark.parametrize(
        "argv",
        [
            ["--mode", "qde", "--gen", "haar-unitary:2", "--t", "3", "--shots", "10"],
            ["--mode", "sign", "--gen", "haar-orthogonal:4", "--seed", "3", "--shots", "50"],
            ["--mode", "contract", "--gen", "scaled-identity:2:0.9:0", "--t", "2", "--shots", "100"],
        ],
        ids=["qde", "sign", "contract"],
    )
    def test_refused_allocation_exits_4_with_no_report(self, monkeypatch, capsys, argv):
        # As numpy's scratch allocation in the dealer fails under an address-space limit.
        def refuse(*args, **kwargs):
            raise MemoryError

        monkeypatch.setattr(qdet.simulator, "_deal", refuse)
        assert main(argv) == EXIT_RESOURCE
        out, err = capsys.readouterr()
        assert out == ""
        assert err.splitlines() == ["QDET-ERROR code=resource-cap: out of memory"]

    def test_split_sign_readout_exits_3_with_no_report(self, monkeypatch, capsys):
        # A histogram of two outcomes, as a sign run of a matrix not orthogonal within tolerance reads.
        def split_run(*args, **kwargs):
            result = qde_run(*args, **kwargs)
            return dataclasses.replace(result, phase=PhaseEstimate.from_counts({0: 30, 1: 20}, 1))

        monkeypatch.setattr(qdet.qde, "qde_run", split_run)
        assert main(["--mode", "sign", "--gen", "haar-orthogonal:4", "--seed", "3", "--shots", "50"]) == EXIT_VERIFICATION
        out, err = capsys.readouterr()
        assert out == ""
        assert err.splitlines() == [
            "QDET-ERROR code=verification: sign readout was not unanimous over 50 shots ({0: 30, 1: 20}); "
            "the input is not orthogonal within tolerance"
        ]

    def test_oracle_mode_agreement(self):
        config = RunConfig(mode="oracle", generator="haar-unitary:4", seed=9)
        report = run(config)
        assert report.result["agreement"] is True
        lu = complex(*report.result["lu"]["value"])
        lc = complex(*report.result["levi_civita"]["value"])
        assert abs(lu - lc) <= 1e-10

    def test_report_written_to_file(self, tmp_path):
        out = tmp_path / "report.json"
        config = RunConfig(
            mode="qde", generator="diag-phase:2:0:1", t=1, shots=10, seed=0, output_path=str(out)
        )
        report = run(config)
        on_disk = out.read_text()
        assert on_disk.strip() == report.to_json()
        json.loads(on_disk)  # must be valid JSON

    def test_out_formats_the_report_once(self, tmp_path, monkeypatch, capsys):
        calls = []

        def counting_dump_json(obj):
            calls.append(obj)
            return dump_json(obj)

        monkeypatch.setattr(qdet.cli, "dump_json", counting_dump_json)
        out = tmp_path / "report.json"
        assert main(["--mode", "qde", "--gen", "haar-unitary:2", "--t", "6", "--shots", "50", "--out", str(out)]) == 0
        assert len(calls) == 1
        assert out.read_bytes() == capsys.readouterr().out.encode()


# Every contract run of CI's README-examples and CPU-count steps but the N=8 one (25 qubits, 1 GiB).
CI_CONTRACT_EXAMPLES = [
    "scaled-identity:2:0.9:0 --t 2 --shots 10000 --seed 1",
    "scaled-identity:4:0.9999:0 --t 10 --shots 2000 --seed 1",
    "scaled-identity:4:0.9999:0 --t 10 --qubit-cap 18 --shots 2000 --seed 1",
    "scaled-identity:4:0.999:0 --t 9 --shots 20000 --seed 2",
    "scaled-identity:2:1.0000000005:0 --t 19 --shots 10",
    "haar-unitary:4 --t 6 --shots 2000 --seed 2",
    "haar-unitary:4 --t 8 --shots 2000 --seed 2",
    "haar-unitary:4 --t 10 --shots 2000 --seed 2",
    "haar-unitary:4 --t 12 --shots 2000 --seed 2",
    "scaled-identity:4:0:0 --t 10 --shots 200 --seed 1",
]


class TestContractOracle:
    """A contract run takes one LU oracle, in `cli.run`, and its acceptance law from it; `cli` derives the rest."""

    def test_one_oracle_per_run(self, monkeypatch, capsys):
        calls = []

        def counting_det_lu(a):
            calls.append(a)
            return det_lu(a)

        for module in (qdet.cli, qdet.qde, qdet.simulator, qdet.antisym, qdet.linalg):
            if hasattr(module, "det_lu"):
                monkeypatch.setattr(module, "det_lu", counting_det_lu)
        assert main(["--mode", "contract", "--gen", "scaled-identity:2:0.9:0", "--t", "2", "--shots", "100"]) == 0
        assert len(calls) == 1

    @pytest.mark.parametrize("example", CI_CONTRACT_EXAMPLES)
    def test_derived_figures_are_their_definitions(self, capsys, example):
        assert main(["--mode", "contract", "--gen", *example.split()]) == 0
        doc = json.loads(capsys.readouterr().out)
        config, result = doc["config"], doc["result"]
        oracle = det_lu(generator_spec(config["gen"], config["seed"]))
        law = min(oracle.magnitude ** (2 * (2 ** config["t"] - 1)), 1.0)
        assert result["predicted_acceptance"] == law
        accepted, attempted = result["accepted"], result["attempted"]
        assert accepted == result["shots"] == sum(result["histogram"].values())
        assert attempted == config["shots"]
        assert result["acceptance_rate"] == accepted / attempted
        assert result["magnitude_estimate"] == magnitude_estimate(accepted, attempted, config["t"])
        assert result["no_accepted_shots"] is (accepted == 0)


REPORT_KEYS = ["config", "mode", "result", "oracle_determinant", "counters", "disagreement", "wall_time_ms"]
CONFIG_KEYS = [
    "mode", "matrix", "gen", "t", "shots", "seed", "qubit_cap", "verify_tolerance", "verify_n", "verify_count"
]
PHASE_KEYS = ["k_prime", "t", "phi_hat", "shots", "histogram", "frequencies", "exact_distribution"]
CONTRACT_KEYS = [
    "accepted", "attempted", "acceptance_rate", "predicted_acceptance", "exact_acceptance",
    "magnitude_estimate", "no_accepted_shots",
]


class TestReportKeyOrder:
    @pytest.mark.parametrize(
        "config, result_keys",
        [
            (RunConfig(mode="qde", generator="diag-phase:2:1:2", t=2, shots=20), PHASE_KEYS),
            (
                RunConfig(mode="sign", generator="haar-orthogonal:2", shots=20),
                ["sign", "shots", "unanimous", "majority_probability"],
            ),
            (
                RunConfig(mode="contract", generator="scaled-identity:2:0.9:0", t=2, shots=200),
                CONTRACT_KEYS + PHASE_KEYS,
            ),
            (RunConfig(mode="verify", verify_n=2, verify_count=1), ["rows", "max_residual", "tolerance", "passed"]),
            (RunConfig(mode="oracle", generator="haar-unitary:3"), ["lu", "levi_civita", "agreement"]),
            (RunConfig(mode="oracle", generator="haar-unitary:12"), ["lu", "levi_civita", "agreement"]),
        ],
        ids=["qde", "sign", "contract", "verify", "oracle", "oracle-no-levi-civita"],
    )
    def test_report_keys_in_order(self, config, result_keys):
        body = json.loads(run(config).to_json())
        assert list(body) == REPORT_KEYS
        assert list(body["config"]) == CONFIG_KEYS
        assert list(body["result"]) == result_keys

    def test_the_report_prints_every_field(self):
        # A verify failure is read off the result, not kept in a hidden field.
        assert [f.name for f in dataclasses.fields(RunReport)] == REPORT_KEYS


class TestReproducibility:
    def test_identical_config_gives_identical_bytes(self):
        def render():
            config = RunConfig(mode="qde", generator="haar-unitary:2", t=4, shots=500, seed=42)
            return re.sub(r'"wall_time_ms": [^\n]+', '"wall_time_ms": 0', run(config).to_json())

        assert render() == render()

    def test_contract_mode_reproducible(self):
        def render():
            config = RunConfig(
                mode="contract", generator="scaled-identity:2:0.9:0.3", t=2, shots=1500, seed=7
            )
            return re.sub(r'"wall_time_ms": [^\n]+', '"wall_time_ms": 0', run(config).to_json())

        assert render() == render()


class TestJsonWriter:
    def test_floats_carry_17_significant_digits(self):
        text = dump_json({"x": 1.0 / 3.0})
        assert "0.33333333333333331" in text

    def test_histogram_keys_are_decimal_strings(self):
        config = RunConfig(mode="qde", generator="diag-phase:2:1:2", t=2, shots=50, seed=3)
        doc = json.loads(run(config).to_json())
        assert list(doc["result"]["histogram"].keys()) == ["1"]
        assert doc["result"]["histogram"]["1"] == 50

    def test_round_trips_through_stdlib(self):
        obj = {"a": [1, 2.5, None, True], "b": {"nested": [0.1]}, "c": "text"}
        assert json.loads(dump_json(obj)) == obj

    def test_rejects_unknown_types(self):
        with pytest.raises(TypeError):
            dump_json({"bad": object()})

    @pytest.mark.parametrize(
        "config",
        [
            RunConfig(mode="qde", generator="haar-unitary:2", t=4, shots=300, seed=4),
            RunConfig(mode="sign", generator="haar-orthogonal:2", shots=30, seed=4),
            RunConfig(mode="contract", generator="scaled-identity:2:0.9:0.3", t=3, shots=800, seed=4),
            RunConfig(mode="verify", verify_n=2, verify_count=3, seed=4),
            RunConfig(mode="oracle", generator="haar-unitary:3", seed=4),
        ],
        ids=lambda config: config.mode,
    )
    def test_float_lists_written_as_the_element_writer_does(self, config):
        # numpy floats format as Python floats do, but take the writer's
        # element-by-element path; the report must have float lists to test.
        def as_numpy(obj):
            if isinstance(obj, dict):
                return {key: as_numpy(value) for key, value in obj.items()}
            if isinstance(obj, list):
                return [as_numpy(value) for value in obj]
            return np.float64(obj) if type(obj) is float else obj

        def float_lists(obj):
            if isinstance(obj, dict):
                return sum(float_lists(value) for value in obj.values())
            if isinstance(obj, list):
                return (bool(obj) and all(type(x) is float for x in obj)) + sum(map(float_lists, obj))
            return 0

        report = run(config)
        fields = ("config", "result", "oracle_determinant", "counters")
        assert float_lists([getattr(report, name) for name in fields]) > 0
        element_wise = dataclasses.replace(report, **{name: as_numpy(getattr(report, name)) for name in fields})
        assert element_wise.to_json() == report.to_json()

    @pytest.mark.parametrize(
        "values",
        [[-0.0, 5e-324, 2.2250738585072014e-308, 0.1, 1 / 3, 1e300], [-0.0], [5e-324], [1e300]],
        ids=["mixed", "negative-zero", "subnormal", "large"],
    )
    def test_float_list_bytes_equal_the_per_element_format(self, values):
        rows = ",\n".join("    " + format(x, ".17g") for x in values)
        assert dump_json({"x": values}) == '{\n  "x": [\n' + rows + "\n  ]\n}"


class TestMainExitCodes:
    def test_success(self, capsys):
        code = main(["--mode", "qde", "--gen", "diag-phase:2:1:2", "--t", "2", "--shots", "20"])
        assert code == 0
        out = capsys.readouterr().out
        assert json.loads(out)["result"]["k_prime"] == 1

    def test_validation_error(self, capsys):
        code = main(["--mode", "qde", "--gen", "scaled-identity:2:0.5:0"])
        assert code == EXIT_VALIDATION
        assert "code=validation" in capsys.readouterr().err

    @pytest.mark.parametrize("spec", ["diag-phase:0:1:2", "diag-phase:2:1:100000", "scaled-identity:0:1:0"])
    def test_generator_spec_out_of_range(self, capsys, spec):
        # As a matrix file's "n": 0 is: no 0 x 0 matrix, and no phase step 2**-t below float range.
        code = main(["--mode", "oracle", "--gen", spec])
        assert code == EXIT_VALIDATION
        assert "code=validation" in capsys.readouterr().err

    @pytest.mark.parametrize("spec", ["scaled-identity:64:1e200:0", "scaled-identity:8:1e50:0"])
    def test_determinant_past_the_float_range_exits_2(self, capsys, spec):
        # det = 1e12800 and 1e400: LU (and, at N=8, the permutation sum) overflow
        # to inf and NaN, which a JSON report cannot hold.
        assert main(["--mode", "oracle", "--gen", spec]) == EXIT_VALIDATION
        out, err = capsys.readouterr()
        assert out == ""
        assert err.count("QDET-ERROR code=validation") == 1

    @pytest.mark.parametrize("spec", ["scaled-identity:64:1e200:0", "scaled-identity:8:1e50:0"])
    def test_determinant_past_the_float_range_raises_no_numpy_warning(self, capsys, spec):
        # The overflow is reported once, as the QDET-ERROR line, not also as warnings.
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert main(["--mode", "oracle", "--gen", spec]) == EXIT_VALIDATION

    @pytest.mark.parametrize(
        "argv",
        [
            # exp(i*inf) in the generator is nan.
            ["--mode", "sign", "--gen", "scaled-identity:1:65:inf"],
            # The unitarity check's Gram product overflows.
            ["--mode", "qde", "--gen", "scaled-identity:1:1e308:1e308", "--t", "6"],
        ],
    )
    def test_refused_matrix_raises_no_numpy_warning(self, capsys, argv):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert main(argv) == EXIT_VALIDATION
        out, err = capsys.readouterr()
        assert out == ""
        assert err.startswith("QDET-ERROR code=validation") and err.count("\n") == 1

    def test_matrix_file_determinant_past_the_float_range_exits_2(self, tmp_path, capsys):
        path = write_matrix(tmp_path, {"n": 2, "rows": [[[1e200, 0], [0, 0]], [[0, 0], [1e200, 0]]]})
        assert main(["--mode", "oracle", "--matrix", path]) == EXIT_VALIDATION
        out, err = capsys.readouterr()
        assert out == ""
        assert err.count("QDET-ERROR code=validation") == 1

    def test_determinant_below_the_float_range_reads_0(self, capsys):
        assert main(["--mode", "oracle", "--gen", "scaled-identity:64:1e-200:0"]) == 0
        doc = json.loads(capsys.readouterr().out)
        assert doc["oracle_determinant"] == {"value": [0, 0], "magnitude": 0, "phase": 0}

    def test_resource_cap(self, capsys):
        code = main(["--mode", "qde", "--gen", "haar-unitary:8", "--t", "8"])
        assert code == EXIT_RESOURCE
        assert "code=resource-cap" in capsys.readouterr().err

    def test_state_numpy_refuses_to_allocate(self, capsys):
        # 70 + 4*2 = 78 qubits: numpy refuses 2**78 amplitudes before allocating any.
        code = main(
            ["--mode", "contract", "--gen", "haar-unitary:4", "--t", "70", "--qubit-cap", "100", "--shots", "10"]
        )
        assert code == EXIT_RESOURCE
        assert "code=resource-cap" in capsys.readouterr().err

    def test_report_into_a_missing_directory_exits_2(self, tmp_path, capsys):
        out = tmp_path / "missing" / "report.json"
        code = main(["--mode", "qde", "--gen", "diag-phase:2:1:2", "--t", "2", "--shots", "20", "--out", str(out)])
        assert code == EXIT_VALIDATION
        err = capsys.readouterr().err
        assert err.count("QDET-ERROR code=validation") == 1
        assert str(out) in err

    def test_verify_mode_smoke(self, capsys):
        code = main(["--mode", "verify", "--verify-n", "2", "--verify-count", "5"])
        assert code == 0

    def test_custom_qubit_cap(self, capsys):
        code = main(
            ["--mode", "qde", "--gen", "haar-unitary:4", "--t", "2", "--shots", "10", "--qubit-cap", "8"]
        )
        assert code == EXIT_RESOURCE


class TestClosedStdout:
    """A reader that closes stdout early, as `qdet ... | head` does, ends the run quietly."""

    @pytest.mark.parametrize(
        "argv, code",
        [
            (["--mode", "oracle", "--gen", "haar-unitary:4", "--seed", "2"], 0),
            (["--mode", "verify", "--verify-n", "3", "--verify-count", "2", "--verify-tolerance", "0"], 3),
        ],
    )
    def test_returns_the_runs_exit_code_and_points_stdout_at_devnull(self, tmp_path, monkeypatch, capsys, argv, code):
        with open(tmp_path / "stdout", "wb") as fh:
            monkeypatch.setattr(sys, "stdout", ClosedStdout(fh.fileno()))
            assert main(argv) == code
            assert os.path.samestat(os.fstat(fh.fileno()), os.stat(os.devnull))
        err = capsys.readouterr().err
        assert err == ("" if code == 0 else "QDET-ERROR code=verification: identity residual above tolerance\n")

    def test_closed_pipe_exits_0_with_empty_stderr(self):
        # The reader is gone before qdet writes, so every write meets a closed pipe, the
        # interpreter's flush at exit included.
        argv = [sys.executable, "-m", "qdet.cli", "--mode", "oracle", "--gen", "haar-unitary:4", "--seed", "2"]
        proc = subprocess.Popen(argv, env=source_env(), stdout=subprocess.PIPE, stderr=subprocess.PIPE)
        proc.stdout.close()
        err = proc.stderr.read()
        proc.stderr.close()
        assert (proc.wait(), err) == (0, b"")


def test_cli_import_leaves_scipy_out_and_loads_numpy_fft():
    # Importing scipy.linalg costs about 0.3 s and 28 MiB per CLI process; inverse_qft needs numpy.fft.
    probe = "import sys, qdet, qdet.cli; print('scipy' in sys.modules, 'numpy.fft' in sys.modules)"
    out = subprocess.run([sys.executable, "-c", probe], env=source_env(), capture_output=True, text=True, check=True)
    assert out.stdout.split() == ["False", "True"]
