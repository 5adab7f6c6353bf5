"""Boundary pairs for each named tolerance, run through `main` in process.

Each pair is one input just inside a bound and one just outside it, built
from the constant itself, with the exit code or the report field the bound
decides pinned on both sides.
"""

import dataclasses
import json

import numpy as np
import pytest

import qdet.cli
from qdet.cli import EXIT_VALIDATION, EXIT_VERIFICATION, main
from qdet.linalg import VALIDATION_TOL
from qdet.qde import PhaseEstimate, qde_run
from qdet.simulator import _AMPLITUDE_FLOOR, _LEAK_SNAP, _NORM_TOL


def write_matrix(tmp_path, a):
    path = tmp_path / "m.json"
    path.write_text(json.dumps({"n": len(a), "rows": [[[z.real, z.imag] for z in row] for row in a]}))
    return str(path)


def scaled_identity(r, mode, t, shots=20):
    return ["--mode", mode, "--gen", f"scaled-identity:2:{r!r}:0", "--t", str(t), "--shots", str(shots)]


class TestAdmissionSlack:
    @pytest.mark.parametrize("scale, code", [(0.5, 0), (2.0, EXIT_VALIDATION)])
    def test_unitarity(self, tmp_path, capsys, scale, code):
        # A shear [[1, e], [0, 1]] has |U^dag U - I| = e and det 1.  At N = 2
        # |asym> is an eigenvector of U (x) U for any U, so the state keeps
        # its norm and only the admission decides the run.
        path = write_matrix(tmp_path, np.array([[1.0, scale * VALIDATION_TOL], [0.0, 1.0]]))
        assert main(["--mode", "qde", "--matrix", path, "--t", "3", "--shots", "20"]) == code
        out, err = capsys.readouterr()
        if code:
            assert err == "QDET-ERROR code=validation: input matrix is not unitary to 1e-9\n"
        else:
            assert json.loads(out)["result"]["k_prime"] == 0

    @pytest.mark.parametrize("scale, code", [(0.5, 0), (2.0, EXIT_VALIDATION)])
    def test_operator_norm(self, capsys, scale, code):
        assert main(scaled_identity(1.0 + scale * VALIDATION_TOL, "contract", 3)) == code
        out, err = capsys.readouterr()
        if code:
            assert err.startswith("QDET-ERROR code=validation: not a contraction: operator norm")
        else:
            assert json.loads(out)["result"]["accepted"] == 20


class TestDriftBound:
    @pytest.mark.parametrize("scale, code", [(0.25, 0), (1.0, EXIT_VERIFICATION)])
    def test_stage_norm(self, capsys, scale, code):
        # r I at t = 1 leaves the state norm 1 + (r**4 - 1)/2, about 1 + 2(r - 1) off.
        assert main(scaled_identity(1.0 + scale * _NORM_TOL, "qde", 1)) == code
        err = capsys.readouterr().err
        if code:
            assert err == "QDET-ERROR code=verification: state norm drifted by 2.000e-10 after controlled_power_stage m=0\n"
        else:
            assert err == ""


class TestLeakSnap:
    @pytest.mark.parametrize("scale, snaps", [(0.5, True), (2.0, False)])
    def test_rho_snaps_to_1(self, capsys, scale, snaps):
        # r I at t = 1 has rho**2 = r**4.  A snapped rho reads 1 and the
        # block is the polar factor I, so P(0) = 1; otherwise P(0) = r**4.
        r = (1.0 - scale * _LEAK_SNAP) ** 0.25
        assert main(scaled_identity(r, "contract", 1)) == 0
        exact = json.loads(capsys.readouterr().out)["result"]["exact_acceptance"]
        assert exact == pytest.approx(1.0 if snaps else r**4, abs=1e-14)


class TestAmplitudeFloor:
    @pytest.mark.parametrize("scale, last_stage", [(2.0, 4), (0.5, 3)])
    def test_stage_the_pass_stops_at(self, capsys, scale, last_stage):
        # r I at N = 2: stage m's P(0) is r**(2**(m+2)), so stage 3's is scale * floor.
        # A stage below the floor is the last the counters book.
        assert main(scaled_identity((scale * _AMPLITUDE_FLOOR) ** (1 / 32), "contract", 6)) == 0
        counters = json.loads(capsys.readouterr().out)["counters"]
        assert counters["controlled_slot_applications"] == (last_stage + 1) * 2


class TestModalTieGridRule:
    @pytest.mark.parametrize("offset, disagrees", [(100, False), (352, True)])
    def test_one_grid_step_plus_slack(self, monkeypatch, capsys, offset, disagrees):
        # The oracle's phase is pi/2 plus offset * 2*pi / 2**40: 5.7e-10 or
        # 2.0e-9 past one t = 2 grid step from k = 0.  A forced tie of k = 0
        # with k = 3, half a turn away, agrees only while k = 0 is within one
        # step and the 1e-9 slack.
        def tied(*args, **kwargs):
            return dataclasses.replace(qde_run(*args, **kwargs), phase=PhaseEstimate.from_counts({0: 1, 3: 1}, 2))

        monkeypatch.setattr(qdet.cli, "qde_run", tied)
        argv = ["--mode", "qde", "--gen", f"diag-phase:2:{(1 << 38) + offset}:40", "--t", "2", "--shots", "2"]
        assert main(argv) == (EXIT_VERIFICATION if disagrees else 0)
        assert json.loads(capsys.readouterr().out)["disagreement"] is disagrees
