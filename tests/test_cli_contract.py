"""The CLI's contract, over argvs drawn from each flag's domain and its edges.

Whatever the argv, `main`:
- returns 0, 2, 3 or 4, and raises nothing;
- prints nothing or one strict-JSON report on stdout (no NaN or Infinity);
- prints only QDET-ERROR lines on stderr, numpy warnings included;
- ends quietly when the reader closes stdout, as `qdet ... | head` does.

Every run is capped at 18 qubits, 1,000 shots and two verify matrices per class.
"""

import contextlib
import io
import json
import os
import warnings

import pytest
from conftest import ClosedStdout
from hypothesis import example, given, settings
from hypothesis import strategies as st

from qdet.cli import _GENERATOR_ARITY, MODES, main


def often(common, rare):
    """Draw from ``common`` four times in five, else from ``rare``."""
    return st.sampled_from([common] * 4 + [rare]).flatmap(lambda strategy: strategy)


def values(typical, edges):
    """A value a run takes four times in five, else an edge of the flag's domain."""
    return often(st.sampled_from(typical), st.sampled_from(edges))


NUMBERS = ["", "nan", "inf", "-inf", "1e308", "-1e308", "1e-320", "-1", "65"]
SPEC_FIELDS = {
    "haar-unitary": [["2", "4"]],
    "haar-orthogonal": [["2", "4"]],
    "diag-phase": [["2", "4"], ["1", "3"], ["2", "5"]],
    "scaled-identity": [["2", "4"], ["0.5", "0.9", "1"], ["0", "0.7"]],
}


@st.composite
def generator_specs(draw):
    """A spec of a known kind and arity, or of an unknown kind or a wrong arity; each field typical or an edge."""
    kind = draw(values(list(SPEC_FIELDS), ["fibonacci"]))
    fields = SPEC_FIELDS.get(kind, SPEC_FIELDS["haar-unitary"])
    count = draw(values([len(fields)], [len(fields) - 1, len(fields) + 1]))
    typical = (fields + [["1"]])[:count]
    edges = [["", "nan", "-1", "0", "1", "3", "8", "65"]] + [NUMBERS] * (count - 1)
    return ":".join([kind] + [draw(values(t, e)) for t, e in zip(typical, edges)])


def flag(name, strategy):
    """``name=value``, a form argparse reads even where the value starts with "-", or now and then no ``name``."""
    return often(strategy.map(lambda value: [f"{name}={value}"]), st.none())


@st.composite
def argvs(draw):
    argv = ["--mode", draw(st.sampled_from(MODES))]
    optional = [
        flag("--gen", generator_specs()),
        flag("--t", values([1, 2, 3, 6], [-1, 0, 12, 18])),
        flag("--shots", values([1, 20, 200], [-1, 0, 1000])),
        flag("--seed", values([1, 2, 3], [-1, 0, 2**63, 2**64, 2**64 + 1, -(2**64)])),
        flag("--verify-tolerance", values(["1e-10"], ["nan", "inf", "-inf", "-1", "0", "1e-320", "1e308"])),
        flag("--verify-n", values([2, 3], [-1, 0, 1, 6, 7])),
    ]
    for extra in optional:
        argv += draw(extra) or []
    # Always capped, so no run passes 18 qubits or 2 matrices per verify class.
    argv += [f"--verify-count={draw(values([1, 2], [-1, 0]))}"]
    return argv + [f"--qubit-cap={draw(values([18], [-1, 0, 1, 8, 12]))}"]


def refuse_constant(name):
    raise ValueError(f"not strict JSON: {name}")


@settings(max_examples=300, deadline=None, derandomize=True, database=None)
@given(argv=argvs(), closed=st.booleans())
@example(argv=["--mode", "sign", "--gen", "scaled-identity:1:65:inf"], closed=False)
@example(argv=["--mode", "qde", "--gen", "scaled-identity:1:1e308:1e308", "--t", "6"], closed=False)
@example(argv=["--mode", "oracle", "--gen", "haar-unitary:4", "--seed", "2"], closed=True)
def test_main_keeps_the_contract(argv, closed):
    out, err = io.StringIO(), io.StringIO()
    fd = os.open(os.devnull, os.O_WRONLY)
    try:
        stdout = ClosedStdout(fd) if closed else out
        with (
            warnings.catch_warnings(record=True) as caught,
            contextlib.redirect_stdout(stdout),
            contextlib.redirect_stderr(err),
        ):
            warnings.simplefilter("always")
            code = main(argv)
    finally:
        os.close(fd)
    assert code in (0, 2, 3, 4)
    if out.getvalue():
        json.loads(out.getvalue(), parse_constant=refuse_constant)
    # A warning is printed on stderr outside a test.
    lines = err.getvalue().splitlines() + [f"{w.category.__name__}: {w.message}" for w in caught]
    assert all(line.startswith("QDET-ERROR") for line in lines), lines


@pytest.mark.parametrize(
    "argv",
    [
        ["--mode", "nope", "--gen", "haar-unitary:2"],
        ["--mode", "qde", "--t", "x", "--gen", "haar-unitary:2"],
        ["--gen", "haar-unitary:2"],
        ["--mode", "qde", "--matrix", "m.json", "--gen", "haar-unitary:2"],
    ],
    ids=["unknown-mode", "non-integer-t", "missing-mode", "matrix-and-gen"],
)
def test_argv_the_parser_refuses_keeps_the_contract(argv):
    # argparse's own refusals: one QDET-ERROR line and exit 2, no usage text.
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(argv)
    assert code == 2
    assert out.getvalue() == ""
    assert len(err.getvalue().splitlines()) == 1
    assert err.getvalue().startswith("QDET-ERROR code=validation: ")


def test_help_prints_usage_on_stdout_and_exits_0():
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(["--help"])
    assert code == 0
    assert out.getvalue().startswith("usage: qdet")
    assert err.getvalue() == ""
