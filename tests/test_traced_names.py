"""Every function the benchmark's tracer wraps still exists in qdet.

`perfbench/spans.py` names the traced functions by module and attribute,
and `--trace 1` fails on the first name that no longer resolves.  The list
is read from that file as it stands, without changing it.
"""

import importlib
import importlib.util
from pathlib import Path

import pytest

SPANS = Path(__file__).resolve().parents[1] / "perfbench" / "spans.py"


def traced_names():
    spec = importlib.util.spec_from_file_location("perfbench_spans", SPANS)
    spans = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(spans)
    return [(module, name) for module, names in spans.TRACED.items() for name in names]


@pytest.mark.parametrize("module, name", traced_names(), ids=lambda v: v)
def test_traced_name_resolves(module, name):
    owner = importlib.import_module(f"qdet.{module}")
    for attr in name.split("."):
        assert hasattr(owner, attr), f"qdet.{module} has no {name}"
        owner = getattr(owner, attr)
    assert callable(owner)
