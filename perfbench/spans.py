"""Spans around qdet's public functions, recorded from outside the program.

`install` rebinds each traced function at every place a caller looks it up:
the globals of every loaded ``qdet`` module (so ``qdet.qde.hadamard_layer``
and ``qdet.cli.det_lu`` are both wrapped) and, for methods, the class
attribute (``StateVector.norm_sq``).  Spans stay in memory until `dump`.
"""

from __future__ import annotations

import functools
import json
import resource
import sys
import time
from collections.abc import Callable
from pathlib import Path

#: Traced functions, by module, as they are named in that module.
TRACED = {
    "cli": ("run", "load_matrix", "dump_json"),
    "qde": ("qde_run", "sign_run", "contraction_run"),
    "simulator": (
        "init_state",
        "load_asym",
        "slot_register_vector",
        "hadamard_layer",
        "controlled_power_stage",
        "controlled_block_stage",
        "inverse_qft",
        "register_probabilities",
        "measure_register",
        "ancilla_zero_probability",
        "measure_ancilla_postselect",
        "shot_rng",
        "StateVector.norm_sq",
    ),
    "linalg": ("mat_pow2", "kron_power", "block_encode", "psd_sqrt", "is_unitary", "operator_norm", "det_lu"),
    "antisym": ("asym_state",),
}

#: Spans that also record the rise of the process's peak RSS during the call.
RSS_TRACED = frozenset(
    {
        "simulator.init_state",
        "simulator.load_asym",
        "simulator.hadamard_layer",
        "simulator.controlled_power_stage",
        "simulator.controlled_block_stage",
        "simulator.inverse_qft",
        "simulator.measure_ancilla_postselect",
        "linalg.block_encode",
    }
)

TRACED_NAMES = tuple(f"{module}.{name}" for module, names in TRACED.items() for name in names)


def _maxrss_kib() -> int:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss


class Tracer:
    """Records one span per call of each wrapped function.

    A span is ``[name_id, parent_index, start_s, end_s, rss_rise_kib]``;
    the parent is the span that was open when the call began, or -1.
    """

    def __init__(self, clock=time.perf_counter):
        self.clock = clock
        self.names: list[str] = []
        self.spans: list[list] = []
        self._open = -1

    def wrap(self, name: str, fn):
        name_id = len(self.names)
        self.names.append(name)
        spans, clock = self.spans, self.clock
        rss = name in RSS_TRACED

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            parent = self._open
            self._open = len(spans)
            rss_before = _maxrss_kib() if rss else 0
            span = [name_id, parent, clock(), 0.0, 0]
            spans.append(span)
            try:
                return fn(*args, **kwargs)
            finally:
                span[3] = clock()
                if rss:
                    span[4] = _maxrss_kib() - rss_before
                self._open = parent

        return traced

    def summary(self) -> dict[str, dict[str, float]]:
        """Per traced name: self time, calls and RSS rise in MiB."""
        out = {name: {"s": 0.0, "calls": 0, "rss_mb": 0.0} for name in self.names}
        for span, own in zip(self.spans, self_times(self.spans)):
            entry = out[self.names[span[0]]]
            entry["s"] += own
            entry["calls"] += 1
            entry["rss_mb"] += span[4] / 1024
        return out

    def dump(self, path: Path) -> None:
        path.write_text(json.dumps({"names": self.names, "spans": self.spans}))


def self_times(spans: list[list]) -> list[float]:
    """Each span's duration minus the durations of its direct children."""
    own = [span[3] - span[2] for span in spans]
    for span in spans:
        if span[1] >= 0:
            own[span[1]] -= span[3] - span[2]
    return own


def install(tracer: Tracer, package) -> Callable[[], None]:
    """Wrap every `TRACED` function of ``package``; return a function that undoes it."""
    prefix = package.__name__
    modules = [m for key, m in list(sys.modules.items()) if key == prefix or key.startswith(prefix + ".")]
    undo: list[tuple[object, str, object]] = []
    for module_name, names in TRACED.items():
        home = sys.modules[f"{prefix}.{module_name}"]
        for name in names:
            wrapped_name = f"{module_name}.{name}"
            if "." in name:
                class_name, attr = name.split(".")
                owner = getattr(home, class_name)
                original = owner.__dict__[attr]
                undo.append((owner, attr, original))
                setattr(owner, attr, tracer.wrap(wrapped_name, original))
                continue
            original = getattr(home, name)
            wrapper = tracer.wrap(wrapped_name, original)
            for module in modules:
                for key, value in list(vars(module).items()):
                    if value is original:
                        undo.append((module, key, original))
                        setattr(module, key, wrapper)

    def restore() -> None:
        for owner, key, original in reversed(undo):
            setattr(owner, key, original)

    return restore
