"""perfbench's traced run wraps ``repro`` functions by module binding.

A binding that moves (a function renamed, or no longer imported into
the module the tracer names) breaks the traced benchmark run.  This
pins that every binding the tracer lists still resolves, and that
uninstalling restores the originals.  perfbench is only read here.
"""

from __future__ import annotations

import importlib
import importlib.util
from pathlib import Path

TRACER = Path(__file__).resolve().parent.parent / "perfbench" / "tracer.py"


def _load_tracer():
    spec = importlib.util.spec_from_file_location("perfbench_tracer", TRACER)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def _binding(module_name: str, path: str):
    owner = importlib.import_module(module_name)
    *parents, attr = path.split(".")
    for part in parents:
        owner = getattr(owner, part)
    return vars(owner)[attr]


def test_every_binding_resolves_and_is_restored():
    tracer = _load_tracer()
    bindings = [(m, p) for m, p, _, _ in tracer.LAYER_BINDINGS] + [
        (m, p) for m, p, _ in tracer.COUNTED_BINDINGS
    ]
    originals = {b: _binding(*b) for b in bindings}
    recorder = tracer.SpanRecorder()
    recorder.install()
    try:
        for binding, original in originals.items():
            assert _binding(*binding) is not original, binding
    finally:
        recorder.uninstall()
    for binding, original in originals.items():
        assert _binding(*binding) is original, binding
