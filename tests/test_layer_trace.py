"""The benchmark's layer trace (`perfbench/spans.py`) against the package:
every name it wraps exists, and uninstalling it restores every binding."""

import importlib.util
import sys
from pathlib import Path

import platycosms
import platycosms.cli  # noqa: F401  (the trace wraps cli.main)

SPANS = Path(__file__).resolve().parent.parent / "perfbench" / "spans.py"


def _load_spans():
    spec = importlib.util.spec_from_file_location("perfbench_spans", SPANS)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def _bindings():
    return {
        (name, attr): value
        for name, module in sys.modules.items()
        if name == "platycosms" or name.startswith("platycosms.")
        for attr, value in vars(module).items()
    }


def test_trace_install_wraps_and_uninstall_restores():
    spans = _load_spans()
    before = _bindings()
    tracer = spans.Tracer()
    try:
        tracer.install()
        for layer, names in spans.TRACED.items():
            for fname in names:
                key = (f"platycosms.{layer}", fname)
                assert key in before, f"traced name {layer}.{fname} is missing"
                wrapped = _bindings()[key]
                assert wrapped is not before[key] and wrapped.__wrapped__ is before[key]
    finally:
        tracer.uninstall()
    after = _bindings()
    assert after.keys() == before.keys()
    assert all(after[key] is value for key, value in before.items())
