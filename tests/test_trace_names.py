"""The benchmark's per-layer trace wraps functions by name.

If a refactor renames or removes one of them, the trace reports it as
missing and its layer metrics read zero; this test fails first.  The
benchmark module is only imported, never changed.
"""

import importlib
import importlib.util
from pathlib import Path

TRACING = Path(__file__).resolve().parents[1] / "benchmarks" / "tracing.py"


def test_traced_functions_exist():
    spec = importlib.util.spec_from_file_location("benchmark_tracing", TRACING)
    tracing = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracing)
    assert tracing.TRACED
    for layer, names in tracing.TRACED.items():
        module = importlib.import_module(f"{tracing.PACKAGE}.{layer}")
        for name in names:
            assert callable(getattr(module, name, None)), f"{layer}.{name}"
