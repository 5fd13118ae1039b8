"""The benchmark's own output checks, at its tiny size.

Each workload is built, run and checked as a benchmark worker does it, so
that a change to the public API or to `SpectralResult` that breaks the
benchmark fails here first.  The benchmark module is only imported, never
changed.
"""

import importlib.util
import sys
from pathlib import Path

import pytest

import hypertree_spectra as hs

WORKLOADS = Path(__file__).resolve().parents[1] / "benchmarks" / "workloads.py"
_spec = importlib.util.spec_from_file_location("benchmark_workloads", WORKLOADS)
workloads = importlib.util.module_from_spec(_spec)
sys.modules[_spec.name] = workloads  # its dataclasses look their module up there
_spec.loader.exec_module(workloads)


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_benchmark_checks_pass(workload):
    inputs = workloads.make_inputs(workload, 1, "tiny")
    ops = workloads.build_ops(hs, workload, inputs)
    workloads.run_ops(hs, ops)
    workloads.check(hs, workload, inputs, ops)
    assert ops and [op.error for op in ops if op.error] == []
    if "deep_path" in inputs:
        assert set(workloads.deep_path_probe(hs, inputs).values()) == {"ok"}
