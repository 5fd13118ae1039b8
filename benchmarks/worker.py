"""One timed repetition of a workload, in a fresh interpreter.

Reads a job from stdin as JSON ({"workload", "inputs", "trace", "check"}),
imports `hypertree_spectra` (timed as set-up), runs the workload's
operations, fingerprints their outputs outside the timed phase (and checks
them, and runs the deep-path probe, when "check" is true), and writes one
JSON object to stdout.  Started by `run.py`; expects the package on PYTHONPATH.

Before the first operation and after each one, outside their timings, the
worker times `reference_loop`, a fixed piece of pure-Python work that does
not call the program.  Its best time tells `run.py` how fast the machine
was at its best while this repetition ran.
"""

from __future__ import annotations

import gc
import importlib
import json
import platform
import resource
import sys
from fractions import Fraction
from time import perf_counter

import tracing
import workloads

REF_FRACTIONS = tuple(Fraction(3 * i - 7, i + 2) for i in range(16))


def reference_loop() -> float:
    """Seconds taken by fixed integer, dict, Fraction and sorting work, with
    the cyclic garbage collector off so that the program's heap does not
    change the time."""
    enabled = gc.isenabled()
    gc.disable()
    t0 = perf_counter()
    s, table = 0, {}
    for i in range(3000):
        s = (s * 31 + i) % 1000003
        table[i & 255] = s
    x, acc = Fraction(7, 13), Fraction(0)
    for c in REF_FRACTIONS:
        acc = acc * x + c
    sorted((v * 7919) % 50021 for v in range(3000))
    elapsed = perf_counter() - t0
    if enabled:
        gc.enable()
    return elapsed


def run_job(job: dict) -> dict:
    t0 = perf_counter()
    hs = importlib.import_module(tracing.PACKAGE)
    setup_s = perf_counter() - t0
    numpy_version = sys.modules["numpy"].__version__

    tracer = tracing.Tracer() if job["trace"] else None
    if tracer:
        tracer.install()
    matching = sys.modules[f"{tracing.PACKAGE}.matching"]
    memo_peak = 0
    ref_best_s = reference_loop()

    def after_op() -> None:
        nonlocal memo_peak, ref_best_s
        memo_peak = max(memo_peak, len(getattr(matching, "_cache", ())))
        ref_best_s = min(ref_best_s, reference_loop())

    ops = workloads.build_ops(hs, job["workload"], job["inputs"])
    wall_s = workloads.run_ops(hs, ops, after_op)
    if tracer:
        tracer.active = False
    workloads.check(hs, job["workload"], job["inputs"], ops, full=job["check"])
    probe = {}
    if job["check"] and job["workload"] == "trees":
        probe = workloads.deep_path_probe(hs, job["inputs"])

    out = {
        "setup_s": setup_s,
        "wall_s": wall_s,
        "ref_best_s": ref_best_s,
        "rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
        "ops": [
            {"kind": op.kind, "latency_s": op.latency_s, "error": op.error, "fingerprint": op.fingerprint}
            for op in ops
        ],
        "probe": probe,
        "python": platform.python_version(),
        "numpy": numpy_version,
    }
    if tracer:
        out["trace"] = {
            "calls": dict(tracer.calls),
            "self_s": dict(tracer.self_s),
            "total_s": dict(tracer.total_s),
            "power_iterations": tracer.power_iterations,
            "classes_per_candidate": tracer.classes_per_candidate(),
            "cache_entries": memo_peak,
            "missing": tracer.missing,
        }
    return out


if __name__ == "__main__":
    json.dump(run_job(json.load(sys.stdin)), sys.stdout)
