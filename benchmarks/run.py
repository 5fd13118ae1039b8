"""Benchmark of hypertree_spectra: end-to-end metrics, or per-layer with --trace 1.

Run from the repository root:

    python3 benchmarks/run.py --workload sweep --seed 1 --seconds 55 --trace 0

`--workload all` runs sweep and trees in turn.  Each timed
repetition runs in a fresh worker interpreter (`worker.py`), one at a
time, with BLAS/OpenMP threads pinned to 1, while the next one can end
within `--seconds` (at least MIN_REPS repetitions).  Every repetition
repeats the same inputs, made from `--seed`.  The first is checked in
full; the others must give the same outputs.  Human-readable lines come
first; the last line of stdout is one JSON object with the keys correct,
attempted, failed and metrics: the end-to-end metrics with --trace 0, the
per-layer metrics of one extra traced repetition with --trace 1.

End-to-end metrics, from the untraced repetitions:
  setup_s          import time of hypertree_spectra (numpy included), median
  ops_per_s_norm   completed operations per normalized second
  op_p50_s_norm    median operation latency, normalized seconds
  op_tail_s_norm   latency at the highest percentile with at least
                   TAIL_BEYOND operations beyond it, normalized seconds
  peak_rss_mb      the worker's maximum resident set size, median
An operation is one triple (sweep), or one verdict or one top-level call
(trees).  An operation's latency is the fastest of its repetitions, as
`timeit` does: on a shared machine interference only adds time.
ops_per_s_norm divides the operation count by the sum of those latencies.

Normalized seconds.  On a shared 2-core virtual machine the speed the
program gets changes by half for spells of seconds to minutes, so even the
fastest repetition of an operation moves with the minute it ran in.  Each
worker therefore also times `worker.reference_loop`, fixed pure-Python work
that does not call the program, before the first operation and after each
one.  A latency in normalized seconds is the measured latency times
REF_LOOP_S over the loop's best time in the same repetition: the seconds
the operation would take on a machine where the loop's best time is
REF_LOOP_S.  An operation's normalized latency is the fastest over its
repetitions.  The loop's code never changes, so a change to the program
moves only the measured latencies.  The raw seconds are printed too, not
in the JSON.  Of the per-layer metrics, trace_overhead_s_norm (traced
wall time minus the median untraced one) is in normalized seconds; the
self times are raw.
Also printed, not in the JSON: fail_share, and for trees the summed
time of each kind of operation (release_s, ..., canonical_code_s).
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
from pathlib import Path
from time import monotonic

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

import tracing  # noqa: E402
import workloads  # noqa: E402

MIN_REPS = 3
TAIL_BEYOND = 10
DEADLINE_S = 170  # the whole run, traced repetition included
# best time of worker.reference_loop on the 2-core Intel Xeon virtual machine
# the benchmark was written on; it sets only the scale of normalized seconds
REF_LOOP_S = 0.0009


class BenchmarkError(RuntimeError):
    pass


def machine() -> dict:
    cpu = "unknown"
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            for line in fh:
                if line.startswith("model name"):
                    cpu = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    return {"nproc": len(os.sched_getaffinity(0)), "cpu": cpu}


def run_worker(job: dict, deadline: float) -> dict:
    env = dict(os.environ)
    env.update(
        PYTHONPATH=str(ROOT / "src"),
        PYTHONHASHSEED="0",
        OMP_NUM_THREADS="1",
        OPENBLAS_NUM_THREADS="1",
        MKL_NUM_THREADS="1",
    )
    timeout = deadline - monotonic()
    if timeout <= 0:
        raise BenchmarkError("out of time before the next repetition")
    try:
        proc = subprocess.run(
            [sys.executable, str(HERE / "worker.py")],
            input=json.dumps(job),
            capture_output=True,
            text=True,
            env=env,
            cwd=ROOT,
            timeout=timeout,
        )
    except subprocess.TimeoutExpired as exc:
        raise BenchmarkError(f"worker exceeded the {DEADLINE_S} s deadline") from exc
    if proc.returncode != 0:
        raise BenchmarkError(f"worker exited with {proc.returncode}:\n{proc.stderr.strip()}")
    return json.loads(proc.stdout)


def tail(latencies: list[float]) -> tuple[float, float]:
    """(latency, percentile) of the highest percentile with TAIL_BEYOND ops beyond it."""
    ordered = sorted(latencies)
    n = len(ordered)
    idx = max(n - TAIL_BEYOND - 1, 0)
    return ordered[idx], 100.0 * (idx + 1) / n


def measure(workload: str, seed: int, seconds: float, trace: bool, scale: str = "full") -> tuple[dict, list[str]]:
    """Run one benchmark run; returns (result object, human-readable lines)."""
    start = monotonic()
    deadline = start + DEADLINE_S
    job = {
        "workload": workload,
        "inputs": workloads.make_inputs(workload, seed, scale),
        "trace": False,
        "check": True,
    }
    traced = run_worker(dict(job, trace=True), deadline) if trace else None
    reps: list[dict] = []
    cycle = 0.0  # the last repetition's duration; no repetition starts that would end past `seconds`
    while len(reps) < MIN_REPS or monotonic() - start + cycle <= seconds:
        t0 = monotonic()
        reps.append(run_worker(dict(job, check=not reps), deadline))
        cycle = monotonic() - t0
    result, lines = summarize(workload, reps, traced)
    lines[0] = f"workload {workload}  seed {seed}  {monotonic() - start:.1f} s  " + lines[0]
    return result, lines


def summarize(workload: str, reps: list[dict], traced: dict | None) -> tuple[dict, list[str]]:
    """The result object and human-readable lines from the workers' outputs."""
    runs = reps + ([traced] if traced else [])
    attempted = sum(len(rep["ops"]) for rep in runs)
    # reps[0] and the traced repetition are fully checked; every repetition's
    # outputs must equal those of reps[0]
    reference = [op["fingerprint"] for op in reps[0]["ops"]]
    errors = []
    for rep in runs:
        for op, want in zip(rep["ops"], reference):
            if op["error"]:
                errors.append(op["error"])
            elif op["fingerprint"] != want:
                errors.append(f"{op['kind']}: output differs from the checked repetition")
    correct = not errors

    n_ops = len(reps[0]["ops"])
    per_op = [min(rep["ops"][i]["latency_s"] for rep in reps) for i in range(n_ops)]
    per_op_norm = [
        min(rep["ops"][i]["latency_s"] * REF_LOOP_S / rep["ref_best_s"] for rep in reps) for i in range(n_ops)
    ]
    completed = sum(1 for op in reps[0]["ops"] if not op["error"])
    tail_s, tail_pct = tail(per_op)
    ref_s = [rep["ref_best_s"] for rep in reps]
    metrics = {
        "setup_s": (statistics.median(rep["setup_s"] for rep in reps), "s"),
        "ops_per_s_norm": (completed / sum(per_op_norm), "1/s"),
        "op_p50_s_norm": (statistics.median(per_op_norm), "s"),
        "op_tail_s_norm": (tail(per_op_norm)[0], "s"),
        "peak_rss_mb": (statistics.median(rep["rss_mb"] for rep in reps), "MB"),
    }

    m = machine()
    lines = [
        f"{len(reps)} repetitions" + (" + 1 traced" if traced else "") + f"  {n_ops} ops each",
        f"machine  nproc={m['nproc']}  cpu={m['cpu']}  python={reps[0]['python']}  numpy={reps[0]['numpy']}",
    ]
    notes = {"op_tail_s_norm": f"  (p{tail_pct:.1f} of n={n_ops} ops)"}
    lines += [f"  {name:<16} {value:.6g} {unit}{notes.get(name, '')}" for name, (value, unit) in metrics.items()]
    lines.append(
        f"  raw (not normalized): ops_per_s {completed / sum(per_op):.6g} 1/s, op_p50_s "
        f"{statistics.median(per_op):.6g} s, op_tail_s {tail_s:.6g} s; reference loop best "
        f"{min(ref_s):.6g} s, median of the repetitions' best {statistics.median(ref_s):.6g} s"
    )
    lines.append(f"  {'fail_share':<16} {len(errors) / attempted:.6g}  ({len(errors)}/{attempted})")
    if workload == "trees":
        for kind in dict.fromkeys(op["kind"] for op in reps[0]["ops"]):
            total = sum(t for t, rep_op in zip(per_op, reps[0]["ops"]) if rep_op["kind"] == kind)
            lines.append(f"  {kind + '_s':<16} {total:.6g} s (raw)")
        probe = ", ".join(f"{k}: {v}" for k, v in reps[0]["probe"].items())
        lines.append(f"  deep-path probe (not an operation): {probe}")
    lines += [f"  failed: {e}" for e in sorted(set(errors))[:10]]

    if traced:
        t = traced["trace"]
        layer = {}
        for name in tracing.SPAN_NAMES:
            layer[f"{name}.calls"] = (t["calls"].get(name, 0), "count")
            layer[f"{name}.self_s"] = (t["self_s"].get(name, 0.0), "s")
        layer["spectral.power.iterations"] = (t["power_iterations"], "count")
        layer["enumeration.classes_per_candidate"] = (t["classes_per_candidate"], "ratio")
        layer["matching.cache_entries"] = (t["cache_entries"], "count")
        # in normalized seconds, so that a fast or slow spell during the one
        # traced repetition does not read as overhead
        layer["trace_overhead_s_norm"] = (
            REF_LOOP_S
            * (
                traced["wall_s"] / traced["ref_best_s"]
                - statistics.median(rep["wall_s"] / rep["ref_best_s"] for rep in reps)
            ),
            "s",
        )
        failed_probe = sum(1 for v in traced["probe"].values() if v != "ok")
        layer["deep_path.failed_calls"] = (failed_probe, "count")
        for key, label in (("self_s", "self"), ("total_s", "inclusive")):
            top = sorted(t[key].items(), key=lambda kv: -kv[1])[:6]
            lines.append(
                f"  largest {label} time (share of traced wall): "
                + ", ".join(f"{name} {100 * v / traced['wall_s']:.0f}%" for name, v in top)
            )
        if t["missing"]:
            lines.append(f"  not in the package, reported as 0: {', '.join(t['missing'])}")
        metrics = layer

    result = {
        "correct": correct,
        "attempted": attempted,
        "failed": len(errors),
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }
    return result, lines


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=workloads.WORKLOADS + ("all",))
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=55)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    names = workloads.WORKLOADS if args.workload == "all" else (args.workload,)
    for name in names:
        try:
            result, lines = measure(name, args.seed, args.seconds, bool(args.trace))
        except BenchmarkError as exc:
            print(f"benchmark failed: {exc}", file=sys.stderr)
            return 1
        print("\n".join(lines))
        print(json.dumps(result), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
