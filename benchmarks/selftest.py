"""Self-test of the benchmark at tiny size.

    python3 benchmarks/selftest.py

Checks that every metric named in BENCHMARK.json is emitted, with its
unit, by real runs of each workload (untraced and traced), that a
deliberately wrong output from the program is counted as a failure, and
that so is an output that differs from the fully checked repetition.
Exits 0 when all checks pass.
"""

from __future__ import annotations

import json
import sys
from dataclasses import replace

import run
import worker
import workloads

sys.path.insert(0, str(run.ROOT / "src"))
import hypertree_spectra as hs  # noqa: E402


def expected_units(section: str) -> dict[str, str]:
    spec = json.loads((run.ROOT / "BENCHMARK.json").read_text())
    return {m["name"]: m["unit"] for m in spec[section]}


def check_metric_names() -> None:
    for trace, section in ((False, "end_to_end"), (True, "per_layer")):
        want = expected_units(section)
        for name in workloads.WORKLOADS:
            result, _ = run.measure(name, seed=1, seconds=0, trace=trace, scale="tiny")
            got = {k: v["unit"] for k, v in result["metrics"].items()}
            assert got == want, (name, section, set(got) ^ set(want))
            assert result["correct"] and result["failed"] == 0, (name, result)
            assert all(isinstance(v["value"], (int, float)) for v in result["metrics"].values())
            print(f"ok  {name:<9} {section}: {len(got)} metrics")


def sabotaged(name: str):
    """A wrapper of hs.<name> whose first output is wrong."""
    original = getattr(hs, name)
    state = {"first": True}

    def wrong(*args, **kwargs):
        out = original(*args, **kwargs)
        if not state["first"]:
            return out
        state["first"] = False
        if name == "verify_extremal":
            return replace(out, class_count=out.class_count + 1)
        if name == "compare_order":
            return replace(out, tag=workloads.MIRROR[out.tag])
        if name == "matching_polynomial":
            coeffs = dict(out.coeffs)
            coeffs[out.n - out.r] -= 1  # one more 1-matching than edges
            return hs.MatchPoly(out.n, out.r, coeffs)
        raise ValueError(name)

    return original, wrong


def check_wrong_output_counted() -> None:
    for workload, target in (
        ("sweep", "verify_extremal"),
        ("trees", "compare_order"),
        ("trees", "matching_polynomial"),
    ):
        job = {"workload": workload, "inputs": workloads.make_inputs(workload, 1, "tiny"), "trace": False, "check": True}
        original, wrong = sabotaged(target)
        setattr(hs, target, wrong)
        try:
            rep = worker.run_job(job)
        finally:
            setattr(hs, target, original)
        result, lines = run.summarize(workload, [rep], None)
        assert result["failed"] == 1 and not result["correct"], (workload, result)
        share = [line for line in lines if "fail_share" in line]
        assert share and f"(1/{result['attempted']})" in share[0], share
        print(f"ok  {workload:<9} wrong {target} output counted: {share[0].strip()}")


def check_changed_output_counted() -> None:
    job = {"workload": "trees", "inputs": workloads.make_inputs("trees", 1, "tiny"), "trace": False, "check": True}
    first = worker.run_job(job)
    second = worker.run_job(dict(job, check=False))
    second["ops"][0]["fingerprint"] = "changed"
    result, _ = run.summarize("trees", [first, second], None)
    assert result["failed"] == 1 and not result["correct"], result
    print("ok  trees     output differing from the checked repetition counted")


if __name__ == "__main__":
    check_wrong_output_counted()
    check_changed_output_counted()
    check_metric_names()
    print("selftest passed")
