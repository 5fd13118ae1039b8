"""End-to-end verification: exhaustive extremality checks and the suite.

For a feasible (m, k, r) the verifier enumerates every hypertree class
with m edges and matching number k (or >= k under the alternate
interpretation), finds the class of maximum spectral radius, and checks
that it is unique, isomorphic to the loaded star A(m, k, r), and matches
the closed-form bound.  These verdicts are exact, decided on the rational
brackets of rho^r and alpha0 that the top-root kernel hands out, with no
float tolerance.  Failures are reported, not raised; infeasible parameter
triples raise InfeasibleParameters so batch drivers can mark the row and
move on.
"""

from __future__ import annotations

import csv
import io
import json
from dataclasses import dataclass, field, fields
from functools import cmp_to_key
from typing import Optional

from .constructions import build_A, extremal_params, rho_bound
from .enumeration import EnumerationRecord, enumerate_T_mkr, max_edges_guard
from .hypergraph import canonical_code
from .polynomials import _compare

CSV_COLUMNS = [
    "m",
    "k",
    "r",
    "q",
    "s",
    "l",
    "classes",
    "winner_code",
    "winner_rho",
    "bound_rho",
    "unique",
    "matches_bound",
]


@dataclass
class VerificationReport:
    m: int
    k: int
    r: int
    class_count: int
    winner_code: bytes
    winner_rho: float
    bound_rho: float
    unique: bool
    matches_bound: bool
    winner_is_construction: bool
    interpretation: str  # "exact-nu" | "at-least-nu"

    @property
    def passed(self) -> bool:
        return self.unique and self.matches_bound and self.winner_is_construction

    def to_json_dict(self) -> dict:
        """JSON-ready fields in report order, plus the overall verdict."""
        return {
            "m": self.m,
            "k": self.k,
            "r": self.r,
            "classes": self.class_count,
            "winner_code": self.winner_code.decode("ascii"),
            "winner_rho": self.winner_rho,
            "bound_rho": self.bound_rho,
            "unique": self.unique,
            "matches_bound": self.matches_bound,
            "winner_is_construction": self.winner_is_construction,
            "interpretation": self.interpretation,
            "passed": self.passed,
        }


def verify_extremal(m: int, k: int, r: int, at_least: bool = False) -> VerificationReport:
    """Exhaustively check that A(m, k, r) is the unique rho maximizer.

    `rho_bound` runs first and raises InfeasibleParameters.  The verdicts are
    exact: the winner, `unique` and `matches_bound` read
    `polynomials._compare` of the certified top roots rho^r of the classes
    and of the bound.
    """
    bound = rho_bound(m, k, r)
    records = list(enumerate_T_mkr(m, k, r, at_least=at_least))
    if not records:
        raise RuntimeError(f"feasible parameters produced no classes: {(m, k, r)}")
    tops = [(rec.z_poly, rec.certificate) for rec in records]
    w = max(range(len(tops)), key=lambda j: cmp_to_key(_compare)(tops[j]))  # the first of equals: the lowest code
    return VerificationReport(
        m=m,
        k=k,
        r=r,
        class_count=len(records),
        winner_code=records[w].code,
        winner_rho=records[w].rho,
        bound_rho=bound.rho,
        unique=all(_compare(top, tops[w]) < 0 for j, top in enumerate(tops) if j != w),
        matches_bound=_compare(tops[w], bound.top) == 0,
        winner_is_construction=records[w].code == canonical_code(build_A(m, k, r)),
        interpretation="at-least-nu" if at_least else "exact-nu",
    )


def verify_perfect_matching(r: int, k: int) -> VerificationReport:
    """Extremality among hypertrees with a perfect matching.

    m is forced to (kr - 1)/(r - 1); non-integral m is an error.  The
    report is `verify_extremal(m, k, r)`, whose `rho_bound` at s = l = 0
    is `perfect_matching_bound(m, r)`.
    """
    if r < 2:
        raise ValueError("edge size must be at least 2")
    if (k * r - 1) % (r - 1):
        raise ValueError(f"(kr-1)/(r-1) is not an integer for r={r}, k={k}")
    return verify_extremal((k * r - 1) // (r - 1), k, r)


# ---------------------------------------------------------------------------
# suite driver
# ---------------------------------------------------------------------------


@dataclass
class SuiteConfig:
    """Batch configuration: explicit triples and/or per-r ranges."""

    triples: list[tuple[int, int, int]] = field(default_factory=list)
    ranges: list[tuple[int, int]] = field(default_factory=list)  # (r, m_max)
    at_least: bool = False
    csv_path: Optional[str] = None
    json_path: Optional[str] = None

    @classmethod
    def from_json_dict(cls, data: dict) -> "SuiteConfig":
        """Data of the wrong shape, or an unknown key, raises ValueError naming the field."""
        if not isinstance(data, dict):
            raise ValueError(f"a suite config is a JSON object, not a {type(data).__name__}")
        if unknown := sorted(set(data) - {f.name for f in fields(cls)}):
            raise ValueError(f"unknown suite field {unknown[0]!r}")
        triples, ranges = data.get("triples", []), data.get("ranges", [])
        if not (isinstance(triples, list) and all(isinstance(t, list) and len(t) == 3 for t in triples)):
            raise ValueError("suite field 'triples' must be a list of [m, k, r] lists")
        if not (isinstance(ranges, list) and all(isinstance(d, dict) for d in ranges)):
            raise ValueError("suite field 'ranges' must be a list of objects with 'r' and 'm_max'")
        if unknown := sorted({key for d in ranges for key in d} - {"r", "m_max"}):
            raise ValueError(f"unknown suite field {unknown[0]!r} in 'ranges'")
        ranges = [(d.get("r"), d.get("m_max")) for d in ranges]
        if not all(type(x) is int for t in triples + ranges for x in t):
            raise ValueError("suite fields 'triples' and 'ranges' must hold integers ('r', 'm_max')")
        path = (str, type(None))
        for key, kind in (("at_least", bool), ("csv_path", path), ("json_path", path)):
            if key in data and not isinstance(data[key], kind):
                raise ValueError(f"suite field {key!r} cannot be {data[key]!r}")
        return cls(
            triples=[tuple(t) for t in triples],
            ranges=ranges,
            at_least=bool(data.get("at_least", False)),
            csv_path=data.get("csv_path"),
            json_path=data.get("json_path"),
        )

    @classmethod
    def load(cls, path: str) -> "SuiteConfig":
        with open(path, "r", encoding="utf-8") as fh:
            return cls.from_json_dict(json.load(fh))

    def all_triples(self) -> list[tuple[int, int, int]]:
        """Every triple to run, all checked before any runs: a range above the
        enumeration guard, a triple `extremal_params` rejects and a feasible
        triple above the guard raise ValueError."""
        out = set(tuple(t) for t in self.triples)
        for r, m_max in self.ranges:
            if m_max > (guard := max_edges_guard(r)):
                raise ValueError(f"range m_max={m_max} exceeds the enumeration guard m <= {guard} for r={r}")
            for m in range(1, m_max + 1):
                for k in range(1, m + 1):
                    out.add((m, k, r))
        triples = sorted(out, key=lambda t: (t[2], t[0], t[1]))
        for m, k, r in triples:
            if extremal_params(m, k, r).feasible and m > max_edges_guard(r):
                raise ValueError(f"m={m} exceeds the enumeration guard for r={r}")
        return triples


def default_config() -> SuiteConfig:
    """Desk-scale sweep: r=2 up to m=8, r=3 up to m=6, r=4 up to m=5."""
    return SuiteConfig(ranges=[(2, 8), (3, 6), (4, 5)])


@dataclass
class SuiteResult:
    exit_code: int
    rows: list[dict]
    csv_text: str
    json_text: str


def run_suite(config: SuiteConfig) -> SuiteResult:
    """Run every configured verification; exit code 0 iff all pass.

    Infeasible triples become rows marked infeasible, never failures.
    Reports are fully deterministic (sorted cases, fixed float
    formatting), so identical runs produce byte-identical bytes.
    """
    rows: list[dict] = []
    all_passed = True
    for m, k, r in config.all_triples():
        params = extremal_params(m, k, r)
        base = {"m": m, "k": k, "r": r, "q": params.q, "s": params.s, "l": params.l}
        if not params.feasible:
            rows.append(
                base
                | {
                    "classes": 0,
                    "winner_code": "infeasible",
                    "winner_rho": "",
                    "bound_rho": "",
                    "unique": "",
                    "matches_bound": "",
                    "feasible": False,
                    "passed": True,
                }
            )
            continue
        report = verify_extremal(m, k, r, at_least=config.at_least)
        all_passed = all_passed and report.passed
        rows.append(
            base
            | report.to_json_dict()
            | {
                "winner_rho": f"{report.winner_rho:.12f}",
                "bound_rho": f"{report.bound_rho:.12f}",
                "feasible": True,
            }
        )

    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(CSV_COLUMNS)
    for row in rows:
        writer.writerow([row.get(col, "") for col in CSV_COLUMNS])
    csv_text = buf.getvalue()
    json_text = json.dumps({"rows": rows, "all_passed": all_passed}, indent=2, sort_keys=True)

    if config.csv_path:
        with open(config.csv_path, "w", encoding="utf-8") as fh:
            fh.write(csv_text)
    if config.json_path:
        with open(config.json_path, "w", encoding="utf-8") as fh:
            fh.write(json_text)
            fh.write("\n")
    return SuiteResult(
        exit_code=0 if all_passed else 1,
        rows=rows,
        csv_text=csv_text,
        json_text=json_text,
    )
