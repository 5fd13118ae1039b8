"""Command-line front end.

Exit codes: 0 pass, 1 verification failure, 2 usage or parameter error.
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import sys

from . import __version__
from .constructions import (
    InfeasibleParameters,
    build_A,
    extremal_params,
    perfect_matching_bound,
    rho_bound,
)
from .enumeration import _classes, enumerate_T_mkr
from .harness import SuiteConfig, default_config, run_suite, verify_extremal
from .hypergraph import load, save, to_json_dict, validate
from .matching import _counts, matching_polynomial
from .spectral import DEFAULT_TOL, PowerIterationError, spectral_radius_polyroot, spectral_radius_power
from .transforms import compare_order, majorization_chain


def _cmd_validate(args) -> int:
    H = load(args.file)
    report = validate(H)
    print(json.dumps(dataclasses.asdict(report)))  # field order is key order
    return 0 if report.is_hypertree else 1


def _cmd_matchpoly(args) -> int:
    H = load(args.file)
    print(matching_polynomial(H).to_json())
    return 0


def _cmd_rho(args) -> int:
    H = load(args.file)
    out: dict = {"method": args.method}
    if args.method in ("power", "both"):
        power = spectral_radius_power(H, tol=args.tol)
        out["power"] = {
            "rho": power.rho,
            "residual": power.residual,
            "iterations": power.iterations,
            "bracket": list(power.certificate),
        }
    if args.method in ("poly", "both"):
        root = spectral_radius_polyroot(H)
        out["polyroot"] = {"rho": root.rho, "iterations": root.iterations}
    primary = out.get("polyroot", out.get("power"))
    out["rho"] = primary["rho"]
    out["residual"] = out.get("power", {}).get("residual")
    out["iterations"] = sum(d["iterations"] for d in out.values() if isinstance(d, dict) and "iterations" in d)
    if args.method == "both":
        gap = abs(out["power"]["rho"] - out["polyroot"]["rho"])
        # rho = 0 only without edges, where both routes give 0
        out["relative_gap"] = gap / out["rho"] if out["rho"] else gap
    print(json.dumps(out))
    return 0


def _cmd_extremal(args) -> int:
    H = build_A(args.m, args.k, args.r)
    if args.emit:
        save(H, args.emit)
    else:
        print(json.dumps(to_json_dict(H)))
    return 0


def _cmd_bound(args) -> int:
    if args.perfect:
        result = perfect_matching_bound(args.m, args.r)
        k = (args.m * (args.r - 1) + 1) // args.r  # exact: the call checked r | m(r-1)+1
        if args.k != k:
            raise InfeasibleParameters(
                f"--perfect needs k r = m(r-1)+1: k={k} for m={args.m}, r={args.r}, not k={args.k}"
            )
    else:
        result = rho_bound(args.m, args.k, args.r)
    params = extremal_params(args.m, args.k, args.r)
    print(
        json.dumps(
            {
                "q": params.q,
                "s": params.s,
                "l": params.l,
                "alpha0": result.alpha0,
                "rho": result.rho,
            }
        )
    )
    return 0


def _cmd_enumerate(args) -> int:
    if args.at_least and args.matching is None:
        raise ValueError("--at-least needs --matching K")
    if args.matching is not None and not args.m >= args.matching >= 1:
        raise ValueError("need m >= k >= 1")
    if args.matching is None:
        rows = ((code, H, len(_counts(H)) - 1, {}) for code, (H, _) in _classes(args.m, args.r).items())
    else:
        records = enumerate_T_mkr(args.m, args.matching, args.r, at_least=args.at_least)
        rows = ((rec.code, rec.hypergraph, rec.nu, {"rho": rec.rho}) for rec in records)
    for code, H, nu, extra in rows:
        row = {"code": code.decode("ascii"), "n": H.n, "edges": [list(e) for e in H.edges], "nu": nu}
        print(json.dumps(row | extra))
    return 0


def _cmd_verify(args) -> int:
    report = verify_extremal(args.m, args.k, args.r, at_least=args.at_least)
    print(json.dumps(report.to_json_dict()))
    return 0 if report.passed else 1


def _cmd_suite(args) -> int:
    config = SuiteConfig.load(args.config) if args.config else default_config()
    result = run_suite(config)
    if not config.csv_path:
        sys.stdout.write(result.csv_text)
    return result.exit_code


def _cmd_compare(args) -> int:
    A = load(args.first)
    B = load(args.second)
    relation = compare_order(A, B)
    print(json.dumps({"relation": relation.tag, "certificate": relation.witness}))
    return 0


def _parse_vector(text: str) -> tuple[int, ...]:
    return tuple(int(x) for x in text.replace(",", " ").split())


def _cmd_chain(args) -> int:
    chain = majorization_chain(_parse_vector(args.frm), _parse_vector(args.to))
    print(json.dumps([list(v.entries) for v in chain]))
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="htspec",
        description="Matching polynomials, spectral radii, and extremal hypertrees",
    )
    parser.add_argument("--version", action="version", version=__version__)
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("validate", help="check a hypergraph JSON file")
    p.add_argument("file")
    p.set_defaults(fn=_cmd_validate)

    p = sub.add_parser("matchpoly", help="matching polynomial of a hypergraph file")
    p.add_argument("file")
    p.set_defaults(fn=_cmd_matchpoly)

    p = sub.add_parser("rho", help="spectral radius of a hypergraph file")
    p.add_argument("file")
    p.add_argument("--method", choices=["power", "poly", "both"], default="both")
    p.add_argument("--tol", type=float, default=DEFAULT_TOL)
    p.set_defaults(fn=_cmd_rho)

    p = sub.add_parser("extremal", help="emit the extremal hypertree A(m, k, r)")
    p.add_argument("m", type=int)
    p.add_argument("k", type=int)
    p.add_argument("r", type=int)
    p.add_argument("--emit", metavar="FILE")
    p.set_defaults(fn=_cmd_extremal)

    p = sub.add_parser("bound", help="closed-form spectral-radius bound")
    p.add_argument("m", type=int)
    p.add_argument("k", type=int)
    p.add_argument("r", type=int)
    p.add_argument("--perfect", action="store_true")
    p.set_defaults(fn=_cmd_bound)

    p = sub.add_parser("enumerate", help="hypertree classes with m edges")
    p.add_argument("m", type=int)
    p.add_argument("r", type=int)
    p.add_argument("--matching", type=int, metavar="K")
    p.add_argument("--at-least", action="store_true")
    p.set_defaults(fn=_cmd_enumerate)

    p = sub.add_parser("verify", help="exhaustive extremality check for (m, k, r)")
    p.add_argument("m", type=int)
    p.add_argument("k", type=int)
    p.add_argument("r", type=int)
    p.add_argument("--at-least", action="store_true")
    p.set_defaults(fn=_cmd_verify)

    p = sub.add_parser("suite", help="run the verification suite")
    p.add_argument("--config", metavar="FILE")
    p.set_defaults(fn=_cmd_suite)

    p = sub.add_parser("compare", help="matching-polynomial order of two files")
    p.add_argument("first")
    p.add_argument("second")
    p.set_defaults(fn=_cmd_compare)

    p = sub.add_parser("chain", help="majorization chain between two vectors")
    p.add_argument("--from", dest="frm", required=True, metavar="V")
    p.add_argument("--to", dest="to", required=True, metavar="V")
    p.set_defaults(fn=_cmd_chain)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.fn(args)
    except (InfeasibleParameters, ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except (RecursionError, MemoryError, PowerIterationError) as exc:
        # resource limits are not verdicts: exit 1 stays "verification failed"
        print(f"error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
