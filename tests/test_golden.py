"""Golden bytes: exact CLI stdout and suite reports, key order included.

The expected strings were captured before the kernels behind them were
merged; any byte that moves here is a visible change of output.  The
power route is left out because its last digits follow numpy's float
summation order.
"""

import hashlib
import json
import random

from hypertree_spectra import (
    Hypergraph,
    compare_order,
    disjoint_union,
    enumerate_hypertrees,
    random_hyperforest,
    random_hypertree,
    save,
    spectral_radius_polyroot,
)
from hypertree_spectra.cli import main
from hypertree_spectra.harness import SuiteConfig, default_config, run_suite

VERIFY_633 = (
    '{"m": 6, "k": 3, "r": 3, "classes": 11, "winner_code": '
    '"r3:e(v(e(v()v()))v(e(v()v()))v(e(v()v())e(v()v())e(v()v())))", '
    '"winner_rho": 1.6663948769571526, "bound_rho": 1.6663948769571526, '
    '"unique": true, "matches_bound": true, "winner_is_construction": true, '
    '"interpretation": "exact-nu", "passed": true}\n'
)

# iterations: the exact sign tests that take rho^r from the float guess
# to one double
RHO_P4_POLY = (
    '{"method": "poly", "polyroot": {"rho": 1.618033988749895, "iterations": 5}, '
    '"rho": 1.618033988749895, "residual": null, "iterations": 5}\n'
)

BOUND_733 = '{"q": 1, "s": 0, "l": 3, "alpha0": 0.8179995807336579, "rho": 1.7645848132290711}\n'

BOUND_514 = '{"q": 0, "s": 0, "l": 4, "alpha0": 0.8, "rho": 1.4953487812212205}\n'

BOUND_433_PERFECT = (
    '{"q": 1, "s": 0, "l": 0, "alpha0": 0.6823278038280193, "rho": 1.465571231876768}\n'
)

# sha256 of the default suite's reports (72 rows)
DEFAULT_SUITE_CSV_SHA256 = "10c03ec6cc9de33722f49ebba6842de8874524b9e865968703756a7867ef8632"
DEFAULT_SUITE_JSON_SHA256 = "5f67c7bd24697d84b065fdb141aa06783e629624a9a4c0af83c89a250d4187ec"

# sha256 of polyroot's repr(rho) and iterations over every class up to
# r=2 m=8, r=3 m=6, r=4 m=5; rho^r is the double nearest the exact root
POLYROOT_SHA256 = "4f7070f9a583fc51353ba123d08099a727a8ca8f652b5df0248b96c3b6d9796f"

# sha256 of compare_order's tags and witness JSON, both directions, on a
# seeded set of random hypertree and doubled-forest pairs
ORDER_SHA256 = "2d217ce26b9c9e0afc9e0fc81a1b765de74792fb16821067b399ec101e3f329c"

# sha256 of the stdout of `htspec enumerate 7 2` (23 lines) and
# `htspec enumerate 5 3` (8 lines)
ENUMERATE_72_SHA256 = "ee6210e78ab58fda726df242b7bcbf6d34f7213dfce727b247dc48e56e78f4e4"
ENUMERATE_53_SHA256 = "695665d6022c8b700fe9d3c4f1d0103ee1dcce6bb32b4bcb03de31187caa0165"

SUITE_CSV = (
    "m,k,r,q,s,l,classes,winner_code,winner_rho,bound_rho,unique,matches_bound\n"
    "5,3,2,2,0,0,2,r2:v(e(v())e(v(e(v())))e(v(e(v())))),1.931851652578,1.931851652578,True,True\n"
    "3,2,3,0,1,1,1,r3:e(v()v(e(v()v()))v(e(v()v()))),1.378240772489,1.378240772489,True,True\n"
)

SUITE_JSON = """{
  "all_passed": true,
  "rows": [
    {
      "bound_rho": "1.931851652578",
      "classes": 2,
      "feasible": true,
      "interpretation": "exact-nu",
      "k": 3,
      "l": 0,
      "m": 5,
      "matches_bound": true,
      "passed": true,
      "q": 2,
      "r": 2,
      "s": 0,
      "unique": true,
      "winner_code": "r2:v(e(v())e(v(e(v())))e(v(e(v()))))",
      "winner_is_construction": true,
      "winner_rho": "1.931851652578"
    },
    {
      "bound_rho": "1.378240772489",
      "classes": 1,
      "feasible": true,
      "interpretation": "exact-nu",
      "k": 2,
      "l": 1,
      "m": 3,
      "matches_bound": true,
      "passed": true,
      "q": 0,
      "r": 3,
      "s": 1,
      "unique": true,
      "winner_code": "r3:e(v()v(e(v()v()))v(e(v()v())))",
      "winner_is_construction": true,
      "winner_rho": "1.378240772489"
    }
  ]
}"""


def test_verify_stdout(capsys):
    assert main(["verify", "6", "3", "3"]) == 0
    assert capsys.readouterr().out == VERIFY_633


def test_rho_poly_stdout(capsys, tmp_path):
    path = tmp_path / "p4.json"
    save(Hypergraph(2, 4, ((0, 1), (1, 2), (2, 3))), str(path))
    assert main(["rho", str(path), "--method", "poly"]) == 0
    assert capsys.readouterr().out == RHO_P4_POLY


def test_enumerate_stdout(capsys):
    for argv, digest in ((["7", "2"], ENUMERATE_72_SHA256), (["5", "3"], ENUMERATE_53_SHA256)):
        assert main(["enumerate", *argv]) == 0
        assert hashlib.sha256(capsys.readouterr().out.encode()).hexdigest() == digest


def test_bound_stdout(capsys):
    assert main(["bound", "7", "3", "3"]) == 0
    assert capsys.readouterr().out == BOUND_733
    assert main(["bound", "5", "1", "4"]) == 0
    assert capsys.readouterr().out == BOUND_514
    assert main(["bound", "4", "3", "3", "--perfect"]) == 0
    assert capsys.readouterr().out == BOUND_433_PERFECT


def test_suite_reports():
    result = run_suite(SuiteConfig(triples=[(3, 2, 3), (5, 3, 2)]))
    assert result.exit_code == 0
    assert result.csv_text == SUITE_CSV
    assert result.json_text == SUITE_JSON


def test_default_suite_digests():
    result = run_suite(default_config())
    assert len(result.csv_text.splitlines()) == 73
    assert hashlib.sha256(result.csv_text.encode()).hexdigest() == DEFAULT_SUITE_CSV_SHA256
    assert hashlib.sha256(result.json_text.encode()).hexdigest() == DEFAULT_SUITE_JSON_SHA256


def _sha256(lines) -> str:
    return hashlib.sha256("".join(lines).encode()).hexdigest()


def test_polyroot_digest():
    lines = []
    for r, m_max in ((2, 8), (3, 6), (4, 5)):
        for m in range(1, m_max + 1):
            for H in enumerate_hypertrees(m, r):
                res = spectral_radius_polyroot(H)
                lines.append(f"{r} {m} {res.rho!r} {res.iterations}\n")
    assert len(lines) == 146
    assert _sha256(lines) == POLYROOT_SHA256


def test_order_digest():
    rng = random.Random(2024)
    lines = []
    for _ in range(50):
        r, m = rng.choice((2, 3, 4)), rng.randint(2, 9)
        pairs = [(random_hypertree(m, r, rng), random_hypertree(m, r, rng))]
        t = random_hypertree(m, r, rng)
        pairs.append((disjoint_union(t, t), random_hyperforest([m - 1, m + 1], r, rng)))
        for a, b in pairs:
            for x, y in ((a, b), (b, a)):
                rel = compare_order(x, y)
                lines.append(json.dumps([rel.tag, rel.witness], sort_keys=True) + "\n")
    assert len(lines) == 200
    assert _sha256(lines) == ORDER_SHA256
