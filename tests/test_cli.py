"""Command-line interface: every subcommand plus exit codes."""

import json
import math
import os
import subprocess
import sys

import pytest

from hypertree_spectra import Hypergraph, PowerIterationError, build_Ra, hyperstar, save
from hypertree_spectra import cli
from hypertree_spectra.cli import main

from conftest import path_graph


@pytest.fixture
def tree_file(tmp_path):
    path = tmp_path / "tree.json"
    save(path_graph(4), str(path))
    return str(path)


def run(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr().out
    return code, out


def test_validate(capsys, tree_file):
    code, out = run(capsys, "validate", tree_file)
    assert code == 0
    assert json.loads(out)["is_hypertree"] is True


def test_validate_failure_exit(capsys, tmp_path):
    bad = tmp_path / "bad.json"
    save(Hypergraph(3, 6, [(0, 1, 2), (3, 4, 5)]), str(bad))
    code, out = run(capsys, "validate", str(bad))
    assert code == 1
    assert json.loads(out)["connected"] is False


def test_matchpoly(capsys, tree_file):
    code, out = run(capsys, "matchpoly", tree_file)
    assert code == 0
    assert json.loads(out)["coeffs"] == {"4": "1", "2": "-3", "0": "1"}


def test_matchpoly_deep_path(capsys, tmp_path):
    """A 600-edge path: m(P_n, k) = C(n - k, k) at exponent n - 2k."""
    n = 601
    path = tmp_path / "path.json"
    save(path_graph(n), str(path))
    code, out = run(capsys, "matchpoly", str(path))
    assert code == 0
    coeffs = json.loads(out)["coeffs"]
    assert coeffs == {str(n - 2 * k): str((-1) ** k * math.comb(n - k, k)) for k in range(n // 2 + 1)}


def test_rho_both(capsys, tree_file):
    code, out = run(capsys, "rho", tree_file, "--method", "both")
    assert code == 0
    data = json.loads(out)
    assert abs(data["rho"] - 1.6180339887498949) < 1e-9
    assert data["relative_gap"] < 1e-6
    assert data["residual"] <= 1e-10


def test_rho_both_without_edges(capsys, tmp_path):
    """Both routes give rho = 0 on vertices without edges: a zero gap, not a crash."""
    path = tmp_path / "edgeless.json"
    path.write_text(json.dumps({"r": 2, "n": 3, "edges": []}))
    code, out = run(capsys, "rho", str(path), "--method", "both")
    assert code == 0
    data = json.loads(out)
    assert data["rho"] == data["power"]["rho"] == data["polyroot"]["rho"] == 0.0
    assert data["relative_gap"] == 0.0


def test_rho_single_methods(capsys, tree_file):
    code, out = run(capsys, "rho", tree_file, "--method", "power", "--tol", "1e-8")
    assert code == 0
    assert "polyroot" not in json.loads(out)
    code, out = run(capsys, "rho", tree_file, "--method", "poly")
    assert code == 0
    assert "power" not in json.loads(out)


def test_rho_power_bracket(capsys, tree_file):
    """The power block carries the certificate: a bracket holding rho."""
    for method in ("power", "both"):
        code, out = run(capsys, "rho", tree_file, "--method", method, "--tol", "1e-8")
        assert code == 0
        lo, hi = json.loads(out)["power"]["bracket"]
        assert lo <= (1 + 5**0.5) / 2 <= hi and hi - lo <= 1e-8


def test_rho_poly_on_a_bound_above_the_largest_double(capsys, tmp_path):
    """650 disjoint copies of R_1 at r = 3 have p(z) = (z - 2)^650, whose
    coefficients and Cauchy bound exceed 2^1024: the exact route still ends
    on rho = 2^(1/3)."""
    R = build_Ra(1, 3)
    path = tmp_path / "forest.json"
    edges = [[v + i * R.n for v in e] for i in range(650) for e in R.edges]
    path.write_text(json.dumps({"r": 3, "n": 650 * R.n, "edges": edges}))
    code, out = run(capsys, "rho", str(path), "--method", "poly")
    assert code == 0
    assert json.loads(out)["polyroot"]["rho"] == 1.2599210498948732


def test_rho_nan_tol_exit(capsys, tree_file):
    """A NaN tolerance is a usage error, not a run of max_iter steps."""
    assert main(["rho", tree_file, "--method", "power", "--tol", "nan"]) == 2
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1 and err[0].startswith("error:") and "tol" in err[0]


def test_extremal_emit(capsys, tmp_path):
    target = tmp_path / "a.json"
    code, _ = run(capsys, "extremal", "3", "2", "3", "--emit", str(target))
    assert code == 0
    data = json.loads(target.read_text())
    assert data["r"] == 3 and data["n"] == 7 and len(data["edges"]) == 3
    # the file holds the bytes the command prints without --emit
    assert target.read_bytes() == run(capsys, "extremal", "3", "2", "3")[1].encode()


def test_extremal_stdout(capsys):
    code, out = run(capsys, "extremal", "4", "1", "2")
    assert code == 0
    assert json.loads(out)["n"] == 5


def test_bound(capsys):
    code, out = run(capsys, "bound", "3", "2", "2")
    assert code == 0
    data = json.loads(out)
    assert data["q"] == 1 and data["s"] == 0 and data["l"] == 0
    assert abs(data["rho"] - 1.6180339887498949) < 1e-9


def test_bound_perfect(capsys):
    code, out = run(capsys, "bound", "4", "3", "3", "--perfect")
    assert code == 0
    assert abs(json.loads(out)["rho"] - 1.4655712318767682) < 1e-9


def test_python_dash_m(capsys):
    """`python -m hypertree_spectra` runs the same `main` as the console
    script, in a fresh interpreter, and exits with its code."""
    src = os.path.dirname(os.path.dirname(os.path.abspath(cli.__file__)))
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))

    def python_m(*argv):
        argv = [sys.executable, "-m", "hypertree_spectra", *argv]
        return subprocess.run(argv, capture_output=True, text=True, env=env, timeout=120)

    done = python_m("--version")
    assert (done.returncode, done.stdout) == (0, "0.1.0\n")
    done = python_m("bound", "4", "3", "3", "--perfect")
    assert (done.returncode, done.stdout) == run(capsys, "bound", "4", "3", "3", "--perfect")


def test_bound_perfect_checks_k(capsys):
    """--perfect bounds the k with k r = m(r-1)+1 only: another k is a
    parameter error that names the right one."""
    assert main(["bound", "4", "1", "3", "--perfect"]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "k=3 for m=4, r=3, not k=1" in captured.err
    code, out = run(capsys, "bound", "4", "3", "3", "--perfect")
    assert code == 0
    assert out == '{"q": 1, "s": 0, "l": 0, "alpha0": 0.6823278038280193, "rho": 1.465571231876768}\n'


def test_bound_infeasible_exit(capsys):
    assert main(["bound", "5", "4", "3"]) == 2


def test_enumerate(capsys):
    code, out = run(capsys, "enumerate", "3", "3")
    assert code == 0
    lines = [json.loads(line) for line in out.strip().splitlines()]
    assert len(lines) == 2
    code, out = run(capsys, "enumerate", "3", "3", "--matching", "2")
    lines = [json.loads(line) for line in out.strip().splitlines()]
    assert len(lines) == 1 and lines[0]["nu"] == 2


def test_enumerate_at_least_needs_matching(capsys):
    """--at-least reads only with --matching K: alone it is a usage error,
    not a flag ignored in silence."""
    assert main(["enumerate", "5", "3", "--at-least"]) == 2
    out, err = capsys.readouterr()
    assert out == "" and err.splitlines() == ["error: --at-least needs --matching K"]


@pytest.mark.parametrize("k, at_least", [("9", []), ("0", []), ("-1", ["--at-least"])])
def test_enumerate_checks_matching_number(capsys, k, at_least):
    """K outside 1..M is the usage error `htspec verify` gives, not an empty
    listing or, with --at-least, every class."""
    assert main(["enumerate", "4", "3", "--matching", k, *at_least]) == 2
    out, err = capsys.readouterr()
    assert out == "" and err.splitlines() == ["error: need m >= k >= 1"]


def test_verify(capsys):
    code, out = run(capsys, "verify", "3", "2", "3")
    assert code == 0
    assert json.loads(out)["passed"] is True


def test_suite_with_config(capsys, tmp_path):
    config = tmp_path / "config.json"
    csv_path = tmp_path / "out.csv"
    config.write_text(json.dumps({"ranges": [{"r": 3, "m_max": 3}], "csv_path": str(csv_path)}))
    code, _ = run(capsys, "suite", "--config", str(config))
    assert code == 0
    assert csv_path.read_text().startswith("m,k,r,")


def test_suite_stdout(capsys, tmp_path):
    config = tmp_path / "config.json"
    config.write_text(json.dumps({"triples": [[3, 2, 3]]}))
    code, out = run(capsys, "suite", "--config", str(config))
    assert code == 0
    assert out.startswith("m,k,r,")


def test_compare(capsys, tmp_path, tree_file):
    other = tmp_path / "star.json"
    save(hyperstar(3, 2), str(other))
    code, out = run(capsys, "compare", tree_file, str(other))
    assert code == 0
    data = json.loads(out)
    assert data["relation"] == "precedes_strict"
    assert "certificate" in data


def test_chain(capsys):
    code, out = run(capsys, "chain", "--from", "2,2,2", "--to", "3,2,1")
    assert code == 0
    assert json.loads(out) == [[3, 2, 1], [2, 2, 2]]


@pytest.mark.parametrize(
    "argv, data, field",
    [
        (["validate"], {"r": 2, "n": 3}, "'edges'"),
        (["validate"], [[0, 1], [1, 2]], "JSON object"),
        (["rho"], {"r": 2, "n": 3, "edges": [1, 2]}, "'edges'"),
        (["matchpoly"], {"r": 2, "edges": [[0, 1]]}, "'n'"),
        (["compare", "FILE"], {"r": "two", "n": 3, "edges": [[0, 1]]}, "'r'"),
        (["validate"], {"r": 2, "n": 3, "edges": [[0, 1.7], [1, 2]]}, "'edges'"),
        (["suite", "--config"], {"ranges": [{"r": 3}]}, "'m_max'"),
        (["suite", "--config"], {"triples": [[3, 2]]}, "'triples'"),
        (["suite", "--config"], {"triples": [["3", "2", "3"]]}, "'triples'"),
        (["suite", "--config"], [[3, 2, 3]], "JSON object"),
        (["suite", "--config"], {"triples": [[3, 2, 3]], "bound_tol": None}, "'bound_tol'"),
        (["suite", "--config"], {"triples": [[3, 2, 3]], "at_least": "no"}, "'at_least'"),
        (["suite", "--config"], {"triples": [[3, 2, 3]], "gap_tol": 1e-9}, "'gap_tol'"),
        (["suite", "--config"], {"ranges": [{"r": 2, "m_max": 3, "typo": 1}]}, "'typo'"),
    ],
)
def test_malformed_file_exit_code(capsys, tmp_path, argv, data, field):
    """A file of the wrong shape is a usage error (exit 2, one error line),
    not a failed verification with a traceback."""
    path = tmp_path / "bad.json"
    path.write_text(json.dumps(data))
    argv = [str(path) if a == "FILE" else a for a in argv] + [str(path)]
    assert main(argv) == 2
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1 and err[0].startswith("error:") and field in err[0]


def test_suite_range_above_guard_exit_code(capsys, tmp_path):
    """A range past the enumeration guard is a usage error before any triple
    runs, as `verify` past the guard is, not a sweep cut short in silence."""
    path = tmp_path / "config.json"
    path.write_text(json.dumps({"ranges": [{"r": 5, "m_max": 7}]}))
    assert main(["suite", "--config", str(path)]) == 2
    out, err = capsys.readouterr()
    assert out == ""
    assert err.splitlines() == ["error: range m_max=7 exceeds the enumeration guard m <= 5 for r=5"]


def test_suite_triple_above_guard_exit_code(capsys, tmp_path):
    """An explicit triple past the guard is the same usage error, raised
    before the triples sorted ahead of it run, and no report is written."""
    csv_path, path = tmp_path / "report.csv", tmp_path / "config.json"
    path.write_text(json.dumps({"triples": [[3, 2, 3], [12, 2, 3]], "csv_path": str(csv_path)}))
    assert main(["suite", "--config", str(path)]) == 2
    out, err = capsys.readouterr()
    assert out == "" and not csv_path.exists()
    assert err.splitlines() == ["error: m=12 exceeds the enumeration guard for r=3"]


def test_usage_error_exit_code():
    assert main(["chain", "--from", "3,2,1", "--to", "2,2,2"]) == 2


@pytest.mark.parametrize(
    "callee, argv, exc",
    [
        ("matching_polynomial", ["matchpoly"], RecursionError("maximum recursion depth exceeded")),
        ("matching_polynomial", ["matchpoly"], MemoryError()),
        (
            "spectral_radius_power",
            ["rho", "--method", "power"],
            PowerIterationError("bracket did not close", (1.0, 2.0), 7),
        ),
    ],
)
def test_resource_failure_exit_code(capsys, monkeypatch, tree_file, callee, argv, exc):
    """Running out of stack, memory, or iterations is exit 2, never the
    verification-failure code 1, and prints one error line."""

    def fail(*args, **kwargs):
        raise exc

    monkeypatch.setattr(cli, callee, fail)
    assert main(argv[:1] + [tree_file] + argv[1:]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    lines = captured.err.splitlines()
    assert len(lines) == 1 and lines[0].startswith("error: ")
