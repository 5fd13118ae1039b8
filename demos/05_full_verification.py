"""The full desk-scale verification sweep, with CSV/JSON reports.

Enumerates every isomorphism class of r-uniform hypertrees in the
default range (r=2 up to 8 edges, r=3 up to 6, r=4 up to 5), filters by
matching number, and confirms for every feasible (m, k, r) that the
maximum-spectral-radius class is unique, equals the loaded star
A(m, k, r), and matches the closed-form bound, decided exactly on
rational brackets with no float tolerance.  Reports land in demos/out/.
"""

import pathlib

from hypertree_spectra import default_config, run_suite

out_dir = pathlib.Path(__file__).parent / "out"
out_dir.mkdir(exist_ok=True)

config = default_config()
config.csv_path = str(out_dir / "verification.csv")
config.json_path = str(out_dir / "verification.json")

result = run_suite(config)

feasible = [row for row in result.rows if row["feasible"]]
infeasible = [row for row in result.rows if not row["feasible"]]
print(f"cases: {len(result.rows)} total, {len(feasible)} feasible, {len(infeasible)} infeasible")
print(f"all passed: {result.exit_code == 0}")
print(f"reports: {config.csv_path}, {config.json_path}")
print()
print("sample rows:")
for row in feasible[:5] + feasible[-3:]:
    print(
        f"  (m,k,r)=({row['m']},{row['k']},{row['r']}): {row['classes']} classes,"
        f" winner rho {row['winner_rho']}, bound {row['bound_rho']}"
    )

raise SystemExit(result.exit_code)
