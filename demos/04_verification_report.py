"""Running the verification registry and reading its reports.

Each check C01..C14 re-derives one family of exact identities and returns
structured witnesses.  This script runs the fast checks and prints a
markdown report; the full registry (including the sampled genericity
sweeps C07-C09, about 0.45-0.7 s as a whole process on 2 cores) is one CLI
call:

    biforms verify --seed 0 --format md

Run:  python demos/04_verification_report.py
"""

from biforms.checks import REGISTRY, Report, VERSION, emit, run_check

FAST = ["C01", "C02", "C03", "C04", "C05", "C06", "C10", "C11", "C12", "C13", "C14"]

report = Report(VERSION, seed=0)
for check_id in FAST:
    result = run_check(check_id, seed=0)
    report.checks.append(result)
    print(f"{check_id}  {result.status:4s}  {result.runtime_ms:5d} ms   "
          f"{REGISTRY[check_id][0]}")

print()
summary = report.summary
print(f"summary: {summary['pass']} pass, {summary['fail']} fail,"
      f" {summary['degenerate']} degenerate")

print("\nwitnesses of the bidegree-(1,8) pairing suite:")
c12 = next(c for c in report.checks if c.check_id == "C12")
print(emit(Report(VERSION, 0, [c12]), "markdown", include_timing=False))
