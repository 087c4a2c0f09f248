"""Write the timing-free registry reports that the `registry` workload compares against.

    python3 perfbench/make_golden.py 0 1 2 ...

Each seed N produces perfbench/data/registry_seed<N>.json, the exact text of
emit(run_all(N), "json", include_timing=False).  Run it only on a commit whose
report is accepted as correct: from then on any byte of difference counts as
a failed operation in the benchmark.
"""

import os
import sys
import time

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
sys.path.insert(0, os.path.join(ROOT, "src"))

from biforms.checks import REGISTRY, Report, VERSION, emit, run_check  # noqa: E402

DATA = os.path.join(ROOT, "perfbench", "data")


def main(seeds):
    for seed in seeds:
        report = Report(VERSION, seed)
        times = {}
        for check_id in REGISTRY:
            start = time.perf_counter()
            report.checks.append(run_check(check_id, seed))
            times[check_id] = round(time.perf_counter() - start, 3)
        bad = [c.check_id for c in report.checks if c.status != "pass"]
        if bad:
            raise SystemExit(f"seed {seed}: checks {bad} did not pass; no golden written")
        path = os.path.join(DATA, f"registry_seed{seed}.json")
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(emit(report, "json", include_timing=False))
        print(seed, round(sum(times.values()), 3), times, flush=True)


if __name__ == "__main__":
    main([int(s) for s in sys.argv[1:]])
