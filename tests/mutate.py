"""Mutation check: does each named test catch the fault it is meant to catch?

    python tests/mutate.py            # every mutant, each against its own tests
    python tests/mutate.py --list     # the mutants and their tests
    python tests/mutate.py NAME ...   # only these mutants
    python tests/mutate.py --all      # each mutant against the whole suite

Each entry of MUTANTS is a file under the repository root, an exact old text
(which must occur there exactly once), the text that replaces it, and the
tests expected to fail.  The tree is copied to a temporary directory, without
.git and caches, once for an unmutated run of the named tests (which must
pass, or nothing below means anything) and once for each mutant, which is
applied to its copy alone.  A mutant survives when every test run on it
passes; a named test that passes on a mutant that another test kills is
reported as a miss.  A parametrized test counts as failed when any of its
instances fails.  The working tree is never edited.

Exit status: 0 when every mutant is killed by every test it names, 1 when
one survives, is missed by a named test, or its old text does not occur
exactly once, 2 when the unmutated tests fail.  pytest does not collect this
file: its name does not match test_*.py.
"""

import argparse
import os
import shutil
import subprocess
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
TIMEOUT_S = 1800

MODULES = ("linalg", "actions", "curves", "checks", "transvectant", "forms")
LINALG, ACTIONS, CURVES, CHECKS, TRANSVECTANT, FORMS = (f"src/biforms/{m}.py" for m in MODULES)
T_LINALG, T_ACTIONS, T_CURVES, T_CHECKS, T_TRANSVECTANT, T_FORMS = (f"tests/test_{m}.py"
                                                                    for m in MODULES)
PARSING, T_PARSE = "src/biforms/parsing.py", "tests/test_parse.py"
# the three routes through the Cayley kernel, each against its oracle
CAYLEY_ORACLES = [f"{T_TRANSVECTANT}::test_{name}" for name in (
    "transvectant_against_monomial_oracle", "bitransvectant_matches_oracle",
    "transvectant_matrix_matches_oracle")]

# (name, file, old text, new text, tests expected to fail)
MUTANTS = [
    ("bareiss-divisor-check-removed", LINALG,
     "                    if q * before != x:\n"
     "                        raise ArithmeticError(\"Bareiss exact-division invariant broken\")\n",
     "",
     [f"{T_LINALG}::test_bareiss_exact_division_check_fires"]),
    ("det-swap-sign-dropped", LINALG,
     "return sign * work[-1][-1] if", "return work[-1][-1] if",
     [f"{T_LINALG}::test_det_matches_cofactor_oracle"]),
    ("binary-gcd-forward-only-pass", CURVES,
     "rk = len(_bareiss([work])[0])", "rk = len(_bareiss([work], complete=False)[0])",
     [f"{T_CURVES}::test_binary_gcd_matches_oracle"]),
    ("echelon-remainder-check-removed", LINALG,
     "        if [q * d for q in work[i]] != acc:\n"
     "            raise ArithmeticError(\"echelon exact-division invariant broken\")\n",
     "",
     [f"{T_LINALG}::test_rref_exact_division_check_fires"]),
    ("echelon-over-signed-D", LINALG,
     "den = abs(work[rank - 1][pivots[-1]]) if rank else 1",
     "den = work[rank - 1][pivots[-1]] if rank else 1",
     [f"{T_LINALG}::test_rref_examples"]),
    ("blocks-appended-in-permuted-order", LINALG,
     "        for wi, i in zip(work, order):\n            wi.extend(block[i])\n",
     "        for wi, segment in zip(work, block):\n            wi.extend(segment)\n",
     [f"{T_LINALG}::test_block_fed_rank_matches_oracle"]),
    ("representation-keyed-without-d", ACTIONS,
     "@lru_cache(maxsize=256)\ndef _representation(G, d):",
     "@(lambda f, memo={}: lambda G, d: memo.setdefault(G, memo.get(G) or f(G, d)))\n"
     "def _representation(G, d):",
     [f"{T_ACTIONS}::test_act_matches_oracle",
      f"{T_ACTIONS}::test_representation_cache_on_the_c10_pattern"]),
    ("c10-first-center-scaled-by-b", CHECKS,
     "if act(first, mono) != (-mono if a % 2 else mono):",
     "if act(first, mono) != (-mono if b % 2 else mono):",
     [f"{T_CHECKS}::test_fast_checks_pass"]),
    ("c10-pluecker-parity-inverted", CHECKS,
     "sign = -1 if dim % 2 else 1", "sign = -1 if not dim % 2 else 1",
     [f"{T_CHECKS}::test_fast_checks_pass"]),
    ("floats-let-through", LINALG,
     "    if isinstance(x, float):\n", "    if isinstance(x, complex):\n",
     [f"{T_LINALG}::test_floats_are_refused_at_the_rational_boundary"]),
    ("representation-transposed", ACTIONS,
     "line = {place[i]: G[i][j] for i in range(n) if G[i][j]}",
     "line = {place[i]: G[j][i] for i in range(n) if G[j][i]}",
     [f"{T_ACTIONS}::test_act_matches_oracle",
      f"{T_ACTIONS}::test_act_binary_and_matrix_match_oracle",
      f"{T_ACTIONS}::test_act_ternary_matches_oracle"]),
    ("act-without-denominator-power", ACTIONS,
     "        den *= m._den ** d\n", "",
     [f"{T_ACTIONS}::test_act_matches_oracle",
      f"{T_ACTIONS}::test_act_ternary_matches_oracle"]),
    ("cayley-first-pair-sign-dropped", TRANSVECTANT,
     "for i, wi in _weights(y1, a - y1, r, True):\n            ci = c * wi",
     "for i, wi in _weights(y1, a - y1, r, True):\n            ci = c * abs(wi)",
     CAYLEY_ORACLES),
    ("cayley-table-last-order-dropped", TRANSVECTANT,
     "min(r, y) + 1", "min(r, y)", CAYLEY_ORACLES),
    ("cayley-table-first-order-dropped", TRANSVECTANT,
     "max(0, r - x)", "max(0, r - x) + 1", CAYLEY_ORACLES),
    ("cayley-operand-last-order-dropped", TRANSVECTANT,
     "min(r, x) + 1", "min(r, x)", CAYLEY_ORACLES),
    ("cayley-operand-first-order-dropped", TRANSVECTANT,
     "max(0, r - y)", "max(0, r - y) + 1", CAYLEY_ORACLES),
    ("cayley-weights-uncached", TRANSVECTANT,
     "@lru_cache(maxsize=4096)\ndef _weights(", "def _weights(",
     [f"{T_TRANSVECTANT}::test_warm_cayley_computes_no_falling_factorial"]),
    ("top-minors-laplace-sign-without-j", LINALG,
     "            sign = -1 if j % 2 else 1\n", "            sign = 1\n",
     [f"{T_LINALG}::test_top_minors_examples",
      f"{T_LINALG}::test_top_minors_match_per_subset_det"]),
    ("kernel-basis-rows-not-reversed", LINALG,
     "for row in reversed(m._num)]", "for row in m._num]",
     [f"{T_LINALG}::test_kernel_basis_eliminates_the_half_turned_matrix"]),
    ("apolar-over-p-denominator", TRANSVECTANT,
     "BinaryForm._make(d - e, out, p._den * q._den)", "BinaryForm._make(d - e, out, p._den)",
     [f"{T_TRANSVECTANT}::test_apolar_matches_oracle"]),
    ("hyperplane-lambda-paired-with-column-j", CURVES,
     "zip(lam, row[::-1])", "zip(lam, row)",
     [f"{T_CURVES}::test_hyperplane_degree_is_degenerate_exactly_when_the_functional_kills_the_map"]),
    ("lie-x01-x10-swapped", ACTIONS,
     "x01 * a + x10 * b + x00 * c", "x10 * a + x01 * b + x00 * c",
     [f"{T_ACTIONS}::test_lie_act_examples",
      f"{T_ACTIONS}::test_exp_of_nilpotent_matches_act",
      f"{T_ACTIONS}::test_lie_act_matches_oracle"]),
    ("annihilator-sign-flipped", ACTIONS,
     "big * image[j] - sum(map(mul, coords, column))",
     "big * image[j] + sum(map(mul, coords, column))",
     [f"{T_ACTIONS}::test_subspace_stabilizer_matches_oracle_on_special_subspaces"]),
    ("branch-scale-s-to-the-n", CURVES,
     "f._den ** (2 * n)", "f._den ** n",
     [f"{T_CURVES}::test_branch_form_matches_oracle"]),
    ("branch-is-zero-first-node-only", CURVES,
     "range(2 * a * (b - 1) + 1)", "range(1)",
     [f"{T_CURVES}::test_branch_form_is_zero_agrees_with_branch_form"]),
    ("hyperplane-block-shift-dropped", CURVES,
     "else 0 for s in range(a)]", "else 0 for s in range(a - 1)]",
     [f"{T_CURVES}::test_hyperplane_degree_examples",
      f"{T_CURVES}::test_hyperplane_degree_is_degenerate_exactly_when_the_functional_kills_the_map"]),
    ("partials-y-weight-k", CURVES,
     "[(k + 1) * c[k + 1] for k in range(d)]", "[k * c[k + 1] for k in range(d)]",
     [f"{T_CURVES}::test_is_squarefree_matches_the_gcd_route",
      f"{T_CURVES}::test_branch_form_matches_oracle"]),
    ("reduce-skipped", LINALG,
     "    if g == 1:\n        return tuple([tuple(row) for row in rows]), den\n",
     "    if True:\n        return tuple([tuple(row) for row in rows]), den\n",
     [f"{T_FORMS}::test_storage_invariants"]),
    ("transvectant-without-q-denominator", TRANSVECTANT,
     "BinaryForm._make(degree, vec, p._den * q._den)", "BinaryForm._make(degree, vec, p._den)",
     [f"{T_TRANSVECTANT}::test_transvectant_against_monomial_oracle"]),
    ("c04-equality-accepts-every-pair", CHECKS,
     "if a_val == t_val:", "if True:",
     [f"{T_CHECKS}::test_c04_fails_with_scaled_apolar"]),
    ("quota-without-exceptions-bound", CHECKS,
     "ok_everywhere and ok >= 95", "ok_everywhere and ok >= 0",
     [f"{T_CHECKS}::test_c07_fails_below_quota"]),
    ("product-budget-without-bit-weight", PARSING,
     "* (1 + (mid - start) // WEIGHT_BITS) * (1 + (self.bits - mid) // WEIGHT_BITS))", ")",
     [f"{T_PARSE}::test_work_budget_spans_the_whole_parse"]),
]


def copy_tree(dest):
    skip = shutil.ignore_patterns(".git", "__pycache__", ".pytest_cache", "*.egg-info")

    def ignore(directory, names):
        out = set(skip(directory, names))
        if Path(directory) == ROOT / "perfbench":
            out.add("out")
        return out
    shutil.copytree(ROOT, dest, ignore=ignore)


def run_tests(tree, tests):
    """(return code, failed node ids) of pytest on `tests` (all when empty) in `tree`."""
    env = dict(os.environ, PYTHONPATH=str(tree / "src"), PYTHONDONTWRITEBYTECODE="1")
    proc = subprocess.run([sys.executable, "-m", "pytest", "-q", "-rfE", "-p", "no:cacheprovider",
                           *tests], cwd=tree, env=env, capture_output=True, text=True,
                          timeout=TIMEOUT_S)
    failed = [line.split(" ", 1)[1].split(" - ", 1)[0] for line in proc.stdout.splitlines()
              if line.startswith(("FAILED ", "ERROR "))]
    return proc.returncode, failed


def apply(tree, path, old, new):
    target = tree / path
    text = target.read_text(encoding="utf-8")
    count = text.count(old)
    if count != 1:
        return f"old text occurs {count} times in {path}"
    target.write_text(text.replace(old, new), encoding="utf-8")
    return None


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("names", nargs="*", help="mutants to run (default: all)")
    parser.add_argument("--all", action="store_true", help="run the whole suite on each mutant")
    parser.add_argument("--list", action="store_true", help="list the mutants and exit")
    args = parser.parse_args(argv)
    known = {m[0] for m in MUTANTS}
    unknown = [n for n in args.names if n not in known]
    if unknown:
        parser.error(f"unknown mutants: {', '.join(unknown)}")
    chosen = [m for m in MUTANTS if not args.names or m[0] in args.names]
    if args.list:
        for name, path, _, _, tests in chosen:
            print(f"{name}  ({path})")
            for test in tests:
                print(f"    {test}")
        return 0

    named = sorted({t for m in chosen for t in m[4]})
    with tempfile.TemporaryDirectory(prefix="biforms-mutate-") as tmp:
        base = Path(tmp) / "base"
        copy_tree(base)
        code, failed = run_tests(base, [] if args.all else named)
        if code:
            print(f"unmutated tree fails (exit {code}): {', '.join(failed) or 'see pytest'}")
            return 2
        shutil.rmtree(base)
        bad = 0
        for name, path, old, new, tests in chosen:
            tree = Path(tmp) / name
            copy_tree(tree)
            problem = apply(tree, path, old, new)
            if problem is None:
                code, failed = run_tests(tree, [] if args.all else tests)
                # a parametrized test fails as its instances, test[id]
                missed = [t for t in tests
                          if not any(f == t or f.startswith(t + "[") for f in failed)]
                if not failed:
                    problem = "SURVIVED: every test passed" if code == 0 else \
                        f"pytest exited {code} without a failed test"
                elif missed:
                    problem = f"missed by {', '.join(missed)}"
            shutil.rmtree(tree)
            if problem:
                bad += 1
                print(f"{name}: {problem}")
            else:
                print(f"{name}: killed ({len(failed)} failed, every named test among them)")
        print(f"{len(chosen) - bad} of {len(chosen)} mutants killed by every test they name")
    return 1 if bad else 0


if __name__ == "__main__":
    sys.exit(main())
