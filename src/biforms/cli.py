"""Command-line front end.

Subcommands:

    verify   [--check ID] [--seed N] [--format json|md] [--out PATH]
    transvect --lhs EXPR --rhs EXPR --r R [--s S]
    kernel    --form EXPR --r R --s S --source A,B
    curve     --form EXPR (--branch | --span | --degree) [--seed N]

Exit codes: 0 all checks pass / computation succeeded, 1 some check failed,
2 usage or parse error, 3 internal error (any other exception, reported as
one line on stderr).  Polynomial arguments use the package grammar;
transvect with --s and the other biform arguments use variables X1,Y1,X2,Y2,
plain binary forms use X,Y.  transvect and kernel set their bounds here, on
the work estimate and target shape the transvectant module computes.
"""

from __future__ import annotations

import argparse
import sys
from functools import lru_cache

from .checks import REGISTRY, Report, VERSION, emit, run_all, run_check
from .curves import branch_form, hyperplane_degree, span_dim
from .forms import BiForm, BinaryForm
from .linalg import kernel_basis
from .parsing import ParseError
from .transvectant import _cayley_words, _shape, bitransvectant, transvectant, transvectant_matrix


MAX_KERNEL_CELLS = 100_000   # matrix entries of `kernel`; the benchmark's largest is 1,296
MAX_CAYLEY_WORDS = 1_000_000  # estimated work of `transvect`; the benchmark's largest is 4,340


class UsageError(Exception):
    pass


def _write(path, mode, text=""):
    try:
        with open(path, mode, encoding="utf-8") as fh:
            fh.write(text)
    except OSError as exc:
        raise UsageError(f"cannot write {path}: {exc.strerror}") from exc


def _cmd_verify(args):
    if args.out:
        # appending nothing refuses an unwritable path before any check runs,
        # and leaves an existing file as it is
        _write(args.out, "a")
    if args.check is not None:
        if args.check not in REGISTRY:
            raise UsageError(f"unknown check id {args.check!r}")
        report = Report(VERSION, args.seed, [run_check(args.check, args.seed)])
    else:
        report = run_all(args.seed)
    text = emit(report, "markdown" if args.format == "md" else args.format)
    if args.out:
        _write(args.out, "w", text + "\n")
    else:
        print(text)
    return 0 if all(c.status == "pass" for c in report.checks) else 1


def _cmd_transvect(args):
    binary = args.s is None
    kind, s = (BinaryForm, 0) if binary else (BiForm, args.s)
    f, g = kind.parse(args.lhs), kind.parse(args.rhs)
    words = _cayley_words(f, g, args.r, s)
    if words > MAX_CAYLEY_WORDS:
        raise UsageError(f"a Cayley sum of {words} word operations, more than {MAX_CAYLEY_WORDS}")
    print(transvectant(f, g, args.r) if binary else bitransvectant(f, g, args.r, s))
    return 0


def _cmd_kernel(args):
    f = BiForm.parse(args.form)
    try:
        a2, b2 = (int(x) for x in args.source.split(","))
    except ValueError as exc:
        raise UsageError(f"bad --source {args.source!r}: expected A,B") from exc
    if a2 < 0 or b2 < 0:
        raise UsageError(f"--source {args.source}: degrees must be >= 0")
    target = _shape(f.bidegree, (a2, b2), args.r, args.s)
    # the map is rows x cols, its kernel basis up to cols x cols
    rows, cols = (target[0] + 1) * (target[1] + 1), (a2 + 1) * (b2 + 1)
    cells = max(rows, cols) * cols
    if cells > MAX_KERNEL_CELLS:
        raise UsageError(f"--source {args.source}: a matrix of {cells} entries, "
                         f"more than {MAX_KERNEL_CELLS}")
    m = transvectant_matrix(f, args.r, args.s, (a2, b2))
    ker = kernel_basis(m)
    basis = [str(BiForm._make((a2, b2), row, ker.basis._den)) for row in ker.basis._num]
    print(f"rank: {m.cols - ker.dim}")
    print(f"kernel dimension: {ker.dim}")
    for row in basis:
        print(f"kernel basis: {row}")
    return 0


def _cmd_curve(args):
    f = BiForm.parse(args.form)
    if args.branch:
        print(branch_form(f))
    elif args.span:
        print(span_dim(f))
    else:
        degree = hyperplane_degree(f, args.seed)
        print("degenerate" if degree is None else degree)
    return 0


@lru_cache(maxsize=1)
def build_parser():
    """The argument parser, built once per process."""
    parser = argparse.ArgumentParser(prog="biforms")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("verify", help="run the verification registry")
    p.add_argument("--check", default=None, help="single check id, e.g. C12")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--format", choices=["json", "md"], default="json")
    p.add_argument("--out", default=None, help="write the report to this path")
    p.set_defaults(handler=_cmd_verify)

    p = sub.add_parser("transvect", help="transvectant of two forms")
    p.add_argument("--lhs", required=True)
    p.add_argument("--rhs", required=True)
    p.add_argument("--r", type=int, required=True)
    p.add_argument("--s", type=int, default=None)
    p.set_defaults(handler=_cmd_transvect)

    p = sub.add_parser("kernel", help="kernel of G -> T_(r,s)(form, G)")
    p.add_argument("--form", required=True)
    p.add_argument("--r", type=int, required=True)
    p.add_argument("--s", type=int, required=True)
    p.add_argument("--source", required=True, help="source bidegree A,B")
    p.set_defaults(handler=_cmd_kernel)

    p = sub.add_parser("curve", help="branch form, span, or hyperplane degree")
    p.add_argument("--form", required=True)
    group = p.add_mutually_exclusive_group(required=True)
    group.add_argument("--branch", action="store_true")
    group.add_argument("--span", action="store_true")
    group.add_argument("--degree", action="store_true")
    p.add_argument("--seed", type=int, default=0)
    p.set_defaults(handler=_cmd_curve)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return 2 if exc.code not in (0, None) else 0
    try:
        return args.handler(args)
    except (ParseError, UsageError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except Exception as exc:
        print(f"internal error: {exc!r}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
