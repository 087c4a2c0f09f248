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
plain binary forms use X,Y.
"""

from __future__ import annotations

import argparse
import sys
from functools import lru_cache

from .checks import REGISTRY, Report, VERSION, emit, run_all, run_check
from .curves import branch_form, hyperplane_degree, phi_components, span_dim
from .forms import BiForm, BinaryForm
from .linalg import kernel_basis
from .parsing import ParseError
from .transvectant import bitransvectant, transvectant, transvectant_matrix


MAX_KERNEL_CELLS = 100_000   # matrix entries of `kernel`; the benchmark's largest is 1,296


class UsageError(Exception):
    pass


def _cmd_verify(args):
    if args.check is not None:
        if args.check not in REGISTRY:
            raise UsageError(f"unknown check id {args.check!r}")
        report = Report(VERSION, args.seed, [run_check(args.check, args.seed)])
    else:
        report = run_all(args.seed)
    fmt = "markdown" if args.format == "md" else args.format
    text = emit(report, fmt)
    if args.out:
        with open(args.out, "w", encoding="utf-8") as fh:
            fh.write(text + "\n")
    else:
        print(text)
    return 0 if all(c.status == "pass" for c in report.checks) else 1


def _cmd_transvect(args):
    if args.s is None:
        p = BinaryForm.parse(args.lhs)
        q = BinaryForm.parse(args.rhs)
        print(transvectant(p, q, args.r))
    else:
        f = BiForm.parse(args.lhs)
        g = BiForm.parse(args.rhs)
        print(bitransvectant(f, g, args.r, args.s))
    return 0


def _cmd_kernel(args):
    f = BiForm.parse(args.form)
    try:
        a2, b2 = (int(x) for x in args.source.split(","))
    except ValueError as exc:
        raise UsageError(f"bad --source {args.source!r}: expected A,B") from exc
    (a, b), r, s = f.bidegree, args.r, args.s
    cells = (a + a2 - 2 * r + 1) * (b + b2 - 2 * s + 1) * (a2 + 1) * (b2 + 1)
    if cells > MAX_KERNEL_CELLS:
        raise UsageError(f"--source {args.source}: a matrix of {cells} entries, "
                         f"more than {MAX_KERNEL_CELLS}")
    m = transvectant_matrix(f, r, s, (a2, b2))
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
        print(span_dim(phi_components(f)))
    else:
        degree = hyperplane_degree(phi_components(f), args.seed)
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
