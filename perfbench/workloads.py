"""The three workloads: their seeded inputs, their operations, and their answer checks.

Each workload turns a seed into a list of operations.  An operation is one
closed-loop request a user would wait for: one `run_check` of the registry,
or one `biforms` command line run in process, or one stabilizer call.  Every
operation belongs to one of four parts (reported as part1_s .. part4_s):

    workload        part1                part2             part3                 part4
    registry        C09                  C07               C10                   the other 11 checks
    kernel_queries  kernel, tall map     kernel, wide map  transvect (binary)    transvect --s (biform)
    special_orbits  form stabilizers     curve --branch    curve --span/--degree subspace stabilizers

The inputs are generated here, without the program; the program sees only
command-line text, coefficient vectors and the seed.  Expected answers come
from perfbench/oracle.py (an independent implementation) or from the
construction of the input, and are computed only after the timed passes.
"""

from contextlib import redirect_stderr, redirect_stdout
from fractions import Fraction
from io import StringIO
import json
import os
from random import Random

from oracle import (
    RING_BI,
    RING_XY,
    act_binary,
    act_pair,
    biform_basis,
    binary_basis,
    kernel,
    parse_printed,
    pmul,
    ppow,
    projective_stabilizer_dim,
    rank,
    rref,
    subspace_stabilizer_dim,
    sylvester,
    to_text,
    transvectant_pairs,
)

DATA = os.path.join(os.path.dirname(os.path.abspath(__file__)), "data")

# the paper's fixtures, as written in biforms.checks
PAIRING_18 = "X1*X2^2*Y2^6 + Y1*X2^6*Y2^2"
PAIRING_14 = "X1*Y2^4 + Y1*X2^4"
SLICE_WITNESS_16 = "X1*X2^3*Y2^3 + Y1*(X2^4*Y2^2 + X2^2*Y2^4)"
REFERENCE_12 = "X1*Y2^2 + Y1*X2^2"

# (text as in biforms.checks, the same form without parentheses, source bidegree of T_(1,2))
FIXTURES = [
    (PAIRING_18, PAIRING_18, (1, 4)),
    (SLICE_WITNESS_16, "X1*X2^3*Y2^3 + Y1*X2^4*Y2^2 + Y1*X2^2*Y2^4", (1, 2)),
    (PAIRING_14, PAIRING_14, (1, 8)),
    (REFERENCE_12, REFERENCE_12, (1, 6)),
]

PARTS = ("part1_s", "part2_s", "part3_s", "part4_s")


class Op:
    """One request: `call()` returns its output; `check(output)` says whether it is right."""

    __slots__ = ("label", "part", "call", "expect", "_expected")

    def __init__(self, label, part, call, expect):
        self.label = label
        self.part = part
        self.call = call
        self.expect = expect
        self._expected = None

    def check(self, output):
        if self._expected is None:
            self._expected = self.expect()
        return self._expected(output)


# ---------------------------------------------------------------------------
# shared helpers
# ---------------------------------------------------------------------------

def run_cli(main, argv):
    """Run `biforms <argv>` in process; returns (exit code, stdout)."""
    out, err = StringIO(), StringIO()
    with redirect_stdout(out), redirect_stderr(err):
        code = main(list(argv))
    return code, out.getvalue()


def _coeff(rng):
    return Fraction(rng.randint(-9, 9))


def _random_form(rng, basis, nonzero=True):
    while True:
        f = {e: c for e in basis if (c := _coeff(rng))}
        if f or not nonzero:
            return f


def _random_gl2(rng, spread):
    while True:
        g = [[rng.randint(-spread, spread) for _ in range(2)] for _ in range(2)]
        if g[0][0] * g[1][1] - g[0][1] * g[1][0]:
            return g


def _det2(g):
    return g[0][0] * g[1][1] - g[0][1] * g[1][0]


def _vector(f, basis):
    return [f.get(e, Fraction(0)) for e in basis]


# ---------------------------------------------------------------------------
# registry
# ---------------------------------------------------------------------------

REGISTRY_PART = {"C09": 0, "C07": 1, "C10": 2}


def load_golden(seed):
    """The stored timing-free report of run_all(seed), or None when there is none."""
    path = os.path.join(DATA, f"registry_seed{seed}.json")
    if not os.path.exists(path):
        return None
    with open(path, encoding="utf-8") as fh:
        return fh.read()


def registry_ops(seed):
    """One op per registry check, in registry order: together they are run_all(seed)."""
    from biforms.checks import REGISTRY, run_check

    def make(check_id):
        return Op(check_id, REGISTRY_PART.get(check_id, 3),
                  lambda: run_check(check_id, seed),
                  lambda: lambda result: result.status == "pass")

    return [make(check_id) for check_id in REGISTRY]


def registry_failed_checks(seed, results, golden):
    """Indices of the checks whose entry differs from the golden timing-free report.

    `results` are one pass's CheckResults in registry order; the report they
    form is exactly run_all(seed).  With no golden stored for the seed the
    set is empty.  A difference outside the check entries is charged to the
    first check, so any byte of difference fails at least one operation.
    """
    from biforms import __version__
    from biforms.checks import Report, emit
    if golden is None:
        return set()
    try:
        text = emit(Report(__version__, seed, list(results)), "json", include_timing=False)
    except Exception:  # a result that cannot be reported at all
        return set(range(len(results)))
    if text == golden:
        return set()
    mine, want = json.loads(text)["checks"], json.loads(golden)["checks"]
    bad = {i for i in range(max(len(mine), len(want)))
           if i >= len(mine) or i >= len(want) or mine[i] != want[i]}
    return {min(i, len(results) - 1) for i in bad} or {0}


# ---------------------------------------------------------------------------
# kernel_queries
# ---------------------------------------------------------------------------

FORM_BIDEGREES = [(a, b) for a in (1, 2) for b in range(4, 11)]


def _kernel_shapes():
    """(form bidegree, r, s, source bidegree, tall) for every kernel query; fixed, not seeded.

    Per form bidegree: 3 "tall" shapes whose source is no larger than the
    target (injective for generic forms) and 4 "wide" ones whose source is
    larger (kernel of dimension >= cols - rows).
    """
    pick = Random("kernel-shapes")
    shapes = []
    for a, b in FORM_BIDEGREES:
        tall, wide = [], []
        for a2 in (0, 1, 2):
            for b2 in range(2, b + 1):
                for r in range(0, min(a, a2) + 1):
                    for s in range(1, min(b, b2) + 1):
                        rows = (a + a2 - 2 * r + 1) * (b + b2 - 2 * s + 1)
                        cols = (a2 + 1) * (b2 + 1)
                        if cols > 30 or rows > 60:
                            continue
                        (tall if cols <= rows else wide).append(((a, b), r, s, (a2, b2)))
        shapes += [(*x, True) for x in pick.sample(tall, 3)]
        shapes += [(*x, False) for x in pick.sample(wide, 4)]
    return shapes


def _kernel_expect(f, r, s, source):
    a, b = max(e[0] + e[1] for e in f), max(e[2] + e[3] for e in f)
    a2, b2 = source
    src = biform_basis(a2, b2)
    tgt = biform_basis(a + a2 - 2 * r, b + b2 - 2 * s)
    columns = [transvectant_pairs(f, {e: Fraction(1)}, (r, s)) for e in src]
    matrix = [[col.get(e, Fraction(0)) for col in columns] for e in tgt]
    rk, basis = kernel(matrix, len(src))
    want = [{e: c for e, c in zip(src, v) if c} for v in basis]

    def check(output):
        code, text = output
        lines = text.splitlines()
        if code != 0 or len(lines) != 2 + len(want):
            return False
        if lines[0] != f"rank: {rk}" or lines[1] != f"kernel dimension: {len(want)}":
            return False
        prefix = "kernel basis: "
        try:
            got = [parse_printed(line[len(prefix):], RING_BI) for line in lines[2:]
                   if line.startswith(prefix)]
        except ValueError:
            return False
        return got == want
    return check


def _transvect_expect(f, g, orders, ring):
    want = transvectant_pairs(f, g, orders)

    def check(output):
        code, text = output
        try:
            return code == 0 and parse_printed(text, ring) == want
        except ValueError:
            return False
    return check


def kernel_queries_ops(seed):
    from biforms.cli import main
    rng = Random(f"kernel_queries|{seed}")
    ops = []

    def kernel_op(f, text, r, s, source, tall):
        argv = ["kernel", "--form", text, "--r", str(r), "--s", str(s),
                "--source", f"{source[0]},{source[1]}"]
        ops.append(Op(" ".join(argv[:1] + argv[3:]), 0 if tall else 1,
                      lambda: run_cli(main, argv),
                      lambda: _kernel_expect(f, r, s, source)))

    def biform(a, b):
        return _random_form(rng, biform_basis(a, b))

    for k, ((a, b), r, s, source, tall) in enumerate(_kernel_shapes()):
        if k % 7 in (2, 6):
            # a 3-term form: its maps usually lose rank (rank < min(rows, cols))
            terms = rng.sample(biform_basis(a, b), 3)
            f = {e: Fraction(rng.choice([-3, -2, -1, 1, 2, 3])) for e in terms}
        else:
            f = biform(a, b)
        kernel_op(f, to_text(f, RING_BI), r, s, source, tall)
    for text, expanded, source in FIXTURES:
        f = parse_printed(expanded, RING_BI)
        a, b = max(e[0] + e[1] for e in f), max(e[2] + e[3] for e in f)
        rows = (a + source[0] - 1) * (b + source[1] - 3)
        kernel_op(f, text, 1, 2, source, (source[0] + 1) * (source[1] + 1) <= rows)

    # the shapes of the transvectant queries are fixed; the seed gives the coefficients
    shape = Random("transvect-shapes")
    for _ in range(60):
        d, e = shape.randint(4, 10), shape.randint(4, 10)
        r = shape.randint(1, min(d, e))
        p = _random_form(rng, binary_basis(d))
        q = _random_form(rng, binary_basis(e))
        argv = ["transvect", "--lhs", to_text(p, RING_XY), "--rhs", to_text(q, RING_XY),
                "--r", str(r)]
        ops.append(Op(f"transvect {d},{e} r={r}", 2, lambda argv=argv: run_cli(main, argv),
                      lambda p=p, q=q, r=r: _transvect_expect(p, q, (r,), RING_XY)))
    for _ in range(60):
        (a, b), (a2, b2) = shape.choice(FORM_BIDEGREES), shape.choice(FORM_BIDEGREES)
        r, s = shape.randint(0, min(a, a2)), shape.randint(1, min(b, b2))
        f, g = biform(a, b), biform(a2, b2)
        argv = ["transvect", "--lhs", to_text(f, RING_BI), "--rhs", to_text(g, RING_BI),
                "--r", str(r), "--s", str(s)]
        ops.append(Op(f"transvect ({a},{b})x({a2},{b2}) r={r} s={s}", 3,
                      lambda argv=argv: run_cli(main, argv),
                      lambda f=f, g=g, r=r, s=s: _transvect_expect(f, g, (r, s), RING_BI)))
    return ops


# ---------------------------------------------------------------------------
# special_orbits
# ---------------------------------------------------------------------------

def reference_form(b):
    """X1*Y2^b + Y1*X2^b: projective stabilizer of dimension 1, branch form X1^(b-1)*Y1^(b-1) up to scale."""
    return {(1, 0, 0, b): Fraction(1), (0, 1, b, 0): Fraction(1)}


def _linear_forms(rng, count, distinct):
    """`count` linear forms uX + vY, the first `distinct` pairwise non-proportional."""
    out = []
    while len(out) < distinct:
        u, v = rng.randint(-3, 3), rng.randint(-3, 3)
        if (u or v) and all(u * y - v * x for x, y in out):
            out.append((u, v))
    while len(out) < count:
        out.append(rng.choice(out[:distinct]))
    return [{e: Fraction(c) for e, c in (((1, 0), u), ((0, 1), v)) if c} for u, v in out]


def _product(forms):
    out = {(0, 0): Fraction(1)}
    for f in forms:
        out = pmul(out, f)
    return out


def _tensor(p, q):
    return {(i, j, k, m): c * d for (i, j), c in p.items() for (k, m), d in q.items()}


def _hyperplane_combo(f, b, seed):
    """sum_j lambda_j c_j for the functional `biforms curve --degree --seed` draws."""
    rng = Random(f"hyperplane:{seed}")
    lam = [rng.randint(-9, 9) for _ in range(b + 1)]
    h = {}
    for (i, j, k, _), c in f.items():
        h[(i, j)] = h.get((i, j), 0) + lam[k] * c
    return {e: c for e, c in h.items() if c}


def _span_dim(f, a, b):
    rows = [[f.get((i, j, k, b - k), Fraction(0)) for k in range(b + 1)]
            for i, j in binary_basis(a)]
    return rank(rows) - 1


def _text_is(want):
    def check(output):
        code, text = output
        return code == 0 and text.strip() == want
    return check


def _branch_check(want):
    def check(output):
        code, text = output
        try:
            return code == 0 and parse_printed(text, RING_XY) == want
        except ValueError:
            return False
    return check


def special_orbits_ops(seed):
    # calls go through the module attributes, so the tracer's rebinding sees them
    from biforms import actions
    from biforms.cli import main
    from biforms.forms import BiForm
    from biforms.linalg import Subspace
    rng = Random(f"special_orbits|{seed}")
    shape = Random("special-orbits-shapes")   # structural choices are fixed; the seed gives the rest
    ops = []

    def curve_ops(f, a, b, branch, gcd_degree):
        """branch / span / degree queries; `branch` and `gcd_degree` come from the construction."""
        text = to_text(f, RING_BI)
        tag = f"({a},{b})"
        argv = ["curve", "--form", text, "--branch"]
        ops.append(Op(f"branch {tag}", 1, lambda: run_cli(main, argv),
                      lambda: _branch_check(branch)))
        argv2 = ["curve", "--form", text, "--span"]
        ops.append(Op(f"span {tag}", 2, lambda: run_cli(main, argv2),
                      lambda: _text_is(str(_span_dim(f, a, b)))))
        k = rng.randint(0, 10 ** 6)
        argv3 = ["curve", "--form", text, "--degree", "--seed", str(k)]

        def degree():
            h = _hyperplane_combo(f, b, k)
            return _text_is(str(a - gcd_degree) if h else "degenerate")
        ops.append(Op(f"degree {tag}", 2, lambda: run_cli(main, argv3), degree))

    def stab_op(f, a, b, label):
        basis = biform_basis(a, b)
        vec = _vector(f, basis)
        ops.append(Op(f"stabilizer {label} ({a},{b})", 0,
                      lambda: actions.projective_stabilizer_dim(BiForm.from_coeff_vector((a, b), vec)),
                      lambda: lambda out: out == projective_stabilizer_dim(f, basis)))

    # GL-translates of the reference forms X1*Y2^b + Y1*X2^b (bidegree (1, b))
    for b in range(4, 11):
        for _ in range(3):
            g1, g2 = _random_gl2(rng, 2), _random_gl2(rng, 2)
            f = act_pair(reference_form(b), g1, g2)
            n = b - 1
            # branch(g.F)(v) = det(g2)^(n(n+1)) * branch(F)(v.g1), branch(F) = b^(2n) X^n Y^n
            scale = Fraction(_det2(g2)) ** (n * (n + 1)) * b ** (2 * n)
            branch = {e: scale * c for e, c in act_binary({(n, n): Fraction(1)}, g1).items()}
            curve_ops(f, 1, b, branch, 0)
            stab_op(f, 1, b, "translate")

    # decomposables p(X1,Y1) q(X2,Y2); q squarefree, then q with a repeated root
    for a, b in FORM_BIDEGREES:
        for repeated in (False, True):
            p = _product(_linear_forms(rng, a, a))
            q = _product(_linear_forms(rng, b, b - 1 if repeated else b))
            f = _tensor(p, q)
            n = b - 1
            qx = {(i - 1, j): c * i for (i, j), c in q.items() if i}
            qy = {(i, j - 1): c * j for (i, j), c in q.items() if j}
            res = sylvester(qx, qy, n, n)
            branch = {e: res * c for e, c in ppow(p, 2 * n, 2).items()} if res else {}
            curve_ops(f, a, b, branch, a)
            stab_op(f, a, b, "decomposable")

    # torus eigenforms: every term has the same weight w1*(2i - a) + w2*(2k - b)
    for a, b in FORM_BIDEGREES:
        for translate in (False, True):
            w2 = shape.randint(1, 2)
            w1 = w2 * shape.randint(1, 3)   # so that X1- and Y1-terms can share a weight
            classes = {}
            for e in biform_basis(a, b):
                classes.setdefault(w1 * (2 * e[0] - a) + w2 * (2 * e[2] - b), []).append(e)
            terms = shape.choice(sorted(c for c in classes.values() if len(c) >= 2))
            f = {e: Fraction(rng.choice([-3, -2, -1, 1, 2, 3])) for e in terms}
            if translate:
                f = act_pair(f, _random_gl2(rng, 2), _random_gl2(rng, 2))
            label = "torus translate" if translate else "torus"
            stab_op(f, a, b, label)
            argv = ["curve", "--form", to_text(f, RING_BI), "--span"]
            ops.append(Op(f"span {label} ({a},{b})", 2,
                          lambda argv=argv: run_cli(main, argv),
                          lambda f=f, a=a, b=b: _text_is(str(_span_dim(f, a, b)))))

    # subspaces of V_b spanned by monomials, and their GL-translates
    for b in (5, 6, 7, 8):
        for k in range(1, b):
            for translate in (False, True):
                if shape.random() < 0.4:
                    start = rng.randint(0, b - k)
                    picked = list(range(start, start + k + 1))
                else:
                    picked = sorted(rng.sample(range(b + 1), k + 1))
                basis = binary_basis(b)
                vectors = [[Fraction(int(i == j)) for i in range(b + 1)] for j in picked]
                if translate:
                    g = _random_gl2(rng, 2)
                    images = [act_binary({basis[j]: Fraction(1)}, g) for j in picked]
                    vectors = rref([_vector(img, basis) for img in images])[0]
                label = f"subspace dim {k + 1} of V_{b}" + (" translate" if translate else "")
                ops.append(Op(label, 3,
                              lambda b=b, v=vectors: actions.subspace_stabilizer_dim(
                                  Subspace.from_vectors(b + 1, v)),
                              lambda b=b, v=vectors: lambda out: out == subspace_stabilizer_dim(v, b)))
    return ops


WORKLOADS = {
    "registry": registry_ops,
    "kernel_queries": kernel_queries_ops,
    "special_orbits": special_orbits_ops,
}
