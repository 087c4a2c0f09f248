"""Independent oracles for the dual-route tests.

Every oracle computes on plain data: a polynomial is a dict from exponent
tuples to Fractions, a matrix a list of Fraction rows.  No oracle calls the
package's polynomial, linear-algebra, action or curve code, so a test that
compares the two compares two routes.

The routines the benchmark needs live in perfbench/oracle.py, which imports
nothing from biforms.  It is loaded here by path as `oracle`, and the tests
call it directly: the transvectants (`transvectant_pairs`), the substitution
actions (`act_pair`, `act_binary`), the bases, Gauss-Jordan (`rref`,
`kernel`), `det`, both stabilizer dimensions and the printer `to_text`.
This module adds only what the benchmark does not need: the Lie action as
the derivative of substitution, the commutator of two matrices,
binomial-scaled coordinates, the apolar operator, the singular systems,
the branch form (by evaluation, by the b = 2 closed form and by a symbolic
Laplace determinant), a Euclid gcd, a curve's components and its
hyperplane combination, the matrix of the binary action, the
transvectant matrix, the subspace oracles and a cofactor determinant.

The package is touched only at the boundary (`to_dict`, `to_form`, `like`,
`times`, `rows`): a form enters through `coeff_vector` and leaves through
`from_coeff_vector`, both read against the oracle's own bases, so a
basis-order slip in the package cannot cancel out, and a matrix enters
through `QMat.entries`; only `is_rref_basis` reads a QMat's stored integer
rows and denominator, because its canonical form is what it checks.
tests/test_helpers.py keeps the imports from biforms to the boundary types.

The seeded random 2x2 matrices and Lie pairs at the end are the tests' own
samplers; the package samples only forms, subspaces and SL2 pairs.
"""

import importlib.util
from fractions import Fraction
from math import comb, factorial, gcd
from pathlib import Path
from random import Random

from biforms.actions import GroupPair, LiePair
from biforms.forms import BiForm, BinaryForm, TernaryForm
from biforms.linalg import QMat

ORACLE = Path(__file__).resolve().parents[1] / "perfbench" / "oracle.py"


def _load_oracle():
    spec = importlib.util.spec_from_file_location("perfbench_oracle", ORACLE)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


oracle = _load_oracle()


# ---------------------------------------------------------------------------
# boundary: forms and matrices in and out
# ---------------------------------------------------------------------------

def oracle_ternary_basis(d):
    """Degree-d ternary exponents in descending lex order (explicit loops)."""
    out = []
    for i in range(d, -1, -1):
        for j in range(d - i, -1, -1):
            out.append((i, j, d - i - j))
    return out


def _basis(cls, degree):
    if cls is BiForm:
        return oracle.biform_basis(*degree)
    if cls is TernaryForm:
        return oracle_ternary_basis(degree)
    return oracle.binary_basis(degree)


def _degree(f):
    return f.bidegree if isinstance(f, BiForm) else f.degree


def to_dict(f):
    """A form's nonzero terms {exponents: Fraction}, its coefficient vector
    read against the oracle's basis."""
    return {e: c for e, c in zip(_basis(type(f), _degree(f)), f.coeff_vector()) if c}


def to_form(cls, degree, terms):
    """The form of type cls and the given degree with these terms; a term
    outside the oracle's basis of that degree raises ValueError."""
    basis = _basis(cls, degree)
    stray = set(terms) - set(basis)
    if stray:
        raise ValueError(f"terms {sorted(stray)} are not of degree {degree}")
    return cls.from_coeff_vector(degree, [terms.get(e, 0) for e in basis])


def like(f, terms):
    """The form of f's type and degree with these terms."""
    return to_form(type(f), _degree(f), terms)


def times(f, g):
    """The product of two forms of one type, by oracle.pmul on their terms."""
    if isinstance(f, BiForm):
        degree = (f.bidegree[0] + g.bidegree[0], f.bidegree[1] + g.bidegree[1])
    else:
        degree = f.degree + g.degree
    return to_form(type(f), degree, oracle.pmul(to_dict(f), to_dict(g)))


def rows(m):
    """Fraction rows of a QMat (through entries) or of nested sequences."""
    m = m.entries if isinstance(m, QMat) else m
    return [[Fraction(x) for x in row] for row in m]


def pair_text(p, suffix):
    """Text of a BinaryForm in the variables X<suffix>, Y<suffix>, in parentheses."""
    return "(" + oracle.to_text(to_dict(p), ("X" + suffix, "Y" + suffix)) + ")"


# ---------------------------------------------------------------------------
# polynomial oracles on dicts
# ---------------------------------------------------------------------------

def dict_diff(terms, slot):
    """Partial derivative of an {exponent tuple: coeff} dict in one variable slot."""
    out = {}
    for e, c in terms.items():
        if e[slot]:
            lowered = list(e)
            lowered[slot] -= 1
            out[tuple(lowered)] = e[slot] * c
    return out


def oracle_transvectant_matrix(f, bidegree, r, s, source):
    """Rows of G -> T_(r,s)(f, G) for a biform dict f of the given bidegree
    and G in V_source: column j is oracle.transvectant_pairs on the j-th
    source monomial, read against the target basis."""
    (a, b), (a2, b2) = bidegree, source
    target = oracle.biform_basis(a + a2 - 2 * r, b + b2 - 2 * s)
    columns = [oracle.transvectant_pairs(f, {e: Fraction(1)}, (r, s))
               for e in oracle.biform_basis(a2, b2)]
    return [[col.get(e, Fraction(0)) for col in columns] for e in target]


def oracle_action_rows(g, b):
    """Fraction rows of the matrix of the substitution action of one 2x2
    matrix g (as rows) on V_b: column k is oracle.act_binary on the k-th
    basis monomial."""
    basis = oracle.binary_basis(b)
    columns = [oracle.act_binary({e: Fraction(1)}, g) for e in basis]
    return [[col.get(e, Fraction(0)) for col in columns] for e in basis]


def oracle_lie_act(f, mats):
    """lie_act (two traceless 2x2 mats) or lie_act_binary (one) on a dict f,
    as the derivation sum_v image(v) * dF/dv, the derivative at the identity
    of the substitution action: the j-th variable of pair k has the image
    sum_i m[i][j] * (pair k's i-th variable), m the k-th matrix."""
    n = 2 * len(mats)
    total = {}
    for k, m in enumerate(mats):
        for j in range(2):
            image = {tuple(int(v == 2 * k + i) for v in range(n)): Fraction(m[i][j])
                     for i in range(2) if m[i][j]}
            total = oracle.padd(total, oracle.pmul(image, dict_diff(f, 2 * k + j)))
    return total


def oracle_binomial_coeffs(f, d):
    """Binomial-scaled coordinates (alpha_0..alpha_d) of a degree-d binary
    dict f = sum_i C(d,i) * alpha_i * X^i * Y^(d-i)."""
    return [Fraction(f.get((i, d - i), 0)) / comb(d, i) for i in range(d + 1)]


def oracle_apolar_diffop(p, q):
    """apolar_diffop on binary dicts: each term c X^i Y^j of q applies
    (-1)^i c (i+j)! d^(i+j) / dY^i dX^j to p by dict_diff."""
    total = {}
    for (i, j), c in q.items():
        piece = p
        for slot, order in ((0, j), (1, i)):
            for _ in range(order):
                piece = dict_diff(piece, slot)
        scale = (-1) ** i * c * factorial(i + j)
        total = oracle.padd(total, {e: scale * x for e, x in piece.items()})
    return total


def _evaluate(terms, point):
    """The value of a dict polynomial at a point."""
    total = Fraction(0)
    for e, c in terms.items():
        value = Fraction(c)
        for x, k in zip(point, e):
            value *= x ** k
        total += value
    return total


def oracle_singular_system(points, d):
    """Canonical RREF rows of singular_system(points, d): at each point, one
    row evaluates every monomial and one row per variable evaluates every
    monomial's dict_diff in it; the null space comes from oracle.kernel."""
    monomials = oracle_ternary_basis(d)
    system = []
    for point in points:
        point = [Fraction(x) for x in point]
        system.append([_evaluate({e: 1}, point) for e in monomials])
        for v in range(3):
            system.append([_evaluate(dict_diff({e: 1}, v), point) for e in monomials])
    return oracle.kernel(system, len(monomials))[1]


def second_pair_coeffs_desc(terms, n):
    """{(e1, f1): c} coefficient dicts of a bidegree (., n) term dict, by descending X2 power."""
    out = [{} for _ in range(n + 1)]
    for (e1, f1, e2, _), c in terms.items():
        out[n - e2][(e1, f1)] = c
    return out


def interpolate_lagrange(points):
    """Ascending coefficients of the polynomial through (t, value) pairs."""
    n = len(points)
    coeffs = [Fraction(0)] * n
    for i, (ti, yi) in enumerate(points):
        basis, denom = [Fraction(1)], Fraction(1)
        for j, (tj, _) in enumerate(points):
            if j != i:
                new = [Fraction(0)] * (len(basis) + 1)
                for k, c in enumerate(basis):
                    new[k + 1] += c
                    new[k] -= tj * c
                basis, denom = new, denom * (ti - tj)
        for k, c in enumerate(basis):
            coeffs[k] += yi * c / denom
    return coeffs


def oracle_branch_form(f, a, b):
    """Branch form of a biform dict f of bidegree (a, b), as a binary dict of
    degree 2a(b-1), by evaluation and interpolation.

    The second-pair partials are taken on the dict, their (X1,Y1)
    coefficient forms are evaluated at (t, 1) for t = 0..2a(b-1), each
    Sylvester determinant is taken by oracle.det, and the values are
    interpolated by Lagrange.  A vanishing partial gives the zero form.
    """
    n = b - 1
    target = 2 * a * n
    p, q = dict_diff(f, 2), dict_diff(f, 3)
    if not p or not q:
        return {}
    u, v = second_pair_coeffs_desc(p, n), second_pair_coeffs_desc(q, n)
    points = []
    for t in range(target + 1):
        uc = [sum(c * t ** e1 for (e1, _), c in w.items()) for w in u]
        vc = [sum(c * t ** e1 for (e1, _), c in w.items()) for w in v]
        sylvester = [[0] * i + uc + [0] * (n - 1 - i) for i in range(n)]
        sylvester += [[0] * i + vc + [0] * (n - 1 - i) for i in range(n)]
        points.append((t, oracle.det(sylvester)))
    return {(k, target - k): c for k, c in enumerate(interpolate_lagrange(points)) if c}


def oracle_discriminant_b2(f):
    """Branch form of a biform dict f of bidegree (a, 2) by its closed form:
    with F = A X2^2 + B X2 Y2 + C Y2^2, Res(dF/dX2, dF/dY2) = 4AC - B^2,
    a binary dict of degree 2a."""
    a, b, c = second_pair_coeffs_desc(f, 2)
    four_ac = oracle.pmul({(0, 0): Fraction(4)}, oracle.pmul(a, c))
    return oracle.padd(four_ac, oracle.pmul({(0, 0): Fraction(-1)}, oracle.pmul(b, b)))


def laplace_det(mat):
    """Determinant of a square matrix of polynomial dicts ({} is zero) by
    Laplace expansion along the first row (exponential; small matrices only)."""
    if len(mat) == 1:
        return mat[0][0]
    total = {}
    for j, entry in enumerate(mat[0]):
        if entry:
            minor = [row[:j] + row[j + 1:] for row in mat[1:]]
            piece = oracle.pmul(entry, laplace_det(minor))
            total = oracle.padd(total, {e: -c for e, c in piece.items()} if j % 2 else piece)
    return total


def oracle_symbolic_branch_form(f, b):
    """Branch form of a biform dict f of bidegree (., b), b >= 2, as the
    symbolic Sylvester determinant of its second-pair partials: entries are
    binary dicts in (X1, Y1) and laplace_det expands it."""
    n = b - 1
    u = second_pair_coeffs_desc(dict_diff(f, 2), n)
    v = second_pair_coeffs_desc(dict_diff(f, 3), n)
    rows = [[{}] * i + w + [{}] * (n - 1 - i) for w in (u, v) for i in range(n)]
    return laplace_det(rows)


def _strip_xy(terms):
    """(mx, my, u) with the nonzero binary dict terms equal to X^mx * Y^my *
    core, core coprime to X and Y, and u the ascending coefficients of core(X, 1)."""
    mx = min(i for i, _ in terms)
    my = min(j for _, j in terms)
    u = [Fraction(0)] * (max(i for i, _ in terms) - mx + 1)
    for (i, _), c in terms.items():
        u[i - mx] = c
    return mx, my, u


def _univ_gcd(u, v):
    """Monic gcd of univariate Fraction coefficient lists (ascending powers), by Euclid."""
    def deg(w):
        d = len(w) - 1
        while d >= 0 and w[d] == 0:
            d -= 1
        return d

    def rem(w, m):
        w = list(w)
        dm = deg(m)
        for k in range(deg(w), dm - 1, -1):
            c = w[k] / m[dm]
            if c:
                for i in range(dm + 1):
                    w[k - dm + i] -= c * m[i]
        return w[:dm]

    a, b = list(u), list(v)
    while deg(b) >= 0:
        a, b = b, rem(a, b)
    da = deg(a)
    return [c / a[da] for c in a[:da + 1]]


def oracle_binary_gcd(f, g):
    """binary_gcd on (degree, binary dict) pairs, by a Fraction Euclid: the
    powers of X and Y are split off, the cores' dehomogenizations at Y = 1 go
    through Euclid, and the result is scaled so that the coefficient of its
    highest power of X is 1.  Returns a (degree, binary dict) pair."""
    (d, p), (e, q) = f, g
    if not p or not q:
        degree, h = (e, q) if not p else (d, p)
        lead = h[max(h)] if h else 1
        return degree, {m: c / lead for m, c in h.items()}
    fx, fy, fu = _strip_xy(p)
    gx, gy, gu = _strip_xy(q)
    mx, my = min(fx, gx), min(fy, gy)
    core = _univ_gcd(fu, gu)
    k = len(core) - 1
    return mx + my + k, {(mx + t, my + k - t): c for t, c in enumerate(core) if c}


def oracle_components(f, b):
    """The binary dicts (c_0..c_b) of a biform dict f of bidegree (a, b), with
    F = sum_j c_j(X1,Y1) X2^j Y2^(b-j)."""
    components = [{} for _ in range(b + 1)]
    for (i, j, k, _), c in f.items():
        components[k][(i, j)] = c
    return components


def oracle_hyperplane_combo(f, b, seed):
    """sum_j lambda_j c_j of a biform dict, lambda drawn as hyperplane_degree
    draws it for this seed (as perfbench/workloads.py does)."""
    rng = Random(f"hyperplane:{seed}")
    lam = [rng.randint(-9, 9) for _ in range(b + 1)]
    out = {}
    for L, c in zip(lam, oracle_components(f, b)):
        out = oracle.padd(out, {e: L * v for e, v in c.items()})
    return out


# ---------------------------------------------------------------------------
# matrix oracles on Fraction rows
# ---------------------------------------------------------------------------

def oracle_matvec(rows, v):
    """The matrix with the given rows times the vector v, on Fractions."""
    return tuple(sum((Fraction(a) * Fraction(x) for a, x in zip(row, v)), Fraction(0))
                 for row in rows)


def oracle_matmul(a, b):
    """The product of two matrices given as rows, on Fractions."""
    columns = list(zip(*b))
    return [list(oracle_matvec(columns, row)) for row in a]


def oracle_commutator(a, b):
    """ab - ba of two square matrices given as rows, on Fractions."""
    ab, ba = oracle_matmul(a, b), oracle_matmul(b, a)
    return [[x - y for x, y in zip(r, s)] for r, s in zip(ab, ba)]


def is_rref_basis(m):
    """Whether a QMat's stored integer rows over their denominator form a
    canonical reduced row-echelon basis: no zero row, pivots strictly
    increasing, each pivot 1 (its numerator is den) and the only nonzero in
    its column, and gcd(den, *entries) == 1.  That basis of a span is unique."""
    num, den = m._num, m._den
    pivots = [next((j for j, x in enumerate(row) if x), None) for row in num]
    return (den > 0 and None not in pivots and all(p < q for p, q in zip(pivots, pivots[1:]))
            and all(row[p] == den for row, p in zip(num, pivots))
            and all(sum(1 for row in num if row[p]) == 1 for p in pivots)
            and gcd(den, *(x for row in num for x in row)) == 1)


def oracle_residual(basis, v):
    """v eliminated against echelon basis rows one row at a time: the
    multiple of each row that clears v at the row's first nonzero entry."""
    v = [Fraction(x) for x in v]
    for row in basis:
        p = next(j for j, x in enumerate(row) if x != 0)
        c = v[p] / Fraction(row[p])
        v = [a - c * Fraction(x) for a, x in zip(v, row)]
    return tuple(v)


def oracle_det_scalar(g2, basis, b):
    """det of g2 restricted to the span W of RREF rows in V_b (ValueError
    unless g2 maps W into itself): the images of W's basis, their
    coordinates read at the pivots, and oracle.det."""
    a_mat = oracle_action_rows(g2, b)
    images = [oracle_matvec(a_mat, v) for v in basis]
    if any(any(oracle_residual(basis, image)) for image in images):
        raise ValueError("subspace is not invariant under g")
    pivots = [next(j for j, x in enumerate(row) if x != 0) for row in basis]
    return oracle.det([[image[p] for p in pivots] for image in images])


def oracle_act_on_subspace(g, basis, b):
    """RREF rows (Fractions) of the span of g's images of basis rows in V_b."""
    a_mat = oracle_action_rows(g, b)
    return oracle.rref([oracle_matvec(a_mat, v) for v in basis])[0]


def cofactor_det(rows):
    """Cofactor-expansion determinant (exponential; for small matrices)."""
    n = len(rows)
    if n == 0:
        return Fraction(1)
    if n == 1:
        return Fraction(rows[0][0])
    total = Fraction(0)
    for j in range(n):
        if rows[0][j] == 0:
            continue
        minor = [[row[k] for k in range(n) if k != j] for row in rows[1:]]
        total += (-1) ** j * Fraction(rows[0][j]) * cofactor_det(minor)
    return total


# ---------------------------------------------------------------------------
# the tests' own samplers
# ---------------------------------------------------------------------------

def _coeff(rng):
    return Fraction(rng.randint(-9, 9))


def random_invertible2(rng):
    """Random invertible 2x2 matrix with entries in [-9, 9], redrawn while singular."""
    while True:
        m = ((_coeff(rng), _coeff(rng)), (_coeff(rng), _coeff(rng)))
        if m[0][0] * m[1][1] - m[0][1] * m[1][0] != 0:
            return m


def random_group_pair(rng):
    return GroupPair(random_invertible2(rng), random_invertible2(rng))


def random_traceless(rng):
    a = _coeff(rng)
    return ((a, _coeff(rng)), (_coeff(rng), -a))


def random_lie_pair(rng):
    return LiePair(random_traceless(rng), random_traceless(rng))
