"""Independent oracle implementations used to cross-check the library.

Everything here is deliberately written against plain dicts/lists of
Fractions, not against the package's own MPoly/QMat code paths, so a test
comparing the two is a genuine dual-route check.  Two exceptions keep the
polynomial routes the library used before its integer index maps: the
stabilizer oracles (lie_act / lie_act_binary and Subspace.residual, every
rank by the plain Gauss-Jordan oracle_rref below), and the bi-transvectant
oracles (MPoly products of both operands' full derivative tables, one
bi-transvectant per matrix column).
"""

from fractions import Fraction
from math import comb

from biforms.actions import SL2_E, SL2_F, SL2_H, LiePair, lie_act, lie_act_binary
from biforms.forms import BiForm, BinaryForm, biform_basis
from biforms.linalg import QMat
from biforms.poly import MPoly, RING_BI


def falling(n, k):
    out = 1
    for i in range(k):
        out *= n - i
    return out


def oracle_transvectant(p, q, r):
    """Transvectant of coefficient dicts {exponent_of_X: coeff} of degrees d, e.

    Implements sum_i (-1)^i C(r,i) d^r p/dX^(r-i)dY^i * d^r q/dX^i dY^(r-i)
    directly on monomials, returning a dict for a degree d+e-2r form.
    """
    d_p, d_q = p["degree"], q["degree"]
    out = {}
    for i in range(r + 1):
        sign = (-1) ** i * comb(r, i)
        # derivative of X^u Y^(d-u) by X^(r-i) Y^i
        for u, cu in p["coeffs"].items():
            fu = falling(u, r - i) * falling(d_p - u, i)
            if fu == 0:
                continue
            for v, cv in q["coeffs"].items():
                fv = falling(v, i) * falling(d_q - v, r - i)
                if fv == 0:
                    continue
                k = (u - (r - i)) + (v - i)
                out[k] = out.get(k, Fraction(0)) + sign * fu * fv * cu * cv
    return {k: c for k, c in out.items() if c != 0}


def _mpoly_derivative_table(p, xvar, yvar, r):
    """table[i] = d^r p / d xvar^(r-i) d yvar^i for i = 0..r, by MPoly.diff."""
    row = [p]
    for _ in range(r):
        row = [q.diff(xvar) for q in row] + [row[-1].diff(yvar)]
    return row


def oracle_bitransvectant(f, g, r, s):
    """T_(r,s)(f, g) as the double Cayley sum of MPoly products of derivative tables."""
    (a, b), (a2, b2) = f.bidegree, g.bidegree
    df = [_mpoly_derivative_table(row, "X2", "Y2", s)
          for row in _mpoly_derivative_table(f.poly, "X1", "Y1", r)]
    dg = [_mpoly_derivative_table(row, "X2", "Y2", s)
          for row in _mpoly_derivative_table(g.poly, "X1", "Y1", r)]
    total = MPoly.zero(RING_BI)
    for i in range(r + 1):
        for j in range(s + 1):
            term = df[i][j] * dg[r - i][s - j]
            total = total + term.scale((-1) ** (i + j) * comb(r, i) * comb(s, j))
    return BiForm((a + a2 - 2 * r, b + b2 - 2 * s), total)


def oracle_transvectant_matrix(f, r, s, source_bidegree):
    """Matrix of G -> T_(r,s)(f, G): one oracle_bitransvectant per basis monomial."""
    columns = []
    for exps in biform_basis(*source_bidegree):
        e = BiForm(source_bidegree, MPoly(RING_BI, {exps: 1}))
        columns.append(oracle_bitransvectant(f, e, r, s).coeff_vector())
    return QMat.from_columns(columns)


def oracle_binary_basis(d):
    """Degree-d binary exponents, X^d first (explicit loop)."""
    return [(d - k, k) for k in range(d + 1)]


def oracle_biform_basis(a, b):
    """Bidegree-(a,b) exponents in descending lex order (explicit loops)."""
    out = []
    for i in range(a, -1, -1):
        for j in range(b, -1, -1):
            out.append((i, a - i, j, b - j))
    return out


def oracle_ternary_basis(d):
    """Degree-d ternary exponents in descending lex order (explicit loops)."""
    out = []
    for i in range(d, -1, -1):
        for j in range(d - i, -1, -1):
            out.append((i, j, d - i - j))
    return out


def form_to_dict(f):
    """BinaryForm -> the oracle's representation."""
    return {
        "degree": f.degree,
        "coeffs": {e[0]: c for e, c in f.poly.terms.items()},
    }


def pair_text(p, suffix):
    """Text of a BinaryForm in the variables X<suffix>, Y<suffix>, in parentheses."""
    return "(" + str(p).replace("X", "X" + suffix).replace("Y", "Y" + suffix) + ")"


def dict_matches_form(d, f):
    return d == {e[0]: c for e, c in f.poly.terms.items() if c}


def oracle_rref(rows):
    """Plain Fraction Gauss-Jordan, no Bareiss: returns (rref rows, rank, pivots)."""
    m = [[Fraction(x) for x in row] for row in rows]
    nrows = len(m)
    ncols = len(m[0]) if m else 0
    pivots = []
    r = 0
    for c in range(ncols):
        piv = next((i for i in range(r, nrows) if m[i][c] != 0), None)
        if piv is None:
            continue
        m[r], m[piv] = m[piv], m[r]
        inv = m[r][c]
        m[r] = [x / inv for x in m[r]]
        for i in range(nrows):
            if i != r and m[i][c] != 0:
                f = m[i][c]
                m[i] = [a - f * b for a, b in zip(m[i], m[r])]
        pivots.append(c)
        r += 1
    return m, r, pivots


def oracle_det(rows):
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
        total += (-1) ** j * Fraction(rows[0][j]) * oracle_det(minor)
    return total


def gauss_det(rows):
    """Determinant by plain Fraction Gaussian elimination."""
    m = [[Fraction(x) for x in row] for row in rows]
    n = len(m)
    total = Fraction(1)
    for c in range(n):
        piv = next((i for i in range(c, n) if m[i][c] != 0), None)
        if piv is None:
            return Fraction(0)
        if piv != c:
            m[c], m[piv] = m[piv], m[c]
            total = -total
        total *= m[c][c]
        for i in range(c + 1, n):
            f = m[i][c] / m[c][c]
            if f:
                m[i] = [a - f * b for a, b in zip(m[i], m[c])]
    return total


_LIE_BASIS = (SL2_E, SL2_F, SL2_H)
_ZERO2 = ((0, 0), (0, 0))


def oracle_projective_stabilizer_dim(f):
    """dim {(x, c) : lie_act(x, f) = c f} from polynomial Lie-action columns."""
    columns = [lie_act(LiePair(x, _ZERO2), f).coeff_vector() for x in _LIE_BASIS]
    columns += [lie_act(LiePair(_ZERO2, x), f).coeff_vector() for x in _LIE_BASIS]
    columns.append(tuple(-c for c in f.coeff_vector()))
    return len(columns) - oracle_rref(list(zip(*columns)))[1]


def oracle_subspace_stabilizer_dim(w):
    """dim {x in sl2 : x.W <= W}: residuals of x.w against W's basis must vanish."""
    b = w.ambient_dim - 1
    rows = []
    for vec in w.basis.entries:
        form = BinaryForm.from_coeff_vector(b, vec)
        residuals = [w.residual(lie_act_binary(x, form).coeff_vector()) for x in _LIE_BASIS]
        rows.extend(zip(*residuals))
    return 3 - oracle_rref(rows)[1]


def dict_diff(terms, slot):
    """Partial derivative of an {exponent tuple: coeff} dict in one variable slot."""
    out = {}
    for e, c in terms.items():
        if e[slot]:
            lowered = list(e)
            lowered[slot] -= 1
            out[tuple(lowered)] = e[slot] * c
    return out


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


def oracle_branch_form(f):
    """Branch form of a BiForm as {X-exponent: coeff}, by evaluation and interpolation.

    The second-pair partials are taken on the term dict, their (X1,Y1)
    coefficient forms are evaluated at (t, 1) for t = 0..2a(b-1), each
    Sylvester determinant is taken by gauss_det, and the values are
    interpolated by Lagrange.  A vanishing partial gives the zero form.
    """
    a, b = f.bidegree
    n = b - 1
    target = 2 * a * n
    terms = dict(f.poly.terms)
    p, q = dict_diff(terms, 2), dict_diff(terms, 3)
    if not p or not q:
        return {}
    u, v = second_pair_coeffs_desc(p, n), second_pair_coeffs_desc(q, n)
    points = []
    for t in range(target + 1):
        uc = [sum(c * t ** e1 for (e1, _), c in w.items()) for w in u]
        vc = [sum(c * t ** e1 for (e1, _), c in w.items()) for w in v]
        rows = [[0] * i + uc + [0] * (n - 1 - i) for i in range(n)]
        rows += [[0] * i + vc + [0] * (n - 1 - i) for i in range(n)]
        points.append((t, gauss_det(rows)))
    return {k: c for k, c in enumerate(interpolate_lagrange(points)) if c}
