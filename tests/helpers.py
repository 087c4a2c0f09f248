"""Independent oracle implementations used to cross-check the library.

Everything here is deliberately written against plain dicts/lists of
Fractions, not against the package's own MPoly/QMat code paths, so a test
comparing the two is a genuine dual-route check.  The matrix oracles
(oracle_matvec, oracle_matmul, oracle_residual, oracle_det_scalar,
oracle_act_on_subspace) work on lists of Fraction rows, the Fraction route
QMat and Subspace took before they stored integers, and oracle_binary_gcd
is the Fraction Euclid binary_gcd ran before it reduced Sylvester rows.
Five exceptions keep the polynomial routes the library used before its
integer index maps: the Lie action and the stabilizer oracles (the MPoly
derivation oracle_lie_act and oracle_residual, every rank by the plain
Gauss-Jordan oracle_rref below), the bi-transvectant oracles (MPoly products
of both operands' full derivative tables, one bi-transvectant per matrix
column), the substitution action (MPoly.substitute on the images of the
variables, one form per matrix column), the apolar operator (MPoly.diff) and
the singular systems (MPoly.evaluate and MPoly.diff on each monomial).

The seeded random 2x2 matrices and Lie pairs at the end are the tests' own
samplers; the package samples only forms, subspaces and SL2 pairs.
"""

from fractions import Fraction
from math import comb, factorial

from biforms.actions import SL2_E, SL2_F, SL2_H, GroupPair, LiePair
from biforms.forms import BiForm, BinaryForm, biform_basis
from biforms.linalg import QMat, Subspace
from biforms.poly import MPoly, RING_BI, RING_XY, RING_XYZ


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


def _images(f, mats):
    """MPoly images of a binary form's or biform's variables under v -> v . m,
    one 2x2 m per variable pair (a QMat or rows of rationals): the j-th
    variable of a pair goes to sum_i m[i][j] * (the pair's i-th variable)."""
    n = len(f.ring)
    images = []
    for start, m in zip(range(0, n, 2), mats):
        m = m.entries if isinstance(m, QMat) else m
        for j in range(2):
            images.append(MPoly(f.ring, {
                tuple(int(v == start + i) for v in range(n)): Fraction(m[i][j])
                for i in range(2)}))
    return images


def _same_type(f, poly):
    return type(f)(f.bidegree if isinstance(f, BiForm) else f.degree, poly)


def oracle_act(g, f):
    """act (g a GroupPair, f a BiForm) or act_binary (g a 2x2 matrix, f a
    BinaryForm) by MPoly.substitute on the images of the variables."""
    mats = (g.g1, g.g2) if isinstance(g, GroupPair) else (g,)
    return _same_type(f, f.poly.substitute(_images(f, mats)))


def oracle_lie_act(x, f):
    """lie_act (x a LiePair, f a BiForm) or lie_act_binary (x a traceless 2x2,
    f a BinaryForm) as the MPoly derivation sum_v image(v) * dF/dv, the
    derivative at the identity of the substitution action."""
    mats = (x.x1, x.x2) if isinstance(x, LiePair) else (x,)
    poly = f.poly
    terms = (image * poly.diff(v) for v, image in zip(f.ring, _images(f, mats)))
    return _same_type(f, sum(terms, MPoly.zero(f.ring)))


def oracle_action_rows(g, b):
    """Fraction rows of the matrix of act_binary(g, .) on V_b: column k is
    oracle_act on the k-th basis monomial."""
    columns = [oracle_act(g, BinaryForm(b, MPoly(RING_XY, {e: 1}))).coeff_vector()
               for e in oracle_binary_basis(b)]
    return [list(row) for row in zip(*columns)]


def oracle_matrix_of_binary_action(g, b):
    """Matrix of act_binary(g, .) on V_b, from oracle_action_rows."""
    return QMat(oracle_action_rows(g, b))


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


def oracle_matvec(rows, v):
    """The matrix with the given rows times the vector v, on Fractions."""
    return tuple(sum((Fraction(a) * Fraction(x) for a, x in zip(row, v)), Fraction(0))
                 for row in rows)


def oracle_matmul(a, b):
    """The product of two matrices given as rows, on Fractions."""
    columns = list(zip(*b))
    return [list(oracle_matvec(columns, row)) for row in a]


def oracle_residual(basis, v):
    """v eliminated against echelon basis rows one row at a time: the
    multiple of each row that clears v at the row's first nonzero entry."""
    v = [Fraction(x) for x in v]
    for row in basis:
        p = next(j for j, x in enumerate(row) if x != 0)
        c = v[p] / Fraction(row[p])
        v = [a - c * Fraction(x) for a, x in zip(v, row)]
    return tuple(v)


def oracle_det_scalar(g, w):
    """det of g2 restricted to W (ValueError unless g2 maps W into itself):
    the images of W's RREF basis, their coordinates read at the pivots."""
    basis = [list(row) for row in w.basis.entries]
    a_mat = oracle_action_rows(g.g2, w.ambient_dim - 1)
    images = [oracle_matvec(a_mat, v) for v in basis]
    if any(any(oracle_residual(basis, image)) for image in images):
        raise ValueError("subspace is not invariant under g")
    pivots = [next(j for j, x in enumerate(row) if x != 0) for row in basis]
    return oracle_det([[image[p] for p in pivots] for image in images])


def oracle_act_on_subspace(g, w):
    """RREF rows (Fractions) of the span of g's images of W's basis."""
    a_mat = oracle_action_rows(g, w.ambient_dim - 1)
    images = [oracle_matvec(a_mat, v) for v in w.basis.entries]
    reduced, rank, _ = oracle_rref(images)
    return reduced[:rank]


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
    """dim {(x, c) : lie_act(x, f) = c f} from oracle_lie_act columns."""
    columns = [oracle_lie_act(LiePair(x, _ZERO2), f).coeff_vector() for x in _LIE_BASIS]
    columns += [oracle_lie_act(LiePair(_ZERO2, x), f).coeff_vector() for x in _LIE_BASIS]
    columns.append(tuple(-c for c in f.coeff_vector()))
    return len(columns) - oracle_rref(list(zip(*columns)))[1]


def oracle_subspace_stabilizer_dim(w):
    """dim {x in sl2 : x.W <= W}: residuals of x.w against W's basis must vanish."""
    b = w.ambient_dim - 1
    basis = [list(row) for row in w.basis.entries]
    rows = []
    for vec in basis:
        form = BinaryForm.from_coeff_vector(b, vec)
        residuals = [oracle_residual(basis, oracle_lie_act(x, form).coeff_vector())
                     for x in _LIE_BASIS]
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


def _strip_xy(vec):
    """(mx, my, u) with the form of coefficient vector vec (X^(d-k) Y^k at
    index k) equal to X^mx * Y^my * core, core coprime to X and Y, and u the
    ascending coefficients of core(X, 1)."""
    nonzero = [k for k, c in enumerate(vec) if c]
    my, top = nonzero[0], nonzero[-1]
    return len(vec) - 1 - top, my, list(vec[my:top + 1])[::-1]


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
    """binary_gcd by a Fraction Euclid: the powers of X and Y are split off,
    the cores' dehomogenizations at Y = 1 go through Euclid, and the result
    is scaled so that its first nonzero coefficient is 1."""
    if f.is_zero() or g.is_zero():
        h = g if f.is_zero() else f
        vec = h.coeff_vector()
        lead = next((c for c in vec if c), 1)
        return BinaryForm.from_coeff_vector(h.degree, [c / lead for c in vec])
    fx, fy, fu = _strip_xy(f.coeff_vector())
    gx, gy, gu = _strip_xy(g.coeff_vector())
    mx, my = min(fx, gx), min(fy, gy)
    # X^(mx+k) Y^(my+e-k) sits at index my + e - k of degree mx + my + e
    vec = [0] * my + _univ_gcd(fu, gu)[::-1] + [0] * mx
    return BinaryForm.from_coeff_vector(len(vec) - 1, vec)


def oracle_apolar_diffop(p, q):
    """apolar_diffop on MPolys: each term c X^i Y^j of q applies
    (-1)^i c d^(i+j) / dY^i dX^j to p by MPoly.diff; the sum is scaled by deg(q)!."""
    total = MPoly.zero(RING_XY)
    for (i, j), c in q.poly.terms.items():
        piece = p.poly
        if j:
            piece = piece.diff("X", j)
        if i:
            piece = piece.diff("Y", i)
        total = total + piece.scale(c * (-1) ** i)
    return BinaryForm(p.degree - q.degree, total.scale(factorial(q.degree)))


def oracle_singular_system(points, d):
    """singular_system by MPoly.evaluate and MPoly.diff on each monomial at
    each point, the null space read off the plain Gauss-Jordan oracle_rref."""
    monos = [MPoly(RING_XYZ, {e: Fraction(1)}) for e in oracle_ternary_basis(d)]
    rows = []
    for p in points:
        p = [Fraction(x) for x in p]
        rows.append([m.evaluate(p) for m in monos])
        for var in RING_XYZ:
            rows.append([m.diff(var).evaluate(p) for m in monos])
    reduced, _, pivots = oracle_rref(rows)
    vectors = []
    for free in range(len(monos)):
        if free not in pivots:
            v = [Fraction(0)] * len(monos)
            v[free] = Fraction(1)
            for row, p in zip(reduced, pivots):
                v[p] = -row[free]
            vectors.append(v)
    return Subspace.from_vectors(len(monos), vectors)


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
