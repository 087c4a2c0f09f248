"""The biform <-> parametrized rational space curve dictionary.

A bidegree-(a,b) biform F = sum_j c_j(X1,Y1) * X2^j * Y2^(b-j) is read as a
morphism from P^1 to the projective space of degree-b binary forms, with
component forms c_j of degree a.  This module computes the linear span and
image subspace of that morphism, the degree of a generic hyperplane pullback,
and the branch form of the first projection (the resultant in (X2,Y2) of the
two second-pair partials, a binary form of degree 2a(b-1) in (X1,Y1)).

Resultants are taken on full bihomogeneous Sylvester matrices, so roots at
infinity need no special-casing.  Polynomial-coefficient resultants (branch
forms) are computed by exact interpolation: the Sylvester determinant is
homogeneous of known degree, so it is pinned down by integer evaluations.
The branch route builds no polynomials and no Fractions: F's integer
columns (F's denominator is s) are evaluated by Horner at t = 0..2a(b-1),
the second-pair partials taken on the values, and each Sylvester
determinant is an integer Bareiss pass.  These samples are the values of
an integer polynomial in t, so its Newton divided differences are exact
integer divisions; the Newton form is expanded on integers and stored over
the one denominator s^(2(b-1)).  branch_form_is_zero takes the same
determinants at the same nodes and stops at the first nonzero one: a
polynomial of degree at most 2a(b-1) with 2a(b-1)+1 zeros is zero.  Every
other curve function reads F's integer vector as the matrix of the map, a+1
rows of b+1 (_rows): the span and the image subspace are its rank and row
space, and the components its columns, c_0 last.

A binary form is squarefree when the Sylvester resultant of its two
partials is nonzero.  The gcd of two binary forms is read off a Bareiss
forward pass on the same Sylvester rows: they span the gcd's multiples of
degree d + e - 1, so the last echelon row is the gcd times a power of Y, up
to scale.  The hyperplane degree needs only the degree k of the gcd G of
the components: for a >= 1 the multiples X1^(a-1-s) Y1^s c_j, s < a, span
G * V_(2a-1-k), since two generic combinations of the c_j / G are coprime,
so their rank is 2a - k.

singular_system computes linear systems of plane curves singular at
prescribed exact points, as the kernel of the integer rows of values and
first partials of the monomials at each point.
"""

from __future__ import annotations

from fractions import Fraction
from random import Random

from .forms import BiForm, BinaryForm, ternary_basis
from .linalg import QMat, Subspace, _bareiss, _int_det, _integer_row, _rank, kernel_basis


def _rows(f: BiForm):
    """F's integer numerators as a+1 rows of b+1, the matrix of the curve map:
    row i holds the X1^(a-i) Y1^i terms and column k the X2^(b-k) Y2^k ones,
    so column b - j is c_j (times F's denominator)."""
    if f.is_zero():
        raise ValueError("zero form")
    num, n = f._num, f.bidegree[1] + 1
    return [list(num[i:i + n]) for i in range(0, len(num), n)]


def phi_components(f: BiForm) -> tuple:
    """(c_0..c_b), each of degree a, with F = sum_j c_j(X1,Y1) X2^j Y2^(b-j)."""
    a, b = f.bidegree
    rows = _rows(f)
    return tuple(BinaryForm._make(a, [row[b - j] for row in rows], f._den) for j in range(b + 1))


def span_dim(f: BiForm) -> int:
    """Projective dimension of the linear span of the image; at most min(a,b)."""
    return _rank([_rows(f)]) - 1


def image_subspace(f: BiForm) -> Subspace:
    """The span in V_b of the rows of F's matrix (dim = span_dim + 1)."""
    return Subspace._span(f.bidegree[1] + 1, _rows(f))


# ---------------------------------------------------------------------------
# binary-form gcd
# ---------------------------------------------------------------------------

def binary_gcd(f: BinaryForm, g: BinaryForm) -> BinaryForm:
    """Gcd of two binary forms (projective roots with multiplicity), scaled
    so that its first nonzero coefficient in basis order is 1.

    For nonzero f, g of degrees d, e the d + e Sylvester rows span
    G * V_(d+e-1-k), G the gcd and k its degree, so the rank is d + e - k
    and the last echelon row of the forward pass is G * Y^(rank-1) up to
    scale (back-substitution would only rescale it).  The pass is the
    complete one: when the pivots skip a column (a common root at infinity),
    the slice read below holds multipliers of earlier steps, which only the
    complete pass zeroes.
    """
    if f.is_zero():
        return g if g.is_zero() else _monic(g)
    if g.is_zero():
        return _monic(f)
    d, e = f.degree, g.degree
    if d + e == 0:
        return BinaryForm._make(0, (1,), 1)
    work = _sylvester_rows(list(f._num), list(g._num))
    rk = len(_bareiss([work])[0])
    return _monic(BinaryForm._make(d + e - rk, work[rk - 1][rk - 1:], 1))


def _monic(f: BinaryForm) -> BinaryForm:
    """f over its leading coefficient (the first nonzero one in basis order)."""
    lead = next(c for c in f._num if c)
    sign = 1 if lead > 0 else -1
    return f._make(f.degree, [sign * c for c in f._num], abs(lead))


# ---------------------------------------------------------------------------
# resultants and branch forms
# ---------------------------------------------------------------------------

def _sylvester_rows(pc, qc):
    """Sylvester matrix of two descending coefficient lists (degrees d + e >= 1)."""
    d, e = len(pc) - 1, len(qc) - 1
    rows = []
    for coeffs, shifts in ((pc, e), (qc, d)):
        for i in range(shifts):
            row = [0] * (d + e)
            row[i:i + len(coeffs)] = coeffs
            rows.append(row)
    return rows


def sylvester_resultant(p: BinaryForm, q: BinaryForm) -> Fraction:
    """Sylvester resultant of two binary forms of degrees d, e >= 1.

    Zero iff p and q share a projective root (roots at infinity included,
    since the matrix is built from the full homogeneous coefficient lists).
    """
    d, e = p.degree, q.degree
    if d < 1 or e < 1:
        raise ValueError("degenerate degrees for resultant")
    # p's vector is its descending coefficient list, p_i at X^(d-i) Y^i; its
    # e rows and q's d rows carry the denominators out of the determinant
    rows = _sylvester_rows(list(p._num), list(q._num))
    return Fraction(_int_det(rows), p._den ** e * q._den ** d)


def is_squarefree(f: BinaryForm) -> bool:
    """No repeated projective root: the partials have a nonzero resultant.
    By Euler's relation their common roots are f's repeated roots; a zero
    partial gives zero Sylvester rows, so X^d and Y^d are not squarefree."""
    if f.degree <= 1:
        return not f.is_zero()
    return _int_det(_sylvester_rows(*_partials(f._num))) != 0


def _partials(c):
    """The X- and Y-partials of a binary form of degree d >= 1 given by its
    integer coefficients, highest power of X first, as two such lists."""
    d = len(c) - 1
    return [(d - k) * c[k] for k in range(d)], [(k + 1) * c[k + 1] for k in range(d)]


def _interpolate(points):
    """Ascending coefficients of the integer polynomial through (t, value) pairs.

    Nodes and values are integers.  For a polynomial with integer
    coefficients every Newton divided difference over integer nodes is an
    integer, so each division is exact; a remainder means the values come
    from no such polynomial and raises ArithmeticError.
    """
    ts = [t for t, _ in points]
    divided = [v for _, v in points]
    n = len(points)
    for level in range(1, n):
        for i in range(n - 1, level - 1, -1):
            q, rem = divmod(divided[i] - divided[i - 1], ts[i] - ts[i - level])
            if rem:
                raise ArithmeticError("divided difference is not an integer")
            divided[i] = q
    # Horner on the Newton form: acc = acc * (t - ts[k]) + divided[k]
    acc = []
    for k in range(n - 1, -1, -1):
        new = [0] * (len(acc) + 1)
        for i, c in enumerate(acc):
            new[i + 1] += c
            new[i] -= c * ts[k]
        new[0] += divided[k]
        acc = new
    return acc


def _branch_columns(f: BiForm):
    """F's integer columns, or None when a second-pair partial is zero (the
    branch form is then zero).  col[k] is the (X1,Y1)-form at X2^(b-k) Y2^k,
    X1-power descending, over F's denominator."""
    a, b = f.bidegree
    if a < 1 or b < 1:
        raise ValueError("bidegree components must be >= 1")
    vec = f._num
    col = [vec[k::b + 1] for k in range(b + 1)]
    # dF/dX2 reads every column but the last, dF/dY2 every one but the first
    if not any(map(any, col[:b])) or not any(map(any, col[1:])):
        return None
    return col


def _branch_value(col, t):
    """The Sylvester determinant of the second-pair partials at X1 = t, Y1 = 1
    (the empty determinant 1 when b = 1), on F's integer columns."""
    return _int_det(_sylvester_rows(*_partials([_horner(w, t) for w in col])))


def branch_form(f: BiForm) -> BinaryForm:
    """Resultant in (X2,Y2) of the two second-pair partials of F.

    A binary form in the first-factor coordinates whose roots are the branch
    points of the projection to the first P^1; for generic F it has degree
    exactly 2a(b-1) and is squarefree.  An identically vanishing resultant
    (degenerate F) is reported as the zero form of that nominal degree.
    """
    col = _branch_columns(f)
    a, b = f.bidegree
    target, n = 2 * a * (b - 1), b - 1
    if col is None:
        return BinaryForm.zero(target)
    # Sylvester determinant has entries homogeneous of degree a, size 2n,
    # so it is homogeneous of degree 2an = target (or identically zero);
    # interpolate its dehomogenization from target+1 integer evaluations.
    samples = [(t, _branch_value(col, t)) for t in range(target + 1)]
    # ascending powers of X1 are the basis order reversed
    return BinaryForm._make(target, _interpolate(samples)[::-1], f._den ** (2 * n))


def branch_form_is_zero(f: BiForm) -> bool:
    """Whether branch_form(f) is the zero form, stopping at the first nonzero
    value: a polynomial of degree at most 2a(b-1) with 2a(b-1)+1 zeros is zero."""
    col = _branch_columns(f)
    a, b = f.bidegree
    return col is None or not any(_branch_value(col, t) for t in range(2 * a * (b - 1) + 1))


def _horner(coeffs, t):
    """Value at t of a polynomial given by coefficients, highest power first."""
    acc = 0
    for c in coeffs:
        acc = acc * t + c
    return acc


def hyperplane_degree(f: BiForm, seed) -> int | None:
    """Degree of (lambda . phi) / gcd(components) for a seeded random lambda.

    Equals the source degree a for generic input.  Returns None in the
    measure-zero event that the drawn functional annihilates the map (callers
    treat that sample as degenerate).  The multiples of the components go
    to the rank one block per component, so a generic form stops after two.
    """
    a, b = f.bidegree
    rows = _rows(f)
    rng = Random(f"hyperplane:{seed}")
    lam = [rng.randint(-9, 9) for _ in range(b + 1)]
    # lambda_j meets c_j, which is column b - j of each row
    if not any(sum(L * x for L, x in zip(lam, row[::-1])) for row in rows):
        return None
    return _rank(_multiples([row[k] for row in rows], a) for k in range(b + 1)) - a


def _multiples(c, a):
    """The 2a rows of the block whose column s is X^(a-1-s) Y^s c, for c of
    degree a given by its coefficients, highest power of X first."""
    return [[c[r - s] if 0 <= r - s <= a else 0 for s in range(a)] for r in range(2 * a)]


# ---------------------------------------------------------------------------
# linear systems of singular plane curves
# ---------------------------------------------------------------------------

def _projectively_equal(p, q):
    return all(p[i] * q[j] == p[j] * q[i] for i in range(3) for j in range(i + 1, 3))


def singular_system(points, d: int) -> Subspace:
    """Degree-d ternary forms vanishing doubly at each given point.

    The constraints F(p) = dF/dX(p) = dF/dY(p) = dF/dZ(p) = 0 are linear in
    the coefficients (the Euler relation makes one redundant); the result is
    the exact solution subspace in the canonical monomial basis.
    """
    # a point's coordinates times one scale c: each of its rows is c^d or
    # c^(d-1) times the old one, so its denominators can be cleared
    pts = [_integer_row(p)[0] for p in points]
    for p in pts:
        if not any(p):
            raise ValueError("zero vector is not a projective point")
    for i in range(len(pts)):
        for j in range(i + 1, len(pts)):
            if _projectively_equal(pts[i], pts[j]):
                raise ValueError("points must be distinct")
    basis = ternary_basis(d)
    rows = []
    for x, y, z in pts:
        rows.append([x ** i * y ** j * z ** k for i, j, k in basis])
        rows.append([i and i * x ** (i - 1) * y ** j * z ** k for i, j, k in basis])
        rows.append([j and j * x ** i * y ** (j - 1) * z ** k for i, j, k in basis])
        rows.append([k and k * x ** i * y ** j * z ** (k - 1) for i, j, k in basis])
    return kernel_basis(QMat._make(rows, 1, len(basis)))
