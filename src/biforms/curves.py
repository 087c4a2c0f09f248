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
The branch route builds no polynomials and no Fractions: the second-pair
partials of F's integer numerators (F's denominator is s) are integer arrays
evaluated by Horner at t = 0..2a(b-1), and each Sylvester determinant is an
integer Bareiss pass.  These samples are the values of an integer
polynomial in t, so its Newton divided differences are exact integer
divisions; the Newton form is expanded on integers and stored over the one
denominator s^(2(b-1)).  The components, the span and the image subspace
are slices and reshapes of F's integer vector.

A binary form is squarefree when the Sylvester resultant of its two
partials is nonzero.  The gcd of two binary forms, which gives the base
locus for the hyperplane degree, is read off a Bareiss forward pass on the
same Sylvester rows: they span the gcd's multiples of degree d + e - 1, so
the last echelon row is the gcd times a power of Y, up to scale.

singular_system computes linear systems of plane curves singular at
prescribed exact points, as the kernel of the integer rows of values and
first partials of the monomials at each point.
"""

from __future__ import annotations

from fractions import Fraction
from random import Random

from .forms import BiForm, BinaryForm, _common, ternary_basis
from .linalg import QMat, Subspace, _bareiss, _int_det, _integer_row, column_space, kernel_basis, rank


class CurveMap:
    """Component forms (c_0..c_b) of a biform, each of degree a in (X1,Y1)."""

    __slots__ = ("source_degree", "components")

    def __init__(self, source_degree, components):
        components = tuple(components)
        for c in components:
            if c.degree != source_degree:
                raise ValueError("all components must share the source degree")
        if all(c.is_zero() for c in components):
            raise ValueError("all components are zero")
        self.source_degree = source_degree
        self.components = components

    @property
    def target_degree(self):
        return len(self.components) - 1

    def __repr__(self):
        return f"CurveMap(a={self.source_degree}, b={self.target_degree})"


def phi_components(f: BiForm) -> CurveMap:
    """Extract (c_0..c_b) with F = sum_j c_j(X1,Y1) X2^j Y2^(b-j)."""
    if f.is_zero():
        raise ValueError("zero form")
    a, b = f.bidegree
    # X1^(a-i) Y1^i X2^j Y2^(b-j) sits at index i*(b+1) + b - j
    return CurveMap(a, [BinaryForm._make(a, f._num[b - j::b + 1], f._den) for j in range(b + 1)])


def reassemble(cm: CurveMap) -> BiForm:
    """Inverse of phi_components."""
    a, b = cm.source_degree, cm.target_degree
    den, nums = _common(cm.components)
    vec = [0] * ((a + 1) * (b + 1))
    for j, num in enumerate(nums):
        vec[b - j::b + 1] = num
    return BiForm._make((a, b), vec, den)


def span_dim(cm: CurveMap) -> int:
    """Projective dimension of the linear span of the image; at most min(a,b)."""
    # column j is c_j's vector; scaling a column keeps the rank
    return rank(QMat._make(list(zip(*(c._num for c in cm.components))), 1)) - 1


def image_subspace(f: BiForm) -> Subspace:
    """Column space in V_b of the linear map induced by F (dim = span_dim + 1)."""
    if f.is_zero():
        raise ValueError("zero form")
    b = f.bidegree[1]
    # row k, column i: F's coefficient at X1^(a-i) Y1^i X2^(b-k) Y2^k (times den)
    return column_space(QMat._make([f._num[k::b + 1] for k in range(b + 1)], 1))


# ---------------------------------------------------------------------------
# binary-form gcd
# ---------------------------------------------------------------------------

def binary_gcd(f: BinaryForm, g: BinaryForm) -> BinaryForm:
    """Gcd of two binary forms (projective roots with multiplicity), scaled
    so that its first nonzero coefficient in basis order is 1.

    For nonzero f, g of degrees d, e the d + e Sylvester rows span
    G * V_(d+e-1-k), G the gcd and k its degree, so the rank is d + e - k
    and the last echelon row of the forward pass is G * Y^(rank-1) up to
    scale (back-substitution would only rescale it).
    """
    if f.is_zero():
        return g if g.is_zero() else _monic(g)
    if g.is_zero():
        return _monic(f)
    d, e = f.degree, g.degree
    if d + e == 0:
        return BinaryForm._make(0, (1,), 1)
    work = _sylvester_rows(list(f._num), list(g._num))
    rk = len(_bareiss(work)[0])
    return _monic(BinaryForm._make(d + e - rk, work[rk - 1][rk - 1:], 1))


def _monic(f: BinaryForm) -> BinaryForm:
    """f over its leading coefficient (the first nonzero one in basis order)."""
    lead = next(c for c in f._num if c)
    sign = 1 if lead > 0 else -1
    return f._make(f.degree, [sign * c for c in f._num], abs(lead))


def gcd_all(forms) -> BinaryForm:
    """gcd of a list of binary forms (zero entries ignored)."""
    nonzero = [f for f in forms if not f.is_zero()]
    if not nonzero:
        raise ValueError("all forms are zero")
    g = _monic(nonzero[0])
    for f in nonzero[1:]:
        if g.degree == 0:
            break
        g = binary_gcd(g, f)
    return g


# ---------------------------------------------------------------------------
# resultants and branch forms
# ---------------------------------------------------------------------------

def _sylvester_rows(pc, qc):
    """Sylvester matrix of two descending coefficient lists (degrees d + e >= 1)."""
    d, e = len(pc) - 1, len(qc) - 1
    return ([[0] * i + pc + [0] * (e - 1 - i) for i in range(e)]
            + [[0] * i + qc + [0] * (d - 1 - i) for i in range(d)])


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
    return sylvester_resultant(f.dx(), f.dy()) != 0


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


def branch_form(f: BiForm) -> BinaryForm:
    """Resultant in (X2,Y2) of the two second-pair partials of F.

    A binary form in the first-factor coordinates whose roots are the branch
    points of the projection to the first P^1; for generic F it has degree
    exactly 2a(b-1) and is squarefree.  An identically vanishing resultant
    (degenerate F) is reported as the zero form of that nominal degree.
    """
    a, b = f.bidegree
    if a < 1 or b < 1:
        raise ValueError("bidegree components must be >= 1")
    target = 2 * a * (b - 1)
    n = b - 1
    vec, s = f._num, f._den
    # col[k]: the (X1,Y1)-form at X2^(b-k) Y2^k, X1-power descending; u[k] and
    # v[k] are the forms at X2^(n-k) Y2^k in s*dF/dX2 and s*dF/dY2
    col = [vec[k::b + 1] for k in range(b + 1)]
    u = [[(b - k) * c for c in col[k]] for k in range(b)]
    v = [[(k + 1) * c for c in col[k + 1]] for k in range(b)]
    if not any(map(any, u)) or not any(map(any, v)):
        return BinaryForm.zero(target)
    if n == 0:
        return BinaryForm._make(0, (1,), 1)
    # Sylvester determinant has entries homogeneous of degree a, size 2n,
    # so it is homogeneous of degree 2an = target (or identically zero);
    # interpolate its dehomogenization from target+1 integer evaluations.
    samples = []
    for t in range(target + 1):
        uc = [_horner(w, t) for w in u]
        vc = [_horner(w, t) for w in v]
        samples.append((t, _int_det(_sylvester_rows(uc, vc))))
    # ascending powers of X1 are the basis order reversed
    return BinaryForm._make(target, _interpolate(samples)[::-1], s ** (2 * n))


def _horner(coeffs, t):
    """Value at t of a polynomial given by coefficients, highest power first."""
    acc = 0
    for c in coeffs:
        acc = acc * t + c
    return acc


def hyperplane_degree(cm: CurveMap, seed) -> int | None:
    """Degree of (lambda . phi) / gcd(components) for a seeded random lambda.

    Equals the source degree a for generic input.  Returns None in the
    measure-zero event that the drawn functional annihilates the map (callers
    treat that sample as degenerate).
    """
    rng = Random(f"hyperplane:{seed}")
    lam = [rng.randint(-9, 9) for _ in cm.components]
    _, nums = _common(cm.components)
    if not any(sum(L * num[k] for L, num in zip(lam, nums))
               for k in range(cm.source_degree + 1)):
        return None
    return cm.source_degree - gcd_all(cm.components).degree


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
