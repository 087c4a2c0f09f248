"""Homogeneous forms: BinaryForm, BiForm, TernaryForm.

One type, `_Form`, wraps an MPoly with its degree and rejects input that is
not homogeneous of that degree in each group of variables.  The three public
classes only declare their ring and its variable groups: a binary form lives
on (X, Y), one group of two; a biform on (X1, Y1 | X2, Y2), two groups of
two, with the bidegree as its degree; a ternary form on (X, Y, Z), one group
of three.  The zero form is allowed and keeps its nominal degree, so
dimension bookkeeping stays well defined.

Every monomial basis is the same function of the grading, in descending
lexicographic order on exponent tuples (X^d first for binary forms,
X1-heavy terms first for biforms); coefficient vectors and matrices
throughout the package use this ordering.

Binomial-scaled coordinates: a degree-d binary form can be written
f = sum_i C(d,i) * alpha_i * X^i * Y^(d-i); binomial_coeffs / from_binomial_coeffs
convert between f and (alpha_0..alpha_d).  Plain monomial coefficients remain
the storage basis.
"""

from __future__ import annotations

from fractions import Fraction
from functools import lru_cache
from math import comb

from .poly import MPoly, RING_BI, RING_XY, RING_XYZ
from .parsing import parse_form


def _monomials(n, d):
    """Exponent tuples of the degree-d monomials in n variables, descending lex."""
    if n == 1:
        return [(d,)]
    return [(i, *rest) for i in range(d, -1, -1) for rest in _monomials(n - 1, d - i)]


@lru_cache(maxsize=256)
def _basis(groups, grading):
    """Monomials of degree grading[k] in the k-th group of groups[k]
    consecutive variables, in descending lexicographic order."""
    out = [()]
    for n, d in zip(groups, grading):
        out = [e + m for e in out for m in _monomials(n, d)]
    return tuple(out)


def binary_basis(d):
    """Exponent tuples of the degree-d binary monomials, X^d first."""
    return list(_basis(BinaryForm.groups, (d,)))


def biform_basis(a, b):
    """Exponent tuples of the bidegree-(a,b) monomials, descending lex."""
    return list(_basis(BiForm.groups, (a, b)))


def ternary_basis(d):
    """Exponent tuples of the degree-d ternary monomials, descending lex."""
    return list(_basis(TernaryForm.groups, (d,)))


class _Form:
    """A polynomial over `ring` of fixed degree in each group of variables.

    A subclass declares `ring`, the sizes `groups` of its consecutive
    variable groups, and `grade`, which maps an exponent tuple to its degree
    as the constructor takes it: an int for one group, a tuple of ints for
    several.  The degree is kept in the slot `_degree`, which each subclass
    also binds under its public name.
    """

    __slots__ = ("_degree", "poly")

    def __init__(self, degree, poly):
        if poly.ring != self.ring:
            raise ValueError(f"{type(self).__name__} requires ring {self.ring}")
        terms = poly.terms
        grade = self.grade
        for exps in terms:
            if grade(exps) != degree:
                raise ValueError(f"term {exps} is not of degree {degree}")
        if not terms:  # no term's grade has vouched for the degree
            self._grading(degree)
        self._degree = degree
        self.poly = poly

    @classmethod
    def _grading(cls, degree):
        """The degree as a tuple with one entry per variable group."""
        grading = degree if len(cls.groups) > 1 else (degree,)
        if (type(grading) is not tuple or len(grading) != len(cls.groups)
                or not all(type(d) is int and d >= 0 for d in grading)):
            raise ValueError(f"{cls.__name__} needs one int >= 0 per variable group, "
                             f"not {degree!r}")
        return grading

    def _replace(self, poly):
        """This form's type and degree around `poly`, which must have them: the
        sum, difference, scaling, linear substitution within each variable
        group, or derivation of such forms' polynomials."""
        new = object.__new__(type(self))
        new._degree = self._degree
        new.poly = poly
        return new

    @classmethod
    def zero(cls, degree):
        return cls(degree, MPoly.zero(cls.ring))

    @classmethod
    def from_poly(cls, poly, degree=None, *, bidegree=None):
        """Wrap a homogeneous MPoly; the degree is read off a term when not
        given.  `bidegree` is BiForm's name for `degree`."""
        if bidegree is not None:
            degree = bidegree
        if degree is None:
            if poly.is_zero():
                raise ValueError("zero polynomial needs an explicit degree")
            if poly.ring == cls.ring:  # otherwise the constructor rejects the ring
                degree = cls.grade(next(iter(poly.terms)))
        return cls(degree, poly)

    @classmethod
    def parse(cls, text, degree=None, *, bidegree=None):
        return cls.from_poly(parse_form(text, cls.ring), degree, bidegree=bidegree)

    def coeff_vector(self):
        """Coefficients in the canonical basis."""
        return tuple(map(self.poly.coefficient, _basis(self.groups, self._grading(self._degree))))

    def _from_coeff_vector(cls, degree, vec):
        basis = _basis(cls.groups, cls._grading(degree))
        if len(vec) != len(basis):
            raise ValueError("coefficient vector has wrong length")
        return cls(degree, MPoly(cls.ring, {e: Fraction(c) for e, c in zip(basis, vec) if c}))

    def __add__(self, other):
        if type(other) is not type(self) or other._degree != self._degree:
            raise ValueError("can only add forms of identical degree")
        return self._replace(self.poly + other.poly)

    def __sub__(self, other):
        if type(other) is not type(self) or other._degree != self._degree:
            raise ValueError("can only subtract forms of identical degree")
        return self._replace(self.poly - other.poly)

    def __rmul__(self, c):
        return self._replace(self.poly.scale(c))

    def __neg__(self):
        return self._replace(-self.poly)

    def is_zero(self):
        return self.poly.is_zero()

    def __eq__(self, other):
        return (
            type(other) is type(self)
            and self._degree == other._degree
            and self.poly == other.poly
        )

    def __hash__(self):
        return hash((type(self).__name__, self._degree, self.poly))

    def __str__(self):
        return str(self.poly)

    def __repr__(self):
        return f"{type(self).__name__}({self._degree}, {self.poly})"


# Each class binds coeff_vector and from_coeff_vector in its own body, because
# perfbench/tracer.py wraps them per class, read from the class __dict__.  Each
# binds a fresh classmethod of the shared function: a classmethod read off
# another class would stay bound to that class and build its instances.

class BinaryForm(_Form):
    """Homogeneous polynomial of fixed degree in (X, Y)."""

    __slots__ = ()
    ring, groups, grade = RING_XY, (2,), sum
    degree = _Form._degree
    coeff_vector = _Form.coeff_vector
    from_coeff_vector = classmethod(_Form._from_coeff_vector)

    def dx(self, order=1):
        return BinaryForm(max(self.degree - order, 0), self.poly.diff("X", order))

    def dy(self, order=1):
        return BinaryForm(max(self.degree - order, 0), self.poly.diff("Y", order))


class BiForm(_Form):
    """Bihomogeneous polynomial of fixed bidegree in (X1,Y1),(X2,Y2)."""

    __slots__ = ()
    ring, groups = RING_BI, (2, 2)
    grade = staticmethod(lambda e: (e[0] + e[1], e[2] + e[3]))
    bidegree = _Form._degree
    coeff_vector = _Form.coeff_vector
    from_coeff_vector = classmethod(_Form._from_coeff_vector)

    @classmethod
    def from_pq(cls, p: BinaryForm, q: BinaryForm):
        """Build the bidegree-(1,b) form X1*p(X2,Y2) + Y1*q(X2,Y2)."""
        if p.degree != q.degree:
            raise ValueError("p and q must share a degree")
        x1 = MPoly.variable(RING_BI, "X1")
        y1 = MPoly.variable(RING_BI, "Y1")
        return cls((1, p.degree), x1 * embed_second(p).poly + y1 * embed_second(q).poly)

    def pq(self):
        """Split a bidegree-(1,b) form as (p, q) with F = X1*p + Y1*q."""
        a, b = self.bidegree
        if a != 1:
            raise ValueError("pq() requires bidegree (1, b)")
        p = extract_second(BiForm((0, b), self.poly.diff("X1")))
        q = extract_second(BiForm((0, b), self.poly.diff("Y1")))
        return p, q


class TernaryForm(_Form):
    """Homogeneous polynomial of fixed degree in (X, Y, Z)."""

    __slots__ = ()
    ring, groups, grade = RING_XYZ, (3,), sum
    degree = _Form._degree
    coeff_vector = _Form.coeff_vector
    from_coeff_vector = classmethod(_Form._from_coeff_vector)


def embed_first(p: BinaryForm) -> BiForm:
    """View a binary form as a biform of bidegree (d, 0) in (X1, Y1)."""
    terms = {(i, j, 0, 0): c for (i, j), c in p.poly.terms.items()}
    return BiForm((p.degree, 0), MPoly(RING_BI, terms))


def embed_second(p: BinaryForm) -> BiForm:
    """View a binary form as a biform of bidegree (0, d) in (X2, Y2)."""
    terms = {(0, 0, i, j): c for (i, j), c in p.poly.terms.items()}
    return BiForm((0, p.degree), MPoly(RING_BI, terms))


def extract_second(f: BiForm) -> BinaryForm:
    """Inverse of embed_second on bidegree-(0, b) biforms."""
    a, b = f.bidegree
    if a != 0:
        raise ValueError("form has X1/Y1 content")
    terms = {(e[2], e[3]): c for e, c in f.poly.terms.items()}
    return BinaryForm(b, MPoly(RING_XY, terms))


def extract_first(f: BiForm) -> BinaryForm:
    """Inverse of embed_first on bidegree-(a, 0) biforms."""
    a, b = f.bidegree
    if b != 0:
        raise ValueError("form has X2/Y2 content")
    terms = {(e[0], e[1]): c for e, c in f.poly.terms.items()}
    return BinaryForm(a, MPoly(RING_XY, terms))


def tensor_product(p: BinaryForm, q: BinaryForm) -> BiForm:
    """The decomposable biform p(X1,Y1) * q(X2,Y2) of bidegree (deg p, deg q)."""
    terms = {}
    for (i, j), c in p.poly.terms.items():
        for (k, m), d in q.poly.terms.items():
            terms[(i, j, k, m)] = c * d
    return BiForm((p.degree, q.degree), MPoly(RING_BI, terms))


def binomial_coeffs(f: BinaryForm):
    """Binomial-scaled coordinates (alpha_0..alpha_d), alpha_i attached to X^i*Y^(d-i)."""
    d = f.degree
    return [f.poly.coefficient((i, d - i)) / comb(d, i) for i in range(d + 1)]


def from_binomial_coeffs(d, alphas) -> BinaryForm:
    """Inverse of binomial_coeffs: f = sum_i C(d,i)*alpha_i*X^i*Y^(d-i)."""
    if len(alphas) != d + 1:
        raise ValueError("need d+1 coordinates")
    terms = {}
    for i, alpha in enumerate(alphas):
        c = comb(d, i) * Fraction(alpha)
        if c:
            terms[(i, d - i)] = c
    return BinaryForm(d, MPoly(RING_XY, terms))
