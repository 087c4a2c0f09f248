"""Homogeneous forms: BinaryForm, BiForm, TernaryForm.

One type, `_Form`, stores a polynomial of fixed degree in each group of
variables as integer numerators over one common denominator (the layout of
FLINT's fmpq_poly): `_num`, a tuple of ints in the canonical basis order, and
`_den`, a positive int.  The pair is canonical, gcd(den, *num) = 1 and the
zero form has den = 1, so equality and hashing are tuple operations; `_make`
is the one private constructor, reducing the pair by linalg._reduce as QMat
does.  The integer kernels read and write this storage directly, and forms
print straight from it.  `parse` reads the parser's terms into this
storage, checking each term's degree.

The three public classes only declare their ring and its variable groups: a
binary form lives on (X, Y), one group of two; a biform on (X1, Y1 | X2, Y2),
two groups of two, with the bidegree as its degree; a ternary form on
(X, Y, Z), one group of three.  The zero form is allowed and keeps its
nominal degree, so dimension bookkeeping stays well defined.

Every monomial basis is the same function of the grading, in descending
lexicographic order on exponent tuples, which is also the printing order:
index k of a binary form holds X^(d-k) Y^k, and index i*(b+1) + k of a
bidegree-(a,b) biform holds X1^(a-i) Y1^i X2^(b-k) Y2^k.

Binomial-scaled coordinates: from_binomial_coeffs builds the degree-d binary
form f = sum_i C(d,i) * alpha_i * X^i * Y^(d-i) from (alpha_0..alpha_d).
Plain monomial coefficients remain the storage basis.
"""

from __future__ import annotations

from fractions import Fraction
from functools import lru_cache
from math import comb, lcm, prod

from .linalg import _integer_row, _reduce
from .parsing import format_terms, parse_form
from .poly import RING_BI, RING_XY, RING_XYZ


def _monomials(n, d):
    """Exponent tuples of the degree-d monomials in n variables, descending lex."""
    if n == 1:
        return [(d,)]
    return [(i, *rest) for i in range(d, -1, -1) for rest in _monomials(n - 1, d - i)]


MAX_DIM = 10_000   # coefficients of one form; registry, demos, tests and benchmark use <= 121


@lru_cache(maxsize=256)
def _basis(groups, grading):
    """Monomials of degree grading[k] in the k-th group of groups[k]
    consecutive variables, in descending lexicographic order, each mapped
    to its index (read-only: the dict is shared)."""
    dim = prod(comb(d + n - 1, n - 1) if d >= 0 else 0 for n, d in zip(groups, grading))
    if dim > MAX_DIM:
        raise ValueError(f"a form of degree {grading} has {dim} coefficients, "
                         f"more than {MAX_DIM}")
    out = [()]
    for n, d in zip(groups, grading):
        out = [e + m for e in out for m in _monomials(n, d)]
    return {e: i for i, e in enumerate(out)}


def binary_basis(d):
    """Exponent tuples of the degree-d binary monomials, X^d first."""
    return list(_basis(BinaryForm.groups, (d,)))


def biform_basis(a, b):
    """Exponent tuples of the bidegree-(a,b) monomials, descending lex."""
    return list(_basis(BiForm.groups, (a, b)))


def ternary_basis(d):
    """Exponent tuples of the degree-d ternary monomials, descending lex."""
    return list(_basis(TernaryForm.groups, (d,)))


def _common(forms):
    """(den, numerators): the forms' integer vectors over their least common denominator."""
    den = lcm(*(f._den for f in forms))
    return den, [[x * (den // f._den) for x in f._num] for f in forms]


class _Form:
    """A polynomial over `ring` of fixed degree in each group of variables.

    A subclass declares `ring`, the sizes `groups` of its consecutive
    variable groups, and `grade`, which maps an exponent tuple to its degree
    as `parse` takes it: an int for one group, a tuple of ints for
    several.  The degree is kept in the slot `_degree`, which each subclass
    also binds under its public name.
    """

    __slots__ = ("_degree", "_num", "_den")

    @classmethod
    def _grading(cls, degree):
        """The degree as a tuple with one entry per variable group."""
        grading = degree if len(cls.groups) > 1 else (degree,)
        if (type(grading) is not tuple or len(grading) != len(cls.groups)
                or not all(type(d) is int and d >= 0 for d in grading)):
            raise ValueError(f"{cls.__name__} needs one int >= 0 per variable group, "
                             f"not {degree!r}")
        return grading

    @classmethod
    def _make(cls, degree, num, den):
        """The form num / den of this type and degree: num holds integer
        numerators in basis order (its length is not checked) and den > 0
        their common denominator.  The pair is reduced to the canonical one."""
        new = object.__new__(cls)
        new._degree = degree
        (new._num,), new._den = _reduce((num,), den)
        return new

    def _exponents(self):
        return _basis(self.groups, self._grading(self._degree))

    def _terms(self):
        """(exponents, Fraction) of the nonzero terms, in canonical order."""
        den = self._den
        return [(e, Fraction(n, den)) for e, n in zip(self._exponents(), self._num) if n]

    @classmethod
    def zero(cls, degree):
        return cls._make(degree, (0,) * len(_basis(cls.groups, cls._grading(degree))), 1)

    @classmethod
    def parse(cls, text, degree=None):
        """The form text denotes; the degree is read off a term when not given."""
        terms = parse_form(text, cls.ring).terms
        if degree is None:
            if not terms:
                raise ValueError("zero polynomial needs an explicit degree")
            degree = cls.grade(next(iter(terms)))
        index = _basis(cls.groups, cls._grading(degree))
        num = [0] * len(index)
        ints, den = _integer_row(list(terms.values()))
        for exps, n in zip(terms, ints):
            i = index.get(exps)
            if i is None:
                raise ValueError(f"term {exps} is not of degree {degree}")
            num[i] = n
        return cls._make(degree, num, den)

    def coeff_vector(self):
        """Coefficients in the canonical basis, as Fractions."""
        den = self._den
        return tuple(Fraction(n, den) for n in self._num)

    def _from_coeff_vector(cls, degree, vec):
        if len(vec) != len(_basis(cls.groups, cls._grading(degree))):
            raise ValueError("coefficient vector has wrong length")
        return cls._make(degree, *_integer_row(vec))

    def _sum(self, other, sign, verb):
        if type(other) is not type(self) or other._degree != self._degree:
            raise ValueError(f"can only {verb} forms of identical degree")
        den, (u, v) = _common((self, other))
        return self._make(self._degree, [x + sign * y for x, y in zip(u, v)], den)

    def __add__(self, other):
        return self._sum(other, 1, "add")

    def __sub__(self, other):
        return self._sum(other, -1, "subtract")

    def __rmul__(self, c):
        (n,), d = _integer_row([c])
        return self._make(self._degree, [n * x for x in self._num], d * self._den)

    def __neg__(self):
        return self._make(self._degree, [-x for x in self._num], self._den)

    def is_zero(self):
        return not any(self._num)

    def __eq__(self, other):
        return (type(other) is type(self) and self._degree == other._degree
                and self._den == other._den and self._num == other._num)

    def __hash__(self):
        return hash((type(self).__name__, self._degree, self._den, self._num))

    def __str__(self):
        return format_terms(self.ring, self._terms())

    def __repr__(self):
        return f"{type(self).__name__}.parse({str(self)!r}, {self._degree!r})"


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
        den, (u, v) = _common((p, q))
        return cls._make((1, p.degree), u + v, den)

    def pq(self):
        """Split a bidegree-(1,b) form as (p, q) with F = X1*p + Y1*q."""
        a, b = self.bidegree
        if a != 1:
            raise ValueError("pq() requires bidegree (1, b)")
        num, den = self._num, self._den
        return BinaryForm._make(b, num[:b + 1], den), BinaryForm._make(b, num[b + 1:], den)


class TernaryForm(_Form):
    """Homogeneous polynomial of fixed degree in (X, Y, Z)."""

    __slots__ = ()
    ring, groups, grade = RING_XYZ, (3,), sum
    degree = _Form._degree
    coeff_vector = _Form.coeff_vector
    from_coeff_vector = classmethod(_Form._from_coeff_vector)


def tensor_product(p: BinaryForm, q: BinaryForm) -> BiForm:
    """The decomposable biform p(X1,Y1) * q(X2,Y2) of bidegree (deg p, deg q)."""
    return BiForm._make((p.degree, q.degree), [x * y for x in p._num for y in q._num],
                        p._den * q._den)


def from_binomial_coeffs(d, alphas) -> BinaryForm:
    """The binary form f = sum_i C(d,i)*alpha_i*X^i*Y^(d-i) of binomial-scaled
    coordinates alphas = (alpha_0..alpha_d)."""
    if len(alphas) != d + 1:
        raise ValueError("need d+1 coordinates")
    nums, s = _integer_row(alphas)
    return BinaryForm._make(d, [comb(d, i) * nums[i] for i in range(d, -1, -1)], s)
