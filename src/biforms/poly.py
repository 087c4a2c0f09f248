"""Sparse multihomogeneous polynomials over the rationals.

A polynomial lives in a fixed *ring*, given as an ordered tuple of variable
names.  Three rings are used throughout the package:

    RING_XY  = ("X", "Y")                 binary forms
    RING_BI  = ("X1", "Y1", "X2", "Y2")   biforms on P^1 x P^1
    RING_XYZ = ("X", "Y", "Z")            ternary (plane) forms

Terms are stored as a map from exponent tuples to nonzero Fraction
coefficients.  Zero coefficients are never stored; the zero polynomial is the
empty map.  The canonical term order is lexicographic on exponent tuples with
the earlier ring variables dominating (X1 > Y1 > X2 > Y2, X > Y > Z), largest
term first.  Equality, hashing and printing all go through this canonical
order, so two polynomials are equal iff they print identically.

All values are immutable after construction and safe to share between tasks.
"""

from __future__ import annotations

from fractions import Fraction
from operator import add
from types import MappingProxyType

RING_XY = ("X", "Y")
RING_BI = ("X1", "Y1", "X2", "Y2")
RING_XYZ = ("X", "Y", "Z")


class MPoly:
    """Sparse polynomial with exact rational coefficients."""

    __slots__ = ("ring", "_terms", "_key")

    def __init__(self, ring, terms):
        ring = tuple(ring)
        n = len(ring)
        clean = {}
        for exps, coeff in terms.items():
            exps = tuple(exps)
            if len(exps) != n:
                raise ValueError(f"exponent vector {exps} has arity {len(exps)}, ring has {n}")
            if any(e < 0 or e != int(e) for e in exps):
                raise ValueError(f"bad exponent vector {exps}")
            coeff = Fraction(coeff)
            if coeff == 0:
                continue
            if exps in clean:
                raise ValueError(f"duplicate exponent vector {exps}")
            clean[exps] = coeff
        self.ring = ring
        self._terms = clean
        self._key = None

    @classmethod
    def _trusted(cls, ring, terms):
        """Wrap a term map that is already clean: exponent tuples of the ring's
        arity, nonzero Fraction coefficients.  Only for results of the
        arithmetic on clean term maps; public construction goes through __init__."""
        p = object.__new__(cls)
        p.ring = ring
        p._terms = terms
        p._key = None
        return p

    @classmethod
    def zero(cls, ring):
        return cls(ring, {})

    @classmethod
    def constant(cls, ring, c):
        c = Fraction(c)
        if c == 0:
            return cls.zero(ring)
        return cls(ring, {(0,) * len(ring): c})

    @classmethod
    def variable(cls, ring, name):
        ring = tuple(ring)
        if name not in ring:
            raise ValueError(f"variable {name!r} not in ring {ring}")
        exps = [0] * len(ring)
        exps[ring.index(name)] = 1
        return cls(ring, {tuple(exps): Fraction(1)})

    @property
    def terms(self):
        """Read-only view of the term map (exponent tuple -> Fraction)."""
        return MappingProxyType(self._terms)

    def items_sorted(self):
        """Terms in canonical order, largest monomial first."""
        if self._key is None:
            self._key = tuple(sorted(self._terms.items(), reverse=True))
        return self._key

    def is_zero(self):
        return not self._terms

    def coefficient(self, exps):
        return self._terms.get(tuple(exps), Fraction(0))

    def _check_ring(self, other):
        if self.ring != other.ring:
            raise ValueError(f"ring mismatch: {self.ring} vs {other.ring}")

    def __add__(self, other):
        if not isinstance(other, MPoly):
            other = MPoly.constant(self.ring, other)
        self._check_ring(other)
        terms = dict(self._terms)
        for exps, c in other._terms.items():
            s = terms.get(exps, 0) + c
            if s == 0:
                terms.pop(exps, None)
            else:
                terms[exps] = s
        return MPoly._trusted(self.ring, terms)

    __radd__ = __add__

    def __neg__(self):
        return MPoly._trusted(self.ring, {e: -c for e, c in self._terms.items()})

    def __sub__(self, other):
        if not isinstance(other, MPoly):
            other = MPoly.constant(self.ring, other)
        return self + (-other)

    def __rsub__(self, other):
        return (-self) + other

    def __mul__(self, other):
        if not isinstance(other, MPoly):
            return self.scale(other)
        self._check_ring(other)
        terms = {}
        for e1, c1 in self._terms.items():
            for e2, c2 in other._terms.items():
                e = tuple(map(add, e1, e2))
                s = terms.get(e, 0) + c1 * c2
                if s == 0:
                    terms.pop(e, None)
                else:
                    terms[e] = s
        return MPoly._trusted(self.ring, terms)

    def __rmul__(self, other):
        return self.scale(other)

    def scale(self, c):
        c = Fraction(c)
        if c == 0:
            return MPoly.zero(self.ring)
        return MPoly._trusted(self.ring, {e: c * v for e, v in self._terms.items()})

    def __pow__(self, n):
        if n < 0 or n != int(n):
            raise ValueError(f"bad exponent {n}")
        result = MPoly.constant(self.ring, 1)
        base = self
        n = int(n)
        while n:
            if n & 1:
                result = result * base
            n >>= 1
            if n:
                base = base * base
        return result

    def diff(self, var, order=1):
        """Exact partial derivative of the given order (order >= 1)."""
        if order < 1:
            raise ValueError("order must be >= 1")
        if var not in self.ring:
            raise ValueError(f"variable {var!r} not in ring {self.ring}")
        i = self.ring.index(var)
        terms = self._terms
        for _ in range(order):
            new = {}
            for e, c in terms.items():
                if e[i] == 0:
                    continue
                e2 = list(e)
                e2[i] -= 1
                new[tuple(e2)] = c * e[i]
            terms = new
        return MPoly._trusted(self.ring, terms)

    def evaluate(self, point):
        """Exact value at a point given as a sequence of Fractions."""
        if len(point) != len(self.ring):
            raise ValueError(f"point arity {len(point)} != ring arity {len(self.ring)}")
        point = [Fraction(x) for x in point]
        total = Fraction(0)
        for e, c in self._terms.items():
            v = c
            for x, k in zip(point, e):
                if k:
                    v *= x ** k
            total += v
        return total

    def substitute(self, images):
        """Substitute images[i] (an MPoly) for the i-th ring variable."""
        if len(images) != len(self.ring):
            raise ValueError("one image per ring variable required")
        ring = images[0].ring
        # cache successive powers of each image
        powers = [[MPoly.constant(ring, 1)] for _ in images]
        def power(i, k):
            col = powers[i]
            while len(col) <= k:
                col.append(col[-1] * images[i])
            return col[k]
        result = MPoly.zero(ring)
        for e, c in self._terms.items():
            term = MPoly.constant(ring, c)
            for i, k in enumerate(e):
                if k:
                    term = term * power(i, k)
            result = result + term
        return result

    def __eq__(self, other):
        if not isinstance(other, MPoly):
            if other == 0:
                return self.is_zero()
            return NotImplemented
        return self.ring == other.ring and self._terms == other._terms

    def __hash__(self):
        return hash((self.ring, self.items_sorted()))

    def __str__(self):
        from .parsing import to_string
        return to_string(self)

    def __repr__(self):
        return f"MPoly({self})"

