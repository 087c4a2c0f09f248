"""Exact linear algebra over Q.

Matrices are small and dense (nothing here exceeds a few dozen rows), so
QMat stores a rectangular tuple-of-tuples of Fractions.  Elimination uses a
fraction-free Bareiss forward pass on denominator-cleared integer rows.  rref
back-substitutes on those integer rows too, dividing each updated row by its
gcd, and builds one Fraction per output entry (entry over its row's pivot);
this keeps intermediate integers small at the sizes that occur here.

A Subspace is held in canonical reduced row-echelon form: rows are the basis,
pivots are 1 with zeros elsewhere in their columns, pivot columns strictly
increase.  Subspace equality is literal equality of that representation.
"""

from __future__ import annotations

from fractions import Fraction
from itertools import combinations
from math import gcd, lcm, prod


class QMat:
    """Dense rectangular matrix of Fractions."""

    __slots__ = ("rows", "cols", "entries")

    def __init__(self, entries):
        entries = tuple(tuple(x if type(x) is Fraction else Fraction(x) for x in row)
                        for row in entries)
        rows = len(entries)
        cols = len(entries[0]) if rows else 0
        for row in entries:
            if len(row) != cols:
                raise ValueError("ragged rows")
        self.rows = rows
        self.cols = cols
        self.entries = entries

    @classmethod
    def zero(cls, rows, cols):
        return cls([[0] * cols for _ in range(rows)])

    @classmethod
    def identity(cls, n):
        return cls([[1 if i == j else 0 for j in range(n)] for i in range(n)])

    @classmethod
    def from_columns(cls, columns):
        if not columns:
            return cls([])
        n = len(columns[0])
        return cls([[col[i] for col in columns] for i in range(n)])

    def transpose(self):
        return QMat([[self.entries[i][j] for i in range(self.rows)] for j in range(self.cols)])

    def row(self, i):
        return self.entries[i]

    def column(self, j):
        return tuple(self.entries[i][j] for i in range(self.rows))

    def matvec(self, v):
        if len(v) != self.cols:
            raise ValueError("vector length mismatch")
        return tuple(sum(r[j] * v[j] for j in range(self.cols)) for r in self.entries)

    def __mul__(self, other):
        if isinstance(other, QMat):
            if self.cols != other.rows:
                raise ValueError("shape mismatch")
            bt = other.transpose().entries
            return QMat([[sum(r[k] * c[k] for k in range(self.cols)) for c in bt]
                         for r in self.entries])
        return QMat([[other * x for x in row] for row in self.entries])

    __rmul__ = __mul__

    def __eq__(self, other):
        return isinstance(other, QMat) and self.entries == other.entries

    def __hash__(self):
        return hash(self.entries)

    def __repr__(self):
        return f"QMat({[list(map(str, r)) for r in self.entries]})"


def _integer_row(row):
    """(integer row, scale): a row of Fractions times the lcm of its denominators."""
    s = lcm(*(x.denominator for x in row))
    return [x.numerator * (s // x.denominator) for x in row], s


def _bareiss(work):
    """Fraction-free forward elimination of integer rows, in place.

    One-step Bareiss updates with exact integer division by the previous
    pivot, skipping columns without a pivot.  Returns (pivot columns, sign
    of the row permutation); the first len(pivots) rows are the echelon rows.
    """
    rows = len(work)
    cols = len(work[0]) if rows else 0
    pivots = []
    sign = 1
    prev = 1
    r = 0
    for c in range(cols):
        if r >= rows:
            break
        p = next((i for i in range(r, rows) if work[i][c]), None)
        if p is None:
            continue
        if p != r:
            work[r], work[p] = work[p], work[r]
            sign = -sign
        wr = work[r]
        pivot = wr[c]
        for i in range(r + 1, rows):
            wi = work[i]
            wic = wi[c]
            for j in range(c, cols):
                q, rem = divmod(pivot * wi[j] - wic * wr[j], prev)
                if rem:
                    raise ArithmeticError("Bareiss exact-division invariant broken")
                wi[j] = q
        prev = pivot
        pivots.append(c)
        r += 1
    return pivots, sign


def _int_det(work):
    """Determinant of a square matrix given as integer rows (consumed)."""
    pivots, sign = _bareiss(work)
    return sign * work[-1][-1] if len(pivots) == len(work) else 0


def rref(m: QMat):
    """Reduced row-echelon form: returns (QMat, rank, pivot_columns).

    Forward pass is the fraction-free Bareiss pass; back-substitution stays
    on the integer rows, each divided by its gcd after every update, and
    each output entry is one Fraction over its row's pivot.
    """
    work = [_integer_row(row)[0] for row in m.entries]
    pivots, _ = _bareiss(work)
    rank, cols = len(pivots), m.cols
    echelon = work[:rank]
    for i in range(rank - 1, -1, -1):
        piv = pivots[i]
        lead = echelon[i][piv]
        for k in range(i):
            factor = echelon[k][piv]
            if factor:
                row = [lead * a - factor * b for a, b in zip(echelon[k], echelon[i])]
                g = gcd(*row)
                echelon[k] = [x // g for x in row]
    full = [[Fraction(x, row[p]) for x in row] for row, p in zip(echelon, pivots)]
    full += [[Fraction(0)] * cols for _ in range(m.rows - rank)]
    return QMat(full), rank, tuple(pivots)


def rank(m: QMat) -> int:
    return len(_bareiss([_integer_row(row)[0] for row in m.entries])[0])


class Subspace:
    """Linear subspace of Q^n, stored as a canonical RREF basis."""

    __slots__ = ("ambient_dim", "basis")

    def __init__(self, ambient_dim, basis: QMat):
        if basis.rows and basis.cols != ambient_dim:
            raise ValueError("basis width != ambient dimension")
        self.ambient_dim = ambient_dim
        self.basis = basis

    @classmethod
    def from_vectors(cls, ambient_dim, vectors):
        """Span of the given vectors, canonicalized."""
        vectors = [tuple(v) for v in vectors]
        for v in vectors:
            if len(v) != ambient_dim:
                raise ValueError("vector length != ambient dimension")
        if not vectors:
            return cls(ambient_dim, QMat.zero(0, ambient_dim))
        reduced, rk, _ = rref(QMat(vectors))
        return cls(ambient_dim, QMat(reduced.entries[:rk]))

    @classmethod
    def zero(cls, ambient_dim):
        return cls(ambient_dim, QMat.zero(0, ambient_dim))

    @property
    def dim(self):
        return self.basis.rows

    def pivots(self):
        out = []
        for row in self.basis.entries:
            out.append(next(j for j, x in enumerate(row) if x != 0))
        return out

    def residual(self, v):
        """Component of v left after eliminating against the basis."""
        v = [Fraction(x) for x in v]
        if len(v) != self.ambient_dim:
            raise ValueError("ambient dimension mismatch")
        for row, p in zip(self.basis.entries, self.pivots()):
            c = v[p]
            if c:
                v = [a - c * b for a, b in zip(v, row)]
        return tuple(v)

    def contains(self, v) -> bool:
        return all(x == 0 for x in self.residual(v))

    def __eq__(self, other):
        return (
            isinstance(other, Subspace)
            and self.ambient_dim == other.ambient_dim
            and self.basis == other.basis
        )

    def __hash__(self):
        return hash((self.ambient_dim, self.basis))

    def __repr__(self):
        return f"Subspace(dim {self.dim} of Q^{self.ambient_dim})"


def kernel_basis(m: QMat) -> Subspace:
    """Canonical basis of the null space {v : m v = 0} in Q^cols."""
    reduced, rk, pivots = rref(m)
    free = [j for j in range(m.cols) if j not in pivots]
    vectors = []
    for f in free:
        v = [Fraction(0)] * m.cols
        v[f] = Fraction(1)
        for i, p in enumerate(pivots):
            v[p] = -reduced.entries[i][f]
        vectors.append(v)
    return Subspace.from_vectors(m.cols, vectors)


def column_space(m: QMat) -> Subspace:
    """Canonical subspace of Q^rows spanned by the columns of m."""
    return Subspace.from_vectors(m.rows, m.transpose().entries)


def det(m: QMat) -> Fraction:
    """Exact determinant (fraction-free Bareiss on integerized rows)."""
    if m.rows != m.cols:
        raise ValueError("determinant of non-square matrix")
    if m.rows == 0:
        return Fraction(1)
    pairs = [_integer_row(row) for row in m.entries]
    return Fraction(_int_det([r for r, _ in pairs]), prod(s for _, s in pairs))


def top_minors(m: QMat):
    """All maximal minors of a tall matrix (rows >= cols).

    Minors are indexed by the size-cols subsets of the row indices,
    enumerated in lexicographic order; they are the Pluecker coordinates
    of the column span.  All zero iff rank < cols.
    """
    if m.cols > m.rows:
        raise ValueError("top_minors requires rows >= cols")
    out = []
    for subset in combinations(range(m.rows), m.cols):
        out.append(det(QMat([m.entries[i] for i in subset])))
    return tuple(out)
