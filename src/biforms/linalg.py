"""Exact linear algebra over Q.

Matrices are small and dense (nothing here exceeds a few dozen rows).  A QMat
is stored like a form: `_num`, a tuple of integer row tuples, over `_den`,
one positive common denominator, with gcd(den, every entry) = 1, so equality
and hashing are tuple operations.  `cols` is kept for a matrix without rows
too, so a 0 x n matrix is not a 0 x 0 one.
`_make` is the one private constructor; `_reduce`, shared with the forms, is
the one place the reduction rule is written.  `entries` builds Fractions on
each access.

Every kernel reads and writes the integers.  Elimination is one
fraction-free Bareiss forward pass, _bareiss, a left-looking loop over the
columns: each column is brought up to date by the recorded steps when it is
reached, then searched for a pivot.  The rows arrive in column blocks, the
first as the rows themselves and each later one pulled from a lazy iterable
only once the columns before it are done; its segments are appended in the
rows' original order, since pivot swaps permute the rows.  _rank and the
determinant stop at the column where every row holds a pivot, so a block
past it is never built and the multipliers stay in place; rank reaches
full rank soonest on the short side, so _short_rank eliminates the
columns of a tall matrix, and a row past full column rank is never read.
_echelon and binary_gcd pass one block, run to the last column and read
echelon rows with the multipliers zeroed.  _echelon, the one reduced
echelon routine, runs that pass, then back-substitutes by exact division
over the last pivot, which keeps the integers small at the sizes that
occur here, on the free columns only: a pivot column of the result holds
den or 0 by construction.  kernel_basis divides each row by its content,
which changes no null space; a map that is not wide is injective when
_short_rank of those rows is its width, and then has the zero kernel
without an echelon form; else the basis is read off one _echelon of the
half-turned rows.
The maximal minors of a tall matrix take no elimination: _minors builds
them on the integer rows column by column by Laplace expansion, without
division, each minor keyed by the bitmask of its rows, so dropping row i
from a subset is one xor; top_minors is those integers over den^cols.

A Subspace is held in canonical reduced row-echelon form: rows are the basis,
pivots are 1 with zeros elsewhere in their columns, pivot columns strictly
increase.  Subspace equality is literal equality of that representation.
"""

from __future__ import annotations

from fractions import Fraction
from functools import lru_cache
from itertools import combinations
from math import gcd, lcm


def _reduce(rows, den):
    """Integer rows over den > 0 as the canonical pair: both divided by
    gcd(den, every entry), so a zero pair gets den 1; rows become tuples."""
    g = den
    for row in rows:
        g = gcd(g, *row)
    # tuple(list), not tuple(generator): the latter resizes, filling tuple free lists
    if g == 1:
        return tuple([tuple(row) for row in rows]), den
    return tuple([tuple([x // g for x in row]) for row in rows]), den // g


def _rational(x):
    """x as a Fraction, a string through Fraction.  A float raises TypeError:
    its binary value is rarely the number meant."""
    if isinstance(x, float):
        raise TypeError(f"{x!r} is a float: give an int or a Fraction")
    return Fraction(x)


def _integer_row(values):
    """(integer row, scale): a sequence of rationals (as _rational takes them)
    times the lcm of their denominators, an all-int row as it is."""
    if set(map(type, values)) <= {int}:
        return values, 1
    values = [x if type(x) is int or type(x) is Fraction else _rational(x) for x in values]
    s = lcm(*[x.denominator for x in values])
    return [x.numerator * (s // x.denominator) for x in values], s


class QMat:
    """Dense rational matrix: integer rows over one denominator."""

    __slots__ = ("rows", "cols", "_num", "_den")

    def __init__(self, entries, cols=0):
        """Rows of rationals; `cols` is the width when there are no rows."""
        entries = [tuple(row) for row in entries]
        if entries:
            cols = len(entries[0])
        if any(len(row) != cols for row in entries):
            raise ValueError("ragged rows")
        flat, den = _integer_row([x for row in entries for x in row])
        rows = [flat[i * cols:(i + 1) * cols] for i in range(len(entries))]
        self._num, self._den = _reduce(rows, den)
        self.rows, self.cols = len(entries), cols

    @classmethod
    def _make(cls, rows, den, cols=0):
        """rows / den (integer rows of one length, den > 0) as the canonical
        pair; `cols` is the width when there are no rows."""
        new = object.__new__(cls)
        new._num, new._den = num, den = _reduce(rows, den)
        new.rows = len(num)
        new.cols = len(num[0]) if num else cols
        return new

    @property
    def entries(self):
        """The rows as tuples of Fractions, built on each access."""
        den = self._den
        return tuple(tuple(Fraction(x, den) for x in row) for row in self._num)

    @classmethod
    def identity(cls, n):
        return cls._make([[int(i == j) for j in range(n)] for i in range(n)], 1)

    @classmethod
    def from_columns(cls, columns):
        return cls(columns).transpose()

    def transpose(self):
        return QMat._make(_columns(self), self._den, self.rows)

    def __mul__(self, other):
        if isinstance(other, QMat):
            if self.cols != other.rows:
                raise ValueError("shape mismatch")
            columns = _columns(other)
            return QMat._make([[sum(a * b for a, b in zip(row, c)) for c in columns]
                               for row in self._num], self._den * other._den, other.cols)
        (n,), d = _integer_row([other])
        return QMat._make([[n * x for x in row] for row in self._num], d * self._den, self.cols)

    __rmul__ = __mul__

    def __eq__(self, other):
        return (isinstance(other, QMat) and self.cols == other.cols
                and self._den == other._den and self._num == other._num)

    def __hash__(self):
        return hash((self.cols, self._den, self._num))

    def __repr__(self):
        if not self.rows:
            return f"QMat([], cols={self.cols})"
        return f"QMat({[list(map(str, r)) for r in self.entries]})"


def _columns(m):
    """The integer columns of m as tuples (m.cols empty ones when m has no rows)."""
    return list(zip(*m._num)) if m.rows else [()] * m.cols


def _bareiss(blocks, complete=True):
    """Fraction-free forward elimination of integer rows given as column blocks.

    One-step Bareiss with exact integer division by the previous pivot, as
    one left-looking loop over the columns.  `blocks` yields lists of row
    segments, one segment per row; the first block is `work`, the rows
    eliminated in place.  A later block is pulled only when every column so
    far is done, and its segments are appended to the rows of `work` in the
    rows' original order (pivot swaps permute `work`).  Each step is
    recorded as (pivot row, pivot column, pivot, previous pivot, the rows
    below it); later swaps only reorder those rows, and each keeps its
    multiplier m in the pivot column.  Column c is first brought up to date
    by every step in turn: each entry x below the pivot row becomes
    (pivot * x - m * pivot_row[c]) / prev, a floor division whose product
    with prev must give back the dividend, else ArithmeticError.  Then its
    first nonzero entry at or below the next row is the next pivot.  Unless
    `complete`, the loop returns at the column where every row holds a
    pivot, so no later column is read and no later block is built (the
    pivots are then meaningful, the rest of `work` is not); else it runs to
    the last column and zeroes the multipliers.  Returns (pivot columns,
    sign of the row permutation); the first len(pivots) rows of `work` are
    the echelon rows.
    """
    blocks = iter(blocks)
    work = next(blocks)
    rows = len(work)
    order = list(range(rows))
    steps = []
    pivots = []
    sign = 1
    prev = 1
    start = 0
    while True:
        end = len(work[0]) if rows else 0
        for c in range(start, end):
            for pivot_row, sc, pivot, before, below in steps:
                top = pivot_row[c]
                for wi in below:
                    x = pivot * wi[c] - wi[sc] * top
                    q = x // before
                    if q * before != x:
                        raise ArithmeticError("Bareiss exact-division invariant broken")
                    wi[c] = q
            r = p = len(steps)
            while p < rows and not work[p][c]:
                p += 1
            if p == rows:
                continue
            if p != r:
                work[r], work[p] = work[p], work[r]
                order[r], order[p] = order[p], order[r]
                sign = -sign
            steps.append((work[r], c, work[r][c], prev, work[r + 1:]))
            pivots.append(c)
            prev = work[r][c]
            if r + 1 == rows and not complete:
                return pivots, sign
        block = next(blocks, None)
        if block is None:
            break
        start = end
        for wi, i in zip(work, order):
            wi.extend(block[i])
    if complete:
        for _, c, _, _, below in steps:
            for wi in below:
                wi[c] = 0
    return pivots, sign


def _rank(blocks):
    """Rank of integer rows given as column blocks (consumed, see _bareiss):
    the forward pass, stopped at full row rank before any later block is built."""
    return len(_bareiss(blocks, complete=False)[0])


def _int_det(work):
    """Determinant of a square matrix given as integer rows (consumed): at
    full rank the last pivot sits in the last column, where the forward
    pass returns, and is the determinant up to the swaps' sign."""
    if not work:
        return 1
    pivots, sign = _bareiss([work], complete=False)
    return sign * work[-1][-1] if len(pivots) == len(work) else 0


def _echelon(work):
    """(rows, den, pivot columns) of the reduced row-echelon form of integer
    rows (consumed): the nonzero rows over den > 0, each holding den at its pivot.

    After the complete forward pass, with d_i the pivot of echelon row i and
    D the last one, row i becomes N_i = (|D| row_i - sum over j > i of
    row_i[p_j] N_j) / d_i, from the last row up, so D's sign moves onto the
    rows.  N_i holds den at p_i and 0 left of it and at every other pivot
    column, so only its entries on the free columns right of p_i are
    computed, and row i is overwritten in place.  D times the RREF is an
    integer matrix (Cramer's rule), so each division is exact; it is
    checked on every computed entry like _bareiss's, else ArithmeticError.
    """
    pivots, _ = _bareiss([work])
    rank = len(pivots)
    den = abs(work[rank - 1][pivots[-1]]) if rank else 1
    free = [c for c in range(len(work[0]) if work else 0) if c not in pivots]
    for i in range(rank - 1, -1, -1):
        row, p = work[i], pivots[i]
        cols = free[p - i:]   # the free columns right of p: p - i lie left of it
        acc = [den * row[c] for c in cols]
        for j in range(i + 1, rank):
            f = row[pivots[j]]
            if f:
                nj = work[j]
                acc = [a - f * nj[c] for a, c in zip(acc, cols)]
                row[pivots[j]] = 0
        d = row[p]
        q = [x // d for x in acc]
        if [y * d for y in q] != acc:
            raise ArithmeticError("echelon exact-division invariant broken")
        row[p] = den
        for c, y in zip(cols, q):
            row[c] = y
    return work[:rank], den, tuple(pivots)


def rref(m: QMat):
    """Reduced row-echelon form: returns (QMat, rank, pivot_columns), the
    rows of _echelon followed by zero rows."""
    rows, den, pivots = _echelon([list(row) for row in m._num])
    rows += [[0] * m.cols for _ in range(m.rows - len(pivots))]
    return QMat._make(rows, den, m.cols), len(pivots), pivots


def _short_rank(rows, cols):
    """Rank of integer rows of length cols, eliminated along the short side
    (the columns of a tall matrix), so the forward pass stops at full rank."""
    if len(rows) > cols:
        rows = zip(*rows)
    return _rank([[list(row) for row in rows]])


def rank(m: QMat) -> int:
    return _short_rank(m._num, m.cols)


class Subspace:
    """Linear subspace of Q^n, stored as a canonical RREF basis."""

    __slots__ = ("ambient_dim", "basis")

    def __init__(self, ambient_dim, basis: QMat):
        if basis.cols != ambient_dim:
            raise ValueError("basis width != ambient dimension")
        self.ambient_dim = ambient_dim
        self.basis = basis

    @classmethod
    def from_vectors(cls, ambient_dim, vectors):
        """Span of the given vectors, canonicalized (a common factor is irrelevant)."""
        m = QMat(vectors, ambient_dim)
        if m.cols != ambient_dim:
            raise ValueError("vector length != ambient dimension")
        return cls._span(ambient_dim, [list(row) for row in m._num])

    @classmethod
    def _span(cls, ambient_dim, work):
        """Span of integer rows of length ambient_dim (consumed)."""
        rows, den, _ = _echelon(work)
        return cls(ambient_dim, QMat._make(rows, den, ambient_dim))

    @property
    def dim(self):
        return self.basis.rows

    def pivots(self):
        return [next(j for j, x in enumerate(row) if x) for row in self.basis._num]

    def residual(self, v):
        """Component of v left after eliminating against the basis: in RREF
        the coefficient of basis row i is v at that row's pivot."""
        nums, s = _integer_row(v)
        if len(nums) != self.ambient_dim:
            raise ValueError("ambient dimension mismatch")
        basis = self.basis
        out = [basis._den * x for x in nums]
        for row, p in zip(basis._num, self.pivots()):
            out = [a - nums[p] * b for a, b in zip(out, row)]
        den = basis._den * s
        return tuple(Fraction(x, den) for x in out)

    def contains(self, v) -> bool:
        return not any(self.residual(v))

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
    """Canonical basis of the null space {v : m v = 0} in Q^cols.

    Free column f of the RREF R of m turned half a turn gives den at f and
    -R[i][f] at the pivots left of f: turned back, it leads at n-1-f and is
    zero at the other leads, so by descending f these are the RREF basis.
    Turning the rows too leaves R alone and keeps a banded m on its diagonal,
    and dividing each by its content leaves it alone too.  A map that is not
    wide is first tested for injectivity by its rank alone."""
    work = []
    for row in reversed(m._num):
        g = gcd(*row) or 1
        work.append([x // g for x in reversed(row)])
    if m.rows >= m.cols and _short_rank(work, m.cols) == m.cols:
        return Subspace(m.cols, QMat._make([], 1, m.cols))
    rows, den, pivots = _echelon(work)
    vectors = []
    for f in range(m.cols - 1, -1, -1):
        if f not in pivots:
            v = [0] * m.cols
            v[f] = den
            for row, p in zip(rows, pivots):
                v[p] = -row[f]
            vectors.append(v[::-1])
    return Subspace(m.cols, QMat._make(vectors, den, m.cols))


def det(m: QMat) -> Fraction:
    """Exact determinant (fraction-free Bareiss on the integer rows)."""
    if m.rows != m.cols:
        raise ValueError("determinant of non-square matrix")
    return Fraction(_int_det([list(row) for row in m._num]), m._den ** m.rows)


@lru_cache(maxsize=64)
def _subsets(n, k):
    """(bitmask, indices) of the size-k subsets of range(n), in combinations
    order (read-only: the list is shared)."""
    return [(sum(1 << i for i in s), s) for s in combinations(range(n), k)]


def _minors(rows, cols):
    """The maximal minors of tall integer rows on their first cols columns,
    as {bitmask of the rows: minor}, in combinations order of the row subsets.

    Laplace build-up: the minor on rows S and the first j + 1 columns is the
    expansion along column j, the sum over t of (-1)^(t+j) column[S_t] times
    the minor on S without S_t, keyed mask ^ (1 << S_t), and the first j
    columns.  Each column is read once; no division, one multiply-add per
    nonzero (subset, row) entry.
    """
    minors = {0: 1}
    for j in range(cols):
        column = [row[j] for row in rows]
        level = {}
        for mask, subset in _subsets(len(rows), j + 1):
            total = 0
            sign = -1 if j % 2 else 1
            for i in subset:
                x = column[i]
                if x:
                    total += sign * x * minors[mask ^ (1 << i)]
                sign = -sign
            level[mask] = total
        minors = level
    return minors


def top_minors(m: QMat):
    """All maximal minors of a tall matrix (rows >= cols).

    Minors are indexed by the size-cols subsets of the row indices,
    enumerated in lexicographic order; they are the Pluecker coordinates
    of the column span.  All zero iff rank < cols.  Each is _minors'
    integer on the numerators over den^cols.
    """
    if m.cols > m.rows:
        raise ValueError("top_minors requires rows >= cols")
    scale = m._den ** m.cols
    return tuple(Fraction(x, scale) for x in _minors(m._num, m.cols).values())
