"""Group and Lie-algebra actions on forms.

Convention: groups act by DIRECT substitution on row vectors of variables,

    (act(g, F))(v1, v2) = F(v1 . g1, v2 . g2),

so act(g*h, F) = act(g, act(h, F)).  The projective groups are modeled by
arbitrary invertible rational representatives; scalar bookkeeping (what the
center does on each representation) is checked by the verification registry
rather than carried by a dedicated projective type.

Every group or Lie-algebra element is a QMat: GroupPair.g1/g2, LiePair.x1/x2
and G3Element.mat.  One validator, _square, turns a QMat or n rows of n
rationals into an n x n QMat and checks that it is invertible (or traceless),
so the functions taking a bare matrix accept either form.

act, act_ternary and matrix_of_binary_action run on the integer storage of
both a form and a matrix g = G / s (G the QMat's integer rows, s its
denominator), and share one cached representation of an n x n matrix G on
the degree-d forms in n variables: the image of a monomial x_0^e_0 ..
x_(n-1)^e_(n-1) is the column of L_0^e_0 .. L_(n-1)^e_(n-1), where L_j =
sum_i G[i][j] x_i is G's j-th column read as a linear form (for n = 2, X^(d-k)
Y^k goes to (G00 X + G10 Y)^(d-k) (G01 X + G11 Y)^k).  It is built once per
(G, d), so a loop acting by a few matrices on many forms reuses its columns.
A form's vector is transformed one variable group at a time, and its
denominator gains s^d per group.

The Lie-algebra action is the derivative of the substitution action: a 2x2
traceless x sends a form P in (X, Y) to

    (x00*X + x10*Y) dP/dX + (x01*X + x11*Y) dP/dY,

so [[0,1],[0,0]] acts as E = X d/dY, [[0,0],[1,0]] as F = Y d/dX, and x as
x01*E + x10*F + x00*H with H = X d/dX - Y d/dY.

lie_act, lie_act_binary and the stabilizers use index maps on integer
coefficient vectors (index k holds X^(d-k) Y^k; a biform's index is
k1*(b+1) + k2, one map per factor): E sends k to k-1 with weight k, F sends
k to k+1 with weight d-k, and H is the diagonal d-2k.  Stabilizers are
computed infinitesimally, as ranks of exact integer systems built from these
maps (7 rows for a form, 3 for a subspace), by linalg's _rank.  Each system
is handed over as a lazy sequence of column blocks: a form's first 14
columns (twice its rows), then the rest; a subspace's columns one basis
vector of W at a time.  The left-looking elimination stops at the column
where every row holds a pivot, so a block past it is never built, and a
generic system is built only in part; a rank-deficient one builds and reads
every block.  Finite stabilizer components are checked by explicit
candidate elements.
"""

from __future__ import annotations

from fractions import Fraction
from functools import lru_cache, reduce
from operator import mul

from .forms import BiForm, BinaryForm, TernaryForm, _basis
from .linalg import QMat, Subspace, _int_det, _rank, det


def _square(m, n, traceless=False):
    """m (a QMat, or n rows of n rationals) as an n x n QMat, checked to be
    invertible, or traceless when `traceless` is set."""
    if not isinstance(m, QMat):
        m = QMat(m)
    if m.rows != n or m.cols != n:
        raise ValueError(f"{n}x{n} matrix required")
    if traceless:
        if sum(m._num[i][i] for i in range(n)):
            raise ValueError("non-traceless input")
    elif not _int_det([list(row) for row in m._num]):
        raise ValueError("singular matrix")
    return m


class GroupPair:
    """Pair of invertible 2x2 rational matrices (QMats) acting on biforms."""

    __slots__ = ("g1", "g2")

    def __init__(self, g1, g2):
        self.g1 = _square(g1, 2)
        self.g2 = _square(g2, 2)

    def __mul__(self, other):
        return GroupPair(self.g1 * other.g1, self.g2 * other.g2)

    def __repr__(self):
        return f"GroupPair({self.g1}, {self.g2})"


class G3Element:
    """Invertible 3x3 rational matrix (a QMat) acting on ternary forms."""

    __slots__ = ("mat",)

    def __init__(self, mat):
        self.mat = _square(mat, 3)

    @classmethod
    def substitution(cls, images):
        """Element substituting images[j] (a coefficient triple over X,Y,Z)
        for the j-th variable under the row-vector action."""
        return cls([[images[j][i] for j in range(3)] for i in range(3)])

    def __repr__(self):
        return f"G3Element({self.mat})"


class LiePair:
    """Pair of traceless 2x2 rational matrices (QMats), an element of sl2 x sl2."""

    __slots__ = ("x1", "x2")

    def __init__(self, x1, x2):
        self.x1 = _square(x1, 2, traceless=True)
        self.x2 = _square(x2, 2, traceless=True)

    def __repr__(self):
        return f"LiePair({self.x1}, {self.x2})"


SL2_E = QMat(((0, 1), (0, 0)))  # X d/dY
SL2_F = QMat(((0, 0), (1, 0)))  # Y d/dX
SL2_H = QMat(((1, 0), (0, -1)))


def _times(p, q):
    """Product of two polynomials stored as {packed exponents: integer}."""
    out = {}
    for c, x in p.items():
        for e, y in q.items():
            out[c + e] = out.get(c + e, 0) + x * y
    return out


@lru_cache(maxsize=256)
def _representation(G, d):
    """The integer n x n matrix G (its n rows) on the degree-d forms in n
    variables x_0..x_(n-1): column k, the image of the k-th monomial of
    forms._basis((n,), (d,)), is a product of powers of the linear forms
    L_j = sum_i G[i][j] x_i, as a tuple of its nonzero (index, coefficient)
    pairs.  A polynomial is a dict keyed by the exponents of x_1..x_(n-1)
    packed in base d+1 (for n = 2, the Y-exponent), so a product of
    monomials adds keys.  Cached, so the columns are immutable tuples."""
    n = len(G)
    place = [0] + [(d + 1) ** (n - 1 - i) for i in range(1, n)]
    basis = _basis((n,), (d,))
    index = {sum(map(mul, e, place)): k for e, k in basis.items()}
    powers = []
    for j in range(n):
        line = {place[i]: G[i][j] for i in range(n) if G[i][j]}
        powers.append([{0: 1}])
        for _ in range(d):
            powers[j].append(_times(powers[j][-1], line))
    columns = []
    for e in basis:
        column = reduce(_times, [p[k] for p, k in zip(powers, e)])
        columns.append(tuple([(index[c], x) for c, x in column.items() if x]))
    return tuple(columns)


def _act(f, mats):
    """Substitution action of one n x n matrix per variable group of n
    variables, on integers.

    With g = G / s (the QMat's integer rows over its denominator), the form's
    integer vector is transformed one group at a time: index i holds the k-th
    of the group's `size` degree-d monomials (k = i // step % size) and
    spreads over column k of _representation(G, d), and the denominator
    gains s^d.
    """
    if tuple(m.rows for m in mats) != f.groups:
        raise ValueError(f"{type(f).__name__} needs matrices of sizes {f.groups}")
    vec, den = f._num, f._den
    step = len(vec)
    for m, d in zip(mats, f._grading(f._degree)):
        columns = _representation(m._num, d)
        size = len(columns)
        den *= m._den ** d
        step //= size
        out = [0] * len(vec)
        for i, n in enumerate(vec):
            if n:
                k = i // step % size
                base = i - k * step
                for j, x in columns[k]:
                    out[base + j * step] += n * x
        vec = out
    return f._make(f._degree, vec, den)


def act(g: GroupPair, f: BiForm) -> BiForm:
    """Substitution action of a GroupPair on a biform (bidegree preserved)."""
    return _act(f, (g.g1, g.g2))


def act_ternary(g: G3Element, f: TernaryForm) -> TernaryForm:
    """Substitution action (X,Y,Z) -> (X,Y,Z).g on a ternary form: the j-th
    variable goes to sum_i g[i][j] * (the i-th variable)."""
    return _act(f, (g.mat,))


def _lie(f, mats):
    """x00*H + x01*E + x10*F of each group's _sl2_images, for one traceless
    2x2 x per variable group (E = X d/dY, F = Y d/dX, H = X d/dX - Y d/dY)."""
    if tuple(m.rows for m in mats) != f.groups:
        raise ValueError(f"{type(f).__name__} needs matrices of sizes {f.groups}")
    vec = f._num
    total, scale, step = [0] * len(vec), 1, len(vec)
    for m, d in zip(mats, f._grading(f._degree)):
        (x00, x01), (x10, _) = m._num
        s = m._den
        step //= d + 1
        e, fy, h = _sl2_images(vec, d, step)
        # total / scale + (this group's image) / s, over scale * s
        total = [s * t + scale * (x01 * a + x10 * b + x00 * c)
                 for t, a, b, c in zip(total, e, fy, h)]
        scale *= s
    return f._make(f._degree, total, f._den * scale)


def lie_act(x: LiePair, f: BiForm) -> BiForm:
    """Derivation action of sl2 x sl2: the derivative of act at the identity."""
    return _lie(f, (x.x1, x.x2))


def lie_act_binary(x, f: BinaryForm) -> BinaryForm:
    """Derivation action of a single traceless 2x2 on a binary form."""
    return _lie(f, (_square(x, 2, traceless=True),))


def matrix_of_binary_action(g, b: int) -> QMat:
    """Matrix of the substitution action of one 2x2 matrix g on V_b, the
    binary forms of degree b (an int >= 0), in the canonical monomial basis."""
    if type(b) is not int or b < 0:
        raise ValueError(f"degree must be an int >= 0, got {b!r}")
    m = _square(g, 2)
    columns = [dict(c) for c in _representation(m._num, b)]
    return QMat._make([[c.get(j, 0) for c in columns] for j in range(b + 1)], m._den ** b)


def _sl2_images(vec, d, step, lo=0, hi=None):
    """(X d/dY, Y d/dX, H) images of an integer coefficient vector whose acted-on
    factor has degree d and Y-exponent k = i // step % (d + 1) at index i, at
    the indices lo <= i < hi (all of them by default)."""
    e, f, h = [], [], []
    for i in range(lo, len(vec) if hi is None else hi):
        k = i // step % (d + 1)
        e.append((k + 1) * vec[i + step] if k < d else 0)
        f.append((d - k + 1) * vec[i - step] if k else 0)
        h.append((d - 2 * k) * vec[i])
    return e, f, h


def projective_stabilizer_dim(f: BiForm) -> int:
    """Dimension of {(x, c) in (sl2 x sl2) x Q : lie_act(x, f) = c f}.

    Zero means the projective stabilizer of [f] is infinitesimally trivial.
    The 7-row system is built in column blocks, its first 14 columns and
    then the rest (one block when there are no more than 14); the second is
    built only if the first leaves the rank short.
    """
    if f.is_zero():
        raise ValueError("zero form")
    a, b = f.bidegree
    vec = f._num
    n = len(vec)
    cuts = (0, 14, n) if n > 14 else (0, n)
    return 7 - _rank([*_sl2_images(vec, a, b + 1, lo, hi), *_sl2_images(vec, b, 1, lo, hi),
                      [-c for c in vec[lo:hi]]] for lo, hi in zip(cuts, cuts[1:]))


def subspace_stabilizer_dim(w: Subspace) -> int:
    """Dimension of {x in sl2 : x . W <= W} for W a subspace of V_b.

    The 3-row system has one column block per basis vector of W, built only
    when the blocks before it leave the rank short.
    """
    b = w.ambient_dim - 1
    if w.dim == 0 or w.dim == w.ambient_dim:
        raise ValueError("subspace must be proper and nonzero")
    # x.W <= W iff x.w_i is killed by each annihilator n_f of the RREF basis
    # W = basis / L (f a free column): n_f[f] = L, n_f[p_i] = -L*W[i][f].
    basis, big = w.basis._num, w.basis._den
    pivots = w.pivots()
    free = [j for j in range(b + 1) if j not in pivots]
    columns = [(j, [row[j] for row in basis]) for j in free]

    def block(vec):
        out = []
        for image in _sl2_images(vec, b, 1):
            coords = [image[p] for p in pivots]
            out.append([big * image[j] - sum(map(mul, coords, column)) for j, column in columns])
        return out
    return 3 - _rank(map(block, basis))


def det_scalar(g: GroupPair, w: Subspace) -> Fraction:
    """Scalar by which the second factor of g acts on the top wedge of W.

    W is a subspace of V_b with b = ambient_dim - 1; g must map W into
    itself (checked), and the returned value is det of the restriction.
    """
    # image i lies in W iff it is its pivot entries (coordinates) times the basis
    images = w.basis * matrix_of_binary_action(g.g2, w.ambient_dim - 1).transpose()
    pivots = w.pivots()
    coords = QMat._make([[row[p] for p in pivots] for row in images._num], images._den)
    if coords * w.basis != images:
        raise ValueError("subspace is not invariant under g")
    return det(coords)


def weight_of(f: BiForm, torus_exponents, twist: int):
    """Weight of f under t -> t^twist * subst(t^w1 X1, t^w2 Y1, t^w3 X2, t^w4 Y2).

    Returns the integer k with action(t) f = t^k f, or None when f is not an
    eigenvector (and for the zero form, which has no well-defined weight).
    """
    if len(torus_exponents) != 4:
        raise ValueError("four torus exponents required")
    weights = {
        twist + sum(w * e for w, e in zip(torus_exponents, exps))
        for exps, n in zip(f._exponents(), f._num) if n
    }
    if len(weights) != 1:
        return None
    return weights.pop()
