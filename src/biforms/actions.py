"""Group and Lie-algebra actions on forms.

Convention: groups act by DIRECT substitution on row vectors of variables,

    (act(g, F))(v1, v2) = F(v1 . g1, v2 . g2),

so act(g*h, F) = act(g, act(h, F)).  The projective groups are modeled by
arbitrary invertible rational representatives; scalar bookkeeping (what the
center does on each representation) is checked by the verification registry
rather than carried by a dedicated projective type.

The Lie-algebra action is the derivative of the substitution action: a 2x2
traceless x sends a form P in (X, Y) to

    (x00*X + x10*Y) dP/dX + (x01*X + x11*Y) dP/dY,

so [[0,1],[0,0]] acts as X d/dY and [[0,0],[1,0]] as Y d/dX.

Stabilizers are computed infinitesimally, as ranks of exact integer systems
built on coefficient vectors (index k holds X^(d-k) Y^k; a biform's index is
k1*(b+1) + k2, one map per factor): X d/dY sends k to k-1 with weight k,
Y d/dX sends k to k+1 with weight d-k, and H is the diagonal d-2k.  Finite
stabilizer components are checked by explicit candidate elements.
"""

from __future__ import annotations

from fractions import Fraction

from .forms import BiForm, BinaryForm, TernaryForm, binary_basis
from .linalg import QMat, Subspace, _bareiss, _integer_row, det
from .poly import MPoly, RING_BI, RING_XY, RING_XYZ


def _mat2(entries):
    m = tuple(tuple(Fraction(x) for x in row) for row in entries)
    if len(m) != 2 or any(len(r) != 2 for r in m):
        raise ValueError("2x2 matrix required")
    return m


def _det2(m):
    return m[0][0] * m[1][1] - m[0][1] * m[1][0]


class GroupPair:
    """Pair of invertible 2x2 rational matrices acting on biforms."""

    __slots__ = ("g1", "g2")

    def __init__(self, g1, g2):
        self.g1 = _mat2(g1)
        self.g2 = _mat2(g2)
        if _det2(self.g1) == 0 or _det2(self.g2) == 0:
            raise ValueError("singular matrix")

    @property
    def is_sl(self):
        return _det2(self.g1) == 1 and _det2(self.g2) == 1

    @classmethod
    def identity(cls):
        return cls([[1, 0], [0, 1]], [[1, 0], [0, 1]])

    def __mul__(self, other):
        def mul2(a, b):
            return [[sum(a[i][k] * b[k][j] for k in range(2)) for j in range(2)]
                    for i in range(2)]
        return GroupPair(mul2(self.g1, other.g1), mul2(self.g2, other.g2))

    def __repr__(self):
        return f"GroupPair({self.g1}, {self.g2})"


class G3Element:
    """Invertible 3x3 rational matrix acting on ternary forms."""

    __slots__ = ("mat",)

    def __init__(self, mat):
        m = tuple(tuple(Fraction(x) for x in row) for row in mat)
        if len(m) != 3 or any(len(r) != 3 for r in m):
            raise ValueError("3x3 matrix required")
        if det(QMat(m)) == 0:
            raise ValueError("singular matrix")
        self.mat = m

    @classmethod
    def substitution(cls, images):
        """Element substituting images[j] (a coefficient triple over X,Y,Z)
        for the j-th variable under the row-vector action."""
        return cls([[images[j][i] for j in range(3)] for i in range(3)])

    def __repr__(self):
        return f"G3Element({self.mat})"


class LiePair:
    """Pair of traceless 2x2 rational matrices (an element of sl2 x sl2)."""

    __slots__ = ("x1", "x2")

    def __init__(self, x1, x2):
        self.x1 = _mat2(x1)
        self.x2 = _mat2(x2)
        if self.x1[0][0] + self.x1[1][1] != 0 or self.x2[0][0] + self.x2[1][1] != 0:
            raise ValueError("non-traceless input")

    def bracket(self, other):
        def comm(a, b):
            ab = [[sum(a[i][k] * b[k][j] for k in range(2)) for j in range(2)] for i in range(2)]
            ba = [[sum(b[i][k] * a[k][j] for k in range(2)) for j in range(2)] for i in range(2)]
            return [[ab[i][j] - ba[i][j] for j in range(2)] for i in range(2)]
        return LiePair(comm(self.x1, other.x1), comm(self.x2, other.x2))

    def __repr__(self):
        return f"LiePair({self.x1}, {self.x2})"


SL2_E = ((Fraction(0), Fraction(1)), (Fraction(0), Fraction(0)))  # X d/dY
SL2_F = ((Fraction(0), Fraction(0)), (Fraction(1), Fraction(0)))  # Y d/dX
SL2_H = ((Fraction(1), Fraction(0)), (Fraction(0), Fraction(-1)))


def _pair_images(ring, g1, g2):
    def lin(xname, yname, col0, col1):
        x = MPoly.variable(ring, xname)
        y = MPoly.variable(ring, yname)
        return x.scale(col0[0]) + y.scale(col0[1]), x.scale(col1[0]) + y.scale(col1[1])
    # (X', Y') = (X, Y) . g  =>  X' = g00 X + g10 Y,  Y' = g01 X + g11 Y
    i1 = lin("X1", "Y1", (g1[0][0], g1[1][0]), (g1[0][1], g1[1][1]))
    i2 = lin("X2", "Y2", (g2[0][0], g2[1][0]), (g2[0][1], g2[1][1]))
    return [i1[0], i1[1], i2[0], i2[1]]


def act(g: GroupPair, f: BiForm) -> BiForm:
    """Substitution action of a GroupPair on a biform (bidegree preserved)."""
    images = _pair_images(RING_BI, g.g1, g.g2)
    return BiForm(f.bidegree, f.poly.substitute(images))


def act_binary(g, f: BinaryForm) -> BinaryForm:
    """Substitution action of a single 2x2 matrix on a binary form."""
    g = _mat2(g)
    if _det2(g) == 0:
        raise ValueError("singular matrix")
    x = MPoly.variable(RING_XY, "X")
    y = MPoly.variable(RING_XY, "Y")
    images = [x.scale(g[0][0]) + y.scale(g[1][0]), x.scale(g[0][1]) + y.scale(g[1][1])]
    return BinaryForm(f.degree, f.poly.substitute(images))


def act_ternary(g: G3Element, f: TernaryForm) -> TernaryForm:
    """Substitution action (X,Y,Z) -> (X,Y,Z).g on a ternary form."""
    m = g.mat
    vs = [MPoly.variable(RING_XYZ, v) for v in RING_XYZ]
    images = [vs[0].scale(m[0][j]) + vs[1].scale(m[1][j]) + vs[2].scale(m[2][j])
              for j in range(3)]
    return TernaryForm(f.degree, f.poly.substitute(images))


def _derivation(poly, xname, yname, x):
    xv = MPoly.variable(poly.ring, xname)
    yv = MPoly.variable(poly.ring, yname)
    cx = xv.scale(x[0][0]) + yv.scale(x[1][0])
    cy = xv.scale(x[0][1]) + yv.scale(x[1][1])
    return cx * poly.diff(xname) + cy * poly.diff(yname)


def lie_act(x: LiePair, f: BiForm) -> BiForm:
    """Derivation action of sl2 x sl2: the derivative of act at the identity."""
    p = _derivation(f.poly, "X1", "Y1", x.x1) + _derivation(f.poly, "X2", "Y2", x.x2)
    return BiForm(f.bidegree, p)


def lie_act_binary(x, f: BinaryForm) -> BinaryForm:
    """Derivation action of a single traceless 2x2 on a binary form."""
    x = _mat2(x)
    if x[0][0] + x[1][1] != 0:
        raise ValueError("non-traceless input")
    return BinaryForm(f.degree, _derivation(f.poly, "X", "Y", x))


def matrix_of_binary_action(g, b: int) -> QMat:
    """Matrix of act_binary(g, .) on V_b in the canonical monomial basis."""
    columns = []
    for exps in binary_basis(b):
        m = BinaryForm(b, MPoly(RING_XY, {exps: Fraction(1)}))
        columns.append(act_binary(g, m).coeff_vector())
    return QMat.from_columns(columns)


def _sl2_images(vec, d, step):
    """(X d/dY, Y d/dX, H) images of an integer coefficient vector whose acted-on
    factor has degree d and Y-exponent k = i // step % (d + 1) at index i."""
    ks = [i // step % (d + 1) for i in range(len(vec))]
    e = [(k + 1) * vec[i + step] if k < d else 0 for i, k in enumerate(ks)]
    f = [(d - k + 1) * vec[i - step] if k else 0 for i, k in enumerate(ks)]
    return e, f, [(d - 2 * k) * c for k, c in zip(ks, vec)]


def projective_stabilizer_dim(f: BiForm) -> int:
    """Dimension of {(x, c) in (sl2 x sl2) x Q : lie_act(x, f) = c f}.

    Zero means the projective stabilizer of [f] is infinitesimally trivial.
    """
    if f.is_zero():
        raise ValueError("zero form")
    a, b = f.bidegree
    vec, _ = _integer_row(f.coeff_vector())
    rows = [*_sl2_images(vec, a, b + 1), *_sl2_images(vec, b, 1), [-c for c in vec]]
    return 7 - len(_bareiss(rows)[0])


def subspace_stabilizer_dim(w: Subspace) -> int:
    """Dimension of {x in sl2 : x . W <= W} for W a subspace of V_b."""
    b = w.ambient_dim - 1
    if w.dim == 0 or w.dim == w.ambient_dim:
        raise ValueError("subspace must be proper and nonzero")
    # x.W <= W iff x.w_i is killed by each annihilator n_f of the RREF basis
    # scaled by L (f a free column): n_f[f] = L, n_f[p_i] = -L*W[i][f].
    flat, big = _integer_row([x for row in w.basis.entries for x in row])
    basis = [flat[i:i + b + 1] for i in range(0, len(flat), b + 1)]
    pivots = w.pivots()
    free = [j for j in range(b + 1) if j not in pivots]
    rows = [[], [], []]
    for vec in basis:
        for row, image in zip(rows, _sl2_images(vec, b, 1)):
            row.extend(big * image[j] - sum(basis[i][j] * image[p] for i, p in enumerate(pivots))
                       for j in free)
    return 3 - len(_bareiss(rows)[0])


def det_scalar(g: GroupPair, w: Subspace) -> Fraction:
    """Scalar by which the second factor of g acts on the top wedge of W.

    W is a subspace of V_b with b = ambient_dim - 1; g must map W into
    itself (checked), and the returned value is det of the restriction.
    """
    b = w.ambient_dim - 1
    a_mat = matrix_of_binary_action(g.g2, b)
    pivots = w.pivots()
    rows = []
    for vec in w.basis.entries:
        image = a_mat.matvec(vec)
        if not w.contains(image):
            raise ValueError("subspace is not invariant under g")
        rows.append([image[p] for p in pivots])
    return det(QMat(rows))


def act_on_subspace(g, w: Subspace) -> Subspace:
    """Image of a subspace of V_b under the substitution action of g (2x2)."""
    b = w.ambient_dim - 1
    a_mat = matrix_of_binary_action(g, b)
    return Subspace.from_vectors(w.ambient_dim, [a_mat.matvec(v) for v in w.basis.entries])


def weight_of(f: BiForm, torus_exponents, twist: int):
    """Weight of f under t -> t^twist * subst(t^w1 X1, t^w2 Y1, t^w3 X2, t^w4 Y2).

    Returns the integer k with action(t) f = t^k f, or None when f is not an
    eigenvector (and for the zero form, which has no well-defined weight).
    """
    if len(torus_exponents) != 4:
        raise ValueError("four torus exponents required")
    weights = {
        twist + sum(w * e for w, e in zip(torus_exponents, exps))
        for exps in f.poly.terms
    }
    if len(weights) != 1:
        return None
    return weights.pop()
