"""Transvectants of binary forms and bi-transvectants of biforms.

The r-th transvectant of binary forms P (degree d) and P' (degree d') is the
Cayley differential sum

    T_r(P, P') = sum_{i=0}^{r} (-1)^i C(r,i)
                 d^r P / dX^(r-i) dY^i  *  d^r P' / dX^i dY^(r-i),

landing in degree d + d' - 2r.  This fixed normalization (no extra factorial
scaling) is used everywhere; every identity in this package is exact under
it.  T_0 is the plain product and T_r(Q, P) = (-1)^r T_r(P, Q).

For biforms the (r,s)-th bi-transvectant is the double Cayley sum over both
variable pairs; on decomposable forms P1(X1,Y1)*P2(X2,Y2) it factors exactly
as T_r on the first pair times T_s on the second.  transvectant,
bitransvectant and transvectant_matrix share one integer kernel on the first
operand's numerators and bidegree: f's (r,s) derivative table is built once,
and each term of the second operand adds a shifted, scaled copy of it (one
unit monomial per column for the matrix).  A degree-d binary form enters it
as the numerators of bidegree (d, 0), where index i is X1^(d-i) Y1^i.  A
term visits the orders where both its falling factorials are nonzero
(_orders), and its row of (order, weight) pairs is cached by its exponents,
the order and the side, so a warm call computes no falling factorial.
_shape checks (r, s) and gives the target bidegree; _cayley_words, the work
estimate `biforms transvect` checks first, counts the same orders.

apolar_diffop realizes the extreme transvectant r = d' <= d by substituting
(-d/dY, d/dX) for (X, Y) in P', applying the resulting operator to P and
scaling by d'!.  It convolves the two integer coefficient vectors with that
operator's falling factorials, not through the Cayley kernel, so it is an
independent route.  Under the normalization above it agrees with
transvectant(P, P', d') on the nose (ratio 1 for every (d, d')), which the
verification registry re-derives numerically.
"""

from __future__ import annotations

from functools import lru_cache
from math import comb, factorial, perm

from .forms import BiForm, BinaryForm
from .linalg import QMat


def transvectant(p: BinaryForm, q: BinaryForm, r: int) -> BinaryForm:
    """r-th transvectant of binary forms; degree d + d' - 2r: T_(r,0) on
    their numerators read as bidegree (d, 0) and (d', 0)."""
    terms = [(i, c) for i, c in enumerate(q._num) if c]
    (degree, _), (vec,) = _cayley(p._num, (p.degree, 0), r, 0, (q.degree, 0), [terms])
    return BinaryForm._make(degree, vec, p._den * q._den)


def apolar_diffop(p: BinaryForm, q: BinaryForm) -> BinaryForm:
    """Apply d'! * q(-d/dY, d/dX) to p, for d' = deg q <= deg p.

    q's term X^(e-k) Y^k acts as (-1)^(e-k) d^e / dX^k dY^(e-k), which sends
    p's X^(d-i) Y^i, i = m + e - k, to perm(d-i, k) perm(i, e-k) X^(d-e-m) Y^m;
    the integer numerators of p and q are convolved that way in one vector.
    It computes its own falling factorials and never reads the Cayley
    kernel's cached weights, so C04 compares two independent routes.
    """
    d, e = p.degree, q.degree
    if e > d:
        raise ValueError(f"operator degree {e} exceeds operand degree {d}")
    out = [0] * (d - e + 1)
    for k, c in enumerate(q._num):
        if c:
            w = (-1) ** (e - k) * factorial(e) * c
            for m in range(d - e + 1):
                i = m + e - k
                out[m] += w * perm(d - i, k) * perm(i, e - k) * p._num[i]
    return BinaryForm._make(d - e, out, p._den * q._den)


def _orders(x, y, r):
    """The orders i where perm(x, r-i) and perm(y, i) are both nonzero."""
    return range(max(0, r - x), min(r, y) + 1)


def _shape(bidegree, source_bidegree, r, s):
    """The bidegree of T_(r,s) from these two; ValueError for a bad order."""
    (a, b), (a2, b2) = bidegree, source_bidegree
    if r < 0 or r > min(a, a2):
        raise ValueError(f"first-pair order {r} out of range for ({a}, {a2})")
    if s < 0 or s > min(b, b2):
        raise ValueError(f"second-pair order {s} out of range for ({b}, {b2})")
    return a + a2 - 2 * r, b + b2 - 2 * s


@lru_cache(maxsize=4096)
def _weights(y, x, r, table):
    """(order i, weight) over the orders of the term X^x Y^y: (-1)^i C(r,i)
    perm(x, r-i) perm(y, i) for f's table, perm(x, i) perm(y, r-i) for an operand."""
    if table:
        return tuple((i, (-1) ** i * comb(r, i) * perm(x, r - i) * perm(y, i))
                     for i in _orders(x, y, r))
    return tuple((i, perm(x, i) * perm(y, r - i)) for i in _orders(y, x, r))


def _cayley(num, bidegree, r, s, source_bidegree, operands):
    """T_(r,s)(f, g) for each operand g: (target bidegree, integer vectors).

    f is the form with integer numerators num in the basis of bidegree; an
    operand is a list of (index, integer coefficient) terms in the source
    basis.  vectors[k] is the numerator vector of T_(r,s)(f, operands[k]) in
    the canonical target basis, over the product of the two denominators.

    table[i][j] holds (-1)^(i+j) C(r,i) C(s,j) d^(r+s) f / dX1^(r-i) dY1^i
    dX2^(s-j) dY2^j.  An operand term c*X1^p Y1^q X2^u Y2^v meets it through
    d^(r+s) / dX1^i dY1^(r-i) dX2^j dY2^(s-j): c times falling factorials,
    with the Y exponents shifted by (q-r+i, v-s+j).  X1^(A-e1) Y1^e1 X2^(B-e3)
    Y2^e3 is index e1*(B+1) + e3 of bidegree (A, B), so the table stores that
    index and a shift is one addition.
    """
    (a, b), (a2, b2) = bidegree, source_bidegree
    target = _shape(bidegree, source_bidegree, r, s)
    width = target[1] + 1
    table = [[[] for _ in range(s + 1)] for _ in range(r + 1)]
    for index, c in enumerate(num):
        if not c:
            continue
        y1, y2 = divmod(index, b + 1)
        seconds = _weights(y2, b - y2, s, True)
        for i, wi in _weights(y1, a - y1, r, True):
            ci = c * wi
            for j, wj in seconds:
                table[i][j].append(((y1 - i) * width + y2 - j, ci * wj))
    vectors = []
    for terms in operands:
        out = [0] * ((target[0] + 1) * width)
        for index, c in terms:
            q, v = divmod(index, b2 + 1)
            seconds = _weights(v, b2 - v, s, False)
            for i, wi in _weights(q, a2 - q, r, False):
                ci = c * wi
                row_shift = (q - r + i) * width - s
                for j, wj in seconds:
                    k = ci * wj
                    shift = row_shift + v + j
                    for t, w in table[i][j]:
                        out[t + shift] += k * w
        vectors.append(out)
    return target, vectors


def _cayley_words(f, g, r, s):
    """An upper estimate of _cayley's work on T_(r,s)(f, g), taken from the
    visited orders alone, so no weight is computed or cached: one product per
    order of a term of f, and 1 + (terms of f) per order of a term of g, each
    in the 64-bit words of its bound |c| 2^(r+s) a^r b^s |c'| a'^r b'^s."""
    (a, b), (a2, b2) = ((h.degree, 0) if isinstance(h, BinaryForm) else h.bidegree
                        for h in (f, g))

    def orders(h, d1, d2):  # (terms, visited orders) of h's nonzero terms
        ys = [divmod(index, d2 + 1) for index, c in enumerate(h._num) if c]
        return len(ys), sum(len(_orders(d1 - y1, y1, r)) * len(_orders(d2 - y2, y2, s))
                            for y1, y2 in ys)

    f_terms, f_orders = orders(f, a, b)
    _, g_orders = orders(g, a2, b2)
    bits = (max(map(abs, f._num)).bit_length() + max(map(abs, g._num)).bit_length()
            + r * (1 + a.bit_length() + a2.bit_length())
            + s * (1 + b.bit_length() + b2.bit_length()))
    return (f_orders + g_orders * (f_terms + 1)) * (1 + bits // 64)


def bitransvectant(f: BiForm, g: BiForm, r: int, s: int) -> BiForm:
    """(r,s)-th bi-transvectant: the double Cayley sum over both pairs."""
    terms = [(i, c) for i, c in enumerate(g._num) if c]
    target, (vec,) = _cayley(f._num, f.bidegree, r, s, g.bidegree, [terms])
    return BiForm._make(target, vec, f._den * g._den)


def specialized_1s(f: BiForm, g: BiForm, s: int) -> BiForm:
    """T_(1,s) on bidegree-(1,.) operands via T_s(P,Q') - T_s(Q,P').

    Writing f = X1*P + Y1*Q and g = X1*P' + Y1*Q', the (1,s) bi-transvectant
    collapses to a difference of second-pair transvectants; this equals
    bitransvectant(f, g, 1, s) exactly.
    """
    if f.bidegree[0] != 1 or g.bidegree[0] != 1:
        raise ValueError("both operands must have bidegree (1, .)")
    target = _shape(f.bidegree, g.bidegree, 1, s)
    p, q = f.pq()
    p2, q2 = g.pq()
    result = transvectant(p, q2, s) - transvectant(q, p2, s)
    return BiForm._make(target, result._num, result._den)


def transvectant_matrix(f: BiForm, r: int, s: int, source_bidegree) -> QMat:
    """Matrix of G |-> T_(r,s)(f, G) on V_(a',b') in the monomial bases.

    Column j is the coefficient vector of T_(r,s)(f, e_j) where e_j is the
    j-th canonical basis monomial of the source space; rows are indexed by
    the canonical basis of the target space.  f's derivative table is built
    once for all columns.
    """
    a2, b2 = source_bidegree
    units = [[(i, 1)] for i in range((a2 + 1) * (b2 + 1))]
    _, columns = _cayley(f._num, f.bidegree, r, s, source_bidegree, units)
    return QMat._make(list(zip(*columns)), f._den)


def cg_components(d: int, d2: int):
    """Degrees of the irreducible pieces of V_d (x) V_d' : d + d' - 2r."""
    if d < 0 or d2 < 0:
        raise ValueError("degrees must be >= 0")
    return [d + d2 - 2 * r for r in range(min(d, d2) + 1)]
