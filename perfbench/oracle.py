"""Independent exact routines that produce the benchmark's expected answers.

Nothing here imports biforms.  Polynomials are plain dicts from exponent
tuples to Fractions, matrices are lists of lists of Fractions, and elimination
is textbook Gauss-Jordan, so an answer that agrees with the program's is
confirmed by a second route rather than by the program's own code path.
"""

from fractions import Fraction
from math import comb
import re

RING_XY = ("X", "Y")
RING_BI = ("X1", "Y1", "X2", "Y2")


# ---------------------------------------------------------------------------
# polynomials as {exponents: Fraction}
# ---------------------------------------------------------------------------

def padd(p, q):
    out = dict(p)
    for e, c in q.items():
        s = out.get(e, 0) + c
        if s:
            out[e] = s
        else:
            out.pop(e, None)
    return out


def pmul(p, q):
    out = {}
    for e1, c1 in p.items():
        for e2, c2 in q.items():
            e = tuple(a + b for a, b in zip(e1, e2))
            s = out.get(e, 0) + c1 * c2
            if s:
                out[e] = s
            else:
                out.pop(e, None)
    return out


def ppow(p, k, nvars):
    out = {(0,) * nvars: Fraction(1)}
    for _ in range(k):
        out = pmul(out, p)
    return out


def substitute(p, images, nvars):
    """p(images[0], images[1], ...) with each image a dict over nvars variables."""
    cache = {}
    out = {}
    for e, c in p.items():
        term = {(0,) * nvars: Fraction(c)}
        for i, k in enumerate(e):
            if k:
                if (i, k) not in cache:
                    cache[(i, k)] = ppow(images[i], k, nvars)
                term = pmul(term, cache[(i, k)])
        out = padd(out, term)
    return out


def act_pair(f, g1, g2):
    """f(v1 . g1, v2 . g2) for a biform dict f and 2x2 matrices g1, g2 (row-vector action)."""
    def lin(k, col):
        # (X, Y) . g: the new k-th pair variable is col[0]*X + col[1]*Y
        e0 = [0, 0, 0, 0]
        e1 = [0, 0, 0, 0]
        e0[2 * k] = 1
        e1[2 * k + 1] = 1
        return {e: Fraction(c) for e, c in ((tuple(e0), col[0]), (tuple(e1), col[1])) if c}
    images = [
        lin(0, (g1[0][0], g1[1][0])), lin(0, (g1[0][1], g1[1][1])),
        lin(1, (g2[0][0], g2[1][0])), lin(1, (g2[0][1], g2[1][1])),
    ]
    return substitute(f, images, 4)


def act_binary(p, g):
    """p((X, Y) . g) for a binary dict p."""
    images = [
        {e: Fraction(c) for e, c in (((1, 0), g[0][0]), ((0, 1), g[1][0])) if c},
        {e: Fraction(c) for e, c in (((1, 0), g[0][1]), ((0, 1), g[1][1])) if c},
    ]
    return substitute(p, images, 2)


def binary_basis(d):
    return [(d - k, k) for k in range(d + 1)]


def biform_basis(a, b):
    return [(i, a - i, j, b - j) for i in range(a, -1, -1) for j in range(b, -1, -1)]


def to_text(p, ring):
    """Any valid text for p in the package grammar (not necessarily canonical)."""
    if not p:
        return "0"
    parts = []
    for e, c in sorted(p.items(), reverse=True):
        mono = "*".join(v if k == 1 else f"{v}^{k}" for v, k in zip(ring, e) if k)
        num = abs(c)
        num = str(num.numerator) if num.denominator == 1 else f"{num.numerator}/{num.denominator}"
        body = f"{num}*{mono}" if mono else num
        parts.append(("- " if c < 0 else "+ ") + body)
    text = " ".join(parts)
    return text[2:] if text.startswith("+ ") else "-" + text[2:]


_TERM = re.compile(r"^(?:(\d+)(?:/(\d+))?)?\*?((?:[A-Z]\d?(?:\^\d+)?\*?)*)$")


def parse_printed(text, ring):
    """Read the canonical printer's output back into a dict.

    The printer writes `c*V1^k1*V2^k2` terms joined by ' + ' / ' - ' with an
    optional leading '-'; anything else raises ValueError.
    """
    text = text.strip()
    if text == "0":
        return {}
    sign = 1
    if text.startswith("-"):
        sign, text = -1, text[1:]
    out = {}
    for k, chunk in enumerate(re.split(r" ([+-]) ", text)):
        if k % 2:
            sign = 1 if chunk == "+" else -1
            continue
        m = _TERM.match(chunk)
        if not m or not chunk:
            raise ValueError(f"unreadable term {chunk!r}")
        num, den, mono = m.groups()
        coeff = Fraction(int(num) if num else 1, int(den) if den else 1)
        exps = [0] * len(ring)
        for factor in filter(None, mono.split("*")):
            name, _, power = factor.partition("^")
            exps[ring.index(name)] += int(power) if power else 1
        exps = tuple(exps)
        if exps in out or coeff == 0:
            raise ValueError(f"repeated or zero term in {text!r}")
        out[exps] = sign * coeff
    return out


# ---------------------------------------------------------------------------
# transvectants by the Cayley sum on monomials
# ---------------------------------------------------------------------------

def _falling(n, k):
    out = 1
    for i in range(k):
        out *= n - i
    return out


def transvectant_pairs(f, g, orders):
    """Cayley sum over each variable pair; orders[k] is the order on pair k.

    One pair gives T_r of binary forms, two pairs the bi-transvectant
    T_(r,s): the sum over (i, j) of (-1)^(i+j) C(r,i) C(s,j) times the
    mixed partials of f and g, computed term by term.
    """
    npairs = len(orders)
    out = {}
    splits = [[(i, (-1) ** i * comb(r, i)) for i in range(r + 1)] for r in orders]

    def combos(k):
        if k == npairs:
            yield (), 1
            return
        for i, w in splits[k]:
            for rest, w2 in combos(k + 1):
                yield (i,) + rest, w * w2

    for idx, weight in combos(0):
        for ef, cf in f.items():
            df = 1
            for k, (r, i) in enumerate(zip(orders, idx)):
                df *= _falling(ef[2 * k], r - i) * _falling(ef[2 * k + 1], i)
            if not df:
                continue
            for eg, cg in g.items():
                dg = 1
                e = []
                for k, (r, i) in enumerate(zip(orders, idx)):
                    dg *= _falling(eg[2 * k], i) * _falling(eg[2 * k + 1], r - i)
                    e += [ef[2 * k] - (r - i) + eg[2 * k] - i,
                          ef[2 * k + 1] - i + eg[2 * k + 1] - (r - i)]
                if not dg:
                    continue
                e = tuple(e)
                s = out.get(e, 0) + weight * df * dg * cf * cg
                if s:
                    out[e] = s
                else:
                    out.pop(e, None)
    return out


# ---------------------------------------------------------------------------
# Gauss-Jordan over Fractions
# ---------------------------------------------------------------------------

def rref(rows):
    """(reduced rows, rank, pivot columns) by plain Gauss-Jordan."""
    m = [[Fraction(x) for x in row] for row in rows]
    ncols = len(m[0]) if m else 0
    pivots = []
    r = 0
    for c in range(ncols):
        p = next((i for i in range(r, len(m)) if m[i][c]), None)
        if p is None:
            continue
        m[r], m[p] = m[p], m[r]
        inv = m[r][c]
        m[r] = [x / inv for x in m[r]]
        for i in range(len(m)):
            if i != r and m[i][c]:
                f = m[i][c]
                m[i] = [a - f * b for a, b in zip(m[i], m[r])]
        pivots.append(c)
        r += 1
    return m[:r], r, pivots


def rank(rows):
    return rref(rows)[1]


def kernel(rows, ncols):
    """(rank, canonical reduced row-echelon basis of {v : rows . v = 0})."""
    red, rk, pivots = rref(rows) if rows else ([], 0, [])
    vectors = []
    for free in (j for j in range(ncols) if j not in pivots):
        v = [Fraction(0)] * ncols
        v[free] = Fraction(1)
        for i, p in enumerate(pivots):
            v[p] = -red[i][free]
        vectors.append(v)
    return rk, (rref(vectors)[0] if vectors else [])


def det(rows):
    m = [[Fraction(x) for x in row] for row in rows]
    n = len(m)
    value = Fraction(1)
    for c in range(n):
        p = next((i for i in range(c, n) if m[i][c]), None)
        if p is None:
            return Fraction(0)
        if p != c:
            m[c], m[p] = m[p], m[c]
            value = -value
        value *= m[c][c]
        for i in range(c + 1, n):
            f = m[i][c] / m[c][c]
            if f:
                m[i] = [a - f * b for a, b in zip(m[i], m[c])]
    return value


# ---------------------------------------------------------------------------
# the sl2 x sl2 derivation action and stabilizer dimensions
# ---------------------------------------------------------------------------

def _e(p, k):      # X d/dY on pair k
    out = {}
    for e, c in p.items():
        if e[2 * k + 1]:
            e2 = list(e)
            e2[2 * k] += 1
            e2[2 * k + 1] -= 1
            out[tuple(e2)] = c * e[2 * k + 1]
    return out


def _f(p, k):      # Y d/dX on pair k
    out = {}
    for e, c in p.items():
        if e[2 * k]:
            e2 = list(e)
            e2[2 * k] -= 1
            e2[2 * k + 1] += 1
            out[tuple(e2)] = c * e[2 * k]
    return out


def _h(p, k):      # X d/dX - Y d/dY on pair k
    out = {}
    for e, c in p.items():
        w = e[2 * k] - e[2 * k + 1]
        if w:
            out[e] = c * w
    return out


_SL2 = (_e, _f, _h)


def projective_stabilizer_dim(f, basis):
    """dim {(x, c) in sl2 x sl2 x Q : x . f = c f} for a biform dict f."""
    columns = [op(f, k) for k in (0, 1) for op in _SL2] + [f]
    rows = [[col.get(e, 0) for col in columns] for e in basis]
    return len(columns) - rank(rows)


def subspace_stabilizer_dim(rows_w, b):
    """dim {x in sl2 : x . W <= W} for W given by canonical RREF rows over V_b."""
    basis = binary_basis(b)
    pivots = [next(j for j, x in enumerate(r) if x) for r in rows_w]

    def residual(v):
        for r, p in zip(rows_w, pivots):
            if v[p]:
                c = v[p]
                v = [a - c * x for a, x in zip(v, r)]
        return v

    system = []
    for vec in rows_w:
        form = {e: c for e, c in zip(basis, vec) if c}
        res = [residual([op(form, 0).get(e, Fraction(0)) for e in basis]) for op in _SL2]
        system += [[res[0][k], res[1][k], res[2][k]] for k in range(b + 1)]
    return 3 - rank(system)


def sylvester(p, q, d, e):
    """Resultant of binary dicts p, q of degrees d, e >= 1 (full homogeneous Sylvester matrix)."""
    pc = [p.get((d - i, i), Fraction(0)) for i in range(d + 1)]
    qc = [q.get((e - i, i), Fraction(0)) for i in range(e + 1)]
    rows = [[0] * i + pc + [0] * (e - 1 - i) for i in range(e)]
    rows += [[0] * i + qc + [0] * (d - 1 - i) for i in range(d)]
    return det(rows)
