"""Seeded random generators for forms, matrices and subspaces.

Sampling policy: coefficients are integers in [-9, 9] drawn from an explicit
random.Random instance, so every sampled object is reproducible from the seed
recorded in a report.  Generators that must return nonzero/full-rank objects
resample (the degenerate draws have vanishing probability but the loop keeps
the contracts unconditional).

Every integer here is drawn by _draws, which makes the draws of rng.randint(lo,
hi) without its call layers: randint is randrange(lo, hi + 1), which adds lo
to _randbelow(n), n = hi - lo + 1, and _randbelow draws getrandbits(k), k =
n.bit_length(), until the value is below n.  So the values and the state of
rng afterwards are those of the same randint calls, and a seed gives the
same objects either way.
"""

from __future__ import annotations

from random import Random

from .actions import GroupPair
from .forms import BiForm, BinaryForm, _basis
from .linalg import QMat, Subspace

COEFF_RANGE = (-9, 9)
SHEAR_RANGE = (-3, 3)


def _draws(rng, count, lo, hi):
    """count integers in [lo, hi]: the values and stream of as many rng.randint(lo, hi)."""
    n = hi - lo + 1
    k = n.bit_length()
    getrandbits = rng.getrandbits
    out = []
    for _ in range(count):
        r = getrandbits(k)
        while r >= n:
            r = getrandbits(k)
        out.append(lo + r)
    return out


def _random_form(rng, cls, degree):
    """One integer draw per basis index, in basis order; redrawn while zero."""
    n = len(_basis(cls.groups, cls._grading(degree)))
    while True:
        f = cls._make(degree, _draws(rng, n, *COEFF_RANGE), 1)
        if not f.is_zero():
            return f


def random_binary_form(rng: Random, d: int) -> BinaryForm:
    return _random_form(rng, BinaryForm, d)


def random_biform(rng: Random, a: int, b: int) -> BiForm:
    return _random_form(rng, BiForm, (a, b))


def random_subspace(rng: Random, ambient_dim: int, dim: int) -> Subspace:
    """Random dim-dimensional subspace of Q^ambient_dim (0 <= dim <= ambient_dim)."""
    if not 0 <= dim <= ambient_dim:
        raise ValueError(f"no {dim}-dimensional subspace of Q^{ambient_dim}")
    while True:
        flat = _draws(rng, ambient_dim * dim, *COEFF_RANGE)
        # the draws go straight into the echelon routine as integer rows, with no QMat
        w = Subspace._span(ambient_dim, [flat[i * ambient_dim:(i + 1) * ambient_dim]
                                         for i in range(dim)])
        if w.dim == dim:
            return w


def random_sl2(rng: Random) -> QMat:
    """Random determinant-1 2x2 integer matrix: upper, lower and upper shears."""
    k1, k2, k3 = _draws(rng, 3, *SHEAR_RANGE)
    return QMat(((1, k1), (0, 1))) * QMat(((1, 0), (k2, 1))) * QMat(((1, k3), (0, 1)))


def random_sl_pair(rng: Random) -> GroupPair:
    return GroupPair(random_sl2(rng), random_sl2(rng))
