"""Seeded random generators for forms, matrices and subspaces.

Sampling policy: coefficients are integers in [-9, 9] drawn from an explicit
random.Random instance, so every sampled object is reproducible from the seed
recorded in a report.  Generators that must return nonzero/full-rank objects
resample (the degenerate draws have vanishing probability but the loop keeps
the contracts unconditional).
"""

from __future__ import annotations

from random import Random

from .actions import GroupPair
from .forms import BiForm, BinaryForm
from .linalg import QMat, Subspace

COEFF_RANGE = (-9, 9)
SHEAR_RANGE = (-3, 3)


def _random_form(rng, cls, degree):
    """One integer draw per basis index, in basis order; redrawn while zero."""
    n = len(cls.zero(degree)._num)
    while True:
        f = cls._make(degree, [rng.randint(*COEFF_RANGE) for _ in range(n)], 1)
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
        rows = [[rng.randint(*COEFF_RANGE) for _ in range(ambient_dim)] for _ in range(dim)]
        w = Subspace.from_vectors(ambient_dim, rows)
        if w.dim == dim:
            return w


def random_sl2(rng: Random) -> QMat:
    """Random determinant-1 2x2 integer matrix: upper, lower and upper shears."""
    k1, k2, k3 = (rng.randint(*SHEAR_RANGE) for _ in range(3))
    return QMat(((1, k1), (0, 1))) * QMat(((1, 0), (k2, 1))) * QMat(((1, k3), (0, 1)))


def random_sl_pair(rng: Random) -> GroupPair:
    return GroupPair(random_sl2(rng), random_sl2(rng))
