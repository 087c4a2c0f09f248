from random import Random

import pytest

from biforms import BiForm, BinaryForm, QMat, Subspace, biform_basis, binary_basis
from biforms.sampling import random_biform, random_binary_form, random_sl2, random_subspace


def test_random_subspace_rejects_impossible_dimensions():
    # k > n used to redraw forever, since no k vectors in Q^n are independent
    for n, k in ((3, 4), (0, 1), (3, -1)):
        with pytest.raises(ValueError):
            random_subspace(Random(0), n, k)
    for n in range(4):
        for k in range(n + 1):
            w = random_subspace(Random(n * 10 + k), n, k)
            assert isinstance(w, Subspace) and w.dim == k and w.ambient_dim == n


def test_random_forms_draw_one_integer_per_basis_index():
    for a, b in ((0, 0), (1, 4), (3, 2)):
        rng, ref = Random(f"draw{a}{b}"), Random(f"draw{a}{b}")
        f = random_biform(rng, a, b)
        assert f == BiForm.from_coeff_vector((a, b), [ref.randint(-9, 9) for _ in biform_basis(a, b)])
        g = random_binary_form(rng, b)
        assert g == BinaryForm.from_coeff_vector(b, [ref.randint(-9, 9) for _ in binary_basis(b)])
        assert rng.getstate() == ref.getstate()
    # a zero draw is redrawn
    rng = Random(0)
    state = rng.getstate()
    while rng.randint(-9, 9):
        state = rng.getstate()
    rng.setstate(state)
    assert not random_binary_form(rng, 0).is_zero()


def test_subspaces_and_shears_draw_as_randint_does():
    redrawn = 0
    for seed in range(60):
        n, k = seed % 3 + 1, seed % 3 + 1 - seed // 30
        rng, ref = Random(f"sub{seed}"), Random(f"sub{seed}")
        w = random_subspace(rng, n, k)
        while True:
            want = Subspace.from_vectors(n, [[ref.randint(-9, 9) for _ in range(n)] for _ in range(k)])
            if want.dim == k:
                break
            redrawn += 1
        assert w == want and rng.getstate() == ref.getstate()
        g = random_sl2(rng)
        k1, k2, k3 = (ref.randint(-3, 3) for _ in range(3))
        assert g == QMat(((1, k1), (0, 1))) * QMat(((1, 0), (k2, 1))) * QMat(((1, k3), (0, 1)))
        assert rng.getstate() == ref.getstate()
    assert redrawn   # a rank-deficient draw is redrawn from the same stream
