from random import Random

import pytest

from biforms import BiForm, BinaryForm, Subspace, biform_basis, binary_basis
from biforms.sampling import random_biform, random_binary_form, random_subspace


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
    # a zero draw is redrawn, unless zero is allowed
    rng = Random(0)
    state = rng.getstate()
    while rng.randint(-9, 9):
        state = rng.getstate()
    rng.setstate(state)
    assert random_binary_form(rng, 0, nonzero=False).is_zero()
    rng.setstate(state)
    assert not random_binary_form(rng, 0).is_zero()
