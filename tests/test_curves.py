from fractions import Fraction
from random import Random

import pytest

from biforms import (
    BiForm,
    BinaryForm,
    G3Element,
    QMat,
    Subspace,
    TernaryForm,
    act,
    act_on_subspace,
    act_ternary,
    binary_gcd,
    branch_form,
    hyperplane_degree,
    image_subspace,
    is_squarefree,
    phi_components,
    reassemble,
    singular_system,
    span_dim,
    sylvester_resultant,
)
from biforms.checks import DEGREE_GRID
from biforms.curves import CurveMap, _interpolate, gcd_all
from biforms.sampling import random_biform, random_binary_form, random_sl_pair
from helpers import (
    dict_diff,
    oracle_binary_gcd,
    oracle_branch_form,
    oracle_discriminant_b2,
    oracle_singular_system,
    oracle_symbolic_branch_form,
    oracle_ternary_basis,
    pair_text,
    to_dict,
    to_form,
)


def test_phi_components_examples():
    f = BiForm.parse("X1*Y2^2 + Y1*X2^2")
    cm = phi_components(f)
    assert cm.components == (BinaryForm.parse("X"), BinaryForm.zero(1), BinaryForm.parse("Y"))
    mono = BiForm.parse("X1^2*X2^5")
    cm2 = phi_components(mono)
    assert sum(1 for c in cm2.components if not c.is_zero()) == 1
    rng = Random("phi-roundtrip")
    g = random_biform(rng, 2, 5)
    assert reassemble(phi_components(g)) == g
    with pytest.raises(ValueError):
        phi_components(BiForm.zero((1, 2)))


def test_span_dim_examples():
    rng = Random("span")
    assert span_dim(phi_components(random_biform(rng, 2, 5))) == 2
    assert span_dim(phi_components(BiForm.parse("X1^2*X2^5"))) == 0
    assert span_dim(phi_components(random_biform(rng, 3, 7))) == 3


def test_image_subspace_examples():
    rng = Random("image")
    f = random_biform(rng, 2, 5)
    w = image_subspace(f)
    assert w.ambient_dim == 6 and w.dim == span_dim(phi_components(f)) + 1
    mono = image_subspace(BiForm.parse("X1^2*X2^5"))
    assert mono.dim == 1 and mono.contains([1, 0, 0, 0, 0, 0])
    rank1 = image_subspace(BiForm.parse("(X1 + Y1)*(X2^2 + 3*Y2^2)"))
    assert rank1.dim == 1


def test_image_subspace_equivariance():
    rng = Random("image-equivariance")
    for _ in range(10):
        f = random_biform(rng, 2, 5)
        g = random_sl_pair(rng)
        assert image_subspace(act(g, f)) == act_on_subspace(g.g2, image_subspace(f))


def test_hyperplane_degree_examples():
    rng = Random("hyperplane")
    assert hyperplane_degree(phi_components(random_biform(rng, 2, 3)), seed=1) == 2
    assert hyperplane_degree(phi_components(BiForm.parse("X1^2*X2^5")), seed=1) == 0
    assert hyperplane_degree(phi_components(random_biform(rng, 1, 6)), seed=2) == 1


def test_hyperplane_degree_never_exceeds_source_degree():
    rng = Random("hyperplane-bound")
    for _ in range(30):
        a, b = rng.randint(1, 3), rng.randint(1, 5)
        f = random_biform(rng, a, b)
        if rng.random() < 0.3:   # mix in special forms with base points
            x1 = BinaryForm.parse("X")
            cm = phi_components(f)
            f = reassemble(CurveMap(a, tuple(
                BinaryForm(a, x1.poly * c.dx().poly) if not c.is_zero() and a >= 1 else c
                for c in cm.components)))
            if f.is_zero():
                continue
        hd = hyperplane_degree(phi_components(f), seed=rng.randint(0, 99))
        assert hd is None or hd <= f.bidegree[0]


def test_sylvester_resultant_examples():
    x = BinaryForm.parse("X")
    y = BinaryForm.parse("Y")
    assert sylvester_resultant(x, y) == 1
    p = BinaryForm.parse("X^2 - 3*X*Y + Y^2")
    assert sylvester_resultant(p, p) == 0
    assert sylvester_resultant(BinaryForm.parse("X^2 - Y^2"), BinaryForm.parse("X - Y")) == 0
    # linear pair: resultant is the 2x2 determinant ad - bc
    assert sylvester_resultant(BinaryForm.parse("2*X + 3*Y"), BinaryForm.parse("5*X + 7*Y")) == -1
    with pytest.raises(ValueError):
        sylvester_resultant(x, BinaryForm.parse("1", degree=0))


def test_sylvester_resultant_properties():
    rng = Random("resultant")
    for _ in range(20):
        d, e, k = rng.randint(1, 3), rng.randint(1, 3), rng.randint(1, 2)
        p1 = random_binary_form(rng, d)
        p2 = random_binary_form(rng, e)
        q = random_binary_form(rng, k)
        prod = BinaryForm(d + e, p1.poly * p2.poly)
        assert sylvester_resultant(prod, q) == \
            sylvester_resultant(p1, q) * sylvester_resultant(p2, q)
        assert sylvester_resultant(q, p1) == \
            (-1) ** (d * k) * sylvester_resultant(p1, q)
        # homogeneous of degree k in p1's coefficients and d in q's, over Q
        c = Fraction(rng.randint(1, 9), rng.randint(2, 9))
        assert sylvester_resultant(c * p1, q) == c ** k * sylvester_resultant(p1, q)
        assert sylvester_resultant(p1, c * q) == c ** d * sylvester_resultant(p1, q)


def test_binary_gcd():
    g = BinaryForm.parse("X - 2*Y")
    h1 = BinaryForm.parse("X^2 + Y^2")
    h2 = BinaryForm.parse("X + Y")
    f1 = BinaryForm(3, g.poly * h1.poly)
    f2 = BinaryForm(2, g.poly * h2.poly)
    assert binary_gcd(f1, f2) == g
    # common factors at zero and at infinity are found
    f3 = BinaryForm.parse("X^2*Y")
    f4 = BinaryForm.parse("X*Y^2")
    assert binary_gcd(f3, f4) == BinaryForm.parse("X*Y")
    assert gcd_all([BinaryForm.zero(2), f3, f4]) == BinaryForm.parse("X*Y")
    coprime = binary_gcd(BinaryForm.parse("X^2 + Y^2"), BinaryForm.parse("X^2 - Y^2"))
    assert coprime.degree == 0


def test_is_squarefree():
    assert is_squarefree(BinaryForm.parse("X*Y*(X + Y)"))
    assert not is_squarefree(BinaryForm.parse("(X - Y)^2*(X + 2*Y)"))
    assert not is_squarefree(BinaryForm.parse("Y^2*(X + Y)"))
    assert is_squarefree(BinaryForm.parse("Y*(X^2 + Y^2)"))
    assert not is_squarefree(BinaryForm.parse("X^3"))
    assert is_squarefree(BinaryForm.parse("X + 5*Y"))
    assert not is_squarefree(BinaryForm.zero(2))


def _gcd_cases(n):
    """n pairs of binary forms sharing random factors, then fixed edge pairs:
    repeated factors, powers of X and Y, constants, rational scalars and zero
    forms."""
    rng = Random("gcd-oracle")

    def times(f, g):
        return BinaryForm(f.degree + g.degree, f.poly * g.poly)

    def cofactor():
        if rng.random() < 0.1:
            return BinaryForm.zero(rng.randint(0, 3))
        return random_binary_form(rng, rng.randint(0, 3))

    for _ in range(n):
        common = random_binary_form(rng, rng.randint(0, 2))
        for extra in ("X", "Y^2"):
            if rng.random() < 0.3:
                common = times(common, BinaryForm.parse(extra))
        if rng.random() < 0.3:
            common = times(common, common)
        f, g = times(common, cofactor()), times(common, cofactor())
        yield Fraction(rng.randint(1, 9), rng.randint(1, 9)) * f, g
    one = BinaryForm.parse("1", degree=0)
    yield one, Fraction(2, 3) * one
    yield BinaryForm.zero(2), BinaryForm.zero(3)
    yield BinaryForm.zero(2), BinaryForm.parse("-2*X*Y + 4*Y^2")
    yield BinaryForm.parse("1/2*Y^3"), BinaryForm.zero(1)
    yield BinaryForm.parse("X^3"), BinaryForm.parse("Y^2")
    yield BinaryForm.parse("3", degree=0), BinaryForm.parse("X^2 + Y^2")


def _oracle_gcd(f, g):
    degree, terms = oracle_binary_gcd((f.degree, to_dict(f)), (g.degree, to_dict(g)))
    return to_form(BinaryForm, degree, terms)


def test_binary_gcd_matches_oracle():
    for f, g in _gcd_cases(300):
        assert binary_gcd(f, g) == _oracle_gcd(f, g)
        assert binary_gcd(g, f) == _oracle_gcd(g, f)


def test_is_squarefree_matches_the_gcd_route():
    # the oracle's route: a form of degree >= 2 is squarefree when its partials are coprime
    for pair in _gcd_cases(300):
        for h in pair:
            if h.degree <= 1:
                expected = not h.is_zero()
            else:
                fx, fy = (dict_diff(to_dict(h), slot) for slot in (0, 1))
                expected = oracle_binary_gcd((h.degree - 1, fx), (h.degree - 1, fy))[0] == 0
            assert is_squarefree(h) == expected


def test_binary_gcd_and_is_squarefree_against_sympy():
    sympy = pytest.importorskip("sympy")
    x, y = sympy.symbols("X Y")

    def to_sympy(f):
        return sympy.sympify(str(f).replace("^", "**"), locals={"X": x, "Y": y})

    for f, g in _gcd_cases(40):
        if f.is_zero() and g.is_zero():
            continue
        expected = sympy.Poly(sympy.gcd(to_sympy(f), to_sympy(g)), x, y).monic()
        assert sympy.Poly(to_sympy(binary_gcd(f, g)), x, y, domain="QQ") == expected
        for h in (f, g):
            if not h.is_zero():
                _, factors = sympy.Poly(to_sympy(h), x, y).sqf_list()
                assert is_squarefree(h) == all(m == 1 for _, m in factors)


def test_branch_form_against_closed_form_b2():
    rng = Random("branch-b2")
    for a in (1, 2, 3):
        for _ in range(10):
            f = random_biform(rng, a, 2)
            assert branch_form(f) == to_form(BinaryForm, 2 * a, oracle_discriminant_b2(to_dict(f)))


def test_branch_form_against_symbolic_determinant_b3():
    rng = Random("branch-b3")
    for a in (1, 2):
        for _ in range(5):
            f = random_biform(rng, a, 3)
            expected = to_form(BinaryForm, 4 * a, oracle_symbolic_branch_form(to_dict(f), 3))
            assert branch_form(f) == expected


def _assert_matches_oracle(f):
    bf = branch_form(f)
    a, b = f.bidegree
    assert bf.degree == 2 * a * (b - 1)
    assert bf == to_form(BinaryForm, bf.degree, oracle_branch_form(to_dict(f), a, b))
    return bf


def test_branch_form_matches_oracle():
    rng = Random("branch-oracle")
    for (a, b) in DEGREE_GRID + [(1, 1), (3, 1), (2, 2)]:
        f = random_biform(rng, a, b)
        for form in (f, Fraction(5, 6) * f):
            _assert_matches_oracle(form)
    # a rational form whose terms have different denominators
    _assert_matches_oracle(BiForm.parse("1/2*X1*X2^3 - 2/3*Y1*X2*Y2^2 + 5/7*X1*Y2^3"))


def test_branch_form_special_orbits_match_oracle():
    rng = Random("branch-oracle-special")
    for (a, b) in [(1, 3), (2, 3), (1, 4), (2, 4)]:
        # a repeated root shared by the partials: the branch form vanishes
        p, r = random_binary_form(rng, a), random_binary_form(rng, b - 2)
        q = BinaryForm(b, BinaryForm.parse("(X - 2*Y)^2").poly * r.poly)
        decomposable = BiForm.parse(pair_text(p, "1") + "*" + pair_text(q, "2"))
        assert _assert_matches_oracle(decomposable).is_zero()
        # the reference orbit: nonzero but not squarefree
        moved = act(random_sl_pair(rng), BiForm.parse(f"X1*Y2^{b} + Y1*X2^{b}"))
        bf = _assert_matches_oracle(moved)
        assert not bf.is_zero() and not is_squarefree(bf)
    # b = 1: constant 1, or zero when a partial vanishes
    assert branch_form(BiForm.parse("X1*X2 + 3*Y1*Y2")) == BinaryForm.parse("1", degree=0)
    assert _assert_matches_oracle(BiForm.parse("X1^2*X2 - Y1^2*X2")).is_zero()


def test_branch_form_against_sympy_resultant():
    sympy = pytest.importorskip("sympy")
    x1, y1, x2, y2 = sympy.symbols("X1 Y1 X2 Y2")
    rng = Random("branch-sympy")
    for (a, b) in [(1, 3), (1, 4), (2, 3), (2, 4), (3, 3)]:
        f = random_biform(rng, a, b)
        big_f = sympy.sympify(str(f).replace("^", "**"))
        res = sympy.resultant(sympy.diff(big_f, x2).subs(y2, 1),
                              sympy.diff(big_f, y2).subs(y2, 1), x2)
        ours = sympy.sympify(str(branch_form(f)).replace("^", "**"),
                             locals={"X": x1, "Y": y1})
        assert sympy.expand(res - ours) == 0


def test_interpolate_round_trips_integer_polynomials():
    rng = Random("interpolate")
    for degree in range(0, 13):
        coeffs = [rng.randint(-50, 50) for _ in range(degree + 1)]
        value = lambda t: sum(c * t ** i for i, c in enumerate(coeffs))
        assert _interpolate([(t, value(t)) for t in range(degree + 1)]) == coeffs
        nodes = rng.sample(range(-20, 21), degree + 3)  # distinct, unordered, extra
        assert _interpolate([(t, value(t)) for t in nodes]) == coeffs + [0, 0]


def test_interpolate_rejects_non_integer_coefficients():
    # t(t-1)/2 is integer-valued, but its coefficients are not integers
    with pytest.raises(ArithmeticError):
        _interpolate([(t, t * (t - 1) // 2) for t in range(5)])


def test_branch_form_grid_examples():
    rng = Random("branch-grid")
    f = random_biform(rng, 2, 3)
    bf = branch_form(f)
    assert bf.degree == 8 and not bf.is_zero() and is_squarefree(bf)
    g = random_biform(rng, 1, 4)
    bg = branch_form(g)
    assert bg.degree == 6 and not bg.is_zero()
    degenerate = branch_form(BiForm.parse("X1^2*X2^4"))
    assert degenerate.is_zero()


def test_branch_form_riemann_hurwitz_count():
    # 2a(b-1) agrees with 2g - 2 + 2b for g = (a-1)(b-1)
    for (a, b) in [(1, 4), (2, 3), (2, 4), (2, 5), (3, 4)]:
        g = (a - 1) * (b - 1)
        assert 2 * a * (b - 1) == 2 * g - 2 + 2 * b


def test_singular_system_examples():
    cubic = singular_system([(0, 1, 0)], 3)
    assert cubic.dim == 7
    spans = ["X*Y*Z", "X^2*Z", "Z^2*X", "X^2*Y", "Y*Z^2", "X^3", "Z^3"]
    expected = Subspace.from_vectors(
        10, [TernaryForm.parse(t, degree=3).coeff_vector() for t in spans])
    assert cubic == expected

    quartic = singular_system([(1, 0, 0), (0, 1, 0), (0, 0, 1)], 4)
    assert quartic.dim == 6
    spans4 = ["X^2*Y^2", "Y^2*Z^2", "Z^2*X^2", "X^2*Y*Z", "Y^2*Z*X", "Z^2*X*Y"]
    expected4 = Subspace.from_vectors(
        15, [TernaryForm.parse(t, degree=4).coeff_vector() for t in spans4])
    assert quartic == expected4

    conic = singular_system([(0, 1, 0)], 2)
    assert conic.dim == 3
    spans2 = ["X^2", "X*Z", "Z^2"]
    expected2 = Subspace.from_vectors(
        6, [TernaryForm.parse(t, degree=2).coeff_vector() for t in spans2])
    assert conic == expected2

    with pytest.raises(ValueError):
        singular_system([(1, 0, 0), (2, 0, 0)], 3)


def test_singular_system_permutation_invariance():
    pts = [(1, 0, 0), (0, 1, 0), (0, 0, 1)]
    system = singular_system(pts, 4)
    perms = [
        G3Element.substitution([(0, 1, 0), (1, 0, 0), (0, 0, 1)]),
        G3Element.substitution([(0, 1, 0), (0, 0, 1), (1, 0, 0)]),
    ]
    for g in perms:
        for vec in system.basis.entries:
            image = act_ternary(g, TernaryForm.from_coeff_vector(4, vec))
            assert system.contains(image.coeff_vector())


def test_singular_system_without_points_is_every_form():
    for d in range(1, 5):
        n = (d + 1) * (d + 2) // 2
        system = singular_system([], d)
        assert (system.ambient_dim, system.dim) == (n, n)


def test_singular_system_matches_oracle():
    rng = Random("singular-oracle")
    cases = [([], 2), ([(0, 1, 0)], 3), ([(1, 0, 0), (0, 1, 0), (0, 0, 1)], 4),
             ([(Fraction(1, 2), Fraction(-2, 3), 5)], 3), ([(1, 1, 1), (1, -1, 2)], 1)]
    for _ in range(60):
        points = []
        for _ in range(rng.randint(1, 4)):
            p = tuple(Fraction(rng.randint(-3, 3), rng.randint(1, 4)) for _ in range(3))
            if any(p) and all(any(p[i] * q[j] != p[j] * q[i] for i in range(3) for j in range(3))
                              for q in points):
                points.append(p)
        cases.append((points, rng.randint(1, 5)))
    for points, d in cases:
        n = len(oracle_ternary_basis(d))
        assert singular_system(points, d) == Subspace(n, QMat(oracle_singular_system(points, d), n))


def test_curve_map_guards():
    with pytest.raises(ValueError):
        CurveMap(1, [BinaryForm.zero(1), BinaryForm.zero(1)])
    with pytest.raises(ValueError):
        CurveMap(1, [BinaryForm.parse("X"), BinaryForm.parse("X^2")])
