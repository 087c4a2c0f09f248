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
    act_ternary,
    binary_gcd,
    branch_form,
    hyperplane_degree,
    image_subspace,
    is_squarefree,
    phi_components,
    singular_system,
    span_dim,
    sylvester_resultant,
    tensor_product,
)
from biforms.checks import DEGREE_GRID
import biforms.curves as curves_mod
from biforms.curves import _interpolate, branch_form_is_zero
from biforms.sampling import random_biform, random_binary_form, random_sl_pair
from helpers import (
    dict_diff,
    oracle,
    oracle_act_on_subspace,
    oracle_binary_gcd,
    oracle_branch_form,
    oracle_components,
    oracle_discriminant_b2,
    oracle_hyperplane_combo,
    oracle_singular_system,
    oracle_symbolic_branch_form,
    oracle_ternary_basis,
    pair_text,
    rows,
    times,
    to_dict,
    to_form,
)


def _from_components(a, b, components):
    """The bidegree-(a,b) biform sum_j c_j(X1,Y1) X2^j Y2^(b-j) of binary dicts."""
    return to_form(BiForm, (a, b), {(i, k, j, b - j): c for j, comp in enumerate(components)
                                    for (i, k), c in comp.items()})


def test_phi_components_examples():
    f = BiForm.parse("X1*Y2^2 + Y1*X2^2")
    assert phi_components(f) == (BinaryForm.parse("X"), BinaryForm.zero(1), BinaryForm.parse("Y"))
    mono = BiForm.parse("X1^2*X2^5")
    assert sum(1 for c in phi_components(mono) if not c.is_zero()) == 1
    rng = Random("phi-roundtrip")
    for a, b in [(2, 5), (0, 3), (3, 0), (1, 1)]:
        g = Fraction(2, 3) * random_biform(rng, a, b)
        assert [to_dict(c) for c in phi_components(g)] == oracle_components(to_dict(g), b)
    zero = BiForm.zero((1, 2))
    for function in (phi_components, span_dim, image_subspace,
                     lambda f: hyperplane_degree(f, seed=0)):
        with pytest.raises(ValueError, match="zero form"):
            function(zero)


def _span_cases(rng):
    """Random biforms, and sums of k decomposables (span dimension k - 1 at most)."""
    for a, b in [(2, 5), (3, 7), (1, 1), (0, 4), (4, 0), (3, 3)]:
        yield random_biform(rng, a, b)
        for k in range(1, 4):
            total = {}
            for _ in range(k):
                p, q = random_binary_form(rng, a), random_binary_form(rng, b)
                total = oracle.padd(total, to_dict(tensor_product(p, q)))
            if total:
                yield to_form(BiForm, (a, b), total)


def test_span_dim_examples():
    rng = Random("span")
    assert span_dim(random_biform(rng, 2, 5)) == 2
    assert span_dim(BiForm.parse("X1^2*X2^5")) == 0
    assert span_dim(random_biform(rng, 3, 7)) == 3
    for f in _span_cases(rng):
        a, b = f.bidegree
        matrix = [[c.get((i, a - i), 0) for c in oracle_components(to_dict(f), b)]
                  for i in range(a, -1, -1)]
        assert span_dim(f) == oracle.rank(matrix) - 1


def test_image_subspace_examples():
    rng = Random("image")
    f = random_biform(rng, 2, 5)
    w = image_subspace(f)
    assert w.ambient_dim == 6 and w.dim == span_dim(f) + 1
    mono = image_subspace(BiForm.parse("X1^2*X2^5"))
    assert mono.dim == 1 and mono.contains([1, 0, 0, 0, 0, 0])
    rank1 = image_subspace(BiForm.parse("(X1 + Y1)*(X2^2 + 3*Y2^2)"))
    assert rank1.dim == 1
    for f in _span_cases(rng):
        a, b = f.bidegree
        # the image is spanned by the forms F(x1, y1; X2, Y2) at the points (1, t)
        values = [[sum(c * t ** i for (_, i, k2, _), c in to_dict(f).items() if k2 == b - k)
                   for k in range(b + 1)] for t in range(a + 1)]
        assert image_subspace(f) == Subspace.from_vectors(b + 1, values)


def test_image_subspace_equivariance():
    rng = Random("image-equivariance")
    for _ in range(10):
        f = random_biform(rng, 2, 5)
        g = random_sl_pair(rng)
        w = image_subspace(f)
        moved = oracle_act_on_subspace(rows(g.g2), rows(w.basis), 5)
        assert image_subspace(act(g, f)) == Subspace.from_vectors(6, moved)


def test_hyperplane_degree_examples():
    rng = Random("hyperplane")
    assert hyperplane_degree(random_biform(rng, 2, 3), seed=1) == 2
    assert hyperplane_degree(BiForm.parse("X1^2*X2^5"), seed=1) == 0
    assert hyperplane_degree(random_biform(rng, 1, 6), seed=2) == 1


def test_hyperplane_degree_never_exceeds_source_degree():
    rng = Random("hyperplane-bound")
    x1 = {(1, 0): Fraction(1)}
    for _ in range(30):
        a, b = rng.randint(1, 3), rng.randint(1, 5)
        f = random_biform(rng, a, b)
        if rng.random() < 0.3:   # mix in special forms with base points
            f = _from_components(a, b, [oracle.pmul(x1, dict_diff(to_dict(c), 0))
                                        for c in phi_components(f)])
            if f.is_zero():
                continue
        hd = hyperplane_degree(f, seed=rng.randint(0, 99))
        assert hd is None or hd <= f.bidegree[0]


def _annihilated(rng, a, b, seed):
    """A nonzero bidegree-(a,b) form whose map the seed's functional kills:
    random c_j but one, c_m = -(sum over j != m of lambda_j c_j) / lambda_m."""
    draw = Random(f"hyperplane:{seed}")
    lam = [draw.randint(-9, 9) for _ in range(b + 1)]
    m = next((j for j, L in enumerate(lam) if L), None)
    if m is None:
        return random_biform(rng, a, b)    # lambda = 0 kills every map
    components = [to_dict(random_binary_form(rng, a)) for _ in range(b + 1)]
    components[m] = {}
    for j, c in enumerate(components):
        components[m] = oracle.padd(components[m], {e: Fraction(-lam[j], lam[m]) * v
                                                    for e, v in c.items()})
    return _from_components(a, b, components)


def test_hyperplane_degree_is_degenerate_exactly_when_the_functional_kills_the_map():
    rng = Random("hyperplane-degenerate")
    cases = [(random_biform(rng, a, b), seed)
             for a in range(4) for b in range(5) for seed in range(3)]
    cases += [(_annihilated(rng, a, b, seed), seed)
              for a in range(4) for b in range(1, 5) for seed in range(3)]
    cases += [(f, n) for n, f in enumerate(_base_locus_cases(rng)) if not f.is_zero()]
    verdicts = set()
    gcd_degrees = {a: set() for a in range(5)}
    for f, seed in cases:
        (a, b), terms = f.bidegree, to_dict(f)
        hd = hyperplane_degree(f, seed)
        degenerate = not oracle_hyperplane_combo(terms, b, seed)
        assert (hd is None) == degenerate
        if not degenerate:
            k = _oracle_gcd_degree(f)
            assert hd == a - k
            gcd_degrees[a].add(k)
        verdicts.add(degenerate)
    assert verdicts == {False, True}
    assert all(gcd_degrees[a] == set(range(a + 1)) for a in gcd_degrees)


def _oracle_gcd_degree(f):
    """Degree of the gcd of a nonzero biform's components, by a chain of
    oracle_binary_gcd over oracle_components."""
    (a, b), terms = f.bidegree, to_dict(f)
    nonzero = [(a, c) for c in oracle_components(terms, b) if c]
    g = nonzero[0]
    for h in nonzero[1:]:
        g = oracle_binary_gcd(g, h)
    return g[0]


def _base_locus_cases(rng):
    """Biforms with a = 0..4 and every gcd degree: random ones, G * h_j with
    deg G = 1..a (G random or a monomial, so roots at 0 and at infinity),
    decomposables, one nonzero component and sparse forms (possibly zero),
    some over a denominator."""
    for a in range(5):
        for b in range(5):
            yield random_biform(rng, a, b)
            for k in range(1, a + 1):
                for g in (to_dict(random_binary_form(rng, k)), {(k - k // 2, k // 2): Fraction(1)}):
                    yield _from_components(a, b, [oracle.pmul(g, to_dict(random_binary_form(rng, a - k)))
                                                  for _ in range(b + 1)])
            yield Fraction(3, 4) * tensor_product(random_binary_form(rng, a), random_binary_form(rng, b))
            one = [{} for _ in range(b + 1)]
            one[rng.randint(0, b)] = to_dict(random_binary_form(rng, a))
            yield _from_components(a, b, one)
            for _ in range(3):
                yield to_form(BiForm, (a, b), {e: Fraction(rng.randint(1, 5), rng.randint(1, 3))
                                               for e in oracle.biform_basis(a, b) if rng.random() < 0.3})


def test_hyperplane_functional_is_the_seeded_randint_stream(monkeypatch):
    # lambda is drawn by sampling._draws: the values of rng.randint(-9, 9)
    drawn = []
    real = curves_mod._draws
    monkeypatch.setattr(curves_mod, "_draws",
                        lambda rng, count, lo, hi: drawn.append(real(rng, count, lo, hi)) or drawn[-1])
    rng = Random("hyperplane-stream")
    for key in (0, 1, 7, 123, "q"):
        for b in (0, 1, 4, 9):
            drawn.clear()
            hyperplane_degree(random_biform(rng, 2, b), key)
            draw = Random(f"hyperplane:{key}")
            assert drawn == [[draw.randint(-9, 9) for _ in range(b + 1)]]


def test_hyperplane_degree_is_one_rank_and_no_gcd(monkeypatch):
    ranks, blocks = [], []
    real_rank, real_multiples = curves_mod._rank, curves_mod._multiples

    def refuse(*args):
        raise AssertionError("not on the hyperplane degree's path")

    monkeypatch.setattr(curves_mod, "_rank", lambda b: ranks.append(1) or real_rank(b))
    monkeypatch.setattr(curves_mod, "_multiples", lambda c, a: blocks.append(1) or real_multiples(c, a))
    monkeypatch.setattr(curves_mod, "binary_gcd", refuse)
    monkeypatch.setattr(curves_mod, "phi_components", refuse)
    rng = Random("hyperplane-rank")
    generic = random_biform(rng, 3, 6)
    decomposable = tensor_product(random_binary_form(rng, 3), random_binary_form(rng, 6))
    for f, degree, pulled in ((generic, 3, 2), (decomposable, 0, 7)):
        ranks.clear()
        blocks.clear()
        assert hyperplane_degree(f, seed=0) == degree
        # a generic form reaches full row rank 2a after two blocks
        assert (len(ranks), len(blocks)) == (1, pulled)


def test_sylvester_resultant_examples():
    x = BinaryForm.parse("X")
    y = BinaryForm.parse("Y")
    assert sylvester_resultant(x, y) == 1
    p = BinaryForm.parse("X^2 - 3*X*Y + Y^2")
    assert sylvester_resultant(p, p) == 0
    assert sylvester_resultant(BinaryForm.parse("X^2 - Y^2"), BinaryForm.parse("X - Y")) == 0
    # linear pair: resultant is the 2x2 determinant ad - bc
    assert sylvester_resultant(BinaryForm.parse("2*X + 3*Y"), BinaryForm.parse("5*X + 7*Y")) == -1
    # zero leading coefficients: both forms vanish at the root at infinity (1 : 0)
    at_infinity = BinaryForm.parse("X*Y - 2*Y^2"), BinaryForm.parse("3*X^2*Y + 5*Y^3")
    assert sylvester_resultant(*at_infinity) == 0
    assert sylvester_resultant(at_infinity[0], BinaryForm.parse("X^3 + Y^3")) != 0
    with pytest.raises(ValueError):
        sylvester_resultant(x, BinaryForm.parse("1", degree=0))


def test_sylvester_resultant_properties():
    rng = Random("resultant")
    for _ in range(20):
        d, e, k = rng.randint(1, 3), rng.randint(1, 3), rng.randint(1, 2)
        p1 = random_binary_form(rng, d)
        p2 = random_binary_form(rng, e)
        q = random_binary_form(rng, k)
        prod = times(p1, p2)
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
    f1 = times(g, h1)
    f2 = times(g, h2)
    assert binary_gcd(f1, f2) == g
    # common factors at zero and at infinity are found
    f3 = BinaryForm.parse("X^2*Y")
    f4 = BinaryForm.parse("X*Y^2")
    assert binary_gcd(f3, f4) == BinaryForm.parse("X*Y")
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
    rng = Random("squarefree-double-roots")
    forms = [h for pair in _gcd_cases(300) for h in pair]
    for d in range(2, 7):
        # double roots at 0 (X^2), at infinity (Y^2) and at the finite point (3 : 2)
        doubled = [times(BinaryForm.parse(square), random_binary_form(rng, d - 2))
                   for square in ("X^2", "Y^2", "(2*X - 3*Y)^2")]
        assert not any(map(is_squarefree, doubled))
        forms += doubled + [random_binary_form(rng, d)]
    for h in forms:
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
        q = times(BinaryForm.parse("(X - 2*Y)^2"), r)
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


def test_branch_form_is_zero_agrees_with_branch_form():
    def agree(f):
        zero = branch_form_is_zero(f)
        assert zero == branch_form(f).is_zero(), str(f)
        return zero

    rng = Random("branch-is-zero")
    for (a, b) in DEGREE_GRID:
        for _ in range(3):
            assert not agree(random_biform(rng, a, b))
    # the branch form is p^(2(b-1)) times that of q: zero at t = 0 and t = 1
    # from p, so only a later node shows that it is not the zero form
    p = BinaryForm.parse("X*(X - Y)")
    squarefree = tensor_product(p, BinaryForm.parse("X^3 - 2*X*Y^2 + 5*Y^3"))
    assert not agree(squarefree)
    assert [curves_mod._branch_value(curves_mod._branch_columns(squarefree), t)
            for t in (0, 1)] == [0, 0]
    # q with a double root: identically zero
    assert agree(tensor_product(p, BinaryForm.parse("(X - 2*Y)^2*(X + Y)")))
    # a zero partial, dF/dY2
    assert agree(BiForm.parse("X1^2*X2^4"))
    # b = 1: the empty determinant, 1
    assert not agree(BiForm.parse("X1*X2 + 3*Y1*Y2"))
    with pytest.raises(ValueError, match="bidegree"):
        branch_form_is_zero(BiForm.parse("X2^3 + Y2^3"))


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
