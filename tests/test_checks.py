import json
from fractions import Fraction
from math import factorial
from pathlib import Path
from random import Random

import pytest

from biforms import BinaryForm, QMat
from biforms.checks import (
    REGISTRY,
    CheckResult,
    Report,
    _check_c12,
    emit,
    run_all,
    run_check,
)


GOLDEN_DIR = Path(__file__).resolve().parents[1] / "perfbench" / "data"


@pytest.mark.parametrize("seed", [0, 29])
def test_report_matches_golden(seed, full_report):
    """The timing-free report is byte-identical to the recorded golden, at
    seed 0 and at seed 29, the seed of the benchmark's paired runs."""
    report = full_report if seed == 0 else run_all(seed)
    emitted = emit(report, "json", include_timing=False).encode()
    assert emitted == (GOLDEN_DIR / f"registry_seed{seed}.json").read_bytes()


def test_unknown_check_id():
    with pytest.raises(ValueError):
        run_check("C99", 0)


def test_c05_passes():
    result = run_check("C05", 7)
    assert result.status == "pass"
    assert result.witnesses["example"]["(6,2)"] == [8, 6, 4]


def test_c11_witnesses():
    result = run_check("C11", 1)
    assert result.status == "pass"
    w = result.witnesses
    assert w["slice_dim"] == 9
    assert w["weights"] == [-4, -3, -2, -1, 0, 1, 2, 3, 4]
    assert w["witness_rank"] == 5 and w["witness_kernel_dim"] == 1
    assert w["branch_squarefree"] is True
    assert w["stabilizer_dim"] == 1


def test_c12_witnesses():
    result = run_check("C12", 3)
    assert result.status == "pass"
    w = result.witnesses
    assert w["pairing_value"] == "0"
    assert w["rank_map_from_V14"] == 9
    assert w["rank_map_from_V18"] == 9
    assert w["fiber_dim_over_V14_point"] == 9


def test_c12_perturbed_fixture_fails(monkeypatch):
    # corrupting the reference (1,4) form must break the vanishing identity
    import biforms.checks as checks_mod

    monkeypatch.setattr(checks_mod, "PAIRING_14", "X1*Y2^4 + Y1*X2^4 + Y1*Y2^4")
    status, witnesses = _check_c12(Random(0), 0)
    assert status == "fail"
    assert witnesses["pairing_value"] != "0"


def test_registry_covers_c01_to_c14():
    assert list(REGISTRY) == [f"C{i:02d}" for i in range(1, 15)]


def test_run_all_default_seed_all_pass(full_report):
    assert [c.check_id for c in full_report.checks] == list(REGISTRY)
    assert all(c.status == "pass" for c in full_report.checks)
    assert full_report.summary == {"pass": 14, "fail": 0, "degenerate": 0}


def test_emit_empty_report():
    report = Report("0.1.0", 0, [])
    payload = json.loads(emit(report, "json"))
    assert payload["checks"] == []
    assert payload["summary"] == {"pass": 0, "fail": 0, "degenerate": 0}


def test_emit_single_check():
    result = run_check("C05", 0)
    report = Report("0.1.0", 0, [result])
    payload = json.loads(emit(report, "json"))
    assert payload["checks"][0]["id"] == "C05"
    assert payload["checks"][0]["status"] == "pass"
    assert "witnesses" in payload["checks"][0]
    assert "ms" in payload["checks"][0]
    md = emit(report, "markdown")
    assert "| C05 | pass |" in md
    with pytest.raises(ValueError):
        emit(report, "xml")


def test_run_check_deterministic():
    a = run_check("C04", 11)
    b = run_check("C04", 11)
    assert a.status == b.status and a.witnesses == b.witnesses
    c = run_check("C01", 5)
    d = run_check("C01", 6)
    assert c.status == d.status == "pass"


def test_fast_checks_pass():
    for check_id in ("C01", "C02", "C03", "C04", "C06", "C10", "C13", "C14"):
        assert run_check(check_id, 0).status == "pass", check_id


def test_report_determinism_without_timing():
    # identical (version, seed) => identical emitted content once the
    # wall-clock ms fields are excluded
    ids = ("C01", "C05", "C11", "C12", "C14")
    r1 = Report("0.1.0", 2, [run_check(i, 2) for i in ids])
    r2 = Report("0.1.0", 2, [run_check(i, 2) for i in ids])
    assert emit(r1, "json", include_timing=False) == emit(r2, "json", include_timing=False)
    assert emit(r1, "markdown", include_timing=False) == emit(r2, "markdown", include_timing=False)


def test_c07_witnesses_degenerate_samples(monkeypatch):
    # exceptional samples must pass the 95/100 quota while being recorded
    import biforms.checks as checks_mod

    real = checks_mod.branch_form_is_zero
    calls = {"n": 0}

    def flaky(f):
        calls["n"] += 1
        if calls["n"] % 50 == 0:
            return True
        return real(f)

    monkeypatch.setattr(checks_mod, "branch_form_is_zero", flaky)
    monkeypatch.setattr(checks_mod, "DEGREE_GRID", [(1, 4)])
    status, wit = checks_mod._check_c07(Random(0), seed=0)
    assert status == "pass"
    point = wit["grid"]["(1,4)"]
    assert point["ok"] == 98
    assert len(point["degenerate"]) == 2
    assert all("sample" in d and "form" in d for d in point["degenerate"])


def test_c07_fails_below_quota(monkeypatch):
    import biforms.checks as checks_mod

    monkeypatch.setattr(checks_mod, "branch_form_is_zero", lambda f: True)
    monkeypatch.setattr(checks_mod, "DEGREE_GRID", [(1, 4)])
    status, wit = checks_mod._check_c07(Random(0), seed=0)
    assert status == "fail"
    assert wit["grid"]["(1,4)"]["ok"] == 0
    assert len(wit["grid"]["(1,4)"]["degenerate"]) == 100


@pytest.mark.parametrize("bad", [5, 6])
def test_c07_and_c08_allow_five_exceptions_per_point(monkeypatch, bad):
    # the first `bad` draws fail: C07's by a zero branch form, C08's by a short span
    import biforms.checks as checks_mod

    calls = []

    def first_wrong(real, wrong):
        def fake(*args):
            calls.append(args)
            return wrong if len(calls) <= bad else real(*args)
        return fake

    monkeypatch.setattr(checks_mod, "DEGREE_GRID", [(1, 4)])
    monkeypatch.setattr(checks_mod, "branch_form_is_zero",
                        first_wrong(checks_mod.branch_form_is_zero, True))
    monkeypatch.setattr(checks_mod, "span_dim", first_wrong(checks_mod.span_dim, 0))
    for check in (checks_mod._check_c07, checks_mod._check_c08):
        calls.clear()
        status, wit = check(Random(0), 0)
        point = wit["grid"]["(1,4)"]
        assert status == ("pass" if bad == 5 else "fail")
        assert point["ok"] == 100 - bad
        assert [d["sample"] for d in point["degenerate"]] == list(range(bad))
    # C08 records what it measured on each exceptional draw
    assert list(point["degenerate"][0]) == ["sample", "hyperplane_degree", "span_dim", "form"]
    assert point["degenerate"][0]["span_dim"] == 0


@pytest.mark.parametrize("perturb, reason", [
    # both sides of symmetry and bilinearity double too; only T_0 = p*q sees it
    (lambda t, p, q, r: 2 * t, "r=0 product"),
    # an added X^(d+e-2r) is not bilinear in p
    (lambda t, p, q, r: t + BinaryForm.from_coeff_vector(t.degree, [1] + [0] * t.degree),
     "bilinearity"),
], ids=["doubled", "shifted"])
def test_c01_fails_with_a_perturbed_transvectant(monkeypatch, perturb, reason):
    import biforms.checks as checks_mod

    real = checks_mod.transvectant
    monkeypatch.setattr(checks_mod, "transvectant",
                        lambda p, q, r: perturb(real(p, q, r), p, q, r))
    status, wit = checks_mod._check_c01(Random(0), 0)
    assert status == "fail"
    assert wit["reason"] == reason


def test_c03_fails_with_swapped_shortcut_operands(monkeypatch):
    # T_(1,s)(g, f) = (-1)^(1+s) T_(1,s)(f, g): the shortcut is off at even s
    import biforms.checks as checks_mod

    real = checks_mod.specialized_1s
    monkeypatch.setattr(checks_mod, "specialized_1s", lambda f, g, s: real(g, f, s))
    status, wit = checks_mod._check_c03(Random(0), 0)
    assert status == "fail"
    assert wit["reason"] == "shortcut disagrees" and wit["s"] % 2 == 0


def test_c09_fails_on_a_form_with_a_stabilizer(monkeypatch):
    # X1*Y2^b + Y1*X2^b is fixed by a one-dimensional torus
    import biforms.checks as checks_mod
    from biforms import BiForm

    monkeypatch.setattr(checks_mod, "random_biform",
                        lambda rng, a, b: BiForm.parse(f"X1*Y2^{b} + Y1*X2^{b}"))
    status, wit = checks_mod._check_c09(Random(0), seed=0)
    assert status == "fail"
    assert wit["reason"] == "biform stabilizer nonzero"
    assert wit["point"] == [1, 5] and wit["dim"] == 1


def test_c09_fails_on_a_subspace_with_a_stabilizer(monkeypatch):
    # the span of the first a + 1 monomials is stable under the Borel subalgebra
    import biforms.checks as checks_mod
    from biforms import Subspace

    monkeypatch.setattr(checks_mod, "random_subspace", lambda rng, n, k: Subspace.from_vectors(
        n, [[int(i == j) for i in range(n)] for j in range(k)]))
    status, wit = checks_mod._check_c09(Random(0), seed=0)
    assert status == "fail"
    assert wit["reason"] == "subspace stabilizer nonzero"
    assert wit["point"] == [1, 5] and wit["sample"] == 0 and wit["dim"] == 2


def test_c02_fails_with_wrong_tensor_product(monkeypatch):
    # the outer product laid out with q's index outermost: the wrong basis order
    import biforms.checks as checks_mod
    from biforms import BiForm

    def transposed(p, q):
        vec = [x * y for y in q.coeff_vector() for x in p.coeff_vector()]
        return BiForm.from_coeff_vector((p.degree, q.degree), vec)

    monkeypatch.setattr(checks_mod, "tensor_product", transposed)
    status, wit = checks_mod._check_c02(Random(0), 0)
    assert status == "fail"
    assert wit["reason"] == "factorization"


def test_c06_fails_with_wrong_act(monkeypatch):
    # g2 scaled to determinant 4, which equivariance sees
    import biforms.checks as checks_mod
    from biforms import GroupPair

    real = checks_mod.act

    def doubled(g, f):
        return real(GroupPair(g.g1, 2 * g.g2), f)

    monkeypatch.setattr(checks_mod, "act", doubled)
    status, wit = checks_mod._check_c06(Random(0), 0)
    assert status == "fail"
    assert wit["reason"] == "equivariance"


def test_c06_fails_with_transposed_g2(monkeypatch):
    # g2^T is again of determinant 1, so equivariance holds; the action law
    # act(g*h, f) = act(g, act(h, f)) does not
    import biforms.checks as checks_mod
    from biforms import GroupPair

    real = checks_mod.act

    def transposed(g, f):
        return real(GroupPair(g.g1, g.g2.transpose()), f)

    monkeypatch.setattr(checks_mod, "act", transposed)
    status, wit = checks_mod._check_c06(Random(0), 0)
    assert status == "fail"
    assert wit["reason"] == "action law"


def test_c10_fails_with_wrong_binary_action_matrix(monkeypatch):
    # the signs of g dropped: the center -1 then acts as the identity
    import biforms.checks as checks_mod

    real = checks_mod.matrix_of_binary_action
    monkeypatch.setattr(checks_mod, "matrix_of_binary_action",
                        lambda g, b: real([[abs(x) for x in row] for row in g], b))
    status, wit = checks_mod._check_c10(Random(0), 0)
    assert status == "fail"
    assert wit["reason"] == "Pluecker scaling"


def test_c10_fails_with_wrong_act(monkeypatch):
    # a sign flipped on bidegree (3, 2) only: the centre loop over monomials sees it
    import biforms.checks as checks_mod

    real = checks_mod.act

    def negated(g, f):
        acted = real(g, f)
        return -acted if f.bidegree == (3, 2) else acted

    monkeypatch.setattr(checks_mod, "act", negated)
    status, wit = checks_mod._check_c10(Random(0), 0)
    assert (status, wit) == ("fail", {"reason": "first-center scalar", "a": 3, "b": 2})


def test_c10_fails_with_second_center_sign_dropped(monkeypatch):
    # the second factor's -1 acting as the identity on bidegree (2, 3) only:
    # the first centre still scales by (-1)^a, the second no longer by (-1)^b
    import biforms.checks as checks_mod

    real = checks_mod.act

    def unsigned(g, f):
        acted = real(g, f)
        return -acted if f.bidegree == (2, 3) and g.g1 == QMat.identity(2) else acted

    monkeypatch.setattr(checks_mod, "act", unsigned)
    status, wit = checks_mod._check_c10(Random(0), 0)
    assert (status, wit) == ("fail", {"reason": "second-center scalar", "a": 2, "b": 3})


def test_c10_fails_with_negated_minors(monkeypatch):
    # a sign on every minor cancels in the Pluecker ratio; W's pivot minor sees it
    import biforms.checks as checks_mod

    real = checks_mod._minors
    monkeypatch.setattr(checks_mod, "_minors",
                        lambda rows, cols: {k: -x for k, x in real(rows, cols).items()})
    status, wit = checks_mod._check_c10(Random(0), 0)
    assert status == "fail"
    assert wit["reason"] == "Pluecker pivot minor"


def test_c04_fails_with_q_denominator_dropped(monkeypatch):
    # the operator applied to q cleared of its denominator: off by q's denominator
    import biforms.checks as checks_mod

    real = checks_mod.apolar_diffop
    monkeypatch.setattr(checks_mod, "apolar_diffop", lambda p, q: real(p, q._den * q))
    status, wit = checks_mod._check_c04(Random(0), 0)
    assert status == "fail"
    assert wit["reason"] == "ratio not 1"


@pytest.mark.parametrize("scale", [lambda q: 2, lambda q: q.degree + 1,
                                   lambda q: Fraction(1, factorial(q.degree))],
                         ids=["2", "deg q + 1", "no e!"])
def test_c04_fails_with_scaled_apolar(monkeypatch, scale):
    # a wrong normalization keeps the ratio constant in every cell, but not 1
    import biforms.checks as checks_mod

    real = checks_mod.apolar_diffop
    monkeypatch.setattr(checks_mod, "apolar_diffop", lambda p, q: scale(q) * real(p, q))
    status, wit = checks_mod._check_c04(Random(0), 0)
    assert status == "fail"
    assert wit["reason"] == "ratio not 1"


def test_c04_fails_with_a_reversed_apolar(monkeypatch):
    # the operator's coefficients reversed: a constant (d = e) is unchanged, a
    # form of degree >= 1 is no multiple of the transvectant
    import biforms.checks as checks_mod

    real = checks_mod.apolar_diffop

    def reversed_apolar(p, q):
        out = real(p, q)
        return BinaryForm._make(out.degree, out._num[::-1], out._den)

    monkeypatch.setattr(checks_mod, "apolar_diffop", reversed_apolar)
    status, wit = checks_mod._check_c04(Random(0), 0)
    assert (status, wit) == ("fail", {"reason": "not proportional", "d": 2, "e": 1})


def test_c04_fails_where_only_the_transvectant_vanishes(monkeypatch):
    import biforms.checks as checks_mod

    monkeypatch.setattr(checks_mod, "transvectant",
                        lambda p, q, r: BinaryForm.zero(p.degree + q.degree - 2 * r))
    status, wit = checks_mod._check_c04(Random(0), 0)
    assert (status, wit) == ("fail", {"reason": "apolar nonzero where transvectant vanishes",
                                      "d": 1, "e": 1})


def test_c08_fails_with_a_spurious_gcd_factor(monkeypatch):
    # the last shift of each component dropped: X divides every multiple left,
    # as if it divided the base-locus gcd, so the hyperplane degree drops to a - 1
    import biforms.checks as checks_mod
    import biforms.curves as curves_mod

    real = curves_mod._multiples
    monkeypatch.setattr(curves_mod, "_multiples", lambda c, a: [row[:-1] for row in real(c, a)])
    monkeypatch.setattr(checks_mod, "DEGREE_GRID", [(2, 3)])
    status, wit = checks_mod._check_c08(Random(0), seed=0)
    assert status == "fail"
    assert wit["grid"]["(2,3)"]["ok"] == 0


def test_c11_fails_with_a_common_factor_of_the_partials(monkeypatch):
    import biforms.checks as checks_mod

    monkeypatch.setattr(checks_mod, "sylvester_resultant", lambda f, g: 0)
    status, wit = checks_mod._check_c11(Random(0), 0)
    assert status == "fail"
    assert wit["partials_coprime"] is False


def test_c13_fails_when_points_are_dropped(monkeypatch):
    # only the first point kept: the quartic system through three points grows
    import biforms.checks as checks_mod

    real = checks_mod.singular_system
    monkeypatch.setattr(checks_mod, "singular_system", lambda points, d: real(points[:1], d))
    status, wit = checks_mod._check_c13(Random(0), 0)
    assert status == "fail"
    assert wit["quartic_dim"] == 12


def test_summary_counts_match():
    checks = [run_check(i, 0) for i in ("C05", "C14")]
    checks.append(CheckResult("C99", "fail", {}, 0))
    report = Report("0.1.0", 0, checks)
    assert report.summary == {"pass": 2, "fail": 1, "degenerate": 0}


def test_c13_fails_with_a_block_that_is_not_invariant(monkeypatch):
    # the 3-cycle X -> Y -> Z -> X sends Y^2 to Z^2, outside span(X^2, Y^2)
    import biforms.checks as checks_mod

    monkeypatch.setattr(checks_mod, "CONIC_BLOCKS", [["X^2", "Y^2"]])
    status, wit = checks_mod._check_c13(Random(0), 0)
    assert status == "fail"
    assert wit["reason"] == "conic block not invariant"
