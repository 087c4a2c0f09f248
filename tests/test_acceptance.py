"""Acceptance suite: one test per criterion, each recording a PASS/FAIL line.

All arithmetic is exact; every assertion is literal equality.  The recorded
lines are printed in the terminal summary (see conftest.py).
"""

from fractions import Fraction
from random import Random
from time import perf_counter

from biforms import (
    BiForm,
    BinaryForm,
    GroupPair,
    QMat,
    Subspace,
    act,
    bitransvectant,
    branch_form,
    cg_components,
    det,
    det_scalar,
    from_binomial_coeffs,
    hyperplane_degree,
    is_squarefree,
    kernel_basis,
    matrix_of_binary_action,
    projective_stabilizer_dim,
    rank,
    rref,
    span_dim,
    specialized_1s,
    tensor_product,
    top_minors,
    transvectant,
    transvectant_matrix,
    weight_of,
)
from biforms.sampling import (
    random_biform,
    random_binary_form,
    random_sl_pair,
    random_subspace,
)

from conftest import acceptance_lines

H_18 = "X1*X2^2*Y2^6 + Y1*X2^6*Y2^2"
H_14 = "X1*Y2^4 + Y1*X2^4"
H_16 = "X1*X2^3*Y2^3 + Y1*(X2^4*Y2^2 + X2^2*Y2^4)"
C_12 = "X1*Y2^2 + Y1*X2^2"

WEIGHT_BLOCKS = {
    0: ["X1*X2^2*Y2^4 + Y1*X2^4*Y2^2"],
    1: ["10*X1*X2^3*Y2^3 + 3*Y1*X2^5*Y2", "3*X1*X2*Y2^5 + 10*Y1*X2^3*Y2^3"],
    2: ["15*X1*X2^4*Y2^2 + Y1*X2^6", "X1*Y2^6 + 15*Y1*X2^2*Y2^4"],
    3: ["X1*X2^5*Y2", "Y1*X2*Y2^5"],
    4: ["X1*X2^6", "Y1*Y2^6"],
}


def record(n, ok, detail):
    line = f"criterion {n:2d}: {'PASS' if ok else 'FAIL'} - {detail}"
    acceptance_lines.append(line)
    assert ok, line


def test_criterion_01_pairing_vanishing_and_surjectivity():
    start = perf_counter()
    h = BiForm.parse(H_18)
    hp = BiForm.parse(H_14)
    vanishes = bitransvectant(h, hp, 1, 2).is_zero() and specialized_1s(h, hp, 2).is_zero()
    r1 = rank(transvectant_matrix(h, 1, 2, (1, 4)))
    r2 = rank(transvectant_matrix(hp, 1, 2, (1, 8)))
    elapsed = perf_counter() - start
    ok = vanishes and r1 == 9 and r2 == 9 and elapsed < 1.0
    record(1, ok, f"pairing=0, ranks ({r1},{r2}) of 9, {elapsed:.3f}s")


def _binomial_slice_system():
    reference = BiForm.parse(C_12)
    zero6 = BinaryForm.zero(6)
    columns = []
    for block in ("alpha", "beta"):
        for i in range(7):
            unit = [Fraction(0)] * 7
            unit[i] = Fraction(1)
            p = from_binomial_coeffs(6, unit)
            e = BiForm.from_pq(p, zero6) if block == "alpha" else BiForm.from_pq(zero6, p)
            columns.append(bitransvectant(e, reference, 1, 2).coeff_vector())
    return QMat.from_columns(columns)


def test_criterion_02_slice_equations():
    start = perf_counter()
    system = _binomial_slice_system()
    reduced, rk, _ = rref(system)
    expected_rows = []
    for i in range(5):
        row = [Fraction(0)] * 14
        row[i] = Fraction(1)          # alpha_i
        row[9 + i] = Fraction(-1)     # beta_(i+2) lives at column 7 + (i+2)
        expected_rows.append(row)
    matches = QMat(reduced.entries[:rk]) == QMat(expected_rows)
    dim = kernel_basis(system).dim
    elapsed = perf_counter() - start
    ok = rk == 5 and matches and dim == 9 and elapsed < 1.0
    record(2, ok, f"slice dim {dim}, rref is alpha_i = beta_(i+2), {elapsed:.3f}s")


def test_criterion_03_weight_decomposition():
    start = perf_counter()
    reference = BiForm.parse(C_12)
    kernel = kernel_basis(transvectant_matrix(reference, 1, 2, (1, 6)))
    vectors, weights = [], []
    membership = True
    for expected_weight, texts in WEIGHT_BLOCKS.items():
        for text in texts:
            v = BiForm.parse(text)
            membership &= bitransvectant(v, reference, 1, 2).is_zero()
            w = weight_of(v, (0, 2, 0, 1), -4)
            weights.append(w)
            vectors.append(v.coeff_vector())
    span = Subspace.from_vectors(14, vectors)
    spans = span.dim == 9 and span == kernel
    weight_set = sorted(weights) == [-4, -3, -2, -1, 0, 1, 2, 3, 4]
    elapsed = perf_counter() - start
    ok = membership and spans and weight_set and elapsed < 1.0
    record(3, ok, f"9 vectors span the slice, weights {sorted(weights)}, {elapsed:.3f}s")


def test_criterion_04_stabilizer_of_reference_curve():
    start = perf_counter()
    c = BiForm.parse(C_12)
    swap = ((0, 1), (1, 0))
    swap_fixes = act(GroupPair(swap, swap), c) == c
    torus_ok = all(
        act(GroupPair([[1, 0], [0, alpha ** 2]], [[1, 0], [0, alpha]]), c) == alpha ** 2 * c
        for alpha in (Fraction(2), Fraction(3), Fraction(5, 2))
    )
    dim = projective_stabilizer_dim(c)
    elapsed = perf_counter() - start
    ok = swap_fixes and torus_ok and dim == 1 and elapsed < 1.0
    record(4, ok, f"swap fixes, torus weight 2, stabilizer dim {dim}, {elapsed:.3f}s")


def test_criterion_05_witness_kernel_smooth():
    start = perf_counter()
    h0 = BiForm.parse(H_16)
    kernel = kernel_basis(transvectant_matrix(h0, 1, 2, (1, 2)))
    generator = BiForm.from_coeff_vector((1, 2), kernel.basis.entries[0])
    branch = branch_form(generator)
    squarefree = is_squarefree(branch)
    elapsed = perf_counter() - start
    ok = kernel.dim == 1 and squarefree and elapsed < 1.0
    record(5, ok, f"kernel dim {kernel.dim}, branch {branch} squarefree, {elapsed:.3f}s")


def _check(full_report, check_id):
    return next(c for c in full_report.checks if c.check_id == check_id)


def test_criterion_06_degree_span_branch_grid(full_report):
    # joint quota: all three predicates must hold on the same sample
    start = perf_counter()
    counts = {}
    exceptions = {}
    ok_everywhere = True
    for (a, b) in [(1, 4), (1, 6), (1, 8), (2, 3), (2, 4), (2, 5), (3, 4)]:
        sub = Random(f"acceptance6|{a},{b}")
        target = 2 * a * (b - 1)
        good = 0
        for k in range(100):
            f = random_biform(sub, a, b)
            bf = branch_form(f)
            hd = hyperplane_degree(f, seed=f"acceptance6|{a},{b}|{k}")
            sd = span_dim(f)
            if not bf.is_zero() and bf.degree == target and hd == a and sd == a:
                good += 1
            else:
                exceptions.setdefault((a, b), []).append(
                    {"sample": k, "branch_zero": bf.is_zero(),
                     "hyperplane_degree": hd, "span_dim": sd})
        counts[(a, b)] = good
        if good < 95:
            ok_everywhere = False
    elapsed = perf_counter() - start
    # the registry's independent sweeps must agree
    registry_ok = (_check(full_report, "C07").status == "pass"
                   and _check(full_report, "C08").status == "pass")
    ok = ok_everywhere and registry_ok and elapsed < 30.0
    detail = f"joint quota per point {counts}, {elapsed:.1f}s"
    if exceptions:
        detail += f", degenerate samples witnessed: {exceptions}"
    record(6, ok, detail)


def test_criterion_07_almost_freeness_samples(full_report):
    c09 = _check(full_report, "C09")
    elapsed = c09.runtime_ms / 1000
    points = len(c09.witnesses.get("grid", {}))
    ok = c09.status == "pass" and elapsed < 20.0
    record(7, ok, f"stabilizers zero at 50+50 samples on {points} grid points, {elapsed:.1f}s")


def test_criterion_08_parity():
    minus = ((-1, 0), (0, -1))
    even_ok = all(
        matrix_of_binary_action(minus, b) == QMat.identity(b + 1)
        for b in (0, 2, 4, 6, 8, 10)
    )
    rng = Random("acceptance-parity")
    odd_ok = True
    even_a_seen = False
    g = GroupPair(((1, 0), (0, 1)), minus)
    for b in (5, 7, 9):
        for dim in range(1, 6):
            w = random_subspace(rng, b + 1, dim)
            scalar = det_scalar(g, w)
            odd_ok &= scalar == Fraction(-1) ** dim
            if dim % 2 == 1:    # dim = a + 1 with a even
                even_a_seen = True
                odd_ok &= scalar == -1
    ok = even_ok and odd_ok and even_a_seen
    record(8, ok, "even-b center trivial, top-wedge scalar (-1)^(a+1) on all samples")


def test_criterion_09_plane_slices(full_report):
    c13 = _check(full_report, "C13")
    w = c13.witnesses
    dims = (w.get("cubic_dim"), w.get("conic_dim"), w.get("quartic_dim"))
    ok = c13.status == "pass" and dims == (7, 3, 6)
    record(9, ok, f"singular systems dims {dims}, spans match, blocks invariant")


def test_criterion_10_property_suites():
    rng = Random("acceptance-properties")
    failures = []

    for _ in range(100):   # transvectant symmetry + bilinearity
        d, e = rng.randint(1, 6), rng.randint(1, 6)
        r = rng.randint(0, min(d, e))
        p, q = random_binary_form(rng, d), random_binary_form(rng, e)
        t = transvectant(p, q, r)
        if transvectant(q, p, r) != (-1) ** r * t:
            failures.append("symmetry")
        alpha = Fraction(rng.randint(-9, 9))
        p0 = random_binary_form(rng, d)
        if transvectant(alpha * p + p0, q, r) != alpha * t + transvectant(p0, q, r):
            failures.append("bilinearity")

    for _ in range(100):   # factorization on decomposables
        a, a2 = rng.randint(0, 2), rng.randint(0, 2)
        b, b2 = rng.randint(0, 5), rng.randint(0, 5)
        r, s = rng.randint(0, min(a, a2)), rng.randint(0, min(b, b2))
        p1, p2 = random_binary_form(rng, a), random_binary_form(rng, b)
        q1, q2 = random_binary_form(rng, a2), random_binary_form(rng, b2)
        if bitransvectant(tensor_product(p1, p2), tensor_product(q1, q2), r, s) != \
                tensor_product(transvectant(p1, q1, r), transvectant(p2, q2, s)):
            failures.append("factorization")

    for _ in range(100):   # (1,s) shortcut agreement
        b, b2 = rng.randint(0, 6), rng.randint(0, 6)
        s = rng.randint(0, min(b, b2))
        f, g = random_biform(rng, 1, b), random_biform(rng, 1, b2)
        if specialized_1s(f, g, s) != bitransvectant(f, g, 1, s):
            failures.append("shortcut")

    for _ in range(100):   # equivariance under determinant-1 pairs
        gp = random_sl_pair(rng)
        a, a2 = rng.randint(1, 2), rng.randint(1, 2)
        b, b2 = rng.randint(1, 4), rng.randint(1, 4)
        r, s = rng.randint(0, min(a, a2)), rng.randint(0, min(b, b2))
        f, g = random_biform(rng, a, b), random_biform(rng, a2, b2)
        if bitransvectant(act(gp, f), act(gp, g), r, s) != act(gp, bitransvectant(f, g, r, s)):
            failures.append("equivariance")

    for d in range(0, 11):   # Clebsch-Gordan dimension identity (121 instances)
        for e in range(0, 11):
            if sum(k + 1 for k in cg_components(d, e)) != (d + 1) * (e + 1):
                failures.append("clebsch-gordan")

    for _ in range(100):   # rank-nullity
        nrows, ncols = rng.randint(1, 7), rng.randint(1, 7)
        m = QMat([[rng.randint(-9, 9) for _ in range(ncols)] for _ in range(nrows)])
        if rank(m) + kernel_basis(m).dim != m.cols:
            failures.append("rank-nullity")

    for _ in range(100):   # Pluecker det-scaling
        cols = rng.randint(1, 3)
        rows = rng.randint(cols, 5)
        m = QMat([[rng.randint(-9, 9) for _ in range(cols)] for _ in range(rows)])
        while True:
            g = QMat([[rng.randint(-4, 4) for _ in range(cols)] for _ in range(cols)])
            if det(g) != 0:
                break
        if top_minors(m * g) != tuple(det(g) * x for x in top_minors(m)):
            failures.append("pluecker-scaling")

    ok = not failures
    record(10, ok, "8 property suites x >= 100 seeded instances, all exact"
           if ok else f"failed: {sorted(set(failures))}")


def test_criterion_11_dimension_bookkeeping(full_report):
    c14 = _check(full_report, "C14")
    ok = c14.status == "pass"
    record(11, ok, f"identity holds at {c14.witnesses.get('grid_points')} grid points "
                   "(1 < a < b <= 10, ab even, a' = a)")
