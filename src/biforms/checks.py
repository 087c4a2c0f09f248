"""Verification registry: keyed checks C01..C14 over exact arithmetic.

Each check re-derives one family of identities from scratch and returns a
CheckResult with enough witnesses (ranks, kernels, weights, seeds) to re-run
it deterministically.  A check passes only if every asserted identity held
exactly; sampled genericity statements pass when the stated quota of samples
holds, with every exceptional sample individually recorded as degenerate.

Registry:

    C01  transvectant symmetry, bilinearity, product degeneration at r = 0
    C02  bi-transvectant factorization on decomposable biforms
    C03  the (1,s) shortcut formula agrees with the double Cayley sum
    C04  apolar differential operator vs extreme transvectant: ratio 1 table
    C05  Clebsch-Gordan dimension identity for tensor products
    C06  equivariance of bi-transvectants under determinant-1 pairs
    C07  branch-form degree 2a(b-1) over a bidegree grid
    C08  hyperplane degree = a and span dimension = a over the same grid
    C09  infinitesimal almost-freeness at sampled subspaces and biforms
    C10  center/parity bookkeeping and the Pluecker sign for odd b
    C11  the bidegree-(1,6) slice suite: witness kernel, slice equations,
         weight decomposition, stabilizer of the reference (1,2) curve
    C12  the bidegree-(1,8) pairing suite: vanishing and double surjectivity
    C13  plane-curve linear systems: dimensions, spanning sets, invariance
    C14  dimension bookkeeping of the fibration reductions

All checks are pure functions of (check id, seed); the runner executes them
sequentially and assembles results in registry order.
"""

from __future__ import annotations

import json
from fractions import Fraction
from itertools import combinations
from random import Random
from time import perf_counter

from .actions import (
    G3Element,
    GroupPair,
    act,
    act_ternary,
    det_scalar,
    matrix_of_binary_action,
    projective_stabilizer_dim,
    subspace_stabilizer_dim,
    weight_of,
)
from .curves import (
    branch_form,
    hyperplane_degree,
    is_squarefree,
    phi_components,
    singular_system,
    span_dim,
    sylvester_resultant,
)
from .forms import (
    BiForm,
    BinaryForm,
    TernaryForm,
    from_binomial_coeffs,
    tensor_product,
    ternary_basis,
)
from .linalg import QMat, Subspace, kernel_basis, rank, rref, top_minors
from .sampling import (
    random_biform,
    random_binary_form,
    random_sl_pair,
    random_subspace,
)
from .transvectant import (
    apolar_diffop,
    bitransvectant,
    cg_components,
    specialized_1s,
    transvectant,
    transvectant_matrix,
)

VERSION = "0.1.0"

# reference forms used by the structured suites
PAIRING_18 = "X1*X2^2*Y2^6 + Y1*X2^6*Y2^2"                     # bidegree (1,8)
PAIRING_14 = "X1*Y2^4 + Y1*X2^4"                               # bidegree (1,4)
SLICE_WITNESS_16 = "X1*X2^3*Y2^3 + Y1*(X2^4*Y2^2 + X2^2*Y2^4)"  # bidegree (1,6)
REFERENCE_12 = "X1*Y2^2 + Y1*X2^2"                             # bidegree (1,2)

# the nine-vector decomposition of the (1,6) slice, grouped by torus weight
SLICE_BLOCKS_16 = {
    0: ["X1*X2^2*Y2^4 + Y1*X2^4*Y2^2"],
    1: ["10*X1*X2^3*Y2^3 + 3*Y1*X2^5*Y2", "3*X1*X2*Y2^5 + 10*Y1*X2^3*Y2^3"],
    2: ["15*X1*X2^4*Y2^2 + Y1*X2^6", "X1*Y2^6 + 15*Y1*X2^2*Y2^4"],
    3: ["X1*X2^5*Y2", "Y1*X2*Y2^5"],
    4: ["X1*X2^6", "Y1*Y2^6"],
}
SLICE_TORUS = (0, 2, 0, 1)   # exponents on (X1, Y1, X2, Y2)
SLICE_TWIST = -4

DEGREE_GRID = [(1, 4), (1, 6), (1, 8), (2, 3), (2, 4), (2, 5), (3, 4)]
FREENESS_GRID = [(a, b) for b in (5, 6, 7, 8) for a in range(1, b)]
PARITY_ODD_B = (5, 7, 9)


# Plain classes, not dataclasses: importing dataclasses pulls in inspect, ast
# and dis, about 1 MB of resident memory in every process that imports biforms.
class CheckResult:
    __slots__ = ("check_id", "status", "witnesses", "runtime_ms")

    def __init__(self, check_id: str, status: str, witnesses: dict, runtime_ms: int = 0):
        self.check_id = check_id
        # "pass" | "fail"; no check emits "degenerate", and Report.summary
        # counts it only because the report format carries that key
        self.status = status
        self.witnesses = witnesses
        self.runtime_ms = runtime_ms


class Report:
    __slots__ = ("version", "seed", "checks")

    def __init__(self, version: str, seed: int, checks: list | None = None):
        self.version = version
        self.seed = seed
        self.checks = [] if checks is None else checks

    @property
    def summary(self):
        counts = {"pass": 0, "fail": 0, "degenerate": 0}
        for c in self.checks:
            counts[c.status] += 1
        return counts


def _jsonable(x):
    if isinstance(x, Fraction):
        return str(x.numerator) if x.denominator == 1 else f"{x.numerator}/{x.denominator}"
    if isinstance(x, (bool, int, str)) or x is None:
        return x
    if isinstance(x, dict):
        return {str(k): _jsonable(v) for k, v in x.items()}
    if isinstance(x, (list, tuple)):
        return [_jsonable(v) for v in x]
    return str(x)


# ---------------------------------------------------------------------------
# individual checks; each takes (rng, seed) and returns (status, witnesses)
# ---------------------------------------------------------------------------

def _check_c01(rng: Random, seed: int):
    trials = 0
    for _ in range(40):
        d, e = rng.randint(1, 6), rng.randint(1, 6)
        r = rng.randint(0, min(d, e))
        p = random_binary_form(rng, d)
        q = random_binary_form(rng, e)
        t = transvectant(p, q, r)
        if t.degree != d + e - 2 * r:
            return "fail", {"reason": "degree bookkeeping", "d": d, "e": e, "r": r}
        if transvectant(q, p, r) != (-1) ** r * t:
            return "fail", {"reason": "symmetry", "d": d, "e": e, "r": r}
        alpha = Fraction(rng.randint(-9, 9))
        p0 = random_binary_form(rng, d)
        lhs = transvectant(alpha * p + p0, q, r)
        if lhs != alpha * t + transvectant(p0, q, r):
            return "fail", {"reason": "bilinearity", "d": d, "e": e, "r": r}
        if transvectant(p, q, 0) != BinaryForm(d + e, p.poly * q.poly):
            return "fail", {"reason": "r=0 product", "d": d, "e": e}
        trials += 1
    return "pass", {"trials": trials, "degree_range": [1, 6]}


def _check_c02(rng: Random, seed: int):
    trials = 0
    for _ in range(40):
        a, a2 = rng.randint(0, 3), rng.randint(0, 3)
        b, b2 = rng.randint(0, 6), rng.randint(0, 6)
        r = rng.randint(0, min(a, a2))
        s = rng.randint(0, min(b, b2))
        p1 = random_binary_form(rng, a)
        p2 = random_binary_form(rng, b)
        q1 = random_binary_form(rng, a2)
        q2 = random_binary_form(rng, b2)
        lhs = bitransvectant(tensor_product(p1, p2), tensor_product(q1, q2), r, s)
        rhs = tensor_product(transvectant(p1, q1, r), transvectant(p2, q2, s))
        if lhs != rhs:
            return "fail", {"reason": "factorization", "shape": [a, b, a2, b2, r, s]}
        trials += 1
    return "pass", {"trials": trials, "degree_bounds": {"first": 3, "second": 6}}


def _check_c03(rng: Random, seed: int):
    trials = 0
    for _ in range(100):
        b, b2 = rng.randint(0, 8), rng.randint(0, 8)
        s = rng.randint(0, min(b, b2))
        f = random_biform(rng, 1, b)
        g = random_biform(rng, 1, b2)
        if specialized_1s(f, g, s) != bitransvectant(f, g, 1, s):
            return "fail", {"reason": "shortcut disagrees", "b": b, "b2": b2, "s": s}
        trials += 1
    return "pass", {"trials": trials, "second_degree_bound": 8}


def _check_c04(rng: Random, seed: int):
    table = {}
    for d in range(1, 7):
        for e in range(1, d + 1):
            constants = set()
            for _ in range(50):
                p = random_binary_form(rng, d)
                # a rational q, so that a slip in q's denominator shows
                q = Fraction(1, e + 1) * random_binary_form(rng, e)
                a_val = apolar_diffop(p, q)
                t_val = transvectant(p, q, e)
                if t_val.is_zero():
                    if not a_val.is_zero():
                        return "fail", {"reason": "apolar nonzero where transvectant vanishes",
                                        "d": d, "e": e}
                    continue
                t_vec = t_val.coeff_vector()
                k = next(i for i, x in enumerate(t_vec) if x)
                c = a_val.coeff_vector()[k] / t_vec[k]
                if a_val != c * t_val:
                    return "fail", {"reason": "not proportional", "d": d, "e": e}
                constants.add(c)
            # the transvectant's normalization: the two routes agree on the nose
            if constants != {1}:
                return "fail", {"reason": "ratio not 1", "d": d, "e": e,
                                "constants": sorted(map(str, constants))}
            table[f"({d},{e})"] = constants.pop()
    return "pass", {"ratio_table": table, "pairs_per_cell": 50}


def _check_c05(rng: Random, seed: int):
    for d in range(0, 11):
        for e in range(0, 11):
            parts = cg_components(d, e)
            if parts != [d + e - 2 * r for r in range(min(d, e) + 1)]:
                return "fail", {"reason": "component list", "d": d, "e": e}
            if sum(k + 1 for k in parts) != (d + 1) * (e + 1):
                return "fail", {"reason": "dimension identity", "d": d, "e": e}
    return "pass", {"degree_bound": 10, "example": {"(6,2)": cg_components(6, 2)}}


def _check_c06(rng: Random, seed: int):
    trials = 0
    for _ in range(50):
        g = random_sl_pair(rng)
        a, a2 = rng.randint(1, 2), rng.randint(1, 2)
        b, b2 = rng.randint(1, 6), rng.randint(1, 6)
        r = rng.randint(0, min(a, a2))
        s = rng.randint(0, min(b, b2))
        f = random_biform(rng, a, b)
        f2 = random_biform(rng, a2, b2)
        lhs = bitransvectant(act(g, f), act(g, f2), r, s)
        rhs = act(g, bitransvectant(f, f2, r, s))
        if lhs != rhs:
            return "fail", {"reason": "equivariance", "shape": [a, b, a2, b2, r, s]}
        # the action law: equivariance alone also holds with g2 transposed
        h = random_sl_pair(rng)
        if act(g * h, f) != act(g, act(h, f)):
            return "fail", {"reason": "action law", "shape": [a, b, a2, b2, r, s]}
        trials += 1
    return "pass", {"trials": trials, "group": "determinant-1 pairs"}


def _grid_samples(check_id, seed, point):
    a, b = point
    return Random(f"{check_id}|{seed}|{a},{b}"), f"{check_id}|{seed}|{a},{b}"


def _quota_grid(check_id, seed, sample, extra):
    """Draw 100 biforms per DEGREE_GRID point; pass when sample(f, a, b, key)
    -> (holds, details) holds for at least 95 at every point.  A failing draw
    is recorded with its details; extra(a, b) opens each point's witness."""
    grid = {}
    ok_everywhere = True
    for (a, b) in DEGREE_GRID:
        sub, sub_seed = _grid_samples(check_id, seed, (a, b))
        ok = 0
        degenerate = []
        for k in range(100):
            f = random_biform(sub, a, b)
            holds, details = sample(f, a, b, f"{sub_seed}|{k}")
            if holds:
                ok += 1
            else:
                degenerate.append({"sample": k, **details, "form": str(f)})
        grid[f"({a},{b})"] = {**extra(a, b), "ok": ok, "degenerate": degenerate, "seed": sub_seed}
        ok_everywhere = ok_everywhere and ok >= 95
    return ("pass" if ok_everywhere else "fail"), {"grid": grid, "samples_per_point": 100}


def _check_c07(rng: Random, seed: int):
    def sample(f, a, b, key):
        bf = branch_form(f)
        return not bf.is_zero() and bf.degree == 2 * a * (b - 1), {}
    return _quota_grid("C07", seed, sample, lambda a, b: {"target_degree": 2 * a * (b - 1)})


def _check_c08(rng: Random, seed: int):
    def sample(f, a, b, key):
        cm = phi_components(f)
        hd, sd = hyperplane_degree(cm, seed=key), span_dim(cm)
        return hd == a and sd == a, {"hyperplane_degree": hd, "span_dim": sd}
    return _quota_grid("C08", seed, sample, lambda a, b: {})


def _check_c09(rng: Random, seed: int):
    grid = {}
    for (a, b) in FREENESS_GRID:
        sub, sub_seed = _grid_samples("C09", seed, (a, b))
        for kind, draw, stabilizer_dim in (
                ("subspace", lambda: random_subspace(sub, b + 1, a + 1), subspace_stabilizer_dim),
                ("biform", lambda: random_biform(sub, a, b), projective_stabilizer_dim)):
            for k in range(50):
                dim = stabilizer_dim(draw())
                if dim != 0:
                    return "fail", {"reason": f"{kind} stabilizer nonzero", "point": [a, b],
                                    "sample": k, "dim": dim, "seed": sub_seed}
        grid[f"({a},{b})"] = {"subspace_samples": 50, "biform_samples": 50, "seed": sub_seed}
    return "pass", {"grid": grid}


def _check_c10(rng: Random, seed: int):
    # (i) the second-factor center acts trivially on V_b for even b
    minus = ((-1, 0), (0, -1))
    for b in (0, 2, 4, 6, 8, 10):
        a_mat = matrix_of_binary_action(minus, b)
        if a_mat != QMat.identity(b + 1):
            return "fail", {"reason": "even-b center action nontrivial", "b": b}
    # (ii) center bookkeeping on biforms: (-1,1) and (1,-1) scale by (-1)^a, (-1)^b
    first, g = GroupPair(minus, QMat.identity(2)), GroupPair(QMat.identity(2), minus)
    for a in range(0, 9):
        for b in range(0, 9):
            n = (a + 1) * (b + 1)
            for k in range(n):
                mono = BiForm.from_coeff_vector((a, b), [int(i == k) for i in range(n)])
                if act(first, mono) != (-1) ** a * mono:
                    return "fail", {"reason": "first-center scalar", "a": a, "b": b}
                if act(g, mono) != (-1) ** b * mono:
                    return "fail", {"reason": "second-center scalar", "a": a, "b": b}
    # (iii) odd b: the center acts on the top wedge of an (a+1)-dim subspace
    # by (-1)^(a+1), and on its Pluecker vector the same way.  W's basis is
    # in RREF, so its minor on the pivot rows is 1: a sign or scale that the
    # ratio of the two Pluecker vectors cancels still shows there.
    samples = []
    for b in PARITY_ODD_B:
        a_mat = matrix_of_binary_action(minus, b)
        for dim in range(1, 6):
            for k in range(5):
                w = random_subspace(rng, b + 1, dim)
                scalar = det_scalar(g, w)
                if scalar != Fraction(-1) ** dim:
                    return "fail", {"reason": "top-wedge scalar", "b": b, "dim": dim,
                                    "scalar": scalar}
                tall = w.basis.transpose()
                minors = top_minors(tall)
                subsets = list(combinations(range(b + 1), dim))
                if minors[subsets.index(tuple(w.pivots()))] != 1:
                    return "fail", {"reason": "Pluecker pivot minor", "b": b, "dim": dim}
                acted = a_mat * tall
                if top_minors(acted) != tuple(Fraction(-1) ** dim * m for m in minors):
                    return "fail", {"reason": "Pluecker scaling", "b": b, "dim": dim}
                samples.append([b, dim, k])
    return "pass", {"even_b": [0, 2, 4, 6, 8, 10], "center_degree_bound": 8,
                    "odd_b_samples": len(samples)}


def _expected_slice_rref():
    """The five relations alpha_i = beta_(i+2) as a canonical RREF matrix."""
    rows = []
    for i in range(5):
        row = [Fraction(0)] * 14
        row[i] = Fraction(1)
        row[7 + i + 2] = Fraction(-1)
        rows.append(row)
    return QMat(rows)


def _binomial_basis_column(which, i, reference):
    """T_(1,2)(e, reference) for e the alpha_i or beta_i binomial basis vector."""
    unit = [Fraction(0)] * 7
    unit[i] = Fraction(1)
    p = from_binomial_coeffs(6, unit)
    zero = BinaryForm.zero(6)
    e = BiForm.from_pq(p, zero) if which == "alpha" else BiForm.from_pq(zero, p)
    return bitransvectant(e, reference, 1, 2).coeff_vector()


def _check_c11(rng: Random, seed: int):
    wit = {}
    reference = BiForm.parse(REFERENCE_12)

    # (1) non-degeneracy witness in V_(1,6) and its kernel curve
    witness = BiForm.parse(SLICE_WITNESS_16)
    m = transvectant_matrix(witness, 1, 2, (1, 2))
    wit["witness_rank"] = rank(m)
    ker = kernel_basis(m)
    wit["witness_kernel_dim"] = ker.dim
    if wit["witness_rank"] != 5 or ker.dim != 1:
        return "fail", wit
    generator = BiForm.from_coeff_vector((1, 2), ker.basis.entries[0])
    wit["kernel_generator"] = str(generator)
    branch = branch_form(generator)
    wit["branch_form"] = str(branch)
    wit["branch_squarefree"] = is_squarefree(branch)
    gp, gq = generator.pq()
    wit["partials_coprime"] = sylvester_resultant(gp, gq) != 0
    if not (wit["branch_squarefree"] and wit["partials_coprime"]):
        return "fail", wit

    # (2) the slice equations alpha_i = beta_(i+2) in the binomial basis
    columns = [_binomial_basis_column("alpha", i, reference) for i in range(7)]
    columns += [_binomial_basis_column("beta", i, reference) for i in range(7)]
    system = QMat.from_columns(columns)
    reduced, rk, _ = rref(system)
    expected = _expected_slice_rref()
    wit["slice_rank"] = rk
    wit["slice_equations_match"] = QMat._make(reduced._num[:rk], reduced._den) == expected
    slice_space = kernel_basis(system)
    wit["slice_dim"] = slice_space.dim
    if not (rk == 5 and wit["slice_equations_match"] and slice_space.dim == 9):
        return "fail", wit

    # (3) the weight decomposition spans the slice
    plain_matrix = transvectant_matrix(reference, 1, 2, (1, 6))
    plain_kernel = kernel_basis(plain_matrix)
    vectors = []
    weights = []
    for weight, texts in SLICE_BLOCKS_16.items():
        for text in texts:
            v = BiForm.parse(text)
            if not bitransvectant(v, reference, 1, 2).is_zero():
                return "fail", {**wit, "reason": f"block vector not in slice: {text}"}
            w = weight_of(v, SLICE_TORUS, SLICE_TWIST)
            if w is None or abs(w) != weight:
                return "fail", {**wit, "reason": f"wrong weight for {text}", "weight": w}
            weights.append(w)
            vectors.append(v.coeff_vector())
    span = Subspace.from_vectors(14, vectors)
    wit["block_span_dim"] = span.dim
    wit["weights"] = sorted(weights)
    if span.dim != 9 or span != plain_kernel:
        return "fail", wit
    if sorted(weights) != [-4, -3, -2, -1, 0, 1, 2, 3, 4]:
        return "fail", wit

    # (4) stabilizer of the reference curve
    swap = ((0, 1), (1, 0))
    if act(GroupPair(swap, swap), reference) != reference:
        return "fail", {**wit, "reason": "swap does not fix the reference form"}
    for alpha in (Fraction(2), Fraction(3), Fraction(5, 2)):
        g = GroupPair([[1, 0], [0, alpha ** 2]], [[1, 0], [0, alpha]])
        if act(g, reference) != alpha ** 2 * reference:
            return "fail", {**wit, "reason": "torus does not scale with weight 2"}
    wit["stabilizer_dim"] = projective_stabilizer_dim(reference)
    wit["swap_fixes"] = True
    wit["torus_weight_on_form"] = 2
    if wit["stabilizer_dim"] != 1:
        return "fail", wit
    return "pass", wit


def _check_c12(rng: Random, seed: int):
    h = BiForm.parse(PAIRING_18)
    h2 = BiForm.parse(PAIRING_14)
    wit = {}
    pairing = bitransvectant(h, h2, 1, 2)
    shortcut = specialized_1s(h, h2, 2)
    wit["pairing_value"] = str(pairing)
    if pairing != shortcut:
        wit["reason"] = "two evaluation routes disagree"
        return "fail", wit
    if not pairing.is_zero():
        wit["reason"] = "pairing does not vanish"
        return "fail", wit
    r1 = rank(transvectant_matrix(h, 1, 2, (1, 4)))
    r2 = rank(transvectant_matrix(h2, 1, 2, (1, 8)))
    wit["rank_map_from_V14"] = r1
    wit["rank_map_from_V18"] = r2
    wit["fiber_dim_over_V14_point"] = 18 - r2
    if r1 != 9 or r2 != 9:
        return "fail", wit
    # the incidence bundle {(H, H') : pairing = 0} over the (1,4) side has
    # the expected fiber dimension 9 at sampled points, not just the fixture
    fiber_dims = []
    for _ in range(5):
        sample = random_biform(rng, 1, 4)
        fiber_dims.append(18 - rank(transvectant_matrix(sample, 1, 2, (1, 8))))
    wit["sampled_fiber_dims"] = fiber_dims
    if any(dim != 9 for dim in fiber_dims):
        return "fail", wit
    return "pass", wit


CUBIC_SLICE_SPAN = ["X*Y*Z", "X^2*Z", "Z^2*X", "X^2*Y", "Y*Z^2", "X^3", "Z^3"]
CUBIC_SLICE_BLOCKS = [["X*Y*Z"], ["X^2*Z", "Z^2*X"], ["X^2*Y", "Y*Z^2"], ["X^3", "Z^3"]]
CONIC_POINT_SPAN = ["X^2", "X*Z", "Z^2"]
CONIC_BLOCKS = [["X^2", "Y^2", "Z^2"], ["X*Y", "Y*Z", "Z*X"]]
QUARTIC_SPAN = ["X^2*Y^2", "Y^2*Z^2", "Z^2*X^2", "X^2*Y*Z", "Y^2*Z*X", "Z^2*X*Y"]
QUARTIC_BLOCKS = [["X^2*Y^2", "Y^2*Z^2", "Z^2*X^2"], ["X^2*Y*Z", "Y^2*Z*X", "Z^2*X*Y"]]


def _ternary_span(texts, degree):
    return Subspace.from_vectors(
        len(ternary_basis(degree)),
        [TernaryForm.parse(t, degree).coeff_vector() for t in texts],
    )


def _blocks_invariant(blocks, degree, elements):
    for block in blocks:
        space = _ternary_span(block, degree)
        for g in elements:
            for text in block:
                image = act_ternary(g, TernaryForm.parse(text, degree))
                if not space.contains(image.coeff_vector()):
                    return False
    return True


def _check_c13(rng: Random, seed: int):
    wit = {}
    swap_xz = G3Element.substitution([(0, 0, 1), (0, 1, 0), (1, 0, 0)])
    scalings = [G3Element([[Fraction(1, t), 0, 0], [0, 1, 0], [0, 0, t]]) for t in (2, 3)]
    s3 = [
        G3Element.substitution([(0, 1, 0), (1, 0, 0), (0, 0, 1)]),   # X <-> Y
        G3Element.substitution([(0, 1, 0), (0, 0, 1), (1, 0, 0)]),   # X->Y->Z->X
    ]
    torus = [G3Element([[2, 0, 0], [0, 3, 0], [0, 0, Fraction(5, 7)]]),
             G3Element([[1, 0, 0], [0, Fraction(1, 2), 0], [0, 0, 4]])]

    systems = (
        ("cubic", [(0, 1, 0)], 3, 7, CUBIC_SLICE_SPAN, CUBIC_SLICE_BLOCKS, [swap_xz] + scalings),
        ("conic", [(0, 1, 0)], 2, 3, CONIC_POINT_SPAN, CONIC_BLOCKS, s3 + torus),
        ("quartic", [(1, 0, 0), (0, 1, 0), (0, 0, 1)], 4, 6, QUARTIC_SPAN, QUARTIC_BLOCKS,
         s3 + torus),
    )
    for name, points, degree, dim, span, blocks, elements in systems:
        system = singular_system(points, degree)
        wit[f"{name}_dim"] = system.dim
        if system.dim != dim or system != _ternary_span(span, degree):
            return "fail", wit
        if not _blocks_invariant(blocks, degree, elements):
            return "fail", {**wit, "reason": f"{name} block not invariant"}
        if name == "quartic":
            quartic = system

    # the quartic system is invariant under permuting the three points
    for g in s3:
        for vec in quartic.basis.entries:
            image = act_ternary(g, TernaryForm.from_coeff_vector(4, vec))
            if not quartic.contains(image.coeff_vector()):
                return "fail", {**wit, "reason": "quartic system not S3-invariant"}
    wit["blocks_invariant"] = True
    return "pass", wit


def _check_c14(rng: Random, seed: int):
    points = 0
    for b in range(3, 11):
        for a in range(2, b):
            if (a * b) % 2 != 0:
                continue
            dim_pvw = (a + 1) * (b + 1) - 1
            dim_pw_quot = b - 3
            # route one: split off a' = a copies
            a2 = a
            n = (a + 1) * (a - a2) + 1 + a * (b - a)
            dim_pv_quot = a2 * (a + 1) - 1 - 3
            if dim_pvw - 6 != n + dim_pv_quot + dim_pw_quot:
                return "fail", {"a": a, "b": b, "route": "N"}
            # route two: through the full (a+1)-tuple quotient of dimension d
            d = a * a + 2 * a - 3
            if not d > a:
                return "fail", {"a": a, "b": b, "route": "d>a"}
            m_val = d - a + a * (b - a)
            if dim_pvw - 6 != m_val + dim_pw_quot:
                return "fail", {"a": a, "b": b, "route": "M"}
            points += 1
    return "pass", {"grid_points": points, "range": "1 < a < b <= 10, ab even"}


REGISTRY = {
    "C01": ("transvectant symmetry and bilinearity", _check_c01),
    "C02": ("bi-transvectant factorization on decomposables", _check_c02),
    "C03": ("(1,s) shortcut agrees with the double Cayley sum", _check_c03),
    "C04": ("apolar operator vs extreme transvectant constant table", _check_c04),
    "C05": ("Clebsch-Gordan dimension identity", _check_c05),
    "C06": ("bi-transvectant equivariance under determinant-1 pairs", _check_c06),
    "C07": ("branch-form degree 2a(b-1) over the bidegree grid", _check_c07),
    "C08": ("hyperplane degree and span dimension equal a", _check_c08),
    "C09": ("infinitesimal almost-freeness at sampled points", _check_c09),
    "C10": ("center parity bookkeeping and Pluecker sign", _check_c10),
    "C11": ("bidegree-(1,6) slice suite", _check_c11),
    "C12": ("bidegree-(1,8) pairing suite", _check_c12),
    "C13": ("singular plane-curve linear systems", _check_c13),
    "C14": ("dimension bookkeeping of the fibration reductions", _check_c14),
}


def run_check(check_id: str, seed: int = 0) -> CheckResult:
    """Run one registry check; deterministic given (check_id, seed)."""
    if check_id not in REGISTRY:
        raise ValueError(f"unknown check id {check_id!r}")
    _, fn = REGISTRY[check_id]
    rng = Random(f"{check_id}|{seed}")
    start = perf_counter()
    status, witnesses = fn(rng, seed)
    ms = int((perf_counter() - start) * 1000)
    return CheckResult(check_id, status, _jsonable(witnesses), ms)


def run_all(seed: int = 0) -> Report:
    """Run C01..C14 in registry order."""
    report = Report(VERSION, seed)
    for check_id in REGISTRY:
        report.checks.append(run_check(check_id, seed))
    return report


def emit(report: Report, format: str, include_timing: bool = True) -> str:
    """Render a report as json or markdown with stable field order.

    include_timing=False drops the wall-clock ms fields, leaving exactly the
    content that is deterministic in (version, seed).
    """
    if format == "json":
        payload = {
            "version": report.version,
            "seed": report.seed,
            "checks": [
                {
                    "id": c.check_id,
                    "status": c.status,
                    "witnesses": c.witnesses,
                    **({"ms": c.runtime_ms} if include_timing else {}),
                }
                for c in report.checks
            ],
            "summary": report.summary,
        }
        return json.dumps(payload, indent=2)
    if format in ("markdown", "md"):
        lines = [
            "# verification report",
            "",
            f"version {report.version}, seed {report.seed}",
            "",
            "| check | status |" + (" ms |" if include_timing else ""),
            "| --- | --- |" + (" --- |" if include_timing else ""),
        ]
        for c in report.checks:
            row = f"| {c.check_id} | {c.status} |"
            if include_timing:
                row += f" {c.runtime_ms} |"
            lines.append(row)
        s = report.summary
        lines += ["", f"summary: {s['pass']} pass, {s['fail']} fail, {s['degenerate']} degenerate", ""]
        for c in report.checks:
            lines.append(f"## {c.check_id} - {REGISTRY[c.check_id][0]}")
            lines.append("")
            lines.append("```json")
            lines.append(json.dumps(c.witnesses, indent=2))
            lines.append("```")
            lines.append("")
        return "\n".join(lines)
    raise ValueError(f"unknown format {format!r}")
