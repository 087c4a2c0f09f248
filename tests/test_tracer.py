"""The benchmark's per-layer tracer (perfbench/tracer.py) must still find every
name it wraps; this loads it from the source tree without changing it."""

import importlib.util
from pathlib import Path

import biforms
import biforms.sampling  # noqa: F401  (the tracer wraps it by module name)
from biforms import BiForm, BinaryForm, GroupPair, LiePair, QMat, Subspace, TernaryForm

TRACER = Path(__file__).resolve().parents[1] / "perfbench" / "tracer.py"


def _load_tracer():
    spec = importlib.util.spec_from_file_location("perfbench_tracer", TRACER)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_tracer_installs_on_the_package():
    tracer = _load_tracer().Tracer()
    originals = {cls: dict(vars(cls)) for cls in (BinaryForm, BiForm, TernaryForm)}
    try:
        tracer.install()
        f = BiForm.parse("X1*Y2^2 + 5*Y1*X2^2")
        assert BiForm.from_coeff_vector((1, 2), f.coeff_vector()) == f
        BinaryForm.parse("X^2").coeff_vector()
        TernaryForm.from_coeff_vector(1, [1, 0, 2])
    finally:
        tracer.uninstall()
    assert tracer.stats["forms.coeff_vector"][0] == 2
    assert tracer.stats["forms.from_coeff_vector"][0] == 2
    for cls, attrs in originals.items():
        assert dict(vars(cls)) == attrs
    assert biforms.act is biforms.actions.act


def test_tracer_counts_the_action_and_curve_layers():
    """One traced call each through the wrapped names: a signature or type
    drift in these layers fails here, not only under --trace 1."""
    tracer = _load_tracer().Tracer()
    f = BiForm.parse("X1*Y2^2 + 5*Y1*X2^2")
    g = GroupPair(QMat([[1, 2], [0, 1]]), QMat([[0, 1], [-1, 0]]))
    x = LiePair(QMat([[1, 0], [0, -1]]), [[0, 1], [0, 0]])
    w = Subspace.from_vectors(3, [[1, 0, 1]])
    p, q = BinaryForm.parse("X^2 - Y^2"), BinaryForm.parse("X^2 + 2*X*Y + Y^2")
    try:
        tracer.install()
        acted = biforms.act(g, f)
        derived = biforms.lie_act(x, f)
        mat = biforms.matrix_of_binary_action(g.g2, 2)
        scalar = biforms.det_scalar(g, w)
        common = biforms.binary_gcd(p, q)
    finally:
        tracer.uninstall()
    assert acted == BiForm.parse("X1*X2^2 + 5*(2*X1 + Y1)*Y2^2")
    assert derived == BiForm.parse("X1*Y2^2 - 5*Y1*X2^2 + 2*X1*X2*Y2")
    assert mat == QMat([[0, 0, 1], [0, -1, 0], [1, 0, 0]])
    assert scalar == 1
    assert common == BinaryForm.parse("X + Y")
    counts = {name: tracer.stats[name][0] for name in (
        "actions.act", "actions.lie_act", "actions.matrix_of_binary_action",
        "actions.det_scalar", "curves.binary_gcd")}
    # det_scalar builds the matrix of g2 once more, through the wrapped name
    assert counts == {"actions.act": 1, "actions.lie_act": 1,
                      "actions.matrix_of_binary_action": 2, "actions.det_scalar": 1,
                      "curves.binary_gcd": 1}
