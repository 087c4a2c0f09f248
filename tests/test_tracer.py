"""The benchmark's per-layer tracer (perfbench/tracer.py) must still find every
name it wraps; this loads it from the source tree without changing it."""

import importlib.util
from pathlib import Path

import biforms
import biforms.sampling  # noqa: F401  (the tracer wraps it by module name)
from biforms import BiForm, BinaryForm, TernaryForm

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
