"""Per-layer tracing from outside the program.

`Tracer.install()` rebinds the public functions of each biforms module (and
the methods that implement them) to wrappers defined here; `uninstall()` puts
the originals back.  The source is never edited.  A wrapper records a span
(name, start, end, parent, operation) in memory, and keeps per-function call
counts and self time: the span's duration minus the durations of its direct
child spans.  Calls as frequent as MPoly construction are only counted, and
their time stays in the caller's self time.
"""

import gzip
import json
import sys
from time import perf_counter

# metric name -> (module, attribute paths) of the code it wraps
LAYERS = {
    "poly": {
        "construct": ["MPoly.__init__"],
        "mul": ["MPoly.__mul__"],
        "diff": ["MPoly.diff"],
        "substitute": ["MPoly.substitute"],
        "evaluate": ["MPoly.evaluate"],
    },
    "parsing": {"parse_form": ["parse_form"], "to_string": ["to_string"]},
    "forms": {
        "coeff_vector": [f"{c}.coeff_vector" for c in ("BinaryForm", "BiForm", "TernaryForm")],
        "from_coeff_vector": [f"{c}.from_coeff_vector" for c in ("BinaryForm", "BiForm", "TernaryForm")],
    },
    "linalg": {
        "rref": ["rref"],
        "det": ["det"],
        "kernel_basis": ["kernel_basis"],
        "residual": ["Subspace.residual"],
        "top_minors": ["top_minors"],
    },
    "transvectant": {name: [name] for name in (
        "transvectant", "bitransvectant", "transvectant_matrix", "specialized_1s", "apolar_diffop")},
    "actions": {name: [name] for name in (
        "act", "lie_act", "lie_act_binary", "projective_stabilizer_dim",
        "subspace_stabilizer_dim", "matrix_of_binary_action", "det_scalar")},
    "curves": {name: [name] for name in (
        "branch_form", "phi_components", "span_dim", "hyperplane_degree", "binary_gcd",
        "singular_system")},
    "sampling": {"random_biform": ["random_biform"], "random_subspace": ["random_subspace"]},
}

COUNT_ONLY = {"poly.construct"}

RATIOS = {
    "linalg.rref.full_rank_frac": "ratio",
    "linalg.det.cells": "cells",
    "sampling.random_subspace.rref_per_call": "ratio",
}


def metric_units():
    """Every per-layer metric name and its unit, in report order."""
    units = {}
    for module, functions in LAYERS.items():
        for fn in functions:
            units[f"{module}.{fn}.calls"] = "count"
            if f"{module}.{fn}" not in COUNT_ONLY:
                units[f"{module}.{fn}.self_s"] = "s"
        units[f"{module}.self_s"] = "s"
    units.update(RATIOS)
    units["trace.overhead_s"] = "s"
    return units


class Tracer:
    def __init__(self):
        self.stack = []          # open frames: [name, child seconds, span id, parent id, start]
        self.spans = []          # (id, name, start, end, parent id, operation id)
        self.stats = {}          # name -> [calls, self seconds]
        self.extra = {"rref_full_rank": 0, "det_cells": 0, "rref_in_random_subspace": 0}
        self.op_id = -1
        self._undo = []

    # -- spans -------------------------------------------------------------

    def _enter(self, name):
        parent = self.stack[-1][2] if self.stack else -1
        frame = [name, 0.0, len(self.spans) + len(self.stack), parent, perf_counter()]
        self.stack.append(frame)
        return frame

    def _exit(self, frame):
        end = perf_counter()
        self.stack.pop()
        name, child, span_id, parent, start = frame
        duration = end - start
        stats = self.stats.setdefault(name, [0, 0.0])
        stats[0] += 1
        stats[1] += duration - child
        if self.stack:
            self.stack[-1][1] += duration
        self.spans.append((span_id, name, start, end, parent, self.op_id))

    def op(self, label, call):
        """Run one benchmark operation as a root span."""
        self.op_id += 1
        frame = self._enter(f"op:{label}")
        try:
            return call()
        finally:
            self._exit(frame)

    # -- wrappers ----------------------------------------------------------

    def _wrap(self, name, fn):
        if name in COUNT_ONLY:
            stats = self.stats.setdefault(name, [0, 0.0])

            def counted(*args, **kwargs):
                stats[0] += 1
                return fn(*args, **kwargs)
            return counted

        enter, leave, extra, stack = self._enter, self._exit, self.extra, self.stack
        if name == "linalg.rref":
            def traced(m, *args, **kwargs):
                if stack and stack[-1][0] == "sampling.random_subspace":
                    extra["rref_in_random_subspace"] += 1
                frame = enter(name)
                try:
                    result = fn(m, *args, **kwargs)
                finally:
                    leave(frame)
                if result[1] == min(m.rows, m.cols):
                    extra["rref_full_rank"] += 1
                return result
        elif name == "linalg.det":
            def traced(m, *args, **kwargs):
                extra["det_cells"] += m.rows ** 3
                frame = enter(name)
                try:
                    return fn(m, *args, **kwargs)
                finally:
                    leave(frame)
        else:
            def traced(*args, **kwargs):
                frame = enter(name)
                try:
                    return fn(*args, **kwargs)
                finally:
                    leave(frame)
        return traced

    def install(self):
        """Wrap every function in LAYERS, in the biforms modules imported now.

        Module-level functions are rebound in every biforms module that
        imported them by name, so calls through any of those names are seen.
        """
        package = [m for n, m in list(sys.modules.items())
                   if m is not None and (n == "biforms" or n.startswith("biforms."))]
        for module_name, functions in LAYERS.items():
            module = sys.modules[f"biforms.{module_name}"]
            for fn_name, paths in functions.items():
                name = f"{module_name}.{fn_name}"
                self.stats.setdefault(name, [0, 0.0])
                for path in paths:
                    if "." in path:
                        cls_name, attr = path.split(".")
                        cls = getattr(module, cls_name)
                        raw = cls.__dict__[attr]
                        if isinstance(raw, classmethod):
                            new = classmethod(self._wrap(name, raw.__func__))
                        else:
                            new = self._wrap(name, raw)
                        setattr(cls, attr, new)
                        self._undo.append((cls, attr, raw))
                    else:
                        original = getattr(module, path)
                        wrapper = self._wrap(name, original)
                        for mod in package:
                            for attr, value in list(vars(mod).items()):
                                if value is original:
                                    setattr(mod, attr, wrapper)
                                    self._undo.append((mod, attr, original))

    def uninstall(self):
        for target, attr, original in reversed(self._undo):
            setattr(target, attr, original)
        self._undo.clear()

    # -- results -----------------------------------------------------------

    def metrics(self):
        """Per-layer values (without trace.overhead_s) keyed as in metric_units()."""
        out = {}
        for module, functions in LAYERS.items():
            total = 0.0
            for fn in functions:
                name = f"{module}.{fn}"
                calls, self_s = self.stats.get(name, [0, 0.0])
                out[f"{name}.calls"] = calls
                if name not in COUNT_ONLY:
                    out[f"{name}.self_s"] = self_s
                    total += self_s
            out[f"{module}.self_s"] = total
        rref_calls = self.stats["linalg.rref"][0]
        subspace_calls = self.stats["sampling.random_subspace"][0]
        out["linalg.rref.full_rank_frac"] = self.extra["rref_full_rank"] / rref_calls if rref_calls else 0.0
        out["linalg.det.cells"] = self.extra["det_cells"]
        out["sampling.random_subspace.rref_per_call"] = (
            self.extra["rref_in_random_subspace"] / subspace_calls if subspace_calls else 0.0)
        return out

    def write(self, path):
        """Write the spans, one JSON list per line: id, name, start, end, parent id, operation id."""
        with gzip.open(path, "wt", encoding="utf-8") as fh:
            for span in sorted(self.spans):
                fh.write(json.dumps(span) + "\n")
