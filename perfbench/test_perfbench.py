"""Tests of the benchmark itself (not of biforms).

    python3 -m unittest discover -s perfbench -p 'test_*.py'

They run in about 15 seconds: the registry is exercised through its cheap
checks and its stored golden reports, never through a full run_all.
"""

from contextlib import redirect_stderr, redirect_stdout
from io import StringIO
import json
import os
import shutil
import subprocess
import sys
import tempfile
import unittest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, os.path.join(ROOT, "src"))
sys.path.insert(0, HERE)

import probe  # noqa: E402
import run  # noqa: E402
import tracer  # noqa: E402
import workloads  # noqa: E402

with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as _fh:
    BENCHMARK = json.load(_fh)


def _bench(argv):
    out, err = StringIO(), StringIO()
    with redirect_stdout(out), redirect_stderr(err):
        code = run.main(argv)
    return code, json.loads(out.getvalue().splitlines()[-1])


def _small_ops():
    """A few operations of each workload that together touch every layer cheaply."""
    special = workloads.special_orbits_ops(1)
    kernel = workloads.kernel_queries_ops(1)
    registry = {op.label: op for op in workloads.registry_ops(1)}
    return (special[:8] + special[-4:] + kernel[:3] + kernel[-3:]
            + [registry[c] for c in ("C11", "C12", "C13")])


class MetricNames(unittest.TestCase):
    def test_declared_names_and_units(self):
        self.assertEqual({m["name"]: m["unit"] for m in BENCHMARK["end_to_end"]},
                         run.END_TO_END_UNITS)
        self.assertEqual({m["name"]: m["unit"] for m in BENCHMARK["per_layer"]},
                         tracer.metric_units())
        self.assertEqual([w["name"] for w in BENCHMARK["workloads"]], list(workloads.WORKLOADS))

    def test_emitted_names(self):
        for trace, section in ((0, "end_to_end"), (1, "per_layer")):
            code, result = _bench(["--workload", "special_orbits", "--seed", "5",
                                   "--seconds", "0", "--trace", str(trace)])
            self.assertEqual(code, 0)
            self.assertEqual(set(result), {"correct", "attempted", "failed", "metrics"})
            self.assertTrue(result["correct"])
            self.assertEqual(result["failed"], 0)
            self.assertEqual(list(result["metrics"]), [m["name"] for m in BENCHMARK[section]])


class ReferenceSeconds(unittest.TestCase):
    def _probe(self, widths):
        """A probe whose k-th reference computation starts at k seconds and takes widths[k]."""
        p = probe.SpeedProbe()
        p.samples = [(float(k), k + w) for k, w in enumerate(widths)]
        return p

    def test_steady_machine_reads_measured_time_without_the_probes(self):
        ref = probe.REFERENCE_S
        p = self._probe([ref] * 6)
        self.assertAlmostEqual(p.seconds(1.5, 1.75), 0.25)
        self.assertAlmostEqual(p.seconds(0.5, 3.5), 3.0 - 3 * ref)

    def test_slow_phase_is_scaled_back(self):
        ref = probe.REFERENCE_S
        p = self._probe([ref] * 4 + [2 * ref] * 4)
        self.assertAlmostEqual(p.seconds(0.5, 0.75), 0.25)
        self.assertAlmostEqual(p.seconds(5.5, 5.75), 0.125)
        # one slow probe among fast ones is an interrupt, not a phase
        p = self._probe([ref] * 3 + [9 * ref] + [ref] * 3)
        self.assertAlmostEqual(p.seconds(3.5, 3.75), 0.25)

    def test_live_probe_samples_and_restores_the_handler(self):
        import signal
        before = signal.getsignal(signal.SIGALRM)
        with probe.SpeedProbe(period=0.01) as p:
            end = run.perf_counter() + 0.1
            while run.perf_counter() < end:
                probe.reference_work()
        self.assertIs(signal.getsignal(signal.SIGALRM), before)
        self.assertGreater(len(p.samples), 3)
        self.assertGreater(p.seconds(p.samples[0][0], p.samples[-1][1]), 0)


class LayerCounts(unittest.TestCase):
    def test_counts_repeat_exactly(self):
        run.import_program()
        ops = _small_ops()
        modules = {name: sys.modules[f"biforms.{name}"] for name in tracer.LAYERS}
        untraced = (modules["linalg"].rref, sys.modules["biforms.cli"].kernel_basis,
                    modules["poly"].MPoly.__dict__["__init__"])
        seen = []
        for _ in range(2):
            t = tracer.Tracer()
            t.install()
            try:
                run.run_pass(ops, t)
            finally:
                t.uninstall()
            m = t.metrics()
            seen.append({k: v for k, v in m.items() if not k.endswith("self_s")})
            self.assertEqual(len(t.spans), sum(
                v for k, v in m.items() if k.endswith(".calls") and k != "poly.construct.calls")
                + len(ops))
        self.assertEqual(seen[0], seen[1])
        self.assertGreater(seen[0]["poly.construct.calls"], 0)
        self.assertGreater(seen[0]["actions.projective_stabilizer_dim.calls"], 0)
        self.assertEqual(untraced, (modules["linalg"].rref, sys.modules["biforms.cli"].kernel_basis,
                                    modules["poly"].MPoly.__dict__["__init__"]))


class Gates(unittest.TestCase):
    def _failures(self, workload, ops, seed):
        return run.count_failures(workload, ops, seed, [run.run_pass(ops)], None)[0]

    def test_corrupted_expected_answer_fails(self):
        run.import_program()
        kernel = workloads.kernel_queries_ops(2)
        ops = [op for op in kernel if op.part == 3][:4] + [op for op in kernel if op.part == 0][:2]
        self.assertEqual(self._failures("kernel_queries", ops, 2), 0)
        original = workloads.transvectant_pairs

        def corrupted(f, g, orders):
            out = original(f, g, orders)
            e = min(out) if out else None
            if e is not None:
                out[e] += 1
            return out
        workloads.transvectant_pairs = corrupted
        try:
            ops = [workloads.Op(op.label, op.part, op.call, op.expect) for op in ops]
            self.assertGreater(self._failures("kernel_queries", ops, 2), 0)
        finally:
            workloads.transvectant_pairs = original

        special = [op for op in workloads.special_orbits_ops(2) if op.part in (0, 3)][:6]
        self.assertEqual(self._failures("special_orbits", special, 2), 0)
        original_dim = workloads.projective_stabilizer_dim
        workloads.projective_stabilizer_dim = lambda f, basis: original_dim(f, basis) + 1
        try:
            special = [workloads.Op(op.label, op.part, op.call, op.expect) for op in special]
            self.assertGreater(self._failures("special_orbits", special, 2), 0)
        finally:
            workloads.projective_stabilizer_dim = original_dim

    def test_corrupted_golden_fails(self):
        run.import_program()
        from biforms.checks import CheckResult, run_check
        seed = 0
        golden = workloads.load_golden(seed)
        self.assertIsNotNone(golden)
        ops = workloads.registry_ops(seed)
        # the expensive checks are replayed from the golden; the cheap ones really run
        stored = {c["id"]: c for c in json.loads(golden)["checks"]}
        cheap = {"C05", "C11", "C12", "C13", "C14"}
        results = [run_check(op.label, seed) if op.label in cheap else
                   CheckResult(op.label, stored[op.label]["status"], stored[op.label]["witnesses"])
                   for op in ops]
        passes = [(0.0, [(0.0, r, None) for r in results])]
        self.assertEqual(run.count_failures("registry", ops, seed, passes, golden)[0], 0)
        corrupted = golden.replace('"witness_rank": 5', '"witness_rank": 6')
        self.assertNotEqual(corrupted, golden)
        self.assertEqual(run.count_failures("registry", ops, seed, passes, corrupted)[0], 1)
        results[6] = CheckResult("C07", "fail", stored["C07"]["witnesses"])
        passes = [(0.0, [(0.0, r, None) for r in results])]
        self.assertEqual(run.count_failures("registry", ops, seed, passes, golden)[0], 1)


class SpecialInputs(unittest.TestCase):
    def test_constructed_orbits_are_special(self):
        """The oracle agrees with what the construction promises, for every seeded input."""
        run.import_program()
        for op in workloads.special_orbits_ops(3):
            if op.label.startswith("stabilizer translate"):
                self.assertTrue(op.check(1), op.label)         # conjugate of a 1-dim torus
            elif op.label.startswith("stabilizer decomposable (1,"):
                self.assertTrue(op.check(2), op.label)         # stabilizer of a point of P^1
            elif op.label.startswith("stabilizer decomposable (2,"):
                self.assertTrue(op.check(1), op.label)         # stabilizer of two points
            elif op.label.startswith("stabilizer torus"):
                self.assertFalse(op.check(0), op.label)        # the torus direction is in it
            elif op.label.startswith("subspace") and not op.label.endswith("translate"):
                self.assertFalse(op.check(0), op.label)        # H preserves monomial subspaces


class BareDirectory(unittest.TestCase):
    def test_fails_without_the_program(self):
        os.makedirs(os.path.join(HERE, "out"), exist_ok=True)
        with tempfile.TemporaryDirectory(dir=os.path.join(HERE, "out")) as tmp:
            shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp)
            for path in BENCHMARK["paths"]:
                shutil.copytree(os.path.join(ROOT, path), os.path.join(tmp, path),
                                ignore=shutil.ignore_patterns("out", "__pycache__"))
            proc = subprocess.run(BENCHMARK["command"] + ["--workload", "registry", "--seed", "0",
                                                          "--seconds", "1", "--trace", "0"],
                                  cwd=tmp, capture_output=True, text=True, timeout=180)
            self.assertNotEqual(proc.returncode, 0)
            self.assertNotIn('"metrics"', proc.stdout)


if __name__ == "__main__":
    unittest.main()
