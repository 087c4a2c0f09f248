"""Benchmark of the biforms toolkit: one command, three workloads.

    python3 perfbench/run.py --workload registry|kernel_queries|special_orbits \
        --seed N --seconds S --trace 0|1

Run it from the root of a checkout; it imports the package from ./src and
uses only the standard library.  Inputs are made from --seed.  One process
and one thread send the operations in a closed loop: each starts when the
previous one has returned.  The operation list is run as whole passes while
the next pass still fits in --seconds (at least one pass).  Outputs are
checked after the timed passes; a wrong answer, a non-zero exit or an
exception counts as a failed operation.

Every time is in reference seconds: perf_counter intervals corrected for the
machine's own speed changes by perfbench/probe.py, which times a fixed
reference computation ten times a second beside the program.

--trace 0 reports the end-to-end metrics.  --trace 1 runs one untraced pass,
then one pass with the wrappers of perfbench/tracer.py installed, reports the
per-layer metrics and writes the spans to perfbench/out/.

The last line of stdout is the result:
    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {name: {"value", "unit"}}}
Machine facts, the probe's durations (the drift witness), the raw seconds of
each pass and per-operation detail go to stderr.
"""

import argparse
import gc
import json
import os
import platform
import resource
import statistics
import sys
from time import perf_counter

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SETUP_REPEATS = (5, 50)      # at least 5 set-ups, and more (up to 50) until SETUP_SECONDS
SETUP_SECONDS = 1.5

END_TO_END_UNITS = {
    "setup_s": "s",
    "wall_s": "s",
    "peak_rss_mb": "MB",
    "query_p50_ms": "ms",
    "query_p95_ms": "ms",
    "part1_s": "s",
    "part2_s": "s",
    "part3_s": "s",
    "part4_s": "s",
}


def machine():
    model = "unknown"
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            model = next((line.split(":", 1)[1].strip() for line in fh
                          if line.startswith("model name")), model)
    except OSError:
        pass
    return {"nproc": os.cpu_count(), "python": platform.python_version(), "cpu": model,
            "loadavg": list(os.getloadavg())}


def import_program():
    """Import biforms afresh (dropping any earlier import): the CLI and every traced module."""
    import importlib
    from tracer import LAYERS
    for name in [n for n in sys.modules if n == "biforms" or n.startswith("biforms.")]:
        del sys.modules[name]
    for name in ["cli", *LAYERS]:
        importlib.import_module(f"biforms.{name}")


def setup(workload, seed):
    """Import plus input generation, repeated; returns (ops, [(start, end)] of each)."""
    from workloads import WORKLOADS
    spans = []
    fewest, most = SETUP_REPEATS
    while len(spans) < fewest or (len(spans) < most and spans[-1][1] - spans[0][0] < SETUP_SECONDS):
        gc.collect()   # the previous set-up's modules and inputs, outside the timed span
        start = perf_counter()
        import_program()
        ops = WORKLOADS[workload](seed)
        spans.append((start, perf_counter()))
    return ops, spans


def run_pass(ops, tracer=None):
    """Run every op once, in order; returns ((start, end), [((start, end), output, error)])."""
    records = []
    start = perf_counter()
    for op in ops:
        t0 = perf_counter()
        try:
            out = tracer.op(op.label, op.call) if tracer else op.call()
            err = None
        except Exception as exc:  # an exception is a failed operation, not a crash of the run
            out, err = None, f"{type(exc).__name__}: {exc}"
        records.append(((t0, perf_counter()), out, err))
    return (start, perf_counter()), records


def count_failures(workload, ops, seed, passes, golden):
    """Failed operations over all passes, and the labels of the first few."""
    from workloads import registry_failed_checks
    failed, examples = 0, []
    for _, records in passes:
        bad = set()
        for i, (op, (_, out, err)) in enumerate(zip(ops, records)):
            if err is not None or not op.check(out):
                bad.add(i)
        if workload == "registry":
            bad |= registry_failed_checks(seed, [out for _, out, _ in records], golden)
        failed += len(bad)
        examples += [ops[i].label for i in sorted(bad)][: 5 - len(examples)]
    return failed, examples


def quantile(values, q):
    return statistics.quantiles(values, n=100, method="inclusive")[q - 1] if len(values) > 1 else values[0]


def end_to_end(workload, ops, passes, setup_spans, rss_mb, seconds):
    """The --trace 0 metrics; `seconds(start, end)` gives an interval's reference seconds.

    A registry query is a whole `biforms verify`, i.e. one pass.
    """
    pass_s = [seconds(*span) for span, _ in passes]
    op_s = [[seconds(*span) for span, _, _ in records] for _, records in passes]
    latencies = pass_s if workload == "registry" else [t for times in op_s for t in times]
    metrics = {
        "setup_s": statistics.median(seconds(*span) for span in setup_spans),
        "wall_s": statistics.median(pass_s),
        "peak_rss_mb": rss_mb,
        "query_p50_ms": 1000 * quantile(latencies, 50),
        "query_p95_ms": 1000 * quantile(latencies, 95),
    }
    from workloads import PARTS
    for k, name in enumerate(PARTS):
        metrics[name] = statistics.median(
            sum(t for op, t in zip(ops, times) if op.part == k) for times in op_s)
    return metrics


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True,
                        choices=["registry", "kernel_queries", "special_orbits"])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    args = parser.parse_args(argv)

    if not os.path.isdir(os.path.join(ROOT, "src", "biforms")):
        print(f"error: no biforms package under {os.path.join(ROOT, 'src')}; "
              "run from the root of a biforms checkout", file=sys.stderr)
        return 2
    sys.path.insert(0, os.path.join(ROOT, "src"))
    sys.path.insert(0, HERE)
    from probe import SpeedProbe
    from workloads import load_golden

    info = {"workload": args.workload, "seed": args.seed, "machine": machine()}
    passes = []
    with SpeedProbe() as probe:
        ops, setup_spans = setup(args.workload, args.seed)
        golden = load_golden(args.seed) if args.workload == "registry" else None
        budget_start = perf_counter()
        if args.trace:
            from tracer import Tracer
            passes.append(run_pass(ops))
            tracer = Tracer()
            tracer.install()
            try:
                passes.append(run_pass(ops, tracer))
            finally:
                tracer.uninstall()
        else:
            while True:
                passes.append(run_pass(ops))
                (start, end), _ = passes[-1]
                if end - budget_start + end - start > args.seconds:
                    break
    rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    info.update(probe.summary(), raw_pass_s=[end - start for (start, end), _ in passes])

    failed, examples = count_failures(args.workload, ops, args.seed, passes, golden)
    attempted = len(ops) * len(passes)
    info.update(passes=len(passes), ops_per_pass=len(ops), failed_frac=failed / attempted,
                failed_examples=examples, golden=golden is not None)

    if args.trace:
        from tracer import metric_units
        metrics = tracer.metrics()
        untraced_s, traced_s = (probe.seconds(*span) for span, _ in passes)
        metrics["trace.overhead_s"] = traced_s - untraced_s
        units = metric_units()
        os.makedirs(os.path.join(HERE, "out"), exist_ok=True)
        path = os.path.join(HERE, "out", f"trace_{args.workload}_seed{args.seed}.jsonl.gz")
        tracer.write(path)
        info.update(untraced_wall_s=untraced_s, traced_wall_s=traced_s,
                    spans=len(tracer.spans), trace_file=os.path.relpath(path, ROOT))
    else:
        metrics = end_to_end(args.workload, ops, passes, setup_spans, rss_mb, probe.seconds)
        units = END_TO_END_UNITS
        info["latency_samples"] = len(passes) if args.workload == "registry" else attempted
    print(json.dumps(info), file=sys.stderr)
    print(json.dumps({
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": metrics[name], "unit": unit} for name, unit in units.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
