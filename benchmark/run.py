"""Benchmark of maxentbn: three workloads, end-to-end and per layer.

Run from the root of a source checkout:

    python3 benchmark/run.py --workload decomposed-solve --seed 1 --seconds 21 --trace 0

With `--trace 0` it times whole rounds of the workload's fixed operation
list (as many rounds as fit the nominal round time into `--seconds`) and
reports the end-to-end metrics.  With `--trace 1` it runs one round of
every workload with spans around the package's public functions,
reports the per-layer metrics and the tracing overhead on the named
workload, and writes the spans to `.bench_out/`.  Every operation's output is checked against the benchmark's
own oracles; `--corrupt` spoils each result before its check, which must
then fail.  The last line of standard output is one JSON object.
"""

from __future__ import annotations

import argparse
import os
import sys

ENV = {"PYTHONHASHSEED": "0", "OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1",
       "MKL_NUM_THREADS": "1"}

# Hash seed and BLAS threads must be fixed before the interpreter and
# numpy start, so the first call re-executes itself in place (still one
# process) with them set.
if any(os.environ.get(k) != v for k, v in ENV.items()):
    os.execve(sys.executable, [sys.executable] + sys.argv, {**os.environ, **ENV})

import gc
import json
import resource
import statistics
import subprocess
import time

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)

import workloads  # noqa: E402
from tracing import Tracer, layer_metrics  # noqa: E402

# Nominal time of one round of any workload (see README); a run does
# round(seconds / ROUND_SECONDS) whole rounds, at least one.
ROUND_SECONDS = 7.0
# Set-up is timed this many times before the rounds and again after each
# round, so that its median spans the run as the operations do.
SETUP_SAMPLES = 2
SPANS_DIR = ".bench_out"  # relative to the checkout root

_SETUP_CHILD = """
import sys, time
texts = sys.stdin.read().split("\\0")
t0 = time.perf_counter()
sys.path.insert(0, sys.argv[1])
import maxentbn
for kind, text in zip(texts[::2], texts[1::2]):
    (maxentbn.parse_model if kind == "model" else maxentbn.parse_graph_text)(text)
print(time.perf_counter() - t0)
"""


def setup_seconds(src: str, ops) -> list[float]:
    """Times, in fresh interpreters, of importing the package and parsing
    the workload's inputs; an import can be timed cold only once per
    process."""
    payload = "\0".join(x for op in ops for inp in op.inputs for x in inp)
    samples = []
    for _ in range(SETUP_SAMPLES):
        out = subprocess.run([sys.executable, "-c", _SETUP_CHILD, src], input=payload,
                             capture_output=True, text=True, timeout=120, check=True)
        samples.append(float(out.stdout.strip().splitlines()[-1]))
    return samples


def parse_inputs(mx, ops) -> dict[str, object]:
    parsed = {}
    for op in ops:
        for kind, text in op.inputs:
            if text not in parsed:
                parsed[text] = (mx.parse_model if kind == "model" else mx.parse_graph_text)(text)
    return parsed


def run_round(mx, ops, parsed, tracer=None) -> list[tuple]:
    """Run each op once, timed, and extract its output outside the timed
    interval.  Returns (op, seconds, data) triples; data is None when the
    op raised."""
    results = []
    for op in ops:
        gc.collect()
        if tracer:
            tracer.enabled, tracer.op = True, op.name
        t0 = time.perf_counter()
        try:
            out = op.run(mx, parsed)
        except Exception as exc:  # a refused operation counts as failed
            results.append((op, time.perf_counter() - t0, None))
            print(f"FAILED {op.name}: {type(exc).__name__}: {exc}", file=sys.stderr)
            continue
        seconds = time.perf_counter() - t0
        if tracer:
            tracer.enabled = False
        print(f"{seconds * 1e3:10.1f} ms  {op.name}", file=sys.stderr)
        results.append((op, seconds, op.extract(out)))
    return results


def check(results, corrupt: bool) -> tuple[int, int]:
    """Check every result against the oracles.  Returns (failed, wrong):
    ops that raised or gave a wrong answer, and the wrong ones alone."""
    failed = wrong = 0
    for op, _, data in results:
        if data is None:
            failed += 1
            continue
        problems = op.check(workloads.corrupt(data) if corrupt else data)
        if problems:
            print(f"WRONG {op.name}: " + "; ".join(problems[:3]), file=sys.stderr)
            failed += 1
            wrong += 1
    return failed, wrong


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--corrupt", action="store_true",
                    help="spoil every result before its check (the run must report failures)")
    args = ap.parse_args(argv)

    root = os.getcwd()
    src, models = os.path.join(root, "src"), os.path.join(root, "models")
    if not os.path.isfile(os.path.join(src, "maxentbn", "__init__.py")) or not os.path.isdir(models):
        print("error: run from the root of a maxentbn checkout (src/maxentbn and models/)",
              file=sys.stderr)
        return 2

    if args.trace:
        names = [args.workload] + [w for w in workloads.WORKLOADS if w != args.workload]
        rounds = {w: workloads.build(w, args.seed, models) for w in names}
    else:
        ops = workloads.build(args.workload, args.seed, models)
        setup = setup_seconds(src, ops)

    sys.path.insert(0, src)
    import maxentbn as mx
    if os.path.dirname(os.path.dirname(os.path.abspath(mx.__file__))) != src:
        print(f"error: imported maxentbn from {mx.__file__}, not from {src}", file=sys.stderr)
        return 2

    if args.trace:
        return trace_run(mx, args, names, rounds)

    parsed = parse_inputs(mx, ops)
    run_round(mx, ops[:1], parsed)  # warm-up, untimed
    results = []
    for _ in range(max(1, round(args.seconds / ROUND_SECONDS))):
        results += run_round(mx, ops, parsed)
        setup += setup_seconds(src, ops)
    # read before the checks, whose reference joints would dominate it
    peak_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    failed, wrong = check(results, args.corrupt)
    durations = [seconds for _, seconds, _ in results]
    metrics = {
        "ops_per_s": (len(durations) / sum(durations), "ops/s"),
        "op_p50_ms": (statistics.median(durations) * 1e3, "ms"),
        "setup_s": (statistics.median(setup), "s"),
        "peak_rss_mb": (peak_mb, "MB"),
    }
    return report(wrong == 0, len(durations), failed, metrics)


def trace_run(mx, args, names, rounds) -> int:
    """One round of every workload with spans on.  Each op of the named
    workload also runs once with spans off, alternately before and after
    its traced run, so that the overhead is measured on the same ops under
    the same machine conditions."""
    tracer = Tracer()
    tracer.install(mx)
    ranges, named, results = {}, {True: 0.0, False: 0.0}, []
    try:
        for w in names:
            start = len(tracer.spans)
            tracer.enabled, tracer.op = True, "parse"
            parsed = parse_inputs(mx, rounds[w])
            for i, op in enumerate(rounds[w]):
                modes = ((False, True) if i % 2 == 0 else (True, False)) if w == args.workload else (True,)
                for on in modes:
                    tracer.enabled = False
                    results += run_round(mx, [op], parsed, tracer if on else None)
                    if w == args.workload:
                        named[on] += results[-1][1]
            if w == "decomposed-solve":
                # the recording cost: the same solves with record=False
                for op in rounds[w]:
                    model = parsed[op.inputs[0][1]]
                    tracer.enabled = False
                    d_model = mx.decompose(model)
                    tracer.enabled, tracer.op = True, op.name + " norecord"
                    mx.solve_decomposed(model, d_model, mx.SolverOptions(
                        tolerance=workloads.SOLVE_TOL, max_cycles=workloads.MAX_CYCLES),
                        record=False)
            ranges[w] = range(start, len(tracer.spans))
    finally:
        tracer.uninstall()
    metrics = layer_metrics(tracer.spans, ranges)
    metrics["trace.overhead_pct"] = ((named[True] / named[False] - 1.0) * 100.0, "%")
    write_spans(tracer.spans, os.path.join(SPANS_DIR, f"spans-{args.workload}-{args.seed}.jsonl"))
    failed, wrong = check(results, args.corrupt)
    return report(wrong == 0, len(results), failed, metrics)


def write_spans(spans, path: str) -> None:
    """One JSON object per span: name, start and end (s), parent (line
    index, -1 at top level), the operation that caused it, and counts."""
    os.makedirs(os.path.dirname(path), exist_ok=True)
    with open(path, "w") as f:
        for s in spans:
            f.write(json.dumps({"name": s.name, "start": s.start, "end": s.end, "parent": s.parent,
                                "op": s.op, "info": s.info}) + "\n")


def report(correct: bool, attempted: int, failed: int, metrics: dict) -> int:
    for name, (value, unit) in metrics.items():
        print(f"{name:36s} {value:14.6g} {unit}", file=sys.stderr)
    print(json.dumps({"correct": correct, "attempted": attempted, "failed": failed,
                      "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()}}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
