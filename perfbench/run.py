"""Benchmark of the shuffleprob package; see perfbench/README.md.

    python3 perfbench/run.py --workload lib-mixed --seed 1 --seconds 24 --trace 0

Runs the workload's ops (its seeded op mix) over and over, in a fixed number
of passes sized by ``--seconds``, checks every output against an independent
reference afterwards, and prints one JSON line: the end-to-end metrics with
``--trace 0``, the per-layer metrics with ``--trace 1``.  End-to-end times
are at reference speed (see speed.py).  A metadata line precedes it, and
both (plus the spans of a traced run) are written to ``perfbench/out/``.
``--check`` also re-derives every reference table with the package's
partition oracle and exits 1 on any mismatch.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import subprocess
import sys
from pathlib import Path
from time import perf_counter

import gen
import probes
import spans
import speed
from workloads import WORKLOADS, Reference

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
OUT = BENCH / "out"
# every op runs at least this often, and its latency is the median of its runs
MIN_PASSES = 3
# set-ups timed per run, and gauge kernel runs between two set-ups
SETUP_SAMPLES, SETUP_GAUGE_REPS = 11, 4


def fail(message):
    print(f"perfbench: {message}", file=sys.stderr)
    sys.exit(2)


def load_package():
    """Import shuffleprob from this checkout's src/, never from elsewhere."""
    if not (SRC / "shuffleprob" / "__init__.py").is_file():
        fail(f"no shuffleprob package under {SRC}")
    if sys.flags.optimize:
        fail("run without -O: it strips the package's assert-based checks")
    sys.path.insert(0, str(SRC))
    import shuffleprob
    from shuffleprob import functionals, mutations
    if Path(shuffleprob.__file__).resolve().parent != (SRC / "shuffleprob").resolve():
        fail(f"imported shuffleprob from {shuffleprob.__file__}, not from {SRC}")
    if functionals.CROSS_CHECK_AD or any(mutations.is_active(d) for d in mutations.DEFECTS):
        fail("the package must run with its shipped settings")


def child_env():
    env = {k: v for k, v in os.environ.items() if k not in ("PYTHONOPTIMIZE", "PYTHONHOME")}
    env["PYTHONPATH"] = str(SRC)
    env["SHUFFLE_MAX_DEGREE"] = str(gen.CLI_MAX_DEGREE)
    return env


def git_rev():
    try:
        proc = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                              text=True, timeout=10)
    except (OSError, subprocess.SubprocessError):
        return None
    return proc.stdout.strip() if proc.returncode == 0 else None


def setup_times(workload, seed, cycles, count):
    """(wall time, slowdown) of `count` fresh interpreters that each import
    the package and generate the run's inputs, which is what a run does
    before its first op."""
    env = dict(child_env(), PYTHONPATH=os.pathsep.join((str(SRC), str(BENCH))))
    code = "import sys, shuffleprob, gen; gen.generate(sys.argv[1], int(sys.argv[2]), int(sys.argv[3]))"
    gauge = speed.Gauge(SETUP_GAUGE_REPS)
    samples = []
    for _ in range(count):
        wall = spans.child_wall([sys.executable, "-c", code, workload, str(seed), str(cycles)],
                                cwd=ROOT, env=env)
        samples.append((wall, gauge.slowdown()))
    return samples


def stream(workload, ops, passes, tracer):
    """`passes` passes over the same ops, one op after another, with the
    speed gauge read between two ops.  Returns latencies[p][i],
    slowdowns[p][i] and outputs[p][i] (output or exception) of op i in
    pass p."""
    latencies, slowdowns, outputs = [], [], []
    gauge = speed.Gauge(workload.gauge_reps)
    for _ in range(passes):
        latencies.append([])
        slowdowns.append([])
        outputs.append([])
        for i, op in enumerate(ops):
            tracer.op = i
            t0 = perf_counter()
            with tracer.span("op"):
                try:
                    output = workload.run(op, tracer)
                except Exception as exc:  # a failed op is counted, not fatal
                    output = exc
            latencies[-1].append(perf_counter() - t0)
            slowdowns[-1].append(gauge.slowdown())
            outputs[-1].append(output)
    return latencies, slowdowns, outputs


def check_all(workload, results, strict):
    refs = Reference(strict)
    failures = []
    for i, (op, output) in enumerate(results):
        if isinstance(output, Exception):
            failures.append((i, f"raised {type(output).__name__}: {output}"))
            continue
        try:
            ok = workload.check(op, output, refs)
        except AssertionError as exc:  # strict mode: reference vs oracle
            failures.append((i, str(exc)))
            continue
        if not ok:
            failures.append((i, "output disagrees with the reference"))
    return failures


def check_passes(workload, ops, outputs, strict):
    """(pass, op, reason) of every failed execution.  The first pass is
    checked against the reference; a later output equal to the first
    pass's output of the same op shares its verdict, any other is checked
    on its own."""
    first = dict(check_all(workload, list(zip(ops, outputs[0])), strict))
    failures = [(0, i, why) for i, why in sorted(first.items())]
    for p, row in enumerate(outputs[1:], 1):
        for i, (op, output) in enumerate(zip(ops, row)):
            same = not isinstance(output, Exception) and output == outputs[0][i]
            if same:
                failures += [(p, i, first[i])] if i in first else []
            else:
                failures += [(p, i, why) for _, why in check_all(workload, [(op, output)], strict)]
    return failures


def layer_metrics(names, records, n_ops, io_bytes, values):
    """Each declared per-layer metric: a value the run measured directly, a
    layer's self time per op, JSON bytes per op, or the median duration of
    the span it names (0 when the workload never opens that span)."""
    by_name = spans.durations(records)
    selfs = spans.self_times(records)
    out = {}
    for name in names:
        if name in values:
            out[name] = values[name]
        elif name.endswith(".self_ms"):
            out[name] = 1000 * selfs.get(name.split(".")[0], 0.0) / n_ops
        elif name == "io.bytes":
            out[name] = io_bytes / n_ops
        else:
            durations = by_name.get(name[:-len("_ms")])
            out[name] = 1000 * spans.median(durations) if durations else 0.0
    return out


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--check", action="store_true",
                        help="also check the references against the partition oracle; "
                             "exit 1 on any mismatch")
    args = parser.parse_args(argv)

    load_package()
    OUT.mkdir(exist_ok=True)
    context = {"root": str(ROOT), "out": str(OUT), "child_env": child_env()}
    workload = WORKLOADS[args.workload](context)

    # A run is a fixed number of passes over the same ops, sized by
    # --seconds, so every run with the same arguments times the same work.
    passes = max(MIN_PASSES, round(args.seconds / workload.pass_s))

    # set-up is timed in fresh interpreters, several times, and setup_s is
    # the median at reference speed; a traced run reports no setup_s and
    # skips the samples
    samples = [] if args.trace else setup_times(workload.name, args.seed, workload.cycles,
                                                SETUP_SAMPLES)
    ops = [op for cycle in gen.generate(workload.name, args.seed, workload.cycles)
           for op in cycle]
    if workload.warm_up:
        for op in ops[:len(ops) // workload.cycles]:
            workload.run(op, spans.NullTracer())
    ops = workload.prepare(ops)
    tracer = spans.Tracer() if args.trace else spans.NullTracer()
    try:
        stream_start = perf_counter()
        latencies, slowdowns, outputs = stream(workload, ops, passes, tracer)
        stream_wall = perf_counter() - stream_start
        if args.trace:
            workload.probe_io(ops, outputs[0], tracer)
    finally:
        workload.close()
    n = len(ops) * passes
    rss_who = resource.RUSAGE_CHILDREN if workload.name == "cli-univariate" else resource.RUSAGE_SELF
    peak_rss_mb = resource.getrusage(rss_who).ru_maxrss / 1024
    # Every time at reference speed.  An op's latency is the median of its
    # passes; the tail keeps ten executions beyond it, each at its op's
    # latency; throughput is that of a pass with every op at its latency.
    ref_latencies = [[t / f for t, f in zip(*row)] for row in zip(latencies, slowdowns)]
    op_s = [spans.median(column) for column in zip(*ref_latencies)]
    ops_per_s = len(ops) / sum(op_s)
    p50_ms = 1000 * spans.median(op_s)
    tail_s, tail_pct = spans.tail([t for t in op_s for _ in range(passes)])

    t0 = perf_counter()
    failures = check_passes(workload, ops, outputs, args.check)
    check_s = perf_counter() - t0
    meta = {
        "workload": workload.name, "seed": args.seed,
        "seconds": args.seconds, "trace": args.trace, "check": args.check,
        "git_rev": git_rev(), "python": platform.python_version(), "nproc": os.cpu_count(),
        "params": workload.params(), "cycles": workload.cycles, "ops_per_pass": len(ops),
        "passes": passes, "executions": n, "op_tail_percentile": tail_pct,
        "stream_wall_s": stream_wall, "op_latencies_s": op_s,
        "measured_op_p50_ms": 1000 * spans.median(sum(latencies, [])),
        "slowdown_median": spans.median(sum(slowdowns, [])),
        "setup_samples": [{"wall_s": w, "slowdown": f} for w, f in samples],
        "failed_frac": len(failures) / n, "failures": failures[:20], "check_s": check_s,
    }
    declared = json.loads((ROOT / "BENCHMARK.json").read_text())
    units = {m["name"]: m["unit"] for m in declared["per_layer" if args.trace else "end_to_end"]}
    if args.trace:
        io_bytes = passes * sum(workload.io_bytes(op, output) for op, output in zip(ops, outputs[0])
                                if not isinstance(output, Exception))
        t0 = perf_counter()
        values = probes.run_probes(workload, args.seed, context)
        meta["probe_s"] = perf_counter() - t0
        meta["probe_values"] = values
        values.update({"trace.op_p50_ms": p50_ms, "trace.ops_per_s": ops_per_s,
                       "trace.spans_per_op": len(tracer.spans) / n})
        metrics = layer_metrics(units, tracer.spans, n, io_bytes, values)
    else:
        metrics = {"setup_s": spans.median([w / f for w, f in samples]), "ops_per_s": ops_per_s,
                   "op_p50_ms": p50_ms, "op_tail_ms": 1000 * tail_s, "peak_rss_mb": peak_rss_mb,
                   "ok_frac": 1 - len(failures) / n}
    if set(units) != set(metrics):
        raise RuntimeError(f"metrics differ from BENCHMARK.json: {sorted(set(units) ^ set(metrics))}")
    result = {"correct": not failures, "attempted": n, "failed": len(failures),
              "metrics": {k: {"value": metrics[k], "unit": units[k]} for k in units}}

    stem = f"{workload.name}-seed{args.seed}-trace{args.trace}"
    record = {"meta": meta, "result": result, "latencies_s": latencies, "slowdowns": slowdowns}
    if args.trace:
        record["spans"] = tracer.spans
    (OUT / f"{stem}.json").write_text(json.dumps(record) + "\n")
    print(json.dumps({"meta": meta}))
    print(json.dumps(result))
    if args.check and failures:
        sys.exit(1)


if __name__ == "__main__":
    main()
