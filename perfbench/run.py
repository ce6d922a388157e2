"""relcalc's benchmark: run one workload, check every answer, print metrics.

Usage, from the root of a checkout:

    python3 perfbench/run.py --workload algebra_small --seed 1 --seconds 40 --trace 0

The relcalc under ``src/`` of the checkout is imported; nothing is built.
A run makes the workload's inputs from the seed, warms up, then repeats
whole rounds of the workload's operations until the next round would end
after ``--seconds``.  Every operation is timed from outside, one call at a
time, and every answer is checked against ``oracles`` after its round.

With ``--trace 0`` the last line of standard output is the JSON result
with the end-to-end metrics; with ``--trace 1`` it carries the per-layer
metrics of a traced run of the same rounds.  The line before it records
the run's provenance.  Both, and the first round's spans of a traced run,
are also written under ``perfbench/out/``.
"""

from __future__ import annotations

import argparse
import contextlib
import json
import os
import resource
import shutil
import statistics
import sys
import time
from pathlib import Path

import numpy as np
import scipy

import oracles
import selftest
import spans
import workloads

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent


def process_age() -> float:
    """Seconds since this process started, from the kernel's start time."""
    fields = Path("/proc/self/stat").read_text().rsplit(")", 1)[1].split()
    started = int(fields[19]) / os.sysconf("SC_CLK_TCK")
    return time.clock_gettime(time.CLOCK_BOOTTIME) - started


def cpu_ticks():
    """(steal, total) jiffies of the machine, from /proc/stat."""
    fields = [int(x) for x in Path("/proc/stat").read_text().split("\n", 1)[0].split()[1:]]
    return fields[7], sum(fields)


def parse_args(argv=None):
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return p.parse_args(argv)


def import_relcalc():
    """relcalc from this checkout's src/, and nothing else."""
    sys.path.insert(0, str(ROOT / "src"))
    try:
        import relcalc
        import relcalc.cli  # noqa: F401  (the CLI operations call relcalc.cli.main)
    except ImportError as exc:
        sys.exit(f"perfbench: cannot import relcalc from {ROOT / 'src'}: {exc}")
    if (ROOT / "src") not in Path(relcalc.__file__).resolve().parents:
        sys.exit(f"perfbench: imported relcalc from {relcalc.__file__}, not from this checkout")
    return relcalc


def provenance(rc, args):
    def blas(module):
        deps = module.show_config(mode="dicts").get("Build Dependencies", {})
        info = deps.get("blas", {})
        return {"name": info.get("name"), "version": info.get("version"),
                "config": info.get("openblas configuration")}

    env = {k: os.environ.get(k) for k in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS",
                                          "MKL_NUM_THREADS")}
    cpus = len(os.sched_getaffinity(0))
    # OpenBLAS takes its pool size from these variables, else the CPU count.
    threads = int(env["OPENBLAS_NUM_THREADS"] or env["OMP_NUM_THREADS"] or cpus)
    return {
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
        "trace": args.trace, "relcalc": rc.__version__, "numpy": np.__version__,
        "scipy": scipy.__version__, "python": sys.version.split()[0],
        "blas": {"numpy": blas(np), "scipy": blas(scipy)},
        "blas_threads": {"numpy": threads, "scipy": threads, "environment": env},
        "nproc": os.cpu_count(), "cpus_available": cpus,
    }


def run_round(ops, tracer, round_no):
    """Run every operation once; return the outputs, latencies and wall time."""
    outputs, latencies = [], []
    clock = time.perf_counter
    for op in ops:  # so that a check never reads an earlier round's file
        for path in op.writes:
            path.unlink(missing_ok=True)
    with open(os.devnull, "w") as sink, \
            contextlib.redirect_stdout(sink), contextlib.redirect_stderr(sink):
        start = clock()
        for idx, op in enumerate(ops):
            if tracer is not None:
                tracer.op = f"{round_no}:{idx}"
            t0 = clock()
            try:
                out = op.call()
            except Exception as exc:  # a failed operation is counted, not fatal
                # Without its traceback: the traceback holds this frame, which
                # holds ``outputs``, and that cycle kept each round's frames
                # alive until a full collection, so peak memory grew with the
                # number of rounds.
                out = exc.with_traceback(None)
            latencies.append(clock() - t0)
            outputs.append(out)
        wall = clock() - start
    if tracer is not None:
        tracer.op = None
    return outputs, latencies, wall


def check_round(ops, outputs, problems):
    """Number of failed operations; unexpected ones go to ``problems``."""
    failed = 0
    for idx, (op, out) in enumerate(zip(ops, outputs)):
        if isinstance(out, Exception):
            reason = f"raised {type(out).__name__}: {out}"
        else:
            try:
                op.check(out)
                continue
            except (oracles.Mismatch, OSError, ValueError, KeyError) as exc:
                reason = f"{type(exc).__name__}: {exc}"
        failed += 1
        if not op.kept_failing:
            problems.append(f"op {idx} ({op.kind}): {reason}")
    return failed


def seconds_by_kind(ops, lat):
    """Seconds per operation kind in one round; kept-failing ones get a ``!``."""
    out = {}
    for op, t in zip(ops, lat):
        key = op.kind + ("!" if op.kept_failing else "")
        out[key] = out.get(key, 0.0) + t
    return out


def io_bytes(ops):
    read = sum(os.path.getsize(p) for op in ops for p in op.reads)
    written = sum(os.path.getsize(p) for op in ops for p in op.writes)
    return read, written


def main(argv=None) -> int:
    args = parse_args(argv)
    if args.workload not in workloads.WORKLOADS:
        sys.exit(f"perfbench: unknown workload {args.workload!r}; "
                 f"choose from {sorted(workloads.WORKLOADS)}")
    rc = import_relcalc()
    out_dir = HERE / "out"
    workdir = out_dir / f"work-{args.workload}-{os.getpid()}"
    workdir.mkdir(parents=True, exist_ok=True)
    try:
        return measure(args, rc, out_dir, workdir)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)


def measure(args, rc, out_dir, workdir) -> int:
    rng = np.random.default_rng(args.seed)
    workload = workloads.WORKLOADS[args.workload](rc, rng, workdir)
    problems = []
    outputs, _, _ = run_round(workload.warmup, None, -1)
    check_round(workload.warmup, outputs, problems)
    setup_s = process_age()

    tracer = None
    if args.trace:
        tracer = spans.Tracer()
        spans.install(tracer)

    ops = workload.ops
    walls, latencies, rounds, kinds = [], [], [], []
    raised = [False] * len(ops)
    attempted = failed = 0
    ticks = cpu_ticks()
    began = time.perf_counter()
    while not walls or (time.perf_counter() - began) + walls[-1] <= args.seconds:
        mark = tracer.mark() if tracer else None
        outputs, lat, wall = run_round(ops, tracer, len(walls))
        if tracer:
            rounds.append(tracer.aggregate(mark))
        walls.append(wall)
        attempted += len(ops)
        failed += check_round(ops, outputs, problems)
        latencies.append(lat)
        raised = [r or isinstance(out, Exception) for r, out in zip(raised, outputs)]
        kinds.append(seconds_by_kind(ops, lat))
    # Each operation's fastest call over the rounds.  The host's noise only
    # ever adds time, in windows of seconds to minutes, so the minimum is
    # the steadiest estimate of what an operation costs.
    best = [min(ts) for ts in zip(*latencies)]
    best_returned = [t for t, r in zip(best, raised) if not r]

    steal = [b - a for a, b in zip(ticks, cpu_ticks())]
    problems += selftest.run()
    correct = not problems
    for line in problems[:20]:
        print(f"perfbench: {line}", file=sys.stderr)

    if tracer is None:
        metrics = {
            "setup_s": (setup_s, "s"),
            "wall_s": (sum(best), "s"),
            "op_p50_ms": (statistics.median(best_returned) * 1e3, "ms"),
            "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MB"),
        }
    else:
        metrics = layer_metrics(rounds, sum(best), ops)

    prov = provenance(rc, args)
    by_kind = {k: statistics.median(r[k] for r in kinds) for k in kinds[0]}
    prov.update(rounds=len(walls), round_walls_s=walls, median_round_wall_s=statistics.median(walls),
                ops_per_round=len(ops),
                median_seconds_by_kind=by_kind,
                # CPU time the hypervisor gave to others while the rounds ran.
                cpu_steal_share=steal[0] / max(steal[1], 1))
    result = {
        "correct": correct,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": float(v), "unit": u} for k, (v, u) in metrics.items()},
    }
    stem = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    (out_dir / f"{stem}.json").write_text(json.dumps({"provenance": prov, "result": result},
                                                     indent=1))
    if tracer is not None:
        first_round = [s for s in tracer.spans if s[4] is not None and s[4].startswith("0:")]
        (out_dir / f"{stem}-spans.json").write_text(json.dumps(
            {"fields": ["name", "start", "end", "parent", "op"], "spans": first_round}))
    print(json.dumps({"provenance": prov}))
    print(json.dumps(result))
    return 0 if correct else 1


def layer_metrics(rounds, wall, ops):
    """Per-layer metrics: counts from the first round, self times as medians
    over rounds, and the traced round time measured as ``wall_s`` is."""
    calls0, _, counters0 = rounds[0]
    read, written = io_bytes(ops)
    metrics = {}
    for name, unit in spans.metric_names():
        if name == "trace.wall_s":
            value = wall
        elif name == "io.bytes_read":
            value = read
        elif name == "io.bytes_written":
            value = written
        elif name.endswith(".calls") and name.count(".") == 2:
            value = calls0.get(name.rsplit(".", 1)[0], 0)
        elif name.endswith(".self_s"):
            span = name.rsplit(".", 1)[0]
            value = statistics.median(r[1].get(span, 0.0) for r in rounds)
        else:
            value = counters0.get(name, 0)
        metrics[name] = (value, unit)
    return metrics


if __name__ == "__main__":
    sys.exit(main())
