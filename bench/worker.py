"""Run one workload for a fixed time in this process; print a JSON summary.

Started by run.py, one worker process per run, so that peak memory is
the workload's own. Usage:

    python3 bench/worker.py <workload> <seed> <seconds> <trace 0|1> <out dir>
"""

from __future__ import annotations

import contextlib
import json
import resource
import shutil
import statistics
import sys
import traceback
from pathlib import Path
from time import perf_counter

import stats
import tracing
from workloads import WORKLOADS

MAX_ERRORS_KEPT = 5


def measure(workload, seconds: float, tracer=None) -> dict:
    """Closed loop for ``seconds`` of wall time.

    Untraced (no tracer): every op runs as a user runs it. Traced: each
    input runs once untraced and once traced, both in process, so the
    two medians differ only by the tracing.
    """
    ops, traced_times, errors = [], [], []
    nodes = attempted = failed = 0
    deadline = perf_counter() + seconds
    cases = workload.cases()
    with tracer.installed() if tracer else contextlib.nullcontext():
        while perf_counter() < deadline:
            case = next(cases)
            for with_trace in ((False, True) if tracer else (False,)):
                attempted += 1
                try:
                    start = perf_counter()
                    with tracer.operation() if with_trace else contextlib.nullcontext():
                        n = workload.op(case, in_process=tracer is not None)
                    elapsed = perf_counter() - start
                    workload.check(case)
                except Exception as exc:  # any exception or missed check is a failed op
                    failed += 1
                    if len(errors) < MAX_ERRORS_KEPT:
                        errors.append(f"{case.label}: {exc!r}")
                        traceback.print_exc(file=sys.stderr)
                    continue
                if with_trace:
                    traced_times.append(elapsed)
                else:
                    ops.append((case.label, elapsed))
                    nodes += n
    return {"attempted": attempted, "failed": failed, "errors": errors,
            "ops": ops, "traced_times": traced_times, "nodes": nodes}


def summarize(run: dict, traced: bool) -> dict:
    times = [t for _, t in run["ops"]]
    summary = {key: run[key] for key in ("attempted", "failed", "errors", "ops")}
    summary["samples"] = len(times)
    if times:
        summary["wall_s_p50"] = statistics.median(times)
        if not traced:
            summary["nodes_per_s"] = run["nodes"] / sum(times)
    if len(times) >= 2:  # a quantile needs two samples
        p90, beyond = stats.tail_percentile(times)
        summary.update(wall_s_p90=p90, p90_samples_beyond=beyond)
    return summary


def main(argv) -> int:
    name, seed, seconds, traced, out = argv
    seed, seconds, traced, out = int(seed), float(seconds), traced == "1", Path(out)
    work = out / f"work-{name}-s{seed}-t{int(traced)}"
    work.mkdir(parents=True, exist_ok=True)
    tracer = tracing.Tracer() if traced else None
    workload = WORKLOADS[name](seed, work)
    try:
        run = measure(workload, seconds, tracer)
    finally:
        shutil.rmtree(work, ignore_errors=True)

    summary = summarize(run, traced)
    if tracer:
        tracing.check_coverage(tracer.spans, tracer.ops, workload.layers)
        layers = tracing.layer_metrics(tracer.spans, tracer.ops)
        if run["ops"] and run["traced_times"]:
            layers["trace.overhead_s"] = (statistics.median(run["traced_times"])
                                          - summary["wall_s_p50"])
        summary["layers"] = layers
        summary["spans_file"] = str(out / f"spans-{name}-s{seed}.jsonl")
        tracer.write(summary["spans_file"])
    # demo-cli does its work in child processes; the others in this one.
    who = (resource.RUSAGE_CHILDREN if name == "demo-cli" and not traced
           else resource.RUSAGE_SELF)
    summary["peak_rss_mb"] = resource.getrusage(who).ru_maxrss / 1024.0
    print(json.dumps(summary))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
