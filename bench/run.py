"""dsm2d benchmark: run one workload, check its outputs, print its metrics.

    python3 bench/run.py --workload demo-cli --seed 1 --seconds 40 --trace 0

Run from anywhere inside a checkout of the repository; the package is
imported from the checkout's ``src/``. Metric names and units come from
``BENCHMARK.json`` at the checkout root. With ``--trace 0`` the last line
of output holds the end-to-end metrics; with ``--trace 1`` it holds the
per-layer metrics of a traced run. Details, machine facts and (traced)
spans are written under ``bench/out/``.
"""

from __future__ import annotations

import argparse
import json
import os
import signal
import statistics
import subprocess
import sys
from pathlib import Path
from time import perf_counter

from machine import machine_info

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
OUT = BENCH / "out"
SETUP_REPEATS = 21


class BenchError(Exception):
    """The benchmark cannot produce a result."""


def package_env() -> dict:
    src = ROOT / "src"
    if not (src / "dsm2d" / "__init__.py").is_file():
        raise BenchError(f"no dsm2d package under {src}")
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(src), env.get("PYTHONPATH")) if p)
    return env


def setup_seconds(env) -> float:
    """Median wall time of a fresh interpreter running ``import dsm2d``."""
    probe = "import dsm2d, sys; sys.stdout.write(dsm2d.__file__)"
    times = []
    for _ in range(SETUP_REPEATS):
        start = perf_counter()
        proc = subprocess.run([sys.executable, "-c", probe], env=env,
                              capture_output=True, text=True, timeout=60)
        times.append(perf_counter() - start)
        if proc.returncode != 0:
            raise BenchError(f"import dsm2d failed: {proc.stderr.strip()}")
        if Path(proc.stdout).resolve().parent != ROOT / "src" / "dsm2d":
            raise BenchError(f"dsm2d imported from {proc.stdout}, not this checkout")
    return statistics.median(times)


def run_worker(env, workload, seed, seconds, trace) -> dict:
    cmd = [sys.executable, str(BENCH / "worker.py"), workload, str(seed),
           str(seconds), str(trace), str(OUT)]
    # A new process group, so a timeout or an interrupt stops the worker
    # and any CLI process it is running.
    with subprocess.Popen(cmd, env=env, stdout=subprocess.PIPE, text=True,
                          start_new_session=True) as proc:
        try:
            out, _ = proc.communicate(timeout=seconds + 120)
        finally:
            if proc.poll() is None:
                os.killpg(proc.pid, signal.SIGKILL)
                proc.communicate()
    if proc.returncode != 0:
        raise BenchError(f"worker exited with {proc.returncode}")
    return json.loads(out.strip().splitlines()[-1])


def collect(spec: dict, summary: dict, setup_s: float, trace: int) -> dict:
    """Name -> {value, unit} for every metric BENCHMARK.json lists."""
    if trace:
        values, wanted = summary["layers"], spec["per_layer"]
    else:
        values = {key: summary.get(key) for key in
                  ("wall_s_p50", "wall_s_p90", "nodes_per_s", "peak_rss_mb")}
        values["setup_s"] = setup_s
        values["ok_ratio"] = 1.0 - summary["failed"] / summary["attempted"]
        wanted = spec["end_to_end"]
    missing = [m["name"] for m in wanted if values.get(m["name"]) is None]
    if missing:
        raise BenchError(f"no value for {', '.join(missing)}")
    return {m["name"]: {"value": values[m["name"]], "unit": m["unit"]}
            for m in wanted}


def main(argv=None) -> int:
    try:
        spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    except OSError as exc:
        print(f"benchmark error: {exc}", file=sys.stderr)
        return 1
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True,
                        choices=[w["name"] for w in spec["workloads"]])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    try:
        env = package_env()
        OUT.mkdir(exist_ok=True)
        setup_s = None if args.trace else setup_seconds(env)
        summary = run_worker(env, args.workload, args.seed, args.seconds,
                             args.trace)
        if summary["samples"] == 0:
            raise BenchError(f"every op failed: {summary['errors']}")
        metrics = collect(spec, summary, setup_s, args.trace)
    except (BenchError, OSError, subprocess.TimeoutExpired) as exc:
        print(f"benchmark error: {exc}", file=sys.stderr)
        return 1

    result = {"correct": summary["failed"] == 0,
              "attempted": summary["attempted"],
              "failed": summary["failed"], "metrics": metrics}
    detail = {"args": vars(args), "machine": machine_info(ROOT),
              "summary": summary, "result": result}
    name = f"result-{args.workload}-s{args.seed}-t{args.trace}.json"
    (OUT / name).write_text(json.dumps(detail, indent=2) + "\n")

    print(f"# {args.workload} seed={args.seed} trace={args.trace}: "
          f"{summary['attempted']} ops attempted, {summary['failed']} failed "
          f"(fail_ratio {summary['failed'] / summary['attempted']:.3g}), "
          f"{summary['samples']} timed samples; "
          f"p90 has {summary.get('p90_samples_beyond')} beyond it")
    for key, m in metrics.items():
        print(f"#   {key:44s} {m['value']:.6g} {m['unit']}")
    for err in summary["errors"]:
        print(f"#   failure: {err}")
    print(f"# details in {OUT / name}")
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
