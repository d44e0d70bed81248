"""Per-stage timing table for the shipped examples, from the traced run.

    python3 bench/stages.py

Runs ``dsm2d example exN`` in process (default grid, N=256, threads=1)
under the tracer, then reloads its far-field CSV, and prints the median
of each stage over ``REPEATS`` runs as a Markdown table, one column per
example. The table and the machine facts are also written to
``bench/out/stages.json``.
"""

from __future__ import annotations

import contextlib
import io
import json
import statistics
import sys
import tempfile
from collections import defaultdict
from pathlib import Path

BENCH = Path(__file__).resolve().parent
sys.path.insert(0, str(BENCH.parent / "src"))

import tracing  # noqa: E402
from machine import machine_info  # noqa: E402
from run import OUT, ROOT, package_env, setup_seconds  # noqa: E402

EXAMPLES = ("ex1", "ex2", "ex3")
REPEATS = 3


def _per_call(spans, name):
    hits = [s.end - s.start for s in spans if s.name == name]
    return sum(hits) / len(hits) if hits else float("nan")


def stage_row(spans, bessel_span) -> dict:
    """Stage -> seconds for one traced example run."""
    total = defaultdict(float)
    points = 0
    for s in spans:
        total[s.name] += s.end - s.start
        if s.name == "specfun.bessel_j1":
            points += s.count
    return {
        "dsm2d example, end to end (in process)": total["cli.main"],
        "export_map csv, per map": _per_call(spans, "imaging.export_map.csv"),
        "export_map pgm, per map": _per_call(spans, "imaging.export_map.pgm"),
        "compute_map, data": total["imaging.compute_map.data"],
        "compute_map, closed form": total["imaging.compute_map.closed_form"],
        "extract_peaks": total["imaging.extract_peaks"],
        "far-field CSV write": total["forward.write_far_field"],
        "far-field CSV read": total["forward.read_far_field"],
        f"bessel_j1 in the closed form, per {bessel_span.count:,} points":
            total["specfun.bessel_j1"] * bessel_span.count / points,
        f"bessel_j1, one call on {bessel_span.count:,} points":
            bessel_span.end - bessel_span.start,
    }


def bessel_arguments(scene, wave, grid):
    """k * distance from the first disk to every grid node."""
    import numpy as np
    xs, ys = np.meshgrid(grid.x_nodes(), grid.y_nodes())
    center = scene.inclusions[0].center
    return wave.wavenumber * np.hypot(xs - center[0], ys - center[1]).ravel()


def measure() -> dict:
    from dsm2d import cli, forward, imaging

    grid = cli._parse_grid(cli.DEFAULT_GRID)
    table = {}
    tracer = tracing.Tracer()
    with tempfile.TemporaryDirectory(dir=OUT) as tmp, tracer.installed():
        for which in EXAMPLES:
            out = Path(tmp) / which
            args = bessel_arguments(cli.example_scene(which), cli.example_wave(), grid)
            rows = []
            for _ in range(REPEATS):
                first = len(tracer.spans)
                with tracer.operation(), contextlib.redirect_stdout(io.StringIO()):
                    if cli.main(["example", which, "--out", str(out), "--force",
                                 "--threads", "1"]) != 0:
                        raise SystemExit(f"dsm2d example {which} failed")
                    forward.read_far_field(out / "farfield.csv")
                example_spans = tracer.spans[first:]
                with tracer.operation():
                    imaging.bessel_j1(args)
                rows.append(stage_row(example_spans, tracer.spans[-1]))
            table[which] = {stage: statistics.median(r[stage] for r in rows)
                            for stage in rows[0]}
    return table


def main() -> int:
    OUT.mkdir(exist_ok=True)
    setup = setup_seconds(package_env())
    table = measure()
    stages = list(table[EXAMPLES[0]])

    print(f"| stage (default grid, N=256, threads=1, median of {REPEATS}) | "
          + " | ".join(EXAMPLES) + " |")
    print("|---|" + "---|" * len(EXAMPLES))
    print("| fresh interpreter, `import dsm2d` | "
          + " | ".join(f"{setup * 1e3:.0f} ms" for _ in EXAMPLES) + " |")
    for stage in stages:
        print(f"| {stage} | "
              + " | ".join(f"{table[ex][stage] * 1e3:.1f} ms" for ex in EXAMPLES)
              + " |")
    (OUT / "stages.json").write_text(json.dumps(
        {"machine": machine_info(ROOT), "repeat": REPEATS,
         "import_dsm2d_s": setup, "stages_s": table}, indent=2) + "\n")
    print(f"\nwritten to {OUT / 'stages.json'}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
