"""Span tracing from outside the program.

The tracer replaces public functions of ``dsm2d`` at the names their
callers look them up by (``dsm2d.cli.compute_map`` for the CLI,
``dsm2d.imaging.bessel_j1`` for the closed-form sweep, and so on), so the
package itself is never edited. Each call made inside an operation
records a span: name, start, end, parent span, operation id, and one
work count (points, bytes, nodes or peaks, depending on the layer).
Spans stay in memory and are written out once, when the run ends.

A hooked name that no longer exists aborts installation with
:class:`TraceError`: a renamed function must fail the traced run, never
report a zero for its layer. So does a layer a workload must run that
recorded no span (its callers stopped going through the hooked name),
and an op whose top-level spans cover less than ``MIN_TOP_LEVEL_SHARE``
of its wall time.
"""

from __future__ import annotations

import functools
import importlib
import json
import os
from collections import defaultdict
from contextlib import contextmanager
from time import perf_counter
from typing import NamedTuple


MIN_TOP_LEVEL_SHARE = 0.9


class TraceError(RuntimeError):
    """The hooks no longer see the work they are meant to measure."""


class Span(NamedTuple):
    sid: int
    name: str
    start: float
    end: float
    parent: int | None
    op: int
    count: float


def _arg(args, kwargs, index, key):
    return args[index] if len(args) > index else kwargs[key]


def _no_count(args, kwargs, result):
    return 0


def _layer(name, count_of=_no_count):
    """Hook that names every span ``name``."""
    return (lambda args, kwargs: name), count_of


def _map_kind(args, kwargs):
    from dsm2d.forward import FarFieldData
    source = _arg(args, kwargs, 0, "source")
    kind = "data" if isinstance(source, FarFieldData) else "closed_form"
    return f"imaging.compute_map.{kind}"


def _export_kind(args, kwargs):
    return f"imaging.export_map.{_arg(args, kwargs, 2, 'fmt')}"


def _grid_nodes(args, kwargs, result):
    grid = _arg(args, kwargs, 1, "grid")
    return grid.nx * grid.ny


def _points(args, kwargs, result):
    import numpy as np
    return int(np.size(args[0]))


def _export_bytes(args, kwargs, result):
    return os.path.getsize(_arg(args, kwargs, 1, "path"))


def _far_field_bytes(args, kwargs, result):
    csv = str(_arg(args, kwargs, 1, "csv_path"))
    return os.path.getsize(csv) + os.path.getsize(os.path.splitext(csv)[0] + ".json")


def _result_len(args, kwargs, result):
    return len(result)


_MOS = _layer("model.make_observation_set")
_VALIDATE = _layer("model.validate_scene")
_SYNTH = _layer("forward.synthesize_far_field")
_NOISE = _layer("forward.add_noise")
_WRITE = _layer("forward.write_far_field", _far_field_bytes)
_MAP = (_map_kind, _grid_nodes)
_EXPORT = (_export_kind, _export_bytes)
_PEAKS = _layer("imaging.extract_peaks", _result_len)
_PREDICT = _layer("indicator.predicted_peaks")

# (module the caller resolves the name in, attribute, (span namer, work
# counter)). One function can sit behind several names; each call passes
# through exactly one.
HOOKS = (
    ("dsm2d.cli", "main", _layer("cli.main")),
    ("dsm2d.cli", "make_observation_set", _MOS),
    ("dsm2d.cli", "validate_scene", _VALIDATE),
    ("dsm2d.cli", "synthesize_far_field", _SYNTH),
    ("dsm2d.cli", "add_noise", _NOISE),
    ("dsm2d.cli", "write_far_field", _WRITE),
    ("dsm2d.cli", "compute_map", _MAP),
    ("dsm2d.cli", "export_map", _EXPORT),
    ("dsm2d.cli", "extract_peaks", _PEAKS),
    ("dsm2d.cli", "predicted_peaks", _PREDICT),
    ("dsm2d.model", "make_observation_set", _MOS),
    ("dsm2d.model", "load_scene_config", _layer("model.load_scene_config")),
    ("dsm2d.model", "validate_scene", _VALIDATE),
    ("dsm2d.forward", "make_observation_set", _MOS),
    ("dsm2d.forward", "synthesize_far_field", _SYNTH),
    ("dsm2d.forward", "add_noise", _NOISE),
    ("dsm2d.forward", "write_far_field", _WRITE),
    ("dsm2d.forward", "read_far_field", _layer("forward.read_far_field")),
    ("dsm2d.imaging", "compute_map", _MAP),
    ("dsm2d.imaging", "extract_peaks", _PEAKS),
    ("dsm2d.imaging", "bessel_j1", _layer("specfun.bessel_j1", _points)),
    ("dsm2d.indicator", "predicted_peaks", _PREDICT),
)

# Layers whose total time per operation is reported as ``<layer>.s``.
TIMED_LAYERS = (
    "cli.main",
    "model.load_scene_config", "model.validate_scene",
    "model.make_observation_set",
    "forward.synthesize_far_field", "forward.add_noise",
    "forward.write_far_field", "forward.read_far_field",
    "imaging.compute_map.data", "imaging.compute_map.closed_form",
    "imaging.export_map.csv", "imaging.export_map.pgm",
    "imaging.extract_peaks", "indicator.predicted_peaks",
    "specfun.bessel_j1",
)


class Tracer:
    """Collects spans for calls made inside :meth:`operation` blocks.

    Single-threaded by design: the parent of a span is the innermost
    span open on one stack, which holds because every workload sweeps
    its maps with ``threads=1``.
    """

    def __init__(self, hooks=HOOKS):
        self.hooks = hooks
        self.spans: list = []
        self.ops: list = []  # (op id, start, end)
        self._stack: list = []
        self._op = None

    def _wrap(self, fn, name_of, count_of):
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if self._op is None:
                return fn(*args, **kwargs)
            name = name_of(args, kwargs)
            parent = self._stack[-1] if self._stack else None
            sid = len(self.spans)
            self.spans.append(None)
            self._stack.append(sid)
            start = perf_counter()
            try:
                result = fn(*args, **kwargs)
            except BaseException:
                self.spans[sid] = Span(sid, name, start, perf_counter(),
                                       parent, self._op, 0)
                raise
            finally:
                self._stack.pop()
            end = perf_counter()
            self.spans[sid] = Span(sid, name, start, end, parent, self._op,
                                   count_of(args, kwargs, result))
            return result
        return traced

    @contextmanager
    def installed(self):
        """Swap every hooked name for its traced wrapper, then restore."""
        targets = []
        for module_name, attr, (name_of, count_of) in self.hooks:
            module = importlib.import_module(module_name)
            if not hasattr(module, attr):
                raise TraceError(f"{module_name}.{attr} is gone; "
                                 "update the hook table in bench/tracing.py")
            targets.append((module, attr, getattr(module, attr), name_of, count_of))
        try:
            for module, attr, fn, name_of, count_of in targets:
                setattr(module, attr, self._wrap(fn, name_of, count_of))
            yield self
        finally:
            for module, attr, fn, _, _ in targets:
                setattr(module, attr, fn)

    @contextmanager
    def operation(self):
        """Attribute the spans opened inside the block to one new op id."""
        op = len(self.ops)
        self._op = op
        start = perf_counter()
        try:
            yield op
        finally:
            self.ops.append((op, start, perf_counter()))
            self._op = None
            self._stack.clear()

    def write(self, path) -> None:
        with open(path, "w") as fh:
            for span in self.spans:
                fh.write(json.dumps(span._asdict()) + "\n")


def self_times(spans) -> dict:
    """Span id -> duration minus the time its direct children cover.

    Children of one parent run one after another on a single thread, so
    their durations add without overlap.
    """
    covered = defaultdict(float)
    for span in spans:
        if span.parent is not None:
            covered[span.parent] += span.end - span.start
    return {s.sid: (s.end - s.start) - covered[s.sid] for s in spans}


def top_level_share(spans, ops) -> float:
    """Smallest share of an op's wall time covered by its top-level spans."""
    top = defaultdict(float)
    for span in spans:
        if span.parent is None:
            top[span.op] += span.end - span.start
    return min(top[op] / (end - start) for op, start, end in ops)


def check_coverage(spans, ops, required) -> None:
    """Fail unless every ``required`` layer recorded a span and every op's
    top-level spans cover at least ``MIN_TOP_LEVEL_SHARE`` of it."""
    missing = sorted(set(required) - {span.name for span in spans})
    if missing:
        raise TraceError(f"no spans for {', '.join(missing)}; update the hook "
                         "table in bench/tracing.py")
    share = top_level_share(spans, ops)
    if share < MIN_TOP_LEVEL_SHARE:
        raise TraceError(f"top-level spans cover only {share:.3f} of an op, "
                         f"under {MIN_TOP_LEVEL_SHARE}")


def layer_metrics(spans, ops) -> dict:
    """Per-layer figures, each a mean per traced operation (or a rate)."""
    n = len(ops)
    total = defaultdict(float)
    counts = defaultdict(float)
    calls = defaultdict(int)
    own = self_times(spans)
    self_by_name = defaultdict(float)
    for span in spans:
        total[span.name] += span.end - span.start
        counts[span.name] += span.count
        calls[span.name] += 1
        self_by_name[span.name] += own[span.sid]
    out = {f"{layer}.s": total[layer] / n for layer in TIMED_LAYERS}
    out.update({
        "imaging.export_map.csv.bytes": counts["imaging.export_map.csv"] / n,
        "imaging.export_map.pgm.bytes": counts["imaging.export_map.pgm"] / n,
        "imaging.compute_map.data.nodes": counts["imaging.compute_map.data"] / n,
        "imaging.compute_map.closed_form.self_s":
            self_by_name["imaging.compute_map.closed_form"] / n,
        "specfun.bessel_j1.calls": calls["specfun.bessel_j1"] / n,
        "specfun.bessel_j1.points": counts["specfun.bessel_j1"] / n,
        "specfun.bessel_j1.points_per_s": (
            counts["specfun.bessel_j1"] / total["specfun.bessel_j1"]
            if total["specfun.bessel_j1"] > 0 else 0.0),
        "forward.write_far_field.bytes": counts["forward.write_far_field"] / n,
        "imaging.extract_peaks.peaks": counts["imaging.extract_peaks"] / n,
        "cli.self_s": self_by_name["cli.main"] / n,
        "trace.top_level_share": top_level_share(spans, ops),
    })
    return out
