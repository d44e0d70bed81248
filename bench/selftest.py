"""Self-tests for the benchmark's own logic.

    python3 -m pytest -q bench/selftest.py

The file name keeps these out of the package's default test run.
"""

from __future__ import annotations

import json
import shutil
import sys
import types
from pathlib import Path

import numpy as np
import pytest

BENCH = Path(__file__).resolve().parent
sys.path[:0] = [str(BENCH), str(BENCH.parent / "src")]

import checks  # noqa: E402
import stats  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402
from dsm2d import cli, imaging, model  # noqa: E402

SPEC = json.loads((BENCH.parent / "BENCHMARK.json").read_text())
COARSE = imaging.SearchGrid(-1.0, 1.0, -1.0, 1.0, 0.02)


# -- percentiles -------------------------------------------------------------

def test_tail_percentile_counts_samples_beyond():
    value, beyond = stats.tail_percentile(list(range(100)))
    assert value == pytest.approx(89.1)
    assert beyond == 10 >= stats.MIN_BEYOND
    _, beyond = stats.tail_percentile(list(range(50)))
    assert beyond == 5 < stats.MIN_BEYOND


def test_tail_percentile_ties_are_not_beyond():
    _, beyond = stats.tail_percentile([1.0] * 95 + [2.0] * 5)
    assert beyond == 5


# -- tracing -------------------------------------------------------------------

def _span(sid, name, start, end, parent, op=0, count=0):
    return tracing.Span(sid, name, start, end, parent, op, count)


def test_self_time_subtracts_direct_children_only():
    spans = [_span(0, "root", 0.0, 10.0, None),
             _span(1, "a", 1.0, 4.0, 0),
             _span(2, "a.inner", 2.0, 3.0, 1),
             _span(3, "b", 5.0, 9.0, 0)]
    own = tracing.self_times(spans)
    assert own == {0: pytest.approx(3.0), 1: pytest.approx(2.0),
                   2: pytest.approx(1.0), 3: pytest.approx(4.0)}
    assert tracing.top_level_share(spans, [(0, -1.0, 19.0)]) == pytest.approx(0.5)


@pytest.fixture()
def fake_module(monkeypatch):
    mod = types.ModuleType("fake_layer")

    def inner(x):
        return x + 1

    def outer(x):
        return mod.inner(x) * 2

    mod.inner, mod.outer = inner, outer
    monkeypatch.setitem(sys.modules, "fake_layer", mod)
    return mod


def _hooks(*attrs):
    return tuple(("fake_layer", a, tracing._layer(a)) for a in attrs)


def test_tracer_records_nesting_and_restores_names(fake_module):
    original = fake_module.outer
    tracer = tracing.Tracer(_hooks("outer", "inner"))
    with tracer.installed():
        assert fake_module.outer(1) == 4  # outside an op: no spans
        with tracer.operation():
            assert fake_module.outer(1) == 4
    assert fake_module.outer is original
    assert [(s.name, s.parent, s.op) for s in tracer.spans] == [
        ("outer", None, 0), ("inner", 0, 0)]
    assert len(tracer.ops) == 1


def test_tracer_fails_loudly_on_a_missing_name(fake_module):
    original = fake_module.outer
    tracer = tracing.Tracer(_hooks("outer", "renamed_away"))
    with pytest.raises(tracing.TraceError, match="renamed_away"):
        with tracer.installed():
            pass
    assert fake_module.outer is original


def test_hook_table_matches_the_package():
    with tracing.Tracer().installed():
        pass


def test_per_layer_names_match_benchmark_json():
    spans = [_span(0, "cli.main", 0.0, 1.0, None)]
    produced = set(tracing.layer_metrics(spans, [(0, 0.0, 1.0)]))
    produced.add("trace.overhead_s")  # added by the worker
    assert produced == {m["name"] for m in SPEC["per_layer"]}


def test_workload_names_agree():
    assert [w["name"] for w in SPEC["workloads"]] == list(workloads.WORKLOADS)


def test_coverage_check_rejects_a_silent_layer_and_a_thin_op():
    spans = [_span(0, "root", 0.0, 10.0, None), _span(1, "a", 1.0, 4.0, 0)]
    tracing.check_coverage(spans, [(0, 0.0, 10.0)], {"root", "a"})
    with pytest.raises(tracing.TraceError, match="no spans for b"):
        tracing.check_coverage(spans, [(0, 0.0, 10.0)], {"root", "a", "b"})
    with pytest.raises(tracing.TraceError, match="top-level"):
        tracing.check_coverage(spans, [(0, 0.0, 12.0)], {"root"})


@pytest.mark.parametrize("name", sorted(workloads.WORKLOADS))
def test_one_traced_op_records_every_required_layer(name, tmp_path):
    workload = workloads.WORKLOADS[name](0, tmp_path)
    case = next(c for c in workload.cases() if "fine" not in c.label)
    tracer = tracing.Tracer()
    with tracer.installed(), tracer.operation():
        workload.op(case, in_process=True)
    workload.check(case)
    tracing.check_coverage(tracer.spans, tracer.ops, workload.layers)
    assert workload.layers <= set(tracing.TIMED_LAYERS)


# -- scene generator -----------------------------------------------------------

@pytest.mark.parametrize("seed", range(40))
def test_random_scenes_pass_validation_silently(seed, tmp_path):
    doc = workloads.random_scene_doc(np.random.default_rng(seed))
    path = tmp_path / "scene.json"
    path.write_text(json.dumps(doc))
    cfg = model.load_scene_config(path)
    scene = cfg["scene"]
    assert len(scene.inclusions) == 6
    assert model.validate_scene(scene, cfg["wave"]).entries == ()
    xs = workloads.DEFAULT_GRID.x_nodes()
    for inc in scene.inclusions:
        assert inc.radius == 0.1
        assert 1.5 <= inc.permeability <= 10.0
        assert inc.center[0] in xs and inc.center[1] in xs


# -- output checks -------------------------------------------------------------

def test_map_invariants_reject_bad_maps():
    good = np.array([[0.0, 0.5], [1.0, 0.25]])
    checks.check_map(good)
    for bad in (good * 0.999, good * 1.001, np.where(good == 0.5, np.nan, good),
                good - 0.1):
        with pytest.raises(checks.CheckFailed):
            checks.check_map(bad)


def test_point_checks_reject_small_errors():
    checks.check_residual(np.zeros(3), np.full(3, 1e-3))
    with pytest.raises(checks.CheckFailed):
        checks.check_residual(np.zeros(3), np.array([0.0, 1.1e-3, 0.0]))
    good = [checks.EX1_PEAKS[1], checks.EX1_PEAKS[0]]
    checks.check_ex1_peaks(good, 0.005)
    with pytest.raises(checks.CheckFailed):
        checks.check_ex1_peaks([(0.6171 + 0.01, 0.4171), good[0]], 0.005)
    with pytest.raises(checks.CheckFailed):
        checks.check_ex1_peaks(good[:1], 0.005)


def test_predicted_check_rejects_a_moved_pair():
    from dsm2d.indicator import PeakPrediction, predicted_peaks
    scene, wave = cli.example_scene("ex2"), cli.example_wave()
    preds = predicted_peaks(scene, wave)
    checks.check_predicted(preds, scene, wave)
    lo, hi = preds[1].positions
    preds[1] = PeakPrediction(1, (lo, hi + 1e-9), preds[1].offset_radius)
    with pytest.raises(checks.CheckFailed):
        checks.check_predicted(preds, scene, wave)


@pytest.fixture(scope="module")
def demo_dir(tmp_path_factory):
    out = tmp_path_factory.mktemp("demo") / "ex1"
    code = cli.main(["example", "ex1", "--out", str(out), "--threads", "1",
                     "--grid=-1,1,-1,1,0.02"])
    assert code == 0
    return out


def _nodes():
    return checks.sample_nodes(np.random.default_rng(5), (COARSE.ny, COARSE.nx))


def _csv_lines(path):
    return path.read_text().splitlines()


def _set_csv_value(path, row, value):
    lines = _csv_lines(path)
    x, y, _ = lines[row + 1].split(",")
    lines[row + 1] = f"{x},{y},{value}"
    path.write_text("\n".join(lines) + "\n")


def _pgm_flip(path):
    raw = bytearray(path.read_bytes())
    raw[-1] ^= 1
    path.write_bytes(bytes(raw))


def _move_peak(path):
    doc = json.loads(path.read_text())
    doc["peaks"][0]["x"] += COARSE.step
    path.write_text(json.dumps(doc))


def _transpose_map(path):
    lines = _csv_lines(path)
    rows = [r.split(",") for r in lines[1:]]
    vals = np.array([r[2] for r in rows]).reshape(COARSE.ny, COARSE.nx).T.ravel()
    path.write_text("\n".join(
        [lines[0]] + [f"{r[0]},{r[1]},{v}" for r, v in zip(rows, vals)]) + "\n")


CORRUPTIONS = {
    "map value above 1": lambda d: _set_csv_value(d / "map.csv", 7, "1.5"),
    "map value NaN": lambda d: _set_csv_value(d / "analytic_map.csv", 3, "nan"),
    "map transposed": lambda d: _transpose_map(d / "map.csv"),
    "map row dropped": lambda d: (d / "map.csv").write_text(
        "\n".join(_csv_lines(d / "map.csv")[:-1]) + "\n"),
    "pgm byte flipped": lambda d: _pgm_flip(d / "analytic_map.pgm"),
    "peak moved one cell": lambda d: _move_peak(d / "peaks.json"),
    "report residual edited": lambda d: (d / "report.json").write_text(
        (d / "report.json").read_text().replace('"residual": ', '"residual": 1')),
}


def test_demo_check_accepts_real_outputs(demo_dir):
    checks.check_demo_outputs(demo_dir, "ex1", COARSE, _nodes())


@pytest.mark.parametrize("corruption", sorted(CORRUPTIONS))
def test_demo_check_rejects_corrupted_outputs(corruption, demo_dir, tmp_path):
    broken = tmp_path / "ex1"
    shutil.copytree(demo_dir, broken)
    CORRUPTIONS[corruption](broken)
    with pytest.raises(checks.CheckFailed):
        checks.check_demo_outputs(broken, "ex1", COARSE, _nodes())


def test_digest_sees_any_changed_file(demo_dir, tmp_path):
    copy = tmp_path / "ex1"
    shutil.copytree(demo_dir, copy)
    assert checks.digest(copy) == checks.digest(demo_dir)
    (copy / "predicted_peaks.json").write_text("{}")
    assert checks.digest(copy) != checks.digest(demo_dir)


def _corrupt_map(case, fn):
    values = fn(np.array(case.map.values))
    case.map = imaging.IndicatorMap(grid=case.map.grid, values=values)


@pytest.mark.parametrize("corrupt", [
    lambda v: v * 0.99,
    lambda v: np.roll(v, 1, axis=1),
    lambda v: np.where(v < 0.9, v + 1e-9, v),
])
def test_in_process_checks_reject_corrupted_maps(corrupt, tmp_path):
    sweep = workloads.ImageSweep(0, tmp_path)
    case = workloads.ImageSweep.case("ex1", 64)
    sweep.op(case)
    _corrupt_map(case, corrupt)
    with pytest.raises(checks.CheckFailed):
        sweep.check(case)


def test_in_process_checks_accept_and_reject_scene_maps(tmp_path):
    predict = workloads.PredictScenes(0, tmp_path)
    case = next(predict.cases())
    predict.op(case)
    predict.check(case)
    predict.op(case)
    _corrupt_map(case, lambda v: np.where(v == 1.0, v, v * (1 - 1e-15)))
    with pytest.raises(checks.CheckFailed, match="first op"):
        predict.check(case)


def test_image_sweep_rejects_a_bad_peak_list(tmp_path):
    sweep = workloads.ImageSweep(0, tmp_path)
    case = workloads.ImageSweep.case("ex1", 64)
    sweep.op(case)
    case.peaks = case.peaks[1:]
    with pytest.raises(checks.CheckFailed):
        sweep.check(case)
