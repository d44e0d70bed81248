"""Acceptance suite: every shipped criterion at its stated tolerance.

Run with ``pytest tests/test_acceptance.py -v -s`` to see one PASS line
per criterion. Criteria 1-3 and 7-9 drive the CLI end to end on the
default 401x401 grid with 256 observation directions; 4-6 exercise the
library directly.
"""

import json
import math
import time

import numpy as np
import pytest

from dsm2d.cli import main
from dsm2d.forward import FarFieldData, NoiseSpec, add_noise, write_far_field
from dsm2d.imaging import compute_map, extract_peaks
from dsm2d.model import make_observation_set
from dsm2d.specfun import bessel_j1, bessel_j_oracle

EX1_PEAKS = ((0.6171, 0.4171), (0.7829, 0.5829))


def _announce(number: int, text: str) -> None:
    print(f"\nACCEPTANCE {number}: PASS - {text}")


def _top_two_positions(peaks_entries):
    return [np.array([p["x"], p["y"]]) for p in peaks_entries[:2]]


def _match_shift(positions, references):
    """Greatest distance after nearest-reference assignment."""
    worst = 0.0
    for ref in references:
        ref = np.asarray(ref)
        worst = max(worst, min(float(np.hypot(*(pos - ref)))
                               for pos in positions))
    return worst


@pytest.fixture(scope="module")
def ex_runs(tmp_path_factory):
    """The three demo pipelines on default settings, with wall times."""
    runs = {}
    for which in ("ex1", "ex2", "ex3"):
        out = tmp_path_factory.mktemp(f"accept-{which}")
        start = time.perf_counter()
        code = main(["example", which, "--out", str(out), "--threads", "1"])
        elapsed = time.perf_counter() - start
        assert code == 0
        report = json.loads((out / "report.json").read_text())
        runs[which] = {"dir": out, "elapsed": elapsed, "report": report}
    return runs


def test_criterion_1_ex1_peak_reproduction(ex_runs):
    run = ex_runs["ex1"]
    top = _top_two_positions(run["report"]["peaks"])
    assert len(top) == 2
    shift = _match_shift(top, EX1_PEAKS)
    assert shift <= 0.01
    assert run["elapsed"] < 30.0
    _announce(1, f"ex1 peaks within {shift:.4f} of published coordinates "
                 f"(limit 0.01), runtime {run['elapsed']:.1f}s")


def test_criterion_2_zero_at_center(ex1_data_map, ex1_analytic_map,
                                    default_grid):
    ix = int(round((0.7 - default_grid.x_min) / default_grid.step))
    iy = int(round((0.5 - default_grid.y_min) / default_grid.step))
    data_value = ex1_data_map.values[iy, ix]
    analytic_value = ex1_analytic_map.values[iy, ix]
    assert data_value <= 0.05
    assert analytic_value <= 1e-12
    _announce(2, f"map at true center: data {data_value:.2e} (<= 0.05), "
                 f"closed form {analytic_value:.2e} (<= 1e-12)")


def test_criterion_3_closed_form_equivalence(ex_runs):
    residuals = {}
    for which in ("ex1", "ex2", "ex3"):
        residual = ex_runs[which]["report"]["residual"]
        assert residual <= 1e-3
        residuals[which] = residual
    _announce(3, "sup |data map - closed form| = " + ", ".join(
        f"{k}: {v:.2e}" for k, v in residuals.items()) + " (limit 1e-3)")


def test_criterion_4_direction_sum_identity():
    rng = np.random.default_rng(2718)
    worst = 0.0
    for _ in range(200):
        k = rng.uniform(0.5, 25.0)
        radius = rng.uniform(0.02, 40.0 / k)
        angle = rng.uniform(0.0, 2.0 * math.pi)
        x = radius * np.array([math.cos(angle), math.sin(angle)])
        phi = rng.uniform(0.0, 2.0 * math.pi)
        v = np.array([math.cos(phi), math.sin(phi)])
        n = int(math.ceil(2.0 * k * radius)) + 16
        theta = make_observation_set(n).directions
        total = np.sum((theta @ v) * np.exp(-1j * k * (theta @ x)))
        lhs = abs(total) / n
        rhs = abs(np.dot(v, x) / radius * bessel_j1(k * radius))
        worst = max(worst, abs(lhs - rhs))
    assert worst < 1e-8
    _announce(4, f"direction-sum identity worst deviation {worst:.2e} "
                 "over 200 draws (limit 1e-8)")


def test_criterion_5_bessel_accuracy():
    rng = np.random.default_rng(1618)
    xs = rng.uniform(-200.0, 200.0, size=1000)
    worst = max(abs(bessel_j1(float(x)) - bessel_j_oracle(1, float(x), 1 << 16))
                for x in xs)
    assert worst < 1e-9

    grid = np.arange(0.0, 4.0 + 1e-12, 1e-5)
    argmax = float(grid[np.argmax(bessel_j1(grid))])
    assert abs(argmax - 1.8412) < 5e-4
    _announce(5, f"J1 vs quadrature oracle worst {worst:.2e} (limit 1e-9); "
                 f"argmax {argmax:.6f} vs 1.8412")


def test_criterion_6_contrast_ordering(ex3_analytic_map, ex3_scene, demo_wave,
                                       default_grid):
    # Per-inclusion peak strength read at the closed-form peak positions:
    # these carry the contrast factors 1/3 > 1/7 > 1/11 up to bounded
    # cross-inclusion interference. (Free-standing interference ridges can
    # locally outgrow the weakest inclusions' own peaks, so arbitrary
    # extracted maxima are not a faithful per-inclusion statistic.)
    from dsm2d.indicator import predicted_peaks

    def node_value(pos):
        ix = int(round((pos[0] - default_grid.x_min) / default_grid.step))
        iy = int(round((pos[1] - default_grid.y_min) / default_grid.step))
        return ex3_analytic_map.values[iy, ix]

    strengths = [max(node_value(pos) for pos in pred.positions)
                 for pred in predicted_peaks(ex3_scene, demo_wave)]
    assert strengths[2] > strengths[1] > strengths[0]

    # The low-permeability inclusion must dominate what peak extraction
    # actually finds: the global maximum sits on its ring and its group
    # towers over both others.
    peaks = extract_peaks(ex3_analytic_map, min_value=0.1, min_separation=0.05)
    centers = [inc.center for inc in ex3_scene.inclusions]
    group_max = [0.0, 0.0, 0.0]
    for peak in peaks:
        nearest = int(np.argmin([np.hypot(*(peak.position - c))
                                 for c in centers]))
        group_max[nearest] = max(group_max[nearest], peak.value)
    assert group_max[2] == 1.0
    assert group_max[2] > group_max[0]
    assert group_max[2] > group_max[1]
    _announce(6, "strengths at predicted peaks ordered with contrast "
                 f"1/3 > 1/7 > 1/11: {strengths[2]:.3f} > {strengths[1]:.3f} "
                 f"> {strengths[0]:.3f}; extraction dominated by the "
                 "low-permeability inclusion")


def test_criterion_7_scale_invariance(ex_runs, tmp_path_factory):
    base_dir = ex_runs["ex1"]["dir"]
    scaled_dir = tmp_path_factory.mktemp("accept-scaled")

    from dsm2d.forward import read_far_field
    data, meta = read_far_field(base_dir / "farfield.csv")
    scaled = FarFieldData((3.0 - 4.0j) * data.samples)
    from dsm2d.model import WaveContext
    wave = WaveContext.from_degrees(meta["wavelength"], 45.0)
    write_far_field(scaled, scaled_dir / "farfield.csv", wave=wave)

    img_dir = tmp_path_factory.mktemp("accept-scaled-img")
    assert main(["image", "--data", str(scaled_dir / "farfield.csv"),
                 "--out", str(img_dir), "--threads", "1"]) == 0

    base_pgm = (base_dir / "map.pgm").read_bytes()
    scaled_pgm = (img_dir / "map.pgm").read_bytes()
    assert scaled_pgm == base_pgm, "scaling by 3-4i changed PGM bytes"

    # Full-precision CSV values agree to FP noise; scaling the stored
    # samples already rounds them, so bit-level CSV identity is not a
    # property any algorithm can provide (see the map export docs).
    base_vals = np.loadtxt(base_dir / "map.csv", delimiter=",", skiprows=1, ndmin=2)
    scaled_vals = np.loadtxt(img_dir / "map.csv", delimiter=",", skiprows=1, ndmin=2)
    worst = float(np.max(np.abs(base_vals[:, 2] - scaled_vals[:, 2])))
    assert worst <= 1e-12
    # The dominant peaks straddle near-exact node ties, so ulp noise may
    # hop an extracted node to its tied diagonal neighbor; anything beyond
    # one cell would be a real invariance failure.
    base_top = _top_two_positions(
        json.loads((base_dir / "peaks.json").read_text())["peaks"])
    scaled_top = _top_two_positions(
        json.loads((img_dir / "peaks.json").read_text())["peaks"])
    hop = _match_shift(scaled_top, base_top)
    assert hop <= 0.005 * math.sqrt(2.0) + 1e-12
    _announce(7, "scaling samples by 3-4i: PGM byte-identical, CSV values "
                 f"within {worst:.1e}, peaks within one node ({hop:.4f})")


def test_criterion_8_noise_robustness(ex1_data, ex1_data_map, demo_wave,
                                      default_grid):
    clean_peaks = extract_peaks(ex1_data_map, min_value=0.5,
                                min_separation=0.05)
    clean_top = [p.position for p in clean_peaks[:2]]
    hits = 0
    worst_shift = 0.0
    for seed in range(20):
        noisy = add_noise(ex1_data, NoiseSpec(snr_db=20.0, seed=seed))
        noisy_map = compute_map(noisy, default_grid,
                                wavenumber=demo_wave.wavenumber)
        noisy_peaks = extract_peaks(noisy_map, min_value=0.5,
                                    min_separation=0.05)
        positions = [p.position for p in noisy_peaks[:2]]
        shift = _match_shift(positions, clean_top) if positions else math.inf
        worst_shift = max(worst_shift, shift)
        if shift <= 0.02:
            hits += 1
    assert hits >= 18
    _announce(8, f"20 dB noise: peak shift <= 0.02 in {hits}/20 runs "
                 f"(worst {worst_shift:.4f})")


def test_criterion_9_determinism(tmp_path_factory, ex_runs):
    names = ["scene.json", "farfield.csv", "farfield.json", "map.csv",
             "map.pgm", "peaks.json", "analytic_map.csv", "analytic_map.pgm",
             "predicted_peaks.json", "report.json"]

    # identical rerun, multi-threaded, default grid
    rerun = tmp_path_factory.mktemp("accept-rerun")
    assert main(["example", "ex1", "--out", str(rerun), "--threads", "4"]) == 0
    base_dir = ex_runs["ex1"]["dir"]
    for name in names:
        assert (rerun / name).read_bytes() == (base_dir / name).read_bytes(), \
            f"{name} differs between threads=1 and threads=4 runs"

    # seeded-noise path, coarse grid for speed
    noisy = []
    for tag in ("n1", "n2"):
        out = tmp_path_factory.mktemp(f"accept-noise-{tag}")
        assert main(["example", "ex1", "--out", str(out),
                     "--snr-db", "20", "--seed", "7",
                     "--grid=-1,1,-1,1,0.02"]) == 0
        noisy.append(out)
    for name in names:
        assert (noisy[0] / name).read_bytes() == (noisy[1] / name).read_bytes(), \
            f"{name} differs between identically seeded runs"
    _announce(9, "byte-identical outputs across reruns, thread counts, and "
                 "seeded-noise repeats")
