"""Correlation indicator, closed form, and peak predictions."""

import math

import numpy as np
import pytest

from dsm2d.forward import FarFieldData, contrast_factor, synthesize_far_field
from dsm2d.indicator import (PeakPrediction, closed_form_magnitude,
                             dsm_indicator_raw, predicted_peaks)
from dsm2d.model import (Inhomogeneity, Scene, WaveContext,
                         make_observation_set)
from dsm2d.specfun import bessel_j1

# 0.01 * (1/6) * J1(1.8412), with J1(1.8412) frozen from the quadrature
# oracle at 2^16 panels.
CLOSED_FORM_AT_OFFSET = 0.0009697753737127387


def closed_form_residual(data, scene, wave, points) -> float:
    """Sup difference of the per-point data and closed-form indicators,
    each normalized by its own maximum over ``points``."""
    pts = list(points)
    if not pts:
        raise ValueError("grid must be nonempty")
    a = np.array([dsm_indicator_raw(data, wave.wavenumber, p) for p in pts])
    b = np.array([closed_form_magnitude(scene, wave, p) for p in pts])
    if a.max() == 0.0 or b.max() == 0.0:
        raise ValueError("degenerate all-zero map")
    return float(np.max(np.abs(a / a.max() - b / b.max())))


def test_indicator_equality_case(obs256):
    point = np.array([0.25, -0.4])
    k = 5.0 * math.pi
    data = FarFieldData((2.0 - 3.0j)
                        * np.exp(-1j * k * (obs256.directions @ point)))
    assert dsm_indicator_raw(data, k, point) == pytest.approx(1.0, rel=1e-12)


def test_indicator_near_zero_at_true_center(ex1_data, demo_wave):
    value = dsm_indicator_raw(ex1_data, demo_wave.wavenumber,
                              np.array([0.7, 0.5]))
    assert value <= 0.05


def test_indicator_scale_invariant(ex1_data, demo_wave):
    point = np.array([0.61, 0.42])
    scaled = FarFieldData((3.0 - 4.0j) * ex1_data.samples)
    a = dsm_indicator_raw(ex1_data, demo_wave.wavenumber, point)
    b = dsm_indicator_raw(scaled, demo_wave.wavenumber, point)
    assert a == pytest.approx(b, rel=1e-12)


def test_indicator_in_unit_interval():
    rng = np.random.default_rng(99)
    k = 5.0 * math.pi
    for _ in range(20):
        samples = rng.standard_normal(256) + 1j * rng.standard_normal(256)
        data = FarFieldData(samples)
        value = dsm_indicator_raw(data, k, rng.uniform(-1.0, 1.0, size=2))
        assert 0.0 <= value <= 1.0 + 1e-12


def test_indicator_rejects_zero_data():
    data = FarFieldData(np.zeros(256, dtype=complex))
    with pytest.raises(ValueError):
        dsm_indicator_raw(data, 5.0 * math.pi, np.array([0.0, 0.0]))


# ---------------------------------------------------------------------------
# Closed form
# ---------------------------------------------------------------------------

def test_closed_form_zero_at_center(ex1_scene, demo_wave):
    assert closed_form_magnitude(ex1_scene, demo_wave, np.array([0.7, 0.5])) == 0.0


def test_closed_form_value_at_peak_offset(ex1_scene, demo_wave):
    k = demo_wave.wavenumber
    point = np.array([0.7, 0.5]) - (1.8412 / k) * demo_wave.incident_direction
    assert closed_form_magnitude(ex1_scene, demo_wave, point) == pytest.approx(
        CLOSED_FORM_AT_OFFSET, rel=1e-10)


def test_closed_form_vanishes_perpendicular(ex1_scene, demo_wave):
    d = demo_wave.incident_direction
    perp = np.array([-d[1], d[0]])
    point = np.array([0.7, 0.5]) + 0.2 * perp
    assert closed_form_magnitude(ex1_scene, demo_wave, point) == pytest.approx(0.0, abs=1e-16)


def test_contrast_factor_values():
    assert contrast_factor(10.0, 1.0) == pytest.approx(1.0 / 11.0, rel=1e-15)
    assert contrast_factor(6.0, 1.0) == pytest.approx(1.0 / 7.0, rel=1e-15)
    assert contrast_factor(2.0, 1.0) == pytest.approx(1.0 / 3.0, rel=1e-15)


def test_predicted_peaks_demo_coordinates(ex1_scene, demo_wave):
    (pred,) = predicted_peaks(ex1_scene, demo_wave)
    assert pred.offset_radius == pytest.approx(0.11721443248831907, rel=1e-14)
    lo, hi = pred.positions
    assert np.allclose(lo, [0.6171168799345768, 0.4171168799345768], atol=1e-12)
    assert np.allclose(hi, [0.7828831200654232, 0.5828831200654232], atol=1e-12)
    # published four-decimal coordinates
    assert np.allclose(lo, [0.6171, 0.4171], atol=5e-5)
    assert np.allclose(hi, [0.7829, 0.5829], atol=5e-5)


def test_predicted_peaks_unit_offset_case():
    scene = Scene(background_permeability=1.0,
                  inclusions=(Inhomogeneity(np.array([0.0, 0.0]), 0.1, 5.0),))
    wave = WaveContext(2.0 * math.pi / 1.8412, np.array([1.0, 0.0]))
    (pred,) = predicted_peaks(scene, wave)
    assert np.allclose(pred.positions[0], [-1.0, 0.0], atol=1e-12)
    assert np.allclose(pred.positions[1], [1.0, 0.0], atol=1e-12)


def test_predicted_peaks_satisfy_invariants(ex3_scene, demo_wave):
    k = demo_wave.wavenumber
    d = demo_wave.incident_direction
    preds = predicted_peaks(ex3_scene, demo_wave)
    assert [p.inclusion_index for p in preds] == [0, 1, 2]
    for pred, inc in zip(preds, ex3_scene.inclusions):
        for pos, sign in zip(pred.positions, (-1.0, 1.0)):
            offset = pos - inc.center
            assert k * np.hypot(*offset) == pytest.approx(1.8412, abs=1e-12)
            assert np.allclose(offset / np.hypot(*offset), sign * d, atol=1e-12)


def test_peak_prediction_is_frozen():
    pred = PeakPrediction(inclusion_index=0,
                          positions=(np.zeros(2), np.ones(2)),
                          offset_radius=1.0)
    with pytest.raises(AttributeError):
        pred.offset_radius = 2.0


def test_isolated_peak_magnitudes_follow_contrast(ex3_scene, demo_wave):
    # Alone in the scene, each inclusion's closed-form peak value is
    # r^2 * (mu_0/(mu_m+mu_0)) * J1(1.8412), so values scale exactly like
    # the contrast factors 1/11 : 1/7 : 1/3.
    values = []
    for inc in ex3_scene.inclusions:
        alone = Scene(background_permeability=1.0, inclusions=(inc,))
        (pred,) = predicted_peaks(alone, demo_wave)
        values.append(closed_form_magnitude(alone, demo_wave, pred.positions[0]))
    assert values[0] == pytest.approx(values[2] * 3.0 / 11.0, rel=1e-12)
    assert values[1] == pytest.approx(values[2] * 3.0 / 7.0, rel=1e-12)
    assert values[2] > values[1] > values[0]


def test_full_scene_peaks_within_tail_interference(ex3_scene, demo_wave):
    # With all three inclusions present, the value at inclusion m's
    # predicted peak deviates from its isolated value by at most the sum
    # of the other inclusions' weighted J1 tails there.
    k = demo_wave.wavenumber
    preds = predicted_peaks(ex3_scene, demo_wave)
    for pred, inc in zip(preds, ex3_scene.inclusions):
        alone = Scene(background_permeability=1.0, inclusions=(inc,))
        for pos in pred.positions:
            full = closed_form_magnitude(ex3_scene, demo_wave, pos)
            isolated = closed_form_magnitude(alone, demo_wave, pos)
            tail_bound = sum(
                other.radius ** 2
                * contrast_factor(other.permeability, 1.0)
                * abs(bessel_j1(k * np.hypot(*(other.center - pos))))
                for other in ex3_scene.inclusions if other is not inc)
            assert abs(full - isolated) <= tail_bound + 1e-15


# ---------------------------------------------------------------------------
# Direction sum and the data/closed-form residual
# ---------------------------------------------------------------------------

def test_direction_sum_identity_sampled():
    # (1/N) sum_n (v . theta_n) exp(-i k theta_n . x) has modulus
    # |(v . x/|x|) J1(k|x|)| once N comfortably exceeds 2k|x|.
    rng = np.random.default_rng(314)
    for _ in range(50):
        k = rng.uniform(0.5, 20.0)
        radius = rng.uniform(0.05, 40.0 / k)
        angle = rng.uniform(0.0, 2.0 * math.pi)
        x = radius * np.array([math.cos(angle), math.sin(angle)])
        phi = rng.uniform(0.0, 2.0 * math.pi)
        v = np.array([math.cos(phi), math.sin(phi)])
        n = int(math.ceil(2.0 * k * radius)) + 16
        obs = make_observation_set(n)
        total = np.sum((obs.directions @ v)
                       * np.exp(-1j * k * (obs.directions @ x)))
        lhs = abs(total) / n
        rhs = abs(np.dot(v, x / radius) * bessel_j1(k * radius))
        assert lhs == pytest.approx(rhs, abs=1e-8)


def test_closed_form_residual_small_on_demo(ex1_scene, demo_wave, ex1_data):
    xs = np.arange(-1.0, 1.0 + 1e-9, 0.05)
    pts = [np.array([x, y]) for x in xs for y in xs]
    residual = closed_form_residual(ex1_data, ex1_scene, demo_wave, pts)
    assert residual <= 1e-3


def test_closed_form_residual_small_at_fine_step(ex1_scene, demo_wave,
                                                 ex1_data):
    # Same comparison at step 0.01 over [-1,1]^2, via the vectorized map
    # sweep (the scalar and sweep paths are cross-checked elsewhere).
    from dsm2d.imaging import SearchGrid, compute_map

    grid = SearchGrid(-1.0, 1.0, -1.0, 1.0, 0.01)
    data_map = compute_map(ex1_data, grid, wavenumber=demo_wave.wavenumber)
    closed_map = compute_map((ex1_scene, demo_wave), grid)
    assert np.max(np.abs(data_map.values - closed_map.values)) <= 1e-3


def test_closed_form_residual_finite_when_undersampled(ex1_scene, demo_wave):
    obs = make_observation_set(8)
    data = synthesize_far_field(ex1_scene, demo_wave, obs)
    xs = np.arange(-1.0, 1.0 + 1e-9, 0.2)
    pts = [np.array([x, y]) for x in xs for y in xs]
    residual = closed_form_residual(data, ex1_scene, demo_wave, pts)
    assert math.isfinite(residual)


def test_closed_form_residual_invariant_under_radius_scaling(
        ex1_scene, demo_wave, obs256):
    doubled = Scene(
        background_permeability=1.0,
        inclusions=tuple(Inhomogeneity(i.center, 2.0 * i.radius, i.permeability)
                         for i in ex1_scene.inclusions))
    xs = np.arange(-1.0, 1.0 + 1e-9, 0.1)
    pts = [np.array([x, y]) for x in xs for y in xs]
    base = closed_form_residual(
        synthesize_far_field(ex1_scene, demo_wave, obs256),
        ex1_scene, demo_wave, pts)
    scaled = closed_form_residual(
        synthesize_far_field(doubled, demo_wave, obs256),
        doubled, demo_wave, pts)
    assert scaled == pytest.approx(base, abs=1e-12)


def test_closed_form_residual_rejects_empty_grid(ex1_scene, demo_wave, ex1_data):
    with pytest.raises(ValueError):
        closed_form_residual(ex1_data, ex1_scene, demo_wave, [])
