"""Scene, wave, and observation-geometry contracts."""

import json
import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from dsm2d.model import (DEFAULT_SEPARATION_THRESHOLD, MAX_DIRECTIONS,
                         Inhomogeneity,
                         ObservationSet, Scene, WaveContext,
                         load_scene_config, make_observation_set,
                         scene_config_document,
                         validate_scene, wavenumber_from_wavelength)


def test_observation_set_n4_exact_axes():
    obs = make_observation_set(4)
    expected = np.array([[0.0, 1.0], [-1.0, 0.0], [0.0, -1.0], [1.0, 0.0]])
    assert np.allclose(obs.directions, expected, atol=1e-12)


def test_observation_set_n1():
    obs = make_observation_set(1)
    assert np.array_equal(obs.directions, [[1.0, 0.0]])


def test_observation_set_last_direction_is_plus_x():
    for n in (3, 4, 17, 256):
        obs = make_observation_set(n)
        assert np.array_equal(obs.directions[-1], [1.0, 0.0])


def test_observation_set_is_exactly_mirrored():
    # Row n - 1 holds direction n; direction N - n mirrors direction n bit
    # for bit, and each value stays within 1.5e-15 of cos/sin(2 pi n/N).
    for count in range(1, 1101):
        d = make_observation_set(count).directions
        n = np.arange(1, count)
        assert d[count - n - 1, 0].tobytes() == d[n - 1, 0].tobytes()
        n = n[2 * n != count]  # direction N/2 is its own mirror
        assert d[count - n - 1, 1].tobytes() == (-d[n - 1, 1]).tobytes()
        assert d[-1].tobytes() == np.array([1.0, 0.0]).tobytes()
        ang = 2.0 * np.pi * (np.arange(1, count + 1) % count) / count
        assert np.abs(d[:, 0] - np.cos(ang)).max() <= 1.5e-15
        assert np.abs(d[:, 1] - np.sin(ang)).max() <= 1.5e-15


def test_observation_set_n360_norms_and_gaps():
    obs = make_observation_set(360)
    norms = np.hypot(obs.directions[:, 0], obs.directions[:, 1])
    assert np.all(np.abs(norms - 1.0) < 1e-12)
    angles = np.unwrap(np.arctan2(obs.directions[:, 1], obs.directions[:, 0]))
    gaps = np.diff(angles)
    assert np.allclose(gaps, 2.0 * np.pi / 360.0, atol=1e-12)


def test_observation_set_rejects_zero():
    with pytest.raises(ValueError):
        make_observation_set(0)


def test_observation_set_rejects_counts_above_the_cap():
    # petabytes each, so a missing check fails at once with MemoryError
    for count in (10 ** 15, 2 ** 62):
        with pytest.raises(ValueError, match=f"{MAX_DIRECTIONS:,}"):
            make_observation_set(count)


@pytest.mark.parametrize("n", [2, 3, 5, 8, 17, 64, 256, 999])
def test_direction_sum_vanishes(n):
    obs = make_observation_set(n)
    assert np.all(np.abs(obs.directions.sum(axis=0)) < 1e-10)


def test_index_wrap_invariance():
    n = 12
    obs = make_observation_set(n)
    shifted = 2.0 * np.pi * (np.arange(1, n + 1) + n) / n
    wrapped = np.column_stack([np.cos(shifted), np.sin(shifted)])
    assert np.allclose(wrapped, obs.directions, atol=1e-12)


def test_wavenumber_examples():
    assert wavenumber_from_wavelength(0.4) == pytest.approx(15.7079632679, abs=1e-9)
    assert wavenumber_from_wavelength(0.4) == pytest.approx(5.0 * math.pi, rel=1e-15)
    assert wavenumber_from_wavelength(2.0 * math.pi) == pytest.approx(1.0, rel=1e-15)
    assert wavenumber_from_wavelength(1.0) == pytest.approx(6.2831853072, abs=1e-9)


def test_wavenumber_rejects_nonpositive():
    # 1e-320 and 5e-324 are positive, but 2*pi/lambda overflows to inf
    for bad in (0.0, -1.0, math.inf, math.nan, 1e-320, 5e-324):
        with pytest.raises(ValueError):
            wavenumber_from_wavelength(bad)


@pytest.mark.parametrize("lam", [0.4, 1.0, 2.0 * math.pi, 17.25, 3e-4])
def test_wavelength_wavenumber_round_trip(lam):
    assert 2.0 * math.pi / wavenumber_from_wavelength(lam) == \
        pytest.approx(lam, rel=1e-14)


def test_wave_context_wavenumber_definition():
    wave = WaveContext.from_degrees(0.4, 45.0)
    assert wave.wavenumber == 2.0 * math.pi / 0.4


def test_wave_context_rejects_non_unit_direction():
    with pytest.raises(ValueError):
        WaveContext(wavelength=1.0, incident_direction=np.array([1.0, 1.0]))


@pytest.mark.parametrize("direction", [[np.nan, 0.0], [np.nan, np.nan],
                                       [np.inf, 0.0]])
def test_wave_context_rejects_non_finite_direction(direction):
    # a unit-norm test alone is False for NaN, so it cannot reject NaN
    with pytest.raises(ValueError, match="finite"):
        WaveContext(wavelength=1.0, incident_direction=np.array(direction))


@pytest.mark.parametrize("angle", [math.inf, -math.inf, math.nan])
def test_wave_context_rejects_a_non_finite_angle(tmp_path, ex1_scene, demo_wave,
                                                 obs256, angle):
    with pytest.raises(ValueError, match="incident angle must be finite"):
        WaveContext.from_degrees(0.4, angle)
    # a scene file can hold the angle as JSON Infinity or NaN
    doc = scene_config_document(ex1_scene, demo_wave, obs256)
    path = tmp_path / "scene.json"
    path.write_text(json.dumps({**doc, "incident_direction_degrees": angle}))
    with pytest.raises(ValueError, match="scene.json: incident angle must be finite"):
        load_scene_config(path)


def test_inhomogeneity_validation():
    with pytest.raises(ValueError):
        Inhomogeneity(center=np.array([0.0, 0.0]), radius=0.0, permeability=5.0)
    with pytest.raises(ValueError):
        Inhomogeneity(center=np.array([0.0, 0.0]), radius=0.1, permeability=-2.0)
    with pytest.raises(ValueError):
        Inhomogeneity(center=np.array([np.nan, 0.0]), radius=0.1, permeability=2.0)
    for radius in (1e200, 1e-200):  # r^2 overflows to inf or underflows to 0
        with pytest.raises(ValueError, match="square"):
            Inhomogeneity(center=np.array([0.0, 0.0]), radius=radius, permeability=2.0)


def test_inhomogeneity_center_is_read_only():
    inc = Inhomogeneity(center=np.array([0.3, -0.2]), radius=0.1, permeability=5.0)
    with pytest.raises(ValueError):
        inc.center[0] = 1.0


def test_scene_rejects_duplicate_centers():
    inc = Inhomogeneity(center=np.array([0.1, 0.2]), radius=0.05, permeability=3.0)
    dup = Inhomogeneity(center=np.array([0.1, 0.2]), radius=0.07, permeability=4.0)
    with pytest.raises(ValueError):
        Scene(background_permeability=1.0, inclusions=(inc, dup))


def test_scene_rejects_an_inclusion_weight_that_underflows():
    # r^2 = 1e-6 and contrast 5e-324 / 0.1 are nonzero; their product is 0
    inc = Inhomogeneity(center=np.array([0.1, 0.2]), radius=1e-3, permeability=0.1)
    with pytest.raises(ValueError, match="underflows"):
        Scene(background_permeability=5e-324, inclusions=(inc,))
    Scene(background_permeability=1e-300, inclusions=(inc,))


@pytest.mark.parametrize("mu0", [0.0, -1.0, math.nan])
def test_scene_rejects_a_background_permeability_not_above_zero(mu0):
    inc = Inhomogeneity(center=np.array([0.1, 0.2]), radius=0.05, permeability=3.0)
    with pytest.raises(ValueError, match="background permeability must be positive"):
        Scene(background_permeability=mu0, inclusions=(inc,))


def test_scene_rejects_empty():
    with pytest.raises(ValueError):
        Scene(background_permeability=1.0, inclusions=())


def test_validate_demo_scene_is_clean(ex2_scene, demo_wave):
    # Brute-force pairwise check of the three-inclusion demo: the nearest
    # pair is |(-0.7,0)-(0.2,-0.5)| = sqrt(1.06), k-scaled well above the
    # default threshold.
    centers = [inc.center for inc in ex2_scene.inclusions]
    dists = [float(np.hypot(*(a - b)))
             for i, a in enumerate(centers) for b in centers[i + 1:]]
    assert min(dists) == pytest.approx(math.sqrt(1.06), rel=1e-12)
    assert demo_wave.wavenumber * min(dists) > DEFAULT_SEPARATION_THRESHOLD
    report = validate_scene(ex2_scene, demo_wave)
    assert report.ok


def test_validate_single_inclusion_vacuous(ex1_scene, demo_wave):
    assert validate_scene(ex1_scene, demo_wave).ok


def test_validate_warns_on_close_pair():
    incs = (Inhomogeneity(np.array([0.0, 0.0]), 0.1, 5.0),
            Inhomogeneity(np.array([0.05, 0.0]), 0.1, 5.0))
    scene = Scene(background_permeability=1.0, inclusions=incs)
    wave = WaveContext.from_degrees(0.4, 0.0)
    report = validate_scene(scene, wave)
    assert not report.ok
    assert len(report.entries) == 1
    assert "k*distance" in report.entries[0].message


def test_validate_warns_on_large_radius():
    incs = (Inhomogeneity(np.array([0.0, 0.0]), 0.3, 5.0),)
    scene = Scene(background_permeability=1.0, inclusions=incs)
    wave = WaveContext.from_degrees(0.4, 0.0)  # radius 0.3 > lambda/2 = 0.2
    report = validate_scene(scene, wave)
    assert len(report.entries) == 1
    assert "radius" in report.entries[0].message


def test_scene_json_round_trip(tmp_path, ex3_scene, demo_wave, obs256):
    doc = scene_config_document(ex3_scene, demo_wave, obs256)
    path = tmp_path / "scene.json"
    path.write_text(json.dumps(doc))
    cfg = load_scene_config(path)
    assert cfg["wave"].wavelength == demo_wave.wavelength
    assert cfg["observations"].count == 256
    for orig, loaded in zip(ex3_scene.inclusions, cfg["scene"].inclusions):
        assert np.array_equal(orig.center, loaded.center)
        assert orig.radius == loaded.radius
        assert orig.permeability == loaded.permeability


_COORDINATES = st.floats(-1e3, 1e3, allow_nan=False)


@settings(max_examples=300, deadline=None)
@given(angle=st.one_of(st.integers(-7200, 7200).map(lambda i: i / 10.0),
                       st.floats(-1e300, 1e300, allow_nan=False),
                       st.sampled_from([270.0, -90.0, 405.0, -0.0, 5e-324])),
       wavelength=st.floats(1e-3, 1e3), count=st.integers(1, 4096),
       background=st.floats(0.1, 10.0),
       disks=st.lists(st.tuples(_COORDINATES, _COORDINATES, st.floats(1e-3, 1.0),
                                st.floats(0.01, 100.0)),
                      min_size=1, max_size=4, unique_by=lambda t: (t[0], t[1])))
def test_scene_document_round_trips_bitwise(angle, wavelength, count, background,
                                            disks):
    # Through JSON text and back: the same direction bits (the angle is
    # written as given, not recomputed from d), centers, radii,
    # permeabilities, wavelength and N.
    scene = Scene(background, tuple(Inhomogeneity(np.array([x, y]), r, mu)
                                    for x, y, r, mu in disks))
    wave = WaveContext.from_degrees(wavelength, angle)
    text = json.dumps(scene_config_document(scene, wave, ObservationSet(count)),
                      allow_nan=False)
    cfg = load_scene_config("scene.json", json.loads(text))
    loaded, back = cfg["scene"], cfg["wave"]
    assert back.incident_direction.tobytes() == wave.incident_direction.tobytes()
    assert back.wavelength == wavelength and cfg["observations"].count == count
    assert loaded.background_permeability == background
    assert [(i.center.tobytes(), i.radius, i.permeability) for i in loaded.inclusions] \
        == [(i.center.tobytes(), i.radius, i.permeability) for i in scene.inclusions]


def test_a_wave_built_from_a_direction_writes_its_polar_angle(ex1_scene, obs256):
    wave = WaveContext(0.4, np.array([0.0, -1.0]))
    assert wave.incident_angle_deg is None
    doc = scene_config_document(ex1_scene, wave, obs256)
    assert doc["incident_direction_degrees"] == -90.0


@pytest.mark.parametrize("count", [2.5, 256.0, "256", 0, None, True])
def test_scene_rejects_non_integral_direction_count(tmp_path, ex1_scene,
                                                    demo_wave, obs256, count):
    doc = scene_config_document(ex1_scene, demo_wave, obs256)
    doc["num_observation_directions"] = count
    with pytest.raises(ValueError, match="direction count"):
        load_scene_config(tmp_path / "sidecar.json", doc)
    path = tmp_path / "scene.json"
    path.write_text(json.dumps(doc))
    with pytest.raises(ValueError, match="scene.json: direction count"):
        load_scene_config(path)


def test_scene_json_missing_key(tmp_path):
    path = tmp_path / "bad.json"
    path.write_text(json.dumps({"inclusions": []}))
    with pytest.raises(ValueError):
        load_scene_config(path)


def test_observation_set_shape_contract():
    # The directions are derived from the count alone and cannot be changed.
    with pytest.raises(TypeError):
        ObservationSet(count=3, directions=np.zeros((3, 2)))
    for count in (True, 2.5, 0, MAX_DIRECTIONS + 1):
        with pytest.raises(ValueError, match="direction count must be an integer "
                                             f"in \\[1, {MAX_DIRECTIONS:,}\\]"):
            ObservationSet(count)
    obs = ObservationSet(np.int64(7))
    assert type(obs.count) is int
    assert not obs.directions.flags.writeable
    with pytest.raises(ValueError):
        obs.directions[0, 0] = 0.0


def test_validate_takes_an_overflowing_distance_as_well_separated():
    incs = (Inhomogeneity(np.array([1.7e308, 0.0]), 0.1, 5.0),
            Inhomogeneity(np.array([-1.7e308, 0.0]), 0.1, 5.0))
    scene = Scene(background_permeability=1.0, inclusions=incs)
    assert validate_scene(scene, WaveContext.from_degrees(0.4, 0.0)).ok
