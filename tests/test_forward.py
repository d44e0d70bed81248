"""Far-field synthesis, noise calibration, and serialization."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from dsm2d.cli import example_scene
from dsm2d.forward import (SNR_DB_FLOOR, FarFieldData, NoiseSpec,
                           achieved_snr_db, add_noise, contrast_factor,
                           read_far_field, synthesize_far_field,
                           write_far_field)
from dsm2d.model import (MAX_DIRECTIONS, Inhomogeneity, Scene, WaveContext,
                         make_observation_set)


def far_field_asymptotic(scene: Scene, wave: WaveContext, theta: np.ndarray) -> complex:
    """Pointwise oracle: the far-field amplitude at one direction ``theta``.

    psi(d, theta) = -(k^2 (1+i) / (4 sqrt(k pi)))
                    * sum_m r_m^2 * pi * factor_m * (d.theta)
                    * exp(i k d.x_m) * exp(-i k theta.x_m)

    with factor_m = 2 * contrast_factor(mu_m, mu_0) and pi the unit-disk area.
    """
    theta = np.asarray(theta, dtype=float)
    k = wave.wavenumber
    d = wave.incident_direction
    prefactor = -(k * k) * (1.0 + 1.0j) / (4.0 * math.sqrt(k * math.pi))
    mu0 = scene.background_permeability
    total = 0.0 + 0.0j
    for inc in scene.inclusions:
        factor = 2.0 * contrast_factor(inc.permeability, mu0)
        angular = factor * float(np.dot(d, theta))
        phase = np.exp(1j * k * float(np.dot(d, inc.center))
                       - 1j * k * float(np.dot(theta, inc.center)))
        total += inc.radius ** 2 * math.pi * angular * phase
    return complex(prefactor * total)


def _single_scene(center, radius=0.1, mu=5.0):
    return Scene(background_permeability=1.0,
                 inclusions=(Inhomogeneity(np.array(center, dtype=float),
                                           radius, mu),))


# The polarizability scalar 2 mu0 / (mu + mu0) is 2 * contrast_factor.

def test_polarizability_examples():
    assert 2.0 * contrast_factor(5.0, 1.0) == pytest.approx(1.0 / 3.0, rel=1e-15)
    assert 2.0 * contrast_factor(7.0, 7.0) == 1.0
    assert 2.0 * contrast_factor(1e12, 1.0) == pytest.approx(0.0, abs=1e-11)


def test_polarizability_monotone_decreasing():
    values = [2.0 * contrast_factor(mu, 1.0) for mu in (1.0, 2.0, 5.0, 50.0)]
    assert all(a > b for a, b in zip(values, values[1:]))


def test_polarizability_rejects_nonpositive():
    with pytest.raises(ValueError):
        contrast_factor(0.0, 1.0)
    with pytest.raises(ValueError):
        contrast_factor(5.0, -1.0)


_PERMEABILITY = st.floats(1e-3, 1e3)


@settings(max_examples=500, deadline=None)
@given(mu=_PERMEABILITY, mu0=_PERMEABILITY)
def test_twice_contrast_factor_is_the_polarizability_bitwise(mu, mu0):
    # Oracle: the polarizability scalar as far_field_asymptotic writes it.
    # Doubling is exact, so both roundings happen in the quotient.
    assert 2.0 * contrast_factor(mu, mu0) == 2.0 * mu0 / (mu + mu0)


def test_far_field_vanishes_orthogonal():
    scene = _single_scene([0.3, -0.4])
    wave = WaveContext(0.4, np.array([1.0, 0.0]))
    assert far_field_asymptotic(scene, wave, np.array([0.0, 1.0])) == 0.0


def test_far_field_forward_sample_modulus_and_phase():
    # Independent arithmetic from the expansion's constants:
    # k^2 sqrt(2) / (4 sqrt(k pi)) * pi r^2 * (1/3) at theta = d.
    scene = _single_scene([0.0, 0.0])
    wave = WaveContext(0.4, np.array([1.0, 0.0]))
    k = wave.wavenumber
    expected_mod = (k * k * math.sqrt(2.0) / (4.0 * math.sqrt(k * math.pi))
                    * math.pi * 0.1 ** 2 / 3.0)
    sample = far_field_asymptotic(scene, wave, np.array([1.0, 0.0]))
    assert abs(sample) == pytest.approx(expected_mod, rel=1e-12)
    assert abs(sample) == pytest.approx(0.1300, abs=5e-5)
    assert np.angle(sample) == pytest.approx(-3.0 * math.pi / 4.0, abs=1e-12)


def test_far_field_translation_phase():
    wave = WaveContext(0.4, np.array([1.0, 0.0]))
    theta = np.array([0.0, -1.0])
    base = far_field_asymptotic(_single_scene([0.0, 0.0]), wave, theta)
    shift = np.array([0.13, -0.27])
    moved = far_field_asymptotic(_single_scene(shift), wave, theta)
    k = wave.wavenumber
    expected_phase = np.exp(1j * k * np.dot(wave.incident_direction - theta, shift))
    assert abs(moved) == pytest.approx(abs(base), rel=1e-12)
    assert moved == pytest.approx(base * expected_phase, rel=1e-12)


def test_synthesize_matches_pointwise(demo_wave):
    # The vectorized synthesis rounds exactly as the scalar oracle does.
    for which in ("ex1", "ex2", "ex3"):
        scene = example_scene(which)
        for count in (1, 16, 255, 1024):
            obs = make_observation_set(count)
            data = synthesize_far_field(scene, demo_wave, obs)
            for n, theta in enumerate(obs.directions):
                assert data.samples[n] == far_field_asymptotic(scene, demo_wave, theta)


def test_synthesize_n4_symmetry():
    scene = _single_scene([0.0, 0.0])
    wave = WaveContext(0.4, np.array([1.0, 0.0]))
    data = synthesize_far_field(scene, wave, make_observation_set(4))
    # directions order: (0,1), (-1,0), (0,-1), (1,0); the axis directions
    # carry ~1e-16 trig residue, so the orthogonal samples are tiny, not 0
    assert abs(data.samples[0]) < 1e-15
    assert abs(data.samples[2]) < 1e-15
    assert abs(data.samples[1]) == pytest.approx(abs(data.samples[3]), rel=1e-14)
    assert abs(data.samples[3]) > 0.0


def test_demo_far_field_peak_modulus(ex1_data, demo_wave):
    # Sample modulus depends on position only through the phase, so the
    # largest |sample| is attained where |d.theta| = 1; with N = 256 and
    # the wave at 45 degrees, theta = d is hit exactly (n = 32).
    assert np.max(np.abs(ex1_data.samples)) == pytest.approx(0.1300, abs=5e-5)
    d = demo_wave.incident_direction
    alignment = np.abs(ex1_data.observation_set.directions @ d)
    assert np.argmax(np.abs(ex1_data.samples)) == np.argmax(alignment)


def test_far_field_quadratic_in_radius():
    wave = WaveContext(0.4, np.array([1.0, 0.0]))
    obs = make_observation_set(8)
    small = synthesize_far_field(_single_scene([0.2, 0.1], radius=0.01), wave, obs)
    large = synthesize_far_field(_single_scene([0.2, 0.1], radius=0.03), wave, obs)
    assert np.allclose(large.samples, 9.0 * small.samples, rtol=1e-12)


def test_far_field_linearity_in_scene(demo_wave):
    obs = make_observation_set(32)
    a = _single_scene([0.7, 0.5], mu=5.0)
    b = _single_scene([-0.7, 0.0], mu=3.0)
    both = Scene(background_permeability=1.0,
                 inclusions=a.inclusions + b.inclusions)
    sum_of_parts = (synthesize_far_field(a, demo_wave, obs).samples
                    + synthesize_far_field(b, demo_wave, obs).samples)
    combined = synthesize_far_field(both, demo_wave, obs).samples
    assert np.allclose(combined, sum_of_parts, rtol=1e-13, atol=1e-18)


def test_far_field_reciprocity_at_origin():
    scene = _single_scene([0.0, 0.0])
    wave = WaveContext(0.4, np.array([1.0, 0.0]))
    obs = make_observation_set(64)
    data = synthesize_far_field(scene, wave, obs)
    for n in range(64):
        opposite = (n + 32) % 64
        assert abs(data.samples[n]) == pytest.approx(abs(data.samples[opposite]),
                                                     abs=1e-15)


def test_far_field_data_shape_contract():
    # The directions follow from the sample count, so only the samples'
    # own shape can be wrong: one axis, 1 to MAX_DIRECTIONS entries.
    assert FarFieldData(np.zeros(8, dtype=complex)).observation_set.count == 8
    with pytest.raises(ValueError, match="1-D"):
        FarFieldData(np.zeros((8, 1), dtype=complex))
    for size in (0, MAX_DIRECTIONS + 1):
        with pytest.raises(ValueError, match="direction count"):
            FarFieldData(np.zeros(size, dtype=complex))
    with pytest.raises(TypeError):
        FarFieldData(observation_set=make_observation_set(8),
                     samples=np.zeros(8, dtype=complex))


# ---------------------------------------------------------------------------
# Noise
# ---------------------------------------------------------------------------

def test_noise_infinite_snr_is_identity(ex1_data):
    out = add_noise(ex1_data, NoiseSpec(snr_db=math.inf, seed=3))
    assert out is ex1_data


def test_noise_achieves_exact_snr(ex1_data):
    noisy = add_noise(ex1_data, NoiseSpec(snr_db=20.0, seed=11))
    assert achieved_snr_db(ex1_data, noisy) == pytest.approx(20.0, abs=1e-9)
    negative = add_noise(ex1_data, NoiseSpec(snr_db=-3.0, seed=11))
    assert achieved_snr_db(ex1_data, negative) == pytest.approx(-3.0, abs=1e-9)


def test_noise_is_bitwise_scale_equivariant(ex1_data):
    # The signal power is taken on samples scaled by a power of two, so
    # data 2^-900 or 2^900 times ex1 get exactly that multiple of its noise.
    noisy = add_noise(ex1_data, NoiseSpec(snr_db=20.0, seed=5)).samples
    for shift in (-900, 900):
        scaled = FarFieldData(np.ldexp(ex1_data.samples.real, shift)
                              + 1j * np.ldexp(ex1_data.samples.imag, shift))
        got = add_noise(scaled, NoiseSpec(snr_db=20.0, seed=5)).samples
        assert np.array_equal(got.real, np.ldexp(noisy.real, shift))
        assert np.array_equal(got.imag, np.ldexp(noisy.imag, shift))


def test_noise_seed_changes_draw_not_snr(ex1_data):
    a = add_noise(ex1_data, NoiseSpec(snr_db=20.0, seed=1))
    b = add_noise(ex1_data, NoiseSpec(snr_db=20.0, seed=2))
    assert not np.array_equal(a.samples, b.samples)
    assert achieved_snr_db(ex1_data, a) == pytest.approx(
        achieved_snr_db(ex1_data, b), abs=1e-9)


def test_noise_is_reproducible(ex1_data):
    a = add_noise(ex1_data, NoiseSpec(snr_db=13.0, seed=42))
    b = add_noise(ex1_data, NoiseSpec(snr_db=13.0, seed=42))
    assert np.array_equal(a.samples, b.samples)


def test_noise_rejects_zero_data():
    silent = FarFieldData(np.zeros(256, dtype=complex))
    with pytest.raises(ValueError):
        add_noise(silent, NoiseSpec(snr_db=20.0, seed=0))


def test_noise_spec_rejects_nan():
    with pytest.raises(ValueError):
        NoiseSpec(snr_db=math.nan)


def test_noise_spec_floor_is_where_the_power_ratio_overflows(ex1_data):
    for bad in (SNR_DB_FLOOR, -1e308, -math.inf):
        with pytest.raises(ValueError, match="snr_db"):
            NoiseSpec(snr_db=bad)
    with pytest.raises(OverflowError):
        10.0 ** (-SNR_DB_FLOOR / 10.0)
    lowest = math.nextafter(SNR_DB_FLOOR, math.inf)
    assert math.isfinite(10.0 ** (-lowest / 10.0))
    # The ratio is finite there, but the ex1 noise is not: that is a
    # ValueError, never an OverflowError or a numpy warning.
    with pytest.raises(ValueError, match="noise power overflows"):
        add_noise(ex1_data, NoiseSpec(snr_db=lowest))


# ---------------------------------------------------------------------------
# Serialization
# ---------------------------------------------------------------------------

def test_csv_round_trip_lossless(tmp_path, ex1_data, ex1_scene, demo_wave):
    path = tmp_path / "farfield.csv"
    write_far_field(ex1_data, path, scene=ex1_scene, wave=demo_wave,
                    noise=NoiseSpec(snr_db=math.inf, seed=0))
    loaded, meta = read_far_field(path)
    assert np.array_equal(loaded.samples, ex1_data.samples)
    assert np.array_equal(loaded.observation_set.directions,
                          ex1_data.observation_set.directions)
    assert meta["wavelength"] == demo_wave.wavelength
    assert meta["noise"]["snr_db"] == "inf"
    assert len(meta["scene"]["inclusions"]) == 1


def test_csv_header_and_row_count(tmp_path, ex1_data):
    path = tmp_path / "farfield.csv"
    write_far_field(ex1_data, path)
    lines = path.read_text().strip().splitlines()
    assert lines[0] == "n,theta_x,theta_y,re,im"
    assert len(lines) == 257


def test_read_rejects_bad_header(tmp_path):
    path = tmp_path / "broken.csv"
    path.write_text("a,b,c\n1,2,3\n")
    with pytest.raises(ValueError):
        read_far_field(path)


@pytest.mark.parametrize("count", [7, 130])
def test_csv_rows_are_exact_17_digit_text(tmp_path, count):
    rng = np.random.default_rng(count)
    samples = rng.standard_normal(count) + 1j * rng.standard_normal(count)
    samples[2] = complex(-0.0, -0.0)
    data = FarFieldData(samples)
    path = tmp_path / "farfield.csv"
    write_far_field(data, path)
    rows = [f"{n},{tx:.17g},{ty:.17g},{s.real:.17g},{s.imag:.17g}"
            for n, ((tx, ty), s) in enumerate(
                zip(data.observation_set.directions, data.samples), start=1)]
    assert rows[2].endswith(",-0,-0")
    assert path.read_text() == "\n".join(["n,theta_x,theta_y,re,im", *rows]) + "\n"
