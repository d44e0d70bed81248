"""Grid sweeps, peak extraction, and map export."""

import math
import sys

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from hypothesis.extra.numpy import arrays

from dsm2d.cli import example_scene
from dsm2d.forward import (_NEWLINE, FarFieldData, NoiseSpec, _value_words,
                           add_noise, contrast_factor, synthesize_far_field,
                           unit_scaled)
from dsm2d import imaging
from dsm2d.imaging import (BAND_ROWS, MAX_GRID_NODES, PEAK_TIE, IndicatorMap,
                           Peak, SearchGrid, _analytic_band_values,
                           _closed_form_weights, compute_map,
                           export_map, extract_peaks)
from dsm2d.indicator import (closed_form_magnitude, dsm_indicator_raw,
                             predicted_peaks)
from dsm2d.model import Inhomogeneity, Scene, WaveContext, make_observation_set
from dsm2d.specfun import bessel_j1, bessel_tail_order


def test_grid_node_counts(default_grid):
    assert default_grid.nx == 401
    assert default_grid.ny == 401
    assert default_grid.x_nodes()[0] == -1.0
    assert default_grid.x_nodes()[-1] == pytest.approx(1.0, abs=1e-12)


def test_grid_validation():
    with pytest.raises(ValueError):
        SearchGrid(1.0, -1.0, 0.0, 1.0, 0.1)
    with pytest.raises(ValueError):
        SearchGrid(-1.0, 1.0, 0.0, 1.0, 0.0)
    with pytest.raises(ValueError):
        SearchGrid(0.0, 1.0, 0.0, 1.0, 5.0)  # single node per axis
    for bad in ((-1.0, np.inf, -1.0, 1.0, 0.1), (-np.inf, 1.0, -1.0, 1.0, 0.1),
                (-1.0, 1.0, np.nan, 1.0, 0.1), (-1.0, 1.0, -1.0, 1.0, np.inf),
                (-1.0, 1.0, -1.0, 1.0, np.nan)):
        with pytest.raises(ValueError, match="finite"):
            SearchGrid(*bad)
    # rejected before any int() of a count or any allocation
    for big in ((-1.0, 1.0, -1.0, 1.0, 1e-320), (-1e308, 1e308, -1.0, 1.0, 0.5),
                (-1.0, 1.0, -1.0, 1.0, 1e-6), (0.0, 1e4, 0.0, 1e4, 1.0)):
        with pytest.raises(ValueError, match="nodes"):
            SearchGrid(*big)
    at_cap = SearchGrid(0.0, 9999.0, 0.0, 9999.0, 1.0)
    assert at_cap.nx * at_cap.ny == MAX_GRID_NODES


def test_indicator_map_shape_contract():
    grid = SearchGrid(0.0, 1.0, 0.0, 1.0, 0.5)
    with pytest.raises(ValueError):
        IndicatorMap(grid=grid, values=np.zeros((2, 2)))
    for bad in (np.nan, np.inf, -np.inf):
        values = np.zeros((3, 3))
        values[1, 2] = bad
        with pytest.raises(ValueError, match="finite"):
            IndicatorMap(grid=grid, values=values)
    values = np.zeros((3, 3))  # taken over without a copy, made read-only
    assert IndicatorMap(grid=grid, values=values).values is values
    assert not values.flags.writeable


def test_data_map_matches_scalar_indicator(ex1_data, demo_wave):
    # Oracle: brute-force scalar evaluation at every node of a coarse grid.
    grid = SearchGrid(-1.0, 1.0, -1.0, 1.0, 0.1)
    k = demo_wave.wavenumber
    imap = compute_map(ex1_data, grid, wavenumber=k)
    brute = np.array([[dsm_indicator_raw(ex1_data, k, np.array([x, y]))
                       for x in grid.x_nodes()] for y in grid.y_nodes()])
    brute /= brute.max()
    assert np.allclose(imap.values, brute, atol=1e-12)


@settings(max_examples=40, deadline=None)
@given(count=st.one_of(st.integers(1, 70), st.sampled_from(
           [129, 130, 255, 257, 766, 768, 770, 1026, 1537, 1540])),
       seed=st.integers(0, 2 ** 32 - 1), ny=st.sampled_from([2, 3, 9]))
def test_folded_data_map_matches_scalar_indicator(count, seed, ny, demo_wave):
    # The fold takes direction m with its mirrors N - m, N/2 - m and
    # N/2 + m; odd N, every N mod 4, N = 1 and 2 (no pairs), and inner
    # widths on both sides of GEMM_CHUNK (N//2 + 1 for odd N: 513 at 1025
    # and 769 at 1537; N//4 + 1 for even N: 386 at 1540) all go through
    # it. The rows fold too: 9, 3 and 2 rows (the last two off the
    # origin, so the samples take the centre phase) and 4 rows. Every
    # count stays below N': at least 92 on the small grids; the counts
    # from 129 up use a 5 x 4 grid reaching 50 from its centre, where
    # N' = 1772.
    rng = np.random.default_rng(seed)
    centers = rng.uniform(-0.8, 0.8, (2, 2))
    if np.array_equal(centers[0], centers[1]):
        centers = centers[:1]
    scene = Scene(1.0, tuple(Inhomogeneity(c, 0.05, rng.uniform(1.5, 10.0))
                             for c in centers))
    data = synthesize_far_field(scene, demo_wave, make_observation_set(count))
    grid = (SearchGrid(-1.0, 1.0, -1.0, -1.0 + 0.25 * (ny - 1), 0.25) if count <= 70
            else SearchGrid(-40.0, 40.0, -30.0, 30.0, 20.0))
    k = demo_wave.wavenumber
    assert count < _resampled_count(grid, k)
    brute = np.array([[dsm_indicator_raw(data, k, np.array([x, y]))
                       for x in grid.x_nodes()] for y in grid.y_nodes()])
    imap = compute_map(data, grid, wavenumber=k)
    assert np.allclose(imap.values, brute / brute.max(), rtol=0.0, atol=1e-12)


def _resampled_count(grid, k):
    # N' for a grid: 2L + 2 rounded up to a multiple of 4, L the tail order
    # of kR, R half the diagonal of the nodes
    radius = np.hypot(grid.step * (grid.nx - 1) / 2, grid.step * (grid.ny - 1) / 2)
    return -(-(2 * bessel_tail_order(k * radius) + 2) // 4) * 4


def _direct_map(data, grid, k):
    # the N-point sum as it is: no tail order can reach N' <= N
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(imaging, "bessel_tail_order", lambda x: 10 ** 9)
        return compute_map(data, grid, wavenumber=k)


@settings(max_examples=40, deadline=None)
@given(seed=st.integers(0, 2 ** 32 - 1), extra=st.integers(0, 10 ** 6),
       snr=st.sampled_from([np.inf, 40.0, 20.0, 0.0]),
       grid=st.sampled_from([SearchGrid(-1.0, 1.0, -1.0, 1.0, 0.1),
                             SearchGrid(0.2, 2.0, -0.6, 1.4, 0.1)]))
def test_resampled_data_map_matches_the_direct_sum(seed, extra, snr, grid,
                                                   demo_wave):
    # N from N' to 4N', odd N included, noise down to 0 dB, a grid centred
    # on the origin and one centred at (1.1, 0.4).
    k = demo_wave.wavenumber
    n_prime = _resampled_count(grid, k)
    count = n_prime + extra % (3 * n_prime + 1)
    rng = np.random.default_rng(seed)
    centers = rng.uniform(-0.8, 0.8, (int(rng.integers(1, 4)), 2))
    scene = Scene(1.0, tuple(Inhomogeneity(c, 0.05, rng.uniform(1.5, 10.0))
                             for c in centers))
    data = add_noise(synthesize_far_field(scene, demo_wave, make_observation_set(count)),
                     NoiseSpec(snr_db=snr, seed=seed))
    resampled = compute_map(data, grid, wavenumber=k).values
    assert np.max(np.abs(resampled - _direct_map(data, grid, k).values)) <= 1e-14


def test_resample_starts_at_n_prime(ex1_scene, demo_wave):
    # Below N' the N samples are used as they are, for even and odd N;
    # from N' on the map changes by rounding only.
    grid = SearchGrid(-1.0, 1.0, -1.0, 1.0, 0.1)
    k = demo_wave.wavenumber
    n_prime = _resampled_count(grid, k)
    assert n_prime == 112  # kR = 22.2 gives L = 55
    for count in (n_prime - 2, n_prime - 1, n_prime):
        data = synthesize_far_field(ex1_scene, demo_wave, make_observation_set(count))
        got, direct = compute_map(data, grid, wavenumber=k), _direct_map(data, grid, k)
        if count < n_prime:
            assert got.values.tobytes() == direct.values.tobytes()
        else:
            assert 0.0 < np.max(np.abs(got.values - direct.values)) <= 1e-14


def test_resampled_ex1_map_keeps_its_peaks(ex1_data, ex1_data_map, demo_wave,
                                           default_grid):
    direct = _direct_map(ex1_data, default_grid, demo_wave.wavenumber)
    assert np.max(np.abs(direct.values - ex1_data_map.values)) <= 1e-14
    got, want = (extract_peaks(m, 0.5, 0.05) for m in (ex1_data_map, direct))
    assert [p.position.tolist() for p in got] == [p.position.tolist() for p in want]


def _shifted(scene, shift):
    return Scene(scene.background_permeability,
                 tuple(Inhomogeneity(inc.center + shift, inc.radius, inc.permeability)
                       for inc in scene.inclusions))


_SHIFT = st.floats(-1e3, 1e3, allow_nan=False)


@settings(max_examples=30, deadline=None)
@given(sx=_SHIFT, sy=_SHIFT, same=st.booleans(),
       count=st.sampled_from([113, 256, 1025, 4096]))
def test_shifted_data_map_stays_near_the_closed_form(sx, sy, same, count, demo_wave):
    # Scene and grid moved together by s, (s, s) or any (sx, sy), with N at
    # or above N' = 112: the data map stays within (32 + 2 k|s|) 2^-52 of
    # the closed form (measured up to 0.6 k|s| 2^-52 over s = 2 .. 1e3 on
    # the 401 x 401 grid). The data carry most of it, since synthesis
    # rounds phases of size k|x_m|.
    shift = np.array([sx, sx if same else sy])
    scene = _shifted(example_scene("ex3"), shift)
    grid = SearchGrid(-1.0 + shift[0], 1.0 + shift[0], -1.0 + shift[1],
                      1.0 + shift[1], 0.05)
    k = demo_wave.wavenumber
    data = synthesize_far_field(scene, demo_wave, make_observation_set(count))
    error = np.max(np.abs(compute_map(data, grid, wavenumber=k).values
                          - compute_map((scene, demo_wave), grid).values))
    assert error <= (32.0 + 2.0 * k * np.hypot(*shift)) * 2.0 ** -52


def test_centre_phase_has_the_sign_of_the_test_function(ex1_data, demo_wave):
    # e^{ik theta.z} = e^{ik theta.z0} e^{ik theta.(z - z0)}: the samples are
    # multiplied by e^{+ik theta.z0}, z0 = (0.8, 0.35) here. The scalar
    # oracle pins that sign: the other one, which maps the samples times
    # e^{-2ik theta.z0}, is far from it.
    grid = SearchGrid(0.3, 1.3, -0.2, 0.9, 0.1)
    k = demo_wave.wavenumber
    brute = np.array([[dsm_indicator_raw(ex1_data, k, np.array([x, y]))
                       for x in grid.x_nodes()] for y in grid.y_nodes()])
    brute /= brute.max()
    assert np.allclose(compute_map(ex1_data, grid, wavenumber=k).values, brute,
                       rtol=0.0, atol=1e-12)
    z0 = np.array([grid.x_min + grid.step * (grid.nx - 1) / 2,
                   grid.y_min + grid.step * (grid.ny - 1) / 2])
    assert np.allclose(z0, [0.8, 0.35], rtol=0.0, atol=1e-15)
    theta = ex1_data.observation_set.directions
    flipped = FarFieldData(ex1_data.samples * np.exp(-2j * k * (theta @ z0)))
    assert np.max(np.abs(compute_map(flipped, grid, wavenumber=k).values - brute)) > 0.5


def test_resampled_count_does_not_depend_on_the_grid_position(ex1_scene, demo_wave,
                                                              monkeypatch):
    # R is measured from the grid's centre, so the default-size grid moved
    # anywhere resamples to the same N' = 112 (L = 55) as at the origin.
    seen = []
    band_limited = imaging._band_limited

    def spy(psi, order, count):
        seen.append((order, count))
        return band_limited(psi, order, count)

    monkeypatch.setattr(imaging, "_band_limited", spy)
    k = demo_wave.wavenumber
    shifts = (0.0, 2.0, 10.0, 100.0, 1000.0, -1000.0)
    for s in shifts:
        scene = _shifted(ex1_scene, np.array([s, s]))
        data = synthesize_far_field(scene, demo_wave, make_observation_set(256))
        compute_map(data, SearchGrid(-1.0 + s, 1.0 + s, -1.0 + s, 1.0 + s, 0.05),
                    wavenumber=k)
    assert seen == [(55, 112)] * len(shifts)


@pytest.mark.parametrize("count", [64, 101, 256])
def test_data_map_bits_do_not_depend_on_the_band_height(count, ex2_scene, demo_wave):
    # 401 x 301 nodes: 19 bands of BAND_ROWS or three of 101 rows, the last
    # shifted back either way; even N below N' (64), odd N below N' (101)
    # and resampled N (256) give the same bits.
    grid = SearchGrid(-1.0, 1.0, -1.0, 0.5, 0.005)
    assert (grid.nx, grid.ny) == (401, 301)
    data = synthesize_far_field(ex2_scene, demo_wave, make_observation_set(count))
    k = demo_wave.wavenumber
    narrow = compute_map(data, grid, wavenumber=k)
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(imaging, "BAND_ROWS", 101)
        wide = compute_map(data, grid, wavenumber=k)
    assert wide.values.tobytes() == narrow.values.tobytes()


@pytest.mark.parametrize("pattern", ["nyquist", "mode 100"])
def test_far_field_above_the_grid_bandwidth_is_rejected(pattern, demo_wave):
    # On the default grid L = 55: data whose modes all lie above L would
    # give a map of rounding, so the resampled map refuses them. Below N'
    # (N = 64) the sum aliases them into the grid's band and maps them.
    grid = SearchGrid(-1.0, 1.0, -1.0, 1.0, 0.05)
    k = demo_wave.wavenumber
    for count in (256, 64):
        n = np.arange(1, count + 1)
        samples = ((-1.0) ** n if pattern == "nyquist"
                   else np.exp(2j * np.pi * 100 * n / count))
        data = FarFieldData(samples)
        if count >= _resampled_count(grid, k):
            with pytest.raises(ValueError, match=r"no energy at the modes \|m\| <= 55"):
                compute_map(data, grid, wavenumber=k)
        else:
            assert compute_map(data, grid, wavenumber=k).values.max() == 1.0


def _scalar_closed_form_map(scene, wave, grid):
    brute = np.array([[closed_form_magnitude(scene, wave, np.array([x, y]))
                       for x in grid.x_nodes()] for y in grid.y_nodes()])
    return brute / brute.max()


def test_analytic_map_matches_scalar_closed_form(ex1_scene, demo_wave):
    grid = SearchGrid(-1.0, 1.0, -1.0, 1.0, 0.1)
    imap = compute_map((ex1_scene, demo_wave), grid)
    brute = _scalar_closed_form_map(ex1_scene, demo_wave, grid)
    assert np.allclose(imap.values, brute, atol=1e-12)


def _disk(x, y, permeability):
    return Inhomogeneity(center=np.array([x, y]), radius=0.1,
                         permeability=permeability)


# Dyadic centers: both lie exactly on nodes of the step-0.0625 grids below.
DYADIC_SCENE = Scene(background_permeability=1.0,
                     inclusions=(_disk(0.5, -0.25, 5.0), _disk(-0.625, 0.375, 2.0)))


@pytest.mark.parametrize("y_max, last_band_rows", [
    (1.0, 1),    # 33 rows: two full bands, then a one-row band
    (0.25, 9),   # 9 rows: fewer than one band
])
def test_banded_closed_form_matches_scalar_oracle(y_max, last_band_rows,
                                                  demo_wave):
    grid = SearchGrid(-1.0, 1.0, -y_max, y_max, 0.0625)
    assert grid.ny % BAND_ROWS == last_band_rows
    imap = compute_map((DYADIC_SCENE, demo_wave), grid)
    brute = _scalar_closed_form_map(DYADIC_SCENE, demo_wave, grid)
    assert np.max(np.abs(imap.values - brute)) <= 1e-12


def _oracle_weights(scene, wave):
    k, d = wave.wavenumber, wave.incident_direction
    return [inc.radius ** 2
            * contrast_factor(inc.permeability, scene.background_permeability)
            * np.exp(1j * k * float(np.dot(d, inc.center)))
            for inc in scene.inclusions]


def _per_inclusion_band_values(scene, wave, x_nodes, y_band):
    # Oracle: one complex term per inclusion, each with its own J1 call, on
    # the unscaled offsets: in the normal range the map's 2^-e_m pre-scale
    # must not change a bit.
    k, d = wave.wavenumber, wave.incident_direction
    total = np.zeros((y_band.size, x_nodes.size), dtype=complex)
    for inc, weight in zip(scene.inclusions, _oracle_weights(scene, wave)):
        dx = inc.center[0] - x_nodes
        dy = (inc.center[1] - y_band)[:, np.newaxis]
        dist = np.sqrt(dx * dx + dy * dy)
        directional = (dx * d[0] + dy * d[1]) / np.where(dist == 0.0, 1.0, dist)
        total += weight * (directional * bessel_j1(k * dist))
    return np.abs(total)


def _six_disk_scene(grid):
    rng = np.random.default_rng(20260418)
    nodes = grid.x_nodes()[::40]
    centers = rng.choice(nodes, size=(6, 2))
    return Scene(background_permeability=1.0, inclusions=tuple(
        _disk(x, y, float(rng.uniform(1.5, 10.0))) for x, y in centers))


@pytest.mark.parametrize("which", ["ex1", "ex2", "ex3", "six"])
def test_stacked_band_is_bitwise_the_per_inclusion_sum(which, demo_wave,
                                                       default_grid):
    grid = default_grid
    assert grid.ny % BAND_ROWS == 1  # the last band has one row
    scene = _six_disk_scene(grid) if which == "six" else example_scene(which)
    xs, ys = grid.x_nodes(), grid.y_nodes()
    # some center is a grid node, so the dist == 0 branch is covered
    assert any(c[0] in xs and c[1] in ys for c in (i.center for i in scene.inclusions))
    # the band sums carry the weights' exact power-of-two scale 2**-e
    weights = _closed_form_weights(scene, demo_wave)
    _, e = unit_scaled(np.array(_oracle_weights(scene, demo_wave)))
    exps = imaging._offset_exponents(scene.centers, xs, ys)
    # the scale puts each inclusion's largest offset component in [1/2, 1)
    for inc, exp in zip(scene.inclusions, exps):
        offsets = [abs(c - corner) for c, axis in zip(inc.center, (xs, ys))
                   for corner in (axis[0], axis[-1])]
        assert 0.5 <= math.ldexp(max(offsets), -int(exp)) < 1.0
    for iy in range(0, grid.ny, BAND_ROWS):
        band = ys[iy:iy + BAND_ROWS]
        got = np.empty((band.size, xs.size))
        _analytic_band_values(demo_wave, scene.centers, weights, exps, xs, band, got)
        want = _per_inclusion_band_values(scene, demo_wave, xs, band)
        assert got.tobytes() == np.ldexp(want, -e).tobytes()


@settings(max_examples=40, deadline=None)
@given(seed=st.integers(0, 2 ** 32 - 1), disks=st.integers(1, 6),
       on_nodes=st.booleans(),
       shift=st.tuples(*[st.one_of(st.just(0.0), st.floats(-1e3, 1e3))] * 2))
def test_closed_form_map_matches_the_scalar_closed_form(seed, disks, on_nodes, shift):
    # Seeded 1-6 disk scenes on 41 x 41 grids moved up to 1e3 off the
    # origin, centers on nodes or between them: the map at seeded nodes is
    # the hypot-based scalar closed form over its value at the map's peak.
    rng = np.random.default_rng(seed)
    grid = SearchGrid(shift[0] - 1.0, shift[0] + 1.0, shift[1] - 1.0, shift[1] + 1.0, 0.05)
    xs, ys = grid.x_nodes(), grid.y_nodes()
    cells = rng.choice(33 * 33, size=disks, replace=False)
    offsets = 0.0 if on_nodes else rng.uniform(-0.5, 0.5, (disks, 2)) * grid.step
    centers = np.column_stack([xs[4 + cells % 33], ys[4 + cells // 33]]) + offsets
    scene = Scene(float(rng.uniform(0.5, 2.0)), tuple(
        Inhomogeneity(center, float(rng.uniform(0.01, 0.1)), float(rng.uniform(0.2, 20.0)))
        for center in centers))
    wave = WaveContext.from_degrees(float(rng.uniform(0.25, 1.0)),
                                    float(rng.uniform(-180.0, 180.0)))
    values = compute_map((scene, wave), grid).values
    r = values.max(axis=1).argmax()
    top = closed_form_magnitude(scene, wave, (xs[values[r].argmax()], ys[r]))
    nodes = [*rng.integers(0, grid.ny, size=(40, 2)), *np.argwhere(values == 0.0)]
    for i, j in nodes:
        want = closed_form_magnitude(scene, wave, (xs[j], ys[i])) / top
        assert abs(values[i, j] - want) <= 1e-13


@pytest.mark.parametrize("j", [-1000, -600, -200, 200, 600, 1000])
def test_closed_form_map_is_bit_invariant_under_power_of_two_lengths(
        j, ex2_scene, demo_wave, default_grid):
    # Every length times 2^j, radii kept: k |x - x_m|, k d.x_m and the
    # offsets' directions keep their bits, and the per-inclusion pre-scale
    # keeps dx^2 + dy^2 in range where it would overflow or underflow.
    g = default_grid
    grid = SearchGrid(*(math.ldexp(v, j) for v in (g.x_min, g.x_max, g.y_min, g.y_max,
                                                   g.step)))
    scene = Scene(ex2_scene.background_permeability, tuple(
        Inhomogeneity(np.ldexp(inc.center, j), inc.radius, inc.permeability)
        for inc in ex2_scene.inclusions))
    wave = WaveContext(math.ldexp(demo_wave.wavelength, j), demo_wave.incident_direction)
    assert wave.wavenumber == math.ldexp(demo_wave.wavenumber, -j)
    base = compute_map((ex2_scene, demo_wave), g).values
    assert compute_map((scene, wave), grid).values.tobytes() == base.tobytes()


def test_closed_form_argument_is_finite_where_the_unscaled_product_is(demo_wave):
    # Offsets up to 2^999 sqrt(2) and k = 1.2 DBL_MAX / 2^1000: k 2^e_m
    # overflows, but k |x - x_m| does not, so the map must still be finite
    # and match the scalar closed form.
    a = math.ldexp(1.0, 999)
    grid = SearchGrid(-a, a, -a, a, a / 4)
    scene = Scene(1.0, (Inhomogeneity(np.array([0.0, 0.0]), 0.1, 5.0),))
    wave = WaveContext(2.0 * math.pi / (1.2 * math.ldexp(sys.float_info.max, -1000)),
                       demo_wave.incident_direction)
    assert wave.wavenumber * math.ldexp(1.0, 1000) == math.inf
    assert wave.wavenumber * math.hypot(a, a) < math.inf
    imap = compute_map((scene, wave), grid)
    brute = _scalar_closed_form_map(scene, wave, grid)
    assert np.max(np.abs(imap.values - brute)) <= 1e-13


def test_closed_form_is_zero_on_a_disk_center(demo_wave):
    scene = Scene(background_permeability=1.0,
                  inclusions=(_disk(0.5, -0.25, 5.0),))
    grid = SearchGrid(-1.0, 1.0, -1.0, 1.0, 0.0625)
    ix = int(np.flatnonzero(grid.x_nodes() == 0.5)[0])
    iy = int(np.flatnonzero(grid.y_nodes() == -0.25)[0])
    imap = compute_map((scene, demo_wave), grid)
    assert imap.values[iy, ix] == 0.0
    assert np.all(np.isfinite(imap.values))


def test_map_is_grid_max_normalized(ex1_analytic_map):
    assert ex1_analytic_map.values.max() == 1.0
    assert ex1_analytic_map.values.min() >= 0.0


def test_analytic_map_peaks_at_prediction(ex1_analytic_map, ex1_scene,
                                          demo_wave, default_grid):
    iy, ix = np.unravel_index(np.argmax(ex1_analytic_map.values),
                              ex1_analytic_map.values.shape)
    node = np.array([default_grid.x_nodes()[ix], default_grid.y_nodes()[iy]])
    (pred,) = predicted_peaks(ex1_scene, demo_wave)
    nearest = min(np.hypot(*(node - pos)) for pos in pred.positions)
    # argmax lands within one cell of a closed-form peak
    assert nearest <= default_grid.step * np.sqrt(2.0) + 1e-12


def test_data_map_low_at_true_center(ex1_data_map, default_grid):
    ix = int(round((0.7 - default_grid.x_min) / default_grid.step))
    iy = int(round((0.5 - default_grid.y_min) / default_grid.step))
    assert ex1_data_map.values[iy, ix] <= 0.05


def test_map_invariant_under_data_scaling(ex1_data, demo_wave):
    grid = SearchGrid(-1.0, 1.0, -1.0, 1.0, 0.05)
    scaled_data = FarFieldData((3.0 - 4.0j) * ex1_data.samples)
    base = compute_map(ex1_data, grid, wavenumber=demo_wave.wavenumber)
    scaled = compute_map(scaled_data, grid, wavenumber=demo_wave.wavenumber)
    assert np.max(np.abs(base.values - scaled.values)) < 1e-12
    assert np.argmax(base.values) == np.argmax(scaled.values)
    # By 2^-900 or 2^900, |psi|^2 would underflow to 0 or overflow to inf;
    # a power of two is exact, so the map keeps every bit.
    for shift in (-900, 900):
        scaled_data = FarFieldData(np.ldexp(ex1_data.samples.real, shift)
                                   + 1j * np.ldexp(ex1_data.samples.imag, shift))
        scaled = compute_map(scaled_data, grid, wavenumber=demo_wave.wavenumber)
        assert scaled.values.tobytes() == base.values.tobytes()


def test_map_thread_count_is_bit_invariant(ex1_data, ex2_scene, demo_wave):
    k = demo_wave.wavenumber
    for step in (0.05, 0.0625):  # 41 rows: bands 16, 16, 9; 33 rows: 16, 16, 1
        grid = SearchGrid(-1.0, 1.0, -1.0, 1.0, step)
        blobs = {compute_map(ex1_data, grid, wavenumber=k, threads=t).values.tobytes()
                 for t in (1, 2, 4)}
        assert len(blobs) == 1
        blobs = {compute_map((ex2_scene, demo_wave), grid, threads=t).values.tobytes()
                 for t in (1, 2, 3)}
        assert len(blobs) == 1


@pytest.mark.parametrize("threads", [1, 2])
def test_closed_form_column_tiles_keep_the_untiled_bits(threads, monkeypatch,
                                                        ex3_scene, demo_wave):
    # 24001 columns x 3 inclusions is more than BAND_NODES terms a row:
    # bands of one row, each cut into tiles of 21845 and 2156 columns.
    grid = SearchGrid(-60.0, 60.0, -0.01, 0.01, 0.005)
    assert (grid.nx, grid.ny) == (24001, 5)
    sizes = []

    def counted_j1(x):
        sizes.append(x.size)
        return bessel_j1(x)

    monkeypatch.setattr(imaging, "bessel_j1", counted_j1)
    tiled = compute_map((ex3_scene, demo_wave), grid, threads=threads)
    assert len(sizes) == 2 * 5 and max(sizes) <= imaging.BAND_NODES
    monkeypatch.setattr(imaging, "BAND_NODES", 10 ** 9)
    sizes.clear()
    untiled = compute_map((ex3_scene, demo_wave), grid, threads=1)
    assert len(sizes) == 1
    assert tiled.values.tobytes() == untiled.values.tobytes()


@settings(max_examples=200, deadline=None)
@given(ny=st.integers(1, 3000), nx=st.integers(1, 3000), data=st.data())
def test_tiles_cover_each_node_once_y_outer_x_inner(ny, nx, data):
    # budgets below nx cut rows into column chunks; above it, bands
    budget = data.draw(st.one_of(st.integers(max(1, nx // 4), nx),
                                 st.integers(nx, 20 * BAND_ROWS * nx)))
    following = 0  # flat index of the next node in y outer, x inner order
    for rows, cols in imaging._tiles(ny, nx, budget):
        height, width = len(range(ny)[rows]), len(range(nx)[cols])
        assert 0 < height * width <= budget and height <= BAND_ROWS
        assert height == 1 or width == nx
        assert rows.start * nx + cols.start == following
        following += height * width
    assert following == ny * nx


def test_closed_form_pool_is_capped_at_the_cpu_count(monkeypatch, ex2_scene, demo_wave):
    # A serial stand-in records the pool size and starts no thread.
    import concurrent.futures
    import os

    asked = []

    class SerialPool:
        def __init__(self, max_workers):
            asked.append(max_workers)

        def __enter__(self):
            return self

        def __exit__(self, *exc):
            return False

        def map(self, fn, items):
            return map(fn, items)

    grid = SearchGrid(-1.0, 1.0, -1.0, 1.0, 0.05)
    serial = compute_map((ex2_scene, demo_wave), grid, threads=1).values.tobytes()
    monkeypatch.setattr(concurrent.futures, "ThreadPoolExecutor", SerialPool)
    monkeypatch.setattr(os, "cpu_count", lambda: 2)
    capped = compute_map((ex2_scene, demo_wave), grid, threads=10**6)
    assert asked == [2]
    assert capped.values.tobytes() == serial
    monkeypatch.setattr(os, "cpu_count", lambda: None)  # unknown: run serially
    unknown = compute_map((ex2_scene, demo_wave), grid, threads=10**6)
    assert asked == [2]
    assert unknown.values.tobytes() == serial

# Hashes the data map of ex2 on grids 401 nodes wide whose 32, 33 and 34
# rows put 16, 17 and 17 rows on the v >= 0 side (one band, or a second
# one shifted back by 15), on ones of 9, 3 and 2 rows (a single short
# band), on one 403 nodes wide (nx = 3 mod 4) and on one whose centre is
# off the origin on both axes, for direction counts whose inner widths are
# 33, 128 (odd N, N//2 + 1), 65 and 76, and 132 for the counts resampled
# to N' = 524. The grids are wide enough for OpenBLAS to split each band
# product over threads; _WIDE_BLAS_PROBE covers inner widths above
# GEMM_CHUNK.
_BLAS_PROBE = """
import hashlib
from dsm2d.cli import example_scene, example_wave
from dsm2d.forward import synthesize_far_field
from dsm2d.imaging import BAND_ROWS, SearchGrid, compute_map
from dsm2d.model import make_observation_set
wave = example_wave()
for count in (130, 255, 256, 300, 768, 770, 1024, 1537):
    data = synthesize_far_field(example_scene("ex2"), wave, make_observation_set(count))
    for x0, y0, nx, ny in ((-12.5, -1.0, 401, 2 * BAND_ROWS),
                           (-12.5, -1.0, 401, 2 * BAND_ROWS + 1),
                           (-12.5, -1.0, 401, 2 * BAND_ROWS + 2),
                           (-12.5, -1.0, 401, BAND_ROWS // 2 + 1),
                           (-12.5, -1.0, 403, 2 * BAND_ROWS + 1),
                           (-12.5, -1.0, 401, 2), (-12.5, -1.0, 401, 3),
                           (0.37, -2.71, 401, 41)):
        grid = SearchGrid(x0, x0 + (nx - 1) * 0.0625, y0, y0 + (ny - 1) * 0.0625, 0.0625)
        assert (grid.nx, grid.ny) == (nx, ny)
        values = compute_map(data, grid, wavenumber=wave.wavenumber).values
        print(count, nx, ny, hashlib.sha256(values.tobytes()).hexdigest())
"""


def test_data_map_is_bit_invariant_under_blas_thread_count(fresh_python):
    # ny = 2 puts one row on each side of the centre: its band also holds
    # the mirror row, as a 1-row product rounds by the thread count.
    single = fresh_python(_BLAS_PROBE, OPENBLAS_NUM_THREADS="1").splitlines()
    assert [line.split()[:3] for line in single] == [
        [str(count), nx, ny] for count in (130, 255, 256, 300, 768, 770, 1024, 1537)
        for nx, ny in (("401", "32"), ("401", "33"), ("401", "34"), ("401", "9"),
                       ("403", "33"), ("401", "2"), ("401", "3"), ("401", "41"))]
    assert fresh_python(_BLAS_PROBE, OPENBLAS_NUM_THREADS="2").splitlines() == single


# Hashes the data map of ex2 on a 401 x 301 grid reaching 50 from its
# centre (kR = 785, L = 885, N' = 1772), 151 rows on the v >= 0 side in 10
# bands of 16 rows, the last shifted back by 9: even N below N' with inner
# widths 193 and 257, odd N below N' with inner widths 384 and 513 (N//2 +
# 1), and N = 2048 resampled to N' (inner width 444).
_WIDE_BLAS_PROBE = """
import hashlib
from dsm2d.cli import example_scene, example_wave
from dsm2d.forward import synthesize_far_field
from dsm2d.imaging import SearchGrid, compute_map
from dsm2d.model import make_observation_set
wave = example_wave()
grid = SearchGrid(-40.0, 40.0, -30.0, 30.0, 0.2)
assert (grid.nx, grid.ny) == (401, 301)
for count in (767, 768, 1025, 1026, 2048):
    data = synthesize_far_field(example_scene("ex2"), wave, make_observation_set(count))
    values = compute_map(data, grid, wavenumber=wave.wavenumber).values
    print(count, hashlib.sha256(values.tobytes()).hexdigest())
"""


def test_wide_grid_data_map_is_bit_invariant_under_blas_thread_count(fresh_python):
    single = fresh_python(_WIDE_BLAS_PROBE, OPENBLAS_NUM_THREADS="1").splitlines()
    assert [line.split()[0] for line in single] == ["767", "768", "1025", "1026", "2048"]
    assert fresh_python(_WIDE_BLAS_PROBE, OPENBLAS_NUM_THREADS="2").splitlines() == single


def test_import_leaves_the_thread_pool_unloaded(fresh_python):
    # concurrent.futures costs about 6 ms at import; only threads > 1 uses it
    probe = "import sys, dsm2d.cli; print('concurrent.futures' in sys.modules)"
    assert fresh_python(probe).strip() == "False"


def test_map_rejects_missing_wavenumber(ex1_data):
    grid = SearchGrid(-1.0, 1.0, -1.0, 1.0, 0.5)
    with pytest.raises(ValueError):
        compute_map(ex1_data, grid)


def test_map_rejects_zero_data():
    grid = SearchGrid(-1.0, 1.0, -1.0, 1.0, 0.5)
    silent = FarFieldData(np.zeros(256, dtype=complex))
    with pytest.raises(ValueError):
        compute_map(silent, grid, wavenumber=5.0)


# ---------------------------------------------------------------------------
# Peak extraction
# ---------------------------------------------------------------------------

def test_constant_map_has_no_peaks():
    grid = SearchGrid(0.0, 1.0, 0.0, 1.0, 0.25)
    flat = IndicatorMap(grid=grid, values=np.ones((5, 5)))
    assert extract_peaks(flat, min_value=0.5, min_separation=0.1) == []


def test_demo_map_peak_census(ex1_analytic_map, default_grid):
    # At threshold 0.5 the second ring of |J1| (its second extremum is
    # ~0.595 of the first) contributes one extra pair, so four strict
    # maxima survive; the top two are the published peak pair.
    peaks = extract_peaks(ex1_analytic_map, min_value=0.5, min_separation=0.05)
    assert len(peaks) == 4
    top_positions = sorted((p.position[0], p.position[1]) for p in peaks[:2])
    # Each peak lies mid-way between two diagonal nodes that tie in exact
    # arithmetic (mirror images across the line through the center along
    # d); the tie goes to the earlier node in (row, col) order.
    expected = [(0.62, 0.415), (0.785, 0.58)]
    for got, want in zip(top_positions, expected):
        assert np.allclose(got, want, atol=1e-12)
    for got, want in zip(top_positions, [(0.6171, 0.4171), (0.7829, 0.5829)]):
        assert np.hypot(got[0] - want[0], got[1] - want[1]) <= \
            default_grid.step * np.sqrt(2.0)
    assert peaks[2].value == pytest.approx(0.595, abs=2e-3)
    # raising the threshold above the second ring leaves exactly the pair
    assert len(extract_peaks(ex1_analytic_map, 0.61, 0.05)) == 2


def test_peak_cap_on_three_inclusion_map(ex2_scene, demo_wave, default_grid):
    imap = compute_map((ex2_scene, demo_wave), default_grid)
    peaks = extract_peaks(imap, min_value=0.99, min_separation=0.05)
    assert len(peaks) <= 6


def test_peaks_dominate_neighbors(ex1_analytic_map, default_grid):
    values = ex1_analytic_map.values
    xs = ex1_analytic_map.grid.x_nodes()
    ys = ex1_analytic_map.grid.y_nodes()
    peaks = extract_peaks(ex1_analytic_map, 0.3, 0.02)
    assert peaks
    for peak in peaks:
        j = int(round((peak.position[0] - xs[0]) / default_grid.step))
        i = int(round((peak.position[1] - ys[0]) / default_grid.step))
        assert values[i, j] == peak.value
        # every neighbor is smaller beyond a tie, or ties with a later
        # (row, col) node
        tie = PEAK_TIE * values.max()
        for di in (-1, 0, 1):
            for dj in (-1, 0, 1):
                if di == 0 and dj == 0:
                    continue
                ni, nj = i + di, j + dj
                if 0 <= ni < values.shape[0] and 0 <= nj < values.shape[1]:
                    neighbor = values[ni, nj]
                    assert neighbor < peak.value - tie or (
                        abs(neighbor - peak.value) <= tie
                        and (di > 0 or (di == 0 and dj > 0)))


def test_peak_thinning_keeps_strongest():
    grid = SearchGrid(0.0, 1.0, 0.0, 1.0, 0.1)
    values = np.zeros((11, 11))
    values[5, 5] = 1.0
    values[5, 6] = 0.9  # one node away: inside min_separation
    values[9, 9] = 0.8
    imap = IndicatorMap(grid=grid, values=values)
    peaks = extract_peaks(imap, min_value=0.5, min_separation=0.25)
    assert len(peaks) == 2
    assert peaks[0].value == 1.0
    assert peaks[1].value == 0.8


def _reference_peaks(indicator_map, min_value, min_separation):
    # Independent oracle: each node against all 8 neighbors of a map padded
    # with -inf (for dominance) and +inf (so borders never count as exceeded),
    # values within PEAK_TIE * max of each other tied.
    v = indicator_map.values
    tie = PEAK_TIE * v.max()
    lo = np.full((v.shape[0] + 2, v.shape[1] + 2), -np.inf)
    lo[1:-1, 1:-1] = v
    hi = np.full_like(lo, np.inf)
    hi[1:-1, 1:-1] = v
    dominates = np.ones(v.shape, dtype=bool)
    exceeds_one = np.zeros(v.shape, dtype=bool)
    for di in (-1, 0, 1):
        for dj in (-1, 0, 1):
            if di == 0 and dj == 0:
                continue
            window = (slice(1 + di, 1 + di + v.shape[0]),
                      slice(1 + dj, 1 + dj + v.shape[1]))
            node_precedes = di > 0 or (di == 0 and dj > 0)
            if node_precedes:
                dominates &= v >= lo[window] - tie
            else:
                dominates &= v > lo[window] + tie
            exceeds_one |= v > hi[window] + tie
    rows, cols = np.nonzero(dominates & exceeds_one & (v >= min_value))
    # descending value; a run of values each within a tie of the one
    # before is one group, taken in (row, col) order
    by_value = sorted(zip(rows.tolist(), cols.tolist()), key=lambda rc: -v[rc])
    groups = []
    for rc in by_value:
        if groups and v[groups[-1][-1]] - v[rc] <= tie:
            groups[-1].append(rc)
        else:
            groups.append([rc])
    xs = indicator_map.grid.x_nodes()
    ys = indicator_map.grid.y_nodes()
    kept = []
    for i, j in (rc for group in groups for rc in sorted(group)):
        pos = np.array([xs[j], ys[i]])
        if all(np.hypot(*(pos - p.position)) >= min_separation for p in kept):
            kept.append(Peak(position=pos, value=float(v[i, j])))
    return kept


def _assert_same_peaks(got, want):
    assert [(p.position.tolist(), p.value) for p in got] == \
        [(p.position.tolist(), p.value) for p in want]


def _ulp_perturbed(values, ulps):
    # each value moved by its own count of ulps, as rounding would move it
    out = values.copy()
    for _ in range(int(np.abs(ulps).max(initial=0))):
        step = ulps != 0
        out[step] = np.nextafter(out[step], np.sign(ulps[step]) * np.inf)
        ulps = ulps - np.sign(ulps)
    return out


@st.composite
def _tie_heavy_levels(draw):
    ny, nx = draw(st.integers(2, 12)), draw(st.integers(2, 12))
    levels = draw(st.lists(st.sampled_from([0.0, 0.2, 0.45, 0.5, 0.7, 1.0]),
                           min_size=3, max_size=4, unique=True))
    values = draw(arrays(float, (ny, nx), elements=st.sampled_from(levels)))
    ulps = draw(arrays(np.int64, (ny, nx), elements=st.integers(-4, 4)))
    grid = SearchGrid(0.0, (nx - 1) * 0.1, 0.0, (ny - 1) * 0.1, 0.1)
    assert (grid.nx, grid.ny) == (nx, ny)
    return grid, values, ulps


@st.composite
def _tie_heavy_maps(draw):
    # level maps with exact ties, as drawn or moved by a few ulps
    grid, values, ulps = draw(_tie_heavy_levels())
    if draw(st.booleans()):
        values = _ulp_perturbed(values, ulps)
    return IndicatorMap(grid=grid, values=values)


@settings(max_examples=300, deadline=None)
@given(imap=_tie_heavy_maps(), min_value=st.sampled_from([0.01, 0.45, 0.5, 0.99]),
       min_separation=st.sampled_from([0.05, 0.1, 0.15, 0.35]))
def test_extract_peaks_matches_padded_reference(imap, min_value, min_separation):
    _assert_same_peaks(extract_peaks(imap, min_value, min_separation),
                       _reference_peaks(imap, min_value, min_separation))


@settings(max_examples=300, deadline=None)
@given(levels=_tie_heavy_levels(), min_value=st.sampled_from([0.01, 0.3, 0.6, 0.99]),
       min_separation=st.sampled_from([0.05, 0.1, 0.15, 0.35]))
def test_ulp_moves_do_not_move_peaks(levels, min_value, min_separation):
    # a few ulps decide no tie, so the peaks keep their nodes and order
    grid, values, ulps = levels
    exact = extract_peaks(IndicatorMap(grid, values), min_value, min_separation)
    moved = extract_peaks(IndicatorMap(grid, _ulp_perturbed(values, ulps)),
                          min_value, min_separation)
    assert [p.position.tolist() for p in moved] == [p.position.tolist() for p in exact]


def test_extract_peaks_row_neighbors_do_not_wrap():
    # Row 1 is a plateau from the first column to the last; its peak, the
    # first node, is preceded in flat order by row 0's higher last node. The
    # peak at row 3's last node is followed in flat order by a higher node.
    values = np.zeros((6, 5))
    values[0, 4], values[1], values[3, 4], values[4, 0] = 1.0, 0.9, 0.7, 0.95
    imap = IndicatorMap(grid=SearchGrid(0.0, 4.0, 0.0, 5.0, 1.0), values=values)
    peaks = extract_peaks(imap, 0.5, 0.5)
    assert [(p.position.tolist(), p.value) for p in peaks] == [
        ([4.0, 0.0], 1.0), ([0.0, 4.0], 0.95), ([0.0, 1.0], 0.9), ([4.0, 3.0], 0.7)]
    _assert_same_peaks(peaks, _reference_peaks(imap, 0.5, 0.5))


def _columns(imap, lo, hi):
    g = imap.grid
    xs = g.x_nodes()
    return IndicatorMap(SearchGrid(xs[lo], xs[hi - 1], g.y_min, g.y_max, g.step),
                        imap.values[:, lo:hi])


@pytest.mark.parametrize("min_value", [0.01, 0.5])
def test_extract_peaks_matches_padded_reference_on_demo_maps(
        min_value, ex1_data_map, ex1_analytic_map, ex3_analytic_map, ex2_data,
        demo_wave):
    # Cropped at the top peak's column, ex1's data map peaks on its last
    # and then on its first column, where the row-neighbor filter sees
    # only one neighbor.
    top = int(np.argmax(ex1_data_map.values)) % ex1_data_map.grid.nx
    edges = [_columns(ex1_data_map, 0, top + 1),
             _columns(ex1_data_map, top, ex1_data_map.grid.nx)]
    for imap, col in zip(edges, (-1, 0)):
        assert imap.values[:, col].max() == 1.0
    # ex2 at 0 dB on a wide grid: about 500 peaks thinned at min_value 0.01
    noisy = compute_map(add_noise(ex2_data, NoiseSpec(snr_db=0.0, seed=0)),
                        SearchGrid(-3.0, 3.0, -3.0, 3.0, 0.02),
                        wavenumber=demo_wave.wavenumber)
    for imap in (ex1_data_map, ex1_analytic_map, ex3_analytic_map, *edges, noisy):
        want = _reference_peaks(imap, min_value, 0.05)
        _assert_same_peaks(extract_peaks(imap, min_value, 0.05), want)
    assert len(want) > (400 if min_value == 0.01 else 0)


def test_extract_peaks_parameter_validation(ex1_analytic_map):
    with pytest.raises(ValueError):
        extract_peaks(ex1_analytic_map, min_value=0.0, min_separation=0.1)
    with pytest.raises(ValueError):
        extract_peaks(ex1_analytic_map, min_value=0.5, min_separation=0.0)


# ---------------------------------------------------------------------------
# Export
# ---------------------------------------------------------------------------

def test_pgm_all_ones(tmp_path):
    grid = SearchGrid(0.0, 1.0, 0.0, 1.0, 1.0)
    imap = IndicatorMap(grid=grid, values=np.ones((2, 2)))
    path = tmp_path / "ones.pgm"
    export_map(imap, path, "pgm")
    blob = path.read_bytes()
    header = b"P5\n2 2\n65535\n"
    assert blob[:len(header)] == header
    assert blob[len(header):] == b"\xff\xff" * 4


def test_pgm_row_zero_is_y_max(tmp_path):
    grid = SearchGrid(0.0, 1.0, 0.0, 1.0, 1.0)
    imap = IndicatorMap(grid=grid, values=np.array([[0.0, 0.0], [1.0, 1.0]]))
    path = tmp_path / "rows.pgm"
    export_map(imap, path, "pgm")
    pixels = path.read_bytes()[len(b"P5\n2 2\n65535\n"):]
    assert pixels == b"\xff\xff" * 2 + b"\x00\x00" * 2


def test_csv_round_trip_full_precision(tmp_path, ex1_scene, demo_wave):
    grid = SearchGrid(-0.5, 0.5, -0.5, 0.5, 0.25)
    imap = compute_map((ex1_scene, demo_wave), grid)
    path = tmp_path / "map.csv"
    export_map(imap, path, "csv")
    rows = np.loadtxt(path, delimiter=",", skiprows=1, ndmin=2)
    assert rows.shape == (grid.nx * grid.ny, 3)
    reloaded = rows[:, 2].reshape(grid.ny, grid.nx)
    assert np.array_equal(reloaded, imap.values)
    assert np.array_equal(rows[:25, 0].reshape(5, 5)[0], grid.x_nodes())


def test_csv_export_is_byte_identical_to_per_node_reference(tmp_path):
    # 11 x 5 nodes fill one band; with 11 x 33 nodes the last band has one
    # row. Fourth powers of uniforms put about 10 % of values below 1e-4.
    assert SearchGrid(-0.7, 0.3, -1.3, 1.9, 0.1).ny == 2 * BAND_ROWS + 1
    for y_max in (-0.9, 1.9):
        grid = SearchGrid(-0.7, 0.3, -1.3, y_max, 0.1)
        values = np.random.default_rng(3).random((grid.ny, grid.nx)) ** 4
        values.flat[:6] = [0.0, 1.0, 5e-324, 0.1 + 0.2, 1.0 / 3.0, 1.0 - 2.0 ** -53]
        imap = IndicatorMap(grid=grid, values=values)
        path = tmp_path / "map.csv"
        export_map(imap, path, "csv")
        reference = "x,y,value\n" + "".join(
            f"{x:.17g},{y:.17g},{imap.values[i, j]:.17g}\n"
            for i, y in enumerate(grid.y_nodes())
            for j, x in enumerate(grid.x_nodes()))
        assert path.read_bytes() == reference.encode("ascii")
        reloaded = np.loadtxt(path, delimiter=",", skiprows=1, ndmin=2)
        assert np.array_equal(reloaded[:, 2], values.ravel())


def test_csv_export_of_a_wide_map_bands_by_nodes(tmp_path):
    # 2 x 300,001 nodes: each row goes in column chunks of BAND_NODES, in
    # order. Rows-only bands held a (2, 300001, 21) word matrix (50 MB)
    # and peaked at 246.6 MB (tracemalloc, numpy 2.4); chunks stay below
    # 40 % of that.
    import tracemalloc

    grid = SearchGrid(0.0, 3.0, 0.0, 1e-5, 1e-5)
    assert (grid.ny, grid.nx) == (2, 300001)
    values = np.random.default_rng(5).random((grid.ny, grid.nx)) ** 4
    imap = IndicatorMap(grid=grid, values=values)
    path = tmp_path / "map.csv"
    tracemalloc.start()
    try:
        export_map(imap, path, "csv")
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 0.4 * 246.6e6
    reference = "x,y,value\n" + "".join(
        f"{x:.17g},{y:.17g},{v:.17g}\n"
        for y, row in zip(grid.y_nodes().tolist(), values.tolist())
        for x, v in zip(grid.x_nodes().tolist(), row))
    assert path.read_bytes() == reference.encode("ascii")


def _formatted(values):
    # the value field of each CSV line, without its newline
    values = np.asarray(values, dtype=float)
    words = np.empty((values.size, 8), np.uint32)
    _value_words(values, _NEWLINE, words)
    words = words.view(np.uint8)
    return [bytes(row[row != 0]).decode("ascii").removesuffix("\n")
            for row in words]


def _near_powers_of_ten():
    # 10**-k and a few ulp on either side, k = 0..6
    base = np.array([10.0 ** -k for k in range(7)]).view(np.int64)
    return (base[:, None] + np.arange(-3, 4)).ravel().view(np.float64)


_FORMATTER_INPUTS = st.one_of(
    st.floats(allow_nan=False, allow_infinity=False),
    st.floats(0.0, 1.0),
    st.floats(1e-4, 1.0, exclude_max=True),
    st.sampled_from(_near_powers_of_ten().tolist()),
    # exact ties at the 17th digit, which round half to even
    st.integers(13107, 2 ** 17 - 1).map(lambda k: (2 * k + 1) * 2.0 ** -18))


@settings(max_examples=300, deadline=None)
@given(st.lists(_FORMATTER_INPUTS, min_size=1, max_size=64))
def test_value_formatter_matches_python_17g(values):
    assert _formatted(values) == [f"{x:.17g}" for x in values]


def test_value_formatter_edge_cases():
    cases = [0.0, -0.0, 1.0, 5e-324, 1e-4, 0.1 + 0.2, 1.0 - 2.0 ** -53,
             np.nextafter(1e-4, 0.0), np.nextafter(1e-4, 1.0), 0.5, 0.1, 1.5,
             -0.3, *_near_powers_of_ten().tolist()]
    assert _formatted(cases) == [f"{x:.17g}" for x in cases]
    # 0.100009918212890625 and 0.100022888183593750 are exact ties
    assert _formatted([26217 * 2.0 ** -18, 26215 * 2.0 ** -18]) == [
        "0.10000991821289062", "0.10000228881835938"]


def test_every_demo_map_reloads_bit_for_bit(tmp_path, demo_wave, default_grid,
                                             obs256):
    for which in ("ex1", "ex2", "ex3"):
        scene = example_scene(which)
        data = synthesize_far_field(scene, demo_wave, obs256)
        for imap in (compute_map(data, default_grid,
                                 wavenumber=demo_wave.wavenumber),
                     compute_map((scene, demo_wave), default_grid)):
            path = tmp_path / f"{which}.csv"
            export_map(imap, path, "csv")
            rows = np.loadtxt(path, delimiter=",", skiprows=1, ndmin=2)
            assert np.array_equal(rows[:, 2], imap.values.ravel())
            xs, ys = np.meshgrid(default_grid.x_nodes(), default_grid.y_nodes())
            assert np.array_equal(rows[:, 0], xs.ravel())
            assert np.array_equal(rows[:, 1], ys.ravel())


def test_pgm_rejects_out_of_range(tmp_path):
    grid = SearchGrid(0.0, 1.0, 0.0, 1.0, 1.0)
    imap = IndicatorMap(grid=grid, values=np.array([[0.0, 0.5], [1.0, 1.5]]))
    with pytest.raises(ValueError):
        export_map(imap, tmp_path / "bad.pgm", "pgm")


def test_export_unknown_format(tmp_path, ex1_analytic_map):
    with pytest.raises(ValueError):
        export_map(ex1_analytic_map, tmp_path / "map.xyz", "xyz")


def test_export_surfaces_path_errors(ex1_analytic_map, tmp_path):
    missing_dir = tmp_path / "nope" / "map.csv"
    with pytest.raises(OSError) as err:
        export_map(ex1_analytic_map, missing_dir, "csv")
    assert "map.csv" in str(err.value)


def test_undersampled_data_map_still_finite(ex1_scene, demo_wave):
    obs = make_observation_set(8)
    data = synthesize_far_field(ex1_scene, demo_wave, obs)
    grid = SearchGrid(-1.0, 1.0, -1.0, 1.0, 0.1)
    imap = compute_map(data, grid, wavenumber=demo_wave.wavenumber)
    assert np.all(np.isfinite(imap.values))
