"""Grid sweeps, peak extraction, and map export."""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from hypothesis.extra.numpy import arrays

from dsm2d.cli import example_scene
from dsm2d.forward import FarFieldData, contrast_factor, synthesize_far_field
from dsm2d.imaging import (BAND_ROWS, MAX_GRID_NODES, IndicatorMap, Peak,
                           SearchGrid, _analytic_band_values, _value_words,
                           compute_map, export_map, extract_peaks)
from dsm2d.indicator import (closed_form_magnitude, dsm_indicator_raw,
                             predicted_peaks)
from dsm2d.model import Inhomogeneity, Scene, make_observation_set
from dsm2d.specfun import bessel_j1


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


def _per_inclusion_band_values(scene, wave, x_nodes, y_band):
    # Oracle: one complex term per inclusion, each with its own J1 call.
    k, d = wave.wavenumber, wave.incident_direction
    total = np.zeros((y_band.size, x_nodes.size), dtype=complex)
    for inc in scene.inclusions:
        dx = inc.center[0] - x_nodes
        dy = (inc.center[1] - y_band)[:, np.newaxis]
        dist = np.hypot(dx, dy)
        directional = (dx * d[0] + dy * d[1]) / np.where(dist == 0.0, 1.0, dist)
        weight = (inc.radius ** 2
                  * contrast_factor(inc.permeability, scene.background_permeability)
                  * np.exp(1j * k * float(np.dot(d, inc.center))))
        total += weight * directional * bessel_j1(k * dist)
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
    for iy in range(0, grid.ny, BAND_ROWS):
        band = ys[iy:iy + BAND_ROWS]
        got = _analytic_band_values(scene, demo_wave, xs, band)
        want = _per_inclusion_band_values(scene, demo_wave, xs, band)
        assert got.tobytes() == want.tobytes()


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
    scaled_data = FarFieldData(
        observation_set=ex1_data.observation_set,
        incident_direction=ex1_data.incident_direction,
        samples=(3.0 - 4.0j) * ex1_data.samples)
    base = compute_map(ex1_data, grid, wavenumber=demo_wave.wavenumber)
    scaled = compute_map(scaled_data, grid, wavenumber=demo_wave.wavenumber)
    assert np.max(np.abs(base.values - scaled.values)) < 1e-12
    assert np.argmax(base.values) == np.argmax(scaled.values)


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


# Hashes the data map of ex2 on grids 401 nodes wide whose row counts leave
# a last band of 0, 1 and 2 rows, and on one grid shorter than a band. The
# grids are wide enough for OpenBLAS to split each band product over threads.
_BLAS_PROBE = """
import hashlib
from dsm2d.cli import example_scene, example_wave
from dsm2d.forward import synthesize_far_field
from dsm2d.imaging import BAND_ROWS, SearchGrid, compute_map
from dsm2d.model import make_observation_set
wave = example_wave()
data = synthesize_far_field(example_scene("ex2"), wave, make_observation_set(256))
for ny in (2 * BAND_ROWS, 2 * BAND_ROWS + 1, 2 * BAND_ROWS + 2, BAND_ROWS // 2 + 1):
    grid = SearchGrid(-12.5, 12.5, -1.0, -1.0 + (ny - 1) * 0.0625, 0.0625)
    assert (grid.nx, grid.ny) == (401, ny)
    values = compute_map(data, grid, wavenumber=wave.wavenumber).values
    print(ny, hashlib.sha256(values.tobytes()).hexdigest())
"""


def test_data_map_is_bit_invariant_under_blas_thread_count(fresh_python):
    single = fresh_python(_BLAS_PROBE, OPENBLAS_NUM_THREADS="1").splitlines()
    assert [line.split()[0] for line in single] == ["32", "33", "34", "9"]
    assert fresh_python(_BLAS_PROBE, OPENBLAS_NUM_THREADS="2").splitlines() == single


def test_import_leaves_the_thread_pool_unloaded(fresh_python):
    # concurrent.futures costs about 6 ms at import; only threads > 1 uses it
    probe = "import sys, dsm2d.cli; print('concurrent.futures' in sys.modules)"
    assert fresh_python(probe).strip() == "False"


def test_map_rejects_missing_wavenumber(ex1_data):
    grid = SearchGrid(-1.0, 1.0, -1.0, 1.0, 0.5)
    with pytest.raises(ValueError):
        compute_map(ex1_data, grid)


def test_map_rejects_zero_data(obs256):
    grid = SearchGrid(-1.0, 1.0, -1.0, 1.0, 0.5)
    silent = FarFieldData(observation_set=obs256,
                          incident_direction=np.array([1.0, 0.0]),
                          samples=np.zeros(256, dtype=complex))
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
    expected = [(0.615, 0.42), (0.78, 0.585)]  # nearest grid nodes
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
        # every neighbor is smaller, or ties with a later (row, col) node
        for di in (-1, 0, 1):
            for dj in (-1, 0, 1):
                if di == 0 and dj == 0:
                    continue
                ni, nj = i + di, j + dj
                if 0 <= ni < values.shape[0] and 0 <= nj < values.shape[1]:
                    neighbor = values[ni, nj]
                    assert neighbor < peak.value or (
                        neighbor == peak.value
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
    # with -inf (for dominance) and +inf (so borders never count as exceeded).
    v = indicator_map.values
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
                dominates &= v >= lo[window]
            else:
                dominates &= v > lo[window]
            exceeds_one |= v > hi[window]
    rows, cols = np.nonzero(dominates & exceeds_one & (v >= min_value))
    order = np.lexsort((cols, rows, -v[rows, cols]))
    xs = indicator_map.grid.x_nodes()
    ys = indicator_map.grid.y_nodes()
    kept = []
    for idx in order:
        i, j = int(rows[idx]), int(cols[idx])
        pos = np.array([xs[j], ys[i]])
        if all(np.hypot(*(pos - p.position)) >= min_separation for p in kept):
            kept.append(Peak(position=pos, value=float(v[i, j])))
    return kept


def _assert_same_peaks(got, want):
    assert [(p.position.tolist(), p.value) for p in got] == \
        [(p.position.tolist(), p.value) for p in want]


@st.composite
def _tie_heavy_maps(draw):
    ny, nx = draw(st.integers(2, 12)), draw(st.integers(2, 12))
    levels = draw(st.lists(st.sampled_from([0.0, 0.2, 0.45, 0.5, 0.7, 1.0]),
                           min_size=3, max_size=4, unique=True))
    values = draw(arrays(float, (ny, nx), elements=st.sampled_from(levels)))
    grid = SearchGrid(0.0, (nx - 1) * 0.1, 0.0, (ny - 1) * 0.1, 0.1)
    assert (grid.nx, grid.ny) == (nx, ny)
    return IndicatorMap(grid=grid, values=values)


@settings(max_examples=300, deadline=None)
@given(imap=_tie_heavy_maps(), min_value=st.sampled_from([0.01, 0.45, 0.5, 0.99]),
       min_separation=st.sampled_from([0.05, 0.1, 0.15, 0.35]))
def test_extract_peaks_matches_padded_reference(imap, min_value, min_separation):
    _assert_same_peaks(extract_peaks(imap, min_value, min_separation),
                       _reference_peaks(imap, min_value, min_separation))


@pytest.mark.parametrize("min_value", [0.01, 0.5])
def test_extract_peaks_matches_padded_reference_on_demo_maps(
        min_value, ex1_data_map, ex1_analytic_map, ex3_analytic_map):
    for imap in (ex1_data_map, ex1_analytic_map, ex3_analytic_map):
        _assert_same_peaks(extract_peaks(imap, min_value, 0.05),
                           _reference_peaks(imap, min_value, 0.05))


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


def _formatted(values):
    # the value field of each CSV line, without its newline
    words = _value_words(np.asarray(values, dtype=float)).view(np.uint8)
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
