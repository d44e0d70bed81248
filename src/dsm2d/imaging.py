"""Search grids, indicator-map assembly, peak extraction, file export.

Maps are evaluated over a rectangular node grid and normalized by their
grid maximum. Both sweeps run over bands of at most ``BAND_ROWS`` rows.
The closed form runs elementwise over the tiles of ``_tiles``, and can map
them over a thread pool. The data map sweeps only the rows on one side of
the grid's centre, with fixed-shape matrix products per band, always
serially, since BLAS threads each product; each band's moduli are written
straight into its rows and their mirror rows. Every map is bit-identical
for any worker count and any BLAS thread count.

The closed form scales inclusion m's offsets x_m - x by s_m = 2^-e_m, one
exact power of two per map, with e_m from ``frexp`` of the largest
|x_m - corner| component over the grid's corner nodes. Every scaled
offset then lies in [-1, 1], so |x - x_m| s_m = sqrt(dx^2 + dy^2) needs
no ``hypot``: the squares neither overflow nor lose a distance to
underflow, and in the normal range the bits are those of the unscaled
sqrt. The directional factor (dx d0 + dy d1) / dist is scale-free; where
dist = 0 (a node on a center) it is left undivided, and J1(0) = 0 makes
that term exactly 0. J1's argument k |x - x_m| is dist times k / s_m,
rounded once, so it overflows exactly where the unscaled product does.
Each step is elementwise and the scales depend on the grid, not the tile,
so a node's bits do not depend on the tile it falls in, and the map is
bit-invariant under multiplying every length by a power of two.

The data map takes its reference z0 at the centre of the nodes,
(x_min + step (nx - 1)/2, y_min + step (ny - 1)/2), and node offsets
u_j = step (j - (nx - 1)/2), v_i = step (i - (ny - 1)/2) from it, which
are exactly antisymmetric. As e^{ik theta.z} = e^{ik theta.z0}
e^{ik theta.(z - z0)}, sample n is first multiplied by e^{+ik theta_n.z0},
which is skipped when z0 = 0 (a grid centred on the origin). It then
limits the far field to the grid's bandwidth. By Jacobi-Anger the test
function e^{ik theta.(z - z0)} has Fourier modes i^m J_m(k|z - z0|)
e^{-im phi} (phi the polar angle of z - z0), below 1e-16 for |m| > L over
the whole grid, with L = ``bessel_tail_order(kR)`` and R the distance
from z0 to a corner, half the grid's diagonal wherever the grid lies. So
the N-point sum sees only the data's modes |m| <= L, and once
N >= N' = 2L + 2 (rounded up to a multiple of 4) it equals, to rounding,
the same sum over N' samples of the data's trigonometric interpolant
truncated to those modes: c = fft(psi) / N with direction N at angle 0,
c_m for |m| <= L put at index m mod N', then ifft * N'. The map is
normalized by its maximum, so N / N' and the data's norm drop out. Below
N' the sum aliases and the N samples are used as they are.

The data map folds the mirror-symmetric direction set. Direction N - m is
direction m with sin theta negated; for even N, N/2 - m and N/2 + m negate
cos theta and both. So column m (0 <= m <= N//4 for even N, N//2 for odd)
holds psi1..psi4 at (c, s), (c, -s), (-c, s), (-c, -s) with (c, s) =
theta_m, and 0 in a slot whose direction an earlier slot already holds.
With a = psi1 + psi2 + psi3 + psi4, b = psi1 - psi2 + psi3 - psi4,
e = psi1 + psi2 - psi3 - psi4, f = psi1 - psi2 - psi3 + psi4, C = cos(k u c)
and S = sin(k u c), the correlation at row offset v is
``cos(k v s) @ W1 + sin(k v s) @ W2`` with W1 = a C + i e S and
W2 = i b C - f S, built once per map. cos(k v s) is even in v and
sin(k v s) odd, so rows v and -v get E + O and E - O with
E = cos(k v s) @ W1 and O = sin(k v s) @ W2, each a real product with
``W.view(float)`` viewed as complex. Only the ceil(ny/2) rows with v >= 0
are multiplied, in bands of ``BAND_ROWS`` rows, and row i's E - O goes to
row ny - 1 - i. Two rules, measured with OpenBLAS 0.3.31 (Haswell kernels)
at 1 and 2 threads, keep the bits independent of the thread count: W's nx
complex columns are zero-padded to a multiple of 4 (at 802 real output
columns the last 2 differed), and the inner dimension is cut into
``GEMM_CHUNK``-wide pieces whose products are summed in order (from an
inner width of 396 up, products differed). A third is kept from the
earlier band loop, where a 1-row last band rounded by the thread count:
no product has one row. A band has at least 2 rows and the last band is
shifted back to a full one, so when ny = 2 the band holds both rows.

Exports: CSV (``x,y,value`` per node, exact ``%.17g`` digits from
``forward``'s integer kernel, streamed per tile of ``_tiles``) and PGM
(P5, 16-bit big-endian, top = y_max).
"""

from __future__ import annotations

import math
import os
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .forward import BAND_NODES, FarFieldData, _NEWLINE, _value_words, unit_scaled
from .model import ObservationSet, Scene, WaveContext, contrast_factor
from .specfun import bessel_j1, bessel_tail_order

GRID_EPS = 1e-9  # guards node counting against FP drift in (max-min)/step
BAND_ROWS = 16  # map rows per work unit: vectorized, temporaries stay small
GEMM_CHUNK = 384  # widest inner dimension of one data-map product, see module doc
PEAK_TIE = 2.0 ** -45  # neighbors this close, relative to the map's maximum, tie
BAND_FLOOR = 1e-12  # least share of the far field's norm kept by the resample
MAX_GRID_NODES = 10 ** 8  # 25x a 2001 x 2001 grid; a map of it is 800 MB


@dataclass(frozen=True)
class SearchGrid:
    """Rectangular node grid: bounds plus a uniform step."""

    x_min: float
    x_max: float
    y_min: float
    y_max: float
    step: float

    def __post_init__(self):
        if not (-math.inf < self.x_min < self.x_max < math.inf
                and -math.inf < self.y_min < self.y_max < math.inf):
            raise ValueError("grid bounds must be finite with min < max on both axes")
        if not (0 < self.step < math.inf):
            raise ValueError("grid step must be positive and finite")
        # the float test first: int() of an infinite node count raises
        longest = max(self.x_max - self.x_min, self.y_max - self.y_min)
        if longest / self.step > MAX_GRID_NODES or self.nx * self.ny > MAX_GRID_NODES:
            raise ValueError(f"grid must have at most {MAX_GRID_NODES:,} nodes")
        if self.nx < 2 or self.ny < 2:
            raise ValueError("grid needs at least 2 nodes per axis")

    @property
    def nx(self) -> int:
        return int(math.floor((self.x_max - self.x_min) / self.step + 1 + GRID_EPS))

    @property
    def ny(self) -> int:
        return int(math.floor((self.y_max - self.y_min) / self.step + 1 + GRID_EPS))

    def x_nodes(self) -> np.ndarray:
        return self.x_min + self.step * np.arange(self.nx)

    def y_nodes(self) -> np.ndarray:
        return self.y_min + self.step * np.arange(self.ny)


@dataclass(frozen=True)
class IndicatorMap:
    """Real map over a grid; row i of ``values`` holds y node i (ascending).

    A float64 ``values`` array is taken over without a copy and made read-only.
    """

    grid: SearchGrid
    values: np.ndarray

    def __post_init__(self):
        v = np.asarray(self.values, dtype=float)
        v.setflags(write=False)
        object.__setattr__(self, "values", v)
        if v.shape != (self.grid.ny, self.grid.nx):
            raise ValueError("values shape must be (ny, nx)")
        if not np.all(np.isfinite(v)):
            raise ValueError("map values must be finite")


@dataclass(frozen=True)
class Peak:
    """A strict local maximum of the map, at node resolution."""

    position: np.ndarray
    value: float


def _closed_form_weights(scene: Scene, wave: WaveContext) -> np.ndarray:
    """r_m^2 * contrast_m * exp(i k d.x_m) per inclusion, ``unit_scaled``:
    one exact power of two cancels in the normalization, so the map's bits
    stay the same while no band term underflows to zero."""
    k, d, mu0 = wave.wavenumber, wave.incident_direction, scene.background_permeability
    with np.errstate(invalid="ignore"):  # an infinite k d.x: the map check reports it
        return unit_scaled(np.array([
            inc.radius ** 2 * contrast_factor(inc.permeability, mu0)
            * np.exp(1j * k * float(np.dot(d, inc.center)))
            for inc in scene.inclusions]))[0]


def _offset_exponents(centers: np.ndarray, xs: np.ndarray, ys: np.ndarray) -> np.ndarray:
    """e_m with 2^(e_m - 1) <= the largest |x_m - corner| component < 2^e_m,
    over the grid's corner nodes: 2^-e_m puts every offset of inclusion m
    in [-1, 1] (module doc). 0 for an offset that overflowed."""
    corners = np.array([[xs[0], xs[-1]], [ys[0], ys[-1]]])
    with np.errstate(over="ignore"):
        return np.frexp(np.abs(centers[:, :, np.newaxis] - corners).max(axis=(1, 2)))[1]


def _analytic_band_values(wave: WaveContext, centers: np.ndarray, weights: np.ndarray,
                          exps: np.ndarray, x_nodes: np.ndarray, y_band: np.ndarray,
                          out: np.ndarray) -> None:
    # Closed form over a (rows x cols) tile, its modulus written to `out`.
    # Every operation is elementwise and the scales 2^-e_m are per map, so
    # a node's bits do not depend on the tile it falls in. All inclusions
    # are stacked on axis 0, so J1 is called once per tile.
    k = wave.wavenumber
    d = wave.incident_direction
    e = exps[:, np.newaxis, np.newaxis]
    # bessel_j1 rejects a distance or k*dist that overflowed
    with np.errstate(over="ignore", invalid="ignore"):
        # offsets scaled by 2^-e_m while they are (n_inc, 1, cols) and
        # (n_inc, rows, 1): exact, and their squares cannot overflow
        dx = np.ldexp(centers[:, 0, np.newaxis, np.newaxis] - x_nodes, -e)
        dy = np.ldexp(centers[:, 1, np.newaxis, np.newaxis] - y_band[:, np.newaxis], -e)
        dist = dx * dx + dy * dy
        np.sqrt(dist, out=dist)
        directional = dx * d[0] + dy * d[1]
        # On a center dist = 0: left undivided, and J1(0) = 0 makes the term 0
        np.divide(directional, dist, out=directional, where=dist != 0.0)
        # k |x - x_m| = dist * (k 2^e_m), one rounding of the unscaled
        # product, which overflows where that product does. Where k 2^e_m
        # is not a normal double, scale back after the multiply instead.
        factors = np.ldexp(k, exps)
        if np.all((factors >= np.finfo(float).tiny) & (factors < np.inf)):
            dist *= factors[:, np.newaxis, np.newaxis]
        else:
            dist *= k
            np.ldexp(dist, e, out=dist)
    directional *= bessel_j1(dist)
    # one complex temporary per inclusion, summed in scene order
    total = weights[0] * directional[0]
    for m in range(1, weights.size):
        total += weights[m] * directional[m]
    np.abs(total, out=out)


def _band_limited(psi: np.ndarray, order: int, count: int) -> np.ndarray:
    """``count`` samples, at directions 1..count, of the trigonometric
    interpolant of ``psi`` truncated to the modes |m| <= ``order``.

    Direction n sits at index n - 1 and direction N at angle 0, hence the
    rolls. Raises ``ValueError`` when those modes hold at most
    ``BAND_FLOOR`` of the far field's norm: a map of them would show only
    rounding (and the direct sum little more than the modes' 1e-16 tail).
    """
    coeffs = np.fft.fft(np.roll(psi, 1)) / psi.size
    kept = np.zeros(count, dtype=complex)
    kept[:order + 1] = coeffs[:order + 1]
    kept[count - order:] = coeffs[psi.size - order:]
    if np.linalg.norm(kept) <= BAND_FLOOR * np.linalg.norm(coeffs):
        raise ValueError(f"far field has no energy at the modes |m| <= {order} "
                         "that the grid resolves; the map would show only rounding")
    return np.roll(np.fft.ifft(kept) * count, -1)


def _products(lhs: np.ndarray, rhs: np.ndarray, chunks: list) -> np.ndarray:
    # lhs @ rhs as GEMM_CHUNK-wide inner pieces summed in order (module
    # doc), viewed as complex
    out = lhs[:, chunks[0]] @ rhs[chunks[0]]
    for chunk in chunks[1:]:
        out += lhs[:, chunk] @ rhs[chunk]
    return out.view(complex)


def _data_values(data: FarFieldData, grid: SearchGrid, wavenumber: float) -> np.ndarray:
    # |sum_n psi_n e^{ik theta_n.z}| at every node, unnormalized (module
    # doc). unit_scaled is an exact power of two: the same map bits, and
    # no over- or underflow.
    psi, _ = unit_scaled(data.samples)
    if not np.any(psi):
        raise ValueError("indicator undefined for all-zero data")
    count = data.observation_set.count
    directions = data.observation_set.directions
    nx, ny = grid.nx, grid.ny
    # z0 at the centre of the nodes, and offsets from it that are exactly
    # antisymmetric: row i and row ny - 1 - i have opposite v
    z0 = (grid.x_min + grid.step * (nx - 1) / 2, grid.y_min + grid.step * (ny - 1) / 2)
    u, v = (grid.step * (np.arange(n) - (n - 1) / 2) for n in (nx, ny))
    if z0 != (0.0, 0.0):
        # Far from the origin k*z overflows to a NaN phase; the map check
        # reports that as non-finite values.
        with np.errstate(over="ignore", invalid="ignore"):
            psi = psi * np.exp(1j * wavenumber * (directions[:, 0] * z0[0]
                                                  + directions[:, 1] * z0[1]))
    # Resample to the grid's bandwidth. L > kR, so only N >= 2 kR + 2 can
    # reach N' = 2L + 2, and only then is L sought.
    kr = wavenumber * math.hypot(u[-1], v[-1])
    if count >= 2.0 * kr + 2.0:
        order = bessel_tail_order(kr)
        resampled = -(-(2 * order + 2) // 4) * 4
        if count >= resampled:
            psi = _band_limited(psi, order, resampled)
            count = resampled
            directions = ObservationSet(count).directions
    # Fold column m with its three mirrors; direction n sits at index
    # n - 1 (mod N). For odd N the x-mirror slots repeat slots 1 and 2, so
    # they are zeroed as duplicates.
    mirror = count // 2 if count % 2 == 0 else 0
    m = np.arange(count // (4 if mirror else 2) + 1)
    slots = np.stack([m, -m, mirror - m, mirror + m]) % count
    distinct = np.ones(slots.shape, dtype=bool)
    for i in range(1, 4):
        distinct[i] = np.all(slots[i] != slots[:i], axis=0)
    p1, p2, p3, p4 = np.where(distinct, psi[slots - 1], 0.0)
    s12, d12, s34, d34 = p1 + p2, p1 - p2, p3 + p4, p3 - p4
    a, e, b, f = s12 + s34, s12 - s34, d12 + d34, d12 - d34
    cos_m, sin_m = directions[m - 1].T
    # W1 (to cos(k v s)) and W2 (to sin(k v s))
    w = np.zeros((2, m.size, -(-nx // 4) * 4), dtype=complex)
    with np.errstate(over="ignore", invalid="ignore"):
        phase_x = wavenumber * np.outer(cos_m, u)
        c, s = np.cos(phase_x), np.sin(phase_x)
        w[0, :, :nx] = a[:, None] * c + (1j * e)[:, None] * s
        w[1, :, :nx] = (1j * b)[:, None] * c - f[:, None] * s
    del phase_x, c, s
    w = w.view(float)
    chunks = [slice(lo, lo + GEMM_CHUNK) for lo in range(0, m.size, GEMM_CHUNK)]
    values = np.empty((ny, nx))
    # Rows ny // 2 .. ny - 1 have v >= 0; row i gives E + O, its mirror
    # ny - 1 - i gives E - O. A band has at least 2 rows, the last one
    # shifted back to a full band: no 1-row product (module doc).
    start = ny // 2
    rows = min(BAND_ROWS, max(ny - start, 2))
    for iy in range(start, ny, rows):
        lo = min(iy, ny - rows)
        with np.errstate(over="ignore", invalid="ignore"):
            phase_y = wavenumber * np.outer(v[lo:lo + rows], sin_m)
            even = _products(np.cos(phase_y), w[0], chunks)
            odd = _products(np.sin(phase_y), w[1], chunks)
            skip = iy - lo
            np.abs(even[skip:, :nx] + odd[skip:, :nx], out=values[iy:lo + rows])
            even -= odd
            np.abs(even[skip:, :nx], out=values[ny - lo - rows:ny - iy][::-1])
    return values


def _tiles(ny: int, nx: int, budget: int):
    """``(row slice, column slice)`` of each tile of an ny x nx sweep, band
    by band, each band left to right.

    Bands have min(``BAND_ROWS``, budget // nx) rows, at least 1, and a row
    wider than ``budget`` goes in column chunks of ``budget`` nodes: no tile
    holds more than ``budget`` nodes, and the nodes come out y outer, x
    inner.
    """
    rows = min(BAND_ROWS, max(1, budget // nx))
    cols = min(nx, budget)
    for iy in range(0, ny, rows):
        for lo in range(0, nx, cols):
            yield slice(iy, iy + rows), slice(lo, lo + cols)


def _closed_form_values(scene: Scene, wave: WaveContext, grid: SearchGrid,
                        threads: int) -> np.ndarray:
    # the closed form's modulus at every node, unnormalized, tile by tile
    xs = grid.x_nodes()
    ys = grid.y_nodes()
    weights = _closed_form_weights(scene, wave)
    centers = scene.centers
    exps = _offset_exponents(centers, xs, ys)
    values = np.empty((grid.ny, grid.nx))

    def fill(tile: tuple) -> None:
        rows, cols = tile  # each tile writes its slice
        _analytic_band_values(wave, centers, weights, exps, xs[cols], ys[rows],
                              values[rows, cols])

    # the (n_inc, rows, cols) temporaries of a tile stay within BAND_NODES
    tiles = _tiles(grid.ny, grid.nx, max(1, BAND_NODES // weights.size))
    # pool.map submits every tile at once, so the pool would start `threads`
    # OS threads if there are that many tiles
    threads = min(threads, os.cpu_count() or 1)
    if threads > 1:
        from concurrent.futures import ThreadPoolExecutor  # ~6 ms to import
        with ThreadPoolExecutor(max_workers=threads) as pool:
            for _ in pool.map(fill, tiles):  # each result re-raises its tile's error
                pass
    else:
        for tile in tiles:
            fill(tile)
    return values


def compute_map(source, grid: SearchGrid, *, wavenumber: float = None,
                threads: int = 1) -> IndicatorMap:
    """Evaluate the indicator at every grid node, then grid-max normalize.

    Parameters
    ----------
    source : FarFieldData or (Scene, WaveContext)
        Far-field data (requires ``wavenumber``) for the measured-data
        indicator, or a scene/wave pair for the closed-form map.
    grid : SearchGrid
    wavenumber : float, required for a FarFieldData source
    threads : int
        Worker threads for the closed-form sweep, which maps over the
        ``_tiles`` of at most ``BAND_NODES`` (inclusion, node) terms,
        capped at the CPU count. The data map ignores it and runs serially:
        BLAS already threads its band products. The output is bit-identical
        for every thread count and every BLAS thread count.

    Raises ``ValueError`` for all-zero data, for data with no energy at
    the modes the grid resolves (``_band_limited``), and for a map that
    is all zero or not finite.
    """
    if isinstance(source, FarFieldData):
        if wavenumber is None or not (wavenumber > 0):
            raise ValueError("a positive wavenumber is required with data sources")
        values = _data_values(source, grid, wavenumber)
    else:
        values = _closed_form_values(*source, grid, threads)
    peak = values.max()
    if peak == 0.0:
        raise ValueError("degenerate all-zero indicator map")
    values /= peak
    return IndicatorMap(grid=grid, values=values)


def extract_peaks(indicator_map: IndicatorMap, min_value: float,
                  min_separation: float) -> list:
    """Strict 8-neighborhood local maxima, thinned to a minimum spacing.

    Values within ``PEAK_TIE`` times the map's maximum of each other are
    tied: rounding decides nothing. Strictness is taken under the order
    (value, row, col), a tie between neighbors going to the earlier node.
    Peaks whose true location falls mid-cell produce two nodes that tie in
    exact arithmetic, and a plain value-strict test could drop both or keep
    whichever rounding favours; the tie-break keeps exactly the first. A
    candidate must still exceed at least one neighbor beyond a tie, so
    constant maps yield no peaks.

    Candidates at or above ``min_value`` are kept greedily in order of
    descending value, values tied in a chain taken by row, then column,
    dropping any within ``min_separation`` of an already-kept peak. Each
    peak reports its node's exact value.
    """
    if not (0.0 < min_value < 1.0):
        raise ValueError("min_value must lie in (0, 1)")
    if not (min_separation > 0):
        raise ValueError("min_separation must be positive")
    v = indicator_map.values
    ny, nx = v.shape
    flat = v.ravel()
    idx = np.flatnonzero(flat >= min_value)
    if idx.size == 0:
        return []
    rows, cols = np.divmod(idx, nx)
    here = flat[idx]
    tie = PEAK_TIE * here.max()  # the map's maximum, which is at least min_value
    # Candidates: not below either row neighbor beyond a tie, which every
    # peak satisfies; the full test runs on these alone. The flat neighbors
    # of columns 0 and nx - 1 lie on other rows: not tested.
    cand = ((cols == 0) | (here >= flat.take(idx - 1, mode="clip") - tie)) & (
        (cols == nx - 1) | (here >= flat.take(idx + 1, mode="clip") - tie))
    rows, cols, here = rows[cand], cols[cand], here[cand]
    dominates = np.ones(rows.size, dtype=bool)
    exceeds_one = np.zeros(rows.size, dtype=bool)
    for di in (-1, 0, 1):
        for dj in (-1, 0, 1):
            if di == dj == 0:
                continue
            r, c = rows + di, cols + dj
            inside = (r >= 0) & (r < ny) & (c >= 0) & (c < nx)
            there = v[np.clip(r, 0, ny - 1), np.clip(c, 0, nx - 1)]
            # a tie beats a later node in (row, col) order, not an earlier one
            beats = here >= there - tie if (di, dj) > (0, 0) else here > there + tie
            dominates &= beats | ~inside
            exceeds_one |= (here > there + tie) & inside
    keep = dominates & exceeds_one
    rows, cols, here = rows[keep], cols[keep], here[keep]
    order = np.argsort(-here, kind="stable")
    # a drop beyond a tie from the next larger value starts a new group
    group = np.cumsum(np.diff(here[order], prepend=np.inf) < -tie)
    order = order[np.lexsort((cols[order], rows[order], group))]
    rows, cols = rows[order], cols[order]
    xs = indicator_map.grid.x_nodes()[cols]
    ys = indicator_map.grid.y_nodes()[rows]
    kept: list = []
    for n in range(order.size):  # each candidate against every kept peak at once
        if np.all(np.hypot(xs[n] - xs[kept], ys[n] - ys[kept]) >= min_separation):
            kept.append(n)
    return [Peak(position=np.array([xs[n], ys[n]]), value=float(v[rows[n], cols[n]]))
            for n in kept]


def export_map(indicator_map: IndicatorMap, path, fmt: str) -> None:
    """Write a map to disk as ``csv`` or 16-bit binary ``pgm``.

    CSV rows run y ascending (outer) and x ascending (inner), numbers as
    exact ``%.17g``, streamed per ``_tiles`` tile of at most ``BAND_NODES``
    nodes as a matrix of NUL-padded x, y and value words with the NULs
    dropped. PGM is P5 with maxval 65535, big-endian samples round(65535 *
    v), top row at y_max.
    """
    path = Path(path)
    v = indicator_map.values
    try:
        if fmt == "csv":
            # a node string "-1.2345678901234567e-308," fills at most 7 words
            xw, yw = (np.array([f"{x:.17g},".encode() for x in nodes.tolist()],
                               "S28").view(np.uint32).reshape(-1, 7)
                      for nodes in (indicator_map.grid.x_nodes(),
                                    indicator_map.grid.y_nodes()))
            with open(path, "wb") as fh:
                fh.write(b"x,y,value\n")
                for rows, cols in _tiles(*v.shape, BAND_NODES):
                    band = v[rows, cols]
                    words = np.empty((*band.shape, 22), np.uint32)
                    words[..., :7] = xw[cols]
                    words[..., 7:14] = yw[rows, np.newaxis]
                    _value_words(band, _NEWLINE, words[..., 14:])
                    raw = words.view(np.uint8).ravel()
                    fh.write(raw[raw != 0])
        elif fmt == "pgm":
            if v.min() < 0.0 or v.max() > 1.0:
                raise ValueError("PGM export requires values in [0, 1]; "
                                 "normalize the map first")
            pixels = np.rint(np.flipud(v) * 65535.0).astype(">u2")
            header = f"P5\n{v.shape[1]} {v.shape[0]}\n65535\n".encode("ascii")
            path.write_bytes(header + pixels.tobytes())
        else:
            raise ValueError(f"unknown export format {fmt!r} (use 'csv' or 'pgm')")
    except OSError as exc:
        raise OSError(f"failed writing map {fmt.upper()} to {path}: {exc}") from exc

