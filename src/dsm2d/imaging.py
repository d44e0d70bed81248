"""Search grids, indicator-map assembly, peak extraction, file export.

Maps are evaluated over a rectangular node grid and normalized by their
grid maximum. Both sweeps run over fixed bands of ``BAND_ROWS`` rows:
elementwise for the closed form, one fixed-shape matrix product for the
data map. The closed form can map its bands over a thread pool; the data
map always runs them serially, since BLAS threads each product. Every map
is bit-identical for any worker count and any BLAS thread count.

The data map folds the mirror-symmetric direction set. Direction N - m is
direction m with sin theta negated; for even N, N/2 - m and N/2 + m negate
cos theta and both. So column m (0 <= m <= N//4 for even N, N//2 for odd)
holds psi1..psi4 at (c, s), (c, -s), (-c, s), (-c, -s) with (c, s) =
theta_m, and 0 in a slot whose direction an earlier slot already holds.
With a = psi1 + psi2 + psi3 + psi4, b = psi1 - psi2 + psi3 - psi4,
e = psi1 + psi2 - psi3 - psi4, f = psi1 - psi2 - psi3 + psi4, C = cos(k x c)
and S = sin(k x c), the correlation is
``cos(k y s) @ (a C + i e S) + sin(k y s) @ (i b C - f S)``. W, the two
complex blocks stacked, is built once per map; a band's correlation is
the real product ``[cos | sin](k y s) @ W.view(float)`` viewed as complex:
half the flops of the unfolded complex sum for even N. Two rules, measured
with OpenBLAS 0.3.31 (Haswell kernels) at 1 and 2 threads, keep its bits
independent of the thread count: W's nx complex columns are zero-padded to
a multiple of 4 (at 802 real output columns the last 2 differed), and the
inner dimension is cut into ``GEMM_CHUNK``-wide pieces whose products are
summed in order (from an inner width of 396 up, products differed).

Exports: CSV (``x,y,value`` per node, exact ``%.17g`` digits from integer
arithmetic, streamed per band) and PGM (P5, 16-bit big-endian, top = y_max).
"""

from __future__ import annotations

import math
import os
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .forward import FarFieldData, unit_scaled
from .model import Scene, WaveContext, contrast_factor
from .specfun import bessel_j1

GRID_EPS = 1e-9  # guards node counting against FP drift in (max-min)/step
BAND_ROWS = 16  # map rows per work unit: vectorized, temporaries stay small
GEMM_CHUNK = 384  # widest inner dimension of one data-map product, see module doc
MAX_GRID_NODES = 10 ** 8  # 25x a 2001 x 2001 grid; a map of it is 800 MB

# Tables for exact %.17g, built from bytes so byte order does not matter:
# "0." to "0.000" plus a leading digit; 4-digit groups, full and zero-stripped.
_U32, _M32, _ONE, _E8 = (np.uint64(k) for k in (32, 2 ** 32 - 1, 1, 10 ** 8))
_POW5 = np.array([5 ** 17, 5 ** 18, 5 ** 19, 5 ** 20], dtype=np.uint64)
_LEAD = np.array([p + bytes([d]) for p in (b"0.", b"0.0", b"0.00", b"0.000")
                  for d in b"0123456789"], "S8").view(np.uint32).reshape(40, 2)
_DIGITS = np.indices((10,) * 4, np.uint8).reshape(4, -1).T.copy() + np.uint8(48)
_TRAILING = np.logical_and.accumulate(_DIGITS[:, ::-1] == 48, axis=1)[:, ::-1]
_GROUPS = np.stack([_DIGITS, _DIGITS * ~_TRAILING]).view(np.uint32).ravel()
_NEWLINE = np.array(b"\n", "S4").view(np.uint32)


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


def _analytic_band_values(scene: Scene, wave: WaveContext, weights: np.ndarray,
                          x_nodes: np.ndarray, y_band: np.ndarray) -> np.ndarray:
    # Closed form over a (rows x nx) band; every operation is elementwise,
    # so a node's value does not depend on the band it falls in. All
    # inclusions are stacked on axis 0, so J1 is called once per band.
    k = wave.wavenumber
    d = wave.incident_direction
    centers = scene.centers
    dx = centers[:, 0, np.newaxis, np.newaxis] - x_nodes
    dy = centers[:, 1, np.newaxis, np.newaxis] - y_band[:, np.newaxis]
    # bessel_j1 rejects a distance or k*dist that overflowed
    with np.errstate(over="ignore", invalid="ignore"):
        dist = np.hypot(dx, dy)
        # At a center dx = dy = 0 and J1(0) = 0, so the term there is exactly 0.
        directional = (dx * d[0] + dy * d[1]) / np.where(dist == 0.0, 1.0, dist)
        dist *= k  # in place: one (n_inc, rows, nx) array fewer while J1 runs
    j1 = bessel_j1(dist)
    total = np.zeros((y_band.size, x_nodes.size), dtype=complex)
    for m, weight in enumerate(weights):  # summed in scene order
        total += weight * directional[m] * j1[m]
    return np.abs(total)


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
        Worker threads for the closed-form sweep, which maps over bands of
        ``BAND_ROWS`` rows, capped at the CPU count. The data map ignores
        it and runs serially: BLAS already threads its band products. The
        output is bit-identical for every thread count and every BLAS
        thread count.
    """
    xs = grid.x_nodes()
    ys = grid.y_nodes()

    if isinstance(source, FarFieldData):
        if wavenumber is None or not (wavenumber > 0):
            raise ValueError("a positive wavenumber is required with data sources")
        # an exact power of two: the same map bits, no over- or underflow
        psi, _ = unit_scaled(source.samples)
        norm_psi = float(np.linalg.norm(psi))
        if norm_psi == 0.0:
            raise ValueError("indicator undefined for all-zero data")
        # Fold column m with its three mirrors as the module docstring says;
        # direction n sits at index n - 1 (mod N). For odd N the x-mirror
        # slots repeat slots 1 and 2, so they are zeroed as duplicates.
        count = source.observation_set.count
        mirror = count // 2 if count % 2 == 0 else 0
        m = np.arange(count // (4 if mirror else 2) + 1)
        slots = np.stack([m, -m, mirror - m, mirror + m]) % count
        distinct = np.ones(slots.shape, dtype=bool)
        for i in range(1, 4):
            distinct[i] = np.all(slots[i] != slots[:i], axis=0)
        p1, p2, p3, p4 = np.where(distinct, psi[slots - 1], 0.0)
        s12, d12, s34, d34 = p1 + p2, p1 - p2, p3 + p4, p3 - p4
        a, e, b, f = s12 + s34, s12 - s34, d12 + d34, d12 - d34
        cos_m, sin_m = source.observation_set.directions[m - 1].T
        width = m.size
        nx_padded = -(-grid.nx // 4) * 4  # see module doc
        # |<psi, e(x_s)>| / (||psi|| ||e||), with e^{ik x cos} e^{ik y sin}.
        # Far from the origin k*x overflows to a NaN phase; the map check
        # reports that as non-finite values.
        w = np.zeros((2 * width, nx_padded), dtype=complex)
        with np.errstate(over="ignore", invalid="ignore"):
            phase_x = wavenumber * np.outer(cos_m, xs)
            c, s = np.cos(phase_x), np.sin(phase_x)
            w[:width, :grid.nx] = a[:, None] * c + (1j * e)[:, None] * s
            w[width:, :grid.nx] = (1j * b)[:, None] * c - f[:, None] * s
        del phase_x, c, s
        w = w.view(float)
        chunks = [slice(lo, lo + GEMM_CHUNK) for lo in range(0, 2 * width, GEMM_CHUNK)]
        inv_denom = 1.0 / (norm_psi * math.sqrt(count))
        threads = 1  # BLAS threads each product already; a band pool is slower

        def unit(iy: int) -> np.ndarray:
            # The last band is shifted back to BAND_ROWS rows: a 1-row product
            # rounds differently under different BLAS thread counts.
            lo = max(0, min(iy, grid.ny - BAND_ROWS))
            with np.errstate(over="ignore", invalid="ignore"):
                phase_y = wavenumber * np.outer(ys[lo:lo + BAND_ROWS], sin_m)
                y = np.concatenate([np.cos(phase_y), np.sin(phase_y)], axis=1)
            corr = y[:, chunks[0]] @ w[chunks[0]]
            for chunk in chunks[1:]:  # summed in order, see module doc
                corr += y[:, chunk] @ w[chunk]
            return np.abs(corr.view(complex)[iy - lo:, :grid.nx]) * inv_denom
    else:
        scene, wave = source
        weights = _closed_form_weights(scene, wave)

        def unit(iy: int) -> np.ndarray:
            return _analytic_band_values(scene, wave, weights, xs,
                                         ys[iy:iy + BAND_ROWS])

    starts = range(0, grid.ny, BAND_ROWS)
    values = np.empty((grid.ny, grid.nx))
    # pool.map submits every band at once, so the pool would start `threads`
    # OS threads if there are that many bands
    threads = min(threads, os.cpu_count() or 1)
    if threads > 1:
        from concurrent.futures import ThreadPoolExecutor  # ~6 ms to import
        with ThreadPoolExecutor(max_workers=threads) as pool:
            for iy, res in zip(starts, pool.map(unit, starts)):
                values[iy:iy + BAND_ROWS] = res
    else:
        for iy in starts:
            values[iy:iy + BAND_ROWS] = unit(iy)

    peak = values.max()
    if peak == 0.0:
        raise ValueError("degenerate all-zero indicator map")
    values /= peak
    return IndicatorMap(grid=grid, values=values)


def extract_peaks(indicator_map: IndicatorMap, min_value: float,
                  min_separation: float) -> list:
    """Strict 8-neighborhood local maxima, thinned to a minimum spacing.

    Strictness is taken under the total order (value, row, col): an exact
    value tie between neighbors is broken toward the earlier node. Peaks
    whose true location falls mid-cell produce two nodes whose doubles
    can tie exactly, and a plain value-strict test would silently drop
    both; the tie-break keeps exactly one. A candidate must still exceed
    at least one neighbor by value, so constant maps yield no peaks.

    Candidates at or above ``min_value`` are kept greedily in order of
    descending value (ties broken by row, then column), dropping any
    within ``min_separation`` of an already-kept peak.
    """
    if not (0.0 < min_value < 1.0):
        raise ValueError("min_value must lie in (0, 1)")
    if not (min_separation > 0):
        raise ValueError("min_separation must be positive")
    v = indicator_map.values
    ny, nx = v.shape
    # Candidates: at or above min_value and not below either row neighbor,
    # which every peak satisfies; the full test runs on these alone. The
    # flat neighbors of columns 0 and nx - 1 lie on other rows: not tested.
    flat = v.ravel()
    idx = np.flatnonzero(flat >= min_value)
    rows, cols = np.divmod(idx, nx)
    here = flat[idx]
    cand = ((cols == 0) | (here >= flat.take(idx - 1, mode="clip"))) & (
        (cols == nx - 1) | (here >= flat.take(idx + 1, mode="clip")))
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
            # >= against a later node in (row, col) order, > against an earlier
            beats = here >= there if (di, dj) > (0, 0) else here > there
            dominates &= beats | ~inside
            exceeds_one |= (here > there) & inside
    keep = dominates & exceeds_one
    rows, cols = rows[keep], cols[keep]
    order = np.lexsort((cols, rows, -v[rows, cols]))
    rows, cols = rows[order], cols[order]
    xs = indicator_map.grid.x_nodes()[cols]
    ys = indicator_map.grid.y_nodes()[rows]
    kept: list = []
    for n in range(order.size):  # each candidate against every kept peak at once
        if np.all(np.hypot(xs[n] - xs[kept], ys[n] - ys[kept]) >= min_separation):
            kept.append(n)
    return [Peak(position=np.array([xs[n], ys[n]]), value=float(v[rows[n], cols[n]]))
            for n in kept]


def _value_words(v: np.ndarray) -> np.ndarray:
    """``f"{x:.17g}\\n"`` per value as 28 NUL-padded bytes: (n, 7) uint32.

    Exact integer arithmetic on [1e-4, 1); Python formats other values.
    """
    fast = (v >= 1e-4) & (v < 1.0)
    f = np.where(fast, v, 0.5)  # 0.5: placeholder for the other values
    # e = -1 - floor(log10 f) exactly, as each double 10**-k lies above 10**-k.
    e = (f < 0.1).astype(np.intp) + (f < 0.01) + (f < 0.001)
    # 17 digits N = round-half-even(m * 5**s / 2**q) of f = m * 2**(ex - 53),
    # s = 17 + e, q = 36 - e - ex, m * 5**s < 2**100 from 32-bit limbs; no
    # double here rounds up to a power of ten, so N < 10**17.
    frac, ex = np.frexp(f)
    m, p = (frac * 2.0 ** 53).astype(np.uint64), _POW5[e]
    m0, m1, p0, p1 = m & _M32, m >> _U32, p & _M32, p >> _U32
    lo, mid = m0 * p0, m1 * p0 + m0 * p1
    t = (lo >> _U32) + (mid & _M32)
    low, high = (lo & _M32) | (t << _U32), m1 * p1 + (mid >> _U32) + (t >> _U32)
    q = (36 - e - ex).astype(np.uint64)
    n = (high << (np.uint64(64) - q)) | (low >> q)
    rem, half = low & ((_ONE << q) - _ONE), _ONE << (q - _ONE)
    n += (rem > half) | ((rem == half) & (n & _ONE == _ONE))
    head, tail = (part.astype(np.intp) for part in np.divmod(n, _E8))
    lead, hi = np.divmod(head, 10 ** 8)
    out = np.full((v.size, 7), _NEWLINE, np.uint32)
    out[:, :2] = _LEAD.take(10 * e + lead, axis=0)
    groups = (hi // 10000, hi % 10000, tail // 10000, tail % 10000)
    last = np.maximum.reduce([k * (g != 0) for k, g in enumerate(groups)])
    for k, g in enumerate(groups):  # zero-stripped from the last nonzero one
        out[:, 2 + k] = _GROUPS.take(g + 10000 * (k >= last))
    out[~fast, :6] = np.array([f"{x:.17g}".encode() for x in v[~fast].tolist()],
                              "S24").view(np.uint32).reshape(-1, 6)
    return out


def export_map(indicator_map: IndicatorMap, path, fmt: str) -> None:
    """Write a map to disk as ``csv`` or 16-bit binary ``pgm``.

    CSV rows run y ascending (outer) and x ascending (inner), numbers as
    exact ``%.17g``, streamed per band of ``BAND_ROWS`` rows as a matrix of
    NUL-padded x, y and value words with the NULs dropped. PGM is P5 with
    maxval 65535, big-endian samples round(65535 * v), top row at y_max.
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
                for iy in range(0, v.shape[0], BAND_ROWS):
                    band = v[iy:iy + BAND_ROWS]
                    words = np.empty((*band.shape, 21), np.uint32)
                    words[..., :7] = xw
                    words[..., 7:14] = yw[iy:iy + BAND_ROWS, np.newaxis]
                    words[..., 14:] = _value_words(band.ravel()).reshape(*band.shape, 7)
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

