"""Search grids, indicator-map assembly, peak extraction, file export.

Maps are evaluated over a rectangular node grid and normalized by their
grid maximum. Both sweeps run over fixed bands of ``BAND_ROWS`` rows:
elementwise for the closed form, one fixed-shape matrix product for the
data map. Serial and threaded sweeps produce bit-identical matrices for
any worker count and any BLAS thread count.

Exports: CSV (``x,y,value`` per node, 17 significant digits) and binary
PGM (P5, 16-bit big-endian samples, top row = y_max).
"""

from __future__ import annotations

import math
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .forward import FarFieldData
from .indicator import contrast_factor
from .model import Scene, WaveContext
from .specfun import bessel_j1

GRID_EPS = 1e-9  # guards node counting against FP drift in (max-min)/step
BAND_ROWS = 16  # map rows per work unit: vectorized, temporaries stay small


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
    """Real map over a grid; row i of ``values`` holds y node i (ascending)."""

    grid: SearchGrid
    values: np.ndarray
    normalization: str = "grid-max"  # "grid-max" | "raw"

    def __post_init__(self):
        v = np.array(self.values, dtype=float)
        v.setflags(write=False)
        object.__setattr__(self, "values", v)
        if v.shape != (self.grid.ny, self.grid.nx):
            raise ValueError("values shape must be (ny, nx)")
        if not np.all(np.isfinite(v)):
            raise ValueError("map values must be finite")
        if self.normalization not in ("grid-max", "raw"):
            raise ValueError("normalization must be 'grid-max' or 'raw'")


@dataclass(frozen=True)
class Peak:
    """A strict local maximum of the map, at node resolution."""

    position: np.ndarray
    value: float


def _analytic_band_values(scene: Scene, wave: WaveContext, x_nodes: np.ndarray,
                          y_band: np.ndarray) -> np.ndarray:
    # Closed form over a (rows x nx) band; every operation is elementwise,
    # so a node's value does not depend on the band it falls in.
    k = wave.wavenumber
    d = wave.incident_direction
    mu0 = scene.background_permeability
    total = np.zeros((y_band.size, x_nodes.size), dtype=complex)
    for inc in scene.inclusions:
        dx = inc.center[0] - x_nodes
        dy = (inc.center[1] - y_band)[:, np.newaxis]
        dist = np.hypot(dx, dy)
        # At a center dx = dy = 0 and J1(0) = 0, so the term there is exactly 0.
        safe = np.where(dist == 0.0, 1.0, dist)
        directional = (dx * d[0] + dy * d[1]) / safe
        weight = (inc.radius ** 2 * contrast_factor(inc.permeability, mu0)
                  * np.exp(1j * k * float(np.dot(d, inc.center))))
        total += weight * directional * bessel_j1(k * dist)
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
        Worker threads for the sweep, which maps over bands of
        ``BAND_ROWS`` rows of either map. The output is bit-identical for
        every thread count and every BLAS thread count.
    """
    xs = grid.x_nodes()
    ys = grid.y_nodes()

    if isinstance(source, FarFieldData):
        if wavenumber is None or not (wavenumber > 0):
            raise ValueError("a positive wavenumber is required with data sources")
        psi = source.samples
        norm_psi = float(np.linalg.norm(psi))
        if norm_psi == 0.0:
            raise ValueError("indicator undefined for all-zero data")
        theta = source.observation_set.directions
        # |<psi, e(x_s)>| / (||psi|| ||e||), with e^{ik x cos} e^{ik y sin}
        phase_xT = np.exp(1j * wavenumber * np.outer(theta[:, 0], xs))
        phase_y = np.exp(1j * wavenumber * np.outer(ys, theta[:, 1]))
        inv_denom = 1.0 / (norm_psi * math.sqrt(source.observation_set.count))

        def unit(iy: int) -> np.ndarray:
            # The last band is shifted back to BAND_ROWS rows: a 1-row product
            # rounds differently under different BLAS thread counts.
            lo = max(0, min(iy, grid.ny - BAND_ROWS))
            corr = (phase_y[lo:lo + BAND_ROWS] * psi) @ phase_xT
            return np.abs(corr[iy - lo:]) * inv_denom
    else:
        scene, wave = source

        def unit(iy: int) -> np.ndarray:
            return _analytic_band_values(scene, wave, xs, ys[iy:iy + BAND_ROWS])

    starts = range(0, grid.ny, BAND_ROWS)
    values = np.empty((grid.ny, grid.nx))
    if threads > 1:
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
    return IndicatorMap(grid=grid, values=values, normalization="grid-max")


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
    dominates = v >= min_value
    exceeds_one = np.zeros(v.shape, dtype=bool)
    # Each neighbor pair (p, q = p + forward offset) is compared once; q follows
    # p in (row, col) order, so p needs v[p] >= v[q] and q the complement.
    for di, dj in ((0, 1), (1, -1), (1, 0), (1, 1)):
        p = (slice(0, ny - di), slice(max(0, -dj), nx - max(0, dj)))
        q = (slice(di, ny), slice(max(0, dj), nx - max(0, -dj)))
        ge = v[p] >= v[q]
        dominates[p] &= ge
        exceeds_one[p] |= v[p] > v[q]
        dominates[q] &= ~ge
        exceeds_one[q] |= ~ge
    rows, cols = np.nonzero(dominates & exceeds_one)
    order = np.lexsort((cols, rows, -v[rows, cols]))

    xs = indicator_map.grid.x_nodes()
    ys = indicator_map.grid.y_nodes()
    kept: list = []
    for idx in order:
        i, j = int(rows[idx]), int(cols[idx])
        pos = np.array([xs[j], ys[i]])
        if all(np.hypot(*(pos - p.position)) >= min_separation for p in kept):
            kept.append(Peak(position=pos, value=float(v[i, j])))
    return kept


def export_map(indicator_map: IndicatorMap, path, fmt: str) -> None:
    """Write a map to disk as ``csv`` or 16-bit binary ``pgm``.

    CSV rows run y ascending (outer) and x ascending (inner), values with
    17 significant digits. PGM is P5 with maxval 65535, big-endian
    samples round(65535 * v), and its top row holds y_max.
    """
    path = Path(path)
    v = indicator_map.values
    if fmt == "csv":
        # Node strings are formatted once per axis; each row is then one
        # %-format of a template "x0,y,%.17g\nx1,y,%.17g\n..." over its values.
        x_heads = [f"{x:.17g}," for x in indicator_map.grid.x_nodes().tolist()]
        rows = ["x,y,value\n"]
        for y, row in zip(indicator_map.grid.y_nodes().tolist(), v):
            tail = f"{y:.17g},%.17g\n"
            rows.append((tail.join(x_heads) + tail) % tuple(row.tolist()))
        try:
            path.write_text("".join(rows))
        except OSError as exc:
            raise OSError(f"failed writing map CSV to {path}: {exc}") from exc
    elif fmt == "pgm":
        if v.min() < 0.0 or v.max() > 1.0:
            raise ValueError("PGM export requires values in [0, 1]; "
                             "normalize the map first")
        pixels = np.rint(np.flipud(v) * 65535.0).astype(">u2")
        header = f"P5\n{v.shape[1]} {v.shape[0]}\n65535\n".encode("ascii")
        try:
            path.write_bytes(header + pixels.tobytes())
        except OSError as exc:
            raise OSError(f"failed writing map PGM to {path}: {exc}") from exc
    else:
        raise ValueError(f"unknown export format {fmt!r} (use 'csv' or 'pgm')")


def read_map_csv(path) -> np.ndarray:
    """Reload an exported CSV map as an (n_nodes, 3) array of x, y, value."""
    with open(path) as fh:
        header = fh.readline().strip()
        has_nodes = bool(fh.readline().strip())
    if header != "x,y,value":
        raise ValueError(f"{path}: expected header 'x,y,value'")
    if not has_nodes:
        raise ValueError(f"{path}: no nodes after the header")
    return np.loadtxt(path, delimiter=",", skiprows=1, ndmin=2)
