"""Output checks applied to every benchmark operation.

No stored digests: a re-baseline of a few ulp (for example a GEMM data
map) must still pass. Each map is checked against invariants and against
the package's per-point oracles at seeded nodes, normalized at the map's
own argmax node.
"""

from __future__ import annotations

import hashlib
import json
import math
from pathlib import Path

import numpy as np

ORACLE_TOL = 1e-12
ORACLE_NODES = 200
RESIDUAL_LIMIT = 1e-3  # acceptance criterion 3
EX1_PEAKS = ((0.6171, 0.4171), (0.7829, 0.5829))
EX1_PEAK_TOL = 1e-4  # the references are quoted to four decimals
DEMO_FILES = ("scene.json", "farfield.csv", "farfield.json", "map.csv",
              "map.pgm", "peaks.json", "analytic_map.csv", "analytic_map.pgm",
              "predicted_peaks.json", "report.json")


class CheckFailed(Exception):
    """An output is wrong."""


def require(condition: bool, message: str) -> None:
    if not condition:
        raise CheckFailed(message)


def check_map(values: np.ndarray) -> None:
    """Finite, inside [0, 1], grid maximum exactly 1."""
    require(bool(np.all(np.isfinite(values))), "map has non-finite values")
    require(values.min() >= 0.0 and values.max() <= 1.0, "map leaves [0, 1]")
    require(values.max() == 1.0, f"map maximum is {values.max()!r}, not 1")


def sample_nodes(rng, shape):
    """Seeded (row, col) nodes for oracle comparisons."""
    rows = rng.integers(0, shape[0], size=ORACLE_NODES)
    cols = rng.integers(0, shape[1], size=ORACLE_NODES)
    return list(zip(rows.tolist(), cols.tolist()))


def check_against_oracle(values, grid, nodes, oracle) -> None:
    """Map agrees with ``oracle(point)`` normalized at the map's argmax node."""
    xs, ys = grid.x_nodes(), grid.y_nodes()
    top = np.unravel_index(int(np.argmax(values)), values.shape)
    ref = oracle(np.array([xs[top[1]], ys[top[0]]]))
    require(ref > 0.0, "oracle is zero at the map's argmax node")
    for iy, ix in nodes:
        want = oracle(np.array([xs[ix], ys[iy]])) / ref
        got = values[iy, ix]
        require(abs(got - want) <= ORACLE_TOL,
                f"node ({xs[ix]:.4f}, {ys[iy]:.4f}): map {got!r}, oracle {want!r}")


def check_residual(a, b) -> float:
    residual = float(np.max(np.abs(a - b)))
    require(residual <= RESIDUAL_LIMIT,
            f"residual {residual:.3e} exceeds {RESIDUAL_LIMIT:g}")
    return residual


def check_ex1_peaks(positions, step: float) -> None:
    """Top two peaks sit at the published pair.

    Extracted peaks are grid nodes, so the tolerance is the references'
    rounding plus one cell diagonal.
    """
    tol = EX1_PEAK_TOL + step * math.sqrt(2.0)
    require(len(positions) >= 2, f"{len(positions)} peaks, need 2")
    top = [np.asarray(p, dtype=float) for p in positions[:2]]
    for ref in EX1_PEAKS:
        miss = min(float(np.hypot(*(p - ref))) for p in top)
        require(miss <= tol, f"no top peak within {tol:.2e} of {ref}")


def check_predicted(predictions, scene, wave) -> None:
    """Each predicted pair straddles its center along d at 1.8412/k."""
    from dsm2d.specfun import J1_FIRST_MAX
    rho = J1_FIRST_MAX / wave.wavenumber
    require(len(predictions) == len(scene.inclusions), "one pair per inclusion")
    for pred, inc in zip(predictions, scene.inclusions):
        lo, hi = pred.positions
        for pos, sign in ((lo, -1.0), (hi, 1.0)):
            want = inc.center + sign * rho * wave.incident_direction
            require(float(np.hypot(*(pos - want))) <= 1e-12,
                    f"predicted peak {pos} is not {want}")


def digest(directory: Path) -> str:
    h = hashlib.sha256()
    for name in DEMO_FILES:
        h.update(name.encode())
        h.update((directory / name).read_bytes())
    return h.hexdigest()


def read_map(path: Path, grid) -> np.ndarray:
    """A map CSV as a (ny, nx) array, after checking its header and nodes."""
    with open(path) as fh:
        require(fh.readline().strip() == "x,y,value", f"{path.name}: bad header")
        table = np.loadtxt(fh, delimiter=",", ndmin=2)
    require(table.shape == (grid.nx * grid.ny, 3), f"{path.name}: wrong row count")
    xs, ys = np.meshgrid(grid.x_nodes(), grid.y_nodes())
    require(np.array_equal(table[:, 0], xs.ravel())
            and np.array_equal(table[:, 1], ys.ravel()),
            f"{path.name}: node coordinates differ from the grid")
    return table[:, 2].reshape(grid.ny, grid.nx)


def check_pgm(path: Path, values: np.ndarray) -> None:
    """PGM holds round(65535 * v) big-endian, top row = y_max."""
    ny, nx = values.shape
    header = f"P5\n{nx} {ny}\n65535\n".encode("ascii")
    want = header + np.rint(np.flipud(values) * 65535.0).astype(">u2").tobytes()
    require(path.read_bytes() == want, f"{path.name} does not match the CSV map")


def check_demo_outputs(out: Path, which: str, grid, nodes) -> None:
    """Full check of one ``dsm2d example`` output directory."""
    from dsm2d import cli, forward, indicator

    scene, wave = cli.example_scene(which), cli.example_wave()
    data_map = read_map(out / "map.csv", grid)
    analytic = read_map(out / "analytic_map.csv", grid)
    for values, name in ((data_map, "map"), (analytic, "analytic_map")):
        check_map(values)
        check_pgm(out / f"{name}.pgm", values)
    data, _ = forward.read_far_field(out / "farfield.csv")
    check_against_oracle(
        data_map, grid, nodes,
        lambda p: indicator.dsm_indicator_raw(data, wave.wavenumber, p))
    check_against_oracle(
        analytic, grid, nodes,
        lambda p: indicator.closed_form_magnitude(scene, wave, p))
    residual = check_residual(data_map, analytic)
    report = json.loads((out / "report.json").read_text())
    require(report["residual"] == residual, "report.json residual is stale")
    peaks = json.loads((out / "peaks.json").read_text())["peaks"]
    require(peaks == report["peaks"], "peaks.json and report.json disagree")
    for p in peaks:
        require(data_map[round((p["y"] - grid.y_min) / grid.step),
                         round((p["x"] - grid.x_min) / grid.step)] == p["value"],
                f"peak {p} is not a map node value")
    if which == "ex1":
        check_ex1_peaks([(p["x"], p["y"]) for p in peaks], grid.step)
