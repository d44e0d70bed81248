"""Command-line pipeline: synthesize data, image it, predict peaks.

Subcommands
-----------
    synthesize   scene JSON -> far-field CSV + JSON sidecar
    image        far-field CSV -> indicator map (CSV + PGM) + peak report
    predict      scene JSON -> closed-form map (CSV + PGM) + predicted peaks
    example      run one of the three shipped single-wave demos end to end

Each subcommand is a generator whose two ``yield``s end its read phase
and its compute phase; the rest writes. ``main`` alone maps an exception
to an exit code: ``ValueError`` or ``OSError`` while reading exits 2, a
``ValueError`` while computing exits 1 (degenerate), and an ``OSError``
while writing exits 2 (an output that exists without ``--force`` is a
``FileExistsError``). A run that fails before writing creates nothing.
Every command is deterministic for a fixed configuration and seed.
"""

from __future__ import annotations

import argparse
import json
import math
import sys
from pathlib import Path

import numpy as np

from .forward import (SNR_DB_FLOOR, NoiseSpec, add_noise, noise_document,
                      read_far_field, synthesize_far_field, write_far_field)
from .imaging import (MAX_GRID_NODES, IndicatorMap, SearchGrid, compute_map,
                      export_map, extract_peaks)
from .indicator import predicted_peaks
from .model import (MAX_DIRECTIONS, Scene, Inhomogeneity, WaveContext,
                    contrast_factor, load_scene_config, make_observation_set,
                    scene_config_document, validate_scene,
                    wavenumber_from_wavelength)

DEFAULT_NUM_DIRECTIONS = 256
DEFAULT_GRID = "-1,1,-1,1,0.005"
DEFAULT_MIN_PEAK_VALUE = 0.5
DEFAULT_MIN_PEAK_SEPARATION = 0.05

# Shipped demo scenes: three disks of radius 0.1 imaged at wavelength 0.4
# with the incident wave at 45 degrees. The variants differ only in which
# inclusions are present and their permeabilities.
_DEMO_CENTERS = ((0.7, 0.5), (-0.7, 0.0), (0.2, -0.5))
_DEMO_RADIUS = 0.1
_DEMO_WAVELENGTH = 0.4
_DEMO_ANGLE_DEG = 45.0
EXAMPLE_PERMEABILITIES = {
    "ex1": (5.0,),
    "ex2": (5.0, 5.0, 5.0),
    "ex3": (10.0, 6.0, 2.0),
}

# Flag (argparse dest) -> the scene-document key it overrides.
_SCENE_FLAGS = {"wavelength": "wavelength", "num_dirs": "num_observation_directions",
                "incident_deg": "incident_direction_degrees"}


def example_scene(which: str) -> Scene:
    """The preset scene for ``ex1``/``ex2``/``ex3``."""
    mus = EXAMPLE_PERMEABILITIES[which]
    inclusions = tuple(
        Inhomogeneity(center=np.array(c), radius=_DEMO_RADIUS, permeability=mu)
        for c, mu in zip(_DEMO_CENTERS, mus))
    return Scene(background_permeability=1.0, inclusions=inclusions)


def example_wave() -> WaveContext:
    return WaveContext.from_degrees(_DEMO_WAVELENGTH, _DEMO_ANGLE_DEG)


def _parse_grid(spec: str) -> SearchGrid:
    try:
        x0, x1, y0, y1, step = (float(p) for p in spec.split(","))
        return SearchGrid(x_min=x0, x_max=x1, y_min=y0, y_max=y1, step=step)
    except ValueError as exc:
        raise ValueError(f"bad --grid {spec!r} (want 'x0,x1,y0,y1,step'): "
                         f"{exc}") from exc


def _data_map_grid(spec: str, count: int) -> SearchGrid:
    """``_parse_grid`` for a data map over ``count`` directions: N (nx + ny),
    a bound on the phases the map takes and so on the entries of its stored
    matrix W (about min(N, N')/2 x nx complex, N' as in ``imaging``, or
    N x nx for an odd N below N'), must fit under ``MAX_GRID_NODES``."""
    grid = _parse_grid(spec)
    if count * (grid.nx + grid.ny) > MAX_GRID_NODES:
        raise ValueError(f"--grid {spec!r} with {count} directions: the data "
                         f"map needs N*(nx + ny) <= {MAX_GRID_NODES:,}")
    return grid


def _scene_overrides(args) -> dict:
    """The wave flags given, as scene-document keys for ``load_scene_config``."""
    return {key: getattr(args, flag) for flag, key in _SCENE_FLAGS.items()
            if getattr(args, flag, None) is not None}


def _peak_entries(peaks) -> list:
    return [{"x": float(p.position[0]), "y": float(p.position[1]),
             "value": p.value} for p in peaks]


def _prediction_document(predictions) -> dict:
    return {"predicted": [{"inclusion": pred.inclusion_index,
                           "x": float(pos[0]), "y": float(pos[1])}
                          for pred in predictions for pos in pred.positions],
            "offset_radius": predictions[0].offset_radius}


def _write_json(path: Path, doc: dict) -> None:
    path.write_text(json.dumps(doc, indent=2, allow_nan=False) + "\n")


def _write_outputs(args, outputs: dict, *, far_field=None,
                   warnings=()) -> Path:
    """Write a subcommand's computed results: the only step that touches disk.

    Refuses to overwrite without ``--force``, prints ``warnings`` (scene
    validation entries), creates ``--out`` and writes each entry of
    ``outputs``: a map in the format its suffix names, or a JSON document.
    ``far_field`` is a ``(data, scene, wave, noise)`` tuple written as
    ``farfield.csv`` plus its ``farfield.json`` sidecar.
    """
    out_dir = Path(args.out)
    names = [*(["farfield.csv", "farfield.json"] if far_field else []),
             *outputs]
    if not args.force:
        clashes = [str(out_dir / name) for name in names
                   if (out_dir / name).exists()]
        if clashes:
            raise FileExistsError("refusing to overwrite existing outputs "
                                  f"({', '.join(clashes)}); pass --force to allow")
    for entry in warnings:
        print(f"[warning] {entry.message}", file=sys.stderr)
    out_dir.mkdir(parents=True, exist_ok=True)
    if far_field:
        data, scene, wave, noise = far_field
        write_far_field(data, out_dir / "farfield.csv", scene=scene,
                        wave=wave, noise=noise)
    for name, item in outputs.items():
        if isinstance(item, IndicatorMap):
            export_map(item, out_dir / name, Path(name).suffix[1:])
        else:
            _write_json(out_dir / name, item)
    return out_dir


# ---------------------------------------------------------------------------
# Subcommands: generators that yield once after reading, once after computing
# ---------------------------------------------------------------------------

def cmd_synthesize(args):
    cfg = load_scene_config(args.scene, overrides=_scene_overrides(args))
    scene, wave, obs = cfg["scene"], cfg["wave"], cfg["observations"]
    spec = NoiseSpec(snr_db=args.snr_db, seed=args.seed)
    yield
    data = add_noise(synthesize_far_field(scene, wave, obs), spec)
    warnings = validate_scene(scene, wave).entries
    yield
    out_dir = _write_outputs(args, {}, far_field=(data, scene, wave, spec),
                             warnings=warnings)
    print(f"wrote {out_dir / 'farfield.csv'} ({obs.count} samples)")


def _image_pipeline(data, wavenumber, scene, wave, grid, args):
    """Shared by image/example: maps, peaks document, optional prediction.

    Without a scene the analytic map and prediction are ``None``, and so
    are the ``predicted`` and ``residual`` entries of the peaks document.
    """
    data_map = compute_map(data, grid, wavenumber=wavenumber)
    peaks = extract_peaks(data_map, args.min_peak_value,
                          args.min_peak_separation)
    analytic_map = prediction = residual = None
    if scene is not None and wave is not None:
        analytic_map = compute_map((scene, wave), grid, threads=args.threads)
        residual = float(np.max(np.abs(data_map.values - analytic_map.values)))
        prediction = _prediction_document(predicted_peaks(scene, wave))
    peaks_doc = {"peaks": _peak_entries(peaks),
                 "predicted": prediction["predicted"] if prediction else None,
                 "residual": residual}
    return data_map, analytic_map, peaks_doc, prediction


def cmd_image(args):
    data, meta = read_far_field(args.data)
    sidecar = Path(args.data).with_suffix(".json")
    grid = _data_map_grid(args.grid, data.observation_set.count)
    try:  # only a sidecar value can fail: the flag is checked at parse time
        wavenumber = wavenumber_from_wavelength(args.wavelength or meta["wavelength"])
    except (KeyError, TypeError, ValueError) as exc:
        raise ValueError(f"{sidecar}: no valid wavelength ({exc!r}); "
                         "pass --wavelength") from exc
    scene = wave = None
    if "scene" in meta:
        cfg = load_scene_config(sidecar, meta["scene"], _scene_overrides(args))
        scene, wave = cfg["scene"], cfg["wave"]
    yield
    data_map, _, peaks_doc, _ = _image_pipeline(data, wavenumber, scene, wave,
                                                grid, args)
    yield
    out_dir = _write_outputs(args, {"map.csv": data_map, "map.pgm": data_map,
                                    "peaks.json": peaks_doc})
    print(f"wrote {out_dir / 'map.csv'}, {out_dir / 'map.pgm'}, "
          f"{out_dir / 'peaks.json'} ({len(peaks_doc['peaks'])} peaks)")


def cmd_predict(args):
    cfg = load_scene_config(args.scene, overrides=_scene_overrides(args))
    scene, wave = cfg["scene"], cfg["wave"]
    grid = _parse_grid(args.grid)
    yield
    analytic_map = compute_map((scene, wave), grid, threads=args.threads)
    outputs = {"analytic_map.csv": analytic_map, "analytic_map.pgm": analytic_map,
               "predicted_peaks.json": _prediction_document(
                   predicted_peaks(scene, wave))}
    warnings = validate_scene(scene, wave).entries
    yield
    out_dir = _write_outputs(args, outputs, warnings=warnings)
    print(f"wrote {out_dir / 'analytic_map.csv'}, "
          f"{out_dir / 'analytic_map.pgm'}, {out_dir / 'predicted_peaks.json'}")


def cmd_example(args):
    which = args.which
    scene, wave = example_scene(which), example_wave()
    grid = _data_map_grid(args.grid, args.num_dirs)
    obs = make_observation_set(args.num_dirs)
    spec = NoiseSpec(snr_db=args.snr_db, seed=args.seed)
    yield
    data = add_noise(synthesize_far_field(scene, wave, obs), spec)
    data_map, analytic_map, peaks_doc, prediction = _image_pipeline(
        data, wave.wavenumber, scene, wave, grid, args)
    report = {
        "example": which,
        "num_observation_directions": obs.count,
        "noise": noise_document(spec),
        "grid": [grid.x_min, grid.x_max, grid.y_min, grid.y_max, grid.step],
        "residual": peaks_doc["residual"],
        "contrast_factors": [
            contrast_factor(inc.permeability, scene.background_permeability)
            for inc in scene.inclusions],
        "peaks": peaks_doc["peaks"],
        "predicted": peaks_doc["predicted"],
    }
    outputs = {"scene.json": scene_config_document(scene, wave, obs),
               "map.csv": data_map, "map.pgm": data_map, "peaks.json": peaks_doc,
               "analytic_map.csv": analytic_map, "analytic_map.pgm": analytic_map,
               "predicted_peaks.json": prediction, "report.json": report}
    warnings = validate_scene(scene, wave).entries
    yield
    out_dir = _write_outputs(args, outputs, far_field=(data, scene, wave, spec),
                             warnings=warnings)
    print(f"{which}: residual {peaks_doc['residual']:.3e}, "
          f"{len(peaks_doc['peaks'])} peaks; outputs in {out_dir}")


# ---------------------------------------------------------------------------
# Argument parsing
# ---------------------------------------------------------------------------

def _checked(convert, ok, rule: str):
    """An argparse ``type=``: convert the text, then require ``ok(value)``."""
    def parse(text: str):
        try:
            if ok(value := convert(text)):
                return value
        except ValueError:
            pass
        raise argparse.ArgumentTypeError(f"must be {rule}, got {text!r}")
    return parse


_positive_int = _checked(int, lambda n: n >= 1, "an integer >= 1")
_num_dirs = _checked(int, lambda n: 1 <= n <= MAX_DIRECTIONS,
                     f"an integer in [1, {MAX_DIRECTIONS:,}]")
_wavelength = _checked(float, wavenumber_from_wavelength,
                       "a positive number with a finite 2*pi/wavelength")
_degrees = _checked(float, math.isfinite, "a finite number (degrees)")
_seed = _checked(int, lambda n: n >= 0, "an integer >= 0")
_snr_db = _checked(float, lambda x: x > SNR_DB_FLOOR,
                   f"a number above {SNR_DB_FLOOR:.3f} (dB)")
_peak_value = _checked(float, lambda x: 0.0 < x < 1.0, "a number in (0, 1)")
_peak_separation = _checked(float, lambda x: x > 0.0, "a number > 0")


def _add_common_output_flags(p) -> None:
    p.add_argument("--out", default="dsm2d-out", help="output directory")
    p.add_argument("--force", action="store_true",
                   help="overwrite existing outputs")


def _add_peak_flags(p) -> None:
    p.add_argument("--min-peak-value", type=_peak_value,
                   default=DEFAULT_MIN_PEAK_VALUE,
                   help="minimum normalized value for a reported peak")
    p.add_argument("--min-peak-separation", type=_peak_separation,
                   default=DEFAULT_MIN_PEAK_SEPARATION,
                   help="minimum spacing between reported peaks")


def _add_map_flags(p) -> None:
    p.add_argument("--grid", default=DEFAULT_GRID,
                   help="search grid as 'x0,x1,y0,y1,step'")
    p.add_argument("--threads", type=_positive_int, default=1,
                   help="worker threads for the closed-form map sweep")


def _add_wave_flags(p) -> None:
    p.add_argument("--wavelength", type=_wavelength, default=None)
    p.add_argument("--incident-deg", type=_degrees, default=None)


class _Parser(argparse.ArgumentParser):
    """Reports a bad flag in one line on stderr, like other config errors."""

    def error(self, message):
        self.exit(2, f"{self.prog}: error: {message} (see --help)\n")


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="dsm2d",
        description="Single-incident-wave far-field correlation imaging "
                    "of small scatterers in 2D")
    sub = parser.add_subparsers(dest="command", required=True)

    p_syn = sub.add_parser("synthesize",
                           help="generate far-field data from a scene JSON")
    p_syn.add_argument("--scene", required=True, help="scene JSON file")
    _add_wave_flags(p_syn)
    p_syn.add_argument("--num-dirs", type=_num_dirs, default=None)
    p_syn.add_argument("--snr-db", type=_snr_db, default=math.inf, dest="snr_db",
                       help="additive-noise SNR in dB (omit for noise-free)")
    p_syn.add_argument("--seed", type=_seed, default=0)
    _add_common_output_flags(p_syn)
    p_syn.set_defaults(func=cmd_synthesize)

    p_img = sub.add_parser("image",
                           help="compute the indicator map from far-field data")
    p_img.add_argument("--data", required=True, help="far-field CSV file")
    p_img.add_argument("--wavelength", type=_wavelength, default=None,
                       help="override the sidecar wavelength")
    _add_map_flags(p_img)
    _add_peak_flags(p_img)
    _add_common_output_flags(p_img)
    p_img.set_defaults(func=cmd_image)

    p_pre = sub.add_parser("predict",
                           help="closed-form map and peak predictions")
    p_pre.add_argument("--scene", required=True, help="scene JSON file")
    _add_wave_flags(p_pre)
    _add_map_flags(p_pre)
    _add_common_output_flags(p_pre)
    p_pre.set_defaults(func=cmd_predict)

    p_ex = sub.add_parser("example", help="run a shipped demo end to end")
    p_ex.add_argument("which", choices=sorted(EXAMPLE_PERMEABILITIES))
    p_ex.add_argument("--num-dirs", type=_num_dirs,
                      default=DEFAULT_NUM_DIRECTIONS, dest="num_dirs")
    p_ex.add_argument("--snr-db", type=_snr_db, default=math.inf, dest="snr_db")
    p_ex.add_argument("--seed", type=_seed, default=0)
    _add_map_flags(p_ex)
    _add_peak_flags(p_ex)
    _add_common_output_flags(p_ex)
    p_ex.set_defaults(func=cmd_example)

    return parser


# What each phase of a subcommand may raise: (exceptions, exit code, label).
_PHASES = (((ValueError, OSError), 2, "error"),
           (ValueError, 1, "degenerate computation"),
           (OSError, 2, "error"))


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    phases = args.func(args)
    for caught, code, label in _PHASES:
        try:
            next(phases, None)
        except caught as exc:
            print(f"{label}: {exc}", file=sys.stderr)
            return code
    return 0


if __name__ == "__main__":
    sys.exit(main())
