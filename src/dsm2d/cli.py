"""Command-line pipeline: synthesize data, image it, predict peaks.

Subcommands
-----------
    synthesize   scene JSON -> far-field CSV + JSON sidecar
    image        far-field CSV -> indicator map (CSV + PGM) + peak report
    predict      scene JSON -> closed-form map (CSV + PGM) + predicted peaks
    example      run one of the three shipped single-wave demos end to end

Exit codes: 0 on success, 1 when the computation is degenerate (for
example all-zero data), 2 for configuration or I/O problems. Every
subcommand computes all its results before ``_write_outputs`` creates the
output directory, so a run that fails writes nothing. Outputs are never
overwritten unless ``--force`` is given, and every command is
deterministic for a fixed configuration and seed.
"""

from __future__ import annotations

import argparse
import json
import math
import sys
from pathlib import Path

import numpy as np

from .forward import (SNR_DB_FLOOR, NoiseSpec, add_noise, contrast_factor,
                      read_far_field, synthesize_far_field, write_far_field)
from .imaging import (IndicatorMap, SearchGrid, compute_map, export_map,
                      extract_peaks)
from .indicator import predicted_peaks
from .model import (Scene, Inhomogeneity, WaveContext, load_scene_config,
                    make_observation_set, scene_config_document,
                    scene_from_document, validate_scene,
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


class ConfigError(Exception):
    """Bad configuration or I/O problem; maps to exit code 2."""


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
    parts = spec.split(",")
    if len(parts) != 5:
        raise ConfigError(f"--grid expects 'x0,x1,y0,y1,step', got {spec!r}")
    try:
        x0, x1, y0, y1, step = (float(p) for p in parts)
        return SearchGrid(x_min=x0, x_max=x1, y_min=y0, y_max=y1, step=step)
    except ValueError as exc:
        raise ConfigError(f"bad --grid {spec!r}: {exc}") from exc


def _apply_overrides(cfg: dict, args) -> dict:
    """CLI flags override the scene document."""
    lam = getattr(args, "wavelength", None)
    deg = getattr(args, "incident_deg", None)
    try:
        if deg is not None:
            cfg["wave"] = WaveContext.from_degrees(
                cfg["wave"].wavelength if lam is None else lam, deg)
        elif lam is not None:
            cfg["wave"] = WaveContext(lam, cfg["wave"].incident_direction)
    except ValueError as exc:
        raise ConfigError(f"bad --wavelength/--incident-deg: {exc}") from exc
    if getattr(args, "num_dirs", None) is not None:
        cfg["observations"] = make_observation_set(args.num_dirs)
    return cfg


def _load_scene_or_fail(path_str: str, args) -> dict:
    path = Path(path_str)
    if not path.is_file():
        raise ConfigError(f"scene file not found: {path}")
    try:
        return _apply_overrides(load_scene_config(path), args)
    except ValueError as exc:
        raise ConfigError(str(exc)) from exc


def _noise_spec(args) -> NoiseSpec:
    snr = args.snr_db if args.snr_db is not None else math.inf
    return NoiseSpec(snr_db=snr, seed=args.seed)


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
            raise ConfigError("refusing to overwrite existing outputs "
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
# Subcommands
# ---------------------------------------------------------------------------

def cmd_synthesize(args) -> int:
    cfg = _load_scene_or_fail(args.scene, args)
    scene, wave, obs = cfg["scene"], cfg["wave"], cfg["observations"]
    spec = _noise_spec(args)
    data = add_noise(synthesize_far_field(scene, wave, obs), spec)
    out_dir = _write_outputs(args, {}, far_field=(data, scene, wave, spec),
                             warnings=validate_scene(scene, wave).entries)
    print(f"wrote {out_dir / 'farfield.csv'} ({obs.count} samples)")
    return 0


def _image_pipeline(data, wavenumber, scene, wave, grid, args):
    """Shared by image/example: maps, peaks document, optional prediction.

    Without a scene the analytic map and prediction are ``None``, and so
    are the ``predicted`` and ``residual`` entries of the peaks document.
    """
    data_map = compute_map(data, grid, wavenumber=wavenumber,
                           threads=args.threads)
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


def cmd_image(args) -> int:
    data_path = Path(args.data)
    if not data_path.is_file():
        raise ConfigError(f"far-field file not found: {data_path}")
    grid = _parse_grid(args.grid)
    try:
        data, meta = read_far_field(data_path)
    except ValueError as exc:
        raise ConfigError(str(exc)) from exc

    try:
        wavelength = (args.wavelength if args.wavelength is not None
                      else float(meta["wavelength"]))
        wavenumber = wavenumber_from_wavelength(wavelength)
    except KeyError:
        raise ConfigError("no wavelength in sidecar; pass --wavelength") from None
    except ValueError as exc:
        raise ConfigError(f"bad wavelength: {exc}") from exc

    scene = wave = None
    if "scene" in meta:
        try:
            cfg = _apply_overrides(scene_from_document(meta["scene"]), args)
        except ValueError as exc:
            raise ConfigError(f"sidecar of {data_path}: {exc}") from exc
        scene, wave = cfg["scene"], cfg["wave"]

    data_map, _, peaks_doc, _ = _image_pipeline(data, wavenumber, scene, wave,
                                                grid, args)
    out_dir = _write_outputs(args, {"map.csv": data_map, "map.pgm": data_map,
                                    "peaks.json": peaks_doc})
    print(f"wrote {out_dir / 'map.csv'}, {out_dir / 'map.pgm'}, "
          f"{out_dir / 'peaks.json'} ({len(peaks_doc['peaks'])} peaks)")
    return 0


def cmd_predict(args) -> int:
    cfg = _load_scene_or_fail(args.scene, args)
    grid = _parse_grid(args.grid)
    scene, wave = cfg["scene"], cfg["wave"]
    analytic_map = compute_map((scene, wave), grid, threads=args.threads)
    out_dir = _write_outputs(
        args, {"analytic_map.csv": analytic_map, "analytic_map.pgm": analytic_map,
               "predicted_peaks.json": _prediction_document(
                   predicted_peaks(scene, wave))},
        warnings=validate_scene(scene, wave).entries)
    print(f"wrote {out_dir / 'analytic_map.csv'}, "
          f"{out_dir / 'analytic_map.pgm'}, {out_dir / 'predicted_peaks.json'}")
    return 0


def cmd_example(args) -> int:
    which = args.which
    scene = example_scene(which)
    wave = example_wave()
    obs = make_observation_set(args.num_dirs)
    grid = _parse_grid(args.grid)
    spec = _noise_spec(args)
    data = add_noise(synthesize_far_field(scene, wave, obs), spec)
    data_map, analytic_map, peaks_doc, prediction = _image_pipeline(
        data, wave.wavenumber, scene, wave, grid, args)
    report = {
        "example": which,
        "num_observation_directions": obs.count,
        "noise": {"snr_db": ("inf" if spec.snr_db == math.inf else spec.snr_db),
                  "seed": spec.seed},
        "grid": [grid.x_min, grid.x_max, grid.y_min, grid.y_max, grid.step],
        "residual": peaks_doc["residual"],
        "contrast_factors": [
            contrast_factor(inc.permeability, scene.background_permeability)
            for inc in scene.inclusions],
        "peaks": peaks_doc["peaks"],
        "predicted": peaks_doc["predicted"],
    }
    out_dir = _write_outputs(
        args, {"scene.json": scene_config_document(scene, wave, obs),
               "map.csv": data_map, "map.pgm": data_map, "peaks.json": peaks_doc,
               "analytic_map.csv": analytic_map, "analytic_map.pgm": analytic_map,
               "predicted_peaks.json": prediction, "report.json": report},
        far_field=(data, scene, wave, spec),
        warnings=validate_scene(scene, wave).entries)
    print(f"{which}: residual {peaks_doc['residual']:.3e}, "
          f"{len(peaks_doc['peaks'])} peaks; outputs in {out_dir}")
    return 0


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
_seed = _checked(int, lambda n: n >= 0, "an integer >= 0")
_snr_db = _checked(float, lambda x: x > SNR_DB_FLOOR,
                   f"a number above {SNR_DB_FLOOR:.3f} (dB)")
_peak_value = _checked(float, lambda x: 0.0 < x < 1.0, "a number in (0, 1)")
_peak_separation = _checked(float, lambda x: x > 0.0, "a number > 0")


def _add_common_output_flags(p) -> None:
    p.add_argument("--out", default="dsm2d-out", help="output directory")
    p.add_argument("--force", action="store_true",
                   help="overwrite existing outputs")
    p.add_argument("--threads", type=_positive_int, default=1,
                   help="worker threads for the map sweep")


def _add_peak_flags(p) -> None:
    p.add_argument("--min-peak-value", type=_peak_value,
                   default=DEFAULT_MIN_PEAK_VALUE,
                   help="minimum normalized value for a reported peak")
    p.add_argument("--min-peak-separation", type=_peak_separation,
                   default=DEFAULT_MIN_PEAK_SEPARATION,
                   help="minimum spacing between reported peaks")


def _add_grid_flag(p) -> None:
    p.add_argument("--grid", default=DEFAULT_GRID,
                   help="search grid as 'x0,x1,y0,y1,step'")


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
    p_syn.add_argument("--wavelength", type=float, default=None)
    p_syn.add_argument("--incident-deg", type=float, default=None,
                       dest="incident_deg")
    p_syn.add_argument("--num-dirs", type=_positive_int, default=None,
                       dest="num_dirs")
    p_syn.add_argument("--snr-db", type=_snr_db, default=None, dest="snr_db",
                       help="additive-noise SNR in dB (omit for noise-free)")
    p_syn.add_argument("--seed", type=_seed, default=0)
    _add_common_output_flags(p_syn)
    p_syn.set_defaults(func=cmd_synthesize)

    p_img = sub.add_parser("image",
                           help="compute the indicator map from far-field data")
    p_img.add_argument("--data", required=True, help="far-field CSV file")
    p_img.add_argument("--wavelength", type=float, default=None,
                       help="override the sidecar wavelength")
    _add_grid_flag(p_img)
    _add_peak_flags(p_img)
    _add_common_output_flags(p_img)
    p_img.set_defaults(func=cmd_image)

    p_pre = sub.add_parser("predict",
                           help="closed-form map and peak predictions")
    p_pre.add_argument("--scene", required=True, help="scene JSON file")
    p_pre.add_argument("--wavelength", type=float, default=None)
    p_pre.add_argument("--incident-deg", type=float, default=None,
                       dest="incident_deg")
    _add_grid_flag(p_pre)
    _add_common_output_flags(p_pre)
    p_pre.set_defaults(func=cmd_predict)

    p_ex = sub.add_parser("example", help="run a shipped demo end to end")
    p_ex.add_argument("which", choices=sorted(EXAMPLE_PERMEABILITIES))
    p_ex.add_argument("--num-dirs", type=_positive_int,
                      default=DEFAULT_NUM_DIRECTIONS, dest="num_dirs")
    p_ex.add_argument("--snr-db", type=_snr_db, default=None, dest="snr_db")
    p_ex.add_argument("--seed", type=_seed, default=0)
    _add_grid_flag(p_ex)
    _add_peak_flags(p_ex)
    _add_common_output_flags(p_ex)
    p_ex.set_defaults(func=cmd_example)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except (ConfigError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except ValueError as exc:
        print(f"degenerate computation: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
