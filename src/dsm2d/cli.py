"""Command-line pipeline: synthesize data, image it, predict peaks.

Subcommands
-----------
    synthesize   scene JSON -> far-field CSV + JSON sidecar
    image        far-field CSV -> indicator map (CSV + PGM) + peak report
    predict      scene JSON -> closed-form map (CSV + PGM) + predicted peaks
    example      run one of the three shipped single-wave demos end to end

Exit codes: 0 on success, 1 when the computation is degenerate (for
example all-zero data), 2 for configuration or I/O problems. Outputs are
never overwritten unless ``--force`` is given, and every command is
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
from .imaging import SearchGrid, compute_map, export_map, extract_peaks
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


def _prepare_outputs(out: str, names, force: bool) -> dict:
    out_dir = Path(out)
    paths = {name: out_dir / name for name in names}
    if not force:
        clashes = [str(p) for p in paths.values() if p.exists()]
        if clashes:
            raise ConfigError("refusing to overwrite existing outputs "
                              f"({', '.join(clashes)}); pass --force to allow")
    out_dir.mkdir(parents=True, exist_ok=True)
    return paths


def _apply_overrides(cfg: dict, args) -> dict:
    """CLI flags override the scene document."""
    lam = getattr(args, "wavelength", None)
    deg = getattr(args, "incident_deg", None)
    if lam is not None or deg is not None:
        try:
            cfg["wave"] = WaveContext.from_degrees(
                cfg["wave"].wavelength if lam is None else lam,
                float(cfg["raw"]["incident_direction_degrees"]) if deg is None else deg)
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


def _report_validation(scene, wave) -> None:
    report = validate_scene(scene, wave)
    for entry in report.entries:
        print(f"[warning] {entry.message}", file=sys.stderr)


def _noise_spec(args) -> NoiseSpec:
    snr = args.snr_db if args.snr_db is not None else math.inf
    return NoiseSpec(snr_db=snr, seed=args.seed)


def _peak_entries(peaks) -> list:
    return [{"x": float(p.position[0]), "y": float(p.position[1]),
             "value": p.value} for p in peaks]


def _predicted_entries(predictions) -> list:
    out = []
    for pred in predictions:
        for pos in pred.positions:
            out.append({"inclusion": pred.inclusion_index,
                        "x": float(pos[0]), "y": float(pos[1])})
    return out


def _write_json(path: Path, doc: dict) -> None:
    path.write_text(json.dumps(doc, indent=2, allow_nan=False) + "\n")


def _write_prediction(analytic_map, predictions, paths: dict) -> None:
    export_map(analytic_map, paths["analytic_map.csv"], "csv")
    export_map(analytic_map, paths["analytic_map.pgm"], "pgm")
    _write_json(paths["predicted_peaks.json"],
                {"predicted": _predicted_entries(predictions),
                 "offset_radius": predictions[0].offset_radius})


# ---------------------------------------------------------------------------
# Subcommands
# ---------------------------------------------------------------------------

def cmd_synthesize(args) -> int:
    cfg = _load_scene_or_fail(args.scene, args)
    scene, wave, obs = cfg["scene"], cfg["wave"], cfg["observations"]
    spec = _noise_spec(args)
    data = add_noise(synthesize_far_field(scene, wave, obs), spec)
    paths = _prepare_outputs(args.out, ["farfield.csv", "farfield.json"],
                             args.force)
    _report_validation(scene, wave)
    write_far_field(data, paths["farfield.csv"], scene=scene, wave=wave,
                    noise=spec)
    print(f"wrote {paths['farfield.csv']} ({obs.count} samples)")
    return 0


def _image_pipeline(data, wavenumber, scene, wave, grid, args, paths):
    """Shared by image/example: maps, peaks, optional residual."""
    data_map = compute_map(data, grid, wavenumber=wavenumber,
                           threads=args.threads)
    export_map(data_map, paths["map.csv"], "csv")
    export_map(data_map, paths["map.pgm"], "pgm")
    peaks = extract_peaks(data_map, args.min_peak_value,
                          args.min_peak_separation)
    residual = None
    predictions = None
    analytic_map = None
    if scene is not None and wave is not None:
        analytic_map = compute_map((scene, wave), grid, threads=args.threads)
        residual = float(np.max(np.abs(data_map.values - analytic_map.values)))
        predictions = predicted_peaks(scene, wave)
    return data_map, analytic_map, peaks, predictions, residual


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

    paths = _prepare_outputs(args.out, ["map.csv", "map.pgm", "peaks.json"],
                             args.force)
    _, _, peaks, predictions, residual = _image_pipeline(
        data, wavenumber, scene, wave, grid, args, paths)
    report = {"peaks": _peak_entries(peaks),
              "predicted": (_predicted_entries(predictions)
                            if predictions is not None else None),
              "residual": residual}
    _write_json(paths["peaks.json"], report)
    print(f"wrote {paths['map.csv']}, {paths['map.pgm']}, "
          f"{paths['peaks.json']} ({len(peaks)} peaks)")
    return 0


def cmd_predict(args) -> int:
    cfg = _load_scene_or_fail(args.scene, args)
    grid = _parse_grid(args.grid)
    paths = _prepare_outputs(args.out, ["analytic_map.csv", "analytic_map.pgm",
                                        "predicted_peaks.json"], args.force)
    scene, wave = cfg["scene"], cfg["wave"]
    _report_validation(scene, wave)
    analytic_map = compute_map((scene, wave), grid, threads=args.threads)
    _write_prediction(analytic_map, predicted_peaks(scene, wave), paths)
    print(f"wrote {paths['analytic_map.csv']}, {paths['analytic_map.pgm']}, "
          f"{paths['predicted_peaks.json']}")
    return 0


def cmd_example(args) -> int:
    which = args.which
    scene = example_scene(which)
    wave = example_wave()
    obs = make_observation_set(args.num_dirs)
    grid = _parse_grid(args.grid)
    spec = _noise_spec(args)
    data = add_noise(synthesize_far_field(scene, wave, obs), spec)
    out_dir = Path(args.out)
    names = ["scene.json", "farfield.csv", "farfield.json",
             "map.csv", "map.pgm", "peaks.json",
             "analytic_map.csv", "analytic_map.pgm", "predicted_peaks.json",
             "report.json"]
    paths = _prepare_outputs(args.out, names, args.force)
    _report_validation(scene, wave)

    _write_json(paths["scene.json"], scene_config_document(scene, wave, obs))
    write_far_field(data, paths["farfield.csv"], scene=scene, wave=wave,
                    noise=spec)

    data_map, analytic_map, peaks, predictions, residual = _image_pipeline(
        data, wave.wavenumber, scene, wave, grid, args, paths)
    _write_json(paths["peaks.json"], {"peaks": _peak_entries(peaks),
                                      "predicted": _predicted_entries(predictions),
                                      "residual": residual})

    _write_prediction(analytic_map, predictions, paths)

    report = {
        "example": which,
        "num_observation_directions": obs.count,
        "noise": {"snr_db": ("inf" if spec.snr_db == math.inf else spec.snr_db),
                  "seed": spec.seed},
        "grid": [grid.x_min, grid.x_max, grid.y_min, grid.y_max, grid.step],
        "residual": residual,
        "contrast_factors": [
            contrast_factor(inc.permeability, scene.background_permeability)
            for inc in scene.inclusions],
        "peaks": _peak_entries(peaks),
        "predicted": _predicted_entries(predictions),
    }
    _write_json(paths["report.json"], report)
    print(f"{which}: residual {residual:.3e}, {len(peaks)} peaks; "
          f"outputs in {out_dir}")
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
