"""The three workloads: inputs from the seed, one op, and its checks.

Each workload is a closed loop with one client: the next op starts when
the previous one has ended. Maps are always swept with ``threads=1``
(see README.md for why ``threads=2`` is left out).
"""

from __future__ import annotations

import contextlib
import io
import json
import math
import subprocess
import sys
from pathlib import Path

import numpy as np

from dsm2d import cli, forward, imaging, indicator, model
from dsm2d.imaging import SearchGrid

import checks

DEFAULT_GRID = SearchGrid(-1.0, 1.0, -1.0, 1.0, 0.005)  # 401 x 401
FINE_GRID = SearchGrid(-1.0, 1.0, -1.0, 1.0, 0.001)  # 2001 x 2001
EXAMPLES = ("ex1", "ex2", "ex3")
MIN_PEAK_VALUE = cli.DEFAULT_MIN_PEAK_VALUE
MIN_PEAK_SEPARATION = cli.DEFAULT_MIN_PEAK_SEPARATION
SCENE_DISKS = 6
DISK_RADIUS = 0.1
PERMEABILITY_RANGE = (1.5, 10.0)
_RUN_CLI = "import sys; from dsm2d.cli import main; sys.exit(main())"


class Case:
    """One op's input, drawn from the workload seed."""

    def __init__(self, label: str, **fields):
        self.label = label
        self.__dict__.update(fields)


def random_scene_doc(rng) -> dict:
    """A scene of ``SCENE_DISKS`` disks that ``validate_scene`` accepts silently.

    Centers are default-grid nodes inside [-0.8, 0.8]^2 and every pair
    satisfies k * distance >= 7.5, the separation threshold.
    """
    wave = cli.example_wave()
    k = wave.wavenumber
    xs = DEFAULT_GRID.x_nodes()
    nodes = xs[(xs >= -0.8) & (xs <= 0.8)]
    while True:
        centers = []
        for _ in range(1000):
            c = np.array([rng.choice(nodes), rng.choice(nodes)])
            if all(k * float(np.hypot(*(c - o))) >= model.DEFAULT_SEPARATION_THRESHOLD
                   for o in centers):
                centers.append(c)
                if len(centers) == SCENE_DISKS:
                    break
        if len(centers) == SCENE_DISKS:
            break
    return {
        "background_permeability": 1.0,
        "inclusions": [{"center": c.tolist(), "radius": DISK_RADIUS,
                        "permeability": float(rng.uniform(*PERMEABILITY_RANGE))}
                       for c in centers],
        "wavelength": wave.wavelength,
        "incident_direction_degrees": cli._DEMO_ANGLE_DEG,
        "num_observation_directions": cli.DEFAULT_NUM_DIRECTIONS,
    }


def _quiet(fn, *args):
    with contextlib.redirect_stdout(io.StringIO()), \
            contextlib.redirect_stderr(io.StringIO()) as err:
        code = fn(*args)
    return code, err.getvalue()


class Workload:
    """Base: ``cases`` yields inputs forever, ``op`` runs one, ``check``
    verifies it. ``op`` returns the number of grid nodes it imaged.
    ``layers`` names the spans every traced run of it must record."""

    name = ""
    layers = frozenset()

    def __init__(self, seed: int, work: Path):
        self.seed = seed
        self.work = work
        self.rng = np.random.default_rng(seed)
        self.nodes = {}  # grid -> seeded oracle nodes

    def oracle_nodes(self, grid):
        if grid not in self.nodes:
            self.nodes[grid] = checks.sample_nodes(self.rng, (grid.ny, grid.nx))
        return self.nodes[grid]


class DemoCli(Workload):
    """``dsm2d example exN --force``: a fresh interpreter per op.

    Untraced ops run the CLI as a subprocess, so interpreter start and
    ``import dsm2d`` are paid per op, as a user pays them. The traced
    run calls ``dsm2d.cli.main`` in process instead.
    """

    name = "demo-cli"
    layers = frozenset({
        "cli.main", "model.make_observation_set", "model.validate_scene",
        "forward.synthesize_far_field", "forward.add_noise",
        "forward.write_far_field", "imaging.compute_map.data",
        "imaging.compute_map.closed_form", "specfun.bessel_j1",
        "imaging.export_map.csv", "imaging.export_map.pgm",
        "imaging.extract_peaks", "indicator.predicted_peaks"})

    def __init__(self, seed, work):
        super().__init__(seed, work)
        self.first = {}  # example -> digest of its first op's outputs

    def cases(self):
        i = self.seed
        while True:
            which = EXAMPLES[i % len(EXAMPLES)]
            yield Case(which, which=which, out=self.work / which)
            i += 1

    def argv(self, case):
        return ["example", case.which, "--force", "--out", str(case.out),
                "--threads", "1"]

    def op(self, case, in_process: bool) -> int:
        if in_process:
            code, err = _quiet(cli.main, self.argv(case))
        else:
            proc = subprocess.run([sys.executable, "-c", _RUN_CLI, *self.argv(case)],
                                  stdout=subprocess.DEVNULL,
                                  stderr=subprocess.PIPE, text=True, timeout=150)
            code, err = proc.returncode, proc.stderr
        checks.require(code == 0, f"exit {code}: {err.strip()}")
        checks.require(err == "", f"unexpected stderr: {err.strip()}")
        return 2 * DEFAULT_GRID.nx * DEFAULT_GRID.ny

    def check(self, case) -> None:
        got = checks.digest(case.out)
        if case.which not in self.first:
            checks.check_demo_outputs(case.out, case.which, DEFAULT_GRID,
                                      self.oracle_nodes(DEFAULT_GRID))
            self.first[case.which] = got
        checks.require(got == self.first[case.which],
                       f"{case.which}: outputs differ from this run's first op")


class ImageSweep(Workload):
    """The ``dsm2d image`` path without export, in process.

    synthesize -> add_noise -> write_far_field -> read_far_field ->
    compute_map (data) -> extract_peaks. Export and the Bessel kernel do
    not run here.
    """

    name = "image-sweep"
    layers = frozenset({
        "model.make_observation_set", "forward.synthesize_far_field",
        "forward.add_noise", "forward.write_far_field",
        "forward.read_far_field", "imaging.compute_map.data",
        "imaging.extract_peaks"})

    def __init__(self, seed, work):
        super().__init__(seed, work)
        self.wave = cli.example_wave()
        self.closed_form = {}  # (example, node) -> closed-form magnitude

    @staticmethod
    def case(which, n, grid=DEFAULT_GRID, snr=math.inf, noise_seed=0):
        label = f"{which}/N{n}" + ("/fine" if grid is FINE_GRID else "") + (
            f"/{snr:g}dB" if snr != math.inf else "")
        return Case(label, which=which, scene=cli.example_scene(which), n=n,
                    grid=grid, noise=forward.NoiseSpec(snr_db=snr, seed=noise_seed))

    def cycle(self, rng):
        cases = [self.case(ex, n) for ex in EXAMPLES for n in (64, 256, 1024)]
        cases.append(self.case("ex1", 256, snr=20.0,
                               noise_seed=int(rng.integers(2**31))))
        cases += [self.case(ex, 256, grid=FINE_GRID) for ex in ("ex1", "ex3")]
        return [cases[i] for i in rng.permutation(len(cases))]

    def cases(self):
        rng = np.random.default_rng([self.seed, 1])
        while True:
            yield from self.cycle(rng)

    def op(self, case, in_process: bool = True) -> int:
        scene, spec = case.scene, case.noise
        path = self.work / "farfield.csv"
        obs = model.make_observation_set(case.n)
        data = forward.synthesize_far_field(scene, self.wave, obs)
        data = forward.add_noise(data, spec)
        forward.write_far_field(data, path, scene=scene, wave=self.wave, noise=spec)
        loaded, meta = forward.read_far_field(path)
        k = model.wavenumber_from_wavelength(float(meta["wavelength"]))
        case.map = imaging.compute_map(loaded, case.grid, wavenumber=k, threads=1)
        case.peaks = imaging.extract_peaks(case.map, MIN_PEAK_VALUE,
                                           MIN_PEAK_SEPARATION)
        case.written, case.loaded = data, loaded
        return case.grid.nx * case.grid.ny

    def check(self, case) -> None:
        values, grid = case.map.values, case.grid
        checks.require(np.array_equal(case.written.samples, case.loaded.samples),
                       "far-field CSV round trip is not lossless")
        checks.check_map(values)
        nodes = self.oracle_nodes(grid)
        k = self.wave.wavenumber
        checks.check_against_oracle(
            values, grid, nodes,
            lambda p: indicator.dsm_indicator_raw(case.loaded, k, p))
        clean = case.noise.snr_db == math.inf
        if clean:
            # Criterion-3 residual, taken at the oracle nodes: the closed
            # form is normalized at the data map's argmax node.
            xs, ys = grid.x_nodes(), grid.y_nodes()

            def closed(iy, ix):
                key = (case.which, grid, iy, ix)
                if key not in self.closed_form:
                    self.closed_form[key] = indicator.closed_form_magnitude(
                        case.scene, self.wave, np.array([xs[ix], ys[iy]]))
                return self.closed_form[key]

            top = np.unravel_index(int(np.argmax(values)), values.shape)
            at = tuple(zip(*nodes))
            predicted = np.array([closed(iy, ix) for iy, ix in nodes]) / closed(*top)
            checks.check_residual(values[at], predicted)
        if case.which == "ex1" and clean:
            checks.check_ex1_peaks([p.position for p in case.peaks], grid.step)
        del case.map, case.written, case.loaded


class PredictScenes(Workload):
    """The ``dsm2d predict`` path without export, in process.

    load_scene_config -> validate_scene -> compute_map (closed form) ->
    predicted_peaks -> extract_peaks, on ex2, ex3 and a fresh seeded
    6-disk scene per cycle. The data map and export do not run here.
    """

    name = "predict-scenes"
    layers = frozenset({
        "model.load_scene_config", "model.make_observation_set",
        "model.validate_scene", "imaging.compute_map.closed_form",
        "specfun.bessel_j1", "indicator.predicted_peaks",
        "imaging.extract_peaks"})

    def __init__(self, seed, work):
        super().__init__(seed, work)
        self.first = {}  # fixed scene -> bytes of its first map

    def cases(self):
        rng = np.random.default_rng([self.seed, 2])
        wave = cli.example_wave()
        obs = model.make_observation_set(cli.DEFAULT_NUM_DIRECTIONS)
        fixed = {ex: model.scene_config_document(cli.example_scene(ex), wave, obs)
                 for ex in ("ex2", "ex3")}
        path = self.work / "scene.json"
        while True:
            for label in ("ex2", "ex3", "random6"):
                doc = fixed.get(label) or random_scene_doc(rng)
                path.write_text(json.dumps(doc))
                yield Case(label, path=path, fixed=label in fixed)

    def op(self, case, in_process: bool = True) -> int:
        cfg = model.load_scene_config(case.path)
        scene, wave = cfg["scene"], cfg["wave"]
        case.report = model.validate_scene(scene, wave)
        case.map = imaging.compute_map((scene, wave), DEFAULT_GRID, threads=1)
        case.predicted = indicator.predicted_peaks(scene, wave)
        case.peaks = imaging.extract_peaks(case.map, MIN_PEAK_VALUE,
                                           MIN_PEAK_SEPARATION)
        case.scene, case.wave = scene, wave
        return DEFAULT_GRID.nx * DEFAULT_GRID.ny

    def check(self, case) -> None:
        values = case.map.values
        checks.require(case.report.ok, "validate_scene warned: " + "; ".join(
            e.message for e in case.report.entries))
        checks.check_map(values)
        checks.check_predicted(case.predicted, case.scene, case.wave)
        checks.require(len(case.peaks) >= 1, "no peaks extracted")
        raw = values.tobytes()
        if case.fixed and case.label in self.first:
            checks.require(raw == self.first[case.label],
                           f"{case.label}: map differs from this run's first op")
        else:
            checks.check_against_oracle(
                values, DEFAULT_GRID, self.oracle_nodes(DEFAULT_GRID),
                lambda p: indicator.closed_form_magnitude(case.scene, case.wave, p))
            if case.fixed:
                self.first[case.label] = raw
        del case.map


WORKLOADS = {w.name: w for w in (DemoCli, ImageSweep, PredictScenes)}
