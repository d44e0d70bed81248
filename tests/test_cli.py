"""CLI behavior: exit codes, file outputs, determinism."""

import json

import numpy as np
import pytest

from dsm2d.cli import main

# note the = form: argparse would otherwise read "-1,..." as an option
COARSE = ["--grid=-1,1,-1,1,0.02"]


def _scene_doc():
    return {
        "background_permeability": 1.0,
        "inclusions": [
            {"center": [0.7, 0.5], "radius": 0.1, "permeability": 5.0},
        ],
        "wavelength": 0.4,
        "incident_direction_degrees": 45.0,
        "num_observation_directions": 256,
    }


@pytest.fixture()
def scene_file(tmp_path):
    path = tmp_path / "scene.json"
    path.write_text(json.dumps(_scene_doc()))
    return path


def _read_bytes(directory, names):
    return {name: (directory / name).read_bytes() for name in names}


def test_missing_scene_exits_2_without_outputs(tmp_path, capsys):
    out = tmp_path / "out"
    code = main(["synthesize", "--scene", str(tmp_path / "absent.json"),
                 "--out", str(out)])
    assert code == 2
    assert str(tmp_path / "absent.json") in _one_error_line(capsys)
    assert not out.exists()


def test_synthesize_writes_256_rows(tmp_path, scene_file):
    out = tmp_path / "out"
    assert main(["synthesize", "--scene", str(scene_file),
                 "--out", str(out)]) == 0
    lines = (out / "farfield.csv").read_text().strip().splitlines()
    assert len(lines) == 257
    sidecar = json.loads((out / "farfield.json").read_text())
    assert sidecar["wavelength"] == 0.4
    assert sidecar["noise"]["snr_db"] == "inf"


def test_synthesize_deterministic_with_noise(tmp_path, scene_file):
    out1, out2 = tmp_path / "a", tmp_path / "b"
    args = ["synthesize", "--scene", str(scene_file),
            "--snr-db", "20", "--seed", "7"]
    assert main(args + ["--out", str(out1)]) == 0
    assert main(args + ["--out", str(out2)]) == 0
    names = ["farfield.csv", "farfield.json"]
    assert _read_bytes(out1, names) == _read_bytes(out2, names)


def test_overwrite_needs_force(tmp_path, capsys):
    # radius 0.3 exceeds half the wavelength, so every run has a warning
    doc = _scene_doc()
    doc["inclusions"][0]["radius"] = 0.3
    scene_file = tmp_path / "scene.json"
    scene_file.write_text(json.dumps(doc))
    out = tmp_path / "out"
    args = ["synthesize", "--scene", str(scene_file), "--out", str(out)]
    assert main(args) == 0
    names = sorted(p.name for p in out.iterdir())
    before = _read_bytes(out, names)
    capsys.readouterr()
    # noisy data would change farfield.csv if the refused run wrote it
    assert main(args + ["--snr-db", "20"]) == 2
    assert "refusing to overwrite" in _one_error_line(capsys)
    assert sorted(p.name for p in out.iterdir()) == names
    assert _read_bytes(out, names) == before
    assert main(args + ["--snr-db", "20", "--force"]) == 0
    assert _read_bytes(out, names) != before


_EXAMPLE_FILES = ("farfield.csv", "farfield.json", "scene.json", "map.csv", "map.pgm",
                  "peaks.json", "analytic_map.csv", "analytic_map.pgm",
                  "predicted_peaks.json", "report.json")


def _tree(directory):
    return {str(p.relative_to(directory)): p.is_file() and p.read_bytes()
            for p in sorted(directory.rglob("*"))}


@pytest.mark.parametrize("earlier", [False, True], ids=["fresh", "over-a-run"])
@pytest.mark.parametrize("name", _EXAMPLE_FILES)
def test_a_target_that_is_no_regular_file_fails_before_any_write(tmp_path, capsys,
                                                                 name, earlier):
    out = tmp_path / "out"
    grid = "--grid=-1,1,-1,1,0.05"
    if earlier:  # a complete run of ex1; ex2 would change every file
        assert main(["example", "ex1", grid, "--out", str(out)]) == 0
        assert sorted(p.name for p in out.iterdir()) == sorted(_EXAMPLE_FILES)
        (out / name).unlink()
    (out / name).mkdir(parents=True)
    (out / name / "kept.txt").write_text("kept\n")
    before = _tree(out)
    capsys.readouterr()
    assert main(["example", "ex2", grid, "--out", str(out), "--force"]) == 2
    assert str(out / name) in _one_error_line(capsys)
    assert _tree(out) == before


def test_a_target_that_is_no_regular_file_fails_before_the_warnings(tmp_path, capsys):
    doc = _scene_doc()
    doc["inclusions"][0]["radius"] = 0.3  # beyond half the wavelength: a warning
    scene_file = tmp_path / "scene.json"
    scene_file.write_text(json.dumps(doc))
    (tmp_path / "out" / "farfield.json").mkdir(parents=True)
    assert main(["synthesize", "--scene", str(scene_file),
                 "--out", str(tmp_path / "out"), "--force"]) == 2
    assert "not regular files" in _one_error_line(capsys)
    assert [p.name for p in (tmp_path / "out").iterdir()] == ["farfield.json"]


def test_bad_grid_spec_exits_2(tmp_path, scene_file):
    assert main(["predict", "--scene", str(scene_file),
                 "--grid", "0,1,0,1", "--out", str(tmp_path / "p")]) == 2


def test_image_pipeline_reports_demo_peaks(tmp_path, scene_file):
    data_dir = tmp_path / "data"
    assert main(["synthesize", "--scene", str(scene_file),
                 "--out", str(data_dir)]) == 0
    img_dir = tmp_path / "img"
    assert main(["image", "--data", str(data_dir / "farfield.csv"),
                 "--out", str(img_dir), *COARSE]) == 0
    report = json.loads((img_dir / "peaks.json").read_text())
    top = report["peaks"][:2]
    got = sorted((p["x"], p["y"]) for p in top)
    for (x, y), want in zip(got, [(0.6171, 0.4171), (0.7829, 0.5829)]):
        assert np.hypot(x - want[0], y - want[1]) < 0.02
    assert report["residual"] < 1e-3
    assert (img_dir / "map.pgm").exists()
    assert len(report["predicted"]) == 2


def test_image_all_zero_data_exits_1(tmp_path):
    from dsm2d.forward import FarFieldData, write_far_field
    from dsm2d.model import WaveContext

    silent = FarFieldData(np.zeros(64, dtype=complex))
    write_far_field(silent, tmp_path / "farfield.csv",
                    wave=WaveContext.from_degrees(0.4, 45.0))
    for existing in (False, True):
        out = tmp_path / f"img-{existing}"
        if existing:
            out.mkdir()
        code = main(["image", "--data", str(tmp_path / "farfield.csv"),
                     "--out", str(out), *COARSE])
        assert code == 1
        if existing:
            assert list(out.iterdir()) == []
        else:
            assert not out.exists()


def test_image_of_data_above_the_grid_bandwidth_exits_1(tmp_path, capsys):
    # Every sample alternates in sign: all the energy sits at mode N/2 = 128,
    # far above the L = 55 that the default grid resolves at this wavelength.
    from dsm2d.forward import FarFieldData, write_far_field
    from dsm2d.model import WaveContext

    nyquist = FarFieldData((-1.0) ** np.arange(1, 257))
    write_far_field(nyquist, tmp_path / "farfield.csv",
                    wave=WaveContext.from_degrees(0.4, 45.0))
    out = tmp_path / "img"
    assert main(["image", "--data", str(tmp_path / "farfield.csv"),
                 "--out", str(out)]) == 1
    assert "no energy at the modes |m| <= 55" in _one_error_line(capsys)
    assert not out.exists()


def test_synthesize_writes_the_incident_angle_it_was_given(tmp_path, scene_file):
    # 270 degrees used to be written as atan2's -90.00000000000001, whose
    # direction differs from the data's in the last bit
    from dsm2d.model import WaveContext, load_scene_config

    out = tmp_path / "syn"
    assert main(["synthesize", "--scene", str(scene_file), "--incident-deg", "270",
                 "--out", str(out)]) == 0
    sidecar = json.loads((out / "farfield.json").read_text())
    assert sidecar["scene"]["incident_direction_degrees"] == 270.0
    wave = load_scene_config(out / "farfield.json", sidecar["scene"])["wave"]
    assert wave.incident_direction.tobytes() == \
        WaveContext.from_degrees(0.4, 270.0).incident_direction.tobytes()


def test_image_without_wavelength_exits_2(tmp_path, scene_file):
    data_dir = tmp_path / "data"
    assert main(["synthesize", "--scene", str(scene_file),
                 "--out", str(data_dir)]) == 0
    (data_dir / "farfield.json").unlink()  # drop the sidecar
    assert main(["image", "--data", str(data_dir / "farfield.csv"),
                 "--out", str(tmp_path / "img"), *COARSE]) == 2


def test_predict_outputs_closed_form_peaks(tmp_path, scene_file):
    out = tmp_path / "pred"
    assert main(["predict", "--scene", str(scene_file),
                 "--out", str(out), *COARSE]) == 0
    report = json.loads((out / "predicted_peaks.json").read_text())
    assert report["offset_radius"] == pytest.approx(0.11721443248831907,
                                                    rel=1e-12)
    got = sorted((p["x"], p["y"]) for p in report["predicted"])
    assert np.allclose(got[0], [0.6171168799345768, 0.4171168799345768],
                       atol=1e-12)
    assert np.allclose(got[1], [0.7828831200654232, 0.5828831200654232],
                       atol=1e-12)
    assert (out / "analytic_map.csv").exists()
    assert (out / "analytic_map.pgm").exists()


def test_example_ex2_predicts_six_peaks(tmp_path):
    out = tmp_path / "ex2"
    assert main(["example", "ex2", "--out", str(out), *COARSE]) == 0
    report = json.loads((out / "report.json").read_text())
    assert len(report["predicted"]) == 6
    assert report["residual"] <= 1e-3


def test_example_ex2_peaks_land_away_from_centers(tmp_path):
    # With equal permeabilities every indicator peak is displaced from the
    # true centers; none may sit within 0.05 of any of them.
    out = tmp_path / "ex2"
    assert main(["example", "ex2", "--out", str(out), *COARSE]) == 0
    peaks = json.loads((out / "peaks.json").read_text())["peaks"]
    assert peaks
    centers = [(0.7, 0.5), (-0.7, 0.0), (0.2, -0.5)]
    for p in peaks:
        assert all(np.hypot(p["x"] - cx, p["y"] - cy) >= 0.05
                   for cx, cy in centers)


def test_example_ex3_top_pair_marks_weakest_inclusion(tmp_path):
    # The lowest-permeability inclusion scatters strongest, so the two
    # highest peaks must both sit nearest to its center (0.2, -0.5).
    out = tmp_path / "ex3"
    assert main(["example", "ex3", "--out", str(out), *COARSE]) == 0
    peaks = json.loads((out / "peaks.json").read_text())["peaks"]
    centers = [(0.7, 0.5), (-0.7, 0.0), (0.2, -0.5)]
    for p in peaks[:2]:
        dists = [np.hypot(p["x"] - cx, p["y"] - cy) for cx, cy in centers]
        assert int(np.argmin(dists)) == 2


def test_example_ex3_contrast_factors(tmp_path):
    out = tmp_path / "ex3"
    assert main(["example", "ex3", "--out", str(out), *COARSE]) == 0
    report = json.loads((out / "report.json").read_text())
    assert report["contrast_factors"] == pytest.approx(
        [1.0 / 11.0, 1.0 / 7.0, 1.0 / 3.0], rel=1e-15)


def test_example_thread_count_does_not_change_bytes(tmp_path):
    out1, out2 = tmp_path / "t1", tmp_path / "t4"
    assert main(["example", "ex1", "--out", str(out1), *COARSE,
                 "--threads", "1"]) == 0
    assert main(["example", "ex1", "--out", str(out2), *COARSE,
                 "--threads", "4"]) == 0
    names = ["farfield.csv", "map.csv", "map.pgm", "analytic_map.csv",
             "analytic_map.pgm", "peaks.json", "predicted_peaks.json",
             "report.json"]
    assert _read_bytes(out1, names) == _read_bytes(out2, names)


def _one_error_line(capsys) -> str:
    lines = capsys.readouterr().err.splitlines()
    assert len(lines) == 1
    return lines[0]


def test_predict_nan_incident_exits_2_without_outputs(tmp_path, scene_file,
                                                      capsys):
    # checked at parse time, so the flag and not the scene file is named
    out = tmp_path / "p"
    with pytest.raises(SystemExit) as exc:
        main(["predict", "--scene", str(scene_file), "--incident-deg", "nan",
              "--out", str(out), *COARSE])
    assert exc.value.code == 2
    line = _one_error_line(capsys)
    assert "--incident-deg" in line and "finite" in line
    assert not out.exists()


def test_degenerate_inclusion_weight_exits_2_without_outputs(tmp_path, capsys):
    # r^2 overflows or underflows; mu_m + mu_0 (the contrast denominator)
    # is infinite or overflows. JSON's Infinity parses to inf.
    path = tmp_path / "scene.json"
    out = tmp_path / "out"
    for radius, mu, mu0, message in ((1e200, 5.0, 1.0, "square"),
                                     (1e-200, 5.0, 1.0, "square"),
                                     (0.1, float("inf"), 1.0, "finite"),
                                     (0.1, 1e308, 1e308, "finite")):
        doc = _scene_doc()
        doc["background_permeability"] = mu0
        doc["inclusions"][0].update(radius=radius, permeability=mu)
        path.write_text(json.dumps(doc))
        for command in ("synthesize", "predict"):
            assert main([command, "--scene", str(path), "--out", str(out)]) == 2
            assert message in _one_error_line(capsys)
            assert not out.exists()


def test_infinite_grid_bound_exits_2_without_outputs(tmp_path, scene_file,
                                                     capsys):
    out = tmp_path / "p"
    # node counts that overflow a double, or that no map could hold
    for spec, message in (("-1,inf,-1,1,0.1", "finite"),
                          ("-1,1,-1,1,1e-320", "nodes"),
                          ("-1e308,1e308,-1,1,0.5", "nodes"),
                          ("-1,1,-1,1,1e-6", "nodes")):
        assert main(["predict", "--scene", str(scene_file),
                     f"--grid={spec}", "--out", str(out)]) == 2
        assert message in _one_error_line(capsys)
        assert not out.exists()


@pytest.mark.parametrize("value", ["0", "-2", "1.5", "x"])
def test_threads_below_one_is_rejected_at_parse_time(tmp_path, capsys, value):
    out = tmp_path / "ex"
    with pytest.raises(SystemExit) as exc:
        main(["example", "ex1", "--threads", value, "--out", str(out), *COARSE])
    assert exc.value.code == 2
    assert "--threads" in _one_error_line(capsys)
    assert not out.exists()


def test_image_rejects_bad_sidecar_scene(tmp_path, scene_file, capsys):
    data_dir = tmp_path / "data"
    assert main(["synthesize", "--scene", str(scene_file),
                 "--out", str(data_dir)]) == 0
    sidecar = data_dir / "farfield.json"
    meta = json.loads(sidecar.read_text())
    meta["scene"]["num_observation_directions"] = 2.5
    sidecar.write_text(json.dumps(meta))
    capsys.readouterr()
    out = tmp_path / "img"
    assert main(["image", "--data", str(data_dir / "farfield.csv"),
                 "--out", str(out), *COARSE]) == 2
    line = _one_error_line(capsys)
    assert "direction count" in line and str(sidecar) in line
    assert not out.exists()


def test_json_outputs_refuse_nan(tmp_path):
    from dsm2d.cli import _write_json

    with pytest.raises(ValueError):
        _write_json(tmp_path / "x.json", {"value": float("nan")})


@pytest.mark.parametrize("argv, flag", [
    (["example", "ex1", "--snr-db", "nan"], "--snr-db"),
    (["example", "ex1", "--snr-db=-inf"], "--snr-db"),
    (["example", "ex1", "--snr-db", "10", "--seed=-1"], "--seed"),
    (["example", "ex1", "--seed=-1"], "--seed"),
    (["example", "ex1", "--min-peak-value", "1.5"], "--min-peak-value"),
    (["example", "ex1", "--min-peak-value", "0"], "--min-peak-value"),
    (["example", "ex1", "--min-peak-value", "nan"], "--min-peak-value"),
    (["example", "ex1", "--min-peak-separation", "0"], "--min-peak-separation"),
    (["example", "ex1", "--min-peak-separation", "nan"],
     "--min-peak-separation"),
    (["synthesize", "--scene", "SCENE", "--snr-db", "nan"], "--snr-db"),
    (["synthesize", "--scene", "SCENE", "--seed=-1"], "--seed"),
    (["image", "--data", "DATA", "--min-peak-value", "1.5"],
     "--min-peak-value"),
    (["image", "--data", "DATA", "--min-peak-separation=-0.1"],
     "--min-peak-separation"),
    (["example", "ex1", "--snr-db=-1e308"], "--snr-db"),
    (["synthesize", "--scene", "SCENE", "--snr-db=-3082.55"], "--snr-db"),
    (["predict", "--scene", "SCENE", "--num-dirs", "3"], "--num-dirs"),
    # 2*pi/1e-320 overflows; the flag, not the scene file, is named
    (["predict", "--scene", "SCENE", "--wavelength", "1e-320"], "--wavelength"),
    (["synthesize", "--scene", "SCENE", "--wavelength=-0.4"], "--wavelength"),
    (["image", "--data", "DATA", "--wavelength", "inf"], "--wavelength"),
    (["synthesize", "--scene", "SCENE", "--incident-deg", "inf"],
     "--incident-deg"),
    (["synthesize", "--scene", "SCENE", "--num-dirs", str(10 ** 15)],
     "--num-dirs"),
    (["example", "ex1", "--num-dirs", str(10 ** 15)], "--num-dirs"),
    (["synthesize", "--scene", "SCENE", "--threads", "7"], "--threads"),
])
def test_bad_config_flags_exit_2_before_any_output(tmp_path, scene_file, capsys,
                                                  argv, flag):
    data_dir = tmp_path / "data"
    assert main(["synthesize", "--scene", str(scene_file),
                 "--out", str(data_dir)]) == 0
    capsys.readouterr()
    out = tmp_path / "out"
    out.mkdir()
    argv = [{"SCENE": str(scene_file),
             "DATA": str(data_dir / "farfield.csv")}.get(a, a) for a in argv]
    grid = [] if argv[0] == "synthesize" else COARSE
    with pytest.raises(SystemExit) as exc:
        main([*argv, "--out", str(out), *grid])
    assert exc.value.code == 2
    assert flag in _one_error_line(capsys)
    assert list(out.iterdir()) == []


@pytest.mark.parametrize("existing", [False, True])
@pytest.mark.parametrize("command", ["example", "synthesize"])
def test_noise_power_overflow_exits_1_without_outputs(tmp_path, scene_file,
                                                      capsys, command,
                                                      existing):
    # 10^(308.25) is finite, but times the signal power it is not.
    out = tmp_path / "out"
    if existing:
        out.mkdir()
    argv = (["example", "ex1", *COARSE] if command == "example"
            else ["synthesize", "--scene", str(scene_file)])
    assert main([*argv, "--snr-db=-3082.5", "--out", str(out)]) == 1
    assert "noise power overflows" in _one_error_line(capsys)
    if existing:
        assert list(out.iterdir()) == []
    else:
        assert not out.exists()


def test_exit_2_lines_name_the_bad_input(tmp_path, scene_file, capsys):
    data_dir = tmp_path / "data"
    assert main(["synthesize", "--scene", str(scene_file),
                 "--out", str(data_dir)]) == 0
    csv, sidecar = data_dir / "farfield.csv", data_dir / "farfield.json"
    bad_json = tmp_path / "bad.json"
    bad_json.write_text("{not json")
    bad_scene = tmp_path / "radius.json"
    bad_scene.write_text(json.dumps({**_scene_doc(), "inclusions": [
        {"center": [0.7, 0.5], "radius": -1.0, "permeability": 5.0}]}))
    bad_csv = tmp_path / "rows.csv"
    bad_csv.write_text(csv.read_text().replace("\n2,", "\n2,x", 1))
    # header only, a ragged row, a non-finite value, 255 of the 256 directions;
    # numpy's wording differs between versions, so only the file name is matched
    rows = csv.read_text().splitlines()
    bad_csvs = [tmp_path / f"defect{i}.csv" for i in range(4)]
    for path, defect in zip(bad_csvs, (
            rows[:1], [*rows[:2], rows[2].rsplit(",", 1)[0], *rows[3:]],
            [*rows[:2], rows[2].rsplit(",", 1)[0] + ",inf", *rows[3:]],
            rows[:-1])):
        path.write_text("\n".join(defect) + "\n")
    capsys.readouterr()
    out = tmp_path / "out"
    for argv, named in (
            (["synthesize", "--scene", str(bad_json)], bad_json),
            (["predict", "--scene", str(bad_scene), *COARSE], bad_scene),
            *((["image", "--data", str(path), *COARSE], path)
              for path in [bad_csv, *bad_csvs]),
            (["image", "--data", str(tmp_path / "none.csv"), *COARSE],
             tmp_path / "none.csv")):
        assert main([*argv, "--out", str(out)]) == 2
        assert str(named) in _one_error_line(capsys)
        assert not out.exists()
    for broken in ("[1, 2]", json.dumps({"num_observation_directions": 256})):
        sidecar.write_text(broken)
        assert main(["image", "--data", str(csv), *COARSE, "--out", str(out)]) == 2
        assert str(sidecar) in _one_error_line(capsys)
        assert not out.exists()
    # with --wavelength, a sidecar without one is fine
    assert main(["image", "--data", str(csv), *COARSE, "--wavelength", "0.4",
                 "--out", str(out)]) == 0


def test_directions_off_by_more_than_1e_12_exit_2(tmp_path, scene_file, capsys):
    # theta_x of direction 5 (about 0.981) times 1 + 4e-6 is 3.9e-6 off:
    # within numpy's default rtol of 1e-5, but not the uniform set
    data_dir = tmp_path / "data"
    assert main(["synthesize", "--scene", str(scene_file),
                 "--out", str(data_dir)]) == 0
    rows = (data_dir / "farfield.csv").read_text().splitlines()
    n, theta_x, rest = rows[5].split(",", 2)
    rows[5] = f"{n},{float(theta_x) * (1 + 4e-6):.17g},{rest}"
    bad = data_dir / "perturbed.csv"
    bad.write_text("\n".join(rows) + "\n")
    capsys.readouterr()
    out = tmp_path / "out"
    assert main(["image", "--data", str(bad), *COARSE, "--wavelength", "0.4",
                 "--out", str(out)]) == 2
    line = _one_error_line(capsys)
    assert str(bad) in line and "uniform 256-point set" in line
    assert not out.exists()


def test_direction_cap_exits_2_without_outputs(tmp_path, capsys):
    # 10**15 directions would need petabytes, so a missing direction check
    # fails at once. The data map of 10**6 directions on 2 x 10**7 nodes
    # allocates little but is about 10**13 complex multiply-adds, so
    # without the N*(nx + ny) cap this run would not end in test time.
    path = tmp_path / "scene.json"
    path.write_text(json.dumps({**_scene_doc(),
                                "num_observation_directions": 10 ** 15}))
    out = tmp_path / "out"
    for command in ("synthesize", "predict"):
        assert main([command, "--scene", str(path), "--out", str(out)]) == 2
        line = _one_error_line(capsys)
        assert str(path) in line and "direction count" in line
        assert not out.exists()
    assert main(["example", "ex1", "--num-dirs", "1000000",
                 "--grid=0,1,0,1e-7,1e-7", "--out", str(out)]) == 2
    assert "N*(nx + ny)" in _one_error_line(capsys)
    assert not out.exists()


@pytest.mark.parametrize("snr", [[], ["--snr-db", "20"]])
def test_tiny_scene_images_like_any_other(tmp_path, capsys, snr):
    # r = 1e-100: the samples are about 1e-200, so |psi|^2 underflows to 0
    path = tmp_path / "scene.json"
    doc = _scene_doc()
    doc["inclusions"][0]["radius"] = 1e-100
    path.write_text(json.dumps(doc))
    data_dir, img_dir = tmp_path / "data", tmp_path / "img"
    assert main(["synthesize", "--scene", str(path), *snr,
                 "--out", str(data_dir)]) == 0
    assert main(["image", "--data", str(data_dir / "farfield.csv"), *COARSE,
                 "--out", str(img_dir)]) == 0
    assert capsys.readouterr().err == ""
    report = json.loads((img_dir / "peaks.json").read_text())
    assert report["residual"] < (1e-3 if not snr else 0.1)


def test_far_field_beyond_the_double_range_exits_1_without_outputs(
        tmp_path, scene_file, capsys):
    # k = 2*pi/1e-300: k**1.5 * r**2 overflows. k = 2*pi/1e300: it underflows.
    out = tmp_path / "out"
    for wavelength, message in (("1e-300", "finite"), ("1e300", "zero")):
        assert main(["synthesize", "--scene", str(scene_file),
                     "--wavelength", wavelength, "--out", str(out)]) == 1
        assert message in _one_error_line(capsys)
        assert not out.exists()


def test_far_grid_exits_1_without_numpy_warnings(tmp_path, scene_file, capsys):
    # k*x overflows in the data map's phases and |x - x_m| in the closed
    # form; both must reach their finite checks without a RuntimeWarning.
    far = "--grid=1e307,1.5e308,1e307,1.5e308,1e307"
    for argv in (["example", "ex1"], ["predict", "--scene", str(scene_file)]):
        out = tmp_path / argv[0]
        assert main([*argv, far, "--out", str(out)]) == 1
        assert "finite" in _one_error_line(capsys)
        assert not out.exists()


def test_far_center_predicts_without_numpy_warnings(tmp_path, capsys):
    # k*|x - x_m| near 1e301: J1's Hankel zone overflows 1/(x*x) on the way
    # to its limit 0. At wavelength 1e-10, k*|x - x_m| itself overflows.
    path = tmp_path / "scene.json"
    doc = _scene_doc()
    doc["inclusions"].append({"center": [1e300, 0.5], "radius": 0.1,
                              "permeability": 5.0})
    path.write_text(json.dumps(doc))
    out = tmp_path / "out"
    assert main(["predict", "--scene", str(path), *COARSE, "--out", str(out)]) == 0
    assert capsys.readouterr().err == ""
    assert main(["predict", "--scene", str(path), *COARSE, "--wavelength",
                 "1e-10", "--out", str(tmp_path / "k")]) == 1
    assert "finite" in _one_error_line(capsys)
    assert not (tmp_path / "k").exists()


def test_underflowing_closed_form_terms_still_map(tmp_path, capsys):
    # weight r^2 * contrast = 1e-305 is normal, but times J1 at k|x| ~ 1e302
    # (about 1e-151) every unscaled band term underflows to zero
    path = tmp_path / "scene.json"
    path.write_text(json.dumps({
        "background_permeability": 1e-300,
        "inclusions": [{"center": [1e300, 0.234], "radius": 1e-3,
                        "permeability": 0.1}],
        "wavelength": 0.05, "incident_direction_degrees": 0.0,
        "num_observation_directions": 64}))
    data_dir = tmp_path / "data"
    assert main(["predict", "--scene", str(path), *COARSE,
                 "--out", str(tmp_path / "pre")]) == 0
    assert main(["synthesize", "--scene", str(path), "--out", str(data_dir)]) == 0
    assert main(["image", "--data", str(data_dir / "farfield.csv"), *COARSE,
                 "--out", str(tmp_path / "img")]) == 0
    assert capsys.readouterr().err == ""
    for name in ("pre/analytic_map.csv", "img/map.csv"):
        values = np.loadtxt(tmp_path / name, delimiter=",", skiprows=1)[:, 2]
        assert np.all(np.isfinite(values)) and values.max() == 1.0
