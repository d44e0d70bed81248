"""Properties over the CLI's input space.

Every scene document, wave flag and grid spec either gives exit 0 with finite
outputs and nothing on stderr but ``[warning]`` lines, or gives exit 1 or
2 with exactly one stderr line and no ``--out``. No exception escapes.
"""

import contextlib
import io
import json
import math
import tempfile
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from dsm2d.cli import main
from dsm2d.imaging import MAX_GRID_NODES

GRID = "--grid=-1,1,-1,1,0.1"

# Values that no field expects, each valid JSON once dumped.
_ODD = st.sampled_from([
    1e300, -1e300, 1e-300, -1e-300, 5e-324, -2.5e-320, 0.0, -0.0, math.inf,
    -math.inf, math.nan, 10 ** 400, True, False, None, "0.4", "x", [], [0.5],
    [[0.5, 0.5]], [1.0, [2.0]], {}])
_DROP = object()


def _number(low, high, extremes):
    return st.one_of(st.floats(low, high), st.sampled_from(extremes))


_INCLUSION = st.fixed_dictionaries({
    "center": st.lists(_number(-1.5, 1.5, [1e300, -1e300, 1e-300, 5e-324, 1.7e308]),
                       min_size=2, max_size=2, unique=True),
    "radius": _number(1e-3, 0.3, [1e-100, 1e-155, 1e-160, 1e150, 5e-324]),
    "permeability": _number(0.1, 20.0, [1e300, 1e-300, 5e-324, 1e308]),
})

_SCENE = st.fixed_dictionaries({
    "background_permeability": _number(0.1, 5.0, [1e300, 1e-300, 5e-324, 1e308]),
    "inclusions": st.lists(_INCLUSION, min_size=1, max_size=3),
    "wavelength": _number(0.05, 2.0, [1e-300, 1e-307, 3e-308, 1e300, 1e-320]),
    "incident_direction_degrees": _number(-720.0, 720.0, [1e300, -1e300, 1e-300]),
    "num_observation_directions": st.integers(1, 64),
})


def _edited(doc, edits):
    """``doc`` with each ``(path, value)`` edit applied; ``_DROP`` deletes."""
    doc = json.loads(json.dumps(doc))
    for path, value in edits:
        try:
            parent = doc
            for key in path[:-1]:
                parent = parent[key]
            if value is _DROP:
                del parent[path[-1]]
            else:
                parent[path[-1]] = value
        except (KeyError, IndexError, TypeError):
            pass  # an earlier edit removed or replaced what this one edits
    return doc


def _with_faults(doc):
    paths = [(key,) for key in doc] + [
        ("inclusions", i, key) for i, inc in enumerate(doc["inclusions"])
        for key in inc]
    edits = st.lists(st.tuples(st.sampled_from(paths),
                               st.one_of(st.just(_DROP), _ODD)), max_size=2)
    return edits.map(lambda e: _edited(doc, e))


# Scene documents with extreme but valid values, and with up to two keys
# removed or given a value of the wrong kind.
SCENES = _SCENE.flatmap(_with_faults)

_NUMBER_TEXT = st.one_of(
    st.floats(allow_nan=True, allow_infinity=True).map(repr),
    st.sampled_from(["1e-300", "1e-320", "5e-324", "1e300", "-0.0", "0", "x", ""]))


def _flag(name, values):
    return st.one_of(st.just([]), values.map(lambda v: [f"{name}={v}"]))


WAVE_FLAGS = st.tuples(
    _flag("--wavelength", st.one_of(st.floats(0.05, 2.0).map(repr), _NUMBER_TEXT)),
    _flag("--incident-deg", st.one_of(st.floats(-720.0, 720.0).map(repr),
                                      _NUMBER_TEXT)),
    _flag("--num-dirs", st.one_of(st.integers(-2, 64).map(str),
                                  st.sampled_from(["2.5", "1e3", "x"]))),
).map(lambda parts: [flag for part in parts for flag in part])


def _run(argv):
    """Exit code and stderr lines of one ``main`` call."""
    err = io.StringIO()
    with contextlib.redirect_stderr(err), contextlib.redirect_stdout(io.StringIO()):
        try:
            code = main(argv)
        except SystemExit as exc:  # argparse rejects a flag
            code = exc.code
    return code, err.getvalue().splitlines()


def _strict_json(path):
    def refuse(name):
        raise AssertionError(f"{path} holds {name}")
    return json.loads(path.read_text(), parse_constant=refuse)


def _check_run(argv, out: Path) -> int:
    code, err = _run([*argv, "--out", str(out)])
    assert code in (0, 1, 2), (argv, code, err)
    if code == 0:
        assert all(line.startswith("[warning] ") for line in err), err
        for path in out.iterdir():
            if path.suffix == ".json":
                _strict_json(path)
            elif path.suffix == ".csv":
                values = np.loadtxt(path, delimiter=",", skiprows=1, ndmin=2)
                assert values.size and np.all(np.isfinite(values)), path
    else:
        assert len(err) == 1, (argv, code, err)
        assert not out.exists()
    return code


@settings(max_examples=150, deadline=None)
@given(doc=SCENES, flags=WAVE_FLAGS)
def test_every_scene_and_wave_flag_exits_cleanly(doc, flags):
    with tempfile.TemporaryDirectory() as tmp:
        tmp = Path(tmp)
        scene = tmp / "scene.json"
        scene.write_text(json.dumps(doc))
        data = tmp / "data"
        if _check_run(["synthesize", "--scene", str(scene), *flags], data) == 0:
            wavelength = [f for f in flags if f.startswith("--wavelength")]
            _check_run(["image", "--data", str(data / "farfield.csv"), GRID,
                        *wavelength], tmp / "img")
        predict_flags = [f for f in flags if not f.startswith("--num-dirs")]
        _check_run(["predict", "--scene", str(scene), GRID, *predict_flags],
                   tmp / "pred")


# --grid specs: fields that are not numbers or sit near the double range's
# ends, wrong field counts, swapped or equal bounds, and steps that are 0,
# negative, subnormal or huge. No |field| lies in (1e-300, 0.05): a valid
# grid has at most 81 x 81 nodes.
_FIELD = st.one_of(
    st.tuples(st.sampled_from([1.0, -1.0]), st.floats(0.05, 2.0)).map(
        lambda t: repr(t[0] * t[1])),
    st.sampled_from(["0", "-0.0", "5e-324", "-5e-324", "1e-300", "1e300",
                     "1e308", "-1e308", "1.7976931348623157e308",
                     "-1.7976931348623157e308", "1e400", "inf", "-inf", "nan",
                     "x", "", "1,"]))
_FIELDS = st.lists(_FIELD, min_size=0, max_size=7).map(",".join)


@st.composite
def _small_grids(draw):
    """At most 40 x 40 nodes, often scaled and shifted out of range, and in
    one draw of four with swapped bounds or a bad step."""
    x0, y0 = draw(st.floats(-2.0, 2.0)), draw(st.floats(-2.0, 2.0))
    step = draw(st.floats(0.02, 0.5))
    nx, ny = draw(st.integers(1, 40)), draw(st.integers(1, 40))
    scale = draw(st.sampled_from([1.0, 1.0, 1.0, 1e-300, 1e300, 1e307, 1e308]))
    shift = draw(st.sampled_from([0.0, 0.0, 0.0, 1e16, 1e300, -1.7e308, 1.7e308]))
    bounds = [shift + scale * v for v in (x0, x0 + (nx - 1) * step,
                                          y0, y0 + (ny - 1) * step)]
    fault = draw(st.sampled_from(["none"] * 6 + ["swap", 0.0, -step, 5e-324, 1e308]))
    if fault == "swap":
        bounds = [bounds[1], bounds[0], bounds[3], bounds[2]]
    step = fault if isinstance(fault, float) else scale * step
    return ",".join(repr(v) for v in (*bounds, step))


def _spec(nx, ny):
    return f"0,{nx - 1},0,{ny - 1},1"


# Just over the node cap, for both commands. Grids just under it are left
# out: a map of 10**8 nodes is 800 MB.
_OVER_NODE_CAP = st.integers(1, 10 ** 4).map(
    lambda ny: _spec(MAX_GRID_NODES // ny + 1, ny))
# Just over the data map's N*(nx + ny) cap for N = N_DATA, within the node
# cap: only `image` runs these, since `predict` would accept such a grid.
N_DATA = 16
_OVER_DIRECTION_CAP = st.integers(2, 16).map(
    lambda ny: _spec(MAX_GRID_NODES // N_DATA - ny + 1, ny))


@pytest.fixture(scope="module")
def far_field(tmp_path_factory):
    tmp = tmp_path_factory.mktemp("grid")
    scene = tmp / "scene.json"
    scene.write_text(json.dumps({
        "background_permeability": 1.0,
        "inclusions": [{"center": [0.3, -0.2], "radius": 0.1, "permeability": 5.0}],
        "wavelength": 0.4, "incident_direction_degrees": 45.0,
        "num_observation_directions": N_DATA}))
    assert _check_run(["synthesize", "--scene", str(scene)], tmp / "data") == 0
    return scene, tmp / "data" / "farfield.csv"


@settings(max_examples=150, deadline=None)
@given(spec=st.one_of(_FIELDS, _small_grids(), _OVER_NODE_CAP),
       capped=_OVER_DIRECTION_CAP)
def test_every_grid_spec_exits_cleanly(far_field, spec, capped):
    scene, data = far_field
    with tempfile.TemporaryDirectory() as tmp:
        tmp = Path(tmp)
        _check_run(["predict", "--scene", str(scene), f"--grid={spec}"], tmp / "pred")
        _check_run(["image", "--data", str(data), f"--grid={spec}"], tmp / "img")
        assert _check_run(["image", "--data", str(data), f"--grid={capped}"],
                          tmp / "cap") == 2
