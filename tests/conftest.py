"""Shared fixtures: demo scenes, the heavyweight default-grid maps, and a
fresh interpreter for checks of what ``import dsm2d`` does."""

import os
import subprocess
import sys
from pathlib import Path

import pytest

import dsm2d
from dsm2d.cli import example_scene, example_wave
from dsm2d.forward import synthesize_far_field
from dsm2d.imaging import SearchGrid, compute_map
from dsm2d.model import make_observation_set

# Published reference coordinates for the single-inclusion demo: the two
# dominant peaks sit at x1 -/+ (1.8412/k) * d, quoted to four decimals.
EX1_PEAK_A = (0.6171, 0.4171)
EX1_PEAK_B = (0.7829, 0.5829)


@pytest.fixture(scope="session")
def demo_wave():
    return example_wave()


@pytest.fixture(scope="session")
def obs256():
    return make_observation_set(256)


@pytest.fixture(scope="session")
def ex1_scene():
    return example_scene("ex1")


@pytest.fixture(scope="session")
def ex2_scene():
    return example_scene("ex2")


@pytest.fixture(scope="session")
def ex3_scene():
    return example_scene("ex3")


@pytest.fixture(scope="session")
def default_grid():
    return SearchGrid(x_min=-1.0, x_max=1.0, y_min=-1.0, y_max=1.0, step=0.005)


@pytest.fixture(scope="session")
def ex1_data(ex1_scene, demo_wave, obs256):
    return synthesize_far_field(ex1_scene, demo_wave, obs256)


@pytest.fixture(scope="session")
def ex2_data(ex2_scene, demo_wave, obs256):
    return synthesize_far_field(ex2_scene, demo_wave, obs256)


@pytest.fixture(scope="session")
def ex3_data(ex3_scene, demo_wave, obs256):
    return synthesize_far_field(ex3_scene, demo_wave, obs256)


@pytest.fixture(scope="session")
def ex1_data_map(ex1_data, demo_wave, default_grid):
    return compute_map(ex1_data, default_grid, wavenumber=demo_wave.wavenumber)


@pytest.fixture(scope="session")
def ex1_analytic_map(ex1_scene, demo_wave, default_grid):
    return compute_map((ex1_scene, demo_wave), default_grid)


@pytest.fixture(scope="session")
def ex3_analytic_map(ex3_scene, demo_wave, default_grid):
    return compute_map((ex3_scene, demo_wave), default_grid)


@pytest.fixture(scope="session")
def fresh_python():
    """Run code in a new interpreter that imports this checkout's dsm2d.

    Extra keyword arguments are set as environment variables; the call
    returns the child's stdout and fails the test on a non-zero exit.
    """
    src = str(Path(dsm2d.__file__).resolve().parents[1])

    def run(code: str, **env_vars) -> str:
        env = dict(os.environ, **env_vars)
        env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
        return subprocess.run([sys.executable, "-c", code], env=env,
                              capture_output=True, text=True, check=True).stdout

    return run
