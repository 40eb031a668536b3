"""Import budget: the package and its commands never load scipy.

Each case runs in a fresh interpreter, since this test process has scipy
loaded already.
"""

import json
import os
import subprocess
import sys

import pytest

import shapesphere
from shapesphere import (
    derive_masses,
    embed_planar,
    equilateral_configuration,
    generate,
    serialize,
)
from shapesphere.cli import main

SRC = os.path.dirname(os.path.dirname(os.path.abspath(shapesphere.__file__)))

CHECK = (
    "import sys\n"
    "loaded = sorted(m for m in sys.modules if m.startswith('scipy'))\n"
    "assert not loaded, loaded\n"
)


def run_fresh(code, cwd):
    env = dict(os.environ, PYTHONPATH=SRC)
    return subprocess.run(
        [sys.executable, "-c", code + "\n" + CHECK],
        cwd=cwd,
        env=env,
        capture_output=True,
        text=True,
        timeout=120,
    )


@pytest.fixture
def orbit_csv(tmp_path):
    masses = derive_masses(1, 1, 1)
    traj = generate(
        "rigid_rotation",
        masses=masses,
        config=equilateral_configuration(masses).as_array(),
        rate=0.5,
        duration=2.0,
        samples=41,
    )
    path = tmp_path / "orbit.csv"
    path.write_text(serialize(traj, "csv"))
    (tmp_path / "orbit3d.csv").write_text(serialize(embed_planar(traj), "csv"))
    # the input of lift: the orbit's shape curve and its first configuration
    curve = tmp_path / "curve.csv"
    assert main(["project", str(path), "--masses", "1,1,1", "--out", str(curve)]) == 0
    initial = {"masses": [1, 1, 1], "q": traj.positions[0].tolist()}
    (tmp_path / "initial.json").write_text(json.dumps(initial))
    return path


def cli_call(argv):
    return (
        "import contextlib, io\n"
        "from shapesphere.cli import main\n"
        "with contextlib.redirect_stdout(io.StringIO()):\n"
        f"    assert main({argv!r}) == 0\n"
    )


RESAMPLE = (
    "from shapesphere import derive_masses, generate, resample\n"
    "masses = derive_masses(1, 2, 3)\n"
    "traj = generate('random_smooth', masses=masses, seed=1, duration=1.0, samples=20)\n"
    "assert resample(traj, 33).n_samples == 33\n"
)


@pytest.mark.parametrize(
    "statement",
    ["import shapesphere", "import shapesphere.cli", RESAMPLE],
    ids=["import shapesphere", "import shapesphere.cli", "resample"],
)
def test_import_loads_no_scipy(statement, tmp_path):
    done = run_fresh(statement, tmp_path)
    assert done.returncode == 0, done.stderr


@pytest.mark.parametrize(
    "argv",
    [
        ["reconstruct", "orbit.csv", "--masses", "1,1,1", "--with-oracle"],
        ["reconstruct", "orbit.csv", "--masses", "1,1,1", "--target", "Z1"],
        ["reconstruct", "orbit3d.csv", "--masses", "1,1,1", "--target", "spatial", "--e=0,0,1"],
        ["project", "orbit.csv", "--masses", "1,1,1"],
        ["atlas", "--masses", "1,2,3"],
        ["lift", "curve.csv", "--initial", "initial.json"],
        # at 1001 samples every case meets its tolerance and verify exits 0
        ["verify", "--suite", "all", "--n", "1001"],
    ],
    ids=[
        "reconstruct_q1",
        "reconstruct_Z1",
        "reconstruct_spatial",
        "project",
        "atlas",
        "lift",
        "verify",
    ],
)
def test_numpy_only_commands_load_no_scipy(argv, orbit_csv):
    done = run_fresh(cli_call(argv), orbit_csv.parent)
    assert done.returncode == 0, done.stderr
