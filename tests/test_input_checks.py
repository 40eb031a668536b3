"""Input checks: each rejected input raises its exception type with its
message, and each rejected command line exits 2 naming the fault."""

import json

import numpy as np
import pytest

from shapesphere import (
    ParseError,
    PlanarConfiguration,
    ShapePoint,
    SpatialConfiguration,
    Trajectory,
    configuration_from_fiber,
    derive_masses,
    embed_planar,
    equilateral_configuration,
    generate,
    normal_track,
    oracle_rotation,
    parse,
    reconstruct_q1,
    reconstruct_spatial,
    resample,
    serialize,
    sigma_inverse,
    sigma_tensor,
    velocity_decompose,
)
from shapesphere.cli import main
from shapesphere.planar import planar_series
from shapesphere.trajectory import apply_rotation_profile
from shapesphere.verify import run_suite, spin_invariance_deviation

M123 = derive_masses(1, 2, 3)
CONFIG = [[1.0, 0.0, 0.2], [0.0, 1.0, -0.3], [-0.6, -0.4, 0.1]]


def planar(samples=11):
    """A rigid planar turn with velocities."""
    config = equilateral_configuration(M123).as_array()
    return generate(
        "rigid_rotation", masses=M123, config=config, rate=0.5, duration=1.0, samples=samples
    )


def spatial(samples=11):
    """A rigid spatial turn with velocities."""
    return generate(
        "rigid_rotation",
        masses=M123,
        config=CONFIG,
        rate=0.5,
        duration=1.0,
        samples=samples,
        axis=[0.3, -0.2, 1.0],
    )


def positions_only(traj):
    return Trajectory(traj.masses, traj.times, traj.positions)


def json_text(samples, **fields):
    return json.dumps({**fields, "samples": samples})


Q2 = [[1.0, 0.0], [-0.5, 0.5], [0.0, -0.25]]  # centered for masses 1, 2, 3
Q3 = [[1.0, 0.0, 0.0], [-0.5, 0.5, 0.0], [0.0, -0.25, 0.0]]

CASES = [
    # trajectory: the container
    pytest.param(
        lambda: Trajectory(M123, [0.0], np.zeros((1, 3, 4))),
        ValueError,
        "positions must have shape (n, 3, 2) or (n, 3, 3)",
        id="positions_shape",
    ),
    pytest.param(
        lambda: Trajectory(M123, [0.0], np.zeros((1, 3, 2)), np.zeros((1, 3, 3))),
        ValueError,
        "velocities must match positions in shape and be finite",
        id="velocities_shape",
    ),
    pytest.param(
        lambda: Trajectory(M123, [0.0], np.zeros((1, 3, 3)), normals=np.zeros((1, 2))),
        ValueError,
        "normals must have shape (n, 3) and be finite",
        id="normals_shape",
    ),
    pytest.param(
        lambda: resample(Trajectory(M123, [0.0], np.zeros((1, 3, 2))), 5),
        ValueError,
        "resample needs a motion of at least 2 samples",
        id="resample_one_sample",
    ),
    # trajectory: the file formats
    pytest.param(
        lambda: parse("t,a,b\n0,1,2\n", "csv", M123),
        ParseError,
        "unrecognized CSV header: t,a,b",
        id="csv_header",
    ),
    pytest.param(
        lambda: parse("", "xml", M123),
        ParseError,
        "unknown trajectory format 'xml'",
        id="parse_format",
    ),
    pytest.param(
        lambda: serialize(planar(), "xml"),
        ValueError,
        "unknown trajectory format 'xml'",
        id="serialize_format",
    ),
    pytest.param(
        lambda: parse("{", "json"),
        ParseError,
        "invalid JSON: Expecting property name enclosed in double quotes: "
        "line 1 column 2 (char 1)",
        id="json_syntax",
    ),
    pytest.param(
        lambda: parse(json_text([{"t": 0.0, "q": Q2}]), "json"),
        ParseError,
        "no masses: neither the JSON field nor an argument was given",
        id="json_no_masses",
    ),
    pytest.param(
        lambda: parse(json_text([{"t": 0.0, "q": Q2}], masses=[1, 2, -3]), "json"),
        ParseError,
        "bad masses field: mass m3=-3 must be a positive finite number",
        id="json_bad_masses",
    ),
    pytest.param(
        lambda: parse(
            json_text([{"t": 0.0, "q": Q2, "v": Q2}, {"t": 1.0, "q": Q2}]), "json", M123
        ),
        ParseError,
        "velocities must be present on all samples or none",
        id="json_some_velocities",
    ),
    pytest.param(
        lambda: parse(
            json_text([{"t": 0.0, "q": Q3}, {"t": 1.0, "q": Q3, "n": [0, 0, 1]}], dim=3),
            "json",
            M123,
        ),
        ParseError,
        "normals must be present on all samples or none",
        id="json_some_normals",
    ),
    # trajectory: the generators and the maps of whole motions
    pytest.param(
        lambda: generate(
            "rigid_rotation", masses=M123, config=Q2[:2], rate=1.0, duration=1.0, samples=5
        ),
        ValueError,
        "config must be a (3, 2) array of positions",
        id="config_shape",
    ),
    pytest.param(
        lambda: generate(
            "figure1_pinch", masses=M123, duration=1.0, samples=5, stop_fraction=0.0
        ),
        ValueError,
        "stop_fraction must lie in (0, 1]",
        id="stop_fraction",
    ),
    pytest.param(
        lambda: generate(
            "newtonian",
            masses=M123,
            config=Q2,
            velocities=[[0.0, 0.0], [0.0, 0.0]],
            G=1.0,
            duration=1.0,
            samples=5,
        ),
        ValueError,
        "velocities must match the configuration shape",
        id="newtonian_velocities_shape",
    ),
    pytest.param(
        lambda: generate(
            "random_smooth", masses=M123, seed=1, duration=1.0, samples=5, amplitude=0.5
        ),
        ValueError,
        "amplitude must lie in (0, 0.5)",
        id="amplitude",
    ),
    pytest.param(
        lambda: embed_planar(spatial()),
        ValueError,
        "embed_planar expects a planar trajectory",
        id="embed_spatial",
    ),
    pytest.param(
        lambda: apply_rotation_profile(planar(), [0, 0, 1], np.zeros(11), np.zeros(11)),
        ValueError,
        "apply_rotation_profile expects a spatial trajectory",
        id="rotation_profile_planar",
    ),
    pytest.param(
        lambda: apply_rotation_profile(
            positions_only(spatial()), [0, 0, 1], np.zeros(11), np.zeros(11)
        ),
        ValueError,
        "the source trajectory needs velocities",
        id="rotation_profile_no_velocities",
    ),
    pytest.param(
        lambda: apply_rotation_profile(spatial(), [0, 0, 1], np.zeros(10), np.zeros(11)),
        ValueError,
        "angle and rate must align with the time grid",
        id="rotation_profile_grid",
    ),
    # shape_core
    pytest.param(
        lambda: PlanarConfiguration([np.nan, 0.0], [0.0, 0.0], [0.0, 0.0]),
        ValueError,
        "q1 must be a finite 2-vector",
        id="body_not_finite",
    ),
    pytest.param(
        lambda: SpatialConfiguration([0.0, 0.0, 0.0], [0.0, 0.0], [0.0, 0.0, 0.0]),
        ValueError,
        "q2 must be a finite 3-vector",
        id="body_length",
    ),
    pytest.param(
        lambda: ShapePoint(np.nan, 0.0, 0.0, 0.5),
        ValueError,
        "shape coordinates must be finite",
        id="shape_point_not_finite",
    ),
    pytest.param(
        lambda: ShapePoint(0.0, 0.0, 0.0, -1.0),
        ValueError,
        "w4 must be nonnegative",
        id="shape_point_negative_w4",
    ),
    pytest.param(
        lambda: ShapePoint(0.5, 0.5, 0.0, 0.5),
        ValueError,
        "shape coordinates violate w1^2 + w2^2 + w3^2 = w4^2",
        id="shape_point_off_sphere",
    ),
    pytest.param(
        lambda: configuration_from_fiber(ShapePoint(0.5, 0.0, 0.0, 0.5), 0.0, "xi3", M123),
        ValueError,
        "which must be 'xi1' or 'xi2'",
        id="fiber_chart",
    ),
    # planar
    pytest.param(
        lambda: planar_series(spatial()),
        ValueError,
        "planar series require a planar trajectory",
        id="planar_series_spatial",
    ),
    pytest.param(
        lambda: planar_series(positions_only(planar())),
        ValueError,
        "velocities are required; call ensure_velocities first",
        id="planar_series_no_velocities",
    ),
    pytest.param(
        lambda: reconstruct_q1(spatial()),
        ValueError,
        "planar series require a planar trajectory",
        id="reconstruct_q1_spatial",
    ),
    pytest.param(
        lambda: oracle_rotation(planar(), "q2"),
        ValueError,
        "target must be 'q1' or 'Z1'",
        id="oracle_target",
    ),
    # spatial
    pytest.param(
        lambda: sigma_inverse(
            sigma_tensor(SpatialConfiguration(*spatial().positions[0]), M123),
            [np.nan, 0.0, 0.0],
            1.0,
        ),
        ValueError,
        "angular momentum must be finite",
        id="sigma_inverse_not_finite",
    ),
    pytest.param(
        lambda: normal_track(planar()),
        ValueError,
        "normal_track expects a spatial trajectory",
        id="normal_track_planar",
    ),
    pytest.param(
        lambda: reconstruct_spatial(planar()),
        ValueError,
        "reconstruct_spatial expects a spatial trajectory",
        id="reconstruct_spatial_planar",
    ),
    pytest.param(
        lambda: reconstruct_spatial(spatial(), antipodal_branch=0),
        ValueError,
        "antipodal_branch must be +1 or -1",
        id="antipodal_branch",
    ),
    pytest.param(
        lambda: velocity_decompose(
            SpatialConfiguration(*spatial().positions[0]), np.zeros((2, 3)), M123
        ),
        ValueError,
        "velocity must be a finite (3, 3) array, one row per body",
        id="velocity_shape",
    ),
    pytest.param(
        lambda: velocity_decompose(
            SpatialConfiguration(*spatial().positions[0]), np.ones((3, 3)), M123
        ),
        ValueError,
        "velocity carries net linear momentum",
        id="velocity_net_momentum",
    ),
    # verify
    pytest.param(
        lambda: run_suite("both"),
        ValueError,
        "unknown suite 'both': expected planar, spatial or all",
        id="unknown_suite",
    ),
]


@pytest.mark.parametrize("call, error, message", CASES)
def test_rejected_input_names_its_fault(call, error, message):
    with pytest.raises(error) as raised:
        call()
    assert type(raised.value) is error
    assert str(raised.value) == message


def test_ensure_velocities_returns_a_trajectory_that_has_them():
    traj = planar()
    assert traj.ensure_velocities() is traj


def test_no_spin_states_deviate_by_nothing():
    assert spin_invariance_deviation(count=0) == 0.0


CURVE_HEADER = "t,w1,w2,w3,xi_unwound\n"


@pytest.mark.parametrize(
    "curve, initial, message",
    [
        (CURVE_HEADER, {"masses": [1, 2, 3], "q": Q2}, "curve CSV contains no data rows"),
        (
            CURVE_HEADER + "0.0,1.0,0.0,0.0,0.0\n",
            {"masses": [1, 2, 3], "q": Q2},
            "invalid shape curve: curve points must lie on the radius-1/2 sphere",
        ),
        (
            CURVE_HEADER + "0.0,0.5,0.0,0.0,0.0\n1.0,0.5,0.0,0.0,0.0\n",
            {"q": Q2},
            "initial configuration file: 'masses'",
        ),
    ],
    ids=["curve_without_rows", "curve_off_the_sphere", "initial_without_masses"],
)
def test_lift_input_exits_2(tmp_path, capsys, curve, initial, message):
    curve_path, initial_path = tmp_path / "curve.csv", tmp_path / "initial.json"
    curve_path.write_text(curve)
    initial_path.write_text(json.dumps(initial))
    assert main(["lift", str(curve_path), "--initial", str(initial_path)]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == f"error: {message}\n"


def test_format_option_overrides_the_file_name(tmp_path, capsys):
    text = serialize(planar(), "json")
    named_json, named_csv = tmp_path / "motion.json", tmp_path / "motion.csv"
    named_json.write_text(text)
    named_csv.write_text(text)
    assert main(["reconstruct", str(named_json), "--with-oracle"]) == 0
    expected = capsys.readouterr().out
    assert main(["reconstruct", str(named_csv), "--format", "json", "--with-oracle"]) == 0
    assert capsys.readouterr().out == expected
    # read by its name, the JSON text is an unrecognized CSV header
    assert main(["reconstruct", str(named_csv), "--masses", "1,2,3"]) == 2
    assert capsys.readouterr().err.startswith("error: unrecognized CSV header: {")
