"""Command-line surface tests: payloads, exit codes, determinism."""

import io
import json
import os
import subprocess
import sys
import warnings

import numpy as np
import pytest

import shapesphere
from shapesphere import derive_masses, equilateral_configuration, generate, serialize
from shapesphere.cli import main
from shapesphere.trajectory import _CSV_BLOCK_ROWS

M111 = derive_masses(1, 1, 1)
SRC = os.path.dirname(os.path.dirname(os.path.abspath(shapesphere.__file__)))


def write_rigid_csv(path, rate=0.5, samples=41):
    traj = generate(
        "rigid_rotation",
        masses=M111,
        config=equilateral_configuration(M111).as_array(),
        rate=rate,
        duration=2.0,
        samples=samples,
    )
    path.write_text(serialize(traj, "csv"))
    return traj


class TestProject:
    def test_static_equilateral_single_row(self, tmp_path, capsys):
        text = "t,q1x,q1y,q2x,q2y,q3x,q3y\n0.0,1.0,0.0,-0.5,0.8660254037844386,-0.5,-0.8660254037844386\n"
        src = tmp_path / "static.csv"
        src.write_text(text)
        assert main(["project", str(src), "--masses", "1,1,1"]) == 0
        lines = capsys.readouterr().out.strip().splitlines()
        assert lines[0] == "t,w1,w2,w3,xi_unwound"
        assert len(lines) == 2
        _, w1, w2, w3, _ = (float(x) for x in lines[1].split(","))
        assert (w1, w2, w3) == pytest.approx((0.0, 0.0, 0.5), abs=1e-12)

    def test_rigid_rotation_constant_rows(self, tmp_path, capsys):
        src = tmp_path / "rigid.csv"
        write_rigid_csv(src)
        assert main(["project", str(src), "--masses", "1,1,1"]) == 0
        rows = np.array(
            [
                [float(x) for x in line.split(",")]
                for line in capsys.readouterr().out.strip().splitlines()[1:]
            ]
        )
        assert np.max(np.ptp(rows[:, 1:4], axis=0)) < 1e-12

    def test_collinear_rows_have_zero_w3(self, tmp_path, capsys):
        lines = ["t,q1x,q1y,q2x,q2y,q3x,q3y"]
        for k in range(5):
            s = 1.0 + 0.1 * k
            lines.append(f"{0.5 * k},{s},{s},{-0.25 * s},{-0.25 * s},{-0.75 * s},{-0.75 * s}")
        src = tmp_path / "collinear.csv"
        src.write_text("\n".join(lines) + "\n")
        assert main(["project", str(src), "--masses", "1,1,1"]) == 0
        rows = np.array(
            [
                [float(x) for x in line.split(",")]
                for line in capsys.readouterr().out.strip().splitlines()[1:]
            ]
        )
        assert np.max(np.abs(rows[:, 3])) < 1e-12

    def test_parse_error_exits_2(self, tmp_path, capsys):
        src = tmp_path / "bad.csv"
        src.write_text("t,q1x,q1y,q2x,q2y,q3x,q3y\n0,1,0,-1\n")
        assert main(["project", str(src), "--masses", "1,1,1"]) == 2
        assert "error" in capsys.readouterr().err

    def test_missing_masses_exits_2(self, tmp_path):
        src = tmp_path / "missing.csv"
        src.write_text("t,q1x,q1y,q2x,q2y,q3x,q3y\n0,1,0,-0.5,0,-0.5,0\n")
        assert main(["project", str(src)]) == 2

    def test_invariant_violation_exits_3(self, tmp_path):
        # triple collision: projection undefined
        src = tmp_path / "collision.csv"
        src.write_text("t,q1x,q1y,q2x,q2y,q3x,q3y\n0,0,0,0,0,0,0\n")
        assert main(["project", str(src), "--masses", "1,1,1"]) == 3


    def test_stdout_matches_out_file(self, tmp_path, capsys):
        src = tmp_path / "rigid.csv"
        write_rigid_csv(src, samples=_CSV_BLOCK_ROWS + 3)
        out = tmp_path / "curve.csv"
        assert main(["project", str(src), "--masses", "1,1,1", "--out", str(out)]) == 0
        assert main(["project", str(src), "--masses", "1,1,1"]) == 0
        assert capsys.readouterr().out.encode("utf-8") == out.read_bytes()

    def test_spatial_input_exits_3(self, tmp_path, capsys):
        from shapesphere import embed_planar

        base = generate("random_smooth", masses=M111, seed=3, duration=1.0, samples=101)
        src = tmp_path / "spatial.csv"
        src.write_text(serialize(embed_planar(base), "csv"))
        assert main(["project", str(src), "--masses", "1,1,1"]) == 3
        captured = capsys.readouterr()
        assert captured.out == ""
        assert "planar trajectory" in captured.err


class TestReconstruct:
    def test_rigid_rotation_report(self, tmp_path, capsys):
        src = tmp_path / "rigid.csv"
        write_rigid_csv(src, rate=0.5, samples=81)
        assert main(
            ["reconstruct", str(src), "--masses", "1,1,1", "--target", "q1", "--with-oracle"]
        ) == 0
        doc = json.loads(capsys.readouterr().out)
        assert doc["total"] == pytest.approx(1.0, abs=1e-8)
        assert doc["geometric_term"] == pytest.approx(0.0, abs=1e-10)
        assert doc["oracle"] == pytest.approx(1.0, abs=1e-12)

    def test_spatial_target_with_explicit_axis(self, tmp_path, capsys):
        base = generate("random_smooth", masses=M111, seed=3, duration=2.0, samples=1501)
        from shapesphere import embed_planar

        spatial = embed_planar(base)
        src = tmp_path / "spatial.json"
        src.write_text(serialize(spatial, "json"))
        assert main(
            [
                "reconstruct",
                str(src),
                "--target",
                "spatial",
                "--e",
                "0,0,1",
                "--with-oracle",
            ]
        ) == 0
        doc = json.loads(capsys.readouterr().out)
        assert doc["certified"] is True
        assert abs(doc["total"] - doc["oracle"]) < 1e-5

    def test_strict_uncertified_exits_4(self, tmp_path, capsys):
        # the collinear spin about a tilted axis, shipped as JSON with normals
        from shapesphere.trajectory import rotation_matrices, serialize as ser
        from shapesphere import Trajectory

        masses = derive_masses(1.0, 1.2, 0.8)
        raw = np.array([[0.0, 0.0, -1.0], [0.0, 0.0, 0.3], [0.0, 0.0, 0.8]])
        e = np.array([1.0, 0.0, 1.0]) / np.sqrt(2.0)
        motion = generate(
            "rigid_rotation", masses=masses, config=raw, rate=0.9, duration=1.0, samples=101, axis=e
        )
        normals = np.einsum(
            "nab,b->na", rotation_matrices(e, 0.9 * motion.times), [1.0, 0.0, 0.0]
        )
        motion = Trajectory(masses, motion.times, motion.positions, motion.velocities, normals)
        src = tmp_path / "bad.json"
        src.write_text(ser(motion, "json"))
        code = main(
            ["reconstruct", str(src), "--target", "spatial",
             "--e", f"{e[0]},{e[1]},{e[2]}", "--strict"]
        )
        assert code == 4
        doc = json.loads(capsys.readouterr().out)
        assert doc["certified"] is False
        assert doc["bad_set_measure"] > 0

    def test_negative_axis_component_both_spellings(self, tmp_path, capsys):
        from shapesphere import embed_planar

        base = generate("random_smooth", masses=M111, seed=5, duration=1.0, samples=401)
        src = tmp_path / "spatial.json"
        src.write_text(serialize(embed_planar(base), "json"))
        outputs = []
        for spelling in (["--e", "-0.2,0.1,1"], ["--e=-0.2,0.1,1"]):
            assert main(["reconstruct", str(src), "--target", "spatial", *spelling]) == 0
            outputs.append(capsys.readouterr().out)
        assert outputs[0] == outputs[1]
        assert "total" in json.loads(outputs[0])

    @pytest.mark.parametrize("axis", ["0,0,0", "nan,0,1", "inf,0,1", "0,0,1,0"])
    def test_degenerate_axis_exits_3(self, tmp_path, capsys, axis):
        from shapesphere import embed_planar

        base = generate("random_smooth", masses=M111, seed=5, duration=1.0, samples=101)
        src = tmp_path / "spatial.json"
        src.write_text(serialize(embed_planar(base), "json"))
        assert main(["reconstruct", str(src), "--target", "spatial", "--e", axis]) == 3
        captured = capsys.readouterr()
        assert captured.out == ""
        assert "error: e must be" in captured.err

    @pytest.mark.parametrize("axis", ["1,a,2", "1,,2", "x", ""])
    def test_non_numeric_axis_exits_2(self, tmp_path, capsys, axis):
        # a component that is not a number is a parse error, as in --masses
        from shapesphere import embed_planar

        base = generate("random_smooth", masses=M111, seed=5, duration=1.0, samples=101)
        src = tmp_path / "spatial.json"
        src.write_text(serialize(embed_planar(base), "json"))
        assert main(["reconstruct", str(src), "--target", "spatial", "--e", axis]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert "--e expects comma separated numbers" in captured.err

    @pytest.mark.parametrize(
        "doc, message",
        [
            ({"masses": [1, 1, 1], "samples": 5}, "'samples' list"),
            ({"masses": [1, 1, 1], "samples": []}, "JSON trajectory contains no samples"),
            ({"masses": [1, 1, 1], "dim": "x", "samples": [{"t": 0, "q": [0] * 6}]},
             "dim must be 2 or 3, got 'x'"),
            ({"masses": [1, 1, 1], "samples": [
                {"t": 0, "q": [[1, 0], [0, 1], [-1, -1]], "v": [0] * 6},
                {"t": 1, "q": [[1, 0], [0, 1], [-1, -1]], "v": [0] * 4},
            ]}, "sample 2: cannot reshape"),
            ({"masses": [1, 1, 1], "dim": 3, "samples": [
                {"t": 0, "q": [[1, 0, 0], [0, 1, 0], [-1, -1, 0]], "n": [0, 0, 1]},
                {"t": 1, "q": [[1, 0, 0], [0, 1, 0], [-1, -1, 0]], "n": [0, 1]},
            ]}, "sample 2: cannot reshape"),
            ({"masses": [1, 1, 1], "samples": [
                {"t": 0, "q": [[1, 0], [0, 1], [-1, -1]], "n": [0, 0, 1]},
                {"t": 1, "q": [[1, 0], [0, 1], [-1, -1]], "n": [0, 0, 1]},
            ]}, "normals are defined on spatial (dim 3) trajectories only"),
        ],
        ids=["samples_not_a_list", "no_samples", "dim_not_a_number", "velocity_size",
             "normal_size", "planar_normals"],
    )
    def test_malformed_json_exits_2(self, tmp_path, capsys, doc, message):
        src = tmp_path / "bad.json"
        src.write_text(json.dumps(doc))
        assert main(["reconstruct", str(src)]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: ") and message in err

    def test_degrees_echo_on_stderr(self, tmp_path, capsys):
        src = tmp_path / "rigid.csv"
        write_rigid_csv(src)
        assert main(
            ["reconstruct", str(src), "--masses", "1,1,1", "--degrees"]
        ) == 0
        err = capsys.readouterr().err
        assert "deg" in err


class TestAtlas:
    def test_equal_mass_atlas(self, capsys):
        assert main(["atlas", "--masses", "1,1,1"]) == 0
        doc = json.loads(capsys.readouterr().out)
        assert doc["alpha"] == pytest.approx([np.pi / 3] * 3, abs=1e-12)
        assert doc["L1"] == pytest.approx([0.0, 0.0, 0.5], abs=1e-12)
        assert doc["P2"] == [0.0, 0.0, -0.5]

    def test_bad_masses_exit_2(self, capsys):
        assert main(["atlas", "--masses", "1,1"]) == 2
        assert main(["atlas", "--masses", "1,1,-3"]) == 2


class TestLift:
    def test_meridian_lift_has_no_momentum(self, tmp_path, capsys):
        from shapesphere.verify import meridian_curve
        from shapesphere import configuration_from_fiber, ShapePoint

        curve = meridian_curve(0.9, n=201)
        lines = ["t,w1,w2,w3,xi_unwound"]
        for k in range(curve.n_samples):
            w = curve.points[k]
            lines.append(
                f"{curve.times[k]},{w[0]},{w[1]},{w[2]},{curve.unwound_xi[k]}"
            )
        curve_path = tmp_path / "curve.csv"
        curve_path.write_text("\n".join(lines) + "\n")

        start = configuration_from_fiber(ShapePoint(*curve.points[0], 0.5), 0.0, "xi2", M111)
        init_path = tmp_path / "init.json"
        init_path.write_text(
            json.dumps({"masses": [1, 1, 1], "q": start.as_array().tolist()})
        )
        assert main(["lift", str(curve_path), "--initial", str(init_path)]) == 0
        out = capsys.readouterr().out

        from shapesphere import parse
        from shapesphere.planar import planar_series

        lifted = parse(out, "csv", M111)
        _, _, inertia, momentum = planar_series(lifted)
        assert np.max(np.abs(momentum) / inertia) <= 1e-8

    def test_projection_mismatch_exits_3(self, tmp_path):
        from shapesphere.verify import meridian_curve

        curve = meridian_curve(0.9, n=51)
        lines = ["t,w1,w2,w3,xi_unwound"]
        for k in range(curve.n_samples):
            w = curve.points[k]
            lines.append(f"{curve.times[k]},{w[0]},{w[1]},{w[2]},{curve.unwound_xi[k]}")
        curve_path = tmp_path / "curve.csv"
        curve_path.write_text("\n".join(lines) + "\n")
        init_path = tmp_path / "init.json"
        init_path.write_text(
            json.dumps(
                {
                    "masses": [1, 1, 1],
                    "q": equilateral_configuration(M111).as_array().tolist(),
                }
            )
        )
        assert main(["lift", str(curve_path), "--initial", str(init_path)]) == 3


def write_meridian_lift_inputs(tmp_path, n=51):
    """A meridian curve CSV and the initial configuration over its start."""
    from shapesphere.verify import meridian_curve
    from shapesphere import configuration_from_fiber, ShapePoint

    curve = meridian_curve(0.9, n=n)
    table = np.column_stack([curve.times, curve.points, curve.unwound_xi])
    curve_path = tmp_path / "curve.csv"
    rows = [",".join(map(repr, row)) for row in table.tolist()]
    curve_path.write_text("\n".join(["t,w1,w2,w3,xi_unwound"] + rows) + "\n")
    start = configuration_from_fiber(ShapePoint(*curve.points[0], 0.5), 0.0, "xi2", M111)
    init_path = tmp_path / "init.json"
    init_path.write_text(json.dumps({"masses": [1, 1, 1], "q": start.as_array().tolist()}))
    return curve_path, init_path


class TestLiftInput:
    def test_non_finite_row_exits_2(self, tmp_path, capsys):
        curve_path, init_path = write_meridian_lift_inputs(tmp_path)
        lines = curve_path.read_text().splitlines()
        fields = lines[3].split(",")
        fields[1] = "nan"
        lines[3] = ",".join(fields)
        curve_path.write_text("\n".join(lines) + "\n")
        assert main(["lift", str(curve_path), "--initial", str(init_path)]) == 2
        assert "data row 3: non-finite number" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "text, message",
        [
            ("t,w1,w2,w3,xi_unwound\n0.0,0.5,0.0,0.0\n", "data row 1: expected 5 columns, got 4"),
            ("t,w1,w2,w3,xi_unwound\n0.0,0.5,0.0,zero,0.0\n", "data row 1: non-numeric field"),
            ("t,w1,w2,w3,xi\n0.0,0.5,0.0,0.0,0.0\n", "curve CSV must have header"),
            ("", "curve CSV must have header"),
        ],
        ids=["column_count", "non_numeric", "header", "empty"],
    )
    def test_malformed_curve_exits_2(self, tmp_path, capsys, text, message):
        _, init_path = write_meridian_lift_inputs(tmp_path)
        curve_path = tmp_path / "bad.csv"
        curve_path.write_text(text)
        assert main(["lift", str(curve_path), "--initial", str(init_path)]) == 2
        assert message in capsys.readouterr().err

    def test_non_numeric_initial_exits_2(self, tmp_path, capsys):
        curve_path, init_path = write_meridian_lift_inputs(tmp_path)
        init_path.write_text(json.dumps({"masses": [1, 2, 3], "q": [[1, "a"], [0, 0], [1, 1]]}))
        assert main(["lift", str(curve_path), "--initial", str(init_path)]) == 2
        assert "error: initial configuration file:" in capsys.readouterr().err

    def test_reader_derives_pole_crossings(self):
        from shapesphere.cli import _curve_blocks, _parse_curve_csv
        from shapesphere.planar import ShapeCurve

        pts = np.array([[0.0, 0.5, 0.0], [-0.5, 0.0, 0.0], [0.0, -0.5, 0.0], [0.5, 0.0, 0.0]])
        curve = ShapeCurve(np.linspace(0.0, 1.0, 4), pts)
        assert curve.pole_crossings == [(1, "C1"), (3, "O1")]
        text = "".join(_curve_blocks(curve))
        assert _parse_curve_csv(text).pole_crossings == curve.pole_crossings


class TestUnreadableInput:
    """Paths that cannot be opened and bytes that are not UTF-8 are usage
    errors, exit 2, as a missing file is: never a traceback or exit 3."""

    @pytest.mark.parametrize(
        "argv",
        [
            ["project", "{dir}", "--masses", "1,1,1"],
            ["reconstruct", "{dir}", "--masses", "1,1,1"],
            ["project", "{csv}", "--masses", "1,1,1", "--out", "{dir}"],
            ["atlas", "--masses", "1,2,3", "--out", "{dir}"],
            ["generate", "--kind", "figure1_pinch", "--params", "{pinch}", "--out", "{dir}"],
            ["lift", "{dir}", "--initial", "{dir}"],
            ["project", "{missing}", "--masses", "1,1,1"],
        ],
        ids=["project", "reconstruct", "project_out", "atlas_out", "generate_out", "lift",
             "missing"],
    )
    def test_path_that_cannot_be_opened_exits_2(self, tmp_path, capsys, argv):
        csv = tmp_path / "rigid.csv"
        write_rigid_csv(csv)
        paths = {"dir": tmp_path, "csv": csv, "missing": tmp_path / "missing.csv",
                 "pinch": json.dumps({"masses": [1, 1, 1], "duration": 1.0, "samples": 5})}
        assert main([arg.format(**paths) for arg in argv]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("error: [Errno ")

    def utf16_trajectory(self, tmp_path):
        src = tmp_path / "utf16.csv"
        write_rigid_csv(src)
        src.write_bytes(src.read_text().encode("utf-16"))
        assert src.read_bytes()[:2] in (b"\xff\xfe", b"\xfe\xff")
        return src

    @pytest.mark.parametrize("command", ["project", "reconstruct"])
    def test_non_utf8_trajectory_exits_2(self, tmp_path, capsys, command):
        src = self.utf16_trajectory(tmp_path)
        assert main([command, str(src), "--masses", "1,1,1"]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith(f"error: {src} is not UTF-8 text: ")

    def test_non_utf8_stdin_exits_2(self, tmp_path, capsys, monkeypatch):
        src = self.utf16_trajectory(tmp_path)
        monkeypatch.setattr(sys, "stdin", io.TextIOWrapper(io.BytesIO(src.read_bytes()), "utf-8"))
        assert main(["project", "-", "--masses", "1,1,1"]) == 2
        assert capsys.readouterr().err.startswith("error: - is not UTF-8 text: ")

    def test_non_utf8_initial_exits_2(self, tmp_path, capsys):
        curve_path, init_path = write_meridian_lift_inputs(tmp_path)
        init_path.write_bytes(init_path.read_text().encode("utf-16"))
        assert main(["lift", str(curve_path), "--initial", str(init_path)]) == 2
        assert "is not UTF-8 text" in capsys.readouterr().err


class TestClosedPipe:
    """A reader that stops early (`shapesphere project ... | head`) is not a
    failure: the writer exits 0 and prints nothing on stderr."""

    @pytest.mark.parametrize("command", ["project", "lift"])
    def test_reader_closing_early_exits_0(self, tmp_path, command):
        n = 3 * _CSV_BLOCK_ROWS
        src = tmp_path / "rigid.csv"
        write_rigid_csv(src, samples=n)
        if command == "project":
            argv = ["project", str(src), "--masses", "1,1,1"]
        else:
            curve_path, init_path = write_meridian_lift_inputs(tmp_path, n=n)
            argv = ["lift", str(curve_path), "--initial", str(init_path)]
        proc = subprocess.Popen(
            [sys.executable, "-m", "shapesphere.cli", *argv],
            env=dict(os.environ, PYTHONPATH=SRC),
            stdout=subprocess.PIPE,
            stderr=subprocess.PIPE,
        )
        assert proc.stdout.read(100).startswith(b"t,")
        proc.stdout.close()
        stderr = proc.stderr.read()
        assert proc.wait(timeout=120) == 0
        assert stderr == b""


class TestGenerate:
    def test_emits_parseable_trajectory(self, tmp_path):
        out = tmp_path / "out.csv"
        code = main(
            [
                "generate",
                "--kind",
                "figure1_pinch",
                "--params",
                '{"masses": [1, 2, 3], "duration": 1.0, "samples": 33}',
                "--out",
                str(out),
            ]
        )
        assert code == 0
        from shapesphere import parse

        traj = parse(out.read_text(), "csv", derive_masses(1, 2, 3))
        assert traj.n_samples == 33

    def test_unknown_kind_exits_3(self):
        assert main(["generate", "--kind", "nonsense"]) == 3

    @pytest.mark.parametrize(
        "params, message",
        [
            ('{"masses": [1, 2, 3], "duration": 1.0, "samples": 33, "foo": 1}', "'foo'"),
            ('{"masses": [1, 2, 3], "duration": 1.0}', "'samples'"),
            ('{"masses": [1, 2, 3], "duration": 1.0, "samples": 2.5}', "samples"),
            ('{"masses": 5, "duration": 1.0, "samples": 33}', "masses"),
            ('{"masses": [1, 2, 3], "duration": "x", "samples": 33}', "not supported"),
        ],
        ids=["unknown", "missing", "float_samples", "scalar_masses", "string_duration"],
    )
    def test_bad_parameters_exit_3(self, capsys, params, message):
        assert main(["generate", "--kind", "figure1_pinch", "--params", params]) == 3
        err = capsys.readouterr().err
        assert err.startswith("error: figure1_pinch parameters:") and message in err

    @pytest.mark.parametrize("params", ["[1]", "{masses"], ids=["non_object", "invalid"])
    def test_malformed_parameters_exit_2(self, capsys, params):
        assert main(["generate", "--kind", "figure1_pinch", "--params", params]) == 2
        assert "error: --params" in capsys.readouterr().err

    def test_single_sample_newtonian_writes_one_row(self, capsys):
        params = {
            "masses": [1, 2, 3],
            "config": [[0.8, 0.0], [-0.2, 0.7], [-0.3, -0.6]],
            "velocities": [[0.0, 0.3], [0.2, -0.1], [-0.1, 0.0]],
            "G": 1.0,
            "duration": 1.0,
            "samples": 1,
        }
        assert main(["generate", "--kind", "newtonian", "--params", json.dumps(params)]) == 0
        lines = capsys.readouterr().out.splitlines()
        assert len(lines) == 2 and lines[1].startswith("0.0,")

    @pytest.mark.parametrize(
        "extra, message",
        [
            ({"duration": 0}, "duration must be positive"),
            ({"duration": -1.0}, "duration must be positive"),
            ({"duration": 1.0, "harmonics": 0}, "harmonics must be at least 1"),
            ({"duration": 1.0, "harmonics": -1}, "harmonics must be at least 1"),
        ],
        ids=["zero_duration", "negative_duration", "zero_harmonics", "negative_harmonics"],
    )
    def test_random_smooth_domain_exits_3(self, capsys, extra, message):
        # a domain error naming the parameter, not a traceback or a silent
        # unperturbed motion
        params = json.dumps({"masses": [1, 2, 3], "seed": 1, "samples": 11, **extra})
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert main(["generate", "--kind", "random_smooth", "--params", params]) == 3
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == f"error: random_smooth {message}\n"


class TestVerify:
    def test_small_planar_suite_runs(self, tmp_path, capsys):
        code = main(["verify", "--suite", "planar", "--n", "2001", "--seed", "1"])
        out = capsys.readouterr().out
        doc = json.loads(out)
        assert doc["summary"]["failures"] == 0
        assert code == 0
        names = [c["name"] for c in doc["cases"]]
        assert names == sorted(names)

    def test_byte_identical_reports(self, capsys):
        main(["verify", "--suite", "spatial", "--n", "801", "--seed", "7"])
        first = capsys.readouterr().out
        main(["verify", "--suite", "spatial", "--n", "801", "--seed", "7"])
        second = capsys.readouterr().out
        assert first == second
        doc = json.loads(first)
        assert all(c["runtime_ms"] is None for c in doc["cases"])

    def test_single_sample_reports_failures(self, capsys):
        # one sample cannot resolve the motions: a report and exit 1, not a crash
        assert main(["verify", "--n", "1"]) == 1
        captured = capsys.readouterr()
        assert json.loads(captured.out)["summary"]["failures"] == 2
        assert captured.err == "2 case(s) failed\n"

    @pytest.mark.parametrize("n", ["0", "-3", "x"])
    def test_non_positive_sample_count_is_a_usage_error(self, capsys, n):
        with pytest.raises(SystemExit) as exc:
            main(["verify", f"--n={n}"])
        assert exc.value.code == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert f"argument --n: expects a positive integer, got '{n}'" in captured.err

    @pytest.mark.parametrize("suite", ["planar", "spatial", "all"])
    def test_negative_seed_is_a_usage_error(self, capsys, suite):
        with pytest.raises(SystemExit) as exc:
            main(["verify", "--suite", suite, "--n", "101", "--seed", "-2"])
        assert exc.value.code == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert "argument --seed: expects a non-negative integer, got '-2'" in captured.err

    @pytest.mark.parametrize("suite", ["planar", "spatial"])
    def test_negative_seed_env_exits_2(self, capsys, monkeypatch, suite):
        monkeypatch.setenv("SHAPESPHERE_SEED", "-1")
        assert main(["verify", "--suite", suite, "--n", "101"]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == "error: SHAPESPHERE_SEED must be an integer >= 0, got '-1'\n"

    def test_seed_env_fallback(self, capsys, monkeypatch):
        monkeypatch.setenv("SHAPESPHERE_SEED", "9")
        main(["verify", "--suite", "spatial", "--n", "801"])
        via_env = capsys.readouterr().out
        main(["verify", "--suite", "spatial", "--n", "801", "--seed", "9"])
        explicit = capsys.readouterr().out
        assert json.loads(via_env)["seed"] == 9
        assert via_env == explicit

    def test_non_integer_seed_env_exits_2(self, capsys, monkeypatch):
        # a usage error naming the variable, as `--seed abc` is for the option
        monkeypatch.setenv("SHAPESPHERE_SEED", "abc")
        assert main(["verify", "--suite", "planar", "--n", "801"]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("error: SHAPESPHERE_SEED must be an integer")

    def test_timing_fills_runtime_of_timed_rows_only(self, capsys):
        from shapesphere.cli import _report_json
        from shapesphere.verify import planar_motion_cases, spatial_motion_cases

        main(["verify", "--n", "801", "--seed", "3", "--timing"])
        timed = json.loads(capsys.readouterr().out)
        main(["verify", "--n", "801", "--seed", "3"])
        untimed = capsys.readouterr().out
        # the rows whose computation runs under verify._timed
        wrapped = {"planar/shape_invariants", "planar/atlas_alpha_sum",
                   "planar/lift_momentum_ratio", "spatial/rotation_invariance_of_F"}
        wrapped |= {f"planar/{case[0]}/{target}"
                    for case in planar_motion_cases(801, 3) for target in ("q1", "Z1")}
        wrapped |= {f"spatial/{case[0]}" for case in spatial_motion_cases(801, 3)}
        names = {case["name"] for case in timed["cases"]}
        assert wrapped < names
        for case in timed["cases"]:
            if case["name"] in wrapped:
                assert isinstance(case["runtime_ms"], float) and case["runtime_ms"] >= 0.0
            else:
                assert case["runtime_ms"] is None
            case["runtime_ms"] = None
        assert _report_json(timed) == untimed
