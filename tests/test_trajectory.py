"""Trajectory container, file formats, differencing and generator tests."""

import warnings

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from shapesphere import (
    ParseError,
    Trajectory,
    derive_masses,
    equilateral_configuration,
    finite_difference_velocities,
    generate,
    normalize_shape,
    oracle_rotation,
    parse,
    resample,
    serialize,
    shape_map,
    jacobi,
    PlanarConfiguration,
)
from shapesphere.shape_core import _recenter, jacobi_series, shape_series
from shapesphere.trajectory import (
    _CSV_BLOCK_ROWS,
    _csv_blocks,
    _header_layout,
    _read_csv_table,
)

M111 = derive_masses(1, 1, 1)
M123 = derive_masses(1, 2, 3)


def linear_motion(n=10, dim=2):
    t = np.linspace(0.0, 1.0, n)
    base = np.arange(6 if dim == 2 else 9, dtype=float).reshape(3, dim) - 2.0
    drift = np.ones((3, dim)) * np.array([0.4, -0.2, 0.1])[:, None][: 3]
    q = base[None] + t[:, None, None] * drift[None]
    return Trajectory.from_samples(M111, t, q)


class TestTrajectory:
    def test_recenters_and_records_shift(self):
        t = np.array([0.0, 1.0])
        q = np.ones((2, 3, 2))
        traj = Trajectory.from_samples(M111, t, q)
        assert np.allclose(traj.positions, 0.0)
        assert traj.max_center_shift == pytest.approx(np.sqrt(2.0))

    def test_rejects_nonmonotone_times(self):
        with pytest.raises(ValueError, match="increasing"):
            Trajectory.from_samples(M111, [0.0, 0.0], np.zeros((2, 3, 2)))

    def test_rejects_uncentered_direct_construction(self):
        with pytest.raises(ValueError, match="centered"):
            Trajectory(M111, np.array([0.0]), np.ones((1, 3, 2)))

    def test_velocity_momentum_removed(self):
        t = np.array([0.0, 1.0])
        q = np.zeros((2, 3, 2))
        v = np.ones((2, 3, 2))
        traj = Trajectory.from_samples(M111, t, q, v)
        assert np.allclose(traj.velocities, 0.0)

    def test_rejects_bad_normals(self):
        with pytest.raises(ValueError, match="unit"):
            Trajectory(M111, np.array([0.0]), np.zeros((1, 3, 3)), normals=np.array([[2.0, 0, 0]]))


class TestFiniteDifferences:
    def test_linear_is_exact(self):
        traj = finite_difference_velocities(linear_motion())
        drift = traj.positions[1] - traj.positions[0]
        expected = drift / (traj.times[1] - traj.times[0])
        assert np.allclose(traj.velocities, expected[None], atol=1e-13)

    @given(st.lists(st.floats(-2, 2), min_size=6, max_size=6))
    @settings(max_examples=30, deadline=None)
    def test_quadratic_is_exact(self, coeffs):
        # nonuniform grid; quadratic per coordinate must differentiate exactly
        t = np.cumsum(np.array([0.0, 0.3, 0.5, 0.2, 0.7, 0.4]))
        a = np.reshape(coeffs, (3, 2))
        q = a[None] * t[:, None, None] ** 2 + 0.5 * a[None] * t[:, None, None] - 1.0 * a[None]
        m = M111.as_array()
        q = q - (np.einsum("i,nid->nd", m, q) / M111.M)[:, None, :]
        traj = finite_difference_velocities(Trajectory.from_samples(M111, t, q))
        expected = 2.0 * a[None] * t[:, None, None] + 0.5 * a[None]
        expected = expected - (np.einsum("i,nid->nd", m, expected) / M111.M)[:, None, :]
        assert np.allclose(traj.velocities, expected, atol=1e-10)

    def test_sinusoid_second_order(self):
        def error_at(n):
            t = np.linspace(0.0, 2 * np.pi, n)
            q = np.zeros((n, 3, 2))
            q[:, 0, 0] = np.sin(t)
            q[:, 1, 0] = -np.sin(t)
            traj = finite_difference_velocities(Trajectory.from_samples(M111, t, q))
            exact = np.cos(t)
            return np.max(np.abs(traj.velocities[:, 0, 0] - exact))

        ratio = error_at(500) / error_at(1000)
        assert ratio > 3.5

    def test_dense_grid_keeps_momentum_free(self):
        # 113000 samples over duration 3 is the smallest grid of this motion
        # on which roundoff in the differences broke the 1e-10 momentum check
        motion = generate("random_smooth", masses=M123, seed=6, duration=3.0, samples=113_000)
        stripped = Trajectory(M123, motion.times, motion.positions)
        v = finite_difference_velocities(stripped).velocities
        net = np.linalg.norm(np.einsum("i,nid->nd", M123.as_array(), v), axis=1)
        assert np.max(net) <= 1e-13 * np.max(np.abs(v))

    @pytest.mark.parametrize("dim", [2, 3])
    @pytest.mark.parametrize("graded", [False, True])
    def test_stored_by_sample_and_equal_to_the_gradient(self, dim, graded):
        motion = generate("random_smooth", masses=M123, seed=11, duration=2.0, samples=10_000)
        s = np.linspace(0.0, 1.0, motion.n_samples)
        t = 2.0 * s + 3.0 * s**3 if graded else motion.times
        q = motion.positions
        if dim == 3:
            q = np.concatenate([q, 0.1 * q[..., :1]], axis=-1)
        v = finite_difference_velocities(Trajectory(M123, t, q)).velocities
        expected = np.gradient(q, t, axis=0, edge_order=2)
        _recenter(expected, M123)
        assert np.array_equal(v, expected)
        assert v.flags.c_contiguous

    def test_needs_three_samples(self):
        t = np.array([0.0, 1.0])
        with pytest.raises(ValueError, match="3 samples"):
            finite_difference_velocities(Trajectory.from_samples(M111, t, np.zeros((2, 3, 2))))


class TestParseSerialize:
    def test_csv_round_trip_planar(self):
        traj = generate(
            "rigid_rotation",
            masses=M111,
            config=equilateral_configuration(M111).as_array(),
            rate=0.5,
            duration=1.0,
            samples=7,
        )
        text = serialize(traj, "csv")
        back = parse(text, "csv", M111)
        assert serialize(back, "csv") == text
        assert np.array_equal(back.positions, traj.positions)
        assert np.array_equal(back.velocities, traj.velocities)

    def test_json_round_trip_spatial_with_normals(self):
        t = np.linspace(0, 1, 4)
        q = np.zeros((4, 3, 3))
        q[:, 0, 0] = 1.0
        q[:, 1, 0] = -0.5
        q[:, 2, 0] = -0.5
        q[:, 1, 1] = 0.6
        q[:, 2, 1] = -0.6
        normals = np.tile([0.0, 0.0, 1.0], (4, 1))
        traj = Trajectory.from_samples(M111, t, q, None, normals)
        text = serialize(traj, "json")
        back = parse(text, "json")
        assert serialize(back, "json") == text
        assert np.allclose(back.normals, normals)

    def test_csv_without_velocity_columns(self):
        text = "t,q1x,q1y,q2x,q2y,q3x,q3y\n0.0,1,0,-0.5,0.2,-0.5,-0.2\n1.0,1,0,-0.5,0.2,-0.5,-0.2\n"
        traj = parse(text, "csv", M111)
        assert traj.velocities is None
        assert traj.dim == 2

    def test_csv_comments_ignored(self):
        text = "# comment\nt,q1x,q1y,q2x,q2y,q3x,q3y\n# another\n0.0,1,0,-1,0,0,0\n"
        traj = parse(text, "csv", M111)
        assert traj.n_samples == 1

    def test_nonmonotone_time_names_row(self):
        rows = [f"{0.1 * k},1,0,-1,0,0,0" for k in range(10)]
        rows[6] = "0.1,1,0,-1,0,0,0"  # data row 7 goes back in time
        text = "t,q1x,q1y,q2x,q2y,q3x,q3y\n" + "\n".join(rows) + "\n"
        with pytest.raises(ParseError, match="row 7"):
            parse(text, "csv", M111)

    def test_arity_mismatch_names_row(self):
        text = "t,q1x,q1y,q2x,q2y,q3x,q3y\n0.0,1,0,-1,0,0\n"
        with pytest.raises(ParseError, match="row 1"):
            parse(text, "csv", M111)

    def test_non_finite_rejected(self):
        text = "t,q1x,q1y,q2x,q2y,q3x,q3y\n0.0,nan,0,-1,0,0,0\n"
        with pytest.raises(ParseError, match="row 1"):
            parse(text, "csv", M111)

    @pytest.mark.parametrize("format", ["csv", "json"])
    def test_bytes_that_are_not_utf8(self, format):
        text = "t,q1x,q1y,q2x,q2y,q3x,q3y\n0.0,1,0,-1,0,0,0\n"
        assert parse(text.encode("utf-8"), "csv", M111).n_samples == 1
        with pytest.raises(ParseError, match="^input is not UTF-8 text: "):
            parse(b"\xff\xfe" + text.encode("utf-16-le"), format, M111)

    def test_csv_requires_masses(self):
        with pytest.raises(ParseError, match="masses"):
            parse("t,q1x,q1y,q2x,q2y,q3x,q3y\n0,0,0,0,0,0,0\n", "csv")

    def test_json_masses_field(self):
        text = serialize(linear_motion(), "json")
        traj = parse(text, "json")
        assert traj.masses.m1 == 1.0


PLANAR_HEADER = "t,q1x,q1y,q2x,q2y,q3x,q3y"
GOOD_ROW = "0.0,1,0,-1,0,0,0"


def one_string_csv(columns, table):
    """The CSV writer as one join of all rows: the reference for the blocks."""
    lines = [",".join(columns)]
    lines += [",".join(map(repr, row.tolist())) for row in table]
    return "\n".join(lines) + "\n"


def read_table(text):
    return _read_csv_table(text, lambda header: header)[1]


class TestCsvTable:
    @pytest.mark.parametrize(
        "bad_row, message",
        [
            ("0.3,1,0,-1,0,0", "data row 3: expected 7 columns, got 6"),
            ("0.3,1,0,-1,0,0,0,", "data row 3: expected 7 columns, got 8"),
            ("0.3,1,0,-1,0,x,0", "data row 3: non-numeric field"),
            ("0.3,1,0,-1,0,,0", "data row 3: non-numeric field"),
        ],
        ids=["short", "trailing_comma", "word", "empty_field"],
    )
    def test_first_bad_row_after_good_rows(self, bad_row, message):
        rows = ["0.1,1,0,-1,0,0,0", "0.2,1,0,-1,0,0,0", bad_row, "0.4,1,0,-1,0,0,0"]
        text = "\n".join([PLANAR_HEADER] + rows) + "\n"
        with pytest.raises(ParseError, match=f"^{message}$"):
            parse(text, "csv", M111)

    def test_non_numeric_after_nan_names_the_non_numeric_row(self):
        rows = ["0.1,1,0,-1,0,0,0", "0.2,nan,0,-1,0,0,0", "0.3,1,0,-1,0,0,0", "0.4,1,y,-1,0,0,0"]
        text = "\n".join([PLANAR_HEADER] + rows)
        with pytest.raises(ParseError, match="^data row 4: non-numeric field$"):
            parse(text, "csv", M111)

    @pytest.mark.parametrize(
        "field", ["1_0", "\u0663", "\uff11"], ids=["underscore", "arabic", "fullwidth"]
    )
    def test_fields_outside_numpy_float_syntax_are_non_numeric(self, field):
        # float() accepts these; the table reader takes numpy's syntax
        text = f"{PLANAR_HEADER}\n{GOOD_ROW}\n0.1,{field},0,-1,0,0,0\n"
        with pytest.raises(ParseError, match="^data row 2: non-numeric field$"):
            parse(text, "csv", M111)

    def test_blank_and_comment_lines_between_rows(self):
        text = f"{PLANAR_HEADER}\n{GOOD_ROW}\n\n   \n# note\n  # indented\n0.5,1,0,-1,0,0,0\n"
        table = read_table(text)
        assert table.shape == (2, 7)
        assert table[:, 0].tolist() == [0.0, 0.5]
        bad = f"{PLANAR_HEADER}\n{GOOD_ROW}\n\n# note\n0.5,1,0\n"
        with pytest.raises(ParseError, match="^data row 2: expected 7 columns, got 3$"):
            read_table(bad)

    def test_crlf_and_spaces_around_fields(self):
        plain = f"{PLANAR_HEADER}\n0.25,1.5,0,-1,0,0,-0.5\n0.5,1,0,-1,0,0,1e-3\n"
        crlf = plain.replace("\n", "\r\n")
        spaced = f" {PLANAR_HEADER} \n 0.25 , 1.5,\t0,-1 ,0,0, -0.5\n0.5, 1 ,0,-1,0,0,1e-3  \n"
        expected = read_table(plain)
        assert np.array_equal(read_table(crlf), expected)
        assert np.array_equal(read_table(spaced), expected)

    def test_header_without_data_rows(self):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            layout, table = _read_csv_table(f"# a header\n{PLANAR_HEADER}\n\n", _header_layout)
        assert layout == (2, False, False)
        assert table.shape == (0, 7)
        with pytest.raises(ParseError, match="no data rows"):
            parse(f"{PLANAR_HEADER}\n", "csv", M111)

    @settings(max_examples=60, deadline=None)
    @given(
        st.integers(1, 6).flatmap(
            lambda width: st.lists(
                st.lists(
                    st.floats(allow_nan=False, allow_infinity=False),
                    min_size=width,
                    max_size=width,
                ),
                min_size=0,
                max_size=12,
            ).map(lambda rows: np.array(rows, dtype=float).reshape(-1, width))
        )
    )
    @example(np.array([[-0.0, 5e-324, 2.2250738585072014e-308, 1e300, -1e300, 1e-300, -1e-300]]))
    @example(np.array([[0.1, 1 / 3, 123456789.12345679, -9.876543210987654e-5, np.pi]]))
    @example(np.array([[1.7976931348623157e308, -4.9406564584124654e-324, 0.30000000000000004]]))
    def test_round_trip_is_bit_exact(self, table):
        columns = [f"c{j}" for j in range(table.shape[1])]
        back = read_table("".join(_csv_blocks(columns, table)))
        assert back.shape == table.shape
        assert back.tobytes() == table.tobytes()

    @pytest.mark.parametrize(
        "n", [0, 1, _CSV_BLOCK_ROWS - 1, _CSV_BLOCK_ROWS, _CSV_BLOCK_ROWS + 1]
    )
    def test_blocks_join_to_the_one_string_text(self, n):
        table = np.random.default_rng(n).standard_normal((n, 3)) * 10.0 ** np.arange(-3, 3, 2)
        blocks = list(_csv_blocks(["a", "b", "c"], table))
        assert "".join(blocks) == one_string_csv(["a", "b", "c"], table)
        assert len(blocks) == 1 + -(-n // _CSV_BLOCK_ROWS)
        assert all(block.count("\n") <= _CSV_BLOCK_ROWS for block in blocks)


class TestGenerators:
    def test_rigid_rotation_oracle(self):
        traj = generate(
            "rigid_rotation",
            masses=M111,
            config=equilateral_configuration(M111).as_array(),
            rate=0.9,
            duration=2.0,
            samples=801,
        )
        assert oracle_rotation(traj, "q1") == pytest.approx(1.8, abs=1e-12)

    def test_homothety_is_momentum_free(self):
        from shapesphere.planar import planar_series

        traj = generate(
            "homothety",
            masses=M123,
            config=np.array([[1.0, 0.2], [-0.3, 0.5], [-0.1, -0.4]]),
            rate=-0.2,
            duration=1.5,
            samples=101,
        )
        _, _, inertia, momentum = planar_series(traj)
        assert np.max(np.abs(momentum) / inertia) < 1e-15

    def test_pinch_ends_at_C3(self):
        traj = generate("figure1_pinch", masses=M111, duration=1.0, samples=501)
        assert np.allclose(traj.positions[-1, 0], traj.positions[-1, 1], atol=1e-12)
        pair = jacobi(PlanarConfiguration(*traj.positions[-1]), M111)
        p = normalize_shape(shape_map(pair))
        marked = __import__("shapesphere").atlas(M111).points["C3"]
        assert np.allclose(p.vec(), marked, atol=1e-10)

    def test_pinch_needs_positive_duration(self):
        with pytest.raises(ValueError):
            generate("figure1_pinch", masses=M111, duration=0.0, samples=10)

    def test_pinch_stop_fraction(self):
        traj = generate(
            "figure1_pinch", masses=M111, duration=1.0, samples=100, stop_fraction=0.999
        )
        assert traj.times[-1] == pytest.approx(0.999)
        gap = np.linalg.norm(traj.positions[-1, 0] - traj.positions[-1, 1])
        assert gap > 0.0

    def test_newtonian_two_body_limit(self):
        # tiny third body far out: the pair is Keplerian on a circle
        masses = derive_masses(1.0, 1.0, 1e-12)
        omega_pair = np.sqrt(2.0)
        radius_out = 3.0
        omega_out = np.sqrt((2.0 + 1e-12) / radius_out**3)
        config = np.array([[-0.5, 0.0], [0.5, 0.0], [0.0, radius_out]])
        velocities = np.array(
            [
                [0.0, -0.5 * omega_pair],
                [0.0, 0.5 * omega_pair],
                [-omega_out * radius_out, 0.0],
            ]
        )
        traj = generate(
            "newtonian",
            masses=masses,
            config=config,
            velocities=velocities,
            G=1.0,
            duration=2.0,
            samples=4001,
        )
        from shapesphere.planar import dynamic_term

        assert dynamic_term(traj) == pytest.approx(omega_pair * 2.0, abs=1e-8)

    def test_newtonian_accepts_configuration_objects(self):
        config = equilateral_configuration(M123)
        params = dict(masses=M123, velocities=np.zeros((3, 2)), G=1.0, duration=0.5, samples=51)
        from_object = generate("newtonian", config=config, **params)
        from_array = generate("newtonian", config=config.as_array(), **params)
        assert np.array_equal(from_object.positions, from_array.positions)
        assert np.array_equal(from_object.velocities, from_array.velocities)

    def test_newtonian_single_sample_is_the_initial_state(self):
        config = np.array([[0.8, 0.0], [-0.2, 0.7], [-0.3, -0.6]])
        velocities = np.array([[0.0, 0.3], [0.2, -0.1], [-0.1, 0.0]])
        params = dict(masses=M123, config=config, velocities=velocities, G=1.0, duration=1.0)
        one = generate("newtonian", samples=1, **params)
        many = generate("newtonian", samples=11, **params)
        assert one.n_samples == 1 and one.times[0] == 0.0
        assert np.array_equal(one.positions[0], many.positions[0])
        assert np.array_equal(one.velocities[0], many.velocities[0])

    def test_masses_as_numbers_match_the_mass_triple(self):
        from_numbers = generate("figure1_pinch", masses=[1, 2, 3], duration=1.0, samples=33)
        from_triple = generate("figure1_pinch", masses=M123, duration=1.0, samples=33)
        assert from_numbers.masses == from_triple.masses
        assert np.array_equal(from_numbers.positions, from_triple.positions)
        assert np.array_equal(from_numbers.velocities, from_triple.velocities)

    def test_newtonian_conserves_energy_and_momentum(self):
        masses = derive_masses(1.0, 0.9, 0.8)
        rng = np.random.default_rng(0)
        config = rng.uniform(-1, 1, size=(3, 2)) * np.array([2.0, 2.0])
        velocities = rng.uniform(-0.3, 0.3, size=(3, 2))
        traj = generate(
            "newtonian",
            masses=masses,
            config=config,
            velocities=velocities,
            G=1.0,
            duration=1.0,
            samples=2001,
        )
        m = masses.as_array()

        def energy(k):
            kinetic = 0.5 * np.sum(m * np.sum(traj.velocities[k] ** 2, axis=1))
            potential = 0.0
            for i in range(3):
                for j in range(i + 1, 3):
                    potential -= m[i] * m[j] / np.linalg.norm(
                        traj.positions[k, i] - traj.positions[k, j]
                    )
            return kinetic + potential

        assert abs(energy(-1) - energy(0)) <= 1e-8 * abs(energy(0))
        spin = (
            traj.positions[..., 0] * traj.velocities[..., 1]
            - traj.positions[..., 1] * traj.velocities[..., 0]
        )
        momentum = np.einsum("i,ni->n", m, spin)
        assert np.max(np.abs(momentum - momentum[0])) <= 1e-8 * max(abs(momentum[0]), 1e-12)

    def test_random_smooth_stays_nondegenerate(self):
        traj = generate("random_smooth", masses=M123, seed=3, duration=3.0, samples=2001)
        Z1, Z2 = jacobi_series(traj.positions, M123)
        w = shape_series(Z1, Z2)
        assert np.min(np.abs(Z1)) > 0.3 and np.min(np.abs(Z2)) > 0.3
        assert np.min(w[:, 2] / w[:, 3]) > 0.1  # stays on the upper hemisphere

    def test_random_smooth_deterministic(self):
        a = generate("random_smooth", masses=M111, seed=9, duration=2.0, samples=101)
        b = generate("random_smooth", masses=M111, seed=9, duration=2.0, samples=101)
        assert np.array_equal(a.positions, b.positions)

    def test_unknown_kind(self):
        with pytest.raises(ValueError, match="unknown generator"):
            generate("spiral")

    def test_generators_emit_centered_samples(self):
        # corrections on ingest stay at roundoff once the input is centered
        cases = [
            (
                "rigid_rotation",
                dict(
                    masses=M111,
                    config=equilateral_configuration(M111).as_array(),
                    rate=0.7,
                    duration=2.0,
                    samples=901,
                ),
            ),
            (
                "homothety",
                dict(
                    masses=M123,
                    config=np.array([[0.9, 0.1], [-0.4, 0.6], [-0.2, -0.5]]),
                    rate=-0.15,
                    duration=2.0,
                    samples=901,
                ),
            ),
            ("figure1_pinch", dict(masses=M123, duration=1.0, samples=901)),
            ("random_smooth", dict(masses=M123, seed=3, duration=3.0, samples=901)),
            (
                "newtonian",
                dict(
                    masses=M123,
                    config=np.array([[0.8, 0.0], [-0.2, 0.7], [-0.3, -0.6]]),
                    velocities=np.array([[0.0, 0.3], [0.2, -0.1], [-0.1, 0.0]]),
                    G=1.0,
                    duration=1.0,
                    samples=2001,
                ),
            ),
        ]
        for kind, params in cases:
            traj = generate(kind, **params)
            assert traj.max_center_shift <= 1e-12, kind


class TestResample:
    def test_identity_on_same_grid(self):
        traj = generate("random_smooth", masses=M111, seed=1, duration=1.0, samples=64)
        again = resample(traj, 64)
        assert np.allclose(again.positions, traj.positions, atol=1e-12)

    def test_linear_exact_at_any_count(self):
        traj = linear_motion(n=9)
        fine = resample(traj, 23)
        drift = (traj.positions[-1] - traj.positions[0]) / traj.duration
        expected = traj.positions[0][None] + fine.times[:, None, None] * drift[None]
        assert np.allclose(fine.positions, expected, atol=1e-12)

    def test_endpoints_preserved(self):
        traj = generate("random_smooth", masses=M123, seed=2, duration=2.0, samples=50)
        out = resample(traj, 17)
        assert np.allclose(out.positions[0], traj.positions[0], atol=1e-14)
        assert np.allclose(out.positions[-1], traj.positions[-1], atol=1e-14)

    def test_cubic_order(self):
        def error_at(n):
            t = np.linspace(0.0, 2 * np.pi, 40)
            q = np.zeros((40, 3, 2))
            q[:, 0, 0] = np.cos(t)
            q[:, 1, 0] = -np.cos(t)
            traj = Trajectory.from_samples(M111, t, q)
            out = resample(traj, n)
            exact = np.cos(out.times)
            return np.max(np.abs(out.positions[:, 0, 0] - exact))

        # interpolation error on the coarse knots dominates; doubling the
        # output grid must not degrade it and the knot error is quartic
        assert error_at(79) < 2e-4

    @pytest.mark.parametrize("samples", [2, 3])
    def test_small_inputs_keep_velocities_and_quadratics(self, samples):
        # the not-a-knot spline through 3 samples is their parabola, and
        # through 2 their line, so quadratic (linear) motions come back exactly
        rng = np.random.default_rng(samples)
        c0, c1, c2 = rng.standard_normal((3, 3, 2))
        c2 *= samples - 2

        def sampled(t):
            q = c0 + t[:, None, None] * c1 + t[:, None, None] ** 2 * c2
            v = c1 + 2.0 * t[:, None, None] * c2
            return Trajectory.from_samples(M123, t, q, v)

        out = resample(sampled(np.linspace(0.5, 2.0, samples)), 11)
        exact = sampled(out.times)
        assert out.velocities is not None
        assert np.allclose(out.positions, exact.positions, rtol=0.0, atol=1e-13)
        assert np.allclose(out.velocities, exact.velocities, rtol=0.0, atol=1e-13)

    @pytest.mark.parametrize("n", [2, 3, 4, 17, 400])
    def test_matches_scipy_cubic_spline(self, n):
        CubicSpline = pytest.importorskip("scipy.interpolate").CubicSpline
        rng = np.random.default_rng(n)
        t = np.cumsum(rng.uniform(0.1, 1.0, n))
        q = rng.standard_normal((n, 3, 3))
        traj = Trajectory.from_samples(M123, t, q, np.zeros_like(q))
        out = resample(traj, 3 * n + 1)
        spline = CubicSpline(t, traj.positions, axis=0)
        scale = np.max(np.abs(traj.positions))
        assert np.max(np.abs(out.positions - spline(out.times))) <= 1e-14 * scale
        rates = spline.derivative()(out.times)
        assert np.max(np.abs(out.velocities - rates)) <= 1e-14 * np.max(np.abs(rates))
        ends = out.positions[[0, -1]] - traj.positions[[0, -1]]
        assert np.max(np.abs(ends)) <= 1e-15 * scale

    def test_rejects_tiny_counts(self):
        with pytest.raises(ValueError):
            resample(linear_motion(), 1)
