"""Planar reconstruction tests: swept area, momentum term, lifts, oracles."""

import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from shapesphere import (
    PlanarConfiguration,
    ShapeCurve,
    ShapePoint,
    configuration_from_fiber,
    derive_masses,
    dynamic_term,
    equilateral_configuration,
    generate,
    normal_track,
    oracle_rotation,
    reconstruct_q1,
    reconstruct_spatial,
    reconstruct_Z1,
    shape_curve,
    swept_area,
    zero_J_lift,
    C1_DIRECTION,
    O1_DIRECTION,
    Trajectory,
    embed_planar,
)
from shapesphere.angles import wrap_angle
from shapesphere.planar import planar_series
from shapesphere.shape_core import jacobi_series, positions_from_jacobi_series
from shapesphere.trajectory import rotation_matrices
from shapesphere.verify import meridian_curve

M111 = derive_masses(1, 1, 1)
M123 = derive_masses(1, 2, 3)


def fan_area_oracle(points, pole):
    """Independent swept-area oracle: exact spherical-triangle fan from the pole.

    Each curve segment is replaced by its great-circle chord and the signed
    solid angle of the triangle (pole, segment) is accumulated via the
    half-angle tangent formula; orientation calibrated to the left-handed
    longitude frame used by the implementation.
    """
    p = np.asarray(pole, float)
    p = p / np.linalg.norm(p)
    u = 2.0 * np.asarray(points)  # unit vectors
    total = 0.0
    for a, b in zip(u[1:], u[:-1]):
        numerator = p @ np.cross(a, b)
        denominator = 1.0 + p @ a + a @ b + b @ p
        total += 2.0 * np.arctan2(numerator, denominator)
    return 0.25 * total  # radius-1/2 sphere


def arc_curve(start, end, n=2001):
    """Great-circle arc between two points of the radius-1/2 sphere."""
    a = 2.0 * np.asarray(start, float)
    b = 2.0 * np.asarray(end, float)
    angle = np.arccos(np.clip(a @ b, -1, 1))
    s = np.linspace(0.0, 1.0, n)
    pts = (
        np.sin((1 - s) * angle)[:, None] * a[None]
        + np.sin(s * angle)[:, None] * b[None]
    ) / np.sin(angle)
    return ShapeCurve.from_points(s, 0.5 * pts)


class TestSweptArea:
    def test_constant_curve(self):
        pts = np.tile([0.2, 0.3, np.sqrt(0.25 - 0.13)], (5, 1))
        curve = ShapeCurve.from_points(np.linspace(0, 1, 5), pts)
        assert swept_area(curve, C1_DIRECTION) == 0.0

    def test_full_loop_is_hemisphere(self):
        xi = np.linspace(0.0, 2 * np.pi, 20001)
        pts = 0.5 * np.stack([np.zeros_like(xi), np.cos(xi), np.sin(xi)], axis=1)
        curve = ShapeCurve.from_points(np.linspace(0, 1, xi.size), pts)
        assert swept_area(curve, C1_DIRECTION) == pytest.approx(np.pi / 2, abs=1e-9)

    def test_pinch_triangle_matches_spherical_excess(self):
        # pole P1 to the equal-mass collision point C3: the wedge closed
        # through C1 has excess 2 pi / 3, area pi / 6 on the radius-1/2 sphere
        p_start = np.array([0.0, 0.0, 0.5])
        c3 = 0.5 * np.array([np.cos(np.pi + 2 * np.pi / 3), np.sin(np.pi + 2 * np.pi / 3), 0.0])
        curve = arc_curve(p_start, c3, n=20001)
        assert swept_area(curve, C1_DIRECTION) == pytest.approx(np.pi / 6, abs=1e-9)

    def test_matches_fan_oracle_on_random_curves(self):
        rng = np.random.default_rng(31)
        for seed in (1, 2, 3):
            traj = generate("random_smooth", masses=M123, seed=seed, duration=2.0, samples=4001)
            curve = shape_curve(traj)
            for pole in (C1_DIRECTION, O1_DIRECTION):
                assert swept_area(curve, pole) == pytest.approx(
                    fan_area_oracle(curve.points, pole), abs=1e-8
                )

    def test_meridian_sweeps_nothing(self):
        curve = meridian_curve(1.1, n=301)
        assert swept_area(curve, C1_DIRECTION) == pytest.approx(0.0, abs=1e-15)

    @pytest.mark.parametrize("pole", [-1.0, 1.0], ids=["C1", "O1"])
    def test_accurate_next_to_the_antipode(self, pole):
        # a great-circle arc that passes 1e-6 from -p sweeps the triangle of
        # its end points, as its steps' triangles tile that one; the steps
        # are shorter than the miss, so no step is flagged
        from shapesphere.planar import _SweptArea

        def area_about(points):
            area = _SweptArea(np.array([pole, 0.0, 0.0]), points.shape[1])
            area.add(points)
            return area.result()

        closest = np.array([-pole * np.cos(1e-6), 0.0, np.sin(1e-6)])
        s = np.linspace(-1e-5, 1e-5, 401)
        arc = np.cos(s) * closest[:, None] + np.sin(s) * np.array([0.0, 1.0, 0.0])[:, None]
        fine, crossed = area_about(0.5 * arc)
        whole, _ = area_about(0.5 * arc[:, [0, -1]])
        assert not crossed
        assert abs(fine - whole) <= 1e-12

    def test_pole_must_lie_on_the_chart_axis(self):
        traj = generate("random_smooth", masses=M123, seed=2, duration=1.0, samples=501)
        curve = shape_curve(traj)
        assert swept_area(curve, 2.0 * C1_DIRECTION) == swept_area(curve, C1_DIRECTION)
        for pole in ([0.0, 0.0, 1.0], [-1.0, 1e-3, 0.0], [0.0, 0.0, 0.0], [-1.0, 0.0]):
            with pytest.raises(ValueError, match="chart axis"):
                swept_area(curve, pole)


class TestShapeCurve:
    def test_requires_sphere_points(self):
        with pytest.raises(ValueError, match="sphere"):
            ShapeCurve(np.array([0.0]), np.array([[1.0, 0, 0]]), np.array([0.0]), [])

    @pytest.mark.parametrize("field", ["points", "unwound_xi"])
    def test_rejects_non_finite(self, field):
        t = np.linspace(0.0, 1.0, 3)
        pts = np.array([[0.0, 0.5, 0.0], [0.0, 0.5, 0.0], [0.0, 0.5, 0.0]])
        xi = np.zeros(3)
        if field == "points":
            pts[1] = [np.nan, 0.5, 0.0]
        else:
            xi[1] = np.nan
        with pytest.raises(ValueError, match="finite"):
            ShapeCurve(t, pts, xi, [])

    def test_rejects_coarse_longitude(self):
        pts = 0.5 * np.array(
            [[0, 1, 0], [0, -1, 1e-6], [0, 1, 0]], dtype=float
        )
        pts /= (2.0 * np.linalg.norm(pts, axis=1))[:, None]
        with pytest.raises(ValueError, match="densely"):
            ShapeCurve.from_points(np.linspace(0, 1, 3), pts)

    def test_pole_crossings_recorded(self):
        pts = np.array([[0.0, 0.5, 0.0], [-0.5, 0.0, 0.0], [0.0, -0.5, 0.0]])
        curve = ShapeCurve.from_points(np.linspace(0, 1, 3), pts)
        assert curve.pole_crossings == [(1, "C1")]

    def test_given_longitude_still_derives_crossings(self):
        pts = np.array([[0.0, 0.5, 0.0], [-0.5, 0.0, 0.0], [0.0, -0.5, 0.0]])
        t = np.linspace(0, 1, 3)
        xi = ShapeCurve(t, pts).unwound_xi
        assert ShapeCurve(t, pts, xi).pole_crossings == [(1, "C1")]
        assert ShapeCurve(t, pts, xi, [(1, "C1")]).pole_crossings == [(1, "C1")]

    @pytest.mark.parametrize(
        "wrong", [[], [(1, "O1")], [(0, "C1")], [(1, "C1"), (2, "C1")]],
        ids=["empty", "other_pole", "other_index", "extra"],
    )
    def test_rejects_disagreeing_pole_crossings(self, wrong):
        pts = np.array([[0.0, 0.5, 0.0], [-0.5, 0.0, 0.0], [0.0, -0.5, 0.0]])
        t = np.linspace(0, 1, 3)
        xi = ShapeCurve(t, pts).unwound_xi
        with pytest.raises(ValueError, match="pole_crossings"):
            ShapeCurve(t, pts, xi, wrong)

    def test_rejects_longitude_off_at_a_defined_sample(self):
        t = np.linspace(0.0, 1.0, 5)
        xi = np.linspace(0.0, 1.0, 5)
        pts = 0.5 * np.column_stack([np.zeros(5), np.cos(xi), np.sin(xi)])
        assert np.array_equal(ShapeCurve(t, pts, xi).unwound_xi, xi)
        xi[2] += 1e-6
        with pytest.raises(ValueError, match="disagrees"):
            ShapeCurve(t, pts, xi)

    def test_rejects_spatial_trajectory(self):
        base = generate("random_smooth", masses=M123, seed=4, duration=1.0, samples=51)
        with pytest.raises(ValueError, match="planar"):
            shape_curve(embed_planar(base))


class TestDynamicTerm:
    def test_rigid_rotation(self):
        traj = generate(
            "rigid_rotation",
            masses=M111,
            config=equilateral_configuration(M111).as_array(),
            rate=0.7,
            duration=2.0,
            samples=501,
        )
        assert dynamic_term(traj) == pytest.approx(1.4, abs=1e-12)

    def test_zero_momentum_motion(self):
        traj = generate(
            "homothety",
            masses=M123,
            config=np.array([[1.0, 0.0], [-0.2, 0.6], [-0.2, -0.4]]),
            rate=0.3,
            duration=1.0,
            samples=101,
        )
        assert dynamic_term(traj) == pytest.approx(0.0, abs=1e-14)

    def test_rejects_triple_collision(self):
        t = np.linspace(0, 1, 5)
        q = np.zeros((5, 3, 2))
        traj = Trajectory.from_samples(M111, t, q, np.zeros_like(q))
        with pytest.raises(ValueError, match="collision"):
            dynamic_term(traj)


class TestOracleRotation:
    def test_rigid(self):
        traj = generate(
            "rigid_rotation",
            masses=M111,
            config=equilateral_configuration(M111).as_array(),
            rate=-1.3,
            duration=2.0,
            samples=801,
        )
        assert oracle_rotation(traj, "q1") == pytest.approx(-2.6, abs=1e-12)
        assert oracle_rotation(traj, "Z1") == pytest.approx(-2.6, abs=1e-12)

    def test_fixed_ray_motion(self):
        # body 1 slides along a fixed ray: no rotation
        t = np.linspace(0, 1, 11)
        q = np.zeros((11, 3, 2))
        q[:, 0, 0] = 1.0 + t
        q[:, 1, 0] = -0.4
        q[:, 2, 0] = -0.6 - t
        traj = Trajectory.from_samples(M111, t, q)
        assert oracle_rotation(traj, "q1") == pytest.approx(0.0, abs=1e-12)

    def test_pinch_kinematics(self):
        traj = generate("figure1_pinch", masses=M111, duration=1.0, samples=2001)
        assert oracle_rotation(traj, "q1") == pytest.approx(np.pi / 3, abs=1e-8)

    def test_coarse_sampling_rejected(self):
        traj = generate(
            "rigid_rotation",
            masses=M111,
            config=equilateral_configuration(M111).as_array(),
            rate=np.pi,
            duration=2.0,
            samples=4,
        )
        with pytest.raises(ValueError, match="densely"):
            oracle_rotation(traj, "q1")


class TestReconstruct:
    def test_rigid_rotation_total(self):
        traj = generate(
            "rigid_rotation",
            masses=M111,
            config=equilateral_configuration(M111).as_array(),
            rate=0.5,
            duration=2.0,
            samples=801,
        )
        rep = reconstruct_q1(traj, include_oracle=True)
        assert rep.geometric_term == pytest.approx(0.0, abs=1e-12)
        assert rep.total == pytest.approx(1.0, abs=1e-12)
        assert rep.total == rep.dynamic_term + rep.geometric_term
        assert not rep.pole_crossed

    def test_meridian_lift_reconstructs_zero(self):
        curve = meridian_curve(0.7, n=801)
        start = ShapePoint(*curve.points[0], 0.5)
        initial = configuration_from_fiber(start, 0.2, "xi2", M123)
        lifted = zero_J_lift(curve, initial, M123)
        for recon in (reconstruct_q1, reconstruct_Z1):
            rep = recon(lifted, include_oracle=True)
            assert rep.total == pytest.approx(0.0, abs=1e-10)
            assert rep.oracle == pytest.approx(0.0, abs=1e-10)

    def test_pinch_matches_alpha2(self):
        for masses, expected in ((M111, np.pi / 3), (M123, np.arccos(np.sqrt(3.0 / 15.0)))):
            traj = generate("figure1_pinch", masses=masses, duration=1.0, samples=10000)
            rep = reconstruct_q1(traj, include_oracle=True)
            assert rep.total == pytest.approx(expected, abs=1e-6)
            assert rep.oracle == pytest.approx(expected, abs=1e-8)

    def test_random_smooth_against_oracle(self):
        traj = generate("random_smooth", masses=M123, seed=77, duration=3.0, samples=10000)
        for recon in (reconstruct_q1, reconstruct_Z1):
            rep = recon(traj, include_oracle=True)
            assert abs(rep.total - rep.oracle) <= 1e-6

    def test_endpoint_at_origin_rejected(self):
        t = np.linspace(0, 1, 64)
        q = np.zeros((64, 3, 2))
        q[:, 0, 0] = t  # body 1 starts at the origin
        q[:, 1, 0] = 1.0
        q[:, 2, 0] = -1.0 - t
        traj = Trajectory.from_samples(M111, t, q)
        with pytest.raises(ValueError, match="origin"):
            reconstruct_q1(traj)

    def test_closed_curve_geometric_term_is_enclosed_area(self):
        traj = generate(
            "random_smooth",
            masses=M111,
            seed=5,
            duration=3.0,
            samples=8001,
            periodic=True,
        )
        curve = shape_curve(traj)
        assert np.linalg.norm(curve.points[-1] - curve.points[0]) < 1e-10
        rep = reconstruct_q1(traj, include_oracle=True)
        enclosed = fan_area_oracle(curve.points, C1_DIRECTION)
        assert rep.geometric_term == pytest.approx(2.0 * enclosed, abs=1e-6)
        assert abs(rep.total - rep.oracle) <= 1e-6

    def test_chart_axis_passage_flags_both_targets(self):
        # bodies 2 and 3 pass through each other at t = 0.5, a sample time,
        # so the shape curve sits on the chart axis there
        t = np.linspace(0.0, 1.0, 101)
        s = 1.0 - 2.0 * t
        q = np.zeros((t.size, 3, 2))
        q[:, 0, 1] = 1.0
        q[:, 1] = np.stack([s, np.full_like(s, -0.5)], axis=1)
        q[:, 2] = np.stack([-s, np.full_like(s, -0.5)], axis=1)
        v = np.zeros_like(q)
        v[:, 1, 0] = -2.0
        v[:, 2, 0] = 2.0
        traj = Trajectory.from_samples(M111, t, q, v)
        assert shape_curve(traj).pole_crossings == [(50, "C1")]
        for recon in (reconstruct_q1, reconstruct_Z1):
            assert recon(traj, include_oracle=True).pole_crossed

    def test_positions_and_velocities_mapped_once(self, monkeypatch):
        import shapesphere.shape_core as shape_core

        calls = []
        jacobi_product = shape_core._jacobi_product

        def counting(samples, masses):
            calls.append(samples)
            return jacobi_product(samples, masses)

        monkeypatch.setattr(shape_core, "_jacobi_product", counting)
        traj = generate("random_smooth", masses=M123, seed=3, duration=1.0, samples=201)
        reconstruct_q1(traj, include_oracle=True)
        assert len(calls) == 2
        assert np.shares_memory(calls[0], traj.positions)
        assert np.shares_memory(calls[1], traj.velocities)
        # without velocities the differenced rates come from the same product
        calls.clear()
        reconstruct_q1(Trajectory(M123, traj.times, traj.positions), include_oracle=True)
        assert len(calls) == 1 and np.shares_memory(calls[0], traj.positions)

    def test_report_serialization_fields(self):
        traj = generate("random_smooth", masses=M111, seed=8, duration=1.0, samples=501)
        rep = reconstruct_q1(traj, include_oracle=True)
        doc = rep.to_dict()
        assert set(doc) == {
            "dynamic_term",
            "geometric_term",
            "total",
            "total_mod_2pi",
            "oracle",
            "pole_crossed",
            "samples",
        }
        assert -np.pi < doc["total_mod_2pi"] <= np.pi


def passage_motion(t):
    """Bodies 2 and 3 pass through each other at t = 0.5 while body 1 stays
    at (0, 1): the shape curve goes through C1 and q1 does not turn."""
    s = 1.0 - 2.0 * t
    q = np.zeros((t.size, 3, 2))
    q[:, 0, 1] = 1.0
    q[:, 1] = np.stack([s, np.full_like(s, -0.5)], axis=1)
    q[:, 2] = np.stack([-s, np.full_like(s, -0.5)], axis=1)
    v = np.zeros_like(q)
    v[:, 1, 0] = -2.0
    v[:, 2, 0] = 2.0
    return Trajectory.from_samples(M111, t, q, v)


def figure_eight(samples):
    """One period of the equal-mass figure-eight (Chenciner and Montgomery,
    Ann. Math. 152, 2000); body 1 crosses the centroid twice."""
    x = np.array([0.97000436, -0.24308753])
    v3 = np.array([-0.93240737, -0.86473146])
    return generate(
        "newtonian",
        masses=M111,
        config=np.array([x, -x, [0.0, 0.0]]),
        velocities=np.array([-v3 / 2, -v3 / 2, v3]),
        G=1.0,
        duration=6.32591398,
        samples=samples,
    )


class TestChartAxisPassages:
    @pytest.mark.parametrize("samples", [100, 1000, 10_000])
    def test_q1_through_its_own_pole_between_samples(self, samples):
        rep = reconstruct_q1(passage_motion(np.linspace(0.0, 1.0, samples)), include_oracle=True)
        assert abs(rep.total - rep.oracle) <= 1e-12
        assert not rep.pole_crossed

    @pytest.mark.parametrize("samples", [101, 1001])
    def test_Z1_with_a_sample_on_the_antipode(self, samples):
        # Z1 goes through the origin at a sample: the sample is dropped and
        # the step across it sweeps the half-sphere
        rep = reconstruct_Z1(passage_motion(np.linspace(0.0, 1.0, samples)), include_oracle=True)
        assert rep.pole_crossed
        assert abs(wrap_angle(rep.total - rep.oracle)) <= 1e-12

    @pytest.mark.parametrize("samples", [100, 1000])
    def test_Z1_through_the_antipode_between_samples_is_flagged(self, samples):
        rep = reconstruct_Z1(passage_motion(np.linspace(0.0, 1.0, samples)))
        assert rep.pole_crossed
        assert abs(wrap_angle(rep.total - np.pi)) <= 1e-12

    @pytest.mark.parametrize("samples", [100, 1000])
    def test_tilted_spatial_copy(self, samples):
        tilt = rotation_matrices(np.array([0.3, -0.5, 0.8]), 0.7)[0]
        motion = embed_planar(passage_motion(np.linspace(0.0, 1.0, samples)), tilt)
        rep = reconstruct_spatial(motion, e=tilt[:, 2], include_oracle=True)
        assert abs(rep.total) <= 1e-12 and rep.oracle == 0.0
        assert not rep.pole_crossed

    @settings(max_examples=20, deadline=None)
    @given(st.integers(100, 3000), st.floats(0.0, 1.0, exclude_max=True))
    def test_q1_on_shifted_grids(self, samples, shift):
        t = (np.arange(samples) + shift) / (samples - 1)
        assert abs(reconstruct_q1(passage_motion(t)).total) <= 1e-12

    @pytest.mark.parametrize("masses", [M111, M123], ids=["111", "123"])
    @pytest.mark.parametrize("samples", [101, 1001])
    @pytest.mark.parametrize("s", [1.0, -1.0])
    def test_signed_zeros_of_collinear_passages(self, masses, samples, s):
        # collinear motions through C1 (Z1 through 0) and O1 (Z2 through 0):
        # every step's numerator is a signed zero, and a step through the
        # antipode of the pole reads atan2(+-0, den < 0) = +-pi, so the raw
        # values pin the orientation of the steps about each pole
        t = np.linspace(0.0, 1.0, samples)
        line, one = 2.0 * s * (t - 0.5) + 0j, np.ones(samples) + 0j

        def motion(Z1, Z2):
            q = positions_from_jacobi_series(Z1, Z2, masses)
            return Trajectory.from_samples(masses, t, q, np.gradient(q, t, axis=0))

        through_C1, through_O1 = motion(line, one), motion(one, line)
        assert reconstruct_Z1(through_C1).total == 3.141592653589793
        assert reconstruct_q1(through_O1).total == -s * 3.141592653589793
        curve = shape_curve(through_C1)
        assert swept_area(curve, O1_DIRECTION) == 1.5707963267948966
        assert swept_area(curve, C1_DIRECTION) == 0.0

    def test_constant_curve_sweeps_positive_zero(self):
        pts = np.tile([0.2, 0.3, np.sqrt(0.25 - 0.13)], (5, 1))
        curve = ShapeCurve.from_points(np.linspace(0, 1, 5), pts)
        for pole in (C1_DIRECTION, O1_DIRECTION):
            assert math.copysign(1.0, swept_area(curve, pole)) == 1.0

    def test_figure_eight(self):
        motion = figure_eight(6000)
        rep = reconstruct_Z1(motion, include_oracle=True)
        assert abs(rep.total - rep.oracle) <= 1e-10
        assert not rep.pole_crossed
        # q1 goes through the origin between samples, so no oracle exists
        assert reconstruct_q1(motion).pole_crossed

    @pytest.mark.parametrize("target", ["q1", "Z1", "spatial"])
    def test_reconstructions_unwind_no_longitude(self, monkeypatch, target):
        import shapesphere.angles as angles
        import shapesphere.planar as planar

        calls = []
        post_init, unwrap = ShapeCurve.__post_init__, angles.unwrap_held

        def counting_post_init(curve):
            calls.append("ShapeCurve")
            post_init(curve)

        def counting_unwrap(*args):
            calls.append("unwrap_held")
            return unwrap(*args)

        monkeypatch.setattr(ShapeCurve, "__post_init__", counting_post_init)
        for module in (angles, planar):
            monkeypatch.setattr(module, "unwrap_held", counting_unwrap)
        motion = generate("random_smooth", masses=M123, seed=5, duration=1.0, samples=301)
        if target == "spatial":
            motion = embed_planar(motion)
        recon = {"q1": reconstruct_q1, "Z1": reconstruct_Z1, "spatial": reconstruct_spatial}
        recon[target](motion)
        assert calls == []
        # the oracle still unwinds its own angle, once
        recon[target](motion, include_oracle=True)
        assert calls == ["unwrap_held"]


class TestZeroJLift:
    def test_constant_curve_constant_configuration(self):
        pts = np.tile([0.1, 0.2, np.sqrt(0.25 - 0.05)], (64, 1))
        curve = ShapeCurve.from_points(np.linspace(0, 1, 64), pts)
        initial = configuration_from_fiber(ShapePoint(*pts[0], 0.5), 0.4, "xi2", M111)
        lifted = zero_J_lift(curve, initial, M111)
        assert np.allclose(lifted.positions, lifted.positions[0][None], atol=1e-12)

    def test_momentum_free_and_reprojects(self):
        source = generate("random_smooth", masses=M123, seed=21, duration=2.0, samples=1500)
        curve = shape_curve(source)
        lifted = zero_J_lift(curve, PlanarConfiguration(*source.positions[0]), M123)
        _, _, inertia, momentum = planar_series(lifted)
        assert np.max(np.abs(momentum) / inertia) <= 1e-8
        again = shape_curve(lifted)
        assert np.max(np.linalg.norm(again.points - curve.points, axis=1)) <= 1e-7

    @pytest.mark.parametrize("samples", [4, 5, 301])
    def test_xi2_is_simpson_on_scipy_splines(self, samples):
        # the angle of Z2 advances by Simpson's rule on the not-a-knot
        # splines of r1^2 and xi, evaluated here through scipy
        CubicSpline = pytest.importorskip("scipy.interpolate").CubicSpline
        source = generate("random_smooth", masses=M123, seed=3, duration=0.5, samples=samples)
        curve = shape_curve(source)
        lifted = zero_J_lift(curve, PlanarConfiguration(*source.positions[0]), M123)
        t = curve.times
        r1sq = CubicSpline(t, 0.5 + curve.points[:, 0])
        xi_rate = CubicSpline(t, curve.unwound_xi).derivative()
        mid = 0.5 * (t[:-1] + t[1:])
        f = [r1sq(x) * xi_rate(x) for x in (t[:-1], mid, t[1:])]
        expected = np.cumsum(np.diff(t) / 6.0 * (f[0] + 4.0 * f[1] + f[2]))
        _, Z2 = jacobi_series(lifted.positions, M123)
        turned = np.unwrap(np.angle(Z2))
        assert np.max(np.abs(turned[1:] - turned[0] - expected)) <= 1e-13

    def test_keeps_initial_inertia_scale(self):
        source = generate("random_smooth", masses=M111, seed=4, duration=1.0, samples=801)
        curve = shape_curve(source)
        initial = PlanarConfiguration(*(2.0 * source.positions[0]))  # I scaled by 4
        lifted = zero_J_lift(curve, initial, M111)
        _, _, inertia, _ = planar_series(lifted)
        expected = 4.0 * float(
            np.sum(M111.as_array() * np.sum(source.positions[0] ** 2, axis=1))
        )
        assert np.allclose(inertia, expected, rtol=1e-10)

    def test_restarted_lift_agrees(self):
        source = generate("random_smooth", masses=M123, seed=6, duration=2.0, samples=1201)
        curve = shape_curve(source)
        lifted = zero_J_lift(curve, PlanarConfiguration(*source.positions[0]), M123)
        half = 600
        tail = ShapeCurve.from_points(curve.times[half:], curve.points[half:])
        restart = zero_J_lift(tail, PlanarConfiguration(*lifted.positions[half]), M123)
        assert np.max(np.abs(restart.positions - lifted.positions[half:])) <= 1e-9

    def test_mismatched_start_rejected(self):
        source = generate("random_smooth", masses=M111, seed=10, duration=1.0, samples=301)
        curve = shape_curve(source)
        wrong = equilateral_configuration(M111)
        with pytest.raises(ValueError, match="project"):
            zero_J_lift(curve, wrong, M111)

    def test_near_pole_passage_keeps_continuity(self):
        # dip the curve close to C1 (r1 down to 0.05) to cross the chart band
        n = 4001
        t = np.linspace(0.0, 2.0, n)
        colat = 0.4 - 0.35 * np.sin(np.pi * t / 2.0) ** 2
        xi = 0.3 * np.sin(np.pi * t)
        pts = 0.5 * np.stack(
            [-np.cos(colat), np.sin(colat) * np.cos(xi), np.sin(colat) * np.sin(xi)],
            axis=1,
        )
        curve = ShapeCurve.from_points(t, pts)
        initial = configuration_from_fiber(ShapePoint(*pts[0], 0.5), 0.0, "xi2", M123)
        lifted = zero_J_lift(curve, initial, M123)
        _, _, inertia, momentum = planar_series(lifted)
        assert np.max(np.abs(momentum) / inertia) <= 1e-8
        steps = np.linalg.norm(np.diff(lifted.positions, axis=0), axis=(1, 2))
        assert np.max(steps) < 0.05  # no handoff jumps
        again = shape_curve(lifted)
        assert np.max(np.linalg.norm(again.points - curve.points, axis=1)) <= 1e-7

    def test_chart_rate_identity(self):
        # along a zero-momentum motion the angle of Z2 advances at twice the
        # swept-area rate; check the per-step increments against the exact
        # triangle-fan areas
        source = generate("random_smooth", masses=M111, seed=33, duration=2.0, samples=4001)
        curve = shape_curve(source)
        lifted = zero_J_lift(curve, PlanarConfiguration(*source.positions[0]), M111)
        Z1, Z2 = jacobi_series(lifted.positions, M111)
        xi2 = np.unwrap(np.angle(Z2))
        steps = np.diff(curve.times)
        worst = 0.0
        p = C1_DIRECTION / np.linalg.norm(C1_DIRECTION)
        u = 2.0 * curve.points
        for k in range(0, curve.n_samples - 1, 97):
            a, b = u[k + 1], u[k]
            fan = 0.5 * np.arctan2(
                p @ np.cross(a, b), 1.0 + p @ a + a @ b + b @ p
            )
            worst = max(worst, abs(xi2[k + 1] - xi2[k] - 2.0 * fan) / steps[k])
        assert worst <= 1e-6

    def test_planarity_of_embedded_lift(self):
        # a zero-momentum lift, rigidly tilted into space, keeps its plane
        source = generate("random_smooth", masses=M123, seed=12, duration=2.0, samples=1001)
        curve = shape_curve(source)
        lifted = zero_J_lift(curve, PlanarConfiguration(*source.positions[0]), M123)
        tilt = rotation_matrices(np.array([1.0, 2.0, 0.5]), 0.8)[0]
        spatial = embed_planar(lifted, rotation=tilt)
        normals = normal_track(spatial)
        drift = np.max(np.linalg.norm(normals - normals[0], axis=1))
        assert drift <= 1e-8 * spatial.duration
        off_plane = np.abs(np.einsum("nid,d->ni", spatial.positions, normals[0]))
        scale = np.max(np.linalg.norm(spatial.positions, axis=2))
        assert np.max(off_plane) <= 1e-10 * scale
