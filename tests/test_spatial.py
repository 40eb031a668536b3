"""Spatial reconstruction tests: inertia map, projection, normals, bad set."""

import warnings

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from shapesphere import (
    F_of_J,
    SpatialConfiguration,
    Trajectory,
    bad_set_measure,
    decompose_e_n,
    derive_masses,
    embed_planar,
    equilateral_configuration,
    generate,
    normal_track,
    normalize_shape,
    oriented_state,
    plane_basis,
    project_P,
    reconstruct_q1,
    reconstruct_spatial,
    shape_map,
    jacobi,
    PlanarConfiguration,
    sigma_inverse,
    sigma_tensor,
    velocity_decompose,
)
from shapesphere.angles import wrap_angle
from shapesphere.planar import planar_series, shape_curve
from shapesphere.shape_core import _jacobi_product
from shapesphere.spatial import (
    ANTIPODAL_TOL,
    COLLINEAR_EIG_TOL,
    _locked_inertia,
    _project_positions,
    _projected_rate,
)
from shapesphere.trajectory import apply_rotation_profile, rotation_matrices
from shapesphere.verify import (
    antipodal_crossing_reports,
    negative_control_reports,
    spin_invariance_deviation,
    spatial_motion_cases,
)

M111 = derive_masses(1, 1, 1)
M123 = derive_masses(1, 2, 3)

unit3 = st.tuples(
    st.floats(-1, 1), st.floats(-1, 1), st.floats(-1, 1)
).map(np.array).filter(lambda v: np.linalg.norm(v) > 0.3).map(
    lambda v: v / np.linalg.norm(v)
)


def centered_spatial(masses, raw):
    q = np.asarray(raw, dtype=float)
    q = q - (masses.as_array() @ q) / masses.M
    return SpatialConfiguration(q[0], q[1], q[2])


def equilateral_3d(masses=M111):
    return np.concatenate(
        [equilateral_configuration(masses).as_array(), np.zeros((3, 1))], axis=1
    )


class TestSigmaTensor:
    def test_planar_normal_is_eigenvector(self):
        cfg = centered_spatial(M123, [[1.0, 0.2, 0], [-0.3, 0.6, 0], [-0.1, -0.5, 0]])
        tensor = sigma_tensor(cfg, M123)
        inertia = float(np.sum(M123.as_array() * np.sum(cfg.as_array() ** 2, axis=1)))
        assert np.allclose(tensor.matrix @ [0, 0, 1], [0, 0, inertia], atol=1e-12)
        assert tensor.trace == pytest.approx(2.0 * inertia, rel=1e-13)

    def test_collinear_kernel_is_axis(self):
        cfg = centered_spatial(M111, [[0, 0, -1.0], [0, 0, 0.2], [0, 0, 0.8]])
        tensor = sigma_tensor(cfg, M111)
        assert tensor.is_collinear
        assert abs(abs(tensor.axis @ np.array([0, 0, 1.0])) - 1.0) < 1e-8
        assert np.allclose(tensor.matrix @ tensor.axis, 0.0, atol=1e-12)

    def test_equilateral_eigenvalues(self):
        cfg = SpatialConfiguration(*equilateral_3d())
        tensor = sigma_tensor(cfg, M111)
        inertia = 1.0  # unit-inertia equilateral constructor
        eig = np.sort(np.linalg.eigvalsh(tensor.matrix))
        assert np.allclose(eig, [inertia / 2, inertia / 2, inertia], atol=1e-12)

    @given(unit3, st.integers(0, 10_000))
    @settings(max_examples=40, deadline=None)
    def test_matches_body_sum(self, axis, seed):
        rng = np.random.default_rng(seed)
        cfg = centered_spatial(M123, rng.uniform(-1, 1, size=(3, 3)))
        tensor = sigma_tensor(cfg, M123)
        q = cfg.as_array()
        direct = np.sum(
            M123.as_array()[:, None] * np.cross(q, np.cross(np.broadcast_to(axis, (3, 3)), q)),
            axis=0,
        )
        assert np.allclose(tensor.matrix @ axis, direct, atol=1e-12 * max(1.0, tensor.trace))

    def test_positive_semidefinite(self):
        rng = np.random.default_rng(2)
        for _ in range(25):
            cfg = centered_spatial(M111, rng.uniform(-2, 2, size=(3, 3)))
            tensor = sigma_tensor(cfg, M111)
            assert tensor.smallest_eigenvalue >= -1e-12 * tensor.trace


class TestSigmaInverse:
    def test_planar_axis_momentum(self):
        cfg = centered_spatial(M111, [[1.0, 0, 0], [-0.4, 0.7, 0], [-0.6, -0.7, 0]])
        tensor = sigma_tensor(cfg, M111)
        inertia = 0.5 * tensor.trace
        out = sigma_inverse(tensor, np.array([0, 0, 2.4]), inertia)
        assert np.allclose(out, [0, 0, 2.4 / inertia], atol=1e-12)

    def test_collinear_convention(self):
        cfg = centered_spatial(M111, [[0, 0, -1.0], [0, 0, 0.0], [0, 0, 1.0]])
        tensor = sigma_tensor(cfg, M111)
        out = sigma_inverse(tensor, np.array([3.0, 0.0, 0.0]), 2.0)
        assert np.allclose(out, [1.5, 0.0, 0.0])

    def test_round_trip_on_triangles(self):
        rng = np.random.default_rng(8)
        for _ in range(40):
            cfg = centered_spatial(M123, rng.uniform(-1, 1, size=(3, 3)))
            tensor = sigma_tensor(cfg, M123)
            if tensor.is_collinear:
                continue
            J = rng.uniform(-2, 2, size=3)
            w = sigma_inverse(tensor, J, 0.5 * tensor.trace)
            assert np.allclose(tensor.matrix @ w, J, atol=1e-10 * max(np.linalg.norm(J), 1))

    def test_near_collinear_warns(self):
        # nearly but not exactly collinear: the J/I convention overrides the
        # badly conditioned solve and says so
        eps = 3e-5
        cfg = centered_spatial(M111, [[eps, 0, -1.0], [-2 * eps, 0, 0.2], [eps, 0, 0.8]])
        tensor = sigma_tensor(cfg, M111)
        with pytest.warns(RuntimeWarning, match="near-collinear"):
            sigma_inverse(tensor, np.array([1.0, 0, 0]), 0.5 * tensor.trace)

    def test_is_the_kernel_inverse(self):
        # one implementation: the 1-sample call into the closed-form kernel
        rng = np.random.default_rng(31)
        for _ in range(50):
            cfg = centered_spatial(M123, rng.uniform(-1, 1, size=(3, 3)))
            J = rng.uniform(-2, 2, size=3)
            inertia = rng.uniform(0.5, 2.0)
            kernel = _locked_inertia(cfg.as_array()[None], M123)
            expected = kernel.inverse(J[:, None], inertia)[:, 0]
            assert np.array_equal(sigma_inverse(sigma_tensor(cfg, M123), J, inertia), expected)

    def test_exact_collinear_is_silent(self):
        cfg = centered_spatial(M111, [[0, 0, -1.0], [0, 0, 0.2], [0, 0, 0.8]])
        tensor = sigma_tensor(cfg, M111)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            sigma_inverse(tensor, np.array([1.0, 0, 0]), 0.5 * tensor.trace)


class TestDecompose:
    def test_basis_vectors(self):
        e = np.array([0.0, 0.0, 1.0])
        n = np.array([np.sin(0.7), 0.0, np.cos(0.7)])
        assert decompose_e_n(e, e, n) == pytest.approx((0.0, 1.0, 0.0), abs=1e-12)
        assert decompose_e_n(n, e, n) == pytest.approx((0.0, 0.0, 1.0), abs=1e-12)

    def test_closed_form_example(self):
        phi = 0.9
        e = np.array([0.0, 0.0, 1.0])
        n = np.array([np.sin(phi), 0.0, np.cos(phi)])
        wedge, b_e, c_n = decompose_e_n(np.array([1.0, 0.0, 0.0]), e, n)
        assert wedge == pytest.approx(0.0, abs=1e-12)
        assert b_e == pytest.approx(-np.cos(phi) / np.sin(phi), rel=1e-12)
        assert c_n == pytest.approx(1.0 / np.sin(phi), rel=1e-12)

    @given(unit3, unit3, st.tuples(st.floats(-2, 2), st.floats(-2, 2), st.floats(-2, 2)))
    @settings(max_examples=60, deadline=None)
    def test_against_linear_solve(self, e, n, w):
        w = np.array(w)
        if np.linalg.norm(np.cross(e, n)) < 1e-3:
            return
        a, b, c = decompose_e_n(w, e, n)
        recomposed = a * np.cross(e, n) + b * e + c * n
        assert np.allclose(recomposed, w, atol=1e-10)

    @given(unit3, unit3, st.tuples(st.floats(-2, 2), st.floats(-2, 2), st.floats(-2, 2)))
    @settings(max_examples=200, deadline=None)
    def test_closed_form_matches_numpy_solve(self, e, n, w):
        wedge = np.cross(e, n)
        if np.linalg.norm(wedge) < 1e-3:
            return
        solved = np.linalg.solve(np.column_stack([wedge, e, n]), np.array(w))
        closed = np.array(decompose_e_n(w, e, n))
        assert np.max(np.abs(closed - solved)) <= 1e-12 * np.max(np.abs(solved), initial=1e-300)

    @pytest.mark.parametrize("t", [1e-3, 3e-3, 0.1])
    def test_nearly_parallel_axes(self, t):
        # |e x n| = t: the coefficients grow as 1/t and keep their precision
        e = np.array([0.0, 0.0, 1.0])
        n = np.array([t, 0.0, np.sqrt(1.0 - t * t)])
        wedge = np.cross(e, n)
        for w in np.random.default_rng(4).uniform(-2.0, 2.0, (50, 3)):
            solved = np.linalg.solve(np.column_stack([wedge, e, n]), w)
            closed = np.array(decompose_e_n(w, e, n))
            assert np.max(np.abs(closed - solved)) <= 1e-12 * np.max(np.abs(solved))

    def test_rejects_parallel(self):
        e = np.array([0.0, 0.0, 1.0])
        with pytest.raises(ValueError, match="aligned"):
            decompose_e_n(np.array([1.0, 0, 0]), e, e)


class TestFOfJ:
    def test_planar_case_is_momentum_over_inertia(self):
        cfg = SpatialConfiguration(*equilateral_3d())
        e = np.array([0.0, 0.0, 1.0])
        state = oriented_state(cfg, e, e)
        inertia = 1.0
        assert F_of_J(state, np.array([0, 0, 0.8]), inertia, M111) == pytest.approx(
            0.8 / inertia, rel=1e-12
        )

    def test_antipodal_normal_is_momentum_about_n(self):
        # at n = -e, and within ALIGNMENT_TOL of it, the rate is n.w
        cfg = SpatialConfiguration(*equilateral_3d())
        e = np.array([0.0, 0.0, 1.0])
        momentum = np.array([0.1, 0.2, 0.8])
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            exact = F_of_J(oriented_state(cfg, -e, e), momentum, 1.0, M111)
            near = F_of_J(oriented_state(cfg, [1e-12, 0.0, -1.0], e), momentum, 1.0, M111)
        assert exact == -0.8
        assert near == -0.7999999999998001

    def test_zero_momentum(self):
        cfg = SpatialConfiguration(*equilateral_3d())
        state = oriented_state(cfg, [0, 0, 1.0], [0.3, 0.1, 1.0] / np.linalg.norm([0.3, 0.1, 1.0]))
        assert F_of_J(state, np.zeros(3), 1.0, M111) == 0.0

    def test_collinear_orthogonal_axes(self):
        cfg = centered_spatial(M111, [[0, 0, -1.0], [0, 0, 0.1], [0, 0, 0.9]])
        inertia = float(np.sum(M111.as_array() * np.sum(cfg.as_array() ** 2, axis=1)))
        e = np.array([1.0, 0.0, 0.0])
        n = np.array([0.0, 1.0, 0.0])
        state = oriented_state(cfg, n, e)
        momentum = 1.7 * e
        assert F_of_J(state, momentum, inertia, M111) == pytest.approx(
            1.7 / inertia, rel=1e-12
        )

    def test_rotation_invariance_about_e(self):
        assert spin_invariance_deviation(count=200, seed=11) <= 1e-10


class TestProjectP:
    def test_identity_when_aligned(self):
        cfg = SpatialConfiguration(*equilateral_3d())
        e = np.array([0.0, 0.0, 1.0])
        out = project_P(cfg, e, e)
        assert np.array_equal(out.as_array(), cfg.as_array()[:, :2])

    def test_quarter_turn_matches_matrix_oracle(self):
        base = equilateral_3d()
        tilt = rotation_matrices(np.array([0.0, 1.0, 0.0]), np.pi / 2)[0]
        q = base @ tilt.T  # plane now contains e3; normal along -x
        cfg = SpatialConfiguration(q[0], q[1], q[2])
        n = tilt @ np.array([0.0, 0.0, 1.0])
        e = np.array([0.0, 0.0, 1.0])
        out = project_P(cfg, n, e)
        # explicit oracle: rotate back about the (n x e) axis by pi/2
        axis = np.cross(n, e)
        axis /= np.linalg.norm(axis)
        oracle = q @ rotation_matrices(axis, np.pi / 2)[0].T
        u1, u2 = plane_basis(e)
        assert np.allclose(out.as_array(), np.stack([oracle @ u1, oracle @ u2], axis=1), atol=1e-12)

    def test_shape_point_preserved(self):
        rng = np.random.default_rng(3)
        for _ in range(20):
            flat = rng.uniform(-1, 1, size=(3, 2))
            planar = centered_spatial(M123, np.concatenate([flat, np.zeros((3, 1))], axis=1))
            spin = rotation_matrices(rng.standard_normal(3), rng.uniform(0, np.pi - 0.2))[0]
            q = planar.as_array() @ spin.T
            n = spin @ np.array([0.0, 0.0, 1.0])
            cfg = SpatialConfiguration(q[0], q[1], q[2])
            out = project_P(cfg, n, np.array([0.0, 0.0, 1.0]))
            before = normalize_shape(
                shape_map(jacobi(PlanarConfiguration(*planar.as_array()[:, :2]), M123))
            )
            after = normalize_shape(shape_map(jacobi(out, M123)))
            assert np.allclose(before.vec(), after.vec(), atol=1e-12)

    def test_antipodal_rejected(self):
        cfg = SpatialConfiguration(*equilateral_3d())
        with pytest.raises(ValueError, match="ambiguous"):
            project_P(cfg, [0, 0, -1.0], [0, 0, 1.0])


class TestOrientedState:
    def test_projected_angle_identity(self):
        rng = np.random.default_rng(6)
        e = np.array([0.0, 0.0, 1.0])
        u1, u2 = plane_basis(e)
        for _ in range(30):
            flat = rng.uniform(-1, 1, size=(3, 2))
            if abs(np.linalg.det(np.stack([flat[1] - flat[0], flat[2] - flat[0]]))) < 0.1:
                continue
            spin = rotation_matrices(rng.standard_normal(3), rng.uniform(0.1, np.pi - 0.2))[0]
            q = centered_spatial(M111, np.concatenate([flat, np.zeros((3, 1))], axis=1)).as_array()
            q = q @ spin.T
            n = spin @ e
            if np.linalg.norm(np.cross(n, e)) < 1e-6:
                continue
            cfg = SpatialConfiguration(q[0], q[1], q[2])
            state = oriented_state(cfg, n, e)
            x1 = project_P(cfg, n, e).as_array()[0]
            lhs = np.arctan2(x1[1], x1[0])
            assert abs(wrap_angle(lhs - state.eta_n - state.theta1)) < 1e-10

    def test_rejects_non_normal(self):
        cfg = SpatialConfiguration(*equilateral_3d())
        with pytest.raises(ValueError, match="orthogonal"):
            oriented_state(cfg, [1.0, 0.0, 0.0], [0.0, 0.0, 1.0])


class TestNormalTrack:
    def test_planar_counterclockwise_is_e3(self):
        base = generate("random_smooth", masses=M111, seed=2, duration=1.0, samples=301)
        spatial = embed_planar(base)
        normals = normal_track(spatial)
        assert np.allclose(normals, [0.0, 0.0, 1.0], atol=1e-14)

    def test_rigid_rotation_closed_form(self):
        axis = np.array([1.0, 0.0, 0.0])
        traj = generate(
            "rigid_rotation",
            masses=M111,
            config=equilateral_3d(),
            rate=0.8,
            duration=2.0,
            samples=501,
            axis=axis,
        )
        normals = normal_track(traj)
        expected = np.einsum(
            "nab,b->na", rotation_matrices(axis, 0.8 * traj.times), [0.0, 0.0, 1.0]
        )
        assert np.max(np.linalg.norm(normals - expected, axis=1)) < 1e-10

    def test_collinear_instant_bridged(self):
        t = np.linspace(0.0, 1.0, 101)
        q = np.zeros((101, 3, 3))
        q[:, 0] = [1.0, 0.0, 0.0]
        q[:, 1] = [-1.0, 0.0, 0.0]
        q[:, 2, 0] = 0.2
        q[:, 2, 1] = t - 0.5  # collinear exactly at t = 0.5
        traj = Trajectory.from_samples(M111, t, q)
        normals = normal_track(traj)
        assert np.allclose(np.linalg.norm(normals, axis=1), 1.0, atol=1e-12)
        steps = np.linalg.norm(np.diff(normals, axis=0), axis=1)
        assert np.max(steps) < 1e-10  # plane never changes, so neither does n

    @staticmethod
    def turning_pinch(height, samples=1001):
        """Bodies at (1, 0, 0), (-0.4, 0, 0) and (0.2, 0.8 h(t), 0), masses
        1, 2, 3, turned by the angle 2t about (1, 0.3, 0): collinear where
        h(t) = 0, with a plane that keeps turning."""
        t = np.linspace(0.0, 1.0, samples)
        q = np.zeros((samples, 3, 3))
        q[:, 0, 0], q[:, 1, 0], q[:, 2, 0] = 1.0, -0.4, 0.2
        q[:, 2, 1] = 0.8 * height(t)
        turned = np.einsum("nab,nib->nia", rotation_matrices([1.0, 0.3, 0.0], 2.0 * t), q)
        return Trajectory.from_samples(M123, t, turned)

    def test_collinear_dwell_is_normalized_linear_interpolation(self):
        # the plane turns by 0.4 rad over the dwell: the bridged normals run
        # along the great circle of the flanks at the pace of np.interp
        def height(t):
            return np.sign(t - 0.5) * np.maximum(0.0, np.abs(t - 0.5) - 0.1)

        traj = self.turning_pinch(height)
        normals = normal_track(traj)
        dwell = np.flatnonzero(height(traj.times) == 0.0)
        a, b = dwell[0] - 1, dwell[-1] + 1
        assert dwell.size > 100 and np.all(np.diff(dwell) == 1)
        frac = ((traj.times[dwell] - traj.times[a]) / (traj.times[b] - traj.times[a]))[:, None]
        chord = (1.0 - frac) * normals[a] + frac * normals[b]
        expected = chord / np.linalg.norm(chord, axis=1, keepdims=True)
        assert np.max(np.abs(np.linalg.norm(normals[dwell], axis=1) - 1.0)) <= 1e-15
        assert np.max(np.abs(normals[dwell] - expected)) <= 1e-15
        assert np.linalg.norm(normals[b] - normals[a]) > 0.1

    @pytest.mark.parametrize("end", ["start", "end"])
    def test_collinear_stretch_at_either_end_copies_its_flank(self, end):
        def height(t):
            return np.maximum(0.0, t - 0.3) if end == "start" else np.maximum(0.0, 0.7 - t)

        traj = self.turning_pinch(height, samples=501)
        normals = normal_track(traj)
        stretch = np.flatnonzero(height(traj.times) == 0.0)
        assert stretch.size > 100
        if end == "start":
            assert stretch[0] == 0
            flank = stretch[-1] + 1
        else:
            assert stretch[-1] == traj.n_samples - 1
            flank = stretch[0] - 1
        assert np.max(np.abs(normals[stretch] - normals[flank])) <= 1e-15
        assert np.linalg.norm(normals[0] - normals[-1]) > 0.1

    def test_all_collinear_rejected(self):
        t = np.linspace(0, 1, 8)
        q = np.zeros((8, 3, 3))
        q[:, 0, 2] = 1.0
        q[:, 1, 2] = -0.6
        q[:, 2, 2] = -0.4
        traj = Trajectory.from_samples(M111, t, q)
        with pytest.raises(ValueError, match="collinear"):
            normal_track(traj)

    def test_initial_sign_override(self):
        base = generate("random_smooth", masses=M111, seed=2, duration=1.0, samples=51)
        spatial = embed_planar(base)
        flipped = normal_track(spatial, initial_sign=-1)
        assert np.allclose(flipped, [0.0, 0.0, -1.0], atol=1e-14)

    @pytest.mark.parametrize("sign", [0, 0.5, 2, np.nan, "up"])
    def test_initial_sign_must_be_plus_or_minus_one(self, sign):
        # 0 used to scale every normal to zero and nan to nan
        base = generate("random_smooth", masses=M111, seed=2, duration=1.0, samples=51)
        spatial = embed_planar(base)
        with pytest.raises(ValueError, match="initial_sign"):
            normal_track(spatial, initial_sign=sign)
        assert np.allclose(normal_track(spatial, initial_sign=1), [0.0, 0.0, 1.0], atol=1e-14)

    @pytest.mark.parametrize(
        "e", [[0.0, 0.0, 0.0], [np.nan, 0.0, 0.0], [np.inf, 0.0, 1.0], [1.0, 2.0], [0, 0, 1, 0]]
    )
    def test_reference_axis_is_validated(self, e):
        # e decides the sign of the first normal, so it must be a usable axis
        base = generate("random_smooth", masses=M111, seed=2, duration=1.0, samples=51)
        with pytest.raises(ValueError, match="e must be a finite nonzero 3-vector"):
            normal_track(embed_planar(base), e=e)

    def test_reference_axis_is_validated_before_the_samples(self):
        # an all-collinear motion has no normal to compare e with
        t = np.linspace(0, 1, 8)
        q = np.zeros((8, 3, 3))
        q[:, 0, 2], q[:, 1, 2], q[:, 2, 2] = 1.0, -0.6, -0.4
        traj = Trajectory.from_samples(M111, t, q)
        for fn in (normal_track, reconstruct_spatial):
            with pytest.raises(ValueError, match="e must be a finite nonzero 3-vector"):
                fn(traj, [0.0, 0.0, 0.0])

    def test_reference_axis_need_not_be_unit(self):
        base = generate("random_smooth", masses=M111, seed=2, duration=1.0, samples=51)
        spatial = embed_planar(base)
        assert np.allclose(normal_track(spatial, e=[0.0, 0.0, -5.0]), [0.0, 0.0, -1.0], atol=1e-14)


class TestBadSet:
    def test_triangular_motion_is_clean(self):
        traj = generate(
            "rigid_rotation",
            masses=M111,
            config=equilateral_3d(),
            rate=0.5,
            duration=1.0,
            samples=201,
            axis=np.array([0.2, 0.1, 1.0]),
        )
        measure, intervals = bad_set_measure(traj, np.array([0.0, 0.0, 1.0]))
        assert measure == 0.0 and intervals == []

    def test_zero_momentum_collinear_is_clean(self):
        raw = np.array([[0, 0, -1.0], [0, 0, 0.2], [0, 0, 0.8]])
        traj = generate(
            "homothety", masses=M111, config=raw, rate=0.4, duration=1.0, samples=101
        )
        measure, _ = bad_set_measure(traj, np.array([1.0, 0.0, 0.0]))
        assert measure == 0.0

    def test_orthogonal_axis_claim_case(self):
        # collinear spin about e with the configuration axis orthogonal to e
        raw = np.array([[0, 0, -1.0], [0, 0, 0.2], [0, 0, 0.8]])
        e = np.array([1.0, 0.0, 0.0])
        traj = generate(
            "rigid_rotation", masses=M111, config=raw, rate=0.7, duration=1.0, samples=201, axis=e
        )
        measure, _ = bad_set_measure(traj, e)
        assert measure == 0.0

    def test_tilted_axis_flagged(self):
        raw = np.array([[0, 0, -1.0], [0, 0, 0.2], [0, 0, 0.8]])
        e = np.array([1.0, 0.0, 1.0]) / np.sqrt(2.0)
        traj = generate(
            "rigid_rotation", masses=M111, config=raw, rate=0.7, duration=1.0, samples=201, axis=e
        )
        measure, intervals = bad_set_measure(traj, e)
        assert measure == pytest.approx(1.0, rel=1e-12)
        assert intervals == [(0.0, 1.0)]

    def test_planar_input_rejected_before_differencing(self):
        # the dimension is checked first, as reconstruct_spatial does, so two
        # planar samples, which cannot be differenced, get the dimension error
        base = generate("random_smooth", masses=M111, seed=3, duration=1.0, samples=2)
        planar = Trajectory(base.masses, base.times, base.positions)
        with pytest.raises(ValueError, match="expects a spatial trajectory"):
            bad_set_measure(planar, np.array([0.0, 0.0, 1.0]))


class TestVelocityDecompose:
    def test_rigid_rotation_has_no_internal_part(self):
        cfg = SpatialConfiguration(*equilateral_3d())
        spin = np.array([0.3, -0.2, 0.9])
        velocity = np.cross(np.broadcast_to(spin, (3, 3)), cfg.as_array())
        v_rigid, v_internal = velocity_decompose(cfg, velocity, M111)
        assert np.allclose(v_internal, 0.0, atol=1e-12)
        assert np.allclose(v_rigid, velocity, atol=1e-12)

    def test_dilation_is_purely_internal(self):
        cfg = SpatialConfiguration(*equilateral_3d())
        velocity = 0.8 * cfg.as_array()
        v_rigid, v_internal = velocity_decompose(cfg, velocity, M111)
        assert np.allclose(v_rigid, 0.0, atol=1e-12)
        assert np.allclose(v_internal, velocity, atol=1e-12)

    def test_random_velocity_contracts(self):
        rng = np.random.default_rng(14)
        m = M123.as_array()
        for _ in range(25):
            cfg = centered_spatial(M123, rng.uniform(-1, 1, size=(3, 3)))
            tensor = sigma_tensor(cfg, M123)
            if tensor.is_collinear:
                continue
            v = rng.uniform(-1, 1, size=(3, 3))
            v -= (m @ v) / M123.M
            v_rigid, v_internal = velocity_decompose(cfg, v, M123)
            assert np.allclose(v_rigid + v_internal, v, atol=1e-14)
            residual = np.einsum("i,id->d", m, np.cross(cfg.as_array(), v_internal))
            linear = np.einsum("i,id->d", m, v_internal)
            assert np.linalg.norm(residual) <= 1e-10 * max(1.0, np.linalg.norm(v))
            assert np.linalg.norm(linear) <= 1e-10

    def test_uncentered_configuration_rejected(self):
        # v_R = w x q_i holds for positions about the centroid; on shifted
        # ones the internal part would carry net linear momentum
        rng = np.random.default_rng(15)
        m = M123.as_array()
        cfg = centered_spatial(M123, rng.standard_normal((3, 3)))
        v = rng.standard_normal((3, 3))
        v -= (m @ v) / M123.M
        _, v_internal = velocity_decompose(cfg, v, M123)
        assert np.linalg.norm(m @ v_internal) <= 1e-12
        shifted = SpatialConfiguration(*(cfg.as_array() + 5.0))
        with pytest.raises(ValueError, match="not centered"):
            velocity_decompose(shifted, v, M123)

    def test_collinear_warns(self):
        cfg = centered_spatial(M111, [[0, 0, -1.0], [0, 0, 0.2], [0, 0, 0.8]])
        velocity = np.cross(np.broadcast_to([1.0, 0, 0], (3, 3)), cfg.as_array())
        with pytest.warns(RuntimeWarning, match="collinear"):
            velocity_decompose(cfg, velocity, M111)

    def test_near_collinear_warns_once(self):
        eps = 3e-5
        cfg = centered_spatial(M111, [[eps, 0, -1.0], [-2 * eps, 0, 0.2], [eps, 0, 0.8]])
        velocity = np.cross(np.broadcast_to([1.0, 0, 0], (3, 3)), cfg.as_array())
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            velocity_decompose(cfg, velocity, M111)
        assert [w.category for w in caught] == [RuntimeWarning]
        assert "J/I convention" in str(caught[0].message)


class TestReconstructSpatial:
    def test_embedded_planar_matches_exactly(self):
        base = generate("random_smooth", masses=M123, seed=31, duration=2.0, samples=2001)
        spatial = embed_planar(base)
        spatial_report = reconstruct_spatial(spatial, e=np.array([0.0, 0.0, 1.0]))
        planar_report = reconstruct_q1(base)
        assert abs(spatial_report.total - planar_report.total) <= 1e-12
        assert spatial_report.certified is True
        assert spatial_report.bad_set_measure == 0.0

    def test_rotation_about_e_of_plane_triangle(self):
        traj = generate(
            "rigid_rotation",
            masses=M111,
            config=equilateral_3d(),
            rate=0.9,
            duration=2.0,
            samples=801,
            axis=np.array([0.0, 0.0, 1.0]),
        )
        rep = reconstruct_spatial(traj, e=np.array([0.0, 0.0, 1.0]), include_oracle=True)
        assert rep.geometric_term == pytest.approx(0.0, abs=1e-12)
        assert rep.total == pytest.approx(1.8, abs=1e-10)
        assert rep.oracle == pytest.approx(1.8, abs=1e-10)

    def test_tilted_rotation_matches_oracle(self):
        traj = generate(
            "rigid_rotation",
            masses=M123,
            config=np.array([[0.8, 0.1, 0.0], [-0.3, 0.55, 0.0], [-0.0667, -0.25, 0.0]]),
            rate=-0.6,
            duration=2.5,
            samples=4001,
            axis=np.array([-0.4, 0.25, 1.0]),
        )
        rep = reconstruct_spatial(traj, e=np.array([0.0, 0.0, 1.0]), include_oracle=True)
        assert abs(rep.total - rep.oracle) <= 1e-5
        assert rep.certified is True

    def test_default_axis_is_initial_momentum(self):
        traj = generate(
            "rigid_rotation",
            masses=M111,
            config=equilateral_3d(),
            rate=0.8,
            duration=1.0,
            samples=1001,
            axis=np.array([0.2, -0.1, 1.0]),
        )
        rep_default = reconstruct_spatial(traj, include_oracle=True)
        m = M111.as_array()
        j0 = np.einsum("i,id->d", m, np.cross(traj.positions[0], traj.velocities[0]))
        rep_explicit = reconstruct_spatial(traj, e=j0, include_oracle=True)
        assert rep_default.total == rep_explicit.total

    def test_suite_motions_certified_and_accurate(self):
        for name, motion, e, base in spatial_motion_cases(2001, 3):
            rep = reconstruct_spatial(motion, e=e, include_oracle=True)
            assert rep.certified is True, name
            assert abs(wrap_angle(rep.total - rep.oracle)) <= 1e-5, name

    def test_negative_control(self):
        report_e, report_n = negative_control_reports(n=1001)
        assert report_e.certified is False and report_n.certified is False
        assert report_e.bad_set_measure > 0 and report_n.bad_set_measure > 0
        assert abs(report_e.total - report_n.total) <= 1e-8
        assert abs(report_e.oracle - report_n.oracle) > 1e-3
        doc = report_e.to_dict()
        assert doc["certified"] is False and doc["bad_set_measure"] > 0

    def test_antipodal_crossing_branches(self):
        plus, minus = antipodal_crossing_reports(n=4001)
        assert plus.pole_crossed and minus.pole_crossed
        assert abs(wrap_angle(plus.total_mod_2pi - minus.total_mod_2pi)) <= 1e-6
        assert plus.total - minus.total == pytest.approx(4 * np.pi, abs=1e-10)
        assert abs(wrap_angle(plus.total - plus.oracle)) <= 1e-6

    def test_antipodal_at_endpoint_rejected(self):
        traj = generate(
            "rigid_rotation",
            masses=M111,
            config=equilateral_3d(),
            rate=np.pi,
            duration=1.0,
            samples=1001,
            axis=np.array([1.0, 0.0, 0.0]),
        )
        with pytest.raises(ValueError, match="endpoint"):
            reconstruct_spatial(traj, e=np.array([0.0, 0.0, 1.0]))

    def test_identity_holds_at_interior_times(self):
        # the formula total tracks the oracle along prefixes of the motion,
        # not just at the final time
        full = spatial_motion_cases(4001, 1)[3][1]  # a wobble case
        e = np.array([0.0, 0.0, 1.0])
        for stop in (801, 1601, 2401, 3201, 4001):
            prefix = Trajectory(
                full.masses,
                full.times[:stop],
                full.positions[:stop],
                full.velocities[:stop],
            )
            rep = reconstruct_spatial(prefix, e=e, include_oracle=True)
            assert abs(rep.total - rep.oracle) <= 1e-5, stop

    def test_positions_and_velocities_mapped_once(self, monkeypatch):
        import shapesphere.shape_core as shape_core

        calls = []

        def counting(samples, masses):
            calls.append(samples)
            return _jacobi_product(samples, masses)

        monkeypatch.setattr(shape_core, "_jacobi_product", counting)
        traj = spatial_motion_cases(2001, 1)[1][1]
        reconstruct_spatial(traj, include_oracle=True)
        assert len(calls) == 2
        assert np.shares_memory(calls[0], traj.positions)
        assert np.shares_memory(calls[1], traj.velocities)
        # without velocities the differenced rates come from the same product
        calls.clear()
        stripped = Trajectory(traj.masses, traj.times, traj.positions)
        reconstruct_spatial(stripped, include_oracle=True)
        assert len(calls) == 1 and np.shares_memory(calls[0], traj.positions)

    def test_momentum_matches_planar_formula_exactly(self):
        # both paths read J off the Jacobi pair, so an embedded planar motion
        # gets the planar total to the last bit
        base = generate("random_smooth", masses=M123, seed=31, duration=2.0, samples=2001)
        e = np.array([0.0, 0.0, 1.0])
        assert reconstruct_spatial(embed_planar(base), e=e).total == reconstruct_q1(base).total

    @pytest.mark.parametrize("seed", range(1031, 1036))
    def test_embedded_rates_and_totals_are_planar_bitwise(self, seed):
        # the normal term of sigma^-1 J goes through the unit normal, so a
        # normal along e_z gives J_z / I on every sample, not by cancellation
        base = generate("random_smooth", masses=M123, seed=seed, duration=3.0, samples=10_000)
        spatial = embed_planar(base)
        e = np.array([0.0, 0.0, 1.0])
        kernel = _locked_inertia(spatial.positions, M123, spatial.velocities)
        rate = _projected_rate(
            kernel.inverse(kernel.momentum, kernel.inertia), normal_track(spatial, e).T, e
        )
        _, _, inertia, momentum = planar_series(base)
        assert np.array_equal(rate, momentum / inertia)
        assert reconstruct_spatial(spatial, e=e).total == reconstruct_q1(base).total

    def test_velocity_free_input_uses_differences(self):
        base = generate("random_smooth", masses=M111, seed=41, duration=2.0, samples=3001)
        spatial = embed_planar(base)
        stripped = Trajectory(spatial.masses, spatial.times, spatial.positions)
        rep = reconstruct_spatial(stripped, e=np.array([0.0, 0.0, 1.0]), include_oracle=True)
        assert abs(rep.total - rep.oracle) <= 1e-4  # differencing noise only


def dense_sigma(q, masses):
    """Inertia map built body by body, the reference for the closed form."""
    m = masses.as_array()
    return np.einsum("i,i->", m, np.einsum("id,id->i", q, q)) * np.eye(3) - np.einsum(
        "i,ia,ib->ab", m, q, q
    )


def near_collinear(masses, rng, eps):
    """Centered configuration at distance ~eps from a random line, tilted."""
    line = rng.standard_normal(3)
    line /= np.linalg.norm(line)
    side = np.cross(line, rng.standard_normal(3))
    side /= np.linalg.norm(side)
    offsets = np.array([-1.0, 0.3, 0.9]) + rng.uniform(-0.1, 0.1, 3)
    raw = offsets[:, None] * line[None, :] + eps * np.array([1.0, -2.0, 0.5])[:, None] * side
    return centered_spatial(masses, raw).as_array(), line


class TestLockedInertiaKernel:
    @given(st.integers(0, 10_000), unit3, st.floats(0.0, np.pi))
    @settings(max_examples=60, deadline=None)
    def test_tilted_triangles_match_linear_algebra(self, seed, axis, angle):
        rng = np.random.default_rng(seed)
        flat = np.concatenate([rng.uniform(-1, 1, size=(3, 2)), np.zeros((3, 1))], axis=1)
        q = centered_spatial(M123, flat).as_array() @ rotation_matrices(axis, angle)[0].T
        sigma = dense_sigma(q, M123)
        trace = np.trace(sigma)
        eig, vec = np.linalg.eigh(sigma)
        kernel = _locked_inertia(q[None], M123)
        assert kernel.inertia[0] == pytest.approx(0.5 * trace, rel=1e-13)
        assert abs(kernel.smallest[0] - eig[0]) <= 1e-13 * trace
        if abs(eig[0] - COLLINEAR_EIG_TOL * trace) > 1e-12 * trace:
            assert kernel.collinear[0] == (eig[0] < COLLINEAR_EIG_TOL * trace)
        if eig[1] - eig[0] > 1e-3 * trace:
            assert abs(kernel.axis().T[0] @ vec[:, 0]) == pytest.approx(1.0, abs=1e-9)
        J = rng.uniform(-2, 2, size=3)
        w = kernel.inverse(J[None].T, kernel.inertia).T[0]
        if kernel.collinear[0]:
            assert np.array_equal(w, J / kernel.inertia[0])
        else:
            condition = trace / eig[0]
            solved = np.linalg.solve(sigma, J)
            assert np.linalg.norm(w - solved) <= 1e-14 * condition * np.linalg.norm(solved)

    @pytest.mark.parametrize("eps", [1e-3, 1e-4, 1e-5, 1e-6, 1e-7, 1e-8, 1e-9])
    def test_near_collinear(self, eps):
        rng = np.random.default_rng(int(-np.log10(eps)))
        for _ in range(20):
            q, line = near_collinear(M123, rng, eps)
            sigma = dense_sigma(q, M123)
            trace = np.trace(sigma)
            eig, vec = np.linalg.eigh(sigma)
            kernel = _locked_inertia(q[None], M123)
            smallest = kernel.smallest[0]
            assert 0.0 < smallest and abs(smallest - eig[0]) <= 1e-14 * trace
            assert kernel.collinear[0] == (eig[0] < COLLINEAR_EIG_TOL * trace)
            axis = kernel.axis().T[0]
            assert abs(axis @ vec[:, 0]) == pytest.approx(1.0, abs=1e-12)
            assert np.linalg.norm(sigma @ axis) <= smallest + 1e-14 * trace
            J = rng.uniform(-2, 2, size=3)
            w = kernel.inverse(J[None].T, kernel.inertia).T[0]
            if kernel.collinear[0]:
                assert np.array_equal(w, J / kernel.inertia[0])
            else:
                solved = np.linalg.solve(sigma, J)
                condition = trace / eig[0]
                assert np.linalg.norm(w - solved) <= 1e-14 * condition * np.linalg.norm(solved)

    def test_exactly_collinear(self):
        rng = np.random.default_rng(5)
        for _ in range(20):
            q, line = near_collinear(M123, rng, 0.0)
            sigma = dense_sigma(q, M123)
            trace = np.trace(sigma)
            kernel = _locked_inertia(q[None], M123)
            assert kernel.collinear[0]
            assert 0.0 <= kernel.smallest[0] <= 1e-14 * trace
            assert np.linalg.eigvalsh(sigma)[0] < COLLINEAR_EIG_TOL * trace
            assert abs(kernel.axis().T[0] @ line) == pytest.approx(1.0, abs=1e-14)
            J = rng.uniform(-2, 2, size=3)
            assert np.array_equal(kernel.inverse(J[None].T, 1.7).T[0], J / 1.7)

    @pytest.mark.parametrize(
        "offsets",
        [[0.0, -1.0, 1.0], [2.0, -1.0, -1.0]],  # body 1 at the 2-3 center; bodies 2, 3 collide
    )
    def test_collinear_with_a_vanishing_jacobi_vector(self, offsets):
        line = np.array([0.36, -0.48, 0.8])
        q = centered_spatial(M111, np.outer(offsets, line)).as_array()
        kernel = _locked_inertia(q[None], M111)
        assert kernel.collinear[0]
        assert abs(kernel.axis().T[0] @ line) == pytest.approx(1.0, abs=1e-14)
        assert np.allclose(dense_sigma(q, M111) @ kernel.axis().T[0], 0.0, atol=1e-14)

    def test_triple_collision_is_not_collinear(self):
        kernel = _locked_inertia(np.zeros((1, 3, 3)), M111)
        assert kernel.inertia[0] == 0.0 and not kernel.collinear[0]

    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_shape_points_match_projected_view(self, seed):
        rng = np.random.default_rng(seed)
        base = generate("random_smooth", masses=M123, seed=seed, duration=3.0, samples=2001)
        tilt = rotation_matrices(rng.standard_normal(3), rng.uniform(0.2, 2.5))[0]
        motions = [
            embed_planar(base, tilt),
            apply_rotation_profile(
                embed_planar(base, tilt),
                axis=rng.standard_normal(3),
                angle=lambda t: 0.6 * np.sin(1.3 * t),
                rate=lambda t: 0.78 * np.cos(1.3 * t),
            ),
        ]
        e = np.array([0.0, 0.0, 1.0])
        for motion in motions:
            normals = normal_track(motion, e)
            assert np.min(np.linalg.norm(normals + e, axis=1)) > 1e-3
            projected = _project_positions(motion.positions.T, normals.T, e).T
            view = shape_curve(Trajectory(motion.masses, motion.times, projected))
            kernel = _locked_inertia(motion.positions, motion.masses)
            assert np.max(np.abs(kernel.shape_points(normals.T).T - view.points)) <= 1e-12


def rotation_to(n, e):
    """Rotation about n x e taking the unit vector n to e, as a matrix."""
    axis = np.cross(n, e)
    sin_phi = np.linalg.norm(axis)
    if sin_phi <= 1e-10:
        return np.eye(3)
    k = axis / sin_phi
    K = np.array([[0.0, -k[2], k[1]], [k[2], 0.0, -k[0]], [-k[1], k[0], 0.0]])
    return np.eye(3) + sin_phi * K + (1.0 - n @ e) * (K @ K)


def sample_batch(masses, rng, count=60):
    """Centered samples with momentum-free velocities: generic triangles, ten
    exactly collinear rows and ten near-collinear ones."""
    q = rng.standard_normal((count, 3, 3))
    for k in range(10):
        q[k] = near_collinear(masses, rng, 0.0)[0]
    for k, eps in zip(range(10, 20), np.logspace(-1, -9, 10)):
        q[k] = near_collinear(masses, rng, eps)[0]
    m = masses.as_array()
    q -= (m @ q)[:, None, :] / masses.M
    v = rng.standard_normal((count, 3, 3))
    v -= (m @ v)[:, None, :] / masses.M
    return q, v


class TestComponentRowsAgainstBodies:
    """The (3, n) row kernels against body-by-body linear algebra: np.cross,
    dense_sigma with np.linalg.solve and explicit rotation matrices."""

    @pytest.mark.parametrize("masses", [M111, M123])
    def test_momentum_vectors(self, masses):
        q, v = sample_batch(masses, np.random.default_rng(21))
        rows = _locked_inertia(q, masses, v).momentum
        assert rows.shape == (3, q.shape[0]) and rows.flags.c_contiguous
        m = masses.as_array()
        for k in range(q.shape[0]):
            expected = sum(m[i] * np.cross(q[k, i], v[k, i]) for i in range(3))
            scale = sum(m[i] * np.linalg.norm(q[k, i]) * np.linalg.norm(v[k, i]) for i in range(3))
            assert np.linalg.norm(rows[:, k] - expected) <= 1e-12 * scale

    @pytest.mark.parametrize("masses", [M111, M123])
    def test_inverse_and_projected_rate(self, masses):
        rng = np.random.default_rng(22)
        q, v = sample_batch(masses, rng)
        kernel = _locked_inertia(q, masses, v)
        momenta = kernel.momentum
        w = kernel.inverse(momenta, kernel.inertia)
        e = rng.standard_normal(3)
        e /= np.linalg.norm(e)
        normals = rng.standard_normal((q.shape[0], 3))
        normals /= np.linalg.norm(normals, axis=1)[:, None]
        normals[normals @ e < -0.9] *= -1.0  # away from the antipode
        rate = _projected_rate(w, np.ascontiguousarray(normals.T), e)
        for k in range(q.shape[0]):
            sigma = dense_sigma(q[k], masses)
            trace = np.trace(sigma)
            if kernel.collinear[k]:
                expected = momenta[:, k] / (0.5 * trace)
                assert np.linalg.norm(w[:, k] - expected) <= 1e-12 * np.linalg.norm(expected)
            else:
                expected = np.linalg.solve(sigma, momenta[:, k])
                condition = trace / np.linalg.eigvalsh(sigma)[0]
                bound = 1e-12 + 1e-15 * condition
                assert np.linalg.norm(w[:, k] - expected) <= bound * np.linalg.norm(expected)
            _, sigma_e, sigma_n = decompose_e_n(w[:, k], e, normals[k])
            assert rate[k] == pytest.approx(sigma_e + sigma_n, rel=1e-12, abs=1e-14)

    @pytest.mark.parametrize("masses", [M111, M123])
    def test_shape_points_and_oracle_projection(self, masses):
        rng = np.random.default_rng(23)
        q, _ = sample_batch(masses, rng)
        kernel = _locked_inertia(q, masses)
        e = rng.standard_normal(3)
        e /= np.linalg.norm(e)
        # each sample's own normal, on a random side; collinear rows take any
        # direction across their line
        normals = np.empty((q.shape[0], 3))
        for k in range(q.shape[0]):
            n = kernel.normal[:, k]
            if not np.linalg.norm(n) > 1e-9 * kernel.inertia[k]:
                n = np.cross(q[k, 2] - q[k, 1], rng.standard_normal(3))
            normals[k] = rng.choice([-1.0, 1.0]) * n / np.linalg.norm(n)
        normals[:2] = [e, e + np.array([1e-12, 0.0, 0.0])]  # q is kept as is there
        points = kernel.shape_points(np.ascontiguousarray(normals.T))
        body1 = _project_positions(q[:, 0].T, np.ascontiguousarray(normals.T), e)
        u1, u2 = plane_basis(e)
        for k in range(2, q.shape[0]):
            turned = q[k] @ rotation_to(normals[k], e).T
            flat = PlanarConfiguration(*(turned @ np.column_stack([u1, u2])))
            expected = normalize_shape(shape_map(jacobi(flat, masses)))
            assert np.max(np.abs(points[:, k] - [expected.w1, expected.w2, expected.w3])) <= 1e-12
            scale = np.linalg.norm(q[k, 0])
            assert np.max(np.abs(body1[:, k] - flat.q1)) <= 1e-12 * scale
        for k in range(2):
            assert np.array_equal(body1[:, k], [q[k, 0] @ u1, q[k, 0] @ u2])


class TestAntipodalBetweenSamples:
    @pytest.mark.parametrize("samples", [10_000, 10_001])
    def test_crossing_flagged_on_any_grid(self, samples):
        traj = generate(
            "rigid_rotation",
            masses=M111,
            config=equilateral_3d(),
            rate=np.pi,
            duration=2.0,
            samples=samples,
            axis=np.array([1.0, 0.0, 0.0]),
        )
        rep = reconstruct_spatial(traj, e=np.array([0.0, 0.0, 1.0]), include_oracle=True)
        assert rep.pole_crossed
        assert abs(wrap_angle(rep.total - rep.oracle)) <= 1e-6

    def test_fixed_tilted_plane_never_crosses(self):
        # the normals equal e up to roundoff: steps that short have no great
        # circle and must not be read as passing through -e
        base = generate("random_smooth", masses=M123, seed=3, duration=3.0, samples=2001)
        rng = np.random.default_rng(0)
        for _ in range(100):
            tilt = rotation_matrices(rng.standard_normal(3), rng.uniform(0.1, 3.0))[0]
            assert not reconstruct_spatial(embed_planar(base, tilt), e=tilt[:, 2]).pole_crossed

    @pytest.mark.parametrize(
        "miss, crossed", [(1e-3, False), (3e-4, True), (1e-4, True), (4e-7, True)]
    )
    def test_closest_approach_against_tolerance(self, miss, crossed):
        # the normal circles the axis; its closest approach to -e is `miss`.
        # A step flags it when -e lies in the ball on the step's chord, of
        # radius 3.1e-4 here; only the flag is checked, since the quadrature
        # still misses part of a pass that lands between samples
        tilt = 0.5 * miss
        traj = generate(
            "rigid_rotation",
            masses=M111,
            config=equilateral_3d(),
            rate=np.pi,
            duration=2.0,
            samples=10_000,
            axis=np.array([np.cos(tilt), 0.0, np.sin(tilt)]),
        )
        rep = reconstruct_spatial(traj, e=np.array([0.0, 0.0, 1.0]))
        assert rep.pole_crossed is crossed

    @staticmethod
    def full_turn(samples):
        return generate(
            "rigid_rotation",
            masses=M111,
            config=equilateral_3d(),
            rate=np.pi,
            duration=2.0,
            samples=samples,
            axis=np.array([1.0, 0.0, 0.0]),
        )

    @pytest.mark.parametrize("samples", [4000, 4001, 10_000, 10_001])
    def test_one_branch_term_per_crossing_on_any_grid(self, samples):
        # the crossing lands on a sample at odd counts and between two at
        # even ones; either way it is one event and one 2 pi term
        traj = self.full_turn(samples)
        e = np.array([0.0, 0.0, 1.0])
        for branch in (1, -1):
            rep = reconstruct_spatial(traj, e=e, antipodal_branch=branch)
            assert rep.pole_crossed
            assert rep.total == pytest.approx(branch * 2.0 * np.pi, abs=1e-9)

    @pytest.mark.parametrize("samples", [4000, 10_000])
    def test_between_sample_crossing_is_one_step(self, samples):
        traj = self.full_turn(samples)
        shifted = normal_track(traj, np.array([0.0, 0.0, 1.0])) + np.array([0.0, 0.0, 1.0])
        steps = np.flatnonzero(np.einsum("nd,nd->n", shifted[:-1], shifted[1:]) <= 0.0)
        assert steps.tolist() == [samples // 2 - 1]

    def test_pass_closer_than_roundoff_of_the_rate_is_silent(self):
        # the normal passes 5e-9 from -e: the rate's denominator 1 + e.n
        # rounds to zero there, so the samples near -e must be dropped
        # before the rate is evaluated, not overwritten after
        tilt = 2.5e-9
        traj = generate(
            "rigid_rotation",
            masses=M111,
            config=equilateral_3d(),
            rate=np.pi,
            duration=2.0,
            samples=10_001,
            axis=np.array([np.cos(tilt), 0.0, np.sin(tilt)]),
        )
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            rep = reconstruct_spatial(traj, e=np.array([0.0, 0.0, 1.0]))
        assert rep.pole_crossed
        assert rep.total == pytest.approx(6.283257004032966, abs=1e-12)

    @staticmethod
    def turned_about_x(angle, rate, tilt=0.0):
        # about the x axis tilted by `tilt` toward z
        base = generate("random_smooth", masses=M123, seed=5, duration=2.0, samples=20_001)
        axis = [np.cos(tilt), 0.0, np.sin(tilt)]
        return apply_rotation_profile(embed_planar(base), axis, angle, rate)

    def test_normal_touching_antipode_and_turning_back_rejected(self):
        traj = self.turned_about_x(
            lambda t: np.pi * np.sin(0.5 * np.pi * t),
            lambda t: 0.5 * np.pi**2 * np.cos(0.5 * np.pi * t),
        )
        with pytest.raises(ValueError, match="stalls"):
            reconstruct_spatial(traj, e=np.array([0.0, 0.0, 1.0]))

    def test_run_of_antipodal_samples_is_one_crossing(self):
        # the turn dwells near pi, so dozens of samples lie within
        # ANTIPODAL_TOL of -e; their step is bridged and counted once
        e = np.array([0.0, 0.0, 1.0])
        traj = self.turned_about_x(
            lambda t: np.pi + 204.0 * (t - 1.0) ** 3, lambda t: 612.0 * (t - 1.0) ** 2
        )
        near = np.linalg.norm(normal_track(traj, e) + e, axis=1) < ANTIPODAL_TOL
        assert np.count_nonzero(near) > 10
        rep = reconstruct_spatial(traj, e=e, include_oracle=True)
        assert rep.pole_crossed
        assert abs(wrap_angle(rep.total - rep.oracle)) <= 1e-6

    @pytest.mark.parametrize(
        "tilt, angle, rate",
        [
            # a dwell at pi whose normal misses -e by 8e-7: samples are
            # dropped, and -e lies outside the ball on the flanks' chord
            (
                4e-7,
                lambda t: np.pi + 0.5 * np.pi * (t - 1.0) ** 3,
                lambda t: 1.5 * np.pi * (t - 1.0) ** 2,
            ),
            # a pass 9e-7 from -e at 1.2e-6 per step, midway between two
            # samples: no sample is dropped and no chord ball holds -e
            (
                4.5e-7,
                lambda t: np.pi + 0.012 * (t - 0.99995) + (np.pi - 0.012) * (t - 0.99995) ** 3,
                lambda t: 0.012 + 3.0 * (np.pi - 0.012) * (t - 0.99995) ** 2,
            ),
            # the normal touches -e and turns back off the grid, so the
            # flanks of the dropped run differ and it does not stall
            (
                0.0,
                lambda t: np.pi * np.sin(0.5 * np.pi * (t + 3e-5)),
                lambda t: 0.5 * np.pi**2 * np.cos(0.5 * np.pi * (t + 3e-5)),
            ),
        ],
        ids=["dropped-run-grazes", "kept-step-grazes", "turn-back-off-grid"],
    )
    def test_pass_within_tolerance_is_one_crossing(self, tilt, angle, rate):
        # none of these passes puts -e in a kept step's chord ball, yet each
        # comes within ANTIPODAL_TOL of it and counts once
        e = np.array([0.0, 0.0, 1.0])
        traj = self.turned_about_x(angle, rate, tilt)
        shifted = normal_track(traj, e) + e
        kept = shifted[np.linalg.norm(shifted, axis=1) >= ANTIPODAL_TOL]
        assert not np.any(np.einsum("nd,nd->n", kept[:-1], kept[1:]) <= 0.0)
        plus = reconstruct_spatial(traj, e=e, antipodal_branch=1)
        minus = reconstruct_spatial(traj, e=e, antipodal_branch=-1)
        assert plus.pole_crossed and minus.pole_crossed
        assert plus.total - minus.total == pytest.approx(4.0 * np.pi, abs=1e-9)
