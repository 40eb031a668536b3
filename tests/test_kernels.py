"""Numpy kernels against the library routines and formulas they replace."""

import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from shapesphere import (
    F_of_J,
    PlanarConfiguration,
    SpatialConfiguration,
    Trajectory,
    bad_set_measure,
    derive_masses,
    dynamic_term,
    embed_planar,
    finite_difference_velocities,
    generate,
    jacobi,
    normalize_shape,
    oriented_state,
    reconstruct_q1,
    reconstruct_spatial,
    reconstruct_Z1,
    shape_map,
)
from shapesphere import trajectory as trajectory_module
from shapesphere.planar import _quadrature
from shapesphere.shape_core import (
    _bodies_from_rows,
    _collinear_imbalance,
    _collinear_ratio,
    _cross,
    _dot,
    _jacobi_matrices,
    _jacobi_product,
    _jacobi_rows,
    _recenter,
)
from shapesphere.spatial import _projected_rate
from shapesphere.trajectory import (
    _gravity_accel,
    _spline_slopes,
    rotation_matrices,
)

COUNTS = list(range(3, 41)) + [10_000, 10_001]
M123 = derive_masses(1, 2, 3)


def scipy_rule(t, y):
    """scipy's Simpson on odd counts; on even counts the mean of scipy's
    Simpson run from either end, which puts Cartwright's end interval at
    both ends."""
    simpson = pytest.importorskip("scipy.integrate").simpson
    if t.size % 2:
        return float(simpson(y, x=t))
    return 0.5 * (float(simpson(y, x=t)) + float(simpson(y[::-1], x=-t[::-1])))


class TestSimpson:
    @pytest.mark.parametrize("n", COUNTS)
    def test_matches_scipy_on_uniform_grids(self, n):
        rng = np.random.default_rng(n)
        for _ in range(5):
            start = rng.uniform(-5.0, 5.0)
            t = np.linspace(start, start + rng.uniform(0.1, 10.0), n)
            h = t[1] - t[0]
            for y in (rng.standard_normal(n), np.sin(3.0 * t) + 2.0):
                scale = h * np.sum(np.abs(y))
                assert abs(_quadrature(t, y) - scipy_rule(t, y)) <= 1e-13 * scale
                # the mirrored grid sums the same triples in reverse order
                assert abs(_quadrature(-t[::-1], y[::-1]) - _quadrature(t, y)) <= 1e-15 * scale

    @pytest.mark.parametrize("n", [3, 4, 9, 10])
    def test_exact_for_parabolas(self, n):
        # cubics too, at odd and even counts: the end corrections' errors
        # on a cubic cancel between the two ends
        offset = np.random.default_rng(n).uniform(-3.0, 3.0)
        for a in (0.5, 0.5 + offset):
            b = a + 1.5
            t = np.linspace(a, b, n)
            y = t**3 - 2.0 * t**2 + 0.5
            exact = (b**4 - a**4) / 4.0 - 2.0 * (b**3 - a**3) / 3.0 + 0.5 * (b - a)
            assert _quadrature(t, y) == pytest.approx(exact, rel=1e-14)

    def test_short_and_nonuniform_fall_back(self):
        assert _quadrature(np.array([0.0]), np.array([3.0])) == 0.0
        assert _quadrature(np.array([0.0, 2.0]), np.array([1.0, 3.0])) == 4.0
        t = np.array([0.0, 1.0, 3.0])
        assert _quadrature(t, t) == pytest.approx(4.5)


class TestPlanarRows:
    @staticmethod
    def samples(masses, n=40):
        """Random centered positions and velocities (n, 3, 2); sample 0 is
        collinear and sample 1 is a homothety, whose J is zero."""
        rng = np.random.default_rng(7)
        q = rng.uniform(-1.5, 1.5, size=(n, 3, 2))
        v = rng.standard_normal((n, 3, 2))
        q[0] = rng.uniform(-1.0, 1.0, size=3)[:, None] * np.array([0.6, -0.8])
        v[1] = -0.7 * q[1]
        _recenter(q, masses)
        _recenter(v, masses)
        return q, v

    @pytest.mark.parametrize("triple", [(1, 1, 1), (1, 2, 3), (0.1, 5.0, 2.5)])
    def test_matches_the_body_sums_and_the_scalar_maps(self, triple):
        masses = derive_masses(*triple)
        m = masses.as_array()[:, None]
        q, v = self.samples(masses)
        rows = _jacobi_rows(q, v, masses)
        for k in range(q.shape[0]):
            inertia = np.sum(m[:, 0] * np.sum(q[k] ** 2, axis=1))
            momentum = np.sum(m[:, 0] * (q[k, :, 0] * v[k, :, 1] - q[k, :, 1] * v[k, :, 0]))
            scale = np.sum(m[:, 0] * np.linalg.norm(q[k], axis=1) * np.linalg.norm(v[k], axis=1))
            assert abs(rows.inertia[k] - inertia) <= 1e-12 * inertia
            assert abs(rows.momentum[k] - momentum) <= 1e-12 * scale
            pair = jacobi(PlanarConfiguration(*q[k]), masses)
            assert complex(*rows.xi1[:, k]) == pytest.approx(pair.Z1, rel=1e-14, abs=1e-15)
            assert complex(*rows.xi2[:, k]) == pytest.approx(pair.Z2, rel=1e-14, abs=1e-15)
            point = normalize_shape(shape_map(pair)).vec()
            assert np.max(np.abs(rows.w[:, k] / rows.inertia[k] - point)) <= 1e-12
        # the collinear sample has no area, the homothety no angular momentum
        assert abs(rows.w[2, 0]) <= 1e-15 * rows.inertia[0]
        assert abs(rows.momentum[1]) <= 1e-15 * rows.inertia[1]

    def test_rows_are_c_ordered_for_any_layout(self):
        masses = derive_masses(1, 2, 3)
        q, v = self.samples(masses)
        rows = _jacobi_rows(q, np.asfortranarray(v), masses)
        reference = _jacobi_rows(q, v, masses)
        for name in ("xi1", "xi2", "inertia", "momentum", "w"):
            value = getattr(rows, name)
            assert value.flags.c_contiguous, name
            assert np.array_equal(value, getattr(reference, name)), name
        assert rows.w.shape == (3, q.shape[0]) and rows.xi1.shape == (2, q.shape[0])

    def test_without_velocities_there_is_no_momentum(self):
        masses = derive_masses(1, 2, 3)
        q, _ = self.samples(masses)
        rows = _jacobi_rows(q, None, masses)
        assert rows.momentum is None
        assert np.array_equal(rows.w, _jacobi_rows(q, q, masses).w)

    @pytest.mark.parametrize("triple", [(1, 1, 1), (1, 2, 3)])
    def test_embedded_motion_gets_the_planar_invariants_bitwise(self, triple):
        # one kernel for (2, n) and (3, n) rows: the third component of a
        # spatial cross product is the planar one, and a zero third
        # coordinate adds exact zeros to every dot product.
        masses = derive_masses(*triple)
        base = generate("random_smooth", masses=masses, seed=5, duration=2.0, samples=501)
        motion = embed_planar(base)
        q, v = motion.positions, motion.velocities
        # a linear map keeps the centered samples as they are
        assert np.array_equal(q[..., :2], base.positions)
        assert np.array_equal(v[..., :2], base.velocities)
        planar = _jacobi_rows(base.positions, base.velocities, masses)
        spatial = _jacobi_rows(q, v, masses)
        assert np.array_equal(spatial.inertia, planar.inertia)
        assert np.array_equal(spatial.w, planar.w[:2])
        assert planar.normal.shape == (501,) and np.shares_memory(planar.normal, planar.w)
        zeros = np.zeros(501)
        assert np.array_equal(spatial.normal, np.stack([zeros, zeros, planar.w[2]]))
        assert np.array_equal(spatial.momentum, np.stack([zeros, zeros, planar.momentum]))


def body_rows(q):
    """The same samples stored by body row: the (n, 3, d) view of a C-ordered
    (d, 3, n) array."""
    return np.ascontiguousarray(q.T).T


class TestJacobiMatrix:
    """The Jacobi map as one matrix A over the bodies, applied with one
    product to samples in any layout, and its inverse M^-1 A^T."""

    @staticmethod
    def centered(masses, n, d, seed=3):
        q = np.random.default_rng(seed).standard_normal((n, 3, d))
        _recenter(q, masses)
        return q

    @settings(max_examples=50, deadline=None)
    @given(st.tuples(*[st.floats(1e-3, 1e3)] * 3))
    def test_orthogonal_in_the_mass_metric(self, triple):
        masses = derive_masses(*triple)
        a, inverse = _jacobi_matrices(masses, 1)
        assert np.max(np.abs(a @ np.diag(1.0 / masses.as_array()) @ a.T - np.eye(2))) <= 1e-15
        assert np.max(np.abs(a @ inverse - np.eye(2))) <= 1e-15
        # translations have no Jacobi component
        assert np.all(np.abs(a.sum(axis=1)) <= 4.0 * np.finfo(float).eps * np.abs(a).max(axis=1))

    @pytest.mark.parametrize("d", [2, 3])
    @pytest.mark.parametrize("n", [1, 2, 101])
    def test_inverse_undoes_the_map(self, n, d):
        for masses in (M123, derive_masses(0.1, 5.0, 2.5)):
            q = self.centered(masses, n, d)
            rows = _jacobi_product(q, masses).reshape(2 * d, n)
            back = _bodies_from_rows(rows, masses)
            assert back.shape == q.shape and back.flags.c_contiguous
            assert np.max(np.abs(back - q)) <= 1e-15 * np.abs(q).max()
            again = _jacobi_product(back, masses).reshape(2 * d, n)
            assert np.max(np.abs(again - rows)) <= 1e-15 * np.abs(rows).max()

    @pytest.mark.parametrize("d", [1, 2, 3])
    @pytest.mark.parametrize("n", [1, 2, 7, 1000])
    def test_every_layout_gives_the_same_rows(self, n, d):
        every_third = self.centered(M123, 3 * n, d)[::3]
        q = np.ascontiguousarray(every_third)
        reference = _jacobi_product(q, M123)
        assert reference.shape == (2, d, n) and reference.flags.c_contiguous
        for samples in (body_rows(q), every_third):
            rows = _jacobi_product(samples, M123)
            assert rows.flags.c_contiguous
            assert np.array_equal(rows, reference)

    def test_samples_are_not_copied(self):
        q = self.centered(M123, 100_000, 3)
        _jacobi_product(q, M123)  # the matrices are cached after the first call
        tracemalloc.start()
        try:
            rows = _jacobi_product(q, M123)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert rows.nbytes <= peak < rows.nbytes + 0.1 * q.nbytes


def stripped_motions():
    """Velocity-free random_smooth motions (masses 1, 2, 3; 2001 samples) as
    (kind, trajectory) parameters: planar and tilted embedded copies on the
    uniform grid and on a randomly jittered one."""
    base = generate("random_smooth", masses=M123, seed=17, duration=2.0, samples=2001)
    tilt = rotation_matrices(np.array([0.3, -1.0, 0.4]), 0.9)[0]
    h = base.times[1] - base.times[0]
    jitter = np.random.default_rng(29).uniform(-0.3, 0.3, base.n_samples) * h
    for kind, motion in (("planar", base), ("embedded", embed_planar(base, tilt))):
        for grid, t in (("uniform", base.times), ("jittered", base.times + jitter)):
            yield pytest.param(kind, Trajectory(M123, t, motion.positions), id=f"{kind}-{grid}")


STRIPPED = list(stripped_motions())


class TestDifferencedRows:
    """Without velocities, J comes from the Jacobi rows differenced over the
    sample times, in place of the Jacobi map of finite_difference_velocities."""

    @staticmethod
    def operations(kind):
        if kind == "planar":
            return {
                "q1": lambda traj: reconstruct_q1(traj).total,
                "Z1": lambda traj: reconstruct_Z1(traj).total,
                "dynamic": dynamic_term,
            }
        return {
            "spatial": lambda traj: reconstruct_spatial(traj).total,
            "spatial_e": lambda traj: reconstruct_spatial(traj, e=[0.2, 0.1, 1.0]).total,
            "bad_set": lambda traj: bad_set_measure(traj, [0.2, 0.1, 1.0])[0],
        }

    @pytest.mark.parametrize("kind, traj", STRIPPED)
    def test_matches_the_differenced_velocities(self, kind, traj):
        differenced = finite_difference_velocities(traj)
        for name, op in self.operations(kind).items():
            assert abs(op(traj) - op(differenced)) <= 1e-12, name

    @pytest.mark.parametrize("kind, traj", STRIPPED[::3])
    def test_builds_no_second_trajectory(self, kind, traj, monkeypatch):
        calls = []
        post_init = Trajectory.__post_init__
        differences = trajectory_module.finite_difference_velocities

        def counted_post_init(self):
            calls.append("Trajectory")
            post_init(self)

        def counted_differences(traj):
            calls.append("finite_difference_velocities")
            return differences(traj)

        monkeypatch.setattr(Trajectory, "__post_init__", counted_post_init)
        monkeypatch.setattr(trajectory_module, "finite_difference_velocities", counted_differences)
        for op in self.operations(kind).values():
            op(traj)
        assert calls == []
        # the counters see the path that velocity-free calls no longer take
        traj.ensure_velocities()
        assert calls == ["finite_difference_velocities", "Trajectory"]

    @pytest.mark.parametrize("dim", [2, 3])
    def test_exact_on_quadratic_motions(self, dim):
        # second-order stencils at the ends as inside: J is exact on a motion
        # quadratic in t, on a nonuniform grid
        rng = np.random.default_rng(dim)
        t = np.cumsum(rng.uniform(0.05, 0.3, 40))
        a, b, c = rng.standard_normal((3, 3, dim))
        q = a + b * t[:, None, None] + c * t[:, None, None] ** 2
        v = b + 2.0 * c * t[:, None, None]
        _recenter(q, M123)
        _recenter(v, M123)
        m = M123.as_array()[None, :, None]
        rows = _jacobi_rows(q, None, M123, t)
        if dim == 2:
            exact = np.sum(m[..., 0] * (q[..., 0] * v[..., 1] - q[..., 1] * v[..., 0]), axis=1)
            momentum = rows.momentum
        else:
            exact = np.sum(m * np.cross(q, v), axis=1)
            momentum = rows.momentum.T
        sizes = np.linalg.norm(q, axis=2) * np.linalg.norm(v, axis=2)
        scale = np.max(np.sum(m[..., 0] * sizes, axis=1))
        assert np.max(np.abs(momentum - exact)) <= 1e-13 * scale

    def test_needs_three_samples(self):
        t = np.array([0.0, 1.0])
        q = np.array([[1.0, 0.2, 0.1], [-0.4, 0.9, -0.3], [0.3, -0.6, 0.2]])
        planar = Trajectory.from_samples(M123, t, np.stack([q[:, :2], 1.1 * q[:, :2]]))
        spatial = Trajectory.from_samples(M123, t, np.stack([q, 1.1 * q]))
        message = "need at least 3 samples to difference velocities"
        for call in (
            lambda: reconstruct_q1(planar),
            lambda: reconstruct_Z1(planar),
            lambda: dynamic_term(planar),
            lambda: reconstruct_spatial(spatial),
            lambda: bad_set_measure(spatial, [0.0, 0.0, 1.0]),
        ):
            with pytest.raises(ValueError, match=message):
                call()


class TestRowProducts:
    def test_dot_matches_einsum_bitwise(self):
        # einsum sums a contiguous length-3 axis as (x0 + x2) + x1, and _dot
        # on (3, n) rows in the same order; einsum over the rows themselves
        # would sum x0, x1, x2 in turn
        rng = np.random.default_rng(11)
        a, b = rng.standard_normal((2, 3, 1001)) * np.logspace(-8, 8, 1001)
        samples_a, samples_b = np.ascontiguousarray(a.T), np.ascontiguousarray(b.T)
        assert np.array_equal(_dot(a, b), np.einsum("nd,nd->n", samples_a, samples_b))
        # in the plane the order is x0 + x1
        assert np.array_equal(_dot(a[:2], b[:2]), a[0] * b[0] + a[1] * b[1])

    def test_cross_matches_numpy(self):
        rng = np.random.default_rng(3)
        a, b = rng.standard_normal((2, 3, 50))
        assert np.array_equal(_cross(a, b), np.cross(a.T, b.T).T)
        assert np.array_equal(_cross(a[:, 3], b), np.cross(a[:, 3], b.T).T)
        # the planar cross product is the third spatial row
        assert np.array_equal(_cross(a[:2], b[:2]), _cross(a * [[1], [1], [0]], b)[2])


SPLINE_COUNTS = [2, 3, 4, 5, 50, 10_000]


def spline_grid(n, uniform, rng):
    """n knots from -0.7 to 2.3, evenly spaced or with steps that vary
    tenfold."""
    if uniform:
        return np.linspace(-0.7, 2.3, n)
    knots = np.cumsum(rng.uniform(0.1, 1.0, n))
    return -0.7 + 3.0 * (knots - knots[0]) / (knots[-1] - knots[0])


def hermite(t, y, slopes, x):
    """Value and slope at points x of the piecewise Hermite cubic through
    knot values y and knot slopes (both (n,) or (n, k))."""
    i = np.clip(np.searchsorted(t, x, side="right") - 1, 0, t.size - 2)
    h = t[i + 1] - t[i]
    tau = ((x - t[i]) / h).reshape((-1,) + (1,) * (y.ndim - 1))
    h = h.reshape(tau.shape)
    y0, y1, m0, m1 = y[i], y[i + 1], slopes[i] * h, slopes[i + 1] * h
    value = (
        (2 * tau**3 - 3 * tau**2 + 1) * y0
        + (tau**3 - 2 * tau**2 + tau) * m0
        + (-2 * tau**3 + 3 * tau**2) * y1
        + (tau**3 - tau**2) * m1
    )
    slope = (
        (6 * tau**2 - 6 * tau) * (y0 - y1)
        + (3 * tau**2 - 4 * tau + 1) * m0
        + (3 * tau**2 - 2 * tau) * m1
    ) / h
    return value, slope


class TestSplineSlopes:
    @pytest.mark.parametrize("n", SPLINE_COUNTS)
    @pytest.mark.parametrize("uniform", [True, False], ids=["uniform", "nonuniform"])
    @pytest.mark.parametrize("columns", [None, 3], ids=["vector", "columns"])
    def test_matches_scipy_cubic_spline(self, n, uniform, columns):
        CubicSpline = pytest.importorskip("scipy.interpolate").CubicSpline
        rng = np.random.default_rng(n)
        t = spline_grid(n, uniform, rng)
        y = rng.standard_normal(n if columns is None else (n, columns))
        slopes = _spline_slopes(t, y)
        assert slopes.shape == y.shape
        spline = CubicSpline(t, y, bc_type="not-a-knot")
        rate = spline.derivative()
        points = np.concatenate([t, 0.5 * (t[:-1] + t[1:]), rng.uniform(t[0], t[-1], 200)])
        value, slope = hermite(t, y, slopes, points)
        expected_slope = rate(points)
        assert np.max(np.abs(value - spline(points))) <= 1e-14 * np.max(np.abs(y))
        assert np.max(np.abs(slope - expected_slope)) <= 1e-14 * np.max(np.abs(expected_slope))

    @pytest.mark.parametrize("n", [4, 5, 6, 50, 1000])
    @pytest.mark.parametrize("uniform", [True, False], ids=["uniform", "nonuniform"])
    def test_reproduces_cubics(self, n, uniform):
        rng = np.random.default_rng(10 + n)
        t = spline_grid(n, uniform, rng)
        coeffs = rng.standard_normal((4, 2))
        y = sum(c * t[:, None] ** p for p, c in enumerate(coeffs))
        exact = sum(p * c * t[:, None] ** (p - 1) for p, c in enumerate(coeffs) if p)
        slopes = _spline_slopes(t, y)
        # roundoff in the data turns into slope errors of order eps |y| / h
        bound = 1e-14 * np.max(np.abs(y)) / np.min(np.diff(t))
        assert np.max(np.abs(slopes - exact)) <= bound

    @pytest.mark.parametrize("n", [2, 3])
    def test_line_and_parabola(self, n):
        # the not-a-knot spline through 2 samples is their line, through 3
        # their parabola
        t = np.array([0.2, 0.5, 1.4])[:n]
        y = 1.5 - 0.7 * t + (n - 2) * 2.0 * t**2
        exact = -0.7 + (n - 2) * 4.0 * t
        assert np.allclose(_spline_slopes(t, y), exact, rtol=0.0, atol=1e-14)

    @pytest.mark.parametrize("n", [4, 5, 9, 50, 10_000])
    def test_not_a_knot_conditions(self, n):
        # the third derivative, 6 (m0 + m1 - 2 chord) / h^2 on each
        # interval, is continuous across t[1] and t[-2]
        rng = np.random.default_rng(20 + n)
        t = spline_grid(n, False, rng)
        y = rng.standard_normal(n)
        m = _spline_slopes(t, y)
        h = np.diff(t)
        third = 6.0 * (m[:-1] + m[1:] - 2.0 * np.diff(y) / h) / h**2
        scale = np.max(np.abs(third))
        assert abs(third[0] - third[1]) <= 1e-12 * scale
        assert abs(third[-1] - third[-2]) <= 1e-12 * scale

    def test_single_sample_is_constant(self):
        slopes = _spline_slopes(np.array([0.3]), np.array([[2.0, -1.0]]))
        assert np.array_equal(slopes, [[0.0, 0.0]])


# at least six mass triples, each with every body in the middle
MASS_PANEL = [
    (1.0, 1.0, 1.0),
    (1.0, 2.0, 3.0),
    (3.0, 2.0, 1.0),
    (0.3, 5.0, 1.7),
    (2.0, 3.0, 6.0),
    (1.0, 1.4, 0.7),
    (0.2, 0.2, 5.0),
    (4.9, 0.21, 2.5),
]


class TestCollinearRatio:
    @pytest.mark.parametrize("triple", MASS_PANEL)
    def test_matches_brentq(self, triple):
        brentq = pytest.importorskip("scipy.optimize").brentq
        for mj, mi, mk in (triple, triple[1:] + triple[:1], triple[2:] + triple[:2]):
            imbalance = _collinear_imbalance(mj, mi, mk)
            hi = 1.0
            while imbalance(hi) > 0.0:
                hi *= 2.0
            expected = brentq(imbalance, 1e-9, hi, xtol=1e-15, maxiter=200)
            ratio = _collinear_ratio(mj, mi, mk)
            assert abs(ratio - expected) <= 4e-15
            assert imbalance(ratio - 4e-15) > 0.0 > imbalance(ratio + 4e-15)

    def test_exact_root_is_returned(self):
        # equal masses put the middle body at the midpoint: ratio 1, where
        # the imbalance is exactly zero
        assert _collinear_ratio(1.0, 1.0, 1.0) == 1.0
        assert _collinear_ratio(2.5, 0.7, 2.5) == 1.0


class TestGravityAccel:
    @pytest.mark.parametrize("dim", [2, 3])
    def test_matches_pairwise_sum(self, dim):
        rng = np.random.default_rng(dim)
        for triple in MASS_PANEL:
            m = np.array(triple)
            G = rng.uniform(0.5, 2.0)
            q = rng.standard_normal((3, dim))
            expected = np.zeros((3, dim))
            for i in range(3):
                for j in range(3):
                    if i != j:
                        d = q[j] - q[i]
                        expected[i] += G * m[j] * d / np.linalg.norm(d) ** 3
            # the kernel takes and gives flat lists of Python floats
            accel = np.reshape(_gravity_accel(q.ravel().tolist(), (G * m).tolist()), (3, dim))
            assert np.max(np.abs(accel - expected)) <= 1e-13 * np.max(np.abs(expected))
            # the pair forces cancel: no net force on the system
            assert np.max(np.abs(m @ accel)) <= 1e-13 * np.max(np.abs(expected))


class TestProjectedRate:
    def test_axis_per_sample_matches_scalar_F(self):
        # the batch that spin_invariance_deviation evaluates, against F_of_J
        # on one oriented state at a time
        rng = np.random.default_rng(5)
        masses = derive_masses(1.0, 1.4, 0.7)
        q = rng.standard_normal((50, 3, 3))
        q -= (masses.as_array() @ q)[:, None, :] / masses.M
        kernel = _jacobi_rows(q, None, masses)
        normals = kernel.normal.T / np.linalg.norm(kernel.normal.T, axis=1)[:, None]
        axes = rng.standard_normal((50, 3))
        axes /= np.linalg.norm(axes, axis=1)[:, None]
        axes[0] = normals[0]  # the aligned branch
        momenta = rng.standard_normal((50, 3))
        batched = _projected_rate(kernel.inverse(momenta.T, kernel.inertia), normals.T, axes.T)
        for k in range(50):
            state = oriented_state(SpatialConfiguration(*q[k]), normals[k], axes[k])
            single = F_of_J(state, momenta[k], kernel.inertia[k], masses)
            assert batched[k] == pytest.approx(single, rel=1e-12, abs=1e-14)
