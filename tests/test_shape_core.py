"""Core shape-map, Jacobi and fiber tests."""

import numpy as np
import pytest
from hypothesis import assume, given, settings, strategies as st

from shapesphere import (
    JacobiPair,
    PlanarConfiguration,
    ShapePoint,
    chart_angles,
    configuration_from_fiber,
    configuration_from_jacobi,
    derive_masses,
    inertia_and_momentum,
    jacobi,
    normalize_shape,
    shape_map,
)
from shapesphere.shape_core import jacobi_pivot3, jacobi_series, shape_series

EQUILATERAL = PlanarConfiguration(
    [1.0, 0.0], [-0.5, np.sqrt(3.0) / 2.0], [-0.5, -np.sqrt(3.0) / 2.0]
)

masses_strategy = st.tuples(
    st.floats(0.2, 5.0), st.floats(0.2, 5.0), st.floats(0.2, 5.0)
)
coord = st.floats(-2.0, 2.0)


def random_centered(masses, rng, n=1):
    q = rng.uniform(-1.5, 1.5, size=(n, 3, 2))
    m = masses.as_array()
    return q - (np.einsum("i,nid->nd", m, q) / masses.M)[:, None, :]


def centered_config(masses, raw):
    q = np.asarray(raw, dtype=float)
    m = masses.as_array()
    q = q - (m @ q) / masses.M
    return PlanarConfiguration(q[0], q[1], q[2])


def drawn_config(masses, raw):
    # near-total collapses leave only centering roundoff behind; the
    # relative invariants are not meaningful there
    cfg = centered_config(masses, raw)
    assume(np.max(np.abs(cfg.as_array())) > 1e-3)
    return cfg


class TestDeriveMasses:
    def test_equal_masses(self):
        m = derive_masses(1, 1, 1)
        assert m.mu1 == pytest.approx(1.0 / np.sqrt(2.0), rel=1e-14)
        assert m.mu2 == pytest.approx(np.sqrt(2.0 / 3.0), rel=1e-14)
        assert m.M == 3.0

    def test_236(self):
        m = derive_masses(2, 3, 6)
        assert m.mu1 == pytest.approx(np.sqrt(2.0), rel=1e-14)

    @given(masses_strategy)
    @settings(max_examples=50, deadline=None)
    def test_reciprocal_identities(self, triple):
        m = derive_masses(*triple)
        assert 1.0 / m.mu1**2 == pytest.approx(1.0 / m.m2 + 1.0 / m.m3, rel=1e-14)
        assert 1.0 / m.mu2**2 == pytest.approx(1.0 / m.m1 + 1.0 / (m.m2 + m.m3), rel=1e-14)

    @pytest.mark.parametrize("bad", [(0, 1, 1), (-1, 1, 1), (np.nan, 1, 1), (np.inf, 1, 1)])
    def test_rejects_bad_masses(self, bad):
        with pytest.raises(ValueError):
            derive_masses(*bad)


class TestJacobi:
    def test_equilateral(self):
        m = derive_masses(1, 1, 1)
        pair = jacobi(EQUILATERAL, m)
        assert pair.Z1 == pytest.approx(-1j * np.sqrt(1.5), abs=1e-14)
        assert pair.Z2 == pytest.approx(np.sqrt(1.5), abs=1e-14)

    def test_binary_collision_gives_zero_Z1(self):
        m = derive_masses(1, 2, 3)
        cfg = centered_config(m, [[1.0, 0.5], [0.2, -0.1], [0.2, -0.1]])
        assert abs(jacobi(cfg, m).Z1) == 0.0

    def test_body1_at_center_gives_zero_Z2(self):
        m = derive_masses(1, 1, 1)
        cfg = PlanarConfiguration([0.0, 0.0], [1.0, 0.5], [-1.0, -0.5])
        assert abs(jacobi(cfg, m).Z2) == 0.0

    def test_rejects_uncentered(self):
        m = derive_masses(1, 1, 1)
        cfg = PlanarConfiguration([1.0, 0.0], [1.0, 0.0], [1.0, 0.0])
        with pytest.raises(ValueError, match="not centered"):
            jacobi(cfg, m)

    def test_Z2_parallel_to_q1(self):
        rng = np.random.default_rng(3)
        m = derive_masses(1.3, 0.7, 2.1)
        q = random_centered(m, rng)[0]
        pair = jacobi(PlanarConfiguration(*q), m)
        assert np.angle(q[0][0] + 1j * q[0][1]) == pytest.approx(
            np.angle(pair.Z2), abs=1e-12
        )

    @pytest.mark.parametrize(
        "shape", [(5, 3, 3), (5, 3), (5, 2, 2), (3, 2), (5, 3, 2, 1)], ids=str
    )
    def test_series_rejects_other_shapes(self, shape):
        # spatial samples would lose z, (n, 3) samples give 0-d values and
        # (n, 2, 2) samples have a body too few
        with pytest.raises(ValueError, match=r"shape \(n, 3, 2\)"):
            jacobi_series(np.ones(shape), derive_masses(1, 2, 3))

    @given(masses_strategy, st.lists(coord, min_size=6, max_size=6))
    @settings(max_examples=50, deadline=None)
    def test_round_trip(self, triple, coords):
        m = derive_masses(*triple)
        cfg = drawn_config(m, np.reshape(coords, (3, 2)))
        back = configuration_from_jacobi(jacobi(cfg, m), m)
        scale = max(np.max(np.abs(cfg.as_array())), 1e-9)
        assert np.allclose(back.as_array(), cfg.as_array(), atol=1e-12 * scale)


class TestScalarWrappers:
    def test_return_types(self):
        m = derive_masses(1.3, 0.7, 2.1)
        cfg = PlanarConfiguration(*random_centered(m, np.random.default_rng(11))[0])
        for pair in (jacobi_pivot3(cfg, m), jacobi(cfg, m)):
            assert type(pair.Z1) is complex and type(pair.Z2) is complex
        point = shape_map(pair)
        assert all(type(c) is float for c in (point.w1, point.w2, point.w3, point.w4))
        back = configuration_from_jacobi(pair, m)
        assert type(back) is PlanarConfiguration
        for q in (back.q1, back.q2, back.q3):
            assert q.shape == (2,) and q.dtype == np.float64
        for rate in (JacobiPair(0.3j * pair.Z1, 0.2 * pair.Z2), JacobiPair(0.0, 0.0)):
            values = inertia_and_momentum(pair, rate)
            assert type(values) is tuple and [type(v) for v in values] == [float, float]


class TestInertiaMomentum:
    def test_equilateral_inertia(self):
        m = derive_masses(1, 1, 1)
        pair = jacobi(EQUILATERAL, m)
        inertia, _ = inertia_and_momentum(pair, JacobiPair(0.0, 0.0))
        assert inertia == pytest.approx(3.0, rel=1e-14)

    def test_rigid_rotation_rate(self):
        m = derive_masses(1.0, 2.0, 0.5)
        rng = np.random.default_rng(1)
        q = random_centered(m, rng)[0]
        pair = jacobi(PlanarConfiguration(*q), m)
        omega = 0.83
        rate = JacobiPair(1j * omega * pair.Z1, 1j * omega * pair.Z2)
        inertia, momentum = inertia_and_momentum(pair, rate)
        assert momentum == pytest.approx(omega * inertia, rel=1e-13)

    def test_pure_dilation_is_momentum_free(self):
        m = derive_masses(1, 1, 1)
        pair = jacobi(EQUILATERAL, m)
        rate = JacobiPair(0.37 * pair.Z1, 0.37 * pair.Z2)
        _, momentum = inertia_and_momentum(pair, rate)
        assert momentum == pytest.approx(0.0, abs=1e-15)

    def test_matches_configuration_momentum(self):
        rng = np.random.default_rng(7)
        m = derive_masses(0.9, 1.7, 2.4)
        for _ in range(100):
            q = random_centered(m, rng)[0]
            v = rng.uniform(-1, 1, size=(3, 2))
            v -= (m.as_array() @ v) / m.M
            pair = jacobi(PlanarConfiguration(*q), m)
            Z1v, Z2v = jacobi_series(v[None, :, :], m)
            _, momentum = inertia_and_momentum(pair, JacobiPair(Z1v[0], Z2v[0]))
            spin = q[:, 0] * v[:, 1] - q[:, 1] * v[:, 0]
            direct = float(np.sum(m.as_array() * spin))
            assert momentum == pytest.approx(direct, rel=1e-10, abs=1e-12)


class TestShapeMap:
    def test_equilateral_is_upper_pole(self):
        m = derive_masses(1, 1, 1)
        p = shape_map(jacobi(EQUILATERAL, m))
        assert (p.w1, p.w2, p.w3, p.w4) == pytest.approx((0, 0, 1.5, 1.5), abs=1e-13)
        n = normalize_shape(p)
        assert (n.w1, n.w2, n.w3) == pytest.approx((0, 0, 0.5), abs=1e-13)

    def test_binary_collision_is_C1(self):
        m = derive_masses(1, 1, 1)
        cfg = centered_config(m, [[2.0, 0.0], [-1.0, 0.3], [-1.0, 0.3]])
        n = normalize_shape(shape_map(jacobi(cfg, m)))
        assert (n.w1, n.w2, n.w3) == pytest.approx((-0.5, 0, 0), abs=1e-13)

    def test_collinear_has_zero_w3(self):
        m = derive_masses(1, 2, 3)
        cfg = centered_config(m, [[1.0, 2.0], [0.5, 1.0], [-0.25, -0.5]])
        p = shape_map(jacobi(cfg, m))
        assert abs(p.w3) < 1e-13 * p.w4

    def test_sphere_identity_by_construction(self):
        rng = np.random.default_rng(11)
        m = derive_masses(0.4, 3.0, 1.1)
        q = random_centered(m, rng, n=200)
        w = shape_series(*jacobi_series(q, m))
        lhs = w[:, 0] ** 2 + w[:, 1] ** 2 + w[:, 2] ** 2
        assert np.all(np.abs(lhs - w[:, 3] ** 2) <= 1e-12 * np.maximum(w[:, 3] ** 2, 1e-30))


class TestNormalizeShape:
    def test_scales_to_half(self):
        n = normalize_shape(ShapePoint(0.0, 0.0, 1.5, 1.5))
        assert (n.w1, n.w2, n.w3, n.w4) == (0.0, 0.0, 0.5, 0.5)
        n = normalize_shape(ShapePoint(-0.75, 0.0, 0.0, 0.75))
        assert (n.w1, n.w2, n.w3, n.w4) == (-0.5, 0.0, 0.0, 0.5)

    def test_rejects_triple_collision(self):
        with pytest.raises(ValueError, match="collision"):
            normalize_shape(ShapePoint(0.0, 0.0, 0.0, 0.0))


class TestChartAngles:
    def test_equilateral_quarter_turn(self):
        m = derive_masses(1, 1, 1)
        ca = chart_angles(jacobi(EQUILATERAL, m))
        assert ca.xi == pytest.approx(np.pi / 2.0, abs=1e-13)

    def test_equal_pair_on_zero_meridian(self):
        ca = chart_angles(JacobiPair(0.7 + 0.2j, 0.7 + 0.2j))
        assert ca.xi == pytest.approx(0.0, abs=1e-15)
        p = normalize_shape(shape_map(JacobiPair(0.7 + 0.2j, 0.7 + 0.2j)))
        assert p.w2 > 0 and abs(p.w3) < 1e-15

    def test_zero_Z1_is_flagged(self):
        ca = chart_angles(JacobiPair(0.0, 1.0))
        assert not ca.defined1 and ca.defined2

    def test_radii_recover_inertia(self):
        pair = JacobiPair(0.3 - 1.1j, 0.8 + 0.25j)
        ca = chart_angles(pair)
        inertia, _ = inertia_and_momentum(pair, JacobiPair(0.0, 0.0))
        assert ca.r1**2 + ca.r2**2 == pytest.approx(inertia, rel=1e-12)


class TestConfigurationFromFiber:
    def test_collision_fiber(self):
        m = derive_masses(1, 1, 1)
        cfg = configuration_from_fiber(ShapePoint(-0.5, 0.0, 0.0, 0.5), 0.0, "xi2", m)
        q = cfg.as_array()
        assert q[0][1] == pytest.approx(0.0, abs=1e-15)
        assert q[0][0] > 0
        assert np.allclose(q[1], q[2], atol=1e-15)

    def test_pole_fiber_recovers_equilateral(self):
        m = derive_masses(1, 1, 1)
        cfg = configuration_from_fiber(ShapePoint(0.0, 0.0, 1.5, 1.5), 0.0, "xi2", m)
        assert np.allclose(cfg.as_array(), EQUILATERAL.as_array(), atol=1e-12)

    def test_round_trip(self):
        rng = np.random.default_rng(5)
        m = derive_masses(0.8, 1.5, 2.2)
        for _ in range(50):
            q = random_centered(m, rng)[0]
            pair = jacobi(PlanarConfiguration(*q), m)
            p = shape_map(pair)
            ca = chart_angles(pair)
            again = configuration_from_fiber(p, ca.xi2, "xi2", m)
            assert np.allclose(again.as_array(), q, atol=1e-10 * np.sqrt(2 * p.w4))

    def test_invalid_chart_names_the_other(self):
        m = derive_masses(1, 1, 1)
        with pytest.raises(ValueError, match="xi2"):
            configuration_from_fiber(ShapePoint(-0.5, 0.0, 0.0, 0.5), 0.0, "xi1", m)
        with pytest.raises(ValueError, match="xi1"):
            configuration_from_fiber(ShapePoint(0.5, 0.0, 0.0, 0.5), 0.0, "xi2", m)

    def test_rejects_triple_collision(self):
        m = derive_masses(1, 1, 1)
        with pytest.raises(ValueError):
            configuration_from_fiber(ShapePoint(0, 0, 0, 0), 0.0, "xi2", m)


class TestProjectionInvariants:
    @given(masses_strategy, st.lists(coord, min_size=6, max_size=6), st.floats(0, 2 * np.pi))
    @settings(max_examples=50, deadline=None)
    def test_rotation_invariance(self, triple, coords, angle):
        m = derive_masses(*triple)
        cfg = drawn_config(m, np.reshape(coords, (3, 2)))
        z = cfg.as_complex() * np.exp(1j * angle)
        rotated = PlanarConfiguration(*np.stack([z.real, z.imag], axis=1))
        w0 = shape_map(jacobi(cfg, m))
        w1 = shape_map(jacobi(rotated, m))
        scale = max(w0.w4, 1e-12)
        assert np.allclose(
            [w0.w1, w0.w2, w0.w3, w0.w4], [w1.w1, w1.w2, w1.w3, w1.w4], atol=1e-12 * scale
        )

    @given(masses_strategy, st.lists(coord, min_size=6, max_size=6))
    @settings(max_examples=50, deadline=None)
    def test_reflection_negates_w3(self, triple, coords):
        m = derive_masses(*triple)
        cfg = drawn_config(m, np.reshape(coords, (3, 2)))
        mirrored = PlanarConfiguration(*(cfg.as_array() * np.array([1.0, -1.0])))
        w0 = shape_map(jacobi(cfg, m))
        w1 = shape_map(jacobi(mirrored, m))
        scale = max(w0.w4, 1e-12)
        assert np.allclose(
            [w1.w1, w1.w2, w1.w3], [w0.w1, w0.w2, -w0.w3], atol=1e-12 * scale
        )

    def test_w3_proportional_to_signed_area(self):
        # the hidden constant is 2 mu1 mu2; ratio constancy over random triangles
        rng = np.random.default_rng(13)
        m = derive_masses(1.0, 2.0, 3.0)
        q = random_centered(m, rng, n=300)
        w = shape_series(*jacobi_series(q, m))
        edge_a = q[:, 1] - q[:, 0]
        edge_b = q[:, 2] - q[:, 0]
        area = 0.5 * (edge_a[:, 0] * edge_b[:, 1] - edge_a[:, 1] * edge_b[:, 0])
        keep = np.abs(area) > 1e-3
        ratios = w[keep, 2] / area[keep]
        assert np.all(np.abs(ratios - 2.0 * m.mu1 * m.mu2) <= 1e-10 * abs(ratios[0]))

    def test_meridian_characterizes_pair_angle(self):
        # points on the meridian of longitude xi have fiber configurations
        # whose Jacobi pair is rotated by exactly xi
        rng = np.random.default_rng(17)
        m = derive_masses(0.6, 1.9, 1.2)
        for _ in range(50):
            xi = rng.uniform(-np.pi, np.pi)
            colat = rng.uniform(0.1, np.pi - 0.1)
            point = ShapePoint(
                -0.5 * np.cos(colat),
                0.5 * np.sin(colat) * np.cos(xi),
                0.5 * np.sin(colat) * np.sin(xi),
                0.5,
            )
            cfg = configuration_from_fiber(point, rng.uniform(-np.pi, np.pi), "xi1", m)
            ca = chart_angles(jacobi(cfg, m))
            gap = (ca.xi2 - ca.xi1 - xi + np.pi) % (2 * np.pi) - np.pi
            assert abs(gap) < 1e-10

    def test_relabeling_is_a_fixed_orthogonal_map(self):
        rng = np.random.default_rng(19)
        m = derive_masses(1.0, 2.0, 3.0)
        q = random_centered(m, rng, n=100)
        w_std = np.empty((100, 3))
        w_alt = np.empty((100, 3))
        for k in range(100):
            cfg = PlanarConfiguration(*q[k])
            a = normalize_shape(shape_map(jacobi(cfg, m)))
            b = normalize_shape(shape_map(jacobi_pivot3(cfg, m)))
            w_std[k] = a.vec()
            w_alt[k] = b.vec()
        transform, *_ = np.linalg.lstsq(w_std, w_alt, rcond=None)
        transform = transform.T
        assert np.allclose(w_alt, w_std @ transform.T, atol=1e-10)
        assert np.allclose(transform @ transform.T, np.eye(3), atol=1e-10)
