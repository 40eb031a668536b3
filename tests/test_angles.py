"""Angle wrapping and unwinding: exact increments, no drift along a curve."""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from hypothesis.extra.numpy import arrays

from shapesphere import derive_masses, equilateral_configuration, generate
from shapesphere.angles import TWO_PI, unwrap_held, wrap_angle
from shapesphere.planar import ShapeCurve
from shapesphere.shape_core import _jacobi_rows
from shapesphere.spatial import normal_track


class TestWrapAngle:
    @pytest.mark.parametrize("x", [-1e-16, 1e-16, -1e-14, 3e-300, -2.5, 1.0, np.pi, -0.0])
    def test_identity_on_the_half_open_interval(self, x):
        assert wrap_angle(x) == x
        assert np.signbit(wrap_angle(x)) == np.signbit(x)

    def test_small_negative_increment_keeps_its_value(self):
        assert wrap_angle(-1e-16) == -1e-16
        assert wrap_angle(-1e-14) == -1e-14

    def test_odd_and_in_range(self):
        rng = np.random.default_rng(3)
        x = np.concatenate(
            [rng.uniform(-50.0, 50.0, 2000), rng.standard_normal(2000) * 1e-12, [TWO_PI, 3.5]]
        )
        y = wrap_angle(x)
        assert np.all((y > -np.pi) & (y <= np.pi))
        assert np.array_equal(wrap_angle(-x), -y)

    def test_ends_of_the_interval(self):
        assert wrap_angle(-np.pi) == np.pi
        assert wrap_angle(TWO_PI) == 0.0
        assert wrap_angle(np.array([-np.pi, 3 * np.pi])).tolist() == [np.pi, np.pi]

    def test_scalar_in_scalar_out(self):
        assert isinstance(wrap_angle(7.0), float)
        assert wrap_angle(np.array([7.0])).shape == (1,)


class TestUnwrapHeld:
    def test_jitter_does_not_accumulate(self):
        # roundoff jitter about a fixed angle must unwind to the raw samples
        rng = np.random.default_rng(0)
        raw = 0.7 + rng.choice([-1.0, 0.0, 1.0], size=50_000) * np.spacing(0.7)
        assert np.array_equal(unwrap_held(raw), raw)

    @pytest.mark.parametrize("samples", [5000, 20000, 80000])
    def test_stationary_spatial_curve_has_zero_drift(self, samples):
        # the spatial case of scripts/convergence_study.py: a rigid rotation
        # of a tilted equilateral triangle, whose shape curve stands still
        masses = derive_masses(1, 1, 1)
        config = np.concatenate(
            [equilateral_configuration(masses).as_array(), np.zeros((3, 1))], axis=1
        )
        motion = generate(
            "rigid_rotation",
            masses=masses,
            config=config,
            rate=0.8,
            duration=2.0,
            samples=samples,
            axis=np.array([0.3, 0.1, 1.0]),
        )
        e = np.array([0.0, 0.0, 1.0])
        points = _jacobi_rows(motion.positions, None, masses).shape_points(normal_track(motion, e).T).T
        curve = ShapeCurve.from_points(motion.times, points)
        raw = np.arctan2(curve.points[:, 2], curve.points[:, 1])
        assert curve.unwound_xi[-1] - curve.unwound_xi[0] == 0.0
        assert np.array_equal(curve.unwound_xi, raw)

    def test_mask_must_match_the_series(self):
        with pytest.raises(ValueError, match="shape"):
            unwrap_held(np.zeros(5), np.ones(3, bool))
        with pytest.raises(ValueError, match="shape"):
            unwrap_held(np.zeros(5), np.ones((5, 1), bool))
        with pytest.raises(ValueError, match="1-D"):
            unwrap_held(np.zeros((2, 3)))
        with pytest.raises(ValueError, match="1-D"):
            unwrap_held(np.zeros((2, 3)), np.ones((2, 3), bool))

    def test_empty_and_undefined_series(self):
        assert unwrap_held(np.zeros(0)).shape == (0,)
        assert unwrap_held(np.zeros(0), np.zeros(0, bool)).shape == (0,)
        assert np.array_equal(unwrap_held(np.full(4, 2.0), np.zeros(4, bool)), np.zeros(4))

    @settings(max_examples=200, deadline=None)
    @given(raw=arrays(np.float64, st.integers(1, 60), elements=st.floats(-50.0, 50.0)))
    def test_all_defined_equals_the_held_path(self, raw):
        # one trailing undefined sample sends the series through the gather
        # and the hold; the defined samples before it must read the same
        held = unwrap_held(np.append(raw, 0.0), np.append(np.ones(raw.size, bool), False))
        assert np.array_equal(unwrap_held(raw, np.ones(raw.size, bool)), held[:-1])
        assert np.array_equal(unwrap_held(raw), held[:-1])
