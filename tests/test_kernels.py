"""Numpy kernels against the library routines and formulas they replace."""

import numpy as np
import pytest
from scipy.integrate import simpson
from scipy.optimize import brentq

from shapesphere import F_of_J, SpatialConfiguration, derive_masses, oriented_state
from shapesphere.planar import _quadrature, _simpson
from shapesphere.shape_core import _collinear_imbalance, _collinear_ratio
from shapesphere.spatial import _locked_inertia, _projected_rate
from shapesphere.trajectory import _gravity_accel, _pair_weights

COUNTS = list(range(3, 41)) + [10_000, 10_001]


class TestSimpson:
    @pytest.mark.parametrize("n", COUNTS)
    def test_matches_scipy_on_uniform_grids(self, n):
        rng = np.random.default_rng(n)
        for _ in range(5):
            start = rng.uniform(-5.0, 5.0)
            t = np.linspace(start, start + rng.uniform(0.1, 10.0), n)
            for y in (rng.standard_normal(n), np.sin(3.0 * t) + 2.0):
                expected = float(simpson(y, x=t))
                assert abs(_simpson(t, y) - expected) <= 1e-15 * abs(expected)
                if n % 2:
                    assert _quadrature(t, y) == _simpson(t, y)
                else:
                    # even counts average the forward and the reversed rule
                    mean = 0.5 * (_simpson(t, y) + _simpson(-t[::-1], y[::-1]))
                    assert _quadrature(t, y) == mean

    @pytest.mark.parametrize("n", [3, 4, 7, 10])
    def test_matches_scipy_on_nonuniform_grids(self, n):
        rng = np.random.default_rng(100 + n)
        t = np.cumsum(rng.uniform(0.1, 1.0, n))
        y = rng.standard_normal(n)
        expected = float(simpson(y, x=t))
        assert _simpson(t, y) == pytest.approx(expected, rel=1e-14, abs=1e-15)

    @pytest.mark.parametrize("n", [3, 4, 9, 10])
    def test_exact_for_parabolas(self, n):
        # odd counts are exact for cubics too; the last interval at an even
        # count takes a parabola
        t = np.linspace(0.5, 2.0, n)
        cubic = n % 2
        y = cubic * t**3 - 2.0 * t**2 + 0.5
        exact = cubic * (2.0**4 - 0.5**4) / 4.0 - 2.0 * (2.0**3 - 0.5**3) / 3.0 + 0.5 * 1.5
        assert _simpson(t, y) == pytest.approx(exact, rel=1e-14)

    def test_short_and_nonuniform_fall_back(self):
        assert _quadrature(np.array([0.0]), np.array([3.0])) == 0.0
        assert _quadrature(np.array([0.0, 2.0]), np.array([1.0, 3.0])) == 4.0
        t = np.array([0.0, 1.0, 3.0])
        assert _quadrature(t, t) == pytest.approx(4.5)


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
            accel = _gravity_accel(q, _pair_weights(m, G))
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
        kernel = _locked_inertia(q, masses)
        normals = kernel.normal / np.linalg.norm(kernel.normal, axis=1)[:, None]
        axes = rng.standard_normal((50, 3))
        axes /= np.linalg.norm(axes, axis=1)[:, None]
        axes[0] = normals[0]  # the aligned branch
        momenta = rng.standard_normal((50, 3))
        batched = _projected_rate(kernel.inverse(momenta, kernel.inertia), normals, axes)
        for k in range(50):
            state = oriented_state(SpatialConfiguration(*q[k]), normals[k], axes[k])
            single = F_of_J(state, momenta[k], kernel.inertia[k], masses)
            assert batched[k] == pytest.approx(single, rel=1e-12, abs=1e-14)
