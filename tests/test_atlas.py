"""Marked-point atlas tests: alpha angles, equator ordering, Euler points."""

import json

import numpy as np
import pytest

from shapesphere import atlas, derive_masses, euler_collinear_point
from shapesphere.verify import atlas_checks


def equator_angle(point):
    return np.arctan2(point[1], point[0]) % (2.0 * np.pi)


class TestEqualMasses:
    def setup_method(self):
        self.marked = atlas(derive_masses(1, 1, 1))

    def test_alphas_are_sixty_degrees(self):
        assert np.allclose(self.marked.alpha, np.pi / 3.0, atol=1e-14)

    def test_euler_points_coincide_with_centers(self):
        for i in (1, 2, 3):
            gap = np.linalg.norm(self.marked.points[f"E{i}"] - self.marked.points[f"O{i}"])
            assert gap < 1e-10

    def test_lagrange_points_are_poles(self):
        assert np.allclose(self.marked.points["L1"], [0, 0, 0.5], atol=1e-13)
        assert np.allclose(self.marked.points["L2"], [0, 0, -0.5], atol=1e-13)

    def test_beta_is_quarter_turn(self):
        assert self.marked.beta == pytest.approx(np.pi / 2.0, abs=1e-13)


class TestGeneralMasses:
    def test_alpha_sum_is_pi(self):
        rng = np.random.default_rng(23)
        for _ in range(25):
            m = derive_masses(*rng.uniform(0.2, 5.0, size=3))
            assert float(np.sum(atlas(m).alpha)) == pytest.approx(np.pi, abs=1e-12)

    def test_alpha_ordering_follows_masses(self):
        marked = atlas(derive_masses(1, 2, 3))
        a1, a2, a3 = marked.alpha
        assert a1 < a2 < a3

    def test_equator_order_counterclockwise(self):
        marked = atlas(derive_masses(0.5, 1.7, 3.1))
        names = ["C1", "O2", "C3", "O1", "C2", "O3"]
        angles = [marked.equator_angles[n] for n in names]
        gaps = [(angles[(k + 1) % 6] - angles[k]) % (2 * np.pi) for k in range(6)]
        assert all(g > 0 for g in gaps)
        assert sum(gaps) == pytest.approx(2 * np.pi, abs=1e-12)

    def test_collisions_opposite_centers(self):
        marked = atlas(derive_masses(2.2, 0.4, 1.3))
        for i in (1, 2, 3):
            assert np.allclose(
                marked.points[f"C{i}"], -marked.points[f"O{i}"], atol=1e-12
            )

    def test_arc_lengths_match_alphas(self):
        marked = atlas(derive_masses(1.4, 0.9, 2.6))
        th = marked.equator_angles
        a1, a2, a3 = marked.alpha
        assert (th["C3"] - th["C1"]) % (2 * np.pi) == pytest.approx(2 * a2, abs=1e-12)
        assert (th["C2"] - th["C3"]) % (2 * np.pi) == pytest.approx(2 * a1, abs=1e-12)
        assert (th["C1"] - th["C2"]) % (2 * np.pi) == pytest.approx(2 * a3, abs=1e-12)

    def test_mirror_lagrange_point(self):
        marked = atlas(derive_masses(1.0, 2.5, 0.7))
        assert np.allclose(
            marked.points["L2"],
            marked.points["L1"] * np.array([1.0, 1.0, -1.0]),
            atol=1e-15,
        )
        assert marked.points["L1"][2] > 0.0

    def test_combined_predicates(self):
        dev, ok = atlas_checks(count=40, seed=3)
        assert ok
        assert dev <= 1e-12

    def test_equator_points_read_off_their_angles(self):
        rng = np.random.default_rng(37)
        for _ in range(50):
            m = derive_masses(*rng.uniform(0.2, 5.0, size=3))
            marked = atlas(m)
            for name in ("C1", "C2", "C3", "O1", "O2", "O3", "E1", "E2", "E3"):
                theta = marked.equator_angles[name]
                expected = 0.5 * np.array([np.cos(theta), np.sin(theta), 0.0])
                assert np.array_equal(marked.points[name], expected), name
            for i in (1, 2, 3):
                assert np.array_equal(euler_collinear_point(m, i).vec(), marked.points[f"E{i}"])


class TestEulerPoints:
    def test_equal_masses_center(self):
        m = derive_masses(1, 1, 1)
        p = euler_collinear_point(m, 1)
        assert np.allclose(p.vec(), [0.5, 0.0, 0.0], atol=1e-10)

    def test_heavier_second_body_pulls_E1_toward_C2(self):
        m = derive_masses(1.0, 3.0, 1.0)
        marked = atlas(m)
        th = marked.equator_angles
        rel_e = (th["E1"] - th["C3"]) % (2 * np.pi)
        rel_o = (th["O1"] - th["C3"]) % (2 * np.pi)
        rel_c2 = (th["C2"] - th["C3"]) % (2 * np.pi)
        # E1 sits strictly between O1 and C2 exactly when m2 > m3
        assert rel_o < rel_e < rel_c2

    def test_collinear_and_normalized(self):
        rng = np.random.default_rng(29)
        for _ in range(10):
            m = derive_masses(*rng.uniform(0.3, 4.0, size=3))
            for i in (1, 2, 3):
                p = euler_collinear_point(m, i)
                assert p.w3 == 0.0
                assert p.w4 == pytest.approx(0.5, abs=1e-14)

    def test_rejects_bad_index(self):
        with pytest.raises(ValueError):
            euler_collinear_point(derive_masses(1, 1, 1), 4)


def test_atlas_json_keys():
    doc = atlas(derive_masses(1, 2, 3)).to_json_dict()
    text = json.dumps(doc)
    expected = {
        "C1", "C2", "C3", "O1", "O2", "O3",
        "E1", "E2", "E3", "L1", "L2", "P1", "P2",
        "alpha", "beta",
    }
    assert set(doc) == expected
    assert len(doc["alpha"]) == 3
    assert isinstance(doc["beta"], float)
    assert json.loads(text) == doc
