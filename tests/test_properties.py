"""Planar reconstructions do not depend on how the motion is placed or labelled.

For random_smooth motions of the verify suite's mass triples, the q1 and Z1
reports keep total_mod_2pi and pole_crossed under a global rotation, a
shift of the time grid and a swap of bodies 2 and 3 (with their masses),
and time reversal negates the raw total.
"""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from shapesphere import Trajectory, derive_masses, generate, reconstruct_q1, reconstruct_Z1
from shapesphere.angles import wrap_angle
from shapesphere.verify import _MASS_TRIPLES

RECONSTRUCT = {"q1": reconstruct_q1, "Z1": reconstruct_Z1}

MOTIONS = st.tuples(
    st.sampled_from(_MASS_TRIPLES), st.integers(0, 2**31 - 1), st.integers(500, 1000)
)

PROPERTY_SETTINGS = settings(max_examples=10, deadline=None)


def motion(case, parity) -> Trajectory:
    triple, seed, half = case
    return generate(
        "random_smooth",
        masses=derive_masses(*triple),
        seed=seed,
        duration=2.0,
        samples=2 * half + parity,
    )


def assert_same_mod_2pi(target, original, transformed):
    first = RECONSTRUCT[target](original)
    second = RECONSTRUCT[target](transformed)
    assert abs(wrap_angle(second.total_mod_2pi - first.total_mod_2pi)) <= 1e-14
    assert second.pole_crossed == first.pole_crossed


@pytest.mark.parametrize("parity", [0, 1], ids=["even", "odd"])
@pytest.mark.parametrize("target", ["q1", "Z1"])
class TestInvariance:
    @PROPERTY_SETTINGS
    @given(case=MOTIONS, angle=st.floats(-np.pi, np.pi))
    def test_global_rotation(self, target, parity, case, angle):
        traj = motion(case, parity)
        c, s = np.cos(angle), np.sin(angle)
        rot = np.array([[c, -s], [s, c]])
        turned = Trajectory(
            traj.masses, traj.times, traj.positions @ rot.T, traj.velocities @ rot.T
        )
        assert_same_mod_2pi(target, traj, turned)

    @PROPERTY_SETTINGS
    @given(case=MOTIONS, offset=st.floats(-5.0, 5.0))
    def test_time_shift(self, target, parity, case, offset):
        traj = motion(case, parity)
        shifted = Trajectory(traj.masses, traj.times + offset, traj.positions, traj.velocities)
        assert_same_mod_2pi(target, traj, shifted)

    @PROPERTY_SETTINGS
    @given(case=MOTIONS)
    def test_swap_of_bodies_2_and_3(self, target, parity, case):
        traj = motion(case, parity)
        m = traj.masses
        order = [0, 2, 1]
        swapped = Trajectory(
            derive_masses(m.m1, m.m3, m.m2),
            traj.times,
            traj.positions[:, order],
            traj.velocities[:, order],
        )
        assert_same_mod_2pi(target, traj, swapped)

    @PROPERTY_SETTINGS
    @given(case=MOTIONS)
    def test_time_reversal_negates_total(self, target, parity, case):
        traj = motion(case, parity)
        backwards = Trajectory(
            traj.masses, -traj.times[::-1], traj.positions[::-1], -traj.velocities[::-1]
        )
        forward = RECONSTRUCT[target](traj)
        reverse = RECONSTRUCT[target](backwards)
        # on even grids Simpson's corrected end interval moves to the other
        # end, so the totals differ by that interval's quadrature error,
        # O(h^4): about 5e-9 at 200 samples, below 1e-10 from 1000 on
        tol = 1e-14 if parity else 1e-10
        assert abs(reverse.total + forward.total) <= tol
        assert reverse.pole_crossed == forward.pole_crossed
