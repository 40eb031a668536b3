"""Reconstructions do not depend on how the motion is placed or labelled.

For random_smooth motions of the verify suite's mass triples, the q1 and Z1
reports keep total_mod_2pi and pole_crossed under a global rotation, a
shift of the time grid and a swap of bodies 2 and 3 (with their masses),
and time reversal negates the raw total.  Spatial reports of the same
motions, embedded and wobbled about a tilted axis as in verify's wobble
cases, keep total_mod_2pi, pole_crossed and certified under a time shift
and a global rotation of positions, velocities and e.  Resampling either
kind onto a grid of 600 to 3000 samples keeps pole_crossed and certified
and moves the total by no more than the two reports' errors against the
oracle.  A spinning collinear passage is uncertified on every grid,
wherever its samples fall.
"""

from functools import partial

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from shapesphere import (
    Trajectory,
    apply_rotation_profile,
    bad_set_measure,
    derive_masses,
    embed_planar,
    generate,
    reconstruct_q1,
    reconstruct_spatial,
    reconstruct_Z1,
    resample,
)
from shapesphere.angles import wrap_angle
from shapesphere.trajectory import rotation_matrices
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
    @example(case=((1.0, 1.0, 1.0), 1, 500))
    def test_time_reversal_negates_total(self, target, parity, case):
        traj = motion(case, parity)
        backwards = Trajectory(
            traj.masses, -traj.times[::-1], traj.positions[::-1], -traj.velocities[::-1]
        )
        forward = RECONSTRUCT[target](traj)
        reverse = RECONSTRUCT[target](backwards)
        # even grids average Simpson run from either end, so Cartwright's
        # end correction sits at both ends and reversal leaves only roundoff
        assert abs(reverse.total + forward.total) <= 1e-14
        assert reverse.pole_crossed == forward.pole_crossed


# wobble profile: axis tilt (x, y) against z, amplitude and frequency
WOBBLES = st.tuples(
    st.floats(-0.6, 0.6), st.floats(-0.6, 0.6), st.floats(0.0, 0.6), st.floats(0.3, 2.0)
)

E3 = np.array([0.0, 0.0, 1.0])


def wobble(case, parity, profile) -> Trajectory:
    ax, ay, amplitude, freq = profile
    return apply_rotation_profile(
        embed_planar(motion(case, parity)),
        axis=np.array([ax, ay, 1.0]),
        angle=lambda t: amplitude * np.sin(freq * t),
        rate=lambda t: amplitude * freq * np.cos(freq * t),
    )


def assert_same_spatial(original, e, transformed, e_transformed):
    first = reconstruct_spatial(original, e=e)
    second = reconstruct_spatial(transformed, e=e_transformed)
    assert abs(wrap_angle(second.total_mod_2pi - first.total_mod_2pi)) <= 1e-14
    assert second.pole_crossed == first.pole_crossed
    assert second.certified == first.certified


@pytest.mark.parametrize("parity", [0, 1], ids=["even", "odd"])
class TestSpatialInvariance:
    @PROPERTY_SETTINGS
    @given(case=MOTIONS, profile=WOBBLES, offset=st.floats(-5.0, 5.0))
    def test_time_shift(self, parity, case, profile, offset):
        traj = wobble(case, parity, profile)
        shifted = Trajectory(traj.masses, traj.times + offset, traj.positions, traj.velocities)
        assert_same_spatial(traj, E3, shifted, E3)

    @PROPERTY_SETTINGS
    @given(
        case=MOTIONS,
        profile=WOBBLES,
        polar=st.floats(0.0, np.pi),
        azimuth=st.floats(-np.pi, np.pi),
        angle=st.floats(-np.pi, np.pi),
    )
    def test_global_rotation(self, parity, case, profile, polar, azimuth, angle):
        traj = wobble(case, parity, profile)
        axis = [np.sin(polar) * np.cos(azimuth), np.sin(polar) * np.sin(azimuth), np.cos(polar)]
        rot = rotation_matrices(axis, angle)[0]
        turned = Trajectory(
            traj.masses, traj.times, traj.positions @ rot.T, traj.velocities @ rot.T
        )
        assert_same_spatial(traj, E3, turned, rot @ E3)


def assert_resampling_within_errors(reconstruct, original, resampled):
    """Resampling changes a total by no more than the two reports' errors
    against the oracle, and keeps pole_crossed and certified."""
    a = reconstruct(original, include_oracle=True)
    b = reconstruct(resampled, include_oracle=True)
    assert b.pole_crossed == a.pole_crossed
    assert b.certified == a.certified
    bound = abs(a.total - a.oracle) + abs(b.total - b.oracle) + 1e-12
    assert abs(b.total - a.total) <= bound


@pytest.mark.parametrize("target", ["q1", "Z1"])
@PROPERTY_SETTINGS
@given(case=MOTIONS, parity=st.integers(0, 1), samples=st.integers(600, 3000))
def test_planar_resampling(target, case, parity, samples):
    traj = motion(case, parity)
    assert_resampling_within_errors(RECONSTRUCT[target], traj, resample(traj, samples))


@PROPERTY_SETTINGS
@given(
    case=MOTIONS, parity=st.integers(0, 1), profile=WOBBLES, samples=st.integers(600, 3000)
)
def test_spatial_resampling(case, parity, profile, samples):
    traj = wobble(case, parity, profile)
    reconstruct = partial(reconstruct_spatial, e=E3)
    assert_resampling_within_errors(reconstruct, traj, resample(traj, samples))


def collinear_passage(samples, phase=0.0, omega=0.7) -> Trajectory:
    """Masses 1, 1, 1: body 1 at (0.3, t - 0.5, 0) crosses the line of bodies
    2 and 3 at (-1, 0, 0) and (1, 0, 0) at t = 0.5, while the triangle turns
    about the third axis at omega.  The grid has step 1 / (samples - 1) and
    starts phase steps after t = 0."""
    t = (np.arange(samples) + phase) / (samples - 1)
    q = np.zeros((samples, 3, 3))
    q[:, 0, 0], q[:, 0, 1], q[:, 1, 0], q[:, 2, 0] = 0.3, t - 0.5, -1.0, 1.0
    v = np.zeros((samples, 3, 3))
    v[:, 0, 1] = 1.0
    turn = rotation_matrices([0.0, 0.0, 1.0], omega * t)
    q = np.einsum("nab,nib->nia", turn, q)
    v = np.einsum("nab,nib->nia", turn, v) + np.cross([0.0, 0.0, omega], q)
    return Trajectory.from_samples(derive_masses(1.0, 1.0, 1.0), t, q, v)


PASSAGE_E = np.array([0.3, -0.2, 1.0])


class TestCollinearPassage:
    @pytest.mark.parametrize("samples", [1000, 1001, 10_000, 10_001])
    def test_uncertified_on_every_grid(self, samples):
        # odd counts land a sample on the passage, even ones step across it
        traj = collinear_passage(samples)
        report = reconstruct_spatial(traj, e=PASSAGE_E, include_oracle=True)
        assert report.certified is False and report.bad_set_measure > 0.0
        _, intervals = bad_set_measure(traj, PASSAGE_E)
        assert any(start <= 0.5 <= end for start, end in intervals)
        assert abs(wrap_angle(report.total - report.oracle)) <= 1e-5

    @pytest.mark.parametrize("samples", [1000, 1001, 10_000, 10_001])
    def test_axis_orthogonal_to_e_stays_certified(self, samples):
        # the line turns in the plane orthogonal to e, where the formula holds
        report = reconstruct_spatial(collinear_passage(samples), e=E3)
        assert report.certified is True and report.bad_set_measure == 0.0

    @PROPERTY_SETTINGS
    @given(half=st.integers(200, 2000), phase=st.floats(0.0, 1.0), offset=st.floats(-5.0, 5.0))
    @example(half=500, phase=0.0, offset=0.0)
    def test_grid_and_time_shift(self, half, phase, offset):
        for samples in (2 * half, 2 * half + 1):
            traj = collinear_passage(samples, phase)
            shifted = Trajectory(traj.masses, traj.times + offset, traj.positions, traj.velocities)
            assert_same_spatial(traj, PASSAGE_E, shifted, PASSAGE_E)
            assert reconstruct_spatial(traj, e=PASSAGE_E).certified is False
