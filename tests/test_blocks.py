"""The reconstructions stream the row kernel over blocks of samples, and
the generators and ingest run over the same blocks.

Every report, normal track, bad set and generated or ingested trajectory
must match the one-block result bit for bit whatever the block size, with
samples on the chart axis, collinear stretches and dropped antipodal runs on
or across block edges; an input that raises must raise the same message
first.  Memory guards pin the peak of long runs against the bytes of their
samples.
"""

import itertools
import tracemalloc

import numpy as np
import pytest

from shapesphere import (
    Trajectory,
    derive_masses,
    equilateral_configuration,
    generate,
    oracle_rotation,
    reconstruct_q1,
    reconstruct_spatial,
    reconstruct_Z1,
    shape_curve,
    zero_J_lift,
)
from shapesphere import shape_core
from shapesphere.planar import _PoleSteps
from shapesphere.shape_core import (
    C1_DIRECTION,
    O1_DIRECTION,
    PlanarConfiguration,
    SpatialConfiguration,
    _centered,
    _differenced,
    _row_blocks,
    centroid_residual,
    positions_from_jacobi_series,
)
from shapesphere.spatial import bad_set_measure, normal_track
from shapesphere.trajectory import apply_rotation_profile, embed_planar, rotation_matrices
from shapesphere.verify import (
    antipodal_crossing_reports,
    negative_control_reports,
    spatial_motion_cases,
)

M111 = derive_masses(1, 1, 1)
M123 = derive_masses(1, 2, 3)
E3 = np.array([0.0, 0.0, 1.0])

# block sizes that put edges next to, inside and across the special samples
SIZES = [3, 64, 1000]


def outcome(fn):
    """fn()'s result, or the type and message of what it raised."""
    try:
        return fn()
    except (ValueError, RuntimeError) as exc:
        return type(exc), str(exc)


def same(a, b) -> bool:
    """Bitwise equality of reports, arrays, tuples of them, or raised errors."""
    if isinstance(a, tuple) and isinstance(b, tuple):
        return len(a) == len(b) and all(same(x, y) for x, y in zip(a, b))
    if isinstance(a, np.ndarray):
        return a.shape == b.shape and a.tobytes() == b.tobytes()
    if hasattr(a, "to_dict"):
        return a.to_dict() == b.to_dict()
    return a == b


@pytest.fixture(params=SIZES)
def blocked(request, monkeypatch):
    """Check fn() in blocks of the parametrized size against one block."""

    def check(fn, n):
        assert n <= shape_core._BLOCK_SAMPLES  # the reference is one block
        reference = outcome(fn)
        with monkeypatch.context() as patch:
            patch.setattr(shape_core, "_BLOCK_SAMPLES", request.param)
            result = outcome(fn)
        assert same(result, reference), (result, reference)
        return reference

    check.size = request.param
    return check


def fields(traj: Trajectory) -> tuple:
    """A trajectory's arrays and recentering shift, for `same`."""
    arrays = (traj.times, traj.positions, traj.velocities, traj.normals)
    return arrays + (np.array([traj.max_center_shift]),)


def strip_velocities(traj: Trajectory) -> Trajectory:
    return Trajectory(traj.masses, traj.times, traj.positions, None, traj.normals)


def jacobi_motion(n: int, times=None) -> Trajectory:
    """Planar motion with Z2 = 0 (body 1 at the center, the O1 pole) on the
    samples 192 and 999 and Z1 = 0 (the C1 pole) on 576 and 1000."""
    t = np.linspace(0.0, 1.0, n) if times is None else times
    at = {k: t[k] for k in (192, 576, 999, 1000)}
    s2 = np.pi / (at[999] - at[192])
    s1 = np.pi / (at[1000] - at[576])
    r2, dr2 = 0.8 * np.sin(s2 * (t - at[192])), 0.8 * s2 * np.cos(s2 * (t - at[192]))
    r1, dr1 = 0.9 * np.sin(s1 * (t - at[576])), 0.9 * s1 * np.cos(s1 * (t - at[576]))
    r2[999], r1[1000] = 0.0, 0.0
    a1, a2 = 0.7 * t, 1.3 * t + 0.4 * np.sin(3.0 * t)
    da1, da2 = 0.7 + 0.0 * t, 1.3 + 1.2 * np.cos(3.0 * t)
    Z1, Z2 = r1 * np.exp(1j * a1), r2 * np.exp(1j * a2)
    dZ1 = (dr1 + 1j * r1 * da1) * np.exp(1j * a1)
    dZ2 = (dr2 + 1j * r2 * da2) * np.exp(1j * a2)
    q = positions_from_jacobi_series(Z1, Z2, M123)
    v = positions_from_jacobi_series(dZ1, dZ2, M123)
    return Trajectory(M123, t, q, v)


def nonuniform_times(n: int) -> np.ndarray:
    """A grid of exact steps 2^-11 with one longer step: nonuniform as a
    whole, uniform on every block that misses that step."""
    t = np.arange(n) / 2048.0
    t[n // 3 :] += 2.0**-12
    return t


class TestPlanar:
    @pytest.mark.parametrize("n", [2000, 2001])
    @pytest.mark.parametrize("velocities", [True, False])
    @pytest.mark.parametrize("target", ["q1", "Z1"])
    def test_random_smooth(self, blocked, n, velocities, target):
        motion = generate("random_smooth", masses=M123, seed=5, duration=3.0, samples=n)
        motion = motion if velocities else strip_velocities(motion)
        fn = reconstruct_q1 if target == "q1" else reconstruct_Z1
        report = blocked(lambda: fn(motion, include_oracle=True), n)
        assert report.oracle == oracle_rotation(motion, target)

    @pytest.mark.parametrize("grid", ["uniform", "nonuniform"])
    @pytest.mark.parametrize("velocities", [True, False])
    @pytest.mark.parametrize("target", ["q1", "Z1"])
    def test_chart_axis_samples_on_edges(self, blocked, grid, velocities, target):
        # poles on the samples 192, 576, 999 and 1000, where blocks of 3,
        # 64 and 1000 start or end
        n = 2001
        times = None if grid == "uniform" else nonuniform_times(n)
        motion = jacobi_motion(n, times)
        motion = motion if velocities else strip_velocities(motion)
        fn = reconstruct_q1 if target == "q1" else reconstruct_Z1
        blocked(lambda: fn(motion, include_oracle=True), n)
        assert blocked(lambda: fn(motion), n).pole_crossed

    def test_nonuniform_grid_with_uniform_blocks(self, blocked):
        n = 2001
        base = generate("random_smooth", masses=M123, seed=9, duration=3.0, samples=n)
        motion = Trajectory(M123, nonuniform_times(n), base.positions)
        blocked(lambda: reconstruct_q1(motion, include_oracle=True), n)

    def test_triple_collision_raises_first(self, blocked):
        motion = jacobi_motion(2001)
        q = motion.positions.copy()
        q[1500] = 0.0
        q[-1] = [[0.0, 0.0], [1.5, 0.0], [-1.0, 0.0]]  # q1 at the origin: raises after
        motion = Trajectory(M123, motion.times, q)
        reference = blocked(lambda: reconstruct_q1(motion), 2001)
        assert reference == (ValueError, "triple collision: the moment of inertia vanishes")


def lift_of(motion: Trajectory) -> Trajectory:
    """The zero-momentum lift of a planar motion's shape curve from its
    first configuration."""
    start = PlanarConfiguration(*motion.positions[0])
    return zero_J_lift(shape_curve(motion), start, motion.masses)


class TestLift:
    @pytest.mark.parametrize("n", [1921, 2000, 2001])
    def test_random_smooth(self, blocked, n):
        # 1921 and 2001 leave one sample after the last full block of 3 and
        # 64, and of 1000
        motion = generate("random_smooth", masses=M123, seed=5, duration=3.0, samples=n)
        blocked(lambda: fields(lift_of(motion)), n)

    def test_chart_axis_samples_on_edges(self, blocked):
        # the curve meets the chart axis on the samples 192, 576, 999 and
        # 1000, where blocks of 3, 64 and 1000 start or end
        motion = jacobi_motion(2001)
        assert {192, 576, 999, 1000} <= {k for k, _ in shape_curve(motion).pole_crossings}
        blocked(lambda: fields(lift_of(motion)), 2001)

    @pytest.mark.parametrize("n", [1, 2, 3])
    def test_few_samples(self, blocked, n):
        motion = generate("random_smooth", masses=M123, seed=5, duration=0.01, samples=n)
        blocked(lambda: fields(lift_of(motion)), n)


def turning_pinch(n: int, dwell) -> Trajectory:
    """Bodies at (1, 0, 0), (-0.4, 0, 0) and (0.2, 0.8 h, 0), masses 1, 2,
    3, turned by the angle 2t about (1, 0.3, 0): collinear on the samples
    in dwell, with a plane that keeps turning."""
    t = np.linspace(0.0, 1.0, n)
    height = np.sign(t - 0.5) * (0.1 + np.abs(t - 0.5))
    height[dwell] = 0.0
    q = np.zeros((n, 3, 3))
    q[:, 0, 0], q[:, 1, 0], q[:, 2, 0] = 1.0, -0.4, 0.2
    q[:, 2, 1] = 0.8 * height
    turned = np.einsum("nab,nib->nia", rotation_matrices([1.0, 0.3, 0.0], 2.0 * t), q)
    return Trajectory.from_samples(M123, t, turned)


def turn_about_x(n: int, angle, rate) -> Trajectory:
    """The equal-mass triangle in the xy-plane turned about x by angle(t):
    its normal meets -z wherever the angle is pi."""
    t = np.linspace(0.0, 2.0, n)
    config = np.concatenate([equilateral_configuration(M111).as_array(), np.zeros((3, 1))], axis=1)
    turns = rotation_matrices([1.0, 0.0, 0.0], angle(t))
    q = np.einsum("nab,ib->nia", turns, config)
    v = np.cross(np.array([1.0, 0.0, 0.0]), q) * rate(t)[:, None, None]
    return Trajectory(M111, t, q, v)


class TestSpatial:
    @pytest.mark.parametrize("n", [2000, 2001])
    @pytest.mark.parametrize("velocities", [True, False])
    def test_motion_cases(self, blocked, n, velocities):
        # tracked normals, with e given and (tilted_rigid_a) e = None
        for _, motion, e, _ in spatial_motion_cases(n, 0):
            motion = motion if velocities else strip_velocities(motion)
            blocked(lambda: reconstruct_spatial(motion, e=e, include_oracle=True), n)
            blocked(lambda: normal_track(motion, e), n)

    def test_supplied_normals(self, blocked):
        _, motion, e, _ = spatial_motion_cases(2001, 3)[3]
        normals = normal_track(motion, e)
        supplied = Trajectory(motion.masses, motion.times, motion.positions, None, normals)
        blocked(lambda: reconstruct_spatial(supplied, e=e, include_oracle=True), 2001)

    def test_collinear_control_with_a_positive_bad_set(self, blocked):
        reports = blocked(negative_control_reports, 2001)
        assert all(r.bad_set_measure > 0.0 and r.certified is False for r in reports)

    @pytest.mark.parametrize("velocities", [True, False])
    def test_collinear_stretch_across_edges(self, blocked, velocities):
        # collinear on the samples 900-1100, across edges of every size
        motion = turning_pinch(2001, slice(900, 1101))
        if velocities:
            v = np.gradient(motion.positions, motion.times, axis=0)
            motion = Trajectory(M123, motion.times, motion.positions, v)
        blocked(lambda: normal_track(motion, E3), 2001)
        blocked(lambda: reconstruct_spatial(motion, e=E3, include_oracle=True), 2001)
        measure, intervals = blocked(lambda: bad_set_measure(motion, [0.3, 0.2, 1.0]), 2001)
        assert measure > 0.0 and intervals

    @pytest.mark.parametrize("n", [2000, 2001])
    def test_collinear_passage_between_samples_on_an_edge(self, blocked, n):
        # the plane flips between the samples 999 and 1000 (n = 2000), where
        # blocks of 1000 meet, or on the collinear sample 1000 (n = 2001)
        motion = turning_pinch(n, slice(0, 0))
        measure, intervals = blocked(lambda: bad_set_measure(motion, [0.3, 0.2, 1.0]), n)
        assert measure > 0.0 and intervals
        blocked(lambda: reconstruct_spatial(motion, e=E3, include_oracle=True), n)

    @pytest.mark.parametrize("dwell", [slice(0, 500), slice(1500, None), slice(998, 1001)])
    def test_collinear_stretch_at_the_ends_and_on_an_edge(self, blocked, dwell):
        motion = turning_pinch(2001, dwell)
        blocked(lambda: normal_track(motion, None, -1), 2001)
        blocked(lambda: reconstruct_spatial(motion, include_oracle=True), 2001)

    @pytest.mark.parametrize("n", [2000, 2001])
    def test_antipodal_turn(self, blocked, n):
        # the dropped sample at odd counts is 1000, a block start for size 1000
        plus, minus = blocked(lambda: antipodal_crossing_reports(n), n)
        assert plus.pole_crossed and minus.pole_crossed

    def test_antipodal_run_across_edges(self, blocked):
        # the angle dwells within 1e-6 of pi for about 14 samples around 1000
        run = turn_about_x(
            2001, lambda t: np.pi + np.pi * (t - 1.0) ** 3, lambda t: 3.0 * np.pi * (t - 1.0) ** 2
        )
        for branch in (1, -1):
            blocked(lambda: reconstruct_spatial(run, e=E3, antipodal_branch=branch), 2001)
        report = reconstruct_spatial(run, e=E3)
        assert report.pole_crossed


TILT = rotation_matrices([0.4, -0.7, 0.2], [0.9])[0]


def smooth(n: int) -> Trajectory:
    return generate("random_smooth", masses=M123, seed=5, duration=3.0, samples=n)


def wobble(traj: Trajectory, normals=None) -> Trajectory:
    """traj, with normals if given, rocked about a tilted axis."""
    source = Trajectory(traj.masses, traj.times, traj.positions, traj.velocities, normals)
    return apply_rotation_profile(
        source, [0.2, 0.1, 1.0], lambda t: 0.4 * np.sin(2.0 * t), lambda t: 0.8 * np.cos(2.0 * t)
    )


@pytest.mark.parametrize("n", [2000, 2001])
class TestIngestAndGenerators:
    def test_random_smooth(self, blocked, n):
        blocked(lambda: fields(smooth(n)), n)

    @pytest.mark.parametrize("rotation", [None, TILT])
    def test_embed_planar(self, blocked, n, rotation):
        base = smooth(n)
        blocked(lambda: fields(embed_planar(base, rotation)), n)

    @pytest.mark.parametrize("with_normals", [False, True])
    def test_apply_rotation_profile(self, blocked, n, with_normals):
        tilted = embed_planar(smooth(n), TILT)
        turns = rotation_matrices([1.0, 0.0, 0.0], 0.3 * tilted.times)
        normals = np.einsum("nab,b->na", turns, E3) if with_normals else None
        blocked(lambda: fields(wobble(tilted, normals)), n)

    def test_from_samples_off_center(self, blocked, n):
        base = smooth(n)
        drift = 0.3 + base.times[:, None, None] * np.array([1.0, -2.0])
        q, v = base.positions + drift, base.velocities + 0.1 * drift
        arrays = blocked(lambda: fields(Trajectory.from_samples(M123, base.times, q, v)), n)
        assert arrays[-1][0] > 1.0

    def test_direct_construction(self, blocked, n):
        tilted = embed_planar(smooth(n), TILT)
        normals = np.tile(TILT[:, 2], (n, 1))
        args = (M123, tilted.times, tilted.positions, tilted.velocities, normals)
        blocked(lambda: fields(Trajectory(*args)), n)


@np.errstate(all="ignore")
def written_out(q: np.ndarray, masses, move: bool):
    """What _centered computes, by the formulas it replaced: the einsum
    centroid with the np.linalg.norm shift, then the residual of every
    sample and np.isfinite, on a recentered copy of q when move."""
    shift = 0.0
    if move:
        centroid = np.einsum("i,...id->...d", masses.as_array(), q) / masses.M
        q = q - centroid[..., None, :]
        shift = float(np.max(np.linalg.norm(centroid, axis=-1)))
    m1, m2, m3 = masses.m1, masses.m2, masses.m3
    dims = range(q.shape[-1])
    centroid = sum((m1 * q[:, 0, d] + m2 * q[:, 1, d] + m3 * q[:, 2, d]) ** 2 for d in dims)
    r1, r2, r3 = (np.sqrt(sum(q[:, i, d] ** 2 for d in dims)) for i in range(3))
    residuals = np.sqrt(centroid) / np.maximum(m1 * r1 + m2 * r2 + m3 * r3, 1e-300)
    return q, repr(shift), bool(np.all(np.isfinite(q))), repr(float(np.fmax.reduce(residuals)))


class TestCenteringKernel:
    """_centered recenters and checks in one pass: the recentered bytes,
    the shift, the finite flag and the largest residual are those of the
    formulas it replaced, for any block size.  Scalars are compared by
    repr, which names every bit but a nan's."""

    MASSES = [derive_masses(*m) for m in [(1, 1, 1), (1, 2, 3), (2, 3, 6), (0.3, 1.7, 2.9)]]

    @pytest.mark.parametrize("blocks, extra", [(0, 1), (0, 2), (1, -1), (1, 0), (1, 1), (2, 1)])
    @pytest.mark.parametrize("dim", [2, 3])
    def test_matches_the_written_out_formulas(self, blocked, blocks, extra, dim):
        n = blocks * blocked.size + extra
        rng = np.random.default_rng(10 * n + dim)
        for masses in self.MASSES:
            for scale in (np.exp(-8.0), np.exp(8.0)):
                offset = rng.uniform(-3.0, 3.0, dim)
                data = scale * (rng.standard_normal((n, 3, dim)) + offset)
                spoilt = data.copy()
                spoilt[-1, 1, 0] = np.inf
                huge = 1e160 * data  # finite, but its squares overflow
                for q, move in itertools.product((data, spoilt, huge), (False, True)):

                    def run():
                        moved = q.copy()
                        shift, finite, residual = _centered(moved, masses, move)
                        return moved, repr(shift), finite, repr(residual)

                    reference = blocked(run, n)
                    assert same(reference, written_out(q, masses, move))
                    assert reference[2] == (q is not spoilt)

    def test_any_layout(self, blocked):
        # samples in Fortran order and a strided view are recentered in
        # place as contiguous ones are
        data = np.random.default_rng(6).standard_normal((2002, 3, 3)) + 1.5
        for layout in (np.asfortranarray, lambda a: a[::2, :, ::-1]):

            def run():
                q = layout(data.copy())
                shift, finite, residual = _centered(q, M123, True)
                return q.copy(), shift, finite, residual

            reference = blocked(run, len(layout(data)))
            moved, shift = written_out(layout(data), M123, True)[:2]
            assert same(reference[0], moved) and repr(reference[1]) == shift

    def test_a_centroid_of_negative_zeros(self):
        # einsum sums the bodies from 0.0, so a coordinate that is -0.0 on
        # every body stays -0.0 when it is recentered
        q = np.full((4, 3, 3), -0.0)
        q[:, :, 0] = [3.0, 0.0, -1.0]
        expected = written_out(q, M123, True)
        assert _centered(q, M123, True) == (0.0, True, 0.0)
        assert same(q, expected[0]) and np.all(np.signbit(q[:, :, 1:]))

    def test_centroid_residual_of_a_configuration(self):
        q = np.random.default_rng(4).standard_normal((3, 3))
        config = SpatialConfiguration(*q)
        assert repr(centroid_residual(config, M123)) == written_out(q[None], M123, False)[3]


class TestSameErrorFirst:
    def test_all_collinear_before_triple_collision(self, blocked):
        t = np.linspace(0.0, 1.0, 200)
        q = np.zeros((200, 3, 3))
        q[:, 0, 2], q[:, 1, 2], q[:, 2, 2] = 1.0, -0.6, -0.4
        q[150] = 0.0
        traj = Trajectory.from_samples(M111, t, q)
        message = "all samples are collinear: the orientation is undefined"
        assert blocked(lambda: normal_track(traj), 200) == (ValueError, message)
        assert blocked(lambda: reconstruct_spatial(traj, e=E3), 200) == (ValueError, message)

    def test_triple_collision_before_antipodal_end(self, blocked):
        run = turn_about_x(2001, lambda t: 0.5 * np.pi * t, lambda t: 0.5 * np.pi + 0.0 * t)
        q = run.positions.copy()
        q[1700] = 0.0
        run = Trajectory(M111, run.times, q, run.velocities)
        reference = blocked(lambda: reconstruct_spatial(run, e=E3), 2001)
        assert reference == (ValueError, "triple collision: the moment of inertia vanishes")

    def test_antipodal_end_before_stall(self, blocked):
        # the normal touches -z at t = 1 and turns back, then ends at -z
        def angle(t):
            rise = 0.75 * np.pi + 0.5 * np.pi * (t - 1.5)
            return np.where(t < 1.5, np.pi - np.pi * (t - 1.0) ** 2, rise)

        def rate(t):
            return np.where(t < 1.5, -2.0 * np.pi * (t - 1.0), 0.5 * np.pi)

        run = turn_about_x(2001, angle, rate)
        reference = blocked(lambda: reconstruct_spatial(run, e=E3), 2001)
        assert reference == (
            ValueError,
            "normal is antipodal to e at an endpoint: the projection is undefined",
        )

    def test_stall(self, blocked):
        run = turn_about_x(
            2001, lambda t: np.pi - np.pi * (t - 1.0) ** 2, lambda t: -2.0 * np.pi * (t - 1.0)
        )
        reference = blocked(lambda: reconstruct_spatial(run, e=E3), 2001)
        assert reference[0] is ValueError and reference[1].startswith("normal stalls at -e")

    def test_too_few_samples_to_difference(self, blocked):
        motion = generate("random_smooth", masses=M123, seed=2, duration=1.0, samples=2)
        motion = strip_velocities(motion)
        reference = blocked(lambda: reconstruct_Z1(motion), 2)
        assert reference == (ValueError, "need at least 3 samples to difference velocities")

    def test_non_finite_sample_in_the_last_block(self, blocked):
        base = smooth(2001)
        q = base.positions.copy()
        q[10, 0] += 0.5  # off center in the first block
        q[-1, 2, 1] = np.nan
        message = (ValueError, "positions must be finite")
        assert blocked(lambda: Trajectory(M123, base.times, q), 2001) == message
        assert blocked(lambda: Trajectory.from_samples(M123, base.times, q), 2001) == message

    def test_off_center_velocities(self, blocked):
        base = smooth(2001)
        v = base.velocities.copy()
        v[1990, 1] += 0.5
        message = (ValueError, "velocities carry net linear momentum")
        assert blocked(lambda: Trajectory(M123, base.times, base.positions, v), 2001) == message
        q = base.positions.copy()
        q[1995, 2] -= 0.5  # positions are checked first
        reference = blocked(lambda: Trajectory(M123, base.times, q, v), 2001)
        assert reference[1].startswith("positions are not centered")

    @pytest.mark.parametrize("samples", [0, 1])
    def test_zero_and_one_samples(self, blocked, samples):
        def chain():
            base = smooth(samples)
            return fields(base) + fields(wobble(embed_planar(base, TILT)))

        reference = blocked(chain, samples)
        if samples == 0:
            assert reference == (ValueError, "times must be a nonempty finite 1-d array")


def _traced(fn):
    """fn()'s result and the traced peak of the call in bytes."""
    tracemalloc.start()
    try:
        tracemalloc.reset_peak()
        base = tracemalloc.get_traced_memory()[0]
        out = fn()
        peak = tracemalloc.get_traced_memory()[1] - base
    finally:
        tracemalloc.stop()
    return out, peak


def _sample_bytes(traj: Trajectory) -> int:
    return traj.positions.nbytes + traj.velocities.nbytes


def _peak_ratio(fn, traj) -> float:
    """Traced peak of fn(traj) over the bytes of its positions and velocities."""
    return _traced(lambda: fn(traj))[1] / _sample_bytes(traj)


class TestMemory:
    """A run of 8 blocks holds one-row arrays over the samples and
    block-sized temporaries, not whole-series rows of every quantity."""

    n = 8 * shape_core._BLOCK_SAMPLES

    def test_spatial_peak(self):
        tilt = rotation_matrices([0.4, -0.7, 0.2], [0.9])[0]
        base = generate("random_smooth", masses=M123, seed=11, duration=3.0, samples=self.n)
        motion = embed_planar(base, tilt)
        ratio = _peak_ratio(lambda m: reconstruct_spatial(m, e=tilt[:, 2], include_oracle=True), motion)
        assert ratio <= 0.75, ratio

    def test_planar_peak(self):
        motion = generate("random_smooth", masses=M123, seed=12, duration=3.0, samples=self.n)

        def both(m):
            reconstruct_q1(m, include_oracle=True)
            reconstruct_Z1(m, include_oracle=True)

        ratio = _peak_ratio(both, motion)
        assert ratio <= 0.5, ratio

    def test_lift_peak(self):
        # the lifted positions and velocities, the spline slopes and one
        # block's temporaries; whole-series passes peaked at 3.9x the bytes
        # of the output
        motion = generate("random_smooth", masses=M123, seed=13, duration=3.0, samples=self.n)
        curve, start = shape_curve(motion), PlanarConfiguration(*motion.positions[0])
        lifted, peak = _traced(lambda: zero_J_lift(curve, start, M123))
        assert peak <= 1.75 * _sample_bytes(lifted), peak / _sample_bytes(lifted)

    def test_generator_peaks(self):
        # each holds its output and block-sized temporaries, and the
        # generators recenter their own arrays in place (1.70x, 1.08x and
        # 1.39x); with a recentered copy they peaked at 2.35x, 1.13x and
        # 2.25x, and whole-series passes at 5.0x, 1.50x and 3.17x the bytes
        # of the output
        n = 200_000
        base, peak = _traced(
            lambda: generate("random_smooth", masses=M123, seed=11, duration=3.0, samples=n)
        )
        assert peak <= 1.9 * _sample_bytes(base), peak / _sample_bytes(base)
        tilted, peak = _traced(lambda: embed_planar(base, TILT))
        assert peak <= 1.3 * _sample_bytes(tilted), peak / _sample_bytes(tilted)
        rocked, peak = _traced(lambda: wobble(tilted))
        assert peak <= 1.6 * _sample_bytes(rocked), peak / _sample_bytes(rocked)

    def test_from_samples_peak(self):
        # the recentered copies and one small buffer of rows (1.09x);
        # recentering, then checking in a second pass peaked at 1.19x the
        # bytes of the copies
        base = generate("random_smooth", masses=M123, seed=11, duration=3.0, samples=200_000)
        drift = 0.3 + base.times[:, None, None] * np.array([1.0, -2.0])
        q, v = base.positions + drift, base.velocities + 0.1 * drift
        traj, peak = _traced(lambda: Trajectory.from_samples(M123, base.times, q, v))
        assert traj.max_center_shift > 1.0
        assert peak <= 1.15 * _sample_bytes(traj), peak / _sample_bytes(traj)


class TestRowBlocks:
    @pytest.mark.parametrize("grid", ["uniform", "linspace", "random"])
    def test_differenced_is_np_gradient(self, grid):
        rng = np.random.default_rng(4)
        t = {
            "uniform": np.arange(50) / 8.0,
            "linspace": np.linspace(0.0, 3.0, 50),
            "random": np.cumsum(rng.uniform(0.1, 1.0, 50)),
        }[grid]
        f = rng.standard_normal((2, 3, 50))
        expected = np.gradient(f, t, axis=-1, edge_order=2)
        assert _differenced(f, t).tobytes() == expected.tobytes()

    @pytest.mark.parametrize("n", [1, 2, 3, 4, 7, 9, 10])
    def test_blocks_cover_the_samples_in_order(self, monkeypatch, n):
        # a one-column matrix product takes another BLAS routine, so no block
        # is a single sample unless the series is
        monkeypatch.setattr(shape_core, "_BLOCK_SAMPLES", 3)
        q = np.random.default_rng(n).standard_normal((n, 3, 2))
        bounds = [(start, stop) for start, stop, _ in _row_blocks(q, None, M123)]
        assert [start for start, _ in bounds] == [0] + [stop for _, stop in bounds[:-1]]
        assert bounds[-1][1] == n
        assert n == 1 or all(stop - start >= 2 for start, stop in bounds)


def unit_points(n: int) -> np.ndarray:
    """n unit points (3, n), the first ten on the equator with signed zeros."""
    points = np.random.default_rng(n).standard_normal((3, n))
    points /= np.linalg.norm(points, axis=0)
    points[:, :10] = [[1.0, 0.0, -1.0, 0.0, 0.6, -0.6, -0.8, 0.8, -1.0, 1.0],
                      [0.0, 1.0, 0.0, -1.0, 0.8, 0.8, -0.6, -0.6, -0.0, 0.0],
                      [0.0, -0.0, 0.0, -0.0, -0.0, 0.0, -0.0, 0.0, 0.0, -0.0]]  # fmt: skip
    return points


class TestPoleSteps:
    """The step rows of planar._PoleSteps over points fed in pieces, empty
    and one-point pieces among them, match those of one piece bit for bit."""

    CUTS = [0, 0, 1, 1, 2, 3, 9, 9, 10, 11, 25, 39, 40, 40]

    @pytest.mark.parametrize(
        "pole",
        [C1_DIRECTION, O1_DIRECTION, np.array([0.3, -0.5, 0.8]) / np.sqrt(0.98), np.zeros(3)],
        ids=["C1", "O1", "tilted", "zero"],
    )
    @pytest.mark.parametrize("scale", [1.0, 2.0])
    def test_pieces_match_one_piece(self, pole, scale):
        points = unit_points(40)
        whole = _PoleSteps(pole, scale).add(points)
        steps = _PoleSteps(pole, scale)
        pieces = [steps.add(points[:, i:j]) for i, j in zip(self.CUTS[:-1], self.CUTS[1:])]
        joined = tuple(np.concatenate([piece[k] for piece in pieces], axis=-1) for k in range(3))
        assert same(joined, whole)
        assert same(steps.last, scale * points[:, -1])

    def test_a_seeded_carry_starts_the_first_step(self):
        points = unit_points(40)
        whole = _PoleSteps(np.zeros(3)).add(points)
        steps = _PoleSteps(np.zeros(3))
        steps.last = points[:, 0].copy()
        seeded = steps.add(points[:, 1:])
        assert same(seeded, whole)
