"""Self-tests of the benchmark's checks: each must pass a correct result and
reject a deliberately perturbed one.

    python3 perfbench/selftest.py

Exits 0 when every test passes.  Run from the root of a source checkout.
"""

import dataclasses
import os
import shutil
import sys
import time
import traceback

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
sys.path.insert(0, os.path.join(ROOT, "src"))

import numpy as np

import checks
from run import scipy_import_seconds
from tracing import Tracer
from workloads import run_child

from shapesphere import planar, spatial, trajectory
from shapesphere.shape_core import PlanarConfiguration, derive_masses, jacobi_series, shape_series

MASSES = derive_masses(1.0, 2.0, 3.0)
MTUPLE = (1.0, 2.0, 3.0)


def _motion(n=2000, seed=7):
    return trajectory.generate("random_smooth", masses=MASSES, seed=seed, duration=3.0, samples=n)


def test_total_off_by_1e4_is_rejected():
    motion = _motion()
    report = planar.reconstruct_q1(motion, include_oracle=True)
    truth = checks.planar_truth(motion.positions, "q1")
    assert checks.total_ok(report.total, truth)
    assert checks.oracle_ok(report.oracle, truth)
    perturbed = dataclasses.replace(report, total=report.total + 1e-4)
    assert not checks.total_ok(perturbed.total, truth)
    assert not checks.oracle_ok(report.oracle + 1e-4, truth)


def test_pinch_closed_form_matches_reconstruction():
    motion = trajectory.generate("figure1_pinch", masses=MASSES, duration=1.0, samples=4000)
    report = planar.reconstruct_q1(motion)
    closed = checks.pinch_closed_form(*MTUPLE)
    assert checks.total_ok(report.total, closed)
    assert not checks.total_ok(report.total + 1e-4, closed)


def test_shape_map_agrees_with_program():
    motion = _motion()
    ours = checks.shape_points(motion.positions, MTUPLE)
    w = shape_series(*jacobi_series(motion.positions, MASSES))
    theirs = 0.5 * w[:, :3] / w[:, 3:4]
    assert np.max(np.abs(ours - theirs)) < 1e-13


def test_curve_point_off_sphere_is_rejected():
    motion = _motion()
    expected = checks.shape_points(motion.positions, MTUPLE)
    curve = planar.shape_curve(motion)
    assert checks.on_sphere(curve.points)
    assert checks.curve_ok(curve.points, expected)
    bad = curve.points.copy()
    bad[len(bad) // 2] *= 1.0 + 1e-6
    assert not checks.on_sphere(bad)
    assert not checks.curve_ok(bad, expected)


def test_curve_point_moved_along_sphere_is_rejected():
    motion = _motion()
    expected = checks.shape_points(motion.positions, MTUPLE)
    bad = expected.copy()
    rot = trajectory.rotation_matrices([1.0, 0.0, 0.0], 1e-6)[0]
    bad[10] = rot @ bad[10]
    assert checks.on_sphere(bad)
    assert not checks.curve_ok(bad, expected)


def test_lift_with_momentum_or_off_curve_is_rejected():
    motion = _motion()
    expected = checks.shape_points(motion.positions, MTUPLE)
    curve = planar.shape_curve(motion)
    lifted = planar.zero_J_lift(curve, PlanarConfiguration(*motion.positions[0]), MASSES)
    assert checks.lift_ok(lifted.positions, lifted.velocities, MTUPLE, expected)
    # a rigid spin adds angular momentum without changing the shape
    spin = np.stack([-lifted.positions[..., 1], lifted.positions[..., 0]], axis=-1)
    assert not checks.lift_ok(lifted.positions, lifted.velocities + 1e-3 * spin, MTUPLE, expected)
    moved = lifted.positions.copy()
    moved[5, 0] += 1e-4
    assert not checks.lift_ok(moved, lifted.velocities, MTUPLE, expected)


def test_flipped_certified_flag_is_rejected():
    motion = trajectory.embed_planar(_motion())
    report = spatial.reconstruct_spatial(motion, e=[0.0, 0.0, 1.0], include_oracle=True).to_dict()
    assert checks.certified_is(report, True)
    flipped = dict(report, certified=not report["certified"])
    assert not checks.certified_is(flipped, True)
    assert not checks.certified_is(report, False)


def test_nonzero_failures_are_rejected():
    clean = {"summary": {"failures": 0, "max_abs_error": 1e-9}}
    assert checks.verify_ok(0, clean)
    assert not checks.verify_ok(0, {"summary": {"failures": 1, "max_abs_error": 1e-9}})
    assert not checks.verify_ok(1, clean)


def test_wrapped_gap_reduces_modulo_two_pi():
    assert checks.wrapped_gap(2.0 * np.pi + 1e-9, 0.0) < 1e-8
    assert checks.wrapped_gap(1e-4, 0.0) > checks.TOTAL_TOL


def test_scipy_import_share_counts_outermost_scipy_imports():
    log = "\n".join(
        [
            "import time: self [us] | cumulative | imported package",
            "import time:        10 |         10 |     scipy._lib",
            "import time:        20 |         30 |   scipy",
            "import time:         5 |          5 |       numpy.fft",
            "import time:        40 |         45 |     scipy.optimize._x",
            "import time:        50 |         95 |   scipy.optimize",
            "import time:       100 |        225 | shapesphere.shape_core",
        ]
    )
    assert abs(scipy_import_seconds(log) - 125e-6) < 1e-12


def test_span_self_time_leaves_out_direct_children():
    tracer = Tracer()
    inner = tracer.wrap("inner", lambda: time.sleep(0.05))
    tracer.wrap("outer", lambda: (inner(), time.sleep(0.002)))()
    self_s = {name: seconds for name, _, seconds in tracer.spans}
    assert self_s["inner"] >= 0.05
    assert 0.002 <= self_s["outer"] < 0.05


def test_child_peak_is_not_the_parents():
    held = np.ones(150 * 2**20 // 8)  # this process now holds 150 MB more
    workdir = os.path.join(ROOT, ".perfbench", "selftest")
    os.makedirs(workdir, exist_ok=True)
    try:
        proc, peak_mb = run_child([sys.executable, "-c", "pass"], ROOT, workdir)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    assert proc.returncode == 0 and held.sum() > 0
    assert 0 < peak_mb < 100


def main() -> int:
    tests = [(name, fn) for name, fn in globals().items() if name.startswith("test_")]
    failed = 0
    for name, fn in tests:
        try:
            fn()
            print(f"PASS {name}")
        except Exception:
            failed += 1
            print(f"FAIL {name}\n{traceback.format_exc()}")
    print(f"{len(tests) - failed} passed, {failed} failed")
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
