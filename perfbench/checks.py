"""Independent truths and the checks every benchmark operation must pass.

Nothing here calls shapesphere: the truths are recomputed from the positions
the benchmark hands to the program, with plain numpy, so a fault in the
program cannot hide behind the same fault in its own oracle.
"""

from __future__ import annotations

import math

import numpy as np

# |total - truth| allowed on a reconstruction.  Quadrature error on the
# benchmark's motions is below 1e-7 (about 8e-8 at worst with differenced
# velocities); a wrong result is off by far more.
TOTAL_TOL = 1e-6
# |oracle - truth|: both unwind the same arctangents, so only roundoff.
ORACLE_TOL = 1e-9
# distance of a curve point from the radius-1/2 sphere
SPHERE_TOL = 1e-10
# distance of a curve point from the benchmark's own shape map
CURVE_TOL = 1e-9
# a zero-momentum lift: worst |J|/I and worst re-projection distance
LIFT_MOMENTUM_TOL = 1e-8
LIFT_REPROJECTION_TOL = 1e-7


def unwound_turn(vectors: np.ndarray) -> float:
    """Net turn of a sampled 2-d vector, by np.unwrap of its arctangent."""
    angles = np.unwrap(np.arctan2(vectors[:, 1], vectors[:, 0]))
    return float(angles[-1] - angles[0])


def planar_truth(positions: np.ndarray, target: str) -> float:
    """Rotation of body 1 ("q1") or of q3 - q2 ("Z1") over a planar motion."""
    if target == "q1":
        return unwound_turn(positions[:, 0, :2])
    return unwound_turn(positions[:, 2, :2] - positions[:, 1, :2])


def plane_truth(positions: np.ndarray, u1: np.ndarray, u2: np.ndarray) -> float:
    """Rotation of body 1 within the plane spanned by the orthonormal u1, u2."""
    body1 = positions[:, 0, :]
    return unwound_turn(np.stack([body1 @ u1, body1 @ u2], axis=1))


def pinch_closed_form(m1: float, m2: float, m3: float) -> float:
    """The paper's closed form for body 1's turn under the pinch motion."""
    return math.acos(math.sqrt(m1 * m3 / ((m1 + m2) * (m3 + m2))))


def shape_points(positions: np.ndarray, masses) -> np.ndarray:
    """Normalized shape-sphere points of planar samples (n, 3, 2).

    Jacobi pair Z1 = mu1 (q3 - q2), Z2 = mu2 (q1 - c23) with c23 the mass
    center of bodies 2 and 3, 1/mu1^2 = 1/m2 + 1/m3 and
    1/mu2^2 = 1/m1 + 1/(m2 + m3); then w4 + w1 = |Z1|^2,
    w4 - w1 = |Z2|^2, w2 + i w3 = conj(Z1) Z2, scaled to radius 1/2.
    """
    m1, m2, m3 = masses
    mu1 = 1.0 / math.sqrt(1.0 / m2 + 1.0 / m3)
    mu2 = 1.0 / math.sqrt(1.0 / m1 + 1.0 / (m2 + m3))
    z = positions[..., 0] + 1j * positions[..., 1]
    z1 = mu1 * (z[:, 2] - z[:, 1])
    z2 = mu2 * (z[:, 0] - (m2 * z[:, 1] + m3 * z[:, 2]) / (m2 + m3))
    a = np.abs(z1) ** 2
    b = np.abs(z2) ** 2
    c = np.conj(z1) * z2
    w4 = 0.5 * (a + b)
    w = np.stack([0.5 * (a - b), c.real, c.imag], axis=1)
    return 0.5 * w / w4[:, None]


def momentum_ratio(positions: np.ndarray, velocities: np.ndarray, masses) -> float:
    """Worst |J|/I along a planar motion (n, 3, 2)."""
    m = np.asarray(masses, dtype=float)
    q, v = positions, velocities
    j = np.einsum("i,ni->n", m, q[..., 0] * v[..., 1] - q[..., 1] * v[..., 0])
    inertia = np.einsum("i,nid,nid->n", m, q, q)
    return float(np.max(np.abs(j) / inertia))


def total_ok(total: float, truth: float, tol: float = TOTAL_TOL) -> bool:
    return math.isfinite(total) and abs(total - truth) <= tol


def oracle_ok(oracle, truth: float) -> bool:
    return oracle is not None and math.isfinite(oracle) and abs(oracle - truth) <= ORACLE_TOL


def on_sphere(points: np.ndarray) -> bool:
    radii = np.linalg.norm(points, axis=1)
    return bool(np.all(np.abs(radii - 0.5) <= SPHERE_TOL))


def curve_ok(points: np.ndarray, expected: np.ndarray) -> bool:
    """Curve points lie on the sphere and match the expected shape points."""
    if points.shape != expected.shape or not on_sphere(points):
        return False
    return bool(np.max(np.linalg.norm(points - expected, axis=1)) <= CURVE_TOL)


def lift_ok(positions, velocities, masses, expected_points) -> bool:
    """A lift carries no angular momentum and projects onto its curve."""
    if positions.shape != (expected_points.shape[0], 3, 2):
        return False
    if momentum_ratio(positions, velocities, masses) > LIFT_MOMENTUM_TOL:
        return False
    gap = np.linalg.norm(shape_points(positions, masses) - expected_points, axis=1)
    return bool(np.max(gap) <= LIFT_REPROJECTION_TOL)


def certified_is(report: dict, expected: bool) -> bool:
    """The spatial report's certification flag, and a bad set to match."""
    if report.get("certified") is not expected:
        return False
    measure = report.get("bad_set_measure")
    return measure == 0.0 if expected else (measure is not None and measure > 0.0)


def wrapped_gap(a: float, b: float) -> float:
    """|a - b| reduced modulo 2 pi to [0, pi]."""
    d = math.remainder(a - b, 2.0 * math.pi)
    return abs(d)


def verify_ok(exit_code: int, report: dict) -> bool:
    return exit_code == 0 and report.get("summary", {}).get("failures") == 0
