"""Planar rotation reconstruction: momentum term plus twice the swept area.

The rotation of body 1 (or of the separation vector of bodies 2 and 3) over
a motion equals the time integral of J/I plus twice the signed spherical
area swept by the projected shape curve about the chart pole C1 (or O1).
The swept area is a sum of per-step solid angles: no longitude is unwound.
The reconstructions take J/I and the shape points block by block from
shape_core._row_blocks and sum and integrate once over all samples; the
oracle unwinds the target vectors of all samples after that.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

import numpy as np

from .angles import wrap_angle, unwrap_held
from .shape_core import (
    C1_DIRECTION,
    O1_DIRECTION,
    MassTriple,
    PlanarConfiguration,
    _blocks,
    _bodies_from_rows,
    _dot,
    _jacobi_rows,
    _row_blocks,
    chart_angles,
    jacobi,
    normalize_shape,
    shape_map,
)
from .trajectory import Trajectory, _checked_times, _spline_slopes

__all__ = [
    "ShapeCurve",
    "ReconstructionReport",
    "shape_curve",
    "swept_area",
    "dynamic_term",
    "reconstruct_q1",
    "reconstruct_Z1",
    "zero_J_lift",
    "oracle_rotation",
    "planar_series",
]

# Distance on the radius-1/2 sphere below which a sample counts as sitting
# on the chart axis (either pole), where longitude is undefined.
POLE_PROXIMITY_TOL = 1e-9

# Endpoint vectors must clear the origin by this relative margin.
ENDPOINT_TOL = 1e-9


@dataclass(frozen=True, eq=False)
class ShapeCurve:
    """Time-stamped curve on the radius-1/2 shape sphere.

    points is (n, 3) with |point| = 1/2; unwound_xi is the continuously
    unwound meridian longitude, held constant across samples where it is
    undefined; pole_crossings lists (index, "C1" | "O1") for samples within
    POLE_PROXIMITY_TOL of either end of the chart axis.  ShapeCurve(times,
    points) unwinds the longitude; a given unwound_xi is checked against
    the points instead.  The crossings are always derived from the points,
    and a given list that disagrees is rejected.
    """

    times: np.ndarray
    points: np.ndarray
    unwound_xi: Optional[np.ndarray] = None
    pole_crossings: Optional[list] = None

    def __post_init__(self):
        t = _checked_times(self.times)
        w = np.asarray(self.points, dtype=float)
        if w.shape != (t.size, 3) or not np.all(np.isfinite(w)):
            raise ValueError("points must be a finite (n, 3) array")
        radii = np.sqrt(w[:, 0] ** 2 + w[:, 1] ** 2 + w[:, 2] ** 2)
        if np.any(np.abs(radii - 0.5) > 1e-10):
            raise ValueError("curve points must lie on the radius-1/2 sphere")
        defined = np.hypot(w[:, 1], w[:, 2]) > POLE_PROXIMITY_TOL
        longitude = np.arctan2(w[:, 2], w[:, 1])
        if self.unwound_xi is None:
            xi = unwrap_held(longitude, defined)
        else:
            xi = np.asarray(self.unwound_xi, dtype=float)
            if xi.shape != t.shape or not np.all(np.isfinite(xi)):
                raise ValueError("unwound_xi must be a finite (n,) array")
            if np.any(np.abs(wrap_angle(xi - longitude))[defined] > 1e-9):
                raise ValueError("unwound_xi disagrees with the longitude of points")
        _require_dense(xi, defined, "longitude")
        crossings = [(int(k), "C1" if w[k, 0] < 0.0 else "O1") for k in np.flatnonzero(~defined)]
        if self.pole_crossings is not None and [tuple(c) for c in self.pole_crossings] != crossings:
            raise ValueError("pole_crossings disagree with the chart-axis passages of points")
        object.__setattr__(self, "times", t)
        object.__setattr__(self, "points", w)
        object.__setattr__(self, "unwound_xi", xi)
        object.__setattr__(self, "pole_crossings", crossings)

    @classmethod
    def from_points(cls, times, points) -> "ShapeCurve":
        """Build a curve from normalized points, unwinding the longitude."""
        return cls(times, points)

    @property
    def n_samples(self) -> int:
        return self.times.size


@dataclass(frozen=True)
class ReconstructionReport:
    """Outcome of a rotation reconstruction.

    total = dynamic_term + geometric_term by construction and total_mod_2pi
    is its representative in (-pi, pi].  With pole_crossed set, the raw
    total is only meaningful modulo 2 pi.  certified and bad_set_measure are
    populated by the spatial reconstruction only.
    """

    dynamic_term: float
    geometric_term: float
    total: float
    total_mod_2pi: float
    oracle: Optional[float]
    pole_crossed: bool
    samples: int
    certified: Optional[bool] = None
    bad_set_measure: Optional[float] = None

    def to_dict(self) -> dict:
        out = {
            "dynamic_term": self.dynamic_term,
            "geometric_term": self.geometric_term,
            "total": self.total,
            "total_mod_2pi": self.total_mod_2pi,
            "oracle": self.oracle,
            "pole_crossed": self.pole_crossed,
            "samples": self.samples,
        }
        if self.certified is not None:
            out["certified"] = self.certified
            out["bad_set_measure"] = self.bad_set_measure
        return out


def _report(dyn, geo, oracle, crossed, samples, certified=None, bad=None) -> ReconstructionReport:
    total = dyn + geo
    return ReconstructionReport(
        float(dyn),
        float(geo),
        float(total),
        wrap_angle(total),
        None if oracle is None else float(oracle),
        bool(crossed),
        int(samples),
        certified,
        bad,
    )


def planar_series(traj: Trajectory):
    """Per-sample Jacobi pairs, moment of inertia and angular momentum.

    Returns (Z1, Z2, I, J); requires velocities (finite-differenced if
    absent by the caller).
    """
    if traj.dim != 2:
        raise ValueError("planar series require a planar trajectory")
    if traj.velocities is None:
        raise ValueError("velocities are required; call ensure_velocities first")
    rows = _jacobi_rows(traj.positions, traj.velocities, traj.masses)
    Z1 = rows.xi1[0] + 1j * rows.xi1[1]
    Z2 = rows.xi2[0] + 1j * rows.xi2[1]
    return Z1, Z2, rows.inertia, rows.momentum


def shape_curve(traj: Trajectory) -> ShapeCurve:
    """Project a planar trajectory to its normalized shape curve."""
    if traj.dim != 2:
        raise ValueError("shape_curve expects a planar trajectory")
    rows = _jacobi_rows(traj.positions, None, traj.masses)
    if np.any(rows.inertia <= 0.0):
        raise ValueError("trajectory passes through triple collision")
    return ShapeCurve(traj.times, np.divide(rows.w, rows.inertia, out=rows.w).T)


def swept_area(curve: ShapeCurve, pole) -> float:
    """Signed area swept about a chart pole along the curve.

    The sum of the areas of the spherical triangles (pole, point, next
    point), positive exactly when it adds to the tracked rotation angle; for
    pole C1 it is the integral of r1^2 dxi / 2 along the great-circle chords
    on unit-inertia data.  pole is any nonzero direction along the chart
    axis; other directions raise ValueError.  Arcs of pole meridians sweep
    nothing.  Samples on the antipode of the pole are skipped, and a step
    past it leaves the result defined modulo the half-sphere area.
    """
    p = np.asarray(pole, dtype=float)
    if p.shape != (3,) or not np.isfinite(p[0]) or p[0] == 0.0 or np.any(p[1:] != 0.0):
        raise ValueError("pole must be a nonzero direction along the chart axis (C1 or O1)")
    area = _SweptArea(C1_DIRECTION if p[0] < 0.0 else O1_DIRECTION, curve.n_samples)
    area.add(curve.points.T)
    return area.result()[0]


class _PoleSteps:
    """Steps between consecutive points u (3, k) given in blocks, about a pole
    p (3,): the rows a = p + u_k and b = p + u_{k+1} and a.b, the denominator
    of the solid angle of (p, u_k, u_{k+1}) (Van Oosterom and Strackee, IEEE
    Trans. Biomed. Eng. 30, 1983), exact near -p and <= 0 on a step past it.
    u is scale times the points; the rows add p on its nonzero components
    only, so zeros of u keep their sign; last, the latest u, starts the next block."""

    def __init__(self, pole: np.ndarray, scale: float = 1.0):
        self.shift = [(axis, value) for axis, value in enumerate(pole) if value != 0.0]
        self.scale = scale
        self.last = None

    def add(self, points: np.ndarray):
        """Rows a, b (3, m) and a.b (m,) of the m steps up to points (3, k)."""
        s = np.empty((3, points.shape[1] + 1))
        np.multiply(self.scale, points, out=s[:, 1:])
        if self.last is None:
            s = s[:, 1:]
        else:
            s[:, 0] = self.last
        self.last = s[:, -1].copy() if s.shape[1] else None
        for axis, value in self.shift:
            s[axis] += value
        a, b = s[:, :-1], s[:, 1:]
        return a, b, _dot(a, b)


class _SweptArea:
    """Area swept about the chart pole p, C1 or O1, by points (3, k) of the
    radius-1/2 sphere given in blocks: each step of _PoleSteps about p, with
    u = 2 point, adds -1/2 atan2(p.(u_k x u_{k+1}), a.b), a quarter of the
    solid angle of (p, u_k, u_{k+1}).  Points within POLE_PROXIMITY_TOL of
    -p are dropped; one within it of either pole, or a step with a.b <= 0,
    passes the chart axis.  The step angles go to one row, summed at the end."""

    def __init__(self, pole: np.ndarray, n: int):
        self.pole = pole
        self.steps = _PoleSteps(pole, 2.0)
        self.angles = np.empty(max(n - 1, 0))
        self.count = 0
        self.crossed = False

    def add(self, points: np.ndarray):
        on_axis = np.hypot(points[1], points[2]) <= POLE_PROXIMITY_TOL
        antipode = on_axis & (self.pole[0] * points[0] < 0.0)
        kept = points[:, ~antipode] if np.any(antipode) else points
        a, b, denominator = self.steps.add(kept)
        # the steps run backwards about O1 in place of a sign flip of the
        # numerator, so that a curve that sweeps nothing reads +0.0
        if self.pole[0] > 0.0:
            a, b = b, a
        angles = self.angles[self.count : self.count + denominator.size]
        np.arctan2(a[1] * b[2] - a[2] * b[1], denominator, out=angles)
        self.count += angles.size
        self.crossed = self.crossed or bool(np.any(on_axis) or np.any(denominator <= 0.0))

    def result(self) -> tuple[float, bool]:
        return 0.5 * float(np.sum(self.angles[: self.count])), self.crossed


def _simpson(t: np.ndarray, y: np.ndarray, step: int) -> float:
    """Sum of Simpson's width/6 (y0 + 4 y1 + y2) over the triples of
    consecutive samples that start every `step` samples, width being each
    triple's own span t[k + 2] - t[k]; the terms are formed in two
    buffers."""
    a, b, c = slice(0, -2, step), slice(1, -1, step), slice(2, None, step)
    width = np.subtract(t[c], t[a])
    width /= 6.0
    terms = np.multiply(y[b], 4.0)
    terms += y[a]
    terms += y[c]
    terms *= width
    return float(np.sum(terms))


def _quadrature(t: np.ndarray, y: np.ndarray) -> float:
    """Integral of samples y over times t.

    Composite Simpson when there are at least 3 samples on a uniform grid,
    i.e. every spacing within 1e-9 of the first relative to it; the
    trapezoid rule on other grids; 0 for a single sample.  An even count
    takes the mean of Simpson over the first n - 1 samples plus Cartwright's
    last interval, dt (5 y[-1] + 8 y[-2] - y[-3]) / 12, and the mirror of
    that sum at the start.  The two Simpson sums together take every triple
    of consecutive samples once, so the mean is one pass, exact for cubics,
    and reversing time negates it.
    """
    if t.size < 2:
        return 0.0
    dt = np.diff(t)
    first_dt, last_dt = dt[0], dt[-1]
    # rounding is monotonic, so this is the largest |dt - dt[0]| without
    # its whole-series temporaries
    spread = max(dt.max() - first_dt, first_dt - dt.min())
    del dt
    if t.size >= 3 and spread <= 1e-9 * abs(first_dt):
        if t.size % 2:
            return _simpson(t, y, 2)
        last = last_dt * (5.0 * y[-1] + 8.0 * y[-2] - y[-3]) / 12.0
        first = first_dt * (5.0 * y[0] + 8.0 * y[1] - y[2]) / 12.0
        return 0.5 * (_simpson(t, y, 1) + last + first)
    return float(np.trapezoid(y, t))


def _planar_blocks(traj: Trajectory):
    """_row_blocks of a planar trajectory, J from the velocities or, if
    there are none, from the differenced Jacobi rows; a block with a
    vanishing moment of inertia raises before it is yielded."""
    if traj.dim != 2:
        raise ValueError("planar series require a planar trajectory")
    for start, stop, rows in _row_blocks(traj.positions, traj.velocities, traj.masses, traj.times):
        if np.any(rows.inertia <= 0.0):
            raise ValueError("triple collision: the moment of inertia vanishes")
        yield start, stop, rows
        del rows  # not held while the next block is built


def dynamic_term(traj: Trajectory) -> float:
    """Time integral of J/I over the motion."""
    rate = np.empty(traj.n_samples)
    for start, stop, rows in _planar_blocks(traj):
        np.divide(rows.momentum, rows.inertia, out=rate[start:stop])
        del rows
    return _quadrature(traj.times, rate)


def oracle_rotation(traj: Trajectory, target: str) -> float:
    """Directly unwound polar-angle change of q1 or of Z1 = q3 - q2.

    Independent of the reconstruction machinery: arctangents plus
    continuity, nothing else.  Per-step turns must stay below pi/2,
    otherwise the sampling cannot be unwound unambiguously.
    """
    turn = _Turn(traj.n_samples)
    turn.add(_target_vectors(traj.positions, target))
    return turn.result(target)


def _target_vectors(q: np.ndarray, target: str) -> np.ndarray:
    """In-plane q1 or Z1 = q3 - q2 of samples q (n, 3, dim), shape (n, 2)."""
    if target == "q1":
        return q[:, 0, :2]
    if target == "Z1":
        return q[:, 2, :2] - q[:, 1, :2]
    raise ValueError("target must be 'q1' or 'Z1'")


def _require_dense(angles: np.ndarray, defined: np.ndarray, what: str, out=None):
    """Reject unwound angles that turn by pi/2 or more between consecutive
    defined samples, where the unwinding is ambiguous; out, if given,
    takes the n - 1 step sizes."""
    steps = np.subtract(angles[1:], angles[:-1], out=out)
    np.abs(steps, out=steps)
    if np.any((steps >= 0.5 * np.pi) & defined[1:] & defined[:-1]):
        raise ValueError(
            f"{what} turns by pi/2 or more between samples: resample the motion more densely"
        )


class _Turn:
    """Unwound polar-angle change of planar vectors (k, 2) given in
    consecutive blocks: the lengths and polar angles go to rows, and the
    angles are unwound in place once at the end, against the longest
    vector."""

    def __init__(self, n: int):
        self.norms = np.empty(n)
        self.raw = np.empty(n)
        self.count = 0

    def add(self, vec: np.ndarray):
        rows = slice(self.count, self.count + len(vec))
        np.hypot(vec[:, 0], vec[:, 1], out=self.norms[rows])
        np.arctan2(vec[:, 1], vec[:, 0], out=self.raw[rows])
        self.count += len(vec)

    def result(self, target: str) -> float:
        norms, raw = self.norms[: self.count], self.raw[: self.count]
        defined = norms > 1e-12 * max(float(np.max(norms)), 1e-300)
        angles = unwrap_held(raw, defined, raw)  # out=raw: unwound in place
        # the norms are spent: their row takes the step sizes
        _require_dense(angles, defined, target, out=norms[1:])
        return float(angles[-1] - angles[0])


def _reconstruct(traj: Trajectory, pole, target: str, include_oracle: bool) -> ReconstructionReport:
    """One pass over the row blocks: J/I to one row and the shape points to
    the swept area; the quadrature and the sum of step angles run after,
    and the oracle, with their rows released, last."""
    t = traj.times
    rate = np.empty(t.size)
    area = _SweptArea(pole, t.size)
    for start, stop, rows in _planar_blocks(traj):
        if start == 0:
            first = rows.inertia[0]
        np.divide(rows.momentum, rows.inertia, out=rate[start:stop])
        area.add(np.divide(rows.w, rows.inertia, out=rows.w))
        last = rows.inertia[-1]
        del rows  # not held while the next block is built
    end_vecs = _target_vectors(traj.positions[[0, -1]], target)
    scale = np.sqrt([first, last])
    if np.any(np.linalg.norm(end_vecs, axis=1) <= ENDPOINT_TOL * scale):
        raise ValueError(
            f"{target} is at the origin at an endpoint; the rotation angle is undefined"
        )
    dyn = _quadrature(t, rate)
    swept, crossed = area.result()
    del rate, area  # not held while the oracle unwinds
    oracle = oracle_rotation(traj, target) if include_oracle else None
    return _report(dyn, 2.0 * swept, oracle, crossed, traj.n_samples)


def reconstruct_q1(traj: Trajectory, include_oracle: bool = False) -> ReconstructionReport:
    """Rotation angle of body 1 over the motion.

    Momentum term plus twice the area swept about C1 by the shape curve.
    Endpoints with body 1 at the origin are rejected; a sample on the chart
    axis or a step past O1 (body 1 at the origin) flags it modulo 2 pi.
    """
    return _reconstruct(traj, C1_DIRECTION, "q1", include_oracle)


def reconstruct_Z1(traj: Trajectory, include_oracle: bool = False) -> ReconstructionReport:
    """Rotation angle of the separation q3 - q2 over the motion.

    Same as reconstruct_q1 with the swept area taken about O1.
    """
    return _reconstruct(traj, O1_DIRECTION, "Z1", include_oracle)


def zero_J_lift(curve: ShapeCurve, initial: PlanarConfiguration, masses: MassTriple) -> Trajectory:
    """The unique zero-angular-momentum motion over a shape curve.

    On unit-inertia data the chart angles obey d(xi1) = -r2^2 d(xi) and
    d(xi2) = +r1^2 d(xi); the second is integrated with classical
    fourth-order steps on spline-interpolated curve data and the first is
    maintained exactly through xi2 - xi1 = xi, so the handoff between the
    two charts is exact wherever either is valid.  The lift keeps the
    moment of inertia of the initial configuration.  The spline solve
    runs over all samples; everything after it runs over the sample
    blocks of shape_core._blocks, the running integral carried from block
    to block.
    """
    pair0 = jacobi(initial, masses)
    point0 = shape_map(pair0)
    if np.linalg.norm(normalize_shape(point0).vec() - curve.points[0]) > 1e-8:
        raise ValueError("initial configuration does not project to the curve start")
    inertia0 = 2.0 * point0.w4

    t, w1, xi = curve.times, curve.points[:, 0], curve.unwound_xi
    n = t.size

    # not-a-knot splines of r1^2 and xi (a line through 2 samples, a
    # parabola through 3), solved over all samples
    slopes = _spline_slopes(t, np.stack([0.5 + w1, xi], axis=1))

    # start xi2 in whichever chart is defined; the curve start is not the
    # triple collision, so at least one is
    angles0 = chart_angles(pair0)
    xi2_start = angles0.xi2 if angles0.defined2 else angles0.xi1 + xi[0]
    scale = np.sqrt(inertia0)
    positions = np.empty((n, 3, 2))
    velocities = np.empty((n, 3, 2))
    carry = 0.0  # the integral of r1^2 dxi up to the block's first sample
    for start, stop in _blocks(n):
        # the block's samples and the first of the next, for the step to it
        k = slice(start, min(stop + 1, n))
        r1sq, r2sq = 0.5 + w1[k], 0.5 - w1[k]
        dr1sq, dxi_dt = slopes[k, 0], slopes[k, 1]

        # Simpson's rule on each interval, with the midpoint value and
        # slope of each Hermite cubic in closed form
        h = np.diff(t[k])
        r1sq_mid = 0.5 * (r1sq[:-1] + r1sq[1:]) + h * (dr1sq[:-1] - dr1sq[1:]) / 8.0
        xi_rate_mid = 1.5 * np.diff(xi[k]) / h - 0.25 * (dxi_dt[:-1] + dxi_dt[1:])
        knot = r1sq * dxi_dt
        incr = (h / 6.0) * (knot[:-1] + 4.0 * r1sq_mid * xi_rate_mid + knot[1:])
        accumulated = np.cumsum(np.concatenate([[carry], incr]))
        carry = accumulated[-1]
        del h, r1sq_mid, xi_rate_mid, knot, incr

        # Jacobi rows (r cos xi, r sin xi) of Z1 and Z2 and their rates,
        # with radial rates from d(r^2)/dt = +-d(w1)/dt and angle rates from
        # the lift law
        m = stop - start
        r1sq, r2sq, dr1sq, dxi_dt = r1sq[:m], r2sq[:m], dr1sq[:m], dxi_dt[:m]
        xi2 = xi2_start + accumulated[:m]
        rsq = np.stack([r1sq, r2sq])
        r = scale * np.sqrt(np.clip(rsq, 0.0, None))
        dr = scale * np.stack([dr1sq, -dr1sq]) / (2.0 * np.sqrt(np.clip(rsq, 1e-300, None)))
        dr = np.where(r > 0.0, dr, 0.0)
        turn = r * (np.stack([-r2sq, r1sq]) * dxi_dt)
        angles = np.stack([xi2 - xi[start:stop], xi2])
        cos, sin = np.cos(angles), np.sin(angles)
        rows = np.stack([r * cos, r * sin], axis=1).reshape(4, -1)
        rates = np.stack([dr * cos - turn * sin, dr * sin + turn * cos], axis=1).reshape(4, -1)
        positions[start:stop] = _bodies_from_rows(rows, masses)
        velocities[start:stop] = _bodies_from_rows(rates, masses)
        del rsq, r, dr, turn, angles, cos, sin, rows, rates  # not held into the next block
    return Trajectory(masses, t, positions, velocities)
