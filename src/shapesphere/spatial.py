"""Spatial rotation reconstruction through the locked inertia map.

A spatial motion with a smooth normal field projects to the reference plane
X orthogonal to a unit vector e by transporting the normal to e along the
minimizing geodesic.  The rotation angle of the projected first body is the
time integral of F(J) plus twice the area swept about C1 by the projected
shape curve, where F(J) collects the e and n components of sigma^{-1}(J)
and sigma is the configuration's inertia map.  The formula loses validity
on the set of collinear, spinning samples whose axis is not orthogonal to
e; its dwell time is measured and reported, and any positive value leaves
the result uncertified.

Per-sample 3-vectors (Jacobi vectors, normals, momenta, angular
velocities) are C-contiguous (3, k) component rows over a block of k
samples.  reconstruct_spatial, normal_track and bad_set_measure read the
blocks of the row kernel (shape_core._row_blocks), which carry each
sample's inertia map, as they arrive, so the temporaries of each pass fit
in cache.  Every test of consecutive samples (the area swept about C1, the
passes of -e, the reversals of N in the bad set and the normals' sign
chain) takes its steps from a planar._PoleSteps, which carries the last
sample over a block edge.  The quadrature, the sums
of step angles, np.trapezoid, the np.interp fill of dropped samples and the
unwinding run after the blocks on one-row arrays over all samples, with the
operands and order of a single pass, so no report depends on the block size.
"""

from __future__ import annotations

import itertools
import warnings
from dataclasses import dataclass, field
from typing import Optional

import numpy as np

from .planar import (
    ReconstructionReport,
    _PoleSteps,
    _quadrature,
    _report,
    _SweptArea,
    _Turn,
)
from .shape_core import (
    C1_DIRECTION,
    COLLINEAR_EIG_TOL,
    MassTriple,
    PlanarConfiguration,
    SpatialConfiguration,
    _centered,
    _cross,
    _dot,
    _jacobi_rows,
    _JacobiRows,
    _row_blocks,
    _require_centered,
    _unit,
)
from .trajectory import Trajectory

__all__ = [
    "SigmaTensor",
    "OrientedState",
    "sigma_tensor",
    "sigma_inverse",
    "decompose_e_n",
    "F_of_J",
    "plane_basis",
    "project_P",
    "oriented_state",
    "normal_track",
    "bad_set_measure",
    "reconstruct_spatial",
    "velocity_decompose",
]

# |e x n| below this marks n and e (anti)parallel.
ALIGNMENT_TOL = 1e-10

# |n + e| below this drops a sample from the rate F, undefined at n = -e.
ANTIPODAL_TOL = 1e-6

_BAD_SET_J_TOL = 1e-12
_BAD_SET_AXIS_TOL = 1e-8


@dataclass(frozen=True, eq=False)
class SigmaTensor:
    """Locked inertia map sending angular-velocity vectors to angular momentum.

    matrix is sum_i m_i (|q_i|^2 Id - q_i q_i^T), symmetric positive
    semidefinite with trace 2I; it is singular exactly at collinear
    configurations, where axis carries the kernel direction.  The trace,
    the collinear flag and the inverse come from its 1-sample kernel.
    """

    matrix: np.ndarray
    smallest_eigenvalue: float
    axis: Optional[np.ndarray]
    _kernel: _JacobiRows = field(repr=False)

    @property
    def trace(self) -> float:
        return 2.0 * float(self._kernel.inertia[0])

    @property
    def is_collinear(self) -> bool:
        return bool(self._kernel.collinear[0])


def sigma_tensor(config: SpatialConfiguration, masses: MassTriple) -> SigmaTensor:
    """Inertia map of a configuration about its mass centroid (the origin
    for centered configurations)."""
    kernel = _jacobi_rows(config.as_array()[None, :, :], None, masses)
    xi1, xi2 = kernel.xi1[:, 0], kernel.xi2[:, 0]
    mat = kernel.inertia[0] * np.eye(3) - np.outer(xi1, xi1) - np.outer(xi2, xi2)
    axis = kernel.axis()[:, 0] if kernel.collinear[0] else None
    return SigmaTensor(mat, float(kernel.smallest[0]), axis, kernel)


def sigma_inverse(tensor: SigmaTensor, Jvec, inertia: float) -> np.ndarray:
    """Angular-velocity vector whose angular momentum under sigma is Jvec.

    Read off the closed-form inverse of the tensor's kernel.  Collinear
    configurations use the Jvec/I convention since the literal inverse does
    not exist there; where the configuration is collinear only to within
    COLLINEAR_EIG_TOL, not to roundoff, a warning says so.
    """
    J = np.asarray(Jvec, dtype=float)
    if not np.all(np.isfinite(J)):
        raise ValueError("angular momentum must be finite")
    # warn where the collinear convention overrides a map that is singular
    # beyond roundoff: there the literal inverse would turn a tiny momentum
    # into a huge rate, and the outcome depends on the convention
    smallest, trace = tensor.smallest_eigenvalue, tensor.trace
    if tensor.is_collinear and smallest > 64.0 * np.finfo(float).eps * trace:
        warnings.warn(
            f"near-collinear configuration (smallest eigenvalue / trace {smallest / trace:.2e}): "
            "the J/I convention replaced the angular-velocity solve",
            RuntimeWarning,
            stacklevel=2,
        )
    return tensor._kernel.inverse(J[:, None], inertia)[:, 0]


def decompose_e_n(w, e, n) -> tuple[float, float, float]:
    """Coefficients of w in the basis {e^n, e, n} (wedge unnormalized).

    Only the e and n coefficients feed the rotation-rate formula; the wedge
    component drives the tilt and is never consumed downstream, which is why
    normalizing e^n is unnecessary.  In closed form, with g = e x n, the dual
    basis is {g, n x g, g x e} / |g|^2, where n x g = |n|^2 e - (e.n) n,
    g x e = |e|^2 n - (e.n) e and |g|^2 = |e|^2 |n|^2 - (e.n)^2; the cross
    products keep the cancellation of nearly parallel e and n at roundoff.
    """
    w, e, n = (np.asarray(v, dtype=float) for v in (w, e, n))
    wedge = np.cross(e, n)
    if np.linalg.norm(wedge) < ALIGNMENT_TOL:
        raise ValueError("e and n are (anti)parallel: use the aligned branch instead")
    dual = np.stack([wedge, np.cross(n, wedge), np.cross(wedge, e)]) / (wedge @ wedge)
    a, b, c = dual @ w
    return float(a), float(b), float(c)


def plane_basis(e) -> tuple[np.ndarray, np.ndarray]:
    """Right-handed orthonormal basis (u1, u2) of the plane orthogonal to e."""
    e = _unit(e, "e")
    seed = np.eye(3)[np.argmin(np.abs(e))]
    u1 = _unit(seed - (seed @ e) * e, "u1")
    return u1, np.cross(e, u1)


def _project_positions(q: np.ndarray, normals: np.ndarray, e: np.ndarray) -> np.ndarray:
    """Coordinates (2, ..., n) in X of points q (3, ..., n) rotated about
    n x e so that each sample's normal (3, n) lands on e.

    In the basis (u1, u2, e) of plane_basis, with n = (n1, n2, c) and
    q = (p1, p2, p3), Rodrigues' formula reads x = c p1 - n1 p3 + g n2 a and
    y = c p2 - n2 p3 - g n1 a, where a = (n x e).q = n2 p1 - n1 p2 and
    g = (1 - c) / |n x e|^2.  Samples with |n x e| <= ALIGNMENT_TOL keep q;
    callers must exclude antipodal samples.
    """
    u1, u2 = plane_basis(e)
    basis = np.stack([u1, u2, e])
    n1, n2, c = basis @ normals
    p1, p2, p3 = (basis @ q.reshape(3, -1)).reshape(q.shape)
    sin_sq = n1 * n1 + n2 * n2
    g = (1.0 - c) / np.maximum(sin_sq, 1e-300)
    a = n2 * p1 - n1 * p2
    x = c * p1 - n1 * p3 + g * n2 * a
    y = c * p2 - n2 * p3 - g * n1 * a
    safe = sin_sq > ALIGNMENT_TOL**2
    return np.stack([np.where(safe, x, p1), np.where(safe, y, p2)])


def project_P(config: SpatialConfiguration, n, e) -> PlanarConfiguration:
    """Transport a spatial configuration into the plane X orthogonal to e.

    Moves the normal n to e along the minimizing geodesic of the unit
    sphere and reads coordinates in a fixed right-handed basis of X.  The
    antipodal case n = -e has no unique geodesic and is rejected.  The
    shape point is unchanged by the transport.
    """
    n, e = _unit(n, "n"), _unit(e, "e")
    if np.linalg.norm(n + e) < ALIGNMENT_TOL:
        raise ValueError("n = -e: the transport to the plane is ambiguous")
    coords = _project_positions(config.as_array().T, n[:, None], e).T
    return PlanarConfiguration(coords[0], coords[1], coords[2])


@dataclass(frozen=True, eq=False)
class OrientedState:
    """A spatial configuration with normal, reference axis, and tilt chart.

    phi_n in [0, pi] is the tilt of n from e; eta_n the longitude of n about
    e; theta1 the angle of body 1 about n, referenced so the projected first
    body sits at angle eta_n + theta1 in X whenever the tilt is interior.
    """

    config: SpatialConfiguration
    n: np.ndarray
    e: np.ndarray
    phi_n: float
    eta_n: float
    theta1: float


def oriented_state(config: SpatialConfiguration, n, e) -> OrientedState:
    """Build the tilt chart of a configuration; n must be normal to its plane."""
    n, e = _unit(n, "n"), _unit(e, "e")
    q = config.as_array()
    for span in (q[1] - q[0], q[2] - q[0]):
        span_norm = np.linalg.norm(span)
        if span_norm > 0.0 and abs(span @ n) > 1e-10 * span_norm:
            raise ValueError("n is not orthogonal to the configuration plane")
    phi = float(np.arccos(np.clip(n @ e, -1.0, 1.0)))
    u1, u2 = plane_basis(e)
    axis = np.cross(n, e)
    axis_norm = np.linalg.norm(axis)
    if axis_norm < ALIGNMENT_TOL:
        eta = 0.0
        theta1 = float(np.arctan2(q[0] @ u2, q[0] @ u1))
    else:
        khat = axis / axis_norm
        eta = float(np.arctan2(n @ u2, n @ u1))
        theta1 = float(np.arctan2(-(q[0] @ khat), q[0] @ np.cross(n, khat)))
    return OrientedState(config, n, e, phi, eta, theta1)


def _projected_rate(w: np.ndarray, normals: np.ndarray, e: np.ndarray) -> np.ndarray:
    """sigma_e + sigma_n of the {e^n, e, n} decomposition of each w.

    Evaluated through the exact identity (e.w + n.w) / (1 + e.n), which
    stays conditioned near n = e and reads n.w at n = e; it is undefined at
    n = -e, so callers keep such normals out.  w and normals are (3, n)
    rows; e is one axis (3,) or one per sample (3, n).
    """
    return (_dot(w, e) + _dot(normals, w)) / (1.0 + _dot(normals, e))


def F_of_J(state: OrientedState, Jvec, inertia: float, masses: MassTriple) -> float:
    """Rotation rate of the projected first body due to the rigid part:
    the projected rate (e.w + n.w) / (1 + e.n) of w = sigma^{-1}(J), or n.w
    where |e x n| < ALIGNMENT_TOL, the only choice at n = -e."""
    w = sigma_inverse(sigma_tensor(state.config, masses), Jvec, inertia)[:, None]
    n = state.n[:, None]
    if np.linalg.norm(np.cross(state.n, state.e)) < ALIGNMENT_TOL:
        return float(_dot(n, w)[0])
    return float(_projected_rate(w, n, state.e)[0])


def normal_track(traj: Trajectory, e=None, initial_sign: Optional[int] = None) -> np.ndarray:
    """Smooth unit normals (n, 3) along a spatial trajectory.

    Triangle normals with the sign continued sample to sample (the branch
    maximizing the dot product with the previous normal).  Collinear
    samples, where the normal is undefined, take the normalized linear
    interpolation over time of the triangular normals: a stretch between
    two triangular samples follows the great-circle arc joining them, and a
    stretch at either end copies its flank.  The first normal is flipped so
    n(0) . e >= 0 unless initial_sign, +1 or -1, overrides.
    """
    if traj.dim != 3:
        raise ValueError("normal_track expects a spatial trajectory")
    if initial_sign not in (None, 1, -1):
        raise ValueError("initial_sign must be None, +1 or -1")
    reference = np.array([0.0, 0.0, 1.0]) if e is None else _unit(e, "e")
    out = np.empty((traj.n_samples, 3))
    blocks = _row_blocks(traj.positions, None, traj.masses)
    for start, stop, kernel, normals in _tracked(blocks, traj.times, reference, initial_sign):
        out[start:stop] = normals.T
        del kernel, normals
    return out


def _tracked(blocks, t: np.ndarray, reference: np.ndarray, initial_sign=None):
    """normal_track over blocks (start, stop, rows) of the row kernel:
    yields each block's rows with its normal rows (3, stop - start), in
    order.

    The normal is sigma's eigenvector N = xi1 x xi2; a sample is triangular
    when the sine of the angle between xi1 and xi2 exceeds 1e-10, i.e. when
    |N|^2 > 1e-20 |xi1|^2 |xi2|^2.  The other samples are dropped and filled
    in by np.interp of the triangular normals over their times, then
    normalized; the sign continuation keeps consecutive triangular normals
    within pi/2 of each other, so the interpolant has length at least
    1/sqrt(2).  The signs are one running product of the +-1 step tests of
    _PoleSteps about 0, whose carry starts as the first normal flipped to
    the side of the reference axis (or by initial_sign); np.interp reads only
    the triangular samples on either side of a collinear one, so the normals
    do not depend on the blocks.  A block that ends collinear waits for the
    next triangular sample.
    """
    pending = []
    flank = None  # time and normal of the last triangular sample yielded
    steps = _PoleSteps(np.zeros(3))  # carries the last triangular unit normal, unsigned
    sign = 1.0  # and its sign
    for start, stop, kernel in blocks:
        lengths_sq = (0.5 * kernel.inertia + kernel.w[0]) * (0.5 * kernel.inertia - kernel.w[0])
        triangular = kernel.det > 1e-20 * lengths_sq
        kept = np.flatnonzero(triangular) if not np.all(triangular) else slice(None)
        units = kernel.normal[:, kept] / np.sqrt(kernel.det[kept])
        if units.shape[1]:
            if steps.last is None:  # the first link: to the reference's side, or initial_sign
                flip = -1.0 if reference @ units[:, 0] < 0.0 else 1.0
                steps.last = units[:, 0] * (flip if initial_sign is None else initial_sign)
            signs = sign * np.cumprod(np.where(steps.add(units)[2] >= 0.0, 1.0, -1.0))
            sign = signs[-1]
            units *= signs
            del signs
        pending.append((start, stop, kernel, triangular, kept, units))
        if triangular[-1]:
            yield from _filled(pending, t, flank)
            flank = (t[stop - 1], units[:, -1:].copy())
            pending = []
        # hold no block of our own while the next one is built
        del kernel, lengths_sq, triangular, kept, units
    if steps.last is None:
        raise ValueError("all samples are collinear: the orientation is undefined")
    yield from _filled(pending, t, flank)


def _filled(pending: list, t: np.ndarray, flank):
    """The pending blocks of _tracked with their collinear normals filled in
    from the triangular ones and the flank before them."""
    if all(isinstance(kept, slice) for _, _, _, _, kept, _ in pending):
        for start, stop, kernel, _, _, units in pending:
            yield start, stop, kernel, units
        return
    times = [t[start:stop][kept] for start, stop, _, _, kept, _ in pending]
    units = [block[-1] for block in pending]
    if flank is not None:
        times.insert(0, [flank[0]])
        units.insert(0, flank[1])
    times, units = np.concatenate(times), np.hstack(units)
    for start, stop, kernel, triangular, kept, block in pending:
        collinear = ~triangular
        out = np.empty((3, stop - start))
        out[:, kept] = block
        fill = np.stack([np.interp(t[start:stop][collinear], times, row) for row in units])
        out[:, collinear] = fill / np.linalg.norm(fill, axis=0)
        yield start, stop, kernel, out


class _BadSet:
    """bad_set_measure over consecutive blocks of inertia maps with momenta:
    the flagged collinear samples, and the steps of _PoleSteps about 0 that
    reverse N = xi1 x xi2 between two triangular samples with tilted spin;
    flagged tells whether the carried last sample is one."""

    def __init__(self, times: np.ndarray, e: np.ndarray):
        self.times, self.e = times, e
        self.duration = max(float(times[-1] - times[0]), 1e-300)
        self.hits = []
        self.steps = []
        self.normals = _PoleSteps(np.zeros(3))
        self.flagged = False

    def _tilted_spin(self, kernel: _JacobiRows, index) -> np.ndarray:
        size = np.linalg.norm(kernel.momentum[:, index], axis=0)
        spin = size > _BAD_SET_J_TOL * kernel.inertia[index] / self.duration
        return spin & (np.abs(self.e @ kernel.axis(index)) > _BAD_SET_AXIS_TOL)

    def _flagged(self, kernel: _JacobiRows, index) -> np.ndarray:
        return ~kernel.collinear[index] & self._tilted_spin(kernel, index)

    def add(self, start: int, kernel: _JacobiRows):
        hits = np.flatnonzero(kernel.collinear)
        self.hits.append(start + hits[self._tilted_spin(kernel, hits)])
        dots = self.normals.add(kernel.normal)[2]
        # the first sample of each reversing step, -1 for the carried one
        steps = np.flatnonzero(dots <= 0.0) - (dots.size + 1 - kernel.collinear.size)
        before = self._flagged(kernel, steps)
        before[steps < 0] = self.flagged
        self.steps.append(start + steps[before & self._flagged(kernel, steps + 1)])
        self.flagged = bool(self._flagged(kernel, [-1])[0])

    def result(self) -> tuple[float, list]:
        times, hits = self.times, np.concatenate(self.hits)
        flagged = np.zeros(times.size)
        flagged[hits] = 1.0
        steps = np.concatenate(self.steps)
        measure = float(np.trapezoid(flagged, times) + np.sum(times[steps + 1] - times[steps]))
        runs = np.split(hits, np.flatnonzero(np.diff(hits) > 1) + 1) if hits.size else []
        intervals = [(float(times[run[0]]), float(times[run[-1]])) for run in runs]
        intervals += [(float(times[k]), float(times[k + 1])) for k in steps]
        return measure, sorted(intervals)


def bad_set_measure(traj: Trajectory, e) -> tuple[float, list]:
    """Dwell time in the set where the spatial formula loses validity.

    Flags samples that are collinear (smallest sigma eigenvalue under
    1e-8 x trace) while carrying nonzero angular momentum with e not
    orthogonal to the configuration axis, and steps that pass a collinear
    configuration between two samples that carry such momentum about such
    an axis; returns the trapezoidal dwell time of flagged samples plus the
    lengths of flagged steps, and the flagged time intervals.
    """
    if traj.dim != 3:
        raise ValueError("bad_set_measure expects a spatial trajectory")
    bad = _BadSet(traj.times, _unit(e, "e"))
    for start, _, rows in _row_blocks(traj.positions, traj.velocities, traj.masses, traj.times):
        bad.add(start, rows)
        del rows  # not held while the next block is built
    return bad.result()


def reconstruct_spatial(
    traj: Trajectory, e=None, antipodal_branch: int = 1, include_oracle: bool = False
) -> ReconstructionReport:
    """Rotation angle of the projected first body over a spatial motion.

    Integrates F(J) and adds twice the area swept about C1 by the shape
    curve of the projected motion.  e defaults to the direction of the
    initial angular momentum (or the third axis if that vanishes).  Supplied
    per-sample normals are used as-is; otherwise they are tracked from the
    triangle orientation.  Where the normal crosses -e the projected angle
    jumps by 2 pi.  F is undefined within ANTIPODAL_TOL of -e: those samples
    are dropped, F is evaluated on the rest and filled in over the dropped
    ones by linear interpolation in time.  A step between two kept samples
    crosses -e when (e + n_k).(e + n_{k+1}) <= ANTIPODAL_TOL**2, i.e. when
    -e lies in the ball about the step's chord midpoint of radius
    hypot(chord / 2, ANTIPODAL_TOL), which holds every chord that passes -e
    closer than ANTIPODAL_TOL; so does a step that bridges a dropped run.
    Each such step adds antipodal_branch * 2 pi to the dynamic term, and the
    report is marked modulo-2pi.  A normal that passes -e outside that ball
    but within a few steps is neither flagged nor resolved, and the total
    can then be wrong; a flagged pass that misses -e by more than roundoff
    is off modulo 2 pi.  A positive bad-set dwell time leaves the result
    uncertified.
    """
    if traj.dim != 3:
        raise ValueError("reconstruct_spatial expects a spatial trajectory")
    if antipodal_branch not in (1, -1):
        raise ValueError("antipodal_branch must be +1 or -1")
    t = traj.times
    blocks = _row_blocks(traj.positions, traj.velocities, traj.masses, t)
    first = next(blocks)
    if e is None:
        e = first[2].momentum[:, 0]
        e = e if np.linalg.norm(e) > 0.0 else np.array([0.0, 0.0, 1.0])
    e = _unit(e, "e")
    # a spent list iterator lets go of the first block; a list would hold it
    blocks = itertools.chain(iter([first]), blocks)
    del first
    if traj.normals is None:
        blocks = _tracked(blocks, t, e)
    else:
        blocks = ((start, stop, rows, traj.normals[start:stop].T) for start, stop, rows in blocks)

    rate = np.empty(t.size)
    antipodal = np.empty(t.size, dtype=bool)
    bad = _BadSet(t, e)
    area = _SweptArea(C1_DIRECTION, t.size)
    turn = _Turn(t.size) if include_oracle else None
    passages = _Passages(e)
    for start, stop, kernel, normals in blocks:
        if np.any(kernel.inertia <= 0.0):
            raise ValueError("triple collision: the moment of inertia vanishes")
        dropped = np.linalg.norm(normals + e[:, None], axis=0) < ANTIPODAL_TOL
        antipodal[start:stop] = dropped
        kept = np.flatnonzero(~dropped) if np.any(dropped) else slice(None)
        rate[start:stop][kept] = _projected_rate(
            kernel.inverse(kernel.momentum, kernel.inertia)[:, kept], normals[:, kept], e
        )
        bad.add(start, kernel)
        # the shape points do not depend on e: no sample is dropped from them
        area.add(kernel.shape_points(normals))
        if turn is not None:
            body1 = traj.positions[start:stop, 0].T
            turn.add(_project_positions(body1, normals, e)[:, kept].T)
        passages.add(np.arange(start, stop)[kept], normals[:, kept])
        # hold no block while the next one is built
        del kernel, normals

    if antipodal[0] or antipodal[-1]:
        raise ValueError("normal is antipodal to e at an endpoint: the projection is undefined")
    if passages.stalled:
        raise ValueError(
            "normal stalls at -e instead of crossing it: the projected motion cannot be continued"
        )
    if np.any(antipodal):
        kept = np.flatnonzero(~antipodal)
        rate = np.interp(t, t[kept], rate[kept])
    dyn = _quadrature(t, rate) + 2.0 * np.pi * antipodal_branch * passages.count
    swept, on_axis = area.result()
    measure, _ = bad.result()
    oracle = None if turn is None else turn.result("q1")
    crossed = on_axis or passages.count > 0
    return _report(dyn, 2.0 * swept, oracle, crossed, traj.n_samples, measure == 0.0, measure)


class _Passages:
    """The crossings of -e by the kept normals, over consecutive blocks:
    the steps of _PoleSteps about e with a.b <= ANTIPODAL_TOL**2 (see
    reconstruct_spatial), and each step that bridges a dropped run; index,
    the latest kept sample, finds a run dropped across a block edge."""

    def __init__(self, e: np.ndarray):
        self.steps = _PoleSteps(e)
        self.index = None
        self.count = 0
        self.stalled = False

    def add(self, index: np.ndarray, normals: np.ndarray):
        """Count the steps up to the kept normals (3, k) of samples index."""
        previous = self.steps.last
        passes = self.steps.add(normals)[2] <= ANTIPODAL_TOL**2
        if previous is not None:
            index = np.concatenate([[self.index], index])
        self.index = index[-1] if index.size else None
        joins = np.flatnonzero(np.diff(index) > 1)
        if joins.size:
            if previous is not None:
                normals = np.hstack([previous[:, None], normals])
            gaps = np.linalg.norm(normals[:, joins + 1] - normals[:, joins], axis=0)
            self.stalled = self.stalled or bool(np.any(gaps < 1e-10))
            passes[joins] = True
        self.count += int(np.count_nonzero(passes))


def velocity_decompose(config: SpatialConfiguration, velocity, masses: MassTriple):
    """Split body velocities into the rigid rotation part and the internal part.

    v_R,i = w x q_i with w = sigma^{-1}(J); the remainder v_I carries no
    linear momentum and, on triangular configurations, no angular momentum.
    The configuration must be centered and the velocity free of net momentum.
    Collinear configurations fall back to the J/I convention, with a
    warning, and then v_I may retain angular momentum.
    """
    v = np.asarray(velocity, dtype=float)
    if v.shape != (3, 3) or not np.all(np.isfinite(v)):
        raise ValueError("velocity must be a finite (3, 3) array, one row per body")
    if _centered(v[None], masses, False)[2] > 1e-10:
        raise ValueError("velocity carries net linear momentum")
    _require_centered(config, masses)
    q = config.as_array()
    kernel = _jacobi_rows(q[None, :, :], v[None], masses)
    if kernel.collinear[0]:
        warnings.warn(
            "collinear configuration: using the J/I convention, the internal part "
            "may retain angular momentum",
            RuntimeWarning,
            stacklevel=2,
        )
    w = kernel.inverse(kernel.momentum, kernel.inertia)[:, 0]
    v_rigid = _cross(w, q.T).T
    return v_rigid, v - v_rigid
