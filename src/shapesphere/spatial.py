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
velocities) are C-contiguous (3, n) component rows, so each pass is one
loop over the samples.  The Jacobi rows, I, J, w1, w2 and N come from the
row kernel shared with the planar path, and are dropped after last use.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass, field
from typing import Optional

import numpy as np

from .planar import (
    ReconstructionReport,
    ShapeCurve,
    _quadrature,
    _report,
    _unwound_turn,
    swept_area,
)
from .shape_core import (
    C1_DIRECTION,
    MassTriple,
    PlanarConfiguration,
    SpatialConfiguration,
    _centroid_residuals,
    _cross,
    _dot,
    _jacobi_rows,
    _JacobiRows,
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

# Smallest sigma eigenvalue below this fraction of the trace marks the
# configuration collinear (sigma has a kernel there).
COLLINEAR_EIG_TOL = 1e-8

# |e x n| below this uses the aligned branch of the decomposition.
ALIGNMENT_TOL = 1e-10

# |n + e| below this marks an antipodal crossing of the normal.
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
    _kernel: _LockedInertia = field(repr=False)

    @property
    def trace(self) -> float:
        return 2.0 * float(self._kernel.inertia[0])

    @property
    def is_collinear(self) -> bool:
        return bool(self._kernel.collinear[0])


@dataclass(frozen=True, eq=False)
class _LockedInertia(_JacobiRows):
    """Closed form of the inertia map for a batch of spatial samples.

    Three bodies always lie in one plane.  With the row kernel's Jacobi
    vectors xi1, xi2 of a sample and S = xi1 xi1^T + xi2 xi2^T, the map is
    sigma = I Id - S.  Its eigenvalues are I/2 - rho, I/2 + rho and I (along
    N), where rho = |(w1, w2)|, and their product is I D with D = |N|^2.
    The smallest one is evaluated as D / (I/2 + rho), free of cancellation.
    """

    det: np.ndarray
    smallest: np.ndarray
    collinear: np.ndarray

    def inverse(self, momentum: np.ndarray, inertia) -> np.ndarray:
        """sigma^{-1} J per sample for momentum rows (3, n); collinear
        samples take J / inertia.

        By Cayley-Hamilton the inverse of sigma on the configuration plane
        is S / D, and along N it is 1 / I.
        """
        det = np.where(self.collinear, 1.0, self.det)
        w = self.xi1 * (_dot(self.xi1, momentum) / det)
        w += self.xi2 * (_dot(self.xi2, momentum) / det)
        w += self.normal * (_dot(self.normal, momentum) / (det * np.maximum(self.inertia, 1e-300)))
        if np.any(self.collinear):
            inertia = np.broadcast_to(np.asarray(inertia, dtype=float), self.det.shape)
            w[:, self.collinear] = momentum[:, self.collinear] / inertia[self.collinear]
        return w

    def axis(self, index=slice(None)) -> np.ndarray:
        """Unit eigenvectors (3, k) of the smallest eigenvalue of the indexed
        samples, S xi - lambda xi for the longer Jacobi vector xi: the
        kernel direction on collinear samples."""
        xi1, xi2 = self.xi1[:, index], self.xi2[:, index]
        xi = np.where(self.w[0, index] >= 0.0, xi1, xi2)
        v = xi1 * _dot(xi1, xi) + xi2 * _dot(xi2, xi) - self.smallest[index] * xi
        return v / np.maximum(np.linalg.norm(v, axis=0), 1e-300)

    def shape_points(self, normals: np.ndarray) -> np.ndarray:
        """Shape-sphere points (3, n) of the samples viewed from the side of
        the normal rows; the points shape_curve gives for the samples
        transported to X."""
        w3 = np.sign(_dot(self.normal, normals)) * np.sqrt(self.det)
        return np.vstack([self.w, w3]) / self.inertia


def _locked_inertia(q: np.ndarray, masses: MassTriple, v=None, times=None) -> _LockedInertia:
    """Inertia maps of samples q (n, 3, 3) about their mass centroids, with
    the angular momenta of velocities v (n, 3, 3) when given, else of the
    positions differenced over the sample times when given."""
    rows = _jacobi_rows(q, v, masses, times)
    det = _dot(rows.normal, rows.normal)
    half = 0.5 * rows.inertia + np.hypot(*rows.w)
    smallest = det / np.maximum(half, 1e-300)
    collinear = smallest < COLLINEAR_EIG_TOL * 2.0 * rows.inertia
    return _LockedInertia(**vars(rows), det=det, smallest=smallest, collinear=collinear)


def sigma_tensor(config: SpatialConfiguration, masses: MassTriple) -> SigmaTensor:
    """Inertia map of a configuration about its mass centroid (the origin
    for centered configurations)."""
    kernel = _locked_inertia(config.as_array()[None, :, :], masses)
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
    stays conditioned near n = e; at n = +-e only the rate about n counts.
    w and normals are (3, n) rows; e is one axis (3,) or one per sample
    (3, n).
    """
    aligned = np.linalg.norm(_cross(normals, e), axis=0) < ALIGNMENT_TOL
    nw = _dot(normals, w)
    denom = np.where(aligned, 1.0, 1.0 + _dot(normals, e))
    return np.where(aligned, nw, (_dot(w, e) + nw) / denom)


def F_of_J(state: OrientedState, Jvec, inertia: float, masses: MassTriple) -> float:
    """Rotation rate of the projected first body due to the rigid part:
    the projected rate (e.w + n.w) / (1 + e.n) of w = sigma^{-1}(J), or n.w
    at n = +-e."""
    w = sigma_inverse(sigma_tensor(state.config, masses), Jvec, inertia)
    return float(_projected_rate(w[:, None], state.n[:, None], state.e)[0])


def _slerp(a: np.ndarray, b: np.ndarray, fractions: np.ndarray) -> np.ndarray:
    angle = np.arccos(np.clip(a @ b, -1.0, 1.0))
    if angle > np.pi - 1e-6:
        raise ValueError("collinear gap too wide to bridge: flanking normals are antipodal")
    if angle < 1e-9:
        out = a[:, None] + fractions * (b - a)[:, None]
    else:
        out = (
            np.sin((1.0 - fractions) * angle) * a[:, None] + np.sin(fractions * angle) * b[:, None]
        ) / np.sin(angle)
    return out / np.linalg.norm(out, axis=0)


def normal_track(traj: Trajectory, e=None, initial_sign: Optional[int] = None) -> np.ndarray:
    """Smooth unit normals (n, 3) along a spatial trajectory.

    Triangle normals with the sign continued sample to sample (the branch
    maximizing the dot product with the previous normal); collinear
    stretches are bridged by spherical interpolation between the flanking
    triangular samples.  The first normal is flipped so n(0) . e >= 0 unless
    initial_sign, +1 or -1, overrides.
    """
    if traj.dim != 3:
        raise ValueError("normal_track expects a spatial trajectory")
    if initial_sign not in (None, 1, -1):
        raise ValueError("initial_sign must be None, +1 or -1")
    kernel = _locked_inertia(traj.positions, traj.masses)
    return _track_normals(kernel, traj.times, e, initial_sign).T


def _track_normals(kernel: _LockedInertia, t: np.ndarray, e, initial_sign=None) -> np.ndarray:
    """normal_track over the samples of an inertia kernel, as (3, n) rows.

    The normal is sigma's eigenvector N = xi1 x xi2; a sample is triangular
    when the sine of the angle between xi1 and xi2 exceeds 1e-10, i.e. when
    |N|^2 > 1e-20 |xi1|^2 |xi2|^2.
    """
    lengths_sq = (0.5 * kernel.inertia + kernel.w[0]) * (0.5 * kernel.inertia - kernel.w[0])
    triangular = kernel.det > 1e-20 * lengths_sq
    if not np.any(triangular):
        raise ValueError("all samples are collinear: the orientation is undefined")
    gaps = _runs(~triangular)
    idx = np.flatnonzero(triangular) if gaps else slice(None)
    units = kernel.normal[:, idx] / np.sqrt(kernel.det[idx])
    if units.shape[1] > 1:
        dots = _dot(units[:, 1:], units[:, :-1])
        units[:, 1:] *= np.cumprod(np.where(dots >= 0.0, 1.0, -1.0))
    reference = np.array([0.0, 0.0, 1.0]) if e is None else _unit(e, "e")
    if initial_sign is not None:
        units *= initial_sign
    elif reference @ units[:, 0] < 0.0:
        units *= -1.0
    if not gaps:
        return units

    out = np.empty((3, t.size))
    out[:, idx] = units
    for run in gaps:
        # a gap is a maximal run, so its flanks are triangular samples
        a, b = run[0] - 1, run[-1] + 1
        if a < 0 or b == t.size:
            out[:, run] = out[:, b if a < 0 else a, None]
        else:
            out[:, run] = _slerp(out[:, a], out[:, b], (t[run] - t[a]) / (t[b] - t[a]))
    return out


def _bad_set(kernel: _LockedInertia, times, e) -> tuple[float, list]:
    """bad_set_measure over the samples of an inertia kernel with momenta.
    The normal N = xi1 x xi2 reverses across a collinear passage, so a step
    between two triangular samples with N_k . N_{k+1} <= 0 passes one."""
    duration = max(float(times[-1] - times[0]), 1e-300)

    def tilted_spin(index):
        size = np.linalg.norm(kernel.momentum[:, index], axis=0)
        spin = size > _BAD_SET_J_TOL * kernel.inertia[index] / duration
        return spin & (np.abs(e @ kernel.axis(index)) > _BAD_SET_AXIS_TOL)

    hits = np.flatnonzero(kernel.collinear)
    flagged = np.zeros(times.size)
    flagged[hits[tilted_spin(hits)]] = 1.0
    ends = ~kernel.collinear[:-1] & ~kernel.collinear[1:]
    steps = np.flatnonzero((_dot(kernel.normal[:, :-1], kernel.normal[:, 1:]) <= 0.0) & ends)
    steps = steps[tilted_spin(steps) & tilted_spin(steps + 1)]
    measure = float(np.trapezoid(flagged, times) + np.sum(times[steps + 1] - times[steps]))
    intervals = [(float(times[run[0]]), float(times[run[-1]])) for run in _runs(flagged)]
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
    e = _unit(e, "e")
    kernel = _locked_inertia(traj.positions, traj.masses, traj.velocities, traj.times)
    return _bad_set(kernel, traj.times, e)


def _runs(mask: np.ndarray) -> list:
    hits = np.flatnonzero(mask)
    if hits.size == 0:
        return []
    return np.split(hits, np.flatnonzero(np.diff(hits) > 1) + 1)


def _steps_pass_antipode(normals: np.ndarray, e: np.ndarray) -> np.ndarray:
    """Indices k of the great-circle steps from normals[:, k] to
    normals[:, k + 1] (rows (3, n)) that pass within ANTIPODAL_TOL of -e.

    A step from a to b can only do so if |a + e| <= |b - a| + ANTIPODAL_TOL;
    this also keeps steps shorter than roundoff, whose great circle is
    undefined, out of the test.  With g = a x b, the point of the circle
    closest to -e lies on the step exactly when (a x e).g <= 0 and
    (e x b).g <= 0, i.e. e.b <= (a.b)(e.a) and e.a <= (a.b)(e.b) for unit
    a, b; its chordal distance from -e is 2 sin(asin(s) / 2) with
    s = |e.g| / |g|.  Closest points at the ends of a step are samples,
    which are tested apart.
    """
    a, b = normals[:, :-1], normals[:, 1:]
    reach = np.linalg.norm(b - a, axis=0) + ANTIPODAL_TOL
    near = np.flatnonzero(np.linalg.norm(a + e[:, None], axis=0) <= reach)
    a, b = a[:, near], b[:, near]
    g, ea, eb, ab = _cross(a, b), e @ a, e @ b, _dot(a, b)
    g_norm = np.linalg.norm(g, axis=0)
    on_step = np.flatnonzero((eb <= ab * ea) & (ea <= ab * eb) & (g_norm > 0.0))
    s = np.abs(e @ g[:, on_step]) / g_norm[on_step]
    passes = 2.0 * np.sin(0.5 * np.arcsin(np.minimum(s, 1.0))) < ANTIPODAL_TOL
    return near[on_step[passes]]


def reconstruct_spatial(
    traj: Trajectory, e=None, antipodal_branch: int = 1, include_oracle: bool = False
) -> ReconstructionReport:
    """Rotation angle of the projected first body over a spatial motion.

    Integrates F(J) and adds twice the area swept about C1 by the shape
    curve of the projected motion.  e defaults to the direction of the
    initial angular momentum (or the third axis if that vanishes).  Supplied
    per-sample normals are used as-is; otherwise they are tracked from the
    triangle orientation.  Where the normal crosses -e the projected angle
    jumps by 2 pi.  Each crossing event, a run of samples within
    ANTIPODAL_TOL of -e or a step between two samples that passes that
    close, adds antipodal_branch * 2 pi to the dynamic term once; the
    samples of a run are excised from the projection, and the report is
    marked modulo-2pi.  A positive bad-set dwell time leaves the result
    uncertified.
    """
    if traj.dim != 3:
        raise ValueError("reconstruct_spatial expects a spatial trajectory")
    if antipodal_branch not in (1, -1):
        raise ValueError("antipodal_branch must be +1 or -1")
    kernel = _locked_inertia(traj.positions, traj.masses, traj.velocities, traj.times)
    if e is None:
        e = kernel.momentum[:, 0]
        e = e if np.linalg.norm(e) > 0.0 else np.array([0.0, 0.0, 1.0])
    e = _unit(e, "e")
    normals = _track_normals(kernel, traj.times, e) if traj.normals is None else traj.normals.T
    if np.any(kernel.inertia <= 0.0):
        raise ValueError("triple collision: the moment of inertia vanishes")
    rate = _projected_rate(kernel.inverse(kernel.momentum, kernel.inertia), normals, e)
    measure, _ = _bad_set(kernel, traj.times, e)
    points = kernel.shape_points(normals)
    # last use of the inertia map's rows and of the momenta
    del kernel

    antipodal = np.linalg.norm(normals + e[:, None], axis=0) < ANTIPODAL_TOL
    runs = _runs(antipodal)
    if runs and (antipodal[0] or antipodal[-1]):
        raise ValueError("normal is antipodal to e at an endpoint: the projection is undefined")
    for run in runs:
        before, after = run[0] - 1, run[-1] + 1
        if np.linalg.norm(normals[:, after] - normals[:, before]) < 1e-10:
            raise ValueError(
                "normal stalls at -e instead of crossing it: the projected motion "
                "cannot be continued"
            )
        # the rate carries an unresolved jump here; bridge it linearly and
        # account for the crossing through the branch convention below
        frac = (traj.times[run] - traj.times[before]) / (traj.times[after] - traj.times[before])
        rate[run] = rate[before] + frac * (rate[after] - rate[before])
    # a step into, out of or within a run belongs to that run's crossing
    steps = _steps_pass_antipode(normals, e)
    crossings = len(runs) + int(np.count_nonzero(~(antipodal[steps] | antipodal[steps + 1])))

    dyn = _quadrature(traj.times, rate) + 2.0 * np.pi * antipodal_branch * crossings

    times, body1 = traj.times, traj.positions[:, 0].T
    if runs:
        keep = ~antipodal
        times, body1 = times[keep], body1[:, keep]
        points, normals = points[:, keep], normals[:, keep]
    curve = ShapeCurve(times, points.T)
    area = swept_area(curve, C1_DIRECTION)
    oracle = None
    if include_oracle:
        oracle = _unwound_turn(_project_positions(body1, normals, e).T, "q1")

    crossed = bool(curve.pole_crossings) or crossings > 0
    return _report(dyn, 2.0 * area, oracle, crossed, traj.n_samples, measure == 0.0, measure)


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
    if _centroid_residuals(v, masses) > 1e-10:
        raise ValueError("velocity carries net linear momentum")
    _require_centered(config, masses)
    q = config.as_array()
    kernel = _locked_inertia(q[None, :, :], masses, v[None])
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
