"""Masses, Jacobi coordinates, the shape-sphere projection, and marked points.

Three centered bodies map to normalized Jacobi coordinates (Z1, Z2): in
the planar case one complex number each at the public entry points, and
(d, n) component rows for batches of planar (d = 2) or spatial (d = 3)
samples.  They map on to shape coordinates
(w1, w2, w3, w4) with w4 = I/2.  Fixing the moment of inertia I = 1 puts the
shape on a sphere of radius 1/2; `atlas` lays out its marked points (binary
collisions C_i, center markers O_i, Euler and Lagrange central
configurations, poles) for a given mass triple.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from typing import Optional

import numpy as np

from .angles import TWO_PI, wrap_angle

__all__ = [
    "MassTriple",
    "PlanarConfiguration",
    "SpatialConfiguration",
    "JacobiPair",
    "ShapePoint",
    "ChartAngles",
    "MarkedAtlas",
    "derive_masses",
    "jacobi",
    "jacobi_pivot3",
    "configuration_from_jacobi",
    "inertia_and_momentum",
    "shape_map",
    "normalize_shape",
    "chart_angles",
    "configuration_from_fiber",
    "equilateral_configuration",
    "euler_collinear_point",
    "atlas",
    "jacobi_series",
    "shape_series",
    "positions_from_jacobi_series",
    "centroid_residual",
    "C1_DIRECTION",
    "O1_DIRECTION",
]

# Unit directions of the meridian-chart axis: C1 marks the collision of
# bodies 2 and 3, O1 marks body 1 sitting at the center of mass.
C1_DIRECTION = np.array([-1.0, 0.0, 0.0])
O1_DIRECTION = np.array([1.0, 0.0, 0.0])

# Relative radius below which a Jacobi polar angle is flagged undefined.
CHART_RADIUS_TOL = 1e-13

_CENTROID_TOL = 1e-12


@dataclass(frozen=True)
class MassTriple:
    """Three positive masses plus the derived Jacobi scale factors.

    The scale factors satisfy 1/mu1^2 = 1/m2 + 1/m3 and
    1/mu2^2 = 1/m1 + 1/(m2 + m3); M is the total mass.
    """

    m1: float
    m2: float
    m3: float
    mu1: float
    mu2: float
    M: float

    def as_array(self) -> np.ndarray:
        return np.array([self.m1, self.m2, self.m3])


def derive_masses(m1, m2, m3) -> MassTriple:
    """Validate three masses and derive the Jacobi scale factors."""
    for name, m in (("m1", m1), ("m2", m2), ("m3", m3)):
        if not np.isfinite(m) or m <= 0:
            raise ValueError(f"mass {name}={m!r} must be a positive finite number")
    m1, m2, m3 = float(m1), float(m2), float(m3)
    mu1 = 1.0 / np.sqrt(1.0 / m2 + 1.0 / m3)
    mu2 = 1.0 / np.sqrt(1.0 / m1 + 1.0 / (m2 + m3))
    return MassTriple(m1, m2, m3, float(mu1), float(mu2), m1 + m2 + m3)


@dataclass(frozen=True, eq=False)
class _Configuration:
    """Positions of the three bodies, each a finite vector of length _DIM."""

    q1: np.ndarray
    q2: np.ndarray
    q3: np.ndarray

    def __post_init__(self):
        for name in ("q1", "q2", "q3"):
            v = np.asarray(getattr(self, name), dtype=float)
            if v.shape != (self._DIM,) or not np.all(np.isfinite(v)):
                raise ValueError(f"{name} must be a finite {self._DIM}-vector")
            object.__setattr__(self, name, v)

    def as_array(self) -> np.ndarray:
        return np.stack([self.q1, self.q2, self.q3])


@dataclass(frozen=True, eq=False)
class PlanarConfiguration(_Configuration):
    """Positions of the three bodies in the plane."""

    _DIM = 2

    def as_complex(self) -> np.ndarray:
        a = self.as_array()
        return a[:, 0] + 1j * a[:, 1]


@dataclass(frozen=True, eq=False)
class SpatialConfiguration(_Configuration):
    """Positions of the three bodies in space."""

    _DIM = 3


def _unit(v, name: str) -> np.ndarray:
    """v / |v| for a finite nonzero 3-vector v; ValueError naming v otherwise."""
    v = np.asarray(v, dtype=float)
    norm = np.linalg.norm(v) if v.shape == (3,) else np.nan
    if not 0.0 < norm < np.inf:
        raise ValueError(f"{name} must be a finite nonzero 3-vector")
    return v / norm


def _centroid_residuals(q: np.ndarray, masses: MassTriple) -> np.ndarray:
    """Relative size of the mass-weighted centroid of samples q (..., 3, d):
    |sum_i m_i q_i| / sum_i m_i |q_i|, zero for samples at the origin.

    Written over the components: reductions over axes of 2 or 3 entries
    cost more per sample than the arithmetic."""
    m1, m2, m3 = masses.m1, masses.m2, masses.m3
    dims = range(q.shape[-1])
    centroid = sum((m1 * q[..., 0, d] + m2 * q[..., 1, d] + m3 * q[..., 2, d]) ** 2 for d in dims)
    r1, r2, r3 = (np.sqrt(sum(q[..., i, d] ** 2 for d in dims)) for i in range(3))
    return np.sqrt(centroid) / np.maximum(m1 * r1 + m2 * r2 + m3 * r3, 1e-300)


def _recenter(q: np.ndarray, masses: MassTriple) -> np.ndarray:
    """Move samples q (..., 3, d) onto their mass centroid in place and
    return the subtracted centroids (..., d)."""
    shift = np.einsum("i,...id->...d", masses.as_array(), q) / masses.M
    q -= shift[..., None, :]
    return shift


def centroid_residual(config, masses: MassTriple) -> float:
    """Relative size of the mass-weighted centroid of a configuration."""
    return float(_centroid_residuals(config.as_array(), masses))


def _require_centered(config, masses: MassTriple):
    res = centroid_residual(config, masses)
    if res > _CENTROID_TOL:
        raise ValueError(
            f"configuration is not centered: relative centroid residual {res:.3e} "
            f"exceeds {_CENTROID_TOL:g}"
        )


@dataclass(frozen=True)
class JacobiPair:
    """Normalized Jacobi coordinates of a planar configuration.

    Z1 is the scaled separation of bodies 2 and 3, Z2 runs from their mass
    center to body 1; both are complex numbers and the map to centered
    configurations is a bijection.
    """

    Z1: complex
    Z2: complex


def jacobi(config: PlanarConfiguration, masses: MassTriple) -> JacobiPair:
    """Normalized Jacobi coordinates of a centered planar configuration."""
    _require_centered(config, masses)
    Z1, Z2 = jacobi_series(config.as_array()[None], masses)
    return JacobiPair(complex(Z1[0]), complex(Z2[0]))


def jacobi_pivot3(config: PlanarConfiguration, masses: MassTriple) -> JacobiPair:
    """Jacobi coordinates built around body 3 instead of body 1.

    Z1 joins bodies 1 and 2 and Z2 runs from their mass center to body 3.
    Relabeling changes the shape projection by a fixed orthogonal map of
    shape space.
    """
    relabeled = derive_masses(masses.m3, masses.m1, masses.m2)
    Z1, Z2 = jacobi_series(config.as_array()[None, [2, 0, 1]], relabeled)
    return JacobiPair(complex(Z1[0]), complex(Z2[0]))


def configuration_from_jacobi(pair: JacobiPair, masses: MassTriple) -> PlanarConfiguration:
    """Invert the Jacobi map back to a centered planar configuration."""
    return PlanarConfiguration(*positions_from_jacobi_series([pair.Z1], [pair.Z2], masses)[0])


def inertia_and_momentum(pair: JacobiPair, pair_rate: JacobiPair) -> tuple[float, float]:
    """Moment of inertia and angular momentum from Jacobi data.

    I = |Z1|^2 + |Z2|^2 and J = Im(conj(Z1) dZ1 + conj(Z2) dZ2), which
    agrees with sum_i m_i (x_i vy_i - y_i vx_i) over the bodies.
    """
    pairs = (pair.Z1, pair.Z2, pair_rate.Z1, pair_rate.Z2)
    xi1, xi2, eta1, eta2 = (_complex_rows([z]) for z in pairs)
    rows = _rows_from_jacobi(xi1, xi2, _momentum(xi1, xi2, eta1, eta2))
    return float(rows.inertia[0]), float(rows.momentum[0])


@dataclass(frozen=True)
class ShapePoint:
    """Shape coordinates (w1, w2, w3, w4) of a planar configuration.

    w4 equals half the moment of inertia and (w1, w2, w3) lies on the sphere
    of radius w4; w3 is proportional to the signed triangle area.
    """

    w1: float
    w2: float
    w3: float
    w4: float

    def __post_init__(self):
        coords = (self.w1, self.w2, self.w3, self.w4)
        if not all(np.isfinite(c) for c in coords):
            raise ValueError("shape coordinates must be finite")
        if self.w4 < 0.0:
            raise ValueError("w4 must be nonnegative")
        radius_sq = self.w1**2 + self.w2**2 + self.w3**2
        if abs(radius_sq - self.w4**2) > 1e-12 * max(self.w4**2, 1e-300):
            raise ValueError("shape coordinates violate w1^2 + w2^2 + w3^2 = w4^2")

    def vec(self) -> np.ndarray:
        return np.array([self.w1, self.w2, self.w3])


def shape_map(pair: JacobiPair) -> ShapePoint:
    """Shape coordinates of the configuration with Jacobi coordinates (Z1, Z2).

    w4 + w1 = |Z1|^2, w4 - w1 = |Z2|^2 and w2 + i w3 = conj(Z1) Z2.
    """
    w = shape_series(np.array([pair.Z1], dtype=complex), np.array([pair.Z2], dtype=complex))[0]
    return ShapePoint(*(float(c) for c in w))


def normalize_shape(p: ShapePoint) -> ShapePoint:
    """Rescale a shape point onto the radius-1/2 sphere (w4 = 1/2)."""
    if p.w4 <= 0.0:
        raise ValueError("triple collision: no direction is defined at the shape origin")
    s = 0.5 / p.w4
    return ShapePoint(p.w1 * s, p.w2 * s, p.w3 * s, 0.5)


@dataclass(frozen=True)
class ChartAngles:
    """Polar data of a Jacobi pair: Z1 = r1 e^{i xi1}, Z2 = r2 e^{i xi2}.

    xi is the rotation angle from Z1 to Z2, stored in (-pi, pi]; it is also
    the meridian longitude of the shape point.  A vanishing Z has no polar
    angle, recorded in the defined flags rather than raised.
    """

    r1: float
    r2: float
    xi1: float
    xi2: float
    xi: float
    defined1: bool
    defined2: bool


def chart_angles(pair: JacobiPair) -> ChartAngles:
    """Polar decomposition of the Jacobi pair with undefined-angle flags."""
    r1 = abs(pair.Z1)
    r2 = abs(pair.Z2)
    floor = CHART_RADIUS_TOL * np.sqrt(r1 * r1 + r2 * r2)
    defined1 = bool(r1 > floor)
    defined2 = bool(r2 > floor)
    xi1 = float(np.angle(pair.Z1)) if defined1 else 0.0
    xi2 = float(np.angle(pair.Z2)) if defined2 else 0.0
    xi = wrap_angle(xi2 - xi1) if (defined1 and defined2) else 0.0
    return ChartAngles(float(r1), float(r2), xi1, xi2, xi, defined1, defined2)


def configuration_from_fiber(
    p: ShapePoint, angle: float, which: str, masses: MassTriple
) -> PlanarConfiguration:
    """Configuration over a shape point with one Jacobi polar angle fixed.

    The configurations over a shape point form a circle; prescribing the
    polar angle of Z1 (which="xi1") or of Z2 (which="xi2") selects one.  A
    chart is only valid where its radius is positive.
    """
    if which not in ("xi1", "xi2"):
        raise ValueError("which must be 'xi1' or 'xi2'")
    if p.w4 <= 0.0:
        raise ValueError("triple collision: the fiber over the shape origin is empty")
    r1 = float(np.sqrt(max(p.w4 + p.w1, 0.0)))
    r2 = float(np.sqrt(max(p.w4 - p.w1, 0.0)))
    floor = CHART_RADIUS_TOL * np.sqrt(2.0 * p.w4)
    xi = float(np.arctan2(p.w3, p.w2))
    if which == "xi1":
        if r1 <= floor:
            raise ValueError("chart xi1 is invalid here (Z1 = 0): use chart xi2")
        xi1 = float(angle)
        xi2 = xi1 + xi
    else:
        if r2 <= floor:
            raise ValueError("chart xi2 is invalid here (Z2 = 0): use chart xi1")
        xi2 = float(angle)
        xi1 = xi2 - xi
    pair = JacobiPair(r1 * np.exp(1j * xi1), r2 * np.exp(1j * xi2))
    return configuration_from_jacobi(pair, masses)


def equilateral_configuration(masses: MassTriple) -> PlanarConfiguration:
    """Equilateral configuration, labels 1, 2, 3 counterclockwise, I = 1."""
    base = np.array([[0.0, 0.0], [1.0, 0.0], [0.5, 0.5 * np.sqrt(3.0)]])
    _recenter(base, masses)
    inertia = float(np.sum(masses.as_array() * np.sum(base**2, axis=1)))
    scaled = base / np.sqrt(inertia)
    return PlanarConfiguration(scaled[0], scaled[1], scaled[2])


def _collinear_imbalance(mj: float, mi: float, mk: float):
    """Imbalance of the accelerations of bodies j, i, k at 0, 1, 1 + x on a
    line (unit gravity constant): zero exactly when they are an affine
    function of position.  Positive for small x, decreasing through the
    one positive root."""

    def imbalance(x):
        aj = mi + mk / (1.0 + x) ** 2
        ai = -mj + mk / x**2
        ak = -mj / (1.0 + x) ** 2 - mi / x**2
        return (ai - aj) * (1.0 + x) - (ak - aj)

    return imbalance


def _collinear_ratio(mj: float, mi: float, mk: float) -> float:
    """Positive root of the collinear imbalance by bisection.

    The bracket starts at [1e-9, 1] and doubles its upper end until the
    imbalance changes sign; bisection then halves it until it is no wider
    than 1e-15 or holds no float between its ends, and returns its midpoint
    (or a point where the imbalance is exactly zero).
    """
    imbalance = _collinear_imbalance(float(mj), float(mi), float(mk))
    lo, hi = 1e-9, 1.0
    while (value := imbalance(hi)) > 0.0:
        hi *= 2.0
        if hi > 1e12:
            raise RuntimeError("failed to bracket the collinear ratio root")
    for _ in range(200):
        if value == 0.0:
            return hi
        mid = 0.5 * (lo + hi)
        if hi - lo <= 1e-15 or not lo < mid < hi:
            return mid
        value = imbalance(mid)
        if value > 0.0:
            lo = mid
        else:
            hi = mid
    raise RuntimeError(
        f"collinear ratio root did not converge: bracket [{lo!r}, {hi!r}] after 200 bisections"
    )


def _euler_angle(masses: MassTriple, i: int) -> float:
    """Equator angle in [0, 2 pi) of the Euler point with body i in the middle.

    The bodies sit at 0, 1 and 1 + ratio on the real axis, so the Jacobi
    pair is real and its normalized shape point is
    (cos 2 theta, sin 2 theta, 0) / 2 with theta = atan2(Z2, Z1).
    """
    if i not in (1, 2, 3):
        raise ValueError(f"central body index must be 1, 2 or 3, got {i!r}")
    j, k = (b for b in (1, 2, 3) if b != i)
    m = masses.as_array()
    x = np.zeros((1, 3, 1))
    x[0, i - 1] = 1.0
    x[0, k - 1] = 1.0 + _collinear_ratio(m[j - 1], m[i - 1], m[k - 1])
    Z1, Z2 = _jacobi_product(x, masses)[:, 0, 0]
    return float(2.0 * np.arctan2(Z2, Z1) % TWO_PI)


def euler_collinear_point(masses: MassTriple, i: int) -> ShapePoint:
    """Normalized shape point of the collinear central configuration with
    body i between the other two.

    The adjacent-distance ratio solves the classical quintic condition that
    the acceleration be an affine function of position along the line; the
    condition has exactly one positive root, found by bracketing.
    """
    theta = _euler_angle(masses, i)
    return ShapePoint(0.5 * np.cos(theta), 0.5 * np.sin(theta), 0.0, 0.5)


@dataclass(frozen=True, eq=False)
class MarkedAtlas:
    """Marked points of the radius-1/2 shape sphere for one mass triple.

    Equator points are also stored as counterclockwise angles from O1 in the
    (w1, w2) plane, which makes ordering assertions exact; alpha holds the
    three half-separation angles between collision points and beta the
    longitude of the Lagrange point L1.
    """

    alpha: np.ndarray
    beta: float
    points: dict
    equator_angles: dict

    def to_json_dict(self) -> dict:
        out = {name: [float(c) for c in vec] for name, vec in self.points.items()}
        out["alpha"] = [float(a) for a in self.alpha]
        out["beta"] = float(self.beta)
        return out


def atlas(masses: MassTriple) -> MarkedAtlas:
    """Lay out the marked points of the shape sphere for a mass triple.

    cos(alpha2) = sqrt(m1 m3 / ((m1+m2)(m3+m2))) and cyclic analogues; the
    counterclockwise equator angle from C1 to C3 is 2 alpha2, from C3 to C2
    is 2 alpha1 and from C2 back to C1 is 2 alpha3, giving the ordering
    C1, O2, C3, O1, C2, O3.  L1 is the projected equilateral configuration
    with counterclockwise labels, L2 its mirror below the collinear plane,
    and P1/P2 the poles of maximal triangle area; beta = atan2(w3, w2) at L1.
    """
    m1, m2, m3 = masses.m1, masses.m2, masses.m3
    a1 = float(np.arccos(np.sqrt(m2 * m3 / ((m2 + m1) * (m3 + m1)))))
    a2 = float(np.arccos(np.sqrt(m1 * m3 / ((m1 + m2) * (m3 + m2)))))
    a3 = float(np.arccos(np.sqrt(m1 * m2 / ((m3 + m2) * (m3 + m1)))))

    angles = {
        "O1": 0.0,
        "C2": 2.0 * (a1 + a2) - np.pi,
        "O3": 2.0 * a2,
        "C1": np.pi,
        "O2": 2.0 * (a1 + a2),
        "C3": np.pi + 2.0 * a2,
        "E1": _euler_angle(masses, 1),
        "E2": _euler_angle(masses, 2),
        "E3": _euler_angle(masses, 3),
    }

    points = {
        name: np.array([0.5 * np.cos(theta), 0.5 * np.sin(theta), 0.0])
        for name, theta in angles.items()
    }

    equilateral = np.array([[[0.0, 0.0], [1.0, 0.0], [0.5, 0.5 * np.sqrt(3.0)]]])
    rows = _jacobi_rows(equilateral, None, masses)
    w = rows.w[:, 0]
    points["L1"] = w * (1.0 / rows.inertia[0])
    points["L2"] = points["L1"] * np.array([1.0, 1.0, -1.0])
    points["P1"] = np.array([0.0, 0.0, 0.5])
    points["P2"] = np.array([0.0, 0.0, -0.5])

    return MarkedAtlas(
        alpha=np.array([a1, a2, a3]),
        beta=float(np.arctan2(w[2], w[1])),
        points=points,
        equator_angles={k: float(v) for k, v in angles.items()},
    )


# ---------------------------------------------------------------------------
# vectorized helpers over sampled batches of configurations


def jacobi_series(positions: np.ndarray, masses: MassTriple) -> tuple[np.ndarray, np.ndarray]:
    """Jacobi map applied to a batch of planar samples, shape (n, 3, 2).

    The map is linear, so it applies verbatim to velocities as well.
    """
    if np.shape(positions)[1:] != (3, 2):
        raise ValueError(f"planar samples must have shape (n, 3, 2), got {np.shape(positions)}")
    xi1, xi2 = _jacobi_product(np.asarray(positions), masses)
    return xi1[0] + 1j * xi1[1], xi2[0] + 1j * xi2[1]


@lru_cache(maxsize=64)
def _jacobi_matrices(masses: MassTriple, d: int) -> tuple[np.ndarray, np.ndarray]:
    """The Jacobi map A (2 x 3 over the bodies) as kron(A, I_d) over the
    entries b d + i of (n, 3, d) samples, and its inverse M^-1 A^T on
    centered samples as kron(M^-1 A^T, I_d); shared between calls, so never
    written."""
    mu1, mu2, m23 = masses.mu1, masses.mu2, masses.m2 + masses.m3
    a = np.array([[0.0, -mu1, mu1], [mu2, -mu2 * masses.m2 / m23, -mu2 * masses.m3 / m23]])
    return np.kron(a, np.eye(d)), np.kron((a / masses.as_array()).T, np.eye(d))


def _jacobi_product(q: np.ndarray, masses: MassTriple) -> np.ndarray:
    """C-ordered Jacobi rows (2, d, n) of samples q (n, 3, d), one product
    over the (3d, n) transpose of q; a view for C-ordered q, a copy of any
    other layout, with the same rows."""
    n, _, d = q.shape
    return np.matmul(_jacobi_matrices(masses, d)[0], q.reshape(n, 3 * d).T).reshape(2, d, n)


def _bodies_from_rows(rows: np.ndarray, masses: MassTriple) -> np.ndarray:
    """C-ordered centered samples (n, 3, d) of Jacobi rows (2d, n), one
    product with M^-1 A^T."""
    n, d = rows.shape[1], len(rows) // 2
    return np.matmul(rows.T, _jacobi_matrices(masses, d)[1].T).reshape(n, 3, d)


def shape_series(Z1: np.ndarray, Z2: np.ndarray) -> np.ndarray:
    """Shape coordinates for batches of Jacobi pairs; rows (w1, w2, w3, w4)."""
    rows = _rows_from_jacobi(_complex_rows(Z1), _complex_rows(Z2))
    return np.stack([*rows.w, 0.5 * rows.inertia], axis=-1)


def _complex_rows(z) -> np.ndarray:
    """Component rows (2, ...) of complex numbers z."""
    return np.stack([np.real(z), np.imag(z)])


def _dot(a: np.ndarray, b: np.ndarray, out=None) -> np.ndarray:
    """Per-sample dot products of (d, n) component rows; b may be one
    d-vector.  Summed in the order 0, d - 1, ..., 1, np.einsum's order for a
    contiguous length-3 axis, so bit-identical to einsum over (n, 3) samples."""
    out = np.multiply(a[0], b[0], out=out)
    for i in range(len(a) - 1, 0, -1):
        out += a[i] * b[i]
    return out


def _cross(a: np.ndarray, b: np.ndarray, out=None) -> np.ndarray:
    """Per-sample cross products a x b of (d, n) rows, a or b maybe one
    d-vector: (3, n) rows in space, the (n,) third component in the plane."""
    if len(a) == 2:
        out = np.multiply(a[0], b[1], out=out)
        out -= a[1] * b[0]
        return out
    if out is None:
        out = np.empty((3,) + np.broadcast_shapes(np.shape(a[0]), np.shape(b[0])))
    for i, j, k in ((0, 1, 2), (1, 2, 0), (2, 0, 1)):
        np.multiply(a[j], b[k], out=out[i])
        out[i] -= a[k] * b[j]
    return out


@dataclass(frozen=True, eq=False)
class _JacobiRows:
    """Jacobi rows xi1, xi2 (d, n) of planar (d = 2) or spatial (d = 3)
    samples and their rotation invariants I = |xi1|^2 + |xi2|^2, shape rows
    w1 = (|xi1|^2 - |xi2|^2)/2, w2 = xi1 . xi2, N = xi1 x xi2 and, from the
    velocity rows eta, J = xi1 x eta1 + xi2 x eta2 (on centered samples,
    sum_i m_i q_i x v_i, as the mass-weighted Jacobi map is orthogonal).
    In the plane N is the (n,) row w3, stored as w[2]; in space N is (3, n)
    rows and w holds (w1, w2), as w3 = +-|N| takes the viewing side's sign.
    """

    xi1: np.ndarray
    xi2: np.ndarray
    inertia: np.ndarray
    w: np.ndarray
    normal: np.ndarray
    momentum: Optional[np.ndarray]


def _jacobi_rows(
    q: np.ndarray, v: Optional[np.ndarray], masses: MassTriple, times=None
) -> _JacobiRows:
    """The row kernel of samples q and velocities v (or None), both (n, 3, d),
    each mapped by one _jacobi_product, so every row is C-ordered whatever
    their layout; the velocity rows are dropped once J is formed.

    Without v, J comes from the Jacobi rows differenced over the sample
    times by finite_difference_velocities' stencils: both maps are linear
    and a translation has no Jacobi component, so these rates are the Jacobi
    rows of the differenced, recentered body velocities.  Without either, J
    is None.
    """
    xi = _jacobi_product(q, masses)
    if v is not None:
        momentum = _momentum(*xi, *_jacobi_product(v, masses))
    elif times is not None:
        if len(times) < 3:
            raise ValueError("need at least 3 samples to difference velocities")
        momentum = _momentum(*xi, *np.gradient(xi, times, axis=-1, edge_order=2))
    else:
        momentum = None
    return _rows_from_jacobi(*xi, momentum)


def _momentum(xi1, xi2, eta1, eta2) -> np.ndarray:
    """J = xi1 x eta1 + xi2 x eta2 of Jacobi rows xi and their rates eta."""
    momentum = _cross(xi1, eta1)
    momentum += _cross(xi2, eta2)
    return momentum


def _rows_from_jacobi(xi1, xi2, momentum=None) -> _JacobiRows:
    """The invariants of Jacobi rows (d, ...), in place; planar N fills w[2]."""
    a = _dot(xi1, xi1)
    b = _dot(xi2, xi2)
    w = np.empty((3 if len(xi1) == 2 else 2,) + a.shape)
    np.subtract(a, b, out=w[0])
    w[0] *= 0.5
    _dot(xi1, xi2, out=w[1])
    normal = _cross(xi1, xi2, out=w[2] if len(w) == 3 else None)
    inertia = np.add(a, b, out=a)
    return _JacobiRows(xi1, xi2, inertia, w, normal, momentum)


def positions_from_jacobi_series(
    Z1: np.ndarray, Z2: np.ndarray, masses: MassTriple
) -> np.ndarray:
    """Invert the Jacobi map for batches; returns centered (n, 3, 2) samples."""
    return _bodies_from_rows(np.stack([np.real(Z1), np.imag(Z1), np.real(Z2), np.imag(Z2)]), masses)
