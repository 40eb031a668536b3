"""Trajectory container, file input/output, differencing, and motion generators."""

from __future__ import annotations

import inspect
import json
from dataclasses import dataclass
from typing import Optional

import numpy as np

from .angles import TWO_PI
from .shape_core import (
    MassTriple,
    _centroid_residuals,
    _recenter,
    _unit,
    derive_masses,
    positions_from_jacobi_series,
)

__all__ = [
    "Trajectory",
    "ParseError",
    "parse",
    "serialize",
    "finite_difference_velocities",
    "resample",
    "generate",
    "embed_planar",
    "apply_rotation_profile",
    "rotation_matrices",
]


class ParseError(ValueError):
    """Malformed trajectory file."""


def _checked_times(times) -> np.ndarray:
    """times as a float array; ValueError unless it is a nonempty, finite,
    strictly increasing 1-d grid."""
    t = np.asarray(times, dtype=float)
    if t.ndim != 1 or t.size == 0 or not np.all(np.isfinite(t)):
        raise ValueError("times must be a nonempty finite 1-d array")
    if t.size > 1 and np.any(np.diff(t) <= 0.0):
        raise ValueError("times must be strictly increasing")
    return t


@dataclass(frozen=True, eq=False)
class Trajectory:
    """Sampled three-body motion.

    positions has shape (n, 3, dim) with dim 2 or 3; velocities (same shape)
    and per-sample unit normals (n, 3; spatial only) are optional.  Samples
    must be centered; build through `from_samples` to recenter raw data.
    max_center_shift records the largest recentering applied on ingest.
    """

    masses: MassTriple
    times: np.ndarray
    positions: np.ndarray
    velocities: Optional[np.ndarray] = None
    normals: Optional[np.ndarray] = None
    max_center_shift: float = 0.0

    def __post_init__(self):
        t = _checked_times(self.times)
        q = np.asarray(self.positions, dtype=float)
        object.__setattr__(self, "times", t)
        object.__setattr__(self, "positions", q)
        if q.ndim != 3 or q.shape[0] != t.size or q.shape[1] != 3 or q.shape[2] not in (2, 3):
            raise ValueError("positions must have shape (n, 3, 2) or (n, 3, 3)")
        if not np.all(np.isfinite(q)):
            raise ValueError("positions must be finite")
        if np.any(_centroid_residuals(q, self.masses) > 1e-10):
            raise ValueError(
                "positions are not centered on the mass centroid; "
                "use Trajectory.from_samples to recenter"
            )
        if self.velocities is not None:
            v = np.asarray(self.velocities, dtype=float)
            object.__setattr__(self, "velocities", v)
            if v.shape != q.shape or not np.all(np.isfinite(v)):
                raise ValueError("velocities must match positions in shape and be finite")
            if np.any(_centroid_residuals(v, self.masses) > 1e-10):
                raise ValueError("velocities carry net linear momentum")
        if self.normals is not None:
            if q.shape[2] != 3:
                raise ValueError("normals are defined on spatial (dim 3) trajectories only")
            nrm = np.asarray(self.normals, dtype=float)
            object.__setattr__(self, "normals", nrm)
            if nrm.shape != (t.size, 3) or not np.all(np.isfinite(nrm)):
                raise ValueError("normals must have shape (n, 3) and be finite")
            if np.any(np.abs(np.linalg.norm(nrm, axis=1) - 1.0) > 1e-8):
                raise ValueError("normals must be unit vectors")

    @property
    def dim(self) -> int:
        return self.positions.shape[2]

    @property
    def n_samples(self) -> int:
        return self.times.size

    @property
    def duration(self) -> float:
        return float(self.times[-1] - self.times[0])

    @classmethod
    def from_samples(cls, masses, times, positions, velocities=None, normals=None):
        """Build a trajectory, recentering positions on the mass centroid and
        removing any net momentum drift from the velocities."""
        q = np.array(positions, dtype=float)
        max_shift = float(np.max(np.linalg.norm(_recenter(q, masses), axis=1), initial=0.0))
        v = None
        if velocities is not None:
            v = np.array(velocities, dtype=float)
            drift = _recenter(v, masses)
            max_shift = max(max_shift, float(np.max(np.linalg.norm(drift, axis=1), initial=0.0)))
        return cls(masses, np.asarray(times, dtype=float), q, v, normals, max_shift)

    def ensure_velocities(self) -> "Trajectory":
        """Return self if velocities are present, else add finite differences."""
        if self.velocities is not None:
            return self
        return finite_difference_velocities(self)


def finite_difference_velocities(traj: Trajectory) -> Trajectory:
    """Differentiate positions with three-point stencils, exact on quadratics.

    numpy's second-order gradient: the nonuniform central stencil inside
    and the matching one-sided stencils at the ends.  Centered positions
    carry no net momentum, so the roundoff left in the mass-weighted mean
    of the differences is removed, as from_samples does for supplied
    velocities.
    """
    if traj.n_samples < 3:
        raise ValueError("need at least 3 samples to difference velocities")
    t = traj.times
    q = traj.positions
    v = np.gradient(q, t, axis=0, edge_order=2)
    _recenter(v, traj.masses)
    return Trajectory(traj.masses, t, q, v, traj.normals, traj.max_center_shift)


def _cyclic_reduction(lower: np.ndarray, upper: np.ndarray, rhs: np.ndarray) -> np.ndarray:
    """Solve lower[i] x[i-1] + x[i] + upper[i] x[i+1] = rhs[..., i].

    Rows run along the last axis of rhs and have unit diagonal, with
    lower[0] = upper[-1] = 0, a row count of 2^p - 1 and |lower| + |upper|
    < 1 (strict diagonal dominance), which the reduced systems inherit, so
    no pivoting is needed.  Cyclic reduction (Hockney, J. ACM 12, 1965):
    each level eliminates the even rows from the odd ones in whole-array
    passes and halves the system, and back substitution recovers the even
    rows from their two solved neighbours.
    """
    if rhs.shape[-1] == 1:
        return rhs
    a0, c0, d0 = lower[0::2], upper[0::2], rhs[..., 0::2]
    a1, c1, d1 = lower[1::2], upper[1::2], rhs[..., 1::2]
    scale = 1.0 / (1.0 - a1 * c0[:-1] - c1 * a0[1:])
    alpha = a1 * scale
    gamma = c1 * scale
    kept = _cyclic_reduction(
        -alpha * a0[:-1],
        -gamma * c0[1:],
        d1 * scale - alpha * d0[..., :-1] - gamma * d0[..., 1:],
    )
    x = np.empty_like(rhs)
    x[..., 1::2] = kept
    x0 = x[..., 0::2]
    x0[...] = d0
    x0[..., 1:] -= a0[1:] * kept
    x0[..., :-1] -= c0[:-1] * kept
    return x


def _spline_slopes(t: np.ndarray, y: np.ndarray) -> np.ndarray:
    """Knot first derivatives of the not-a-knot cubic spline through y.

    t is a strictly increasing grid of n samples and y has shape (n,) or
    (n, k).  The system is that of scipy.interpolate.CubicSpline with
    bc_type="not-a-knot" (de Boor, A Practical Guide to Splines, 1978):
    the line through 2 samples, the parabola through 3, and for n >= 4 the
    tridiagonal continuity rows with the two not-a-knot end rows folded
    into their neighbours, which leaves a diagonally dominant system in the
    n - 2 interior slopes.  A single sample has slope 0.
    """
    y = np.asarray(y, dtype=float)
    n = t.size
    if n == 1:
        return np.zeros_like(y)
    h = np.diff(t)
    cols = np.ascontiguousarray(y.reshape(n, -1).T)
    slope = np.diff(cols, axis=-1) / h
    if n == 2:
        s = np.repeat(slope, 2, axis=-1)
    elif n == 3:
        mid = (h[1] * slope[:, 0] + h[0] * slope[:, 1]) / (h[0] + h[1])
        s = np.stack([2.0 * slope[:, 0] - mid, mid, 2.0 * slope[:, 1] - mid], axis=-1)
    else:
        # continuity rows i = 1..n-2:
        # h[i] s[i-1] + 2 (h[i-1] + h[i]) s[i] + h[i-1] s[i+1] = r[i]
        diag = 2.0 * (h[:-1] + h[1:])
        r = 3.0 * (h[1:] * slope[:, :-1] + h[:-1] * slope[:, 1:])
        # not-a-knot rows h[1] s[0] + d0 s[1] = b0 and d1 s[-2] + h[-2] s[-1]
        # = b1, subtracted from rows 1 and n-2
        d0 = t[2] - t[0]
        b0 = ((h[0] + 2.0 * d0) * h[1] * slope[:, 0] + h[0] ** 2 * slope[:, 1]) / d0
        d1 = t[-1] - t[-3]
        b1 = (h[-1] ** 2 * slope[:, -2] + (2.0 * d1 + h[-1]) * h[-2] * slope[:, -1]) / d1
        diag[0] -= d0
        diag[-1] -= d1
        r[:, 0] -= b0
        r[:, -1] -= b1
        # unit-diagonal rows, padded to 2^p - 1 with decoupled zero rows
        m = n - 2
        size = 2 ** m.bit_length() - 1
        lower = np.zeros(size)
        upper = np.zeros(size)
        rhs = np.zeros((cols.shape[0], size))
        lower[1:m] = h[2:] / diag[1:]
        upper[: m - 1] = h[:-2] / diag[:-1]
        rhs[:, :m] = r / diag
        inner = _cyclic_reduction(lower, upper, rhs)[:, :m]
        s = np.empty_like(cols)
        s[:, 1:-1] = inner
        s[:, 0] = (b0 - d0 * inner[:, 0]) / h[1]
        s[:, -1] = (b1 - d1 * inner[:, -1]) / h[-2]
    return s.T.reshape(y.shape)


def resample(traj: Trajectory, n: int) -> Trajectory:
    """Cubic resampling of positions onto a uniform grid of n samples.

    The cubic returns the endpoint samples exactly; recentering the result
    can move them at roundoff.  The not-a-knot spline is a line through 2
    samples and a parabola through 3, so any input of at least 2 samples
    resamples, and quadratic motions exactly.  Velocities, when present,
    are regenerated from the position spline; normals are renormalized
    linear interpolants.
    """
    if n < 2:
        raise ValueError("resample needs n >= 2")
    if traj.n_samples < 2:
        raise ValueError("resample needs a motion of at least 2 samples")
    t = traj.times
    t_new = np.linspace(t[0], t[-1], n)
    y = traj.positions.reshape(t.size, -1)
    m = _spline_slopes(t, y)
    # the Hermite cubic of the interval holding each new time, in powers of
    # the offset u from its left knot
    i = np.minimum(np.searchsorted(t, t_new, side="right") - 1, t.size - 2)
    h = (t[i + 1] - t[i])[:, None]
    u = (t_new - t[i])[:, None]
    chord = (y[i + 1] - y[i]) / h
    excess = (m[i] + m[i + 1] - 2.0 * chord) / h
    cubic = excess / h
    quadratic = (chord - m[i]) / h - excess
    q_new = ((cubic * u + quadratic) * u + m[i]) * u + y[i]
    # the last new time is the last knot: its data, not the cubic's roundoff
    q_new[-1] = y[-1]
    q_new = q_new.reshape((n,) + traj.positions.shape[1:])
    v_new = None
    if traj.velocities is not None:
        v_new = (3.0 * cubic * u + 2.0 * quadratic) * u + m[i]
        v_new[-1] = m[-1]
        v_new = v_new.reshape(q_new.shape)
    normals = None
    if traj.normals is not None:
        normals = np.stack([np.interp(t_new, t, traj.normals[:, c]) for c in range(3)], axis=1)
        normals /= np.linalg.norm(normals, axis=1, keepdims=True)
    return Trajectory.from_samples(traj.masses, t_new, q_new, v_new, normals)


# ---------------------------------------------------------------------------
# file formats


def _csv_columns(dim: int, has_velocities: bool, has_normals: bool) -> list[str]:
    axes = "xyz"[:dim]
    cols = ["t"]
    cols += [f"q{i}{a}" for i in (1, 2, 3) for a in axes]
    if has_velocities:
        cols += [f"v{i}{a}" for i in (1, 2, 3) for a in axes]
    if has_normals:
        cols += ["nx", "ny", "nz"]
    return cols


def _header_layout(header: Optional[list[str]]):
    if header is None:
        raise ParseError("empty CSV: no header row found")
    for dim in (2, 3):
        for has_v in (False, True):
            for has_n in ((False, True) if dim == 3 else (False,)):
                if header == _csv_columns(dim, has_v, has_n):
                    return dim, has_v, has_n
    raise ParseError(f"unrecognized CSV header: {','.join(header)}")


def parse(source, format: str, masses: Optional[MassTriple] = None) -> Trajectory:
    """Parse a trajectory from CSV or JSON text.

    CSV carries no masses, so they must be supplied; JSON embeds them but an
    explicit argument takes precedence.  Positions are recentered on ingest
    and the applied shift is recorded on the result.
    """
    if isinstance(source, bytes):
        try:
            source = source.decode("utf-8")
        except UnicodeDecodeError as exc:
            raise ParseError(f"input is not UTF-8 text: {exc}") from exc
    if format == "csv":
        return _parse_csv(source, masses)
    if format == "json":
        return _parse_json(source, masses)
    raise ParseError(f"unknown trajectory format {format!r}")


def _read_csv_table(text: str, layout):
    """Header layout and float rows of comma-separated text.

    Blank lines and lines starting with '#' are skipped.  The first other
    line is the header, split into stripped names; layout(header) raises
    ParseError unless it is valid (header is None when the text has none)
    and its result is returned with the (rows, columns) data.  Fields are
    read by numpy's float parser, which rounds as float() does but takes
    no '_' separators and no non-ASCII digits.  Malformed rows raise
    ParseError naming the first bad data row, counted from 1.
    """
    lines = [line.strip() for line in text.splitlines()]
    lines = [line for line in lines if line and not line.startswith("#")]
    header = [c.strip() for c in lines[0].split(",")] if lines else None
    found = layout(header)
    rows = lines[1:]
    data = np.empty((0, len(header)))
    if rows:
        try:
            data = np.loadtxt(rows, delimiter=",", comments=None, ndmin=2)
        except ValueError:
            pass
        if data.shape != (len(rows), len(header)):
            raise ParseError(_first_bad_row(rows, len(header)))
    bad = np.flatnonzero(~np.all(np.isfinite(data), axis=1))
    if bad.size:
        raise ParseError(f"data row {bad[0] + 1}: non-finite number")
    return found, data


def _first_bad_row(rows: list[str], width: int) -> str:
    """The error of the first data row that is not `width` numbers, each
    row read on its own by the parser that rejected the table."""
    for k, line in enumerate(rows, start=1):
        count = line.count(",") + 1
        if count != width:
            return f"data row {k}: expected {width} columns, got {count}"
        try:
            np.loadtxt([line], delimiter=",", comments=None)
        except ValueError:
            return f"data row {k}: non-numeric field"


# Table rows per block of CSV text, about 1 MB at 13 columns: a writer
# holds one block's strings at a time, not the whole file's.
_CSV_BLOCK_ROWS = 4096


def _csv_blocks(columns: list[str], table: np.ndarray):
    """CSV text in blocks: the header line, then one line per table row,
    each value written by repr, _CSV_BLOCK_ROWS rows to a block."""
    yield ",".join(columns) + "\n"
    for start in range(0, table.shape[0], _CSV_BLOCK_ROWS):
        rows = table[start : start + _CSV_BLOCK_ROWS].tolist()
        yield "".join([",".join(map(repr, row)) + "\n" for row in rows])


def _parse_csv(text: str, masses: Optional[MassTriple]) -> Trajectory:
    if masses is None:
        raise ParseError("CSV trajectories carry no masses: pass them explicitly")
    (dim, has_v, has_n), data = _read_csv_table(text, _header_layout)
    if data.shape[0] == 0:
        raise ParseError("CSV contains no data rows")
    t = data[:, 0]
    bad = np.flatnonzero(np.diff(t) <= 0.0)
    if bad.size:
        raise ParseError(f"time does not increase at data row {bad[0] + 2}")
    col = 1
    q = data[:, col : col + 3 * dim].reshape(-1, 3, dim)
    col += 3 * dim
    v = None
    if has_v:
        v = data[:, col : col + 3 * dim].reshape(-1, 3, dim)
        col += 3 * dim
    normals = data[:, col : col + 3] if has_n else None
    try:
        return Trajectory.from_samples(masses, t, q, v, normals)
    except ValueError as exc:
        raise ParseError(str(exc)) from exc


def _parse_json(text: str, masses: Optional[MassTriple]) -> Trajectory:
    try:
        doc = json.loads(text)
    except json.JSONDecodeError as exc:
        raise ParseError(f"invalid JSON: {exc}") from exc
    if not isinstance(doc, dict) or not isinstance(doc.get("samples"), list):
        raise ParseError("JSON trajectory must be an object with a 'samples' list")
    if not doc["samples"]:
        raise ParseError("JSON trajectory contains no samples")
    if masses is None:
        if "masses" not in doc:
            raise ParseError("no masses: neither the JSON field nor an argument was given")
        try:
            masses = derive_masses(*doc["masses"])
        except (TypeError, ValueError) as exc:
            raise ParseError(f"bad masses field: {exc}") from exc
    dim = doc.get("dim", 2)
    if dim not in (2, 3):
        raise ParseError(f"dim must be 2 or 3, got {dim!r}")
    dim = int(dim)
    times, qs, vs, ns = [], [], [], []
    for k, sample in enumerate(doc["samples"], start=1):
        try:
            times.append(float(sample["t"]))
            qs.append(np.asarray(sample["q"], dtype=float).reshape(3, dim))
            if "v" in sample:
                vs.append(np.asarray(sample["v"], dtype=float).reshape(3, dim))
            if "n" in sample:
                ns.append(np.asarray(sample["n"], dtype=float).reshape(3))
        except (KeyError, TypeError, ValueError) as exc:
            raise ParseError(f"sample {k}: {exc}") from exc
    if vs and len(vs) != len(qs):
        raise ParseError("velocities must be present on all samples or none")
    if ns and len(ns) != len(qs):
        raise ParseError("normals must be present on all samples or none")
    t = np.asarray(times)
    bad = np.flatnonzero(np.diff(t) <= 0.0)
    if bad.size:
        raise ParseError(f"time does not increase at sample {bad[0] + 2}")
    try:
        return Trajectory.from_samples(
            masses,
            t,
            np.stack(qs),
            np.stack(vs) if vs else None,
            np.stack(ns) if ns else None,
        )
    except ValueError as exc:
        raise ParseError(str(exc)) from exc


def serialize(traj: Trajectory, format: str = "csv") -> str:
    """Render a trajectory as canonical CSV or JSON text."""
    return "".join(_serialized_blocks(traj, format))


def _serialized_blocks(traj: Trajectory, format: str):
    """The text of serialize in blocks: CSV as _csv_blocks, JSON as one."""
    if format == "csv":
        cols = _csv_columns(traj.dim, traj.velocities is not None, traj.normals is not None)
        parts = [traj.times[:, None], traj.positions.reshape(traj.n_samples, -1)]
        if traj.velocities is not None:
            parts.append(traj.velocities.reshape(traj.n_samples, -1))
        if traj.normals is not None:
            parts.append(traj.normals)
        yield from _csv_blocks(cols, np.concatenate(parts, axis=1))
    elif format == "json":
        samples = []
        for k in range(traj.n_samples):
            sample = {"t": float(traj.times[k]), "q": traj.positions[k].tolist()}
            if traj.velocities is not None:
                sample["v"] = traj.velocities[k].tolist()
            if traj.normals is not None:
                sample["n"] = traj.normals[k].tolist()
            samples.append(sample)
        doc = {
            "masses": [traj.masses.m1, traj.masses.m2, traj.masses.m3],
            "dim": traj.dim,
            "samples": samples,
        }
        yield json.dumps(doc, indent=2) + "\n"
    else:
        raise ValueError(f"unknown trajectory format {format!r}")


# ---------------------------------------------------------------------------
# generators


def rotation_matrices(axis, angles) -> np.ndarray:
    """Rotation matrices about a fixed axis for a batch of angles."""
    return _rodrigues(_unit(axis, "axis"), np.atleast_1d(np.asarray(angles, dtype=float)))


def _rodrigues(k: np.ndarray, angles: np.ndarray) -> np.ndarray:
    """Rotation matrices about unit axes k (..., 3) by angles broadcasting
    against k's leading axes: Id + sin K + (1 - cos) K^2 with K = [k]x."""
    zero = np.zeros_like(k[..., 0])
    K = np.stack(
        [zero, -k[..., 2], k[..., 1], k[..., 2], zero, -k[..., 0], -k[..., 1], k[..., 0], zero],
        axis=-1,
    ).reshape(k.shape[:-1] + (3, 3))
    c = np.cos(angles)[..., None, None]
    s = np.sin(angles)[..., None, None]
    return np.eye(3) + s * K + (1.0 - c) * (K @ K)


def _centered_config(masses: MassTriple, config, dim: Optional[int] = None) -> np.ndarray:
    """Copy of a (3, dim) configuration moved onto its mass centroid; dim
    defaults to that of the configuration itself."""
    if hasattr(config, "as_array"):
        config = config.as_array()
    q = np.array(config, dtype=float)
    if dim is None and q.ndim > 0:
        dim = q.shape[-1]
    if q.shape != (3, dim):
        raise ValueError(f"config must be a (3, {dim}) array of positions")
    _recenter(q, masses)
    return q


def _rigid_rotation(masses, config, rate, duration, samples, axis=None) -> Trajectory:
    """Rigid rotation of a configuration at a constant angular rate."""
    t = np.linspace(0.0, duration, samples)
    angles = rate * t
    if axis is None:
        q0 = _centered_config(masses, config, 2)
        z = q0[:, 0] + 1j * q0[:, 1]
        rot = np.exp(1j * angles)[:, None] * z[None, :]
        q = np.stack([rot.real, rot.imag], axis=-1)
        v_c = 1j * rate * rot
        v = np.stack([v_c.real, v_c.imag], axis=-1)
    else:
        q0 = _centered_config(masses, config, 3)
        mats = rotation_matrices(axis, angles)
        q = np.einsum("nab,ib->nia", mats, q0)
        v = rate * np.cross(_unit(axis, "axis")[None, None, :], q)
    return Trajectory.from_samples(masses, t, q, v)


def _homothety(masses, config, rate, duration, samples) -> Trajectory:
    """Pure dilation q(t) = exp(rate t) q(0); zero angular momentum."""
    q0 = _centered_config(masses, config)
    t = np.linspace(0.0, duration, samples)
    scale = np.exp(rate * t)[:, None, None]
    q = scale * q0[None, :, :]
    v = rate * q
    return Trajectory.from_samples(masses, t, q, v)


def pole_configuration(masses: MassTriple) -> np.ndarray:
    """Configuration of maximal triangle area at I = 1 (counterclockwise
    labels, orthocenter at the mass centroid); body 1 on the positive
    second axis."""
    r = np.sqrt(0.5)
    return positions_from_jacobi_series([r], [1j * r], masses)[0]


def _figure1_pinch(masses, duration, samples, stop_fraction=1.0) -> Trajectory:
    """Pinch motion: body 3 fixed, bodies 1 and 2 move uniformly along
    straight lines to their common mass center, meeting at t = duration.

    Starts from the maximal-area configuration.  stop_fraction < 1 halts
    short of the binary collision, which spatial pipelines need to keep the
    projected curve inside a valid chart.
    """
    if duration <= 0.0:
        raise ValueError("pinch duration must be positive")
    if not 0.0 < stop_fraction <= 1.0:
        raise ValueError("stop_fraction must lie in (0, 1]")
    q0 = pole_configuration(masses)
    meet = (masses.m1 * q0[0] + masses.m2 * q0[1]) / (masses.m1 + masses.m2)
    t = np.linspace(0.0, stop_fraction * duration, samples)
    frac = (1.0 - t / duration)[:, None]
    q = np.empty((samples, 3, 2))
    q[:, 0] = meet + frac * (q0[0] - meet)
    q[:, 1] = meet + frac * (q0[1] - meet)
    q[:, 2] = q0[2]
    v = np.empty_like(q)
    v[:, 0] = (meet - q0[0]) / duration
    v[:, 1] = (meet - q0[1]) / duration
    v[:, 2] = 0.0
    return Trajectory.from_samples(masses, t, q, v)


# Pair differences q[j] - q[i] of the pairs (1, 2), (1, 3), (2, 3).
_PAIRS = np.array([[-1.0, 1.0, 0.0], [-1.0, 0.0, 1.0], [0.0, -1.0, 1.0]])


def _pair_weights(m: np.ndarray, G: float) -> np.ndarray:
    """Signed mass matrix taking the pair forces (q_j - q_i) / |q_j - q_i|^3
    of the pairs in _PAIRS to the bodies' accelerations."""
    m1, m2, m3 = m
    return G * np.array([[m2, m3, 0.0], [-m1, 0.0, m3], [0.0, -m1, -m2]])


def _gravity_accel(q: np.ndarray, weights: np.ndarray) -> np.ndarray:
    """Accelerations of three bodies at q (3, d) from their pair forces."""
    d = _PAIRS @ q
    r2 = np.einsum("pd,pd->p", d, d)
    return weights @ (d / (r2 * np.sqrt(r2))[:, None])


def _newtonian(masses, config, velocities, G, duration, samples) -> Trajectory:
    """Fixed-step fourth-order integration of the gravitational equations."""
    q = _centered_config(masses, config)
    dim = q.shape[-1]
    v = np.array(velocities, dtype=float)
    if v.shape != q.shape:
        raise ValueError("velocities must match the configuration shape")
    _recenter(v, masses)
    weights = _pair_weights(masses.as_array(), G)
    t = np.linspace(0.0, duration, samples)
    h = t[1] - t[0] if samples > 1 else 0.0
    qs = np.empty((samples, 3, dim))
    vs = np.empty_like(qs)
    # the initial state, left out for 0 samples, which from_samples rejects
    qs[:1], vs[:1] = q, v
    for k in range(samples - 1):
        k1q, k1v = v, _gravity_accel(q, weights)
        k2q, k2v = v + 0.5 * h * k1v, _gravity_accel(q + 0.5 * h * k1q, weights)
        k3q, k3v = v + 0.5 * h * k2v, _gravity_accel(q + 0.5 * h * k2q, weights)
        k4q, k4v = v + h * k3v, _gravity_accel(q + h * k3q, weights)
        q = q + (h / 6.0) * (k1q + 2.0 * k2q + 2.0 * k3q + k4q)
        v = v + (h / 6.0) * (k1v + 2.0 * k2v + 2.0 * k3v + k4v)
        qs[k + 1], vs[k + 1] = q, v
    return Trajectory.from_samples(masses, t, qs, vs)


def _random_smooth(
    masses,
    seed,
    duration,
    samples,
    amplitude=0.2,
    harmonics=3,
    rotation_rate=0.4,
    periodic=False,
) -> Trajectory:
    """Seeded smooth motion: truncated Fourier series in the Jacobi
    variables times a rotation profile.

    The series perturbs the fixed base pair (Z1, Z2) = (1, 0.9i) by at most
    `amplitude`, keeping the shape away from collisions, the chart poles and
    the collinear equator; the rotation profile adds angular momentum.
    Centered by construction.
    """
    if not 0.0 < amplitude < 0.5:
        raise ValueError("amplitude must lie in (0, 0.5)")
    if not duration > 0.0:
        raise ValueError("random_smooth duration must be positive")
    if not harmonics >= 1:
        raise ValueError("random_smooth harmonics must be at least 1")
    rng = np.random.default_rng(seed)
    t = np.linspace(0.0, duration, samples)
    base_freq = TWO_PI / duration if periodic else (TWO_PI / duration) * rng.uniform(0.55, 0.85)

    def series_pair():
        pos = (rng.standard_normal(harmonics) + 1j * rng.standard_normal(harmonics))
        neg = (rng.standard_normal(harmonics) + 1j * rng.standard_normal(harmonics))
        norm = np.sum(np.abs(pos)) + np.sum(np.abs(neg))
        scale = amplitude / norm
        return pos * scale, neg * scale

    ks = np.arange(1, harmonics + 1)
    phases = np.exp(1j * base_freq * np.outer(t, ks))

    def evaluate(pos, neg):
        delta = phases @ pos + np.conj(phases) @ neg
        ddelta = phases @ (1j * base_freq * ks * pos) + np.conj(phases) @ (
            -1j * base_freq * ks * neg
        )
        return delta, ddelta

    d1, dd1 = evaluate(*series_pair())
    d2, dd2 = evaluate(*series_pair())

    spin_amp = rng.uniform(0.1, 0.3)
    spin_phase = rng.uniform(0.0, TWO_PI)
    theta = rotation_rate * t + spin_amp * np.sin(base_freq * t + spin_phase)
    dtheta = rotation_rate + spin_amp * base_freq * np.cos(base_freq * t + spin_phase)
    spin = np.exp(1j * theta)

    b1, b2 = 1.0, 0.9j
    Z1 = b1 * (1.0 + d1) * spin
    Z2 = b2 * (1.0 + d2) * spin
    dZ1 = b1 * (dd1 + (1.0 + d1) * 1j * dtheta) * spin
    dZ2 = b2 * (dd2 + (1.0 + d2) * 1j * dtheta) * spin

    q = positions_from_jacobi_series(Z1, Z2, masses)
    v = positions_from_jacobi_series(dZ1, dZ2, masses)
    return Trajectory.from_samples(masses, t, q, v)


_GENERATORS = {
    "rigid_rotation": _rigid_rotation,
    "homothety": _homothety,
    "figure1_pinch": _figure1_pinch,
    "newtonian": _newtonian,
    "random_smooth": _random_smooth,
}


def generate(kind: str, **params) -> Trajectory:
    """Build one of the named test motions.

    Kinds: rigid_rotation(masses, config, rate, duration, samples[, axis]),
    homothety(masses, config, rate, duration, samples),
    figure1_pinch(masses, duration, samples[, stop_fraction]),
    newtonian(masses, config, velocities, G, duration, samples),
    random_smooth(masses, seed, duration, samples[, amplitude, harmonics,
    rotation_rate, periodic]).  masses is a MassTriple or three numbers.
    Unknown or missing parameters, a sample count that is not an integer
    and other wrongly typed parameters raise ValueError.
    """
    try:
        builder = _GENERATORS[kind]
    except KeyError:
        raise ValueError(f"unknown generator kind {kind!r}") from None
    try:
        inspect.signature(builder).bind(**params)
    except TypeError as exc:
        raise ValueError(f"{kind} parameters: {exc}") from None
    masses = params["masses"]
    if not isinstance(masses, MassTriple):
        try:
            params["masses"] = derive_masses(*masses)
        except TypeError:
            raise ValueError(
                f"{kind} parameters: masses must be three numbers, got {masses!r}"
            ) from None
    samples = params["samples"]
    if isinstance(samples, bool) or not isinstance(samples, (int, np.integer)):
        raise ValueError(f"{kind} parameters: samples must be an integer, got {samples!r}")
    try:
        return builder(**params)
    except TypeError as exc:
        raise ValueError(f"{kind} parameters: {exc}") from None


def embed_planar(traj: Trajectory, rotation=None) -> Trajectory:
    """Embed a planar trajectory into space (third coordinate zero).

    An optional 3x3 rotation matrix tilts the whole motion rigidly.
    """
    if traj.dim != 2:
        raise ValueError("embed_planar expects a planar trajectory")
    n = traj.n_samples
    q = np.concatenate([traj.positions, np.zeros((n, 3, 1))], axis=2)
    v = None
    if traj.velocities is not None:
        v = np.concatenate([traj.velocities, np.zeros((n, 3, 1))], axis=2)
    if rotation is not None:
        R = np.asarray(rotation, dtype=float)
        q = q @ R.T
        if v is not None:
            v = v @ R.T
    # a linear map keeps centered samples centered: no recentering to re-round them
    return Trajectory(traj.masses, traj.times, q, v, max_center_shift=traj.max_center_shift)


def apply_rotation_profile(traj: Trajectory, axis, angle, rate) -> Trajectory:
    """Rigidly rotate a spatial trajectory about a fixed axis by a
    time-dependent angle.

    angle and rate are per-sample arrays (or callables of time); velocities
    pick up the rotational term rate * axis x q.
    """
    if traj.dim != 3:
        raise ValueError("apply_rotation_profile expects a spatial trajectory")
    if traj.velocities is None:
        raise ValueError("the source trajectory needs velocities")
    t = traj.times
    angle = np.asarray(angle(t) if callable(angle) else angle, dtype=float)
    rate = np.asarray(rate(t) if callable(rate) else rate, dtype=float)
    if angle.shape != t.shape or rate.shape != t.shape:
        raise ValueError("angle and rate must align with the time grid")
    mats = rotation_matrices(axis, angle)
    q = np.einsum("nab,nib->nia", mats, traj.positions)
    v = np.einsum("nab,nib->nia", mats, traj.velocities)
    v += rate[:, None, None] * np.cross(_unit(axis, "axis")[None, None, :], q)
    return Trajectory.from_samples(traj.masses, t, q, v)
