"""Trajectory container, file input/output, differencing, and motion generators."""

from __future__ import annotations

import array
import inspect
import itertools
import json
import math
from dataclasses import dataclass
from typing import Optional

import numpy as np

from .angles import TWO_PI
from .shape_core import (
    MassTriple,
    _blocks,
    _centered,
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
    must be finite and centered, which one pass of shape_core._centered
    per array checks; build through `from_samples` to recenter raw data.
    max_center_shift records the largest recentering applied on ingest.
    """

    masses: MassTriple
    times: np.ndarray
    positions: np.ndarray
    velocities: Optional[np.ndarray] = None
    normals: Optional[np.ndarray] = None
    max_center_shift: float = 0.0

    def __post_init__(self):
        self._ingest(move=False)

    def _ingest(self, move: bool):
        """Check the fields, first recentering positions and velocities in
        place and recording the larger shift when `move`.  Times are
        checked first, then the positions' shape, finiteness and centering,
        then the velocities, then the normals."""
        t = _checked_times(self.times)
        q = np.asarray(self.positions, dtype=float)
        object.__setattr__(self, "times", t)
        object.__setattr__(self, "positions", q)
        if q.ndim != 3 or q.shape[0] != t.size or q.shape[1] != 3 or q.shape[2] not in (2, 3):
            raise ValueError("positions must have shape (n, 3, 2) or (n, 3, 3)")
        shift, finite, residual = _centered(q, self.masses, move)
        if not finite:
            raise ValueError("positions must be finite")
        if residual > 1e-10:
            raise ValueError(
                "positions are not centered on the mass centroid; "
                "use Trajectory.from_samples to recenter"
            )
        if self.velocities is not None:
            v = np.asarray(self.velocities, dtype=float)
            object.__setattr__(self, "velocities", v)
            if v.shape == q.shape:
                v_shift, finite, residual = _centered(v, self.masses, move)
                shift = max(shift, v_shift)
            if v.shape != q.shape or not finite:
                raise ValueError("velocities must match positions in shape and be finite")
            if residual > 1e-10:
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
        if move:
            object.__setattr__(self, "max_center_shift", shift)

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
        """Build a trajectory, recentering copies of the positions on the mass
        centroid and removing any net momentum drift from copies of the
        velocities; max_center_shift is the largest shift of either.  The
        copies are recentered and checked in one pass (shape_core._centered),
        and the caller's arrays are left as they are."""
        q = np.array(positions, dtype=float)
        v = None if velocities is None else np.array(velocities, dtype=float)
        return cls._adopted(masses, times, q, v, normals)

    @classmethod
    def _adopted(cls, masses, times, positions, velocities=None, normals=None):
        """from_samples without its copies: float positions and velocities
        that no one else holds are recentered in place."""
        traj = cls.__new__(cls)
        traj.__dict__.update(
            masses=masses, times=times, positions=positions, velocities=velocities, normals=normals
        )
        traj._ingest(move=True)
        return traj

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
    n, shape = t.size, y.shape
    if n == 1:
        return np.zeros_like(y)
    h = np.diff(t)
    cols = np.ascontiguousarray(y.reshape(n, -1).T)
    del y  # each whole-series array is released once it is spent
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
        k = len(cols)
        del cols, slope
        # unit-diagonal rows, padded to 2^p - 1 with decoupled zero rows
        m = n - 2
        size = 2 ** m.bit_length() - 1
        lower = np.zeros(size)
        upper = np.zeros(size)
        rhs = np.zeros((k, size))
        lower[1:m] = h[2:] / diag[1:]
        upper[: m - 1] = h[:-2] / diag[:-1]
        rhs[:, :m] = r / diag
        del diag, r
        inner = _cyclic_reduction(lower, upper, rhs)[:, :m]
        del lower, upper, rhs
        s = np.empty((k, n))
        s[:, 1:-1] = inner
        s[:, 0] = (b0 - d0 * inner[:, 0]) / h[1]
        s[:, -1] = (b1 - d1 * inner[:, -1]) / h[-2]
    return s.T.reshape(shape)


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
    return Trajectory._adopted(traj.masses, t_new, q_new, v_new, normals)


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

    CSV text may also come as an iterable of consecutive pieces, which are
    parsed as they arrive.  CSV carries no masses, so they must be supplied;
    JSON embeds them but an explicit argument takes precedence.  Positions are recentered on ingest
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


# Data rows per np.loadtxt call: the reader holds one chunk's lines, not
# the whole file's.  The traced peak of the reconstruct command on a
# 1e5-row, 13-column file is 23.9 MB at 4096 and at 16384 rows and 31.6 MB
# at 32768, where one chunk's line strings weigh as much as the table.
_CSV_CHUNK_ROWS = 4096


def _read_csv_table(pieces, layout):
    """Header layout and float rows of comma-separated text.

    pieces is the text as an iterable of consecutive strings, or one str.
    Blank lines and lines starting with '#' are skipped.  The first other
    line is the header, split into stripped names; layout(header) raises
    ParseError unless it is valid (header is None when the text has none)
    and its result is returned with the (rows, columns) data.  Fields are
    read by numpy's float parser, which rounds as float() does but takes
    no '_' separators and no non-ASCII digits, _CSV_CHUNK_ROWS rows at a
    time.  Malformed rows raise ParseError naming the first bad data row,
    counted from 1; a non-finite row raises only when no row is malformed.
    """
    if isinstance(pieces, str):
        pieces = [pieces]
    lines = (line.strip() for line in _split_lines(pieces))
    lines = (line for line in lines if line and not line.startswith("#"))
    header = next(lines, None)
    header = None if header is None else [c.strip() for c in header.split(",")]
    found = layout(header)
    width = len(header)
    chunks = []
    done = 0
    while rows := list(itertools.islice(lines, _CSV_CHUNK_ROWS)):
        try:
            data = np.loadtxt(rows, delimiter=",", comments=None, ndmin=2)
        except ValueError:
            data = None
        if data is None or data.shape != (len(rows), width):
            raise ParseError(_first_bad_row(rows, width, done))
        chunks.append(data)
        done += len(rows)
    # each chunk is released once copied: with the table they hold one table
    data = np.empty((done, width))
    done = 0
    for k, chunk in enumerate(chunks):
        chunks[k] = None
        data[done : done + len(chunk)] = chunk
        done += len(chunk)
    bad = np.flatnonzero(~np.all(np.isfinite(data), axis=1))
    if bad.size:
        raise ParseError(f"data row {bad[0] + 1}: non-finite number")
    return found, data


def _split_lines(pieces):
    """The lines of the joined pieces, split as str.splitlines splits the
    whole text: each piece up to its last newline is split on its own, and
    the text after it is carried into the next."""
    carried = []
    for piece in pieces:
        cut = piece.rfind("\n") + 1
        if cut:
            yield from "".join(carried + [piece[:cut]]).splitlines()
            carried = []
        carried.append(piece[cut:])
    yield from "".join(carried).splitlines()


def _first_bad_row(rows: list[str], width: int, before: int) -> str:
    """The error of the first data row that is not `width` numbers, each
    row read on its own by the parser that rejected the table; `before`
    data rows precede rows."""
    for k, line in enumerate(rows, start=before + 1):
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


def _csv_blocks(columns: list[str], *parts: np.ndarray):
    """CSV text in blocks: the header line, then one line per table row,
    each value written by repr, _CSV_BLOCK_ROWS rows to a block.  The
    table is the 2-d parts side by side, which have one row count; each
    block joins their slices, so the whole table is never built."""
    yield ",".join(columns) + "\n"
    line = ",".join(["%r"] * sum(part.shape[1] for part in parts)) + "\n"
    for start in range(0, len(parts[0]), _CSV_BLOCK_ROWS):
        block = np.hstack([part[start : start + _CSV_BLOCK_ROWS] for part in parts])
        yield (line * len(block)) % tuple(block.ravel().tolist())


def _parse_csv(pieces, masses: Optional[MassTriple]) -> Trajectory:
    """Trajectory of CSV text given in pieces, as _read_csv_table takes it."""
    if masses is None:
        raise ParseError("CSV trajectories carry no masses: pass them explicitly")
    (dim, has_v, has_n), data = _read_csv_table(pieces, _header_layout)
    if data.shape[0] == 0:
        raise ParseError("CSV contains no data rows")
    q = data[:, 1 : 1 + 3 * dim].reshape(-1, 3, dim)
    v = data[:, 1 + 3 * dim : 1 + 6 * dim].reshape(-1, 3, dim) if has_v else None
    # times and normals are copied, as from_samples copies positions and
    # velocities, so that the trajectory keeps no view of the table
    normals = data[:, -3:].copy() if has_n else None
    return _parsed(masses, data[:, 0].copy(), q, v, normals, "data row")


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
    v = np.stack(vs) if vs else None
    normals = np.stack(ns) if ns else None
    return _parsed(masses, np.asarray(times), np.stack(qs), v, normals, "sample")


def _parsed(masses, t, q, v, normals, row: str) -> Trajectory:
    """Trajectory.from_samples of parsed samples, whose times must
    increase; row ("data row" or "sample") names the first that does not,
    counted from 1, and a ValueError is re-raised as ParseError."""
    bad = np.flatnonzero(np.diff(t) <= 0.0)
    if bad.size:
        raise ParseError(f"time does not increase at {row} {bad[0] + 2}")
    try:
        return Trajectory.from_samples(masses, t, q, v, normals)
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
        yield from _csv_blocks(cols, *parts)
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
    _recenter(q[None], masses)
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
    return Trajectory._adopted(masses, t, q, v)


def _homothety(masses, config, rate, duration, samples) -> Trajectory:
    """Pure dilation q(t) = exp(rate t) q(0); zero angular momentum."""
    q0 = _centered_config(masses, config)
    t = np.linspace(0.0, duration, samples)
    scale = np.exp(rate * t)[:, None, None]
    q = scale * q0[None, :, :]
    v = rate * q
    return Trajectory._adopted(masses, t, q, v)


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
    return Trajectory._adopted(masses, t, q, v)


def _gravity_accel(q: list, gm: list) -> list:
    """Accelerations of three bodies from their pair forces
    G m_j (q_j - q_i) / |q_j - q_i|^3, on Python floats: q holds the
    bodies' coordinates one body after the other, [x1, y1(, z1), x2, ...],
    and so does the result; gm is [G m1, G m2, G m3]."""
    gm1, gm2, gm3 = gm
    dim = len(q) // 3
    # per axis, the pair differences q2 - q1, q3 - q1 and q3 - q2
    d = [(b - a, c - a, c - b) for a, b, c in zip(q[:dim], q[dim : 2 * dim], q[2 * dim :])]
    r12 = r13 = r23 = 0.0
    for d12, d13, d23 in d:
        r12 += d12 * d12
        r13 += d13 * d13
        r23 += d23 * d23
    c12, c13, c23 = r12 * math.sqrt(r12), r13 * math.sqrt(r13), r23 * math.sqrt(r23)
    a1, a2, a3 = [], [], []
    for d12, d13, d23 in d:
        f12, f13, f23 = d12 / c12, d13 / c13, d23 / c23
        a1.append(gm2 * f12 + gm3 * f13)
        a2.append(gm3 * f23 - gm1 * f12)
        a3.append(-gm1 * f13 - gm2 * f23)
    return a1 + a2 + a3


def _newtonian(masses, config, velocities, G, duration, samples) -> Trajectory:
    """Fixed-step fourth-order integration of the gravitational equations,
    on Python floats."""
    q0 = _centered_config(masses, config)
    dim = q0.shape[-1]
    v0 = np.array(velocities, dtype=float)
    if v0.shape != q0.shape:
        raise ValueError("velocities must match the configuration shape")
    _recenter(v0[None], masses)
    gm = (G * masses.as_array()).tolist()
    t = np.linspace(0.0, duration, samples)
    h = float(t[1] - t[0]) if samples > 1 else 0.0
    half, sixth = 0.5 * h, h / 6.0
    q, v = q0.ravel().tolist(), v0.ravel().tolist()

    def ahead(x, step, k):  # x + step k
        return [a + step * b for a, b in zip(x, k)]

    def combined(x, k1, k2, k3, k4):  # x + h/6 (k1 + 2 k2 + 2 k3 + k4)
        return [a + sixth * (b + 2.0 * c + 2.0 * d + e) for a, b, c, d, e in zip(x, k1, k2, k3, k4)]

    # the states as packed doubles; the initial one is left out for 0
    # samples, which from_samples rejects
    qs, vs = array.array("d", q if samples else []), array.array("d", v if samples else [])
    for _ in range(samples - 1):
        k1q, k1v = v, _gravity_accel(q, gm)
        k2q, k2v = ahead(v, half, k1v), _gravity_accel(ahead(q, half, k1q), gm)
        k3q, k3v = ahead(v, half, k2v), _gravity_accel(ahead(q, half, k2q), gm)
        k4q, k4v = ahead(v, h, k3v), _gravity_accel(ahead(q, h, k3q), gm)
        q, v = combined(q, k1q, k2q, k3q, k4q), combined(v, k1v, k2v, k3v, k4v)
        qs.extend(q)
        vs.extend(v)
    q, v = (np.frombuffer(states).reshape(-1, 3, dim) for states in (qs, vs))
    return Trajectory._adopted(masses, t, q, v)


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

    def evaluate(phases, pos, neg):
        delta = phases @ pos + np.conj(phases) @ neg
        ddelta = phases @ (1j * base_freq * ks * pos) + np.conj(phases) @ (
            -1j * base_freq * ks * neg
        )
        return delta, ddelta

    pairs = [series_pair(), series_pair()]
    spin_amp = rng.uniform(0.1, 0.3)
    spin_phase = rng.uniform(0.0, TWO_PI)
    b1, b2 = 1.0, 0.9j
    # every draw is made, in the order of a whole-series evaluation, before
    # the series are evaluated block by block
    q = np.empty((samples, 3, 2))
    v = np.empty_like(q)
    for start, stop in _blocks(samples):
        tb = t[start:stop]
        phases = np.exp(1j * base_freq * np.outer(tb, ks))
        (d1, dd1), (d2, dd2) = (evaluate(phases, *pair) for pair in pairs)
        theta = rotation_rate * tb + spin_amp * np.sin(base_freq * tb + spin_phase)
        dtheta = rotation_rate + spin_amp * base_freq * np.cos(base_freq * tb + spin_phase)
        spin = np.exp(1j * theta)
        Z1 = b1 * (1.0 + d1) * spin
        Z2 = b2 * (1.0 + d2) * spin
        dZ1 = b1 * (dd1 + (1.0 + d1) * 1j * dtheta) * spin
        dZ2 = b2 * (dd2 + (1.0 + d2) * 1j * dtheta) * spin
        q[start:stop] = positions_from_jacobi_series(Z1, Z2, masses)
        v[start:stop] = positions_from_jacobi_series(dZ1, dZ2, masses)
    return Trajectory._adopted(masses, t, q, v)


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
    R = None if rotation is None else np.asarray(rotation, dtype=float)
    if R is not None and (R.shape != (3, 3) or not np.all(np.isfinite(R))):
        raise ValueError("rotation must be a finite 3x3 matrix")

    def embedded(source):
        out = np.zeros(source.shape[:2] + (3,))
        for start, stop in _blocks(len(out)):
            block = out[start:stop].reshape(-1, 3)
            block[:, :2] = source[start:stop].reshape(-1, 2)
            if R is not None:
                block[...] = block @ R.T
        return out

    q = embedded(traj.positions)
    v = None if traj.velocities is None else embedded(traj.velocities)
    # a linear map keeps centered samples centered: no recentering to re-round them
    return Trajectory(traj.masses, traj.times, q, v, max_center_shift=traj.max_center_shift)


def apply_rotation_profile(traj: Trajectory, axis, angle, rate) -> Trajectory:
    """Rigidly rotate a spatial trajectory about a fixed axis by a
    time-dependent angle.

    angle and rate are per-sample arrays (or callables of time); velocities
    pick up the rotational term rate * axis x q, and normals, when given,
    turn with the positions.
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
    axis = _unit(axis, "axis")
    q = np.empty((t.size, 3, 3))
    v = np.empty_like(q)
    normals = None if traj.normals is None else np.empty((t.size, 3))
    for start, stop in _blocks(t.size):
        mats = _rodrigues(axis, angle[start:stop])
        np.einsum("nab,nib->nia", mats, traj.positions[start:stop], out=q[start:stop])
        np.einsum("nab,nib->nia", mats, traj.velocities[start:stop], out=v[start:stop])
        v[start:stop] += rate[start:stop, None, None] * np.cross(axis[None, None, :], q[start:stop])
        if normals is not None:
            np.einsum("nab,nb->na", mats, traj.normals[start:stop], out=normals[start:stop])
    return Trajectory._adopted(traj.masses, t, q, v, normals)
