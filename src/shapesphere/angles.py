"""Angle wrapping and continuous unwinding of sampled angle series."""

import numpy as np

TWO_PI = 2.0 * np.pi


def wrap_angle(x):
    """Representative of an angle in (-pi, pi]; accepts scalars or arrays.

    The result is x minus a multiple of 2 pi (TWO_PI, the float), computed
    without rounding: x itself on (-pi, pi], so the map is odd away from
    the ends of that interval and small increments keep their sign and
    value.
    """
    y = np.fmod(x, TWO_PI, out=np.empty(np.shape(x)))
    np.subtract(y, TWO_PI, out=y, where=y > np.pi)
    np.add(y, TWO_PI, out=y, where=y <= -np.pi)
    return float(y) if y.ndim == 0 else y


def unwrap_held(raw, defined=None, out=None):
    """Continuously unwind a sampled angle series.

    Consecutive defined samples are joined by the increment wrapped to
    (-pi, pi], which is the true increment as long as the underlying angle
    turns by less than pi per step.  Samples flagged undefined inherit the
    running value, so the continuation keeps the last defined branch across
    singular points instead of producing garbage there.  raw must be 1-D
    and defined, if given, a mask of the same shape; ValueError otherwise.
    out, if given, is a float array of raw's shape that takes the result;
    it may be raw itself.
    """
    raw = np.asarray(raw, dtype=float)
    defined = np.ones(raw.shape, bool) if defined is None else np.asarray(defined, dtype=bool)
    if raw.ndim != 1 or defined.shape != raw.shape:
        raise ValueError(
            f"raw must be a 1-D angle series and defined a mask of its shape, "
            f"got shapes {raw.shape} and {defined.shape}"
        )
    if defined.all():
        return _unwound(raw, out)
    out = np.empty(raw.size) if out is None else out
    idx = np.flatnonzero(defined)
    if idx.size == 0:
        out[:] = 0.0
        return out
    # hold: every sample takes the value of the latest defined sample at or
    # before it (leading undefined samples copy the first defined value)
    held = np.zeros(raw.size, dtype=np.intp)
    held[idx] = np.arange(idx.size)
    return np.take(_unwound(raw[idx]), np.maximum.accumulate(held), out=out)


def _unwound(raw: np.ndarray, out=None) -> np.ndarray:
    """raw[0] plus the cumulative wrapped increments of a 1-D series, into
    out if given, which may be raw itself."""
    steps = wrap_angle(np.diff(raw))
    out = np.empty(raw.size) if out is None else out
    out[:1] = raw[:1]
    np.cumsum(steps, out=out[1:])
    out[1:] += out[:1]
    return out
