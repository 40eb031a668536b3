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
    y = np.fmod(np.asarray(x, dtype=float), TWO_PI)
    y = np.where(y > np.pi, y - TWO_PI, y)
    y = np.where(y <= -np.pi, y + TWO_PI, y)
    if np.ndim(x) == 0:
        return float(y)
    return y


def unwrap_held(raw, defined=None):
    """Continuously unwind a sampled angle series.

    Consecutive defined samples are joined by the increment wrapped to
    (-pi, pi], which is the true increment as long as the underlying angle
    turns by less than pi per step.  Samples flagged undefined inherit the
    running value, so the continuation keeps the last defined branch across
    singular points instead of producing garbage there.
    """
    raw = np.asarray(raw, dtype=float)
    n = raw.size
    if defined is None:
        idx = np.arange(n)
    else:
        idx = np.flatnonzero(np.asarray(defined, dtype=bool))
    if idx.size == 0:
        return np.zeros(n)
    sub = raw[idx]
    unwound_sub = np.empty(sub.size)
    unwound_sub[0] = sub[0]
    if sub.size > 1:
        unwound_sub[1:] = sub[0] + np.cumsum(wrap_angle(np.diff(sub)))
    # hold: every sample takes the value of the latest defined sample at or
    # before it (leading undefined samples copy the first defined value)
    held = np.zeros(n, dtype=np.intp)
    held[idx] = np.arange(idx.size)
    return unwound_sub[np.maximum.accumulate(held)]
