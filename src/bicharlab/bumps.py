"""Smooth compactly supported cutoffs shared across the package.

All functions are vectorized over numpy arrays and are C-infinity in the
interior of their support; values and all derivatives vanish at the
support edges (exponential flatness), which is what keeps spectral
truncation errors of windowed fields below the tolerances the tests
assert.
"""

from __future__ import annotations

import numpy as np

__all__ = [
    "smooth_step",
    "plateau_step",
    "bump_profile",
    "window",
]


def smooth_step(t):
    """0 for t <= 0, exp(-1/t) for t > 0; the basic flat germ."""
    t = np.asarray(t, dtype=float)
    out = np.zeros_like(t)
    pos = t > 0
    # a subnormal t overflows -1/t to -inf, whose exp is the right 0
    with np.errstate(over="ignore"):
        out[pos] = np.exp(-1.0 / t[pos])
    return out if out.ndim else float(out)


def plateau_step(t, a: float, b: float):
    """Monotone C-infinity ramp: 0 for t <= a, 1 for t >= b."""
    if not b > a:
        raise ValueError("need b > a")
    u = (np.asarray(t, dtype=float) - a) / (b - a)
    s0 = smooth_step(u)
    s1 = smooth_step(1.0 - u)
    return s0 / (s0 + s1)


def bump_profile(t):
    """Even bump supported on |t| < 1 with value 1 at t = 0."""
    t = np.asarray(t, dtype=float)
    out = np.zeros_like(t)
    inside = np.abs(t) < 1.0
    ti = t[inside]
    out[inside] = np.exp(-ti * ti / (1.0 - ti * ti))
    return out if out.ndim else float(out)


def window(t, a: float, b: float, c: float, d: float):
    """Smooth trapezoid: 0 off (a, d), 1 on [b, c], monotone ramps between."""
    if not (a < b <= c < d):
        raise ValueError("need a < b <= c < d")
    return plateau_step(t, a, b) * (1.0 - plateau_step(t, c, d))
