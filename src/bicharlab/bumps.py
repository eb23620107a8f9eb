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
    "plateau_step",
    "bump_profile",
    "window",
]


def plateau_step(t, a: float, b: float):
    """Monotone C-infinity ramp: 0 for t <= a, 1 for t >= b.

    With u = (t - a) / (b - a), the ramp a < t < b is e(u) / (e(u) +
    e(1 - u)) for the flat germ e(r) = exp(-1/r); its exponentials are
    taken there only, where u and 1 - u are both positive.

    Contract: b > a, else ValueError; any float t, NaN gives 0.
    """
    if not b > a:
        raise ValueError("need b > a")
    u = (np.asarray(t, dtype=float) - a) / (b - a)
    out = np.where(u >= 1.0, 1.0, 0.0)
    ramp = (u > 0.0) & (u < 1.0)
    r = u[ramp]
    # a subnormal r overflows -1/r to -inf, whose exp is the right 0
    with np.errstate(over="ignore"):
        s0 = np.exp(-1.0 / r)
        s1 = np.exp(-1.0 / (1.0 - r))
    out[ramp] = s0 / (s0 + s1)
    return out if out.ndim else float(out)


def bump_profile(t):
    """Even bump supported on |t| < 1 with value 1 at t = 0.

    Contract: any float t; NaN and |t| >= 1 give 0.
    """
    t = np.asarray(t, dtype=float)
    out = np.zeros_like(t)
    inside = np.abs(t) < 1.0
    ti = t[inside]
    out[inside] = np.exp(-ti * ti / (1.0 - ti * ti))
    return out if out.ndim else float(out)


def window(t, a: float, b: float, c: float, d: float):
    """Smooth trapezoid: 0 off (a, d), 1 on [b, c], monotone ramps between.

    Contract: a < b <= c < d, else ValueError."""
    if not (a < b <= c < d):
        raise ValueError("need a < b <= c < d")
    return plateau_step(t, a, b) * (1.0 - plateau_step(t, c, d))
