"""Closed-form billiard dynamics in the unit disk.

Free motion is x' = 2 xi with xi constant, so chords, hit times, and
specular reflections all have explicit formulas, and after its first hit
a ray repeats one chord turned by one angle: any flow time costs the
same.  This module is the fast vectorized engine used to push symbols
along the broken flow, and it doubles as an independent oracle for the
ODE-based tracer.
"""

from __future__ import annotations

import numpy as np

__all__ = [
    "propagate",
    "angular_momentum",
    "chord_rotation",
]

# rays per pass of `propagate`: bounds the size of its temporaries, a few
# hundred kB per block
BLOCK = 4_096
# a point counts as in the closed unit disk while |x| <= CLOSED_RADIUS
CLOSED_RADIUS = 1.0 + 1e-12


def _time_to_boundary(x1, x2, s1, s2):
    """First time t >= 0 with |x + 2 xi t| = 1, for points with |x| <= 1.

    Solves 4|xi|^2 t^2 + 4(x.xi) t + (|x|^2 - 1) = 0 for its nonnegative
    root, on the components x = (x1, x2) and xi = (s1, s2): floats or
    arrays that broadcast.
    Contract: x and xi finite, every x in the closed disk (hypot(x) <=
    CLOSED_RADIUS, as `propagate`) and every xi nonzero; ValueError otherwise.
    """
    if not all(np.isfinite(v).all() for v in (x1, x2, s1, s2)):
        raise ValueError("x and xi must be finite")
    if np.any(np.hypot(x1, x2) > CLOSED_RADIUS):
        raise ValueError("every x must lie in the closed unit disk")
    a = s1 * s1 + s2 * s2
    if not np.all(a > 0.0):
        raise ValueError("every xi must be nonzero")
    b = x1 * s1 + x2 * s2
    c = (x1 * x1 + x2 * x2) - 1.0
    disc = b * b - a * c
    return (-b + np.sqrt(np.maximum(disc, 0.0))) / (2.0 * a)


def angular_momentum(x: np.ndarray, xi: np.ndarray) -> np.ndarray:
    """x wedge xi, conserved by both free motion and reflection."""
    x = np.asarray(x, dtype=float)
    xi = np.asarray(xi, dtype=float)
    return x[..., 0] * xi[..., 1] - x[..., 1] * xi[..., 0]


def _turn(inward, ell):
    # hit-point rotation of one chord, from the inward and the tangential
    # (ell = x wedge xi) components of the covector at the hit
    return np.where(ell < 0.0, -2.0, 2.0) * np.arctan2(inward, np.abs(ell))


def chord_rotation(ell: np.ndarray) -> np.ndarray:
    """Boundary-angle advance per bounce for unit covectors.

    ell is the angular momentum (equal to the tangential frequency for
    |xi| = 1).  Each chord takes time sqrt(1 - ell^2) and rotates the hit
    point by sign(ell) * 2 * arccos(|ell|), with sign +1 for ell >= 0 (a
    diameter turns it by pi).
    """
    ell = np.asarray(ell, dtype=float)
    a = np.minimum(np.abs(ell), 1.0)
    return _turn(np.sqrt((1.0 - a) * (1.0 + a)), ell)


def _flow(x1, x2, s1, s2, t):
    """Flow one block of rays in place for time t >= 0; returns (bounces, pinned).

    The rays are four contiguous 1-D component arrays.  After the first
    hit every chord takes the same time and turns the state by the same
    angle: all later bounces are one rotation and one partial chord.
    """
    th = _time_to_boundary(x1, x2, s1, s2)  # checks each block's x and xi
    # landing exactly at the endpoint still reflects, matching the
    # post-contact convention of the ODE tracer
    hit = (th <= t) & (t > 0.0)
    step = 2.0 * np.where(hit, th, t)
    x1 += step * s1
    x2 += step * s2
    h = np.flatnonzero(hit)
    th, p1, p2, q1, q2 = th[h], x1[h], x2[h], s1[h], s2[h]
    # land exactly on the circle, then reflect in its outward normal x
    r = np.sqrt(p1 * p1 + p2 * p2)
    p1, p2 = p1 / r, p2 / r
    proj = 2.0 * ((p1 * q1 + p2 * q2) / (p1 * p1 + p2 * p2))
    q1, q2 = q1 - proj * p1, q2 - proj * p2
    a = q1 * q1 + q2 * q2
    inward = -(p1 * q1 + p2 * q2)
    chord = inward / a
    # a tangential contact makes no forward progress: no chord continues it
    pin = (chord < 1e-14) & (inward <= 1e-12 * np.sqrt(a))
    x1[h], x2[h], s1[h], s2[h] = p1, p2, q1, q2
    stuck = np.zeros(x1.shape[0], dtype=bool)
    stuck[h[pin]] = True
    go = ~pin
    h, th, chord, inward = h[go], th[go], chord[go], inward[go]
    p1, p2, q1, q2 = p1[go], p2[go], q1[go], q2[go]
    n = np.floor((t - th) / chord)
    turn = n * _turn(inward, p1 * q2 - p2 * q1)
    # rotate by turn: (v1, v2) -> (c v1 - s v2, c v2 + s v1)
    c, s = np.cos(turn), np.sin(turn)
    q1, q2 = c * q1 - s * q2, c * q2 + s * q1
    rest = 2.0 * ((t - th) - n * chord)
    x1[h] = (c * p1 - s * p2) + rest * q1
    x2[h] = (c * p2 + s * p1) + rest * q2
    s1[h], s2[h] = q1, q2
    bounces = np.zeros(x1.shape[0], dtype=np.int64)
    bounces[h] = n + 1
    return bounces, stuck


def propagate(x: np.ndarray, xi: np.ndarray, t: float, pinned: str = "raise"):
    """Evolve a batch of rays for time t (either sign), reflecting at |x| = 1.

    Returns (x_t, xi_t, bounces), exactly and at a cost independent of t:
    a flight to the first hit, one rotation for all later chords and one
    partial chord.  ValueError unless x, xi and t are finite, every x is
    in the closed disk (hypot(x) <= CLOSED_RADIUS) and every xi is nonzero;
    `_time_to_boundary` checks x and xi one block of BLOCK rays at a time.
    The closed form runs on one contiguous 1-D array per component, x1,
    x2, xi1 and xi2; the (..., 2) layout is read once and written once.
    A tangential contact cannot be continued by chords; with
    pinned="raise" (default) that aborts the batch, with pinned="mark"
    the offending rays are frozen at the contact point and flagged in a
    fourth return value so the caller can treat them as unresolved.
    """
    if pinned not in ("raise", "mark"):
        raise ValueError("pinned must be 'raise' or 'mark'")
    if not np.isfinite(t):
        raise ValueError("t must be finite")
    x = np.asarray(x, dtype=float)
    xi = np.asarray(xi, dtype=float)
    # one contiguous row per component, copies of the input
    X = np.array(x.reshape(-1, 2).T, order="C")
    S = np.array(xi.reshape(-1, 2).T, order="C")
    if t < 0:
        S *= -1.0

    n = X.shape[1]
    bounces = np.zeros(n, dtype=np.int64)
    stuck = np.zeros(n, dtype=bool)
    for lo in range(0, n, BLOCK):
        block = slice(lo, lo + BLOCK)
        bounces[block], stuck[block] = _flow(*X[:, block], *S[:, block], abs(t))
    if stuck.any() and pinned == "raise":
        raise RuntimeError("ray pinned tangentially at the boundary")

    if t < 0:
        S *= -1.0
    shape = x.shape[:-1]
    x, xi = np.stack(X, axis=-1).reshape(x.shape), np.stack(S, axis=-1).reshape(xi.shape)
    if pinned == "mark":
        return x, xi, bounces.reshape(shape), stuck.reshape(shape)
    return x, xi, bounces.reshape(shape)
