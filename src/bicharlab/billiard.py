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
    "time_to_boundary",
    "specular_reflect",
    "propagate",
    "angular_momentum",
    "chord_rotation",
]

# rays per pass of `propagate`: bounds the size of its temporaries, a few
# hundred kB per block
BLOCK = 4_096
# a point counts as in the closed unit disk while |x| <= CLOSED_RADIUS
CLOSED_RADIUS = 1.0 + 1e-12


def time_to_boundary(x: np.ndarray, xi: np.ndarray) -> np.ndarray:
    """First time t >= 0 with |x + 2 xi t| = 1, for points with |x| <= 1.

    Solves 4|xi|^2 t^2 + 4(x.xi) t + (|x|^2 - 1) = 0 for its nonnegative
    root.  Shapes broadcast over leading axes; the last axis is length 2.
    Contract: x and xi finite, every x in the closed disk (hypot(x) <=
    CLOSED_RADIUS, as `propagate`) and every xi nonzero; ValueError otherwise.
    """
    x = np.asarray(x, dtype=float)
    xi = np.asarray(xi, dtype=float)
    if not (np.isfinite(x).all() and np.isfinite(xi).all()):
        raise ValueError("x and xi must be finite")
    if np.any(np.hypot(x[..., 0], x[..., 1]) > CLOSED_RADIUS):
        raise ValueError("every x must lie in the closed unit disk")
    a = np.sum(xi * xi, axis=-1)
    if not np.all(a > 0.0):
        raise ValueError("every xi must be nonzero")
    b = np.sum(x * xi, axis=-1)
    c = np.sum(x * x, axis=-1) - 1.0
    disc = b * b - a * c
    return (-b + np.sqrt(np.maximum(disc, 0.0))) / (2.0 * a)


def specular_reflect(x: np.ndarray, xi: np.ndarray) -> np.ndarray:
    """Reflect covectors at boundary points (outward normal = x)."""
    x = np.asarray(x, dtype=float)
    xi = np.asarray(xi, dtype=float)
    n2 = np.sum(x * x, axis=-1, keepdims=True)
    proj = np.sum(x * xi, axis=-1, keepdims=True) / n2
    return xi - 2.0 * proj * x


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


def _flow(x, xi, t):
    """Flow one block of rays in place for time t >= 0; returns (bounces, pinned).

    After the first hit every chord takes the same time and turns the state
    by the same angle: all later bounces are one rotation and one partial chord.
    """
    th = time_to_boundary(x, xi)  # checks each block's x and xi
    # landing exactly at the endpoint still reflects, matching the
    # post-contact convention of the ODE tracer
    hit = (th <= t) & (t > 0.0)
    x += 2.0 * np.where(hit, th, t)[:, None] * xi
    # land exactly on the circle before reflecting
    x[hit] /= np.linalg.norm(x[hit], axis=-1, keepdims=True)
    xi[hit] = specular_reflect(x[hit], xi[hit])
    a = np.sum(xi * xi, axis=-1)
    inward = -np.sum(x * xi, axis=-1)
    chord = inward / a
    # a tangential contact makes no forward progress: no chord continues it
    pin = hit & (chord < 1e-14) & (inward <= 1e-12 * np.sqrt(a))
    go = np.flatnonzero(hit & ~pin)
    n = np.floor((t - th[go]) / chord[go])
    turn = n * _turn(inward[go], angular_momentum(x[go], xi[go]))
    # rotate by turn: (v1, v2) -> c (v1, v2) + s (-v2, v1)
    c, s = np.cos(turn)[:, None], np.sin(turn)[:, None] * [-1.0, 1.0]
    xi[go] = c * xi[go] + s * xi[go, ::-1]
    x[go] = c * x[go] + s * x[go, ::-1] + 2.0 * (t - th[go] - n * chord[go])[:, None] * xi[go]
    bounces = np.zeros(x.shape[0], dtype=np.int64)
    bounces[go] = n + 1
    return bounces, pin


def propagate(x: np.ndarray, xi: np.ndarray, t: float, pinned: str = "raise"):
    """Evolve a batch of rays for time t (either sign), reflecting at |x| = 1.

    Returns (x_t, xi_t, bounces), exactly and at a cost independent of t:
    a flight to the first hit, one rotation for all later chords and one
    partial chord.  ValueError unless x, xi and t are finite, every x is
    in the closed disk (hypot(x) <= CLOSED_RADIUS) and every xi is nonzero;
    `time_to_boundary` checks x and xi one block of BLOCK rays at a time.
    A tangential contact cannot be continued by chords; with
    pinned="raise" (default) that aborts the batch, with pinned="mark"
    the offending rays are frozen at the contact point and flagged in a
    fourth return value so the caller can treat them as unresolved.
    """
    if pinned not in ("raise", "mark"):
        raise ValueError("pinned must be 'raise' or 'mark'")
    if not np.isfinite(t):
        raise ValueError("t must be finite")
    x = np.array(x, dtype=float, copy=True)
    xi = np.array(xi, dtype=float, copy=True)
    flat_x, flat_xi = x.reshape(-1, 2), xi.reshape(-1, 2)
    if t < 0:
        flat_xi *= -1.0

    bounces = np.zeros(flat_x.shape[0], dtype=np.int64)
    stuck = np.zeros(flat_x.shape[0], dtype=bool)
    for lo in range(0, flat_x.shape[0], BLOCK):
        block = slice(lo, lo + BLOCK)
        bounces[block], stuck[block] = _flow(flat_x[block], flat_xi[block], abs(t))
    if stuck.any() and pinned == "raise":
        raise RuntimeError("ray pinned tangentially at the boundary")

    if t < 0:
        flat_xi *= -1.0
    if pinned == "mark":
        return x, xi, bounces.reshape(x.shape[:-1]), stuck.reshape(x.shape[:-1])
    return x, xi, bounces.reshape(x.shape[:-1])
