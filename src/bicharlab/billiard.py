"""Closed-form billiard dynamics in the unit disk.

Free motion is x' = 2 xi with xi constant, so chords, hit times, and
specular reflections all have explicit formulas.  This module is the fast
vectorized engine used to push symbols along the broken flow, and it
doubles as an independent oracle for the ODE-based tracer.
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

# loop guard of `propagate`: a batch still bouncing after this many
# reflections raises instead of looping on
MAX_BOUNCES = 100_000


def time_to_boundary(x: np.ndarray, xi: np.ndarray) -> np.ndarray:
    """First time t >= 0 with |x + 2 xi t| = 1, for points with |x| <= 1.

    Solves 4|xi|^2 t^2 + 4(x.xi) t + (|x|^2 - 1) = 0 for its nonnegative
    root.  Shapes broadcast over leading axes; the last axis is length 2.
    """
    x = np.asarray(x, dtype=float)
    xi = np.asarray(xi, dtype=float)
    a = np.sum(xi * xi, axis=-1)
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


def chord_rotation(ell: np.ndarray) -> np.ndarray:
    """Boundary-angle advance per bounce for unit covectors.

    ell is the angular momentum (equal to the tangential frequency for
    |xi| = 1).  Each chord rotates the hit point by sign(ell) * 2 *
    arccos(|ell|) and takes time sqrt(1 - ell^2).
    """
    ell = np.asarray(ell, dtype=float)
    return np.sign(ell) * 2.0 * np.arccos(np.clip(np.abs(ell), 0.0, 1.0))


def propagate(
    x: np.ndarray,
    xi: np.ndarray,
    t: float,
    pinned: str = "raise",
):
    """Evolve a batch of rays for time t (either sign), reflecting at |x| = 1.

    Returns (x_t, xi_t, bounces).  Raises if some ray is still bouncing
    after MAX_BOUNCES reflections.  A tangential contact makes no forward
    progress and cannot be continued by chords; with pinned="raise"
    (default) that aborts the batch, with pinned="mark" the offending
    rays are frozen at the contact point and flagged in a fourth return
    value so the caller can treat them as unresolved.
    """
    if pinned not in ("raise", "mark"):
        raise ValueError("pinned must be 'raise' or 'mark'")
    x = np.array(x, dtype=float, copy=True)
    xi = np.array(xi, dtype=float, copy=True)
    flat_x = x.reshape(-1, 2)
    flat_xi = xi.reshape(-1, 2)
    if t < 0:
        flat_xi *= -1.0

    remaining = np.full(flat_x.shape[0], abs(float(t)))
    bounces = np.zeros(flat_x.shape[0], dtype=np.int64)
    stuck = np.zeros(flat_x.shape[0], dtype=bool)
    active = remaining > 0

    for _ in range(MAX_BOUNCES):
        if not active.any():
            break
        xa = flat_x[active]
        xia = flat_xi[active]
        th = time_to_boundary(xa, xia)
        ra = remaining[active]
        # landing exactly at the endpoint still reflects, matching the
        # post-contact convention of the ODE tracer
        hits = th <= ra
        # zero advance alone is not a pin: a rim point with outward
        # momentum reflects immediately and makes strict progress on the
        # next chord; only a tangential contact cannot be continued
        outward = np.sum(xa * xia, axis=-1)
        speed = np.linalg.norm(xia, axis=-1)
        pin = hits & (th < 1e-14) & (np.abs(outward) <= 1e-12 * speed)
        if pin.any() and pinned == "raise":
            raise RuntimeError("ray pinned tangentially at the boundary")

        done = ~hits
        if done.any():
            xa[done] += 2.0 * ra[done, None] * xia[done]
        if hits.any():
            xa[hits] += 2.0 * th[hits, None] * xia[hits]
            # land exactly on the circle before reflecting
            xa[hits] /= np.linalg.norm(xa[hits], axis=-1, keepdims=True)
            xia[hits] = specular_reflect(xa[hits], xia[hits])
            ra = ra - th
            ra[pin] = 0.0

        ra[done] = 0.0
        flat_x[active] = xa
        flat_xi[active] = xia
        remaining[active] = ra
        idx = np.flatnonzero(active)
        bounces[idx[hits & ~pin]] += 1
        stuck[idx[pin]] = True
        active[idx[done | pin]] = False
    if active.any():
        raise RuntimeError(f"exceeded {MAX_BOUNCES} reflections")

    if t < 0:
        flat_xi *= -1.0
    if pinned == "mark":
        return x, xi, bounces.reshape(x.shape[:-1]), stuck.reshape(x.shape[:-1])
    return x, xi, bounces.reshape(x.shape[:-1])
