"""Workload configs for the benchmark, built from the benchmark seed.

Each workload is one `bicharlab run` config.  The inputs mirror the
acceptance criteria in tests/test_acceptance.py; the seed goes into the
config's own `seed` (which drives the `classify` samples) and picks the
start direction of the `trace` experiment, so the same seed always gives
the same config.

The oracles at the bottom check the seed-dependent outputs without the
library's own billiard or classifier code: a rim covector of the unit
disk is hyperbolic, glancing or elliptic as |xi'| is below, at or above
1, and a disk billiard ray is a sequence of chords solved in closed form.
"""

from __future__ import annotations

import math
import random

WORKLOADS = ("reflect", "layer", "bounce")

TRACE_TIME = 100.0
TRACE_START_X = (0.05, -0.17)
CLASSIFY_SAMPLES = 400


# criterion 11: an interior window over the rim collar, one arc, speed
# and angular-momentum bands
REFLECT_SYMBOL = {
    "type": "interior",
    "xi_bound": 1.5,
    "factors": [
        {"var": "radius", "window": [0.45, 0.55, 0.97, 1.02]},
        {"var": "speed", "window": [0.75, 0.85, 1.15, 1.25]},
        {"var": "angular_momentum", "window": [0.3, 0.4, 0.6, 0.7]},
    ],
    "arc": {"center": 0.0, "inner": 0.35, "outer": 0.6},
}
HUSIMI = {"nx": 28, "nxi": 29}


def _reflect(seed: int) -> list:
    return [
        {
            "name": "reflect-support",
            "kind": "support",
            "family": {"family": "stokes", "m": [16, 24, 32, 44], "k": {"ratio": 0.5}},
            "symbol": REFLECT_SYMBOL,
            "time": 0.9,
            "husimi": HUSIMI,
        }
    ]


def _layer(seed: int) -> list:
    laplace_rings = {"family": "laplace", "m": 0}
    return [
        # criterion 8
        {
            "name": "layer-parametrix",
            "kind": "parametrix",
            "m": [32, 64, 128],
            "orders": [0, 1],
            "expect_halving": True,
        },
        # criterion 3
        {
            "name": "layer-laplace-modes",
            "kind": "mode",
            "family": {"family": "laplace", "m": [0, 3, 16, 33, 64], "k": [1, 2, 4, 6, 8]},
            "tolerances": {"pde": 1e-6, "boundary": 1e-8},
        },
        {
            "name": "layer-stokes-modes",
            "kind": "mode",
            "family": {"family": "stokes", "m": [1, 3, 16, 33, 64], "k": [1, 2, 4, 6, 8]},
            "tolerances": {"momentum": 1e-6, "divergence": 1e-8, "boundary": 1e-8},
        },
        # criterion 10
        {
            "name": "layer-invariance",
            "kind": "invariance",
            "family": dict(laplace_rings, k=[10, 16, 25, 40, 60]),
            "symbol": {
                "type": "interior",
                "xi_bound": 1.6,
                "factors": [
                    {"var": "bump", "center": [0.25, 0.0], "radius": 0.2},
                    {"var": "speed", "window": [0.6, 0.8, 1.2, 1.4]},
                ],
            },
            "time": 0.15,
        },
        # criterion 5
        {
            "name": "layer-car",
            "kind": "car",
            "family": dict(laplace_rings, k=[12, 24, 48]),
            "symbol": {
                "type": "interior",
                "xi_bound": 1.5,
                "factors": [
                    {"var": "radius", "window": [-0.76, -0.62, 0.62, 0.76]},
                    {"var": "speed_sq", "window": [0.35, 0.5, 0.75, 0.8]},
                ],
            },
        },
        # criterion 6
        {
            "name": "layer-tails",
            "kind": "tails",
            "family": dict(laplace_rings, k=[10, 20, 40]),
            "radii": [2.0, 4.0, 8.0],
            "bound": 0.01,
        },
        # criterion 7, both families
        *(
            {
                "name": f"layer-elliptic-{family}",
                "kind": "elliptic",
                "family": {"family": family, "m": 3, "k": [1, 2, 3, 4, 5]},
                "symbol": {
                    "type": "tangential",
                    "y_support": 0.25,
                    "y_ramp": [0.1, 0.2],
                    "xip_window": [1.15, 1.3, 3.5, 3.9],
                    "xip_abs": True,
                },
            }
            for family in ("laplace", "stokes")
        ),
        # criterion 12
        {
            "name": "layer-gliding",
            "kind": "support",
            "family": {"family": "stokes", "m": [24, 40, 64], "k": 1},
            "symbol": {
                "type": "tangential",
                "y_support": 0.3,
                "y_ramp": [0.12, 0.24],
                "xip_window": [0.55, 0.7, 1.3, 1.45],
                "arc": {"center": 0.5, "inner": 0.45, "outer": 0.75},
            },
            "time": 0.4,
        },
    ]


def trace_start(seed: int) -> list:
    """Start covector of the bounce trace: fixed point, seeded unit direction.

    |x| is about 0.18, so the angular momentum stays far from the
    glancing value 1 and the ray never comes near a tangency.
    """
    angle = random.Random(seed).uniform(-math.pi, math.pi)
    return [*TRACE_START_X, math.cos(angle), math.sin(angle)]


def _bounce(seed: int) -> list:
    # many bounces per ray: one cheap mode transported for s = 12
    return [
        {
            "name": "bounce-support",
            "kind": "support",
            "family": {"family": "stokes", "m": 16, "k": 3},
            "symbol": REFLECT_SYMBOL,
            "time": 12.0,
            "husimi": HUSIMI,
        },
        {
            "name": "bounce-trace",
            "kind": "trace",
            "start": trace_start(seed),
            "time": TRACE_TIME,
            "samples": 33,
        },
        {"name": "bounce-classify", "kind": "classify", "samples": CLASSIFY_SAMPLES},
    ]


_BUILDERS = {"reflect": _reflect, "layer": _layer, "bounce": _bounce}


def build_config(workload: str, seed: int) -> dict:
    """The `bicharlab run` config of one workload for one seed."""
    return {"chart": "disk", "seed": int(seed), "experiments": _BUILDERS[workload](seed)}


# ---------------------------------------------------------------------------
# oracles for the seed-dependent outputs


def rim_class(xip: float):
    """(tag, r0) of the rim covector (x', xi') of the unit disk: r0 = 1 - xi'^2."""
    r0 = 1.0 - xip * xip
    if r0 > 1e-8:
        return "hyperbolic", r0
    if r0 < -1e-8:
        return "elliptic", r0
    return "glancing", r0


def chord_map(start, t_total: float):
    """Reflection points of a disk billiard ray with x' = 2 xi, up to t_total."""
    x1, x2, s1, s2 = (float(v) for v in start)
    left = float(t_total)
    hits = []
    while True:
        a = s1 * s1 + s2 * s2
        b = x1 * s1 + x2 * s2
        c = x1 * x1 + x2 * x2 - 1.0
        t_hit = (-b + math.sqrt(max(b * b - a * c, 0.0))) / (2.0 * a)
        if t_hit > left:
            return hits
        x1, x2 = x1 + 2.0 * t_hit * s1, x2 + 2.0 * t_hit * s2
        r = math.hypot(x1, x2)
        x1, x2 = x1 / r, x2 / r
        dot = x1 * s1 + x2 * s2
        s1, s2 = s1 - 2.0 * dot * x1, s2 - 2.0 * dot * x2
        left -= t_hit
        hits.append((x1, x2))
