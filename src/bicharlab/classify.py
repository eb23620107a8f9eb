"""Stratify boundary covectors by their contact with the ray flow.

A boundary point (x', xi') is transversal ("hyperbolic") when r0 > 0,
shadowed ("elliptic") when r0 < 0, and tangent ("glancing") in between.
Tangent points are graded by how many derivatives of the contact vanish:
order 2 splits by the sign of r1 (curving away from or into the domain),
order k >= 3 requires the first k-3 iterated brackets of r1 under the
boundary Hamilton field of r0 to vanish with the next one alive.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

from .charts import CollarChart

__all__ = [
    "ELLIPTIC",
    "HYPERBOLIC",
    "GLANCING",
    "TOL_G",
    "TOL_BRACKET",
    "BoundaryClass",
    "classify",
]

ELLIPTIC = "elliptic"
HYPERBOLIC = "hyperbolic"
GLANCING = "glancing"

# the gates: |r0| <= TOL_G is tangency, |bracket| <= TOL_BRACKET is zero
TOL_G = 1e-8
TOL_BRACKET = 1e-6


@dataclass(frozen=True)
class BoundaryClass:
    """Classification verdict with the numbers that produced it."""

    tag: str
    order: int | None = None
    sign: int | None = None
    unresolved: bool = False
    witness: dict = field(default_factory=dict)

    def as_dict(self) -> dict:
        return {
            "tag": self.tag,
            "order": self.order,
            "sign": self.sign,
            "unresolved": self.unresolved,
            "witness": self.witness,
        }

    def label(self) -> str:
        if self.tag != GLANCING:
            return self.tag
        if self.unresolved:
            return f"glancing(order>{self.order})"
        if self.order == 2:
            return f"glancing(2,{'+' if self.sign > 0 else '-'})"
        return f"glancing({self.order})"


def classify(chart: CollarChart, xp: float, xip: float) -> BoundaryClass:
    """Classify the boundary covector (x', xi') of the chart.

    TOL_G bounds |r0| for the tangency band, TOL_BRACKET decides whether
    a bracket value counts as zero.  Round charts resolve every glancing
    point at order 2, where |r1| is about 2 / rho(0) >= 2.  A model chart
    resolves contact orders up to its max_derivative_order (an integer
    >= 2); deeper contact is reported explicitly as unresolved, never
    silently rounded down.
    """
    if not (math.isfinite(xp) and math.isfinite(xip)):
        raise ValueError(f"boundary covector must be finite, got ({xp}, {xip})")

    r0 = chart.r0(xp, xip)
    if r0 > TOL_G:
        return BoundaryClass(HYPERBOLIC, witness={"r0": r0})
    if r0 < -TOL_G:
        return BoundaryClass(ELLIPTIC, witness={"r0": r0})

    brackets = [chart.iterated_bracket(0, xp, xip)]
    if abs(brackets[0]) > TOL_BRACKET:
        sign = 1 if brackets[0] > 0 else -1
        return BoundaryClass(
            GLANCING, order=2, sign=sign, witness={"r0": r0, "r1": brackets[0]}
        )
    k_max = chart.max_derivative_order
    for j in range(1, k_max - 1):
        brackets.append(chart.iterated_bracket(j, xp, xip))
        if abs(brackets[-1]) > TOL_BRACKET:
            return BoundaryClass(
                GLANCING,
                order=j + 2,
                witness={"r0": r0, "brackets": brackets},
            )
    return BoundaryClass(
        GLANCING,
        order=k_max,
        unresolved=True,
        witness={"r0": r0, "brackets": brackets},
    )
