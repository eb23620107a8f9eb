"""Collar charts near a boundary component and the glancing function r.

A chart carries boundary-normal coordinates (y, x') with y >= 0 the
distance into the domain and x' the boundary coordinate, together with
the function

    r(y, x', xi') = 1 - |xi'|^2_g(y)

whose boundary trace r0 separates transversal (r0 > 0) from shadowed
(r0 < 0) covectors, and whose normal derivative r1 = dr/dy at y = 0
measures the curvature felt by a tangent ray.  Interior motion at unit
energy is the Hamilton flow of eta^2 - r.

Two chart families are provided.  Round charts put the collar at one
circle of a round domain rho_in < |x| < 1: either component of an
annulus, or the outer circle of the unit disk, which is the annulus
without an inner circle.  One set of closed forms in the circle's radius
rho(y) serves them all.  "Model" charts have an r that is an explicit
polynomial in (y, z1, zeta1) given by a coefficient table, and
differentiate it exactly.
"""

from __future__ import annotations

import inspect
import json
import math
import numbers
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .billiard import CLOSED_RADIUS

__all__ = [
    "OrderBudgetError",
    "PhasePoint",
    "CollarChart",
    "DiskChart",
    "AnnulusChart",
    "ModelChart",
    "chart_definition",
    "load_chart",
]


class OrderBudgetError(ValueError):
    """A derivative of higher order than the chart supports was requested."""


def _is_whole(value, lo: int) -> bool:
    """An integer >= lo; integral floats such as 1.0 (JSON writes them) count."""
    return (
        isinstance(value, numbers.Real)
        and not isinstance(value, bool)
        and float(value).is_integer()
        and value >= lo
    )


def _derivative_order(value) -> int:
    # contact order 2 needs r1, so no chart can classify with fewer
    if not _is_whole(value, 2):
        raise ValueError(f"max_derivative_order must be an integer >= 2, got {value!r}")
    return int(value)


@dataclass(frozen=True)
class PhasePoint:
    """Point in collar phase space: (y, x', eta, xi')."""

    y: float
    xp: float
    eta: float
    xip: float

    def flipped(self) -> "PhasePoint":
        """Time-reversal involution: momenta change sign."""
        return PhasePoint(self.y, self.xp, -self.eta, -self.xip)


class CollarChart:
    """Base interface; concrete charts fill in the r data."""

    kind = "abstract"

    # -- required geometry ------------------------------------------

    def _jet_values(self, y: float, xp: float, xip: float) -> tuple:
        """(r, dr_dy, dr_dxp, dr_dxip) at a phase point, a plain tuple in that order."""
        raise NotImplementedError

    def r0(self, xp: float, xip: float) -> float:
        return self._jet_values(0.0, xp, xip)[0]

    def r1(self, xp: float, xip: float) -> float:
        return self._jet_values(0.0, xp, xip)[1]

    # -- public evaluation -------------------------------------------

    def iterated_bracket(self, j: int, xp: float, xip: float) -> float:
        """j-fold Hamilton bracket of r0 applied to r1 on the boundary.

        j = 0 returns r1 itself.  The bracket H_{r0} f = (dr0/dxi') df/dx'
        - (dr0/dx') df/dxi' is iterated with the chart's exact derivatives.
        """
        if j < 0:
            raise ValueError("bracket order must be >= 0")
        return self._bracket(j, xp, xip)

    def _bracket(self, j: int, xp: float, xip: float) -> float:
        raise NotImplementedError

    def on_shell_defect(self, p: PhasePoint) -> float:
        return abs(p.eta**2 - self._jet_values(p.y, p.xp, p.xip)[0])


# ----------------------------------------------------------------------
# round charts


class _RoundChart(CollarChart):
    """Collar at one circle of a round domain hole < |x| < 1; x' the angle.

    The circle at depth y has radius rho(y) = edge + direction * y:
    direction = -1 inward from the outer circle (edge 1), +1 outward from
    an inner one (edge hole).  The boundary metric pulled to the collar gives
    |xi'|^2_g = xi'^2 / rho(y)^2, hence r = 1 - xi'^2 / rho(y)^2 in closed
    form.  The defaults are the outer circle of the unit disk, hole 0.
    At a glancing covector |r1| is about 2 / rho(0) >= 2, so `classify`
    resolves it at order 2 and a round chart needs no bracket budget.
    """

    component = "outer"

    def __init__(self, collar_width, edge=1.0, direction=-1.0, hole=0.0):
        self.collar_width = float(collar_width)
        self._edge, self._dir, self._hole = edge, direction, hole

    def radius(self, y):
        """rho(y), the radius of the circle at depth y."""
        return self._edge + self._dir * y

    def _jet_values(self, y, xp, xip):
        rho = self.radius(y)
        return (
            1.0 - xip**2 / rho**2,
            self._dir * 2.0 * xip**2 / rho**3,
            0.0,
            -2.0 * xip / rho**2,
        )

    def _bracket(self, j, xp, xip):
        # r0 and r1 depend on xi' alone, so the bracket vanishes identically
        return self.r1(xp, xip) if j == 0 else 0.0

    # metric data used by the boundary-layer machinery
    def curvature_h(self, y: float) -> float:
        """d/dy of log sqrt(det g)."""
        return self._dir / self.radius(y)

    def lam_jet(self, y, xip):
        """|xi'|_g and its first two y-derivatives (vectorized)."""
        rho = self.radius(np.asarray(y))
        a = np.abs(xip)
        return a / rho, -self._dir * a / rho**2, 2.0 * a / rho**3

    # embedding ------------------------------------------------------

    def contains(self, x: Sequence[float]) -> bool:
        """x lies in the closed domain, up to 1e-12 as in billiard.propagate."""
        return self._hole - 1e-12 <= math.hypot(x[0], x[1]) <= CLOSED_RADIUS

    def to_cartesian(self, p: PhasePoint) -> tuple[np.ndarray, np.ndarray]:
        rho = self.radius(p.y)
        if rho < 0.0:
            raise ValueError("point beyond the center")
        ct, st = math.cos(p.xp), math.sin(p.xp)
        # xi = dir eta rhat + (xi' / rho) that, with rhat = (ct, st) and
        # that = (-st, ct), one component at a time
        normal = self._dir * p.eta
        if rho == 0.0:
            if p.xip != 0.0:
                raise ValueError("cannot place an angular covector at the center")
            return np.zeros(2), np.array([normal * ct, normal * st])
        tangent = p.xip / rho
        return (
            np.array([rho * ct, rho * st]),
            np.array([normal * ct - tangent * st, normal * st + tangent * ct]),
        )

    def from_cartesian(self, x: Sequence[float], xi: Sequence[float]) -> PhasePoint:
        x = np.asarray(x, dtype=float)
        xi = np.asarray(xi, dtype=float)
        rho = float(np.hypot(x[0], x[1]))
        if rho < 1e-12:
            # the angle degenerates at the center, which only the disk holds;
            # align it with the covector so the covector is purely radial
            theta = math.atan2(xi[1], xi[0]) if float(xi @ xi) > 0 else 0.0
            return PhasePoint(1.0, theta, -float(np.hypot(xi[0], xi[1])), 0.0)
        theta = math.atan2(x[1], x[0])
        rhat = x / rho
        that = np.array([-rhat[1], rhat[0]])
        y = self._edge - rho if self._dir < 0.0 else rho - self._edge
        return PhasePoint(y, theta, self._dir * float(xi @ rhat), rho * float(xi @ that))


class DiskChart(_RoundChart):
    """Unit disk, collar at the circle |x| = 1: the round family without a hole.

    Contract: 0 < collar_width < 1, else ValueError."""

    kind = "disk"

    def __init__(self, collar_width: float = 0.35):
        if not 0.0 < collar_width < 1.0:
            raise ValueError("collar width must lie in (0, 1)")
        super().__init__(collar_width)


class AnnulusChart(_RoundChart):
    """Round annulus rho_in < |x| < 1; collar at the selected component.

    Contract: 0 < rho_in < 1, component "inner" or "outer" and 0 < collar_width
    < 1 - rho_in, by default 0.4 (1 - rho_in); ValueError otherwise."""

    kind = "annulus"

    def __init__(
        self,
        rho_in: float,
        component: str = "outer",
        collar_width: float | None = None,
    ):
        if not 0.0 < rho_in < 1.0:
            raise ValueError("inner radius must lie in (0, 1)")
        if component not in ("inner", "outer"):
            raise ValueError("component must be 'inner' or 'outer'")
        self.rho_in = float(rho_in)
        self.component = component
        gap = 1.0 - rho_in
        width = 0.4 * gap if collar_width is None else float(collar_width)
        if not 0.0 < width < gap:
            raise ValueError("collar width must be positive and below the gap width")
        edge, direction = (self.rho_in, 1.0) if component == "inner" else (1.0, -1.0)
        super().__init__(width, edge, direction, self.rho_in)

    def other_component(self) -> "AnnulusChart":
        other = "inner" if self.component == "outer" else "outer"
        return AnnulusChart(self.rho_in, other, self.collar_width)


# ----------------------------------------------------------------------
# polynomial model charts


def _poly_eval2(c: np.ndarray, z: float, zeta: float) -> float:
    # c[a, b] multiplies z^a zeta^b
    zp = z ** np.arange(c.shape[0])
    wp = zeta ** np.arange(c.shape[1])
    return float(zp @ c @ wp)


def _poly_diff2(c: np.ndarray, axis: int) -> np.ndarray:
    if c.shape[axis] == 1:
        return np.zeros((1, 1))
    if axis == 0:
        return c[1:, :] * np.arange(1, c.shape[0])[:, None]
    return c[:, 1:] * np.arange(1, c.shape[1])[None, :]


def _poly_mul2(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    # product of two tables: the full 2-D convolution, one shifted b per term of a
    nb0, nb1 = b.shape
    out = np.zeros((a.shape[0] + nb0 - 1, a.shape[1] + nb1 - 1))
    for i, j in zip(*np.nonzero(a)):
        out[i : i + nb0, j : j + nb1] += a[i, j] * b
    return out


class ModelChart(CollarChart):
    """Abstract collar with polynomial r; used to stage higher-order contact.

    `terms` lists (pow_z1, pow_zeta1, pow_y, coeff); r0 is the y^0 slice,
    r1 the y^1 slice.  There is no ambient domain, so y >= 0 is
    unrestricted and no Euclidean embedding exists; brackets past order
    max_derivative_order - 2 raise OrderBudgetError.
    """

    kind = "model"

    def __init__(
        self,
        terms: Sequence[tuple[int, int, int, float]],
        max_derivative_order: int = 8,
    ):
        if not terms:
            raise ValueError("model chart needs at least one term")
        for t in terms:
            if not isinstance(t, (list, tuple)) or len(t) != 4:
                raise ValueError(f"bad term {t!r}: need (pow_z1, pow_zeta1, pow_y, coeff)")
            if not all(_is_whole(p, 0) for p in t[:3]):
                raise ValueError(f"bad term {t!r}: powers must be integers >= 0")
            if not math.isfinite(float(t[3])):
                raise ValueError(f"bad term {t!r}: coefficient must be finite")
        self.terms = tuple((int(a), int(b), int(cy), float(v)) for a, b, cy, v in terms)
        coef = np.zeros(tuple(max(t[i] for t in self.terms) + 1 for i in range(3)))
        for a, b, cy, v in self.terms:
            coef[a, b, cy] += v
        self.coef = coef
        self.max_derivative_order = _derivative_order(max_derivative_order)
        self._r0_poly = coef[:, :, 0]
        self._r1_poly = coef[:, :, 1] if coef.shape[2] > 1 else np.zeros((1, 1))

    def _jet_values(self, y, xp, xip):
        ypow = y ** np.arange(self.coef.shape[2])
        c2 = self.coef @ ypow  # collapse y axis -> (z, zeta) table
        dy_w = np.arange(self.coef.shape[2]) * y ** np.maximum(
            np.arange(self.coef.shape[2]) - 1, 0
        )
        dy_w[0] = 0.0
        c2_dy = self.coef @ dy_w
        return (
            _poly_eval2(c2, xp, xip),
            _poly_eval2(c2_dy, xp, xip),
            _poly_eval2(_poly_diff2(c2, 0), xp, xip),
            _poly_eval2(_poly_diff2(c2, 1), xp, xip),
        )

    def r0(self, xp, xip):
        return _poly_eval2(self._r0_poly, xp, xip)

    def r1(self, xp, xip):
        return _poly_eval2(self._r1_poly, xp, xip)

    def _bracket(self, j, xp, xip):
        if j > self.max_derivative_order - 2:
            raise OrderBudgetError(
                f"bracket order {j} exceeds budget K-2 = {self.max_derivative_order - 2}"
            )
        return _poly_eval2(self._bracket_poly(j), xp, xip)

    def _bracket_poly(self, j: int) -> np.ndarray:
        g = self._r1_poly
        dz_r0 = _poly_diff2(self._r0_poly, 0)
        dzeta_r0 = _poly_diff2(self._r0_poly, 1)
        for _ in range(j):
            g = _poly_mul2(dzeta_r0, _poly_diff2(g, 0)) - _poly_mul2(
                dz_r0, _poly_diff2(g, 1)
            )
        return g


# ----------------------------------------------------------------------
# loading


def chart_definition(spec: str | dict) -> str | dict:
    """The definition a chart spec stands for: a shorthand string or a dict
    as given, a path read to the dict its JSON file holds.

    Contract: a chart file holds a JSON object, else ValueError.
    """
    if isinstance(spec, dict):
        return spec
    s = str(spec)
    if s == "disk" or s.startswith(("disk:", "annulus:")):
        return s
    with open(s) as fh:
        d = json.load(fh)
    if not isinstance(d, dict):
        raise ValueError("a chart definition must be a JSON object")
    return d


def load_chart(spec: str | dict) -> CollarChart:
    """Build a chart from a shorthand string or a parsed definition.

    Strings: "disk", "disk:WIDTH", "annulus:RHO_IN:inner|outer", or a path
    to a JSON definition file.  Dicts use the same keys as the files: the
    kind plus the keyword arguments of that kind's constructor, e.g.
    {"kind": "model", "terms": [[pow_z1, pow_zeta1, pow_y, coeff], ...]}.
    """
    spec = chart_definition(spec)
    if isinstance(spec, dict):
        return _chart_from_dict(spec)
    kind, *fields = spec.split(":")
    form, most = ("disk[:WIDTH]", 1) if kind == "disk" else ("annulus:RHO_IN[:inner|outer]", 2)
    if len(fields) > most:
        raise ValueError(f"chart {spec!r} has fields past {form}")
    if kind == "disk":
        return DiskChart(collar_width=float(fields[0]) if fields else 0.35)
    return AnnulusChart(float(fields[0]), *fields[1:])


_KINDS = {"disk": DiskChart, "annulus": AnnulusChart, "model": ModelChart}


def _chart_from_dict(d: dict) -> CollarChart:
    """Contract: kind is "disk", "annulus" or "model" and the other keys are
    that kind's keywords, each required one given; ValueError otherwise."""
    kind = d.get("kind")
    if kind not in _KINDS:
        raise ValueError(f"unknown chart kind {kind!r}")
    ctor = _KINDS[kind]
    params = inspect.signature(ctor).parameters
    for key, param in params.items():
        if param.default is param.empty and key not in d:
            raise ValueError(f"chart kind {kind!r} needs key {key!r}")
    unknown = sorted(set(d) - set(params) - {"kind"})
    if unknown:
        raise ValueError(f"chart kind {kind!r} has no key {unknown[0]!r}")
    return ctor(**{key: value for key, value in d.items() if key != "kind"})
