"""Analytic quasimode families on the unit disk.

Two families, both exact eigenfunctions so every claimed property can be
checked to solver precision:

* scalar modes  u = c J_m(lam r) e^{i m theta}  with lam a zero of J_m,
  Dirichlet on the circle;
* divergence-free velocity pairs built from the stream function
  psi = c (J_m(lam r) - J_m(lam) r^m) e^{i m theta}  with lam a zero of
  J_{m+1}, which vanishes to second order on the circle (no-slip).  The
  companion pressure is a multiple of the harmonic polynomial r^m e^{i m
  theta}.

The semiclassical parameter of a mode is h = 1/lam.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property, lru_cache
from typing import Optional

import numpy as np
from scipy.special import jn_zeros, jv

from .polar import PolarGrid

__all__ = [
    "bessel_zero",
    "family_lambda",
    "pick_k_for_ratio",
    "ModeSpec",
    "Quasimode",
    "laplace_disk_mode",
    "stokes_disk_mode",
]


def _bessel_zeros(m: int, k: int) -> np.ndarray:
    """The first k positive zeros of J_m, increasing; a read-only array."""
    if m < 0 or k < 1:
        raise ValueError("need m >= 0 and k >= 1")
    return _zeros_table(m, k)


@lru_cache(maxsize=None)
def _zeros_table(m: int, k: int) -> np.ndarray:
    # one table per (m, k) and process; read-only, so no caller can edit it
    zs = jn_zeros(m, k)
    zs.flags.writeable = False
    return zs


def bessel_zero(m: int, k: int) -> float:
    """k-th positive zero of J_m."""
    return float(_bessel_zeros(m, k)[-1])


def _zero_order(family: str, m: int) -> int:
    # scalar eigenvalues sit at zeros of J_m, velocity ones at J_{m+1}
    return m if family == "laplace" else m + 1


def family_lambda(family: str, m: int, k: int) -> float:
    """Eigenvalue lam = 1/h of the (m, k) member of a mode family."""
    return bessel_zero(_zero_order(family, m), k)


def pick_k_for_ratio(family: str, m: int, ratio: float, k_max: int = 80) -> int:
    """Radial index whose angular-momentum fraction m/lam is nearest ratio.

    lam grows with k, so the fraction sweeps down monotonically; the
    minimizer over 1..k_max is unique up to ties.  Once m/lam_K falls
    below ratio, every later zero lies farther from it, so the zeros are
    taken in prefixes of 8, 16, 32, ... and the search stops at the first
    prefix that crosses; `jn_zeros` is prefix-stable, so the prefix holds
    the same bits as the k_max table.
    """
    order = _zero_order(family, m)
    K = min(8, k_max)
    while True:
        zs = _bessel_zeros(order, K)
        if K == k_max or m / zs[-1] < ratio:
            return int(np.argmin(np.abs(m / zs - ratio))) + 1
        K = min(2 * K, k_max)


@dataclass(frozen=True)
class ModeSpec:
    """Resolution request for a quasimode; None fields pick safe defaults."""

    kind: str
    m: int
    k: int
    num_r: Optional[int] = None
    num_theta: Optional[int] = None

    def resolve(self, lam: float):
        if self.kind not in ("laplace", "stokes"):
            raise ValueError(f"unknown mode kind {self.kind!r}")
        if self.m < 0 or self.k < 1:
            raise ValueError("need m >= 0 and k >= 1")
        num_r = self.num_r if self.num_r is not None else max(40, int(math.ceil(1.35 * lam)) + 16)
        num_theta = (
            self.num_theta
            if self.num_theta is not None
            else max(32, 4 * self.m + 16)
        )
        num_theta += num_theta % 2
        floor_r = 4.0 * lam / math.pi
        if num_r <= floor_r:
            raise ValueError(f"need num_r > {floor_r:.1f} for lam = {lam:.3f}, got {num_r}")
        if num_theta <= 4 * self.m:
            raise ValueError(f"need num_theta > {4 * self.m} for m = {self.m}, got {num_theta}")
        return num_r, num_theta


def _jv_deriv(m, x):
    if m == 0:
        return -jv(1, x)
    return 0.5 * (jv(m - 1, x) - jv(m + 1, x))


class Quasimode:
    """A sampled mode plus its closed-form evaluators.

    velocity has shape (ncomp, num_r, num_theta) with ncomp = 1 for the
    scalar family and 2 (cartesian components) for the velocity family;
    pressure is the companion scalar (None for the scalar family).  Both
    are sampled on the polar grid on first read: experiments that only
    evaluate the closed form never build them.
    """

    def __init__(self, kind, m, k, lam, grid, c):
        self.kind = kind
        self.m = m
        self.k = k
        self.lam = lam
        self.h = 1.0 / lam
        self.grid = grid
        self.c = c

    @cached_property
    def _fields(self):
        """(velocity, pressure) on the polar grid.

        For the velocity family, u = (d_2 psi, -d_1 psi), and -h^2 Lap u -
        u is the rotated gradient of the harmonic c J_m(lam) r^m e^{i m
        theta}, which for a power of z = x_1 + i x_2 is i times its
        gradient; so the momentum equation -h^2 Lap u - u + h grad q = 0
        fixes q = -i c lam J_m(lam) z^m.
        """
        g, m, lam, c = self.grid, self.m, self.lam, self.c
        if self.kind == "laplace":
            profile = c * jv(m, lam * g.r)
            u = profile[:, None] * np.exp(1j * m * g.theta)[None, :]
            return np.stack([u]), None
        jm_lam = jv(m, lam)
        F = c * (jv(m, lam * g.r) - jm_lam * g.r**m)
        psi = F[:, None] * np.exp(1j * m * g.theta)[None, :]
        g1, g2 = g.grad_cartesian(psi)
        w_m = g.r[:, None] ** m * np.exp(1j * m * g.theta)[None, :]
        return np.stack([g2, -g1]), -1j * c * lam * jm_lam * w_m

    @property
    def ncomp(self) -> int:
        """Velocity components: 1 for the scalar family, 2 for the velocity family."""
        return 1 if self.kind == "laplace" else 2

    @property
    def velocity(self) -> np.ndarray:
        return self._fields[0]

    @property
    def pressure(self) -> Optional[np.ndarray]:
        return self._fields[1]

    # -- closed-form evaluation ------------------------------------------

    def radial_table(self, rad: np.ndarray) -> tuple:
        """The radial factors at the radii `rad`, one array per factor.

        The closed form F(rho) e^{i m theta} depends on the radius alone,
        so a caller evaluates this table once per distinct float rho,
        gathers it back to its points and runs only `angular_values` per
        point.  Scalar family: (c J_m(lam rho),).  Velocity family: (F',
        F / rho) for the stream profile F(rho) = c (J_m(lam rho) - J_m(lam)
        rho^m); rho = 0 takes the limit of F / rho.  Each entry depends on
        its own radius only, so a table on any set of radii holds the bits
        of a per-point evaluation at each radius.
        """
        m, lam, c = self.m, self.lam, self.c
        if self.kind == "laplace":
            return (c * jv(m, lam * rad),)
        jm_lam = jv(m, lam)
        F = c * (jv(m, lam * rad) - jm_lam * rad**m)
        dF = c * (lam * _jv_deriv(m, lam * rad) - jm_lam * m * rad ** max(m - 1, 0))
        with np.errstate(divide="ignore", invalid="ignore"):
            F_over_rho = np.where(rad > 1e-12, F / np.where(rad > 1e-12, rad, 1.0), 0.0)
        if m == 1:
            lim = c * (0.5 * lam - jv(1, lam))
            F_over_rho = np.where(rad > 1e-12, F_over_rho, lim)
        return dF, F_over_rho

    def angular_values(self, radial, theta: np.ndarray) -> np.ndarray:
        """Velocity, shape theta.shape + (ncomp,), from `radial_table`
        entries gathered to the points and the points' polar angles."""
        m = self.m
        phase = np.exp(1j * m * theta)
        if self.kind == "laplace":
            return (radial[0] * phase)[..., None]
        dF, F_over_rho = radial
        ct, st = np.cos(theta), np.sin(theta)
        # u = (d_2 psi, -d_1 psi) for psi = F(rho) e^{i m theta}
        ux = (st * dF + ct * 1j * m * F_over_rho) * phase
        uy = -(ct * dF - st * 1j * m * F_over_rho) * phase
        return np.stack([ux, uy], axis=-1)

    # -- grid diagnostics ---------------------------------------------------

    def residual_report(self) -> dict:
        """Residuals of the sampled fields, and h times their boundary flux.

        Each velocity component takes one angular transform and one radial
        derivative, which give its Laplacian, its normal derivative on the
        boundary row r = 1 and, for the divergence, its gradient.
        """
        g = self.grid
        h = self.h
        out = {}
        stokes = self.kind == "stokes"
        lap, dr, grad = zip(*(g.derivatives(u, gradient=stokes) for u in self.velocity))
        if not stokes:
            u = self.velocity[0]
            out["pde"] = g.norm(-(h * h) * lap[0] - u)
            out["boundary"] = g.boundary_norm(u[0, :])
            out["normalization"] = abs(g.norm(u) - 1.0)
        else:
            ux, uy = self.velocity
            qx, qy = g.grad_cartesian(self.pressure)
            rx = -(h * h) * lap[0] - ux + h * qx
            ry = -(h * h) * lap[1] - uy + h * qy
            out["momentum"] = math.hypot(g.norm(rx), g.norm(ry))
            out["divergence"] = g.norm(grad[0][0] + grad[1][1])
            out["boundary"] = max(g.boundary_norm(ux[0, :]), g.boundary_norm(uy[0, :]))
            nrm = math.hypot(g.norm(ux), g.norm(uy))
            out["normalization"] = abs(nrm - 1.0)
        out["flux_norm"] = math.sqrt(
            sum(g.boundary_norm(h * d[0, :]) ** 2 for d in dr)
        )
        return out


def laplace_disk_mode(m: int, k: int, num_r=None, num_theta=None) -> Quasimode:
    """Dirichlet eigenmode of the scalar problem, unit L2 norm."""
    spec = ModeSpec("laplace", m, k, num_r, num_theta)
    lam = family_lambda("laplace", m, k)
    grid = PolarGrid(*spec.resolve(lam))
    c = 1.0 / (math.sqrt(math.pi) * abs(jv(m + 1, lam)))
    return Quasimode("laplace", m, k, lam, grid, c)


def stokes_disk_mode(m: int, k: int, num_r=None, num_theta=None) -> Quasimode:
    """No-slip divergence-free eigenmode pair (velocity, rescaled pressure).

    The velocity derives from the stream function c (J_m(lam r) - J_m(lam)
    r^m) e^{i m theta}; see `Quasimode._fields` for the pressure.
    """
    spec = ModeSpec("stokes", m, k, num_r, num_theta)
    lam = family_lambda("stokes", m, k)
    grid = PolarGrid(*spec.resolve(lam))
    c = 1.0 / (math.sqrt(math.pi) * lam * abs(jv(m, lam)))
    return Quasimode("stokes", m, k, lam, grid, c)
