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

The semiclassical parameter of a mode is h = 1/lam.  One builder sizes
each mode's polar grid and evaluates c and, once, J_m(lam).
"""

from __future__ import annotations

import math
from functools import cached_property
from typing import Optional

import numpy as np
from scipy.special import jn_zeros, jv

from .polar import PolarGrid

__all__ = [
    "bessel_zero",
    "family_lambda",
    "pick_k_for_ratio",
    "Quasimode",
    "laplace_disk_mode",
    "stokes_disk_mode",
]


# the radial indices a ratio is matched over: 1..K_MAX
K_MAX = 80

# one read-only table of the first zeros of J_m per order m, per process
_ZEROS: dict = {}


def _zeros_table(m: int, k: int) -> np.ndarray:
    """The first k positive zeros of J_m, increasing: a read-only prefix of
    the order's one table, which grows by doubling, 8, 16, 32, ... zeros,
    up to K_MAX or k if larger.  `jn_zeros` is prefix-stable, so a prefix
    holds the bits of a k-zero table.  A refused (m, k) raises and leaves
    the tables as they were."""
    if m < 0 or k < 1:
        raise ValueError("need m >= 0 and k >= 1")
    zs = _ZEROS.get(m)
    if zs is None or len(zs) < k:
        n = 8 if zs is None else 2 * len(zs)
        while n < k:
            n *= 2
        zs = jn_zeros(m, min(n, max(k, K_MAX)))
        zs.flags.writeable = False
        _ZEROS[m] = zs
    return zs[:k]


def bessel_zero(m: int, k: int) -> float:
    """k-th positive zero of J_m."""
    return float(_zeros_table(m, k)[-1])


def _zero_order(family: str, m: int) -> int:
    # scalar eigenvalues sit at zeros of J_m, velocity ones at J_{m+1}
    if family not in ("laplace", "stokes"):
        raise ValueError(f"family must be 'laplace' or 'stokes', got {family!r}")
    if m < 0:
        raise ValueError(f"m must be >= 0, got {m}")
    return m if family == "laplace" else m + 1


def family_lambda(family: str, m: int, k: int) -> float:
    """Eigenvalue lam = 1/h of the (m, k) member of a mode family.

    Contract: family is "laplace" or "stokes" and m >= 0, else ValueError.
    """
    return bessel_zero(_zero_order(family, m), k)


def pick_k_for_ratio(family: str, m: int, ratio: float) -> int:
    """Radial index whose angular-momentum fraction m/lam is nearest ratio.

    lam grows with k, so the fraction sweeps down monotonically; the
    minimizer over 1..K_MAX is unique up to ties.  Once m/lam_K falls
    below ratio, every later zero lies farther from it, so the zeros are
    read in prefixes of 8, 16, 32, ... of the order's table, which grows
    only as far as the first prefix that crosses.

    Contract: family is "laplace" or "stokes", m >= 0 and ratio finite,
    else ValueError.
    """
    if not math.isfinite(ratio):
        raise ValueError(f"ratio must be finite, got {ratio}")
    order = _zero_order(family, m)
    K = 8
    while True:
        zs = _zeros_table(order, K)
        if K == K_MAX or m / zs[-1] < ratio:
            return int(np.argmin(np.abs(m / zs - ratio))) + 1
        K = min(2 * K, K_MAX)


class Quasimode:
    """A sampled mode plus its closed-form evaluators.

    velocity has shape (ncomp, num_r, num_theta) with ncomp = 1 for the
    scalar family and 2 (cartesian components) for the velocity family;
    pressure is the companion scalar (None for the scalar family).  Both
    are sampled on the polar grid on first read: experiments that only
    evaluate the closed form never build them.
    """

    def __init__(self, kind, m, k, lam, grid, c, jm_lam):
        self.kind = kind
        self.m = m
        self.k = k
        self.lam = lam
        self.h = 1.0 / lam
        self.grid = grid
        self.c = c
        self.jm_lam = jm_lam  # J_m(lam) of the velocity family, else None

    @cached_property
    def _polar_table(self) -> tuple:
        """The radial table on the polar radii: the closed form for the
        scalar family, and for the velocity family (F', F / r) with F' the
        spectral derivative of the stream profile F on the grid."""
        g = self.grid
        if self.kind == "laplace":
            return self.radial_table(g.r)
        F = self.c * (jv(self.m, self.lam * g.r) - self.jm_lam * g.r**self.m)
        return g.harmonic_dr(F, self.m), F / g.r

    @cached_property
    def _fields(self):
        """(velocity, pressure) on the polar grid.

        Both families assemble the polar radial table with `angular_values`.
        For the velocity family, u = (d_2 psi, -d_1 psi), and -h^2 Lap u - u
        is the rotated gradient of the harmonic c J_m(lam) r^m e^{i m theta},
        which for a power of z = x_1 + i x_2 is i times its gradient; so the
        momentum equation -h^2 Lap u - u + h grad q = 0 fixes q = -i c lam
        J_m(lam) z^m, the closed form.  The table's F' is the one spectral
        derivative left beside the closed form; taking `radial_table`'s dF
        instead moves recorded residuals, so it waits for tolerance classes
        on the reference.
        """
        g, m = self.grid, self.m
        u = self.angular_values([t[:, None] for t in self._polar_table], g.theta)
        u = np.moveaxis(u, -1, 0)
        if self.kind == "laplace":
            return u, None
        w_m = g.r[:, None] ** m * np.exp(1j * m * g.theta)[None, :]
        return u, -1j * self.c * self.lam * self.jm_lam * w_m

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
        so a caller evaluates this table at the radii of its points and
        runs `angular_values` per point.  Scalar family: (c J_m(lam rho),).
        Velocity family: (F', F / rho) for the stream profile F(rho) = c
        (J_m(lam rho) - J_m(lam) rho^m), with the mode's stored J_m(lam);
        rho = 0 takes the limit of F / rho, c (lam / 2 - J_1(lam)) at m = 1
        and 0 otherwise.  J_m' = J_{m-1} - (m / x) J_m takes the two orders m - 1 and
        m; as x -> 0, (m / x) J_m -> 1/2 for m = 1 and 0 for any other
        m.  Each entry depends on its own radius only, so a table on any
        set of radii holds the bits of a per-point evaluation at each
        radius.
        """
        m, lam, c, jm_lam = self.m, self.lam, self.c, self.jm_lam
        x = lam * rad
        jm = jv(m, x)
        if self.kind == "laplace":
            return (c * jm,)
        F = c * (jm - jm_lam * rad**m)
        with np.errstate(divide="ignore", invalid="ignore"):
            jm_over_x = np.where(x > 0.0, jm / x, 0.5 if m == 1 else 0.0)
        dF = c * (lam * (jv(m - 1, x) - m * jm_over_x) - jm_lam * m * rad ** max(m - 1, 0))
        with np.errstate(divide="ignore", invalid="ignore"):
            F_over_rho = np.where(rad > 1e-12, F / np.where(rad > 1e-12, rad, 1.0), 0.0)
        if m == 1:
            lim = c * (0.5 * lam - jm_lam)
            F_over_rho = np.where(rad > 1e-12, F_over_rho, lim)
        return dF, F_over_rho

    def angular_values(self, radial, theta: np.ndarray) -> np.ndarray:
        """Velocity from `radial_table` entries gathered to the points and
        the points' polar angles; the shape is that of the entries and
        theta broadcast together, plus (ncomp,)."""
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
        """Residuals of the polar fields, and h times their boundary flux.

        Each field is a sum of a few angular harmonics p_j(r) e^{i j theta},
        so every residual is taken on the profiles of the polar table, with
        no angular transform: the scalar mode sits at m, and with A, B =
        (F' -+ m F / r) / 2 the velocity is u_x = -i A e^{i (m+1) theta} +
        i B e^{i (m-1) theta} and u_y = -A e^{i (m+1) theta} - B e^{i (m-1)
        theta}.  The Laplacian keeps each harmonic, a gradient sends j to
        j +- 1, norms are Parseval sums, and the boundary and flux norms
        read the entries at r = 1.
        """
        g, h, m = self.grid, self.h, self.m
        out = {}
        if self.kind == "laplace":
            u = [{m: self._polar_table[0]}]
        else:
            dF, F_over_r = self._polar_table
            A, B = 0.5 * (dF - m * F_over_r), 0.5 * (dF + m * F_over_r)
            u = [{m + 1: -1j * A, m - 1: 1j * B}, {m + 1: -A, m - 1: -B}]
        res = [{j: -(h * h) * g.harmonic_laplacian(p, j) - p for j, p in c.items()} for c in u]
        if self.kind == "laplace":
            out["pde"] = g.harmonic_norm(res[0].values())
            out["boundary"] = _rim_norm(p[0] for p in u[0].values())
            out["normalization"] = abs(g.harmonic_norm(u[0].values()) - 1.0)
        else:
            q = -1j * self.c * self.lam * self.jm_lam * g.r**m
            grad_q = _gradient(g, {m: q})
            res = [{j: p + h * dq[j] for j, p in rc.items()} for rc, dq in zip(res, grad_q)]
            out["momentum"] = math.hypot(*(g.harmonic_norm(rc.values()) for rc in res))
            d1ux, d2uy = _gradient(g, u[0])[0], _gradient(g, u[1])[1]
            out["divergence"] = g.harmonic_norm(d1ux[j] + d2uy[j] for j in d1ux)
            out["boundary"] = max(_rim_norm(p[0] for p in c.values()) for c in u)
            nrm = math.hypot(*(g.harmonic_norm(c.values()) for c in u))
            out["normalization"] = abs(nrm - 1.0)
        out["flux_norm"] = _rim_norm(
            h * g.harmonic_dr(p, j)[0] for c in u for j, p in c.items()
        )
        return out


def _gradient(grid: PolarGrid, field: dict) -> tuple[dict, dict]:
    """(d_1 f, d_2 f) of f = sum_j p_j(r) e^{i j theta}, each as {j: p_j}.

    d_1 = cos theta d_r - (sin theta / r) d_theta sends p_j to
    (p_j' -+ j p_j / r) / 2 at j +- 1, and d_2 = sin theta d_r + (cos theta
    / r) d_theta to -+ (i / 2) (p_j' -+ j p_j / r).
    """
    d1, d2 = {}, {}
    for j, p in field.items():
        dp, p_over_r = grid.harmonic_dr(p, j), j * p / grid.r
        for s in (1, -1):
            half = 0.5 * (dp - s * p_over_r)
            d1[j + s] = d1.get(j + s, 0.0) + half
            d2[j + s] = d2.get(j + s, 0.0) - s * 1j * half
    return d1, d2


def _rim_norm(values) -> float:
    """L2 norm on the unit circle of a sum of distinct harmonics, given their
    profiles' values at r = 1: (2 pi sum_j |p_j(1)|^2)^{1/2} by Parseval."""
    return math.sqrt(2.0 * math.pi * sum(abs(v) ** 2 for v in values))


def _disk_mode(kind: str, m: int, k: int) -> Quasimode:
    """The unit-norm (m, k) mode of a family, on max(40, ceil(1.35 lam) +
    16) radii and max(32, 4 m + 16) angles: more than 4 lam / pi radii and
    an even count of more than 4 m angles resolve lam and m."""
    lam = family_lambda(kind, m, k)
    grid = PolarGrid(max(40, int(math.ceil(1.35 * lam)) + 16), max(32, 4 * m + 16))
    if kind == "laplace":
        jm_lam, c = None, 1.0 / (math.sqrt(math.pi) * abs(jv(m + 1, lam)))
    else:
        jm_lam = jv(m, lam)
        c = 1.0 / (math.sqrt(math.pi) * lam * abs(jm_lam))
    return Quasimode(kind, m, k, lam, grid, c, jm_lam)


def laplace_disk_mode(m: int, k: int) -> Quasimode:
    """Dirichlet eigenmode u = c J_m(lam r) e^{i m theta} of the scalar problem."""
    return _disk_mode("laplace", m, k)


def stokes_disk_mode(m: int, k: int) -> Quasimode:
    """No-slip divergence-free eigenmode pair (velocity, rescaled pressure).

    The velocity derives from the stream function c (J_m(lam r) - J_m(lam)
    r^m) e^{i m theta}; see `Quasimode._fields` for the pressure.
    """
    return _disk_mode("stokes", m, k)
