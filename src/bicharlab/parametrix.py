"""Boundary-layer expansion of the harmonic pressure near the rim.

The harmonic extension of high-frequency boundary data decays into the
collar like exp(-y lam / h), where lam(y, xi') is the metric length of
the tangential frequency.  This module builds a two-term symbol
expansion of that layer: the exponential leading factor in closed form
and a first correction that solves a linear second-order ODE in the
collar depth.  The ODE is discretized by backward RK4 steps; each step
is an affine map of (A, A'), and a suffix scan composes all of them in
ceil(log2 n) vectorized passes, in blocks that keep the growing
homogeneous branch finite.  The step-by-step loop stays in the tests
as the oracle; see `_solve_correction` for the tolerance.

The expansion is judged against the exact harmonic extension.  Ring mode
e^{imx'} stays one harmonic under both, so `extension_error`, the
collar-L2 distance at h = 1/|m|, is a closed-form depth integral; the
slice-by-slice collar fields stay in the tests as its oracle.  A
strip-mass diagnostic quantifies how thin the layer actually is at a
given h.

The round charts supply lam and the first-order coefficient of the
Laplacian in collar coordinates: on the unit disk lam = |xi'|/(1 - y)
and the coefficient is -1/(1 - y); on the inner component of an annulus
lam = |xi'|/(rho_in + y) falls with depth.  Low frequencies are
removed by a polynomial ramp that vanishes for lam <= DELTA0/2 and
equals one for lam >= DELTA0, which also removes the xi' = 0
singularity of the layer symbols.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .charts import DiskChart
from .polar import PolarGrid

__all__ = [
    "ParametrixODEError",
    "ParametrixSymbol",
    "build_parametrix",
    "extension_error",
    "band_mass",
]


# fewest RK4 steps of the depth ODE; steep layers (large lam / h) take more
MIN_ODE_STEPS = 2000
# log-growth of the homogeneous sweep that one scan block may span
LOG_GROWTH_BLOCK = float(np.log(1e30))
# ramp edge and collar depth of the layer symbols
DELTA0 = 0.25
EPS0 = 0.3
# Gauss-Legendre depth slices of the collar integrals
NUM_Y = 200


class ParametrixODEError(RuntimeError):
    """The depth ODE for the correction symbol left the finite range."""


def _require_h(h) -> None:
    if not (np.isfinite(h) and h > 0.0):
        raise ValueError(f"h must be finite and positive, got {h}")


def _ramp_s(t):
    # the layer symbols' ramp rises over [DELTA0 / 2, DELTA0]
    return np.clip((np.asarray(t, dtype=float) - DELTA0 / 2.0) / (DELTA0 / 2.0), 0.0, 1.0)


def _ramp(t):
    """Polynomial ramp: 0 below DELTA0 / 2, 1 above DELTA0, C^3 across.

    The interior shape is 35 s^4 - 84 s^5 + 70 s^6 - 20 s^7, whose first
    three derivatives vanish at both ends, so first and second
    derivatives of the ramp are continuous and available in closed form.
    """
    s = _ramp_s(t)
    return s**4 * (35.0 + s * (-84.0 + s * (70.0 - 20.0 * s)))


def _ramp_derivatives(t):
    """First and second derivatives of `_ramp`."""
    s = _ramp_s(t)
    w = s * (1.0 - s)
    return 140.0 * w**3 / (DELTA0 / 2.0), 420.0 * w**2 * (1.0 - 2.0 * s) / (DELTA0 / 2.0) ** 2


def _layer_pieces(chart, y, xi, h: float):
    """Exponential layer E, ramp factor and the derivative combinations
    entering the correction forcing, all broadcast over (y, xi)."""
    lam, lam1, lam2 = chart.lam_jet(y, np.abs(xi))
    E = np.exp(-y * lam / h)
    phi = _ramp(lam)
    d1, d2 = _ramp_derivatives(lam)
    phi1 = d1 * lam1
    phi2 = d2 * lam1**2 + d1 * lam2
    psi1 = lam + y * lam1
    psi2 = 2.0 * lam1 + y * lam2
    return lam, E, phi, phi1, phi2, psi1, psi2


def _forcing(chart, y, xi, h: float):
    """Right-hand side of the correction ODE  h^2 A'' - lam^2 A = F.

    F collects the order-one remainder of applying the collar Laplacian
    to the leading layer a0 = E * phi:

        F = -(1/h) (h^2 d_y^2 - lam^2) a0  -  H(y) * (h d_y a0),

    with H the first-order coefficient of the Laplacian.  The curvature
    term enters as H times (h d_y a0); written with a bare h^2 it would
    be one order lower and the correction would no longer cancel the
    order-h residual (see the per-mode residual identity in the tests).
    """
    lam, E, phi, phi1, phi2, psi1, psi2 = _layer_pieces(chart, y, xi, h)
    H = chart.curvature_h(y)
    # (psi1^2 - lam^2) expands to 2 lam (y lam') + (y lam')^2; keep it in
    # that form so nothing is lost to cancellation at small y
    lamp = psi1 - lam
    f0 = ((2.0 * lam * lamp + lamp**2) / h) * phi - psi2 * phi - 2.0 * psi1 * phi1 + h * phi2
    f0 = f0 * E
    hdy = (-psi1 * phi + h * phi1) * E
    return -(f0 + H * hdy)


def _backward_step(stages, a, v, h: float, dt: float):
    """One backward RK4 step of h^2 A'' = lam^2 A + F, on every row at once.

    `stages` holds (lam^2, F) at the depths y, y - dt/2 and y - dt that
    the stages visit; all arguments broadcast against each other.
    """

    def rhs(stage, a, v):
        lam2, force = stage
        return v, (lam2 * a + force) / h**2

    at_y, at_mid, at_end = stages
    k1 = rhs(at_y, a, v)
    k2 = rhs(at_mid, a - 0.5 * dt * k1[0], v - 0.5 * dt * k1[1])
    k3 = rhs(at_mid, a - 0.5 * dt * k2[0], v - 0.5 * dt * k2[1])
    k4 = rhs(at_end, a - dt * k3[0], v - dt * k3[1])
    return tuple(
        s - (dt / 6.0) * (f1 + 2.0 * f2 + 2.0 * f3 + f4)
        for s, f1, f2, f3, f4 in zip((a, v), k1, k2, k3, k4)
    )


def _suffix_scan(m11, m12, m21, m22, c1, c2):
    """Compose the row maps s -> M s + c from each row to the last, in place.

    Hillis-Steele inclusive scan: after the pass with offset d, row j
    holds the maps of rows j .. j + 2d - 1 composed, so ceil(log2 n)
    passes leave row j mapping the state below the last row to the
    state at row j.  The 2x2 products are written out elementwise.
    """
    n = m11.shape[0]
    d = 1
    while d < n:
        # row j absorbs row j + d: (A, a) o (B, b) = (A B, A b + a)
        a11, a12, a21, a22, a1, a2 = (x[:-d] for x in (m11, m12, m21, m22, c1, c2))
        b11, b12, b21, b22, b1, b2 = (x[d:] for x in (m11, m12, m21, m22, c1, c2))
        new = (
            a11 * b11 + a12 * b21,
            a11 * b12 + a12 * b22,
            a21 * b11 + a22 * b21,
            a21 * b12 + a22 * b22,
            a11 * b1 + a12 * b2 + a1,
            a21 * b1 + a22 * b2 + a2,
        )
        for x, x_new in zip((m11, m12, m21, m22, c1, c2), new):
            x[:-d] = x_new
        d *= 2


def _solve_correction(chart, xi, h: float, n_steps: int):
    """Solve the correction ODE backward from y = EPS0 and superpose.

    Zero terminal data wipes the branch that grows with depth; one
    backward sweep of the homogeneous equation supplies the decaying
    branch, whose multiple is then fixed so the correction vanishes at
    the boundary.  lam^2 and F are tabulated once, as (n_steps, len(xi))
    arrays, at the depths ys[1:], ys[1:] - dt/2 and ys[1:] - dt that the
    RK4 stages visit.  So backward step j, from ys[j + 1] to ys[j], is an
    affine map s -> M_j s + c_j of s = (A, A'): M_j is the step applied to
    the unit vectors without forcing, c_j the step applied to 0 with it,
    both for all rows at once.  A suffix scan composes the maps in
    ceil(log2 n_steps) passes; the particular solution is the scanned c,
    the homogeneous one the scanned M applied to (1, -lam(EPS0)/h).

    The homogeneous sweep grows like exp(int lam dy / h), so the rows are
    scanned in blocks, from the deepest, each of log-growth at most
    LOG_GROWTH_BLOCK (read from the lam^2 table); each block starts from
    the state the previous one ended in, the homogeneous state rescaled
    to unit size with its log shift kept.  On the disk, up to m = 128,
    one block suffices.

    The result matches the step-by-step RK4 loop, kept in the tests as
    the oracle, to 1e-11 of each column's maximum, or to 1e-14 of the
    term a_p(0) u / u(0) that the superposition cancels where that is
    larger.  Both solvers lose the digits of that cancellation alike; it
    is large where lam falls with depth (inner annulus component, large
    m).  Returns the depth grid and the correction with its derivative,
    both (n_steps + 1, len(xi)).
    """
    xi = np.atleast_1d(np.asarray(xi, dtype=float))
    ns = int(n_steps)
    ys = np.linspace(0.0, EPS0, ns + 1)
    dt = EPS0 / ns

    y = ys[1:, None]
    with np.errstate(invalid="ignore", over="ignore"):
        tables = [(chart.lam_jet(yy, np.abs(xi))[0] ** 2, _forcing(chart, yy, xi, h))
                  for yy in (y, y - 0.5 * dt, y - dt)]
        unforced = [(lam2, 0.0) for lam2, _ in tables]
        m11, m21 = _backward_step(unforced, 1.0, 0.0, h, dt)
        m12, m22 = _backward_step(unforced, 0.0, 1.0, h, dt)
        c1, c2 = _backward_step(tables, 0.0, 0.0, h, dt)
        growth = np.cumsum(
            (dt / h) * np.sqrt(np.max([lam2.max(axis=1) for lam2, _ in tables], axis=0))[::-1]
        )

    lam_end = chart.lam_jet(EPS0, np.abs(xi))[0]
    path_a = np.zeros((ns + 1, xi.size), dtype=complex)
    path_v = np.zeros_like(path_a)
    path_u = np.ones((ns + 1, xi.size))
    path_uv = np.empty_like(path_u)
    path_uv[ns] = -lam_end / h
    path_log = np.zeros_like(path_u)

    top = ns
    while top > 0:
        # the block holds rows lo .. top - 1; deepest rows first in `growth`
        done = ns - top
        reach = (growth[done - 1] if done else 0.0) + LOG_GROWTH_BLOCK
        lo = top - max(1, int(np.searchsorted(growth, reach, side="right")) - done)
        rows = slice(lo, top)
        with np.errstate(invalid="ignore", over="ignore"):
            block = [x[rows] for x in (m11, m12, m21, m22, c1, c2)]
            _suffix_scan(*block)
            b11, b12, b21, b22, b1, b2 = block
            ap, vp, au, vu = path_a[top], path_v[top], path_u[top], path_uv[top]
            path_a[rows] = b11 * ap + b12 * vp + b1
            path_v[rows] = b21 * ap + b22 * vp + b2
            path_u[rows] = b11 * au + b12 * vu
            path_uv[rows] = b21 * au + b22 * vu
        path_log[rows] = path_log[top]
        state_ok = (
            np.isfinite(path_a[rows]) & np.isfinite(path_v[rows])
            & np.isfinite(path_u[rows]) & np.isfinite(path_uv[rows])
        )
        if not state_ok.all():
            j = np.flatnonzero(~state_ok.all(axis=1))[-1]
            bad = xi[~state_ok[j]]
            raise ParametrixODEError(
                f"correction ODE diverged near y = {ys[lo + j]:.4f} at "
                f"(x', xi') = (any, {np.array2string(bad[:4], precision=4)}"
                f"{'...' if bad.size > 4 else ''}), h = {h:.3g}"
            )
        if lo > 0:
            # the next block starts from a unit-size homogeneous state
            scale = np.maximum(np.abs(path_u[lo]), h * np.abs(path_uv[lo]))
            path_u[lo] = path_u[lo] / scale
            path_uv[lo] = path_uv[lo] / scale
            path_log[lo] = path_log[lo] + np.log(scale)
        top = lo

    # u(y)/u(0), evaluated through the stored log shifts so the rescaled
    # sweep can never overflow; forward of y = 0 this ratio only decays
    ratio = path_u / path_u[0] * np.exp(path_log - path_log[0])
    ratio_v = path_uv / path_u[0] * np.exp(path_log - path_log[0])
    corr = path_a - path_a[0] * ratio
    corr_v = path_v - path_a[0] * ratio_v
    return ys, corr, corr_v


def _hermite_rows(ys, table, table_v, y_new):
    """Cubic Hermite evaluation of columnwise ODE output at new depths."""
    y_new = np.asarray(y_new, dtype=float)
    dt = ys[1] - ys[0]
    idx = np.clip(((y_new - ys[0]) / dt).astype(int), 0, len(ys) - 2)
    t = ((y_new - ys[idx]) / dt)[:, None]
    a0, a1 = table[idx], table[idx + 1]
    v0, v1 = table_v[idx] * dt, table_v[idx + 1] * dt
    h00 = (1.0 + 2.0 * t) * (1.0 - t) ** 2
    h10 = t * (1.0 - t) ** 2
    h01 = t * t * (3.0 - 2.0 * t)
    h11 = t * t * (t - 1.0)
    return h00 * a0 + h10 * v0 + h01 * a1 + h11 * v1


@dataclass
class ParametrixSymbol:
    """Two-term boundary-layer symbol on the collar depths [0, EPS0].

    a0(y, xi'; h) = exp(-y lam / h) ramp(lam) in closed form; the
    correction a1 solves the forced depth ODE with zero boundary value
    and the growing branch removed, and the full symbol at order 1 is
    a0 + h a1.
    """

    order: int
    chart: object

    def _in_domain(self, y, xi):
        """y and xi as float arrays; refuses depths off [0, EPS0] and non-finite xi."""
        y = np.asarray(y, dtype=float)
        xi = np.asarray(xi, dtype=float)
        if not np.all((y >= 0.0) & (y <= EPS0)):
            raise ValueError("depths must lie in [0, EPS0]")
        if not np.isfinite(xi).all():
            raise ValueError("frequencies must be finite")
        return y, xi

    def a0(self, y, xi, h: float):
        """Leading layer exp(-y lam / h) ramp(lam), broadcast over (y, xi)."""
        _require_h(h)
        y, xi = self._in_domain(y, xi)
        lam = self.chart.lam_jet(y, np.abs(xi))[0]
        return np.exp(-y * lam / h) * _ramp(lam)

    def a1(self, y, xi, h: float):
        """Correction symbol on a (depth, frequency) product grid."""
        _require_h(h)
        y, xi = (np.atleast_1d(v) for v in self._in_domain(y, xi))
        # lam is monotone in depth on the round charts, so it peaks at an end
        lam_ends = self.chart.lam_jet(np.array([0.0, EPS0]), np.max(np.abs(xi)))[0]
        lam_top = float(np.max(lam_ends))
        steps = max(MIN_ODE_STEPS, int(EPS0 * lam_top / h))
        ys, corr, corr_v = _solve_correction(self.chart, xi, h, steps)
        vals = _hermite_rows(ys, corr, corr_v, y)
        lam = self.chart.lam_jet(y[:, None], np.abs(xi)[None, :])[0]
        return vals * _ramp(lam)

    def total(self, y, xi, h: float):
        """a0, plus h times the correction when order is 1; grid output."""
        y = np.atleast_1d(np.asarray(y, dtype=float))
        xi = np.atleast_1d(np.asarray(xi, dtype=float))
        out = self.a0(y[:, None], xi[None, :], h).astype(complex)
        if self.order == 1:
            out = out + h * self.a1(y, xi, h)
        return out


def build_parametrix(chart=None, order: int = 0) -> ParametrixSymbol:
    """Assemble the layer symbol for a collar chart with metric data.

    The chart must expose lam_jet(y, xi') (metric frequency length with
    two depth derivatives) and curvature_h(y) (first-order Laplacian
    coefficient); DiskChart does and is the default.
    """
    if chart is None:
        chart = DiskChart()
    if order not in (0, 1):
        raise ValueError("order must be 0 or 1")
    for attr in ("lam_jet", "curvature_h"):
        if not hasattr(chart, attr):
            raise TypeError(f"chart lacks {attr}, needed for the layer symbols")
    return ParametrixSymbol(order=int(order), chart=chart)


@lru_cache(maxsize=None)
def _legendre_rule():
    # one eigenvalue solve per process; read-only, so no caller can edit it
    z, w = np.polynomial.legendre.leggauss(NUM_Y)
    z.flags.writeable = w.flags.writeable = False
    return z, w


def _gauss_nodes(a: float, b: float):
    """NUM_Y Gauss-Legendre nodes and weights on [a, b], as fresh arrays."""
    z, w = _legendre_rule()
    return 0.5 * (b - a) * z + 0.5 * (a + b), 0.5 * (b - a) * w


def extension_error(sym: ParametrixSymbol, m: int) -> float:
    """Relative collar-L2 distance to the exact extension of ring mode m != 0, h = 1/|m|.

    Ring mode e^{imx'} stays one harmonic under the layer symbol and under
    the harmonic extension, so the distance is a depth integral on NUM_Y
    Gauss-Legendre slices: the symbol at xi' = h m against the decaying
    branch (rho(y) / rho(0))^|m| from an outer circle, (rho(0) / rho(y))^|m|
    from an inner one, both times the ramp at h |m|.
    """
    if m == 0:
        raise ValueError("extension_error needs a nonzero ring mode m")
    if not (np.isfinite(m) and float(m).is_integer()):
        raise ValueError(f"ring mode m must be an integer, got {m}")
    h = 1.0 / abs(m)
    y, w = _gauss_nodes(0.0, EPS0)
    rho, rho0 = sym.chart.radius(y), sym.chart.radius(0.0)
    base = rho0 / rho if sym.chart.component == "inner" else rho / rho0
    ramp = _ramp(h * abs(m))
    ref = ramp * base ** abs(m)
    got = ramp * sym.total(y, h * m, h)[:, 0]
    return float(np.sqrt(np.dot(w, np.abs(got - ref) ** 2) / np.dot(w, ref**2)))


def band_mass(field: np.ndarray, grid: PolarGrid, y0: float, h: float) -> float:
    """Microlocalized squared mass of a disk field in the band y0 < y < EPS0.

    Integrates the squared tangential L2 norm of the high-frequency part
    over depth slices interpolated from the polar grid; ring mode m is cut
    off by the ramp and lam(y, h m) of the default layer symbol on the disk.
    """
    if not 0.0 <= y0 < EPS0:
        raise ValueError(f"need 0 <= y0 < EPS0 = {EPS0}")
    _require_h(h)
    sym = build_parametrix()
    fhat = grid.to_modes(np.asarray(field, dtype=complex))
    col_mass = np.sum(np.abs(fhat) ** 2, axis=0)
    live = np.flatnonzero(col_mass > col_mass.sum() * 1e-30)
    y, w = _gauss_nodes(y0, EPS0)
    rho = sym.chart.radius(y)
    total = np.zeros(y.size)
    for j in live:
        m = int(grid.modes[j])
        prof = grid.interp_modes_radial(fhat[:, j], m, rho)
        lam = sym.chart.lam_jet(y, h * abs(m))[0]
        total += np.abs(_ramp(lam) * prof) ** 2
    return float(np.dot(w, 2.0 * np.pi * total))
