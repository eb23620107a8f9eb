"""Boundary-layer expansion of the harmonic pressure near the rim.

The harmonic extension of high-frequency boundary data decays into the
collar like exp(-y lam / h), where lam(y, xi') is the metric length of
the tangential frequency.  This module builds a two-term symbol
expansion of that layer: the exponential leading factor in closed form
and a first correction obtained by integrating a linear second-order
ODE in the collar depth.  The exact harmonic extension on the same
depth slices (`collar_poisson`) serves as the oracle, and a strip-mass
diagnostic quantifies how thin the layer actually is at a given h.

Everything is specialized to the unit disk, where lam = |xi'|/(1 - y)
and the first-order coefficient of the Laplacian in collar coordinates
is -1/(1 - y); the chart object supplies both.  Low frequencies are
removed by a polynomial ramp that vanishes for lam <= delta0/2 and
equals one for lam >= delta0, which also removes the xi' = 0
singularity of the layer symbols.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .charts import DiskChart
from .polar import PolarGrid

__all__ = [
    "PolyStep",
    "ParametrixODEError",
    "ParametrixSymbol",
    "CollarField",
    "build_parametrix",
    "apply_parametrix",
    "collar_poisson",
    "extension_error",
    "band_mass",
]


# fewest RK4 steps of the depth ODE; steep layers (large lam / h) take more
MIN_ODE_STEPS = 2000
# default ramp edge and collar depth of the layer symbols
DELTA0 = 0.25
EPS0 = 0.3
# Gauss-Legendre depth slices of every collar field
NUM_Y = 200


class ParametrixODEError(RuntimeError):
    """The depth ODE for the correction symbol left the finite range."""


def _require_h(h) -> None:
    if not (np.isfinite(h) and h > 0.0):
        raise ValueError(f"h must be finite and positive, got {h}")


class PolyStep:
    """Polynomial ramp: 0 below a, 1 above b, C^3 across [a, b].

    The interior shape is 35 s^4 - 84 s^5 + 70 s^6 - 20 s^7, whose first
    three derivatives vanish at both ends, so first and second
    derivatives of the ramp are continuous and available in closed form.
    """

    def __init__(self, a: float, b: float):
        if not a < b:
            raise ValueError("ramp needs a < b")
        self.a = float(a)
        self.b = float(b)

    def _s(self, t):
        return np.clip((np.asarray(t, dtype=float) - self.a) / (self.b - self.a), 0.0, 1.0)

    def __call__(self, t):
        s = self._s(t)
        return s**4 * (35.0 + s * (-84.0 + s * (70.0 - 20.0 * s)))

    def d1(self, t):
        s = self._s(t)
        return 140.0 * (s * (1.0 - s)) ** 3 / (self.b - self.a)

    def d2(self, t):
        s = self._s(t)
        return 420.0 * (s * (1.0 - s)) ** 2 * (1.0 - 2.0 * s) / (self.b - self.a) ** 2


def _layer_pieces(chart, step: PolyStep, y, xi, h: float):
    """Exponential layer E, ramp factor and the derivative combinations
    entering the correction forcing, all broadcast over (y, xi)."""
    lam, lam1, lam2 = chart.lam_jet(y, np.abs(xi))
    E = np.exp(-y * lam / h)
    phi = step(lam)
    phi1 = step.d1(lam) * lam1
    phi2 = step.d2(lam) * lam1**2 + step.d1(lam) * lam2
    psi1 = lam + y * lam1
    psi2 = 2.0 * lam1 + y * lam2
    return lam, E, phi, phi1, phi2, psi1, psi2


def _forcing(chart, step: PolyStep, y, xi, h: float):
    """Right-hand side of the correction ODE  h^2 A'' - lam^2 A = F.

    F collects the order-one remainder of applying the collar Laplacian
    to the leading layer a0 = E * phi:

        F = -(1/h) (h^2 d_y^2 - lam^2) a0  -  H(y) * (h d_y a0),

    with H the first-order coefficient of the Laplacian.  The curvature
    term enters as H times (h d_y a0); written with a bare h^2 it would
    be one order lower and the correction would no longer cancel the
    order-h residual (see the per-mode residual identity in the tests).
    """
    lam, E, phi, phi1, phi2, psi1, psi2 = _layer_pieces(chart, step, y, xi, h)
    H = chart.curvature_h(y)
    # (psi1^2 - lam^2) expands to 2 lam (y lam') + (y lam')^2; keep it in
    # that form so nothing is lost to cancellation at small y
    lamp = psi1 - lam
    f0 = ((2.0 * lam * lamp + lamp**2) / h) * phi - psi2 * phi - 2.0 * psi1 * phi1 + h * phi2
    f0 = f0 * E
    hdy = (-psi1 * phi + h * phi1) * E
    return -(f0 + H * hdy)


def _solve_correction(chart, step: PolyStep, xi, h: float, eps0: float, n_steps: int):
    """March the correction ODE backward from y = eps0 and superpose.

    Zero terminal data wipes the branch that grows with depth; one
    backward sweep of the homogeneous equation supplies the decaying
    branch, whose multiple is then fixed so the correction vanishes at
    the boundary.  lam^2 and F are tabulated once, as (n_steps, len(xi))
    arrays, at the depths ys[1:], ys[1:] - dt/2 and ys[1:] - dt that the
    RK4 stages visit.  Returns the depth grid and the correction with its
    derivative, both (n_steps + 1, len(xi)).
    """
    xi = np.atleast_1d(np.asarray(xi, dtype=float))
    ns = int(n_steps)
    ys = np.linspace(0.0, eps0, ns + 1)
    dt = eps0 / ns

    lam_end = chart.lam_jet(eps0, np.abs(xi))[0]
    a_p = np.zeros(xi.shape, dtype=complex)
    v_p = np.zeros(xi.shape, dtype=complex)
    a_u = np.ones(xi.shape)
    v_u = -lam_end / h
    log_u = np.zeros(xi.shape)

    path_a = np.empty((ns + 1, xi.size), dtype=complex)
    path_v = np.empty_like(path_a)
    path_u = np.empty((ns + 1, xi.size))
    path_uv = np.empty_like(path_u)
    path_log = np.empty_like(path_u)
    path_a[ns] = a_p
    path_v[ns] = v_p
    path_u[ns] = a_u
    path_uv[ns] = v_u
    path_log[ns] = log_u

    y = ys[1:, None]
    with np.errstate(invalid="ignore", over="ignore"):
        tables = [(chart.lam_jet(yy, np.abs(xi))[0] ** 2, _forcing(chart, step, yy, xi, h))
                  for yy in (y, y - 0.5 * dt, y - dt)]

    def rhs(lam2, force, ap, vp, au, vu):
        return vp, (lam2 * ap + force) / h**2, vu, lam2 * au / h**2

    for i in range(ns, 0, -1):
        at_y, at_mid, at_end = ((lam2[i - 1], force[i - 1]) for lam2, force in tables)
        with np.errstate(invalid="ignore", over="ignore"):
            k1 = rhs(*at_y, a_p, v_p, a_u, v_u)
            k2 = rhs(*at_mid, *(s - 0.5 * dt * k for s, k in zip((a_p, v_p, a_u, v_u), k1)))
            k3 = rhs(*at_mid, *(s - 0.5 * dt * k for s, k in zip((a_p, v_p, a_u, v_u), k2)))
            k4 = rhs(*at_end, *(s - dt * k for s, k in zip((a_p, v_p, a_u, v_u), k3)))
            a_p, v_p, a_u, v_u = (
                s - (dt / 6.0) * (f1 + 2.0 * f2 + 2.0 * f3 + f4)
                for s, f1, f2, f3, f4 in zip((a_p, v_p, a_u, v_u), k1, k2, k3, k4)
            )
        scale = np.maximum(np.abs(a_u), h * np.abs(v_u))
        big = scale > 1e30
        if big.any():
            a_u = np.where(big, a_u / scale, a_u)
            v_u = np.where(big, v_u / scale, v_u)
            log_u = log_u + np.where(big, np.log(scale), 0.0)
        state_ok = (
            np.isfinite(a_p) & np.isfinite(v_p) & np.isfinite(a_u) & np.isfinite(v_u)
        )
        if not state_ok.all():
            bad = xi[~state_ok]
            raise ParametrixODEError(
                f"correction ODE diverged near y = {ys[i - 1]:.4f} at "
                f"(x', xi') = (any, {np.array2string(bad[:4], precision=4)}"
                f"{'...' if bad.size > 4 else ''}), h = {h:.3g}"
            )
        path_a[i - 1] = a_p
        path_v[i - 1] = v_p
        path_u[i - 1] = a_u
        path_uv[i - 1] = v_u
        path_log[i - 1] = log_u

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
    """Two-term boundary-layer symbol with its cutoff and depth range.

    a0(y, xi'; h) = exp(-y lam / h) ramp(lam) in closed form; the
    correction a1 solves the forced depth ODE with zero boundary value
    and the growing branch removed, and the full symbol at order 1 is
    a0 + h a1.
    """

    order: int
    delta0: float
    eps0: float
    chart: object
    step: PolyStep = field(repr=False)

    def a0(self, y, xi, h: float):
        _require_h(h)
        y = np.asarray(y, dtype=float)
        lam = self.chart.lam_jet(y, np.abs(np.asarray(xi, dtype=float)))[0]
        return np.exp(-y * lam / h) * self.step(lam)

    def a1(self, y, xi, h: float):
        """Correction symbol on a (depth, frequency) product grid."""
        _require_h(h)
        y = np.atleast_1d(np.asarray(y, dtype=float))
        xi = np.atleast_1d(np.asarray(xi, dtype=float))
        if not (y.min() >= 0.0 and y.max() <= self.eps0):
            raise ValueError("depths must lie in [0, eps0]")
        if not np.isfinite(xi).all():
            raise ValueError("frequencies must be finite")
        lam_top = float(np.max(np.abs(xi))) / (1.0 - self.eps0)
        steps = max(MIN_ODE_STEPS, int(self.eps0 * lam_top / h))
        ys, corr, corr_v = _solve_correction(
            self.chart, self.step, xi, h, self.eps0, steps
        )
        vals = _hermite_rows(ys, corr, corr_v, y)
        lam = self.chart.lam_jet(y[:, None], np.abs(xi)[None, :])[0]
        return vals * self.step(lam)

    def total(self, y, xi, h: float):
        """a0, plus h times the correction when order is 1; grid output."""
        y = np.atleast_1d(np.asarray(y, dtype=float))
        xi = np.atleast_1d(np.asarray(xi, dtype=float))
        out = self.a0(y[:, None], xi[None, :], h).astype(complex)
        if self.order == 1:
            out = out + h * self.a1(y, xi, h)
        return out


def build_parametrix(
    chart=None, delta0: float = DELTA0, order: int = 0, eps0: float = EPS0
) -> ParametrixSymbol:
    """Assemble the layer symbol for a collar chart with metric data.

    The chart must expose lam_jet(y, xi') (metric frequency length with
    two depth derivatives) and curvature_h(y) (first-order Laplacian
    coefficient); DiskChart does and is the default.
    """
    if chart is None:
        chart = DiskChart()
    if order not in (0, 1):
        raise ValueError("order must be 0 or 1")
    if delta0 <= 0.0:
        raise ValueError("delta0 must be positive")
    if not 0.0 < eps0 < 1.0:
        raise ValueError("eps0 must lie in (0, 1)")
    for attr in ("lam_jet", "curvature_h"):
        if not hasattr(chart, attr):
            raise TypeError(f"chart lacks {attr}, needed for the layer symbols")
    return ParametrixSymbol(
        order=int(order),
        delta0=float(delta0),
        eps0=float(eps0),
        chart=chart,
        step=PolyStep(delta0 / 2.0, delta0),
    )


@dataclass
class CollarField:
    """Field on depth-quadrature slices of the collar, one row per depth."""

    y: np.ndarray
    weights: np.ndarray
    theta: np.ndarray
    values: np.ndarray

    def norm(self) -> float:
        """L2 over dy dx' (depth times boundary arc)."""
        per_slice = np.sum(np.abs(self.values) ** 2, axis=1) * (
            2.0 * np.pi / self.theta.size
        )
        return float(np.sqrt(np.dot(self.weights, per_slice)))


def _gauss_nodes(a: float, b: float, num: int):
    z, w = np.polynomial.legendre.leggauss(int(num))
    return 0.5 * (b - a) * z + 0.5 * (a + b), 0.5 * (b - a) * w


def _boundary_modes(q0: np.ndarray):
    q0 = np.asarray(q0, dtype=complex)
    if q0.ndim != 1:
        raise ValueError("boundary data must be a single ring of samples")
    n = q0.size
    m = np.fft.fftfreq(n, 1.0 / n).astype(int)
    return np.fft.fft(q0) / n, m


def apply_parametrix(sym: ParametrixSymbol, q0: np.ndarray, h: float) -> CollarField:
    """Quantize the layer symbol on boundary data, slice by slice.

    The low-frequency cutoff is applied to the data first, so rings with
    h |m| <= delta0 / 2 contribute exactly nothing; the remaining modes
    are multiplied by the symbol at xi' = h m on each depth slice.
    """
    _require_h(h)
    c, m = _boundary_modes(q0)
    peak = np.abs(c).max()
    c = c * sym.step(h * np.abs(m))
    y, w = _gauss_nodes(0.0, sym.eps0, NUM_Y)
    # rounding dust in the ring FFT would otherwise enlarge the ODE batch
    live = np.abs(c) > peak * 1e-14 if peak > 0.0 else np.zeros(m.size, bool)
    vals = np.zeros((y.size, m.size), dtype=complex)
    if live.any():
        vals[:, live] = sym.total(y, h * m[live].astype(float), h) * c[live]
    theta = 2.0 * np.pi * np.arange(m.size) / m.size
    return CollarField(y, w, theta, np.fft.ifft(vals * m.size, axis=1))


def collar_poisson(sym: ParametrixSymbol, q0: np.ndarray, h: float) -> CollarField:
    """Exact harmonic extension of the cutoff data on the same slices."""
    _require_h(h)
    c, m = _boundary_modes(q0)
    c = c * sym.step(h * np.abs(m))
    y, w = _gauss_nodes(0.0, sym.eps0, NUM_Y)
    prof = (1.0 - y)[:, None] ** np.abs(m)[None, :]
    theta = 2.0 * np.pi * np.arange(m.size) / m.size
    return CollarField(y, w, theta, np.fft.ifft(prof * c[None, :] * m.size, axis=1))


def extension_error(sym: ParametrixSymbol, m: int) -> float:
    """Relative collar-L2 distance to the exact extension of ring mode m != 0, h = 1/|m|."""
    if m == 0:
        raise ValueError("extension_error needs a nonzero ring mode m")
    h = 1.0 / abs(m)
    n = 1 << max(6, int(np.ceil(np.log2(2 * abs(m) + 8))))
    theta = 2.0 * np.pi * np.arange(n) / n
    q0 = np.exp(1j * m * theta)
    got = apply_parametrix(sym, q0, h)
    ref = collar_poisson(sym, q0, h)
    diff = CollarField(got.y, got.weights, got.theta, got.values - ref.values)
    return diff.norm() / ref.norm()


def band_mass(field: np.ndarray, grid: PolarGrid, y0: float, h: float) -> float:
    """Microlocalized squared mass of a disk field in the band y0 < y < EPS0.

    Integrates the squared tangential L2 norm of the high-frequency part
    (ramp cutoff at lam(y, h m), the default layer cutoff with edge
    DELTA0) over depth slices interpolated from the polar grid.
    """
    if not 0.0 <= y0 < EPS0:
        raise ValueError(f"need 0 <= y0 < EPS0 = {EPS0}")
    _require_h(h)
    step = PolyStep(DELTA0 / 2.0, DELTA0)
    fhat = grid.to_modes(np.asarray(field, dtype=complex))
    col_mass = np.sum(np.abs(fhat) ** 2, axis=0)
    live = np.flatnonzero(col_mass > col_mass.sum() * 1e-30)
    y, w = _gauss_nodes(y0, EPS0, NUM_Y)
    r_new = 1.0 - y
    total = np.zeros(y.size)
    for j in live:
        prof = grid.interp_modes_radial(fhat[:, j], int(grid.modes[j]), r_new)
        lam = h * abs(int(grid.modes[j])) / (1.0 - y)
        total += np.abs(step(lam) * prof) ** 2
    return float(np.dot(w, 2.0 * np.pi * total))
