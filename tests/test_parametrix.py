"""Boundary-layer parametrix: oracles, order counting, strip masses."""

from dataclasses import dataclass

import numpy as np
import pytest

from bicharlab.charts import AnnulusChart, DiskChart
from bicharlab.modes import stokes_disk_mode
from bicharlab import parametrix
from bicharlab.parametrix import (
    EPS0,
    NUM_Y,
    ParametrixODEError,
    ParametrixSymbol,
    _forcing,
    _gauss_nodes,
    _ramp,
    _ramp_derivatives,
    _require_h,
    _solve_correction,
    band_mass,
    build_parametrix,
    extension_error,
)
from bicharlab.polar import PolarGrid
from test_polar import EagerGrid


def ring(n):
    return 2.0 * np.pi * np.arange(n) / n


# -- the slice-by-slice collar fields: the oracle of `extension_error` -------


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
    h |m| <= DELTA0 / 2 contribute exactly nothing; the remaining modes
    are multiplied by the symbol at xi' = h m on each depth slice.
    """
    _require_h(h)
    c, m = _boundary_modes(q0)
    peak = np.abs(c).max()
    c = c * _ramp(h * np.abs(m))
    y, w = _gauss_nodes(0.0, EPS0)
    # rounding dust in the ring FFT would otherwise enlarge the ODE batch
    live = np.abs(c) > peak * 1e-14 if peak > 0.0 else np.zeros(m.size, bool)
    vals = np.zeros((y.size, m.size), dtype=complex)
    if live.any():
        vals[:, live] = sym.total(y, h * m[live].astype(float), h) * c[live]
    theta = 2.0 * np.pi * np.arange(m.size) / m.size
    return CollarField(y, w, theta, np.fft.ifft(vals * m.size, axis=1))


def collar_poisson(sym: ParametrixSymbol, q0: np.ndarray, h: float) -> CollarField:
    """Exact harmonic extension of the cutoff data on the same slices.

    Ring mode m extends by the branch that decays into the collar: r^|m|
    inward from an outer circle, (rho_in / r)^|m| outward from an inner
    one.
    """
    _require_h(h)
    c, m = _boundary_modes(q0)
    c = c * _ramp(h * np.abs(m))
    y, w = _gauss_nodes(0.0, EPS0)
    rho, rho0 = sym.chart.radius(y), sym.chart.radius(0.0)
    base = rho0 / rho if sym.chart.component == "inner" else rho / rho0
    prof = base[:, None] ** np.abs(m)[None, :]
    theta = 2.0 * np.pi * np.arange(m.size) / m.size
    return CollarField(y, w, theta, np.fft.ifft(prof * c[None, :] * m.size, axis=1))


def field_extension_error(sym: ParametrixSymbol, m: int) -> float:
    """`extension_error` through the two collar fields of ring mode m."""
    h = 1.0 / abs(m)
    n = 1 << max(6, int(np.ceil(np.log2(2 * abs(m) + 8))))
    q0 = np.exp(1j * m * ring(n))
    got = apply_parametrix(sym, q0, h)
    ref = collar_poisson(sym, q0, h)
    diff = CollarField(got.y, got.weights, got.theta, got.values - ref.values)
    return diff.norm() / ref.norm()


def poisson_extend(q0, grid):
    """Harmonic extension to the disk: ring mode m becomes r^|m|."""
    c, m = _boundary_modes(q0)
    assert q0.size == grid.n_theta
    return grid.from_modes(grid.r[:, None] ** np.abs(m)[None, :] * c[None, :])


def dtn(q0):
    """Dirichlet-Neumann map of the disk: the |m| Fourier multiplier."""
    c, m = _boundary_modes(q0)
    return np.fft.ifft(np.abs(m) * c * q0.size)


def loop_solve_correction(chart, xi, h, n_steps, cancelled=False):
    """The RK4 depth solve with lam^2 and F recomputed at every stage.

    With `cancelled`, also returns the largest terms, per column, that the
    superposition cancels out of the values and of the derivatives.
    """
    xi = np.atleast_1d(np.asarray(xi, dtype=float))
    ns = int(n_steps)
    ys = np.linspace(0.0, EPS0, ns + 1)
    dt = EPS0 / ns

    lam_end = chart.lam_jet(EPS0, np.abs(xi))[0]
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

    def rhs(y, ap, vp, au, vu):
        lam2 = chart.lam_jet(y, np.abs(xi))[0] ** 2
        force = _forcing(chart, y, xi, h)
        return vp, (lam2 * ap + force) / h**2, vu, lam2 * au / h**2

    for i in range(ns, 0, -1):
        y = ys[i]
        with np.errstate(invalid="ignore", over="ignore"):
            k1 = rhs(y, a_p, v_p, a_u, v_u)
            k2 = rhs(y - 0.5 * dt, *(s - 0.5 * dt * k for s, k in zip((a_p, v_p, a_u, v_u), k1)))
            k3 = rhs(y - 0.5 * dt, *(s - 0.5 * dt * k for s, k in zip((a_p, v_p, a_u, v_u), k2)))
            k4 = rhs(y - dt, *(s - dt * k for s, k in zip((a_p, v_p, a_u, v_u), k3)))
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
        path_a[i - 1] = a_p
        path_v[i - 1] = v_p
        path_u[i - 1] = a_u
        path_uv[i - 1] = v_u
        path_log[i - 1] = log_u

    ratio = path_u / path_u[0] * np.exp(path_log - path_log[0])
    ratio_v = path_uv / path_u[0] * np.exp(path_log - path_log[0])
    corr = path_a - path_a[0] * ratio
    corr_v = path_v - path_a[0] * ratio_v
    if cancelled:
        terms = [np.abs(path_a[0] * r).max(axis=0) for r in (ratio, ratio_v)]
        return ys, corr, corr_v, terms
    return ys, corr, corr_v


def live_solves(monkeypatch, run):
    """Arguments of every depth solve that `run` makes."""
    seen = []
    real = parametrix._solve_correction

    def spy(*args):
        seen.append(args)
        return real(*args)

    monkeypatch.setattr(parametrix, "_solve_correction", spy)
    run()
    monkeypatch.undo()
    return seen


# -- cutoff ramp -------------------------------------------------------------


def test_poly_step_values_and_smoothness():
    assert _ramp(0.1) == 0.0 and _ramp(0.125) == 0.0
    assert _ramp(0.25) == 1.0 and _ramp(0.4) == 1.0
    t = np.linspace(0.1, 0.3, 301)
    vals = _ramp(t)
    assert (np.diff(vals) >= -1e-15).all()
    # closed-form derivatives against central differences inside the ramp
    tt = np.linspace(0.13, 0.24, 57)
    eps = 1e-6
    d1, d2 = _ramp_derivatives(tt)
    d1_fd = (_ramp(tt + eps) - _ramp(tt - eps)) / (2 * eps)
    d2_fd = (_ramp_derivatives(tt + eps)[0] - _ramp_derivatives(tt - eps)[0]) / (2 * eps)
    assert np.abs(d1 - d1_fd).max() < 1e-6
    assert np.abs(d2 - d2_fd).max() < 1e-5
    # C^1 across the ends
    ends = _ramp_derivatives(np.array([0.125 + 1e-9, 0.25 - 1e-9]))[0]
    assert np.abs(ends).max() < 1e-5


# -- harmonic extension and boundary derivative ------------------------------


def test_poisson_extend_single_modes():
    grid = PolarGrid(48, 64)
    for m in (0, 1, 5, -7):
        q0 = np.exp(1j * m * ring(64))
        u = poisson_extend(q0, grid)
        want = grid.r[:, None] ** abs(m) * np.exp(1j * m * grid.theta)[None, :]
        assert np.abs(u - want).max() < 1e-12


def test_poisson_extend_is_harmonic():
    rng = np.random.default_rng(7)
    grid = PolarGrid(64, 64)
    c = rng.standard_normal(17) + 1j * rng.standard_normal(17)
    th = ring(64)
    q0 = sum(c[i] * np.exp(1j * (i - 8) * th) for i in range(17))
    u = poisson_extend(q0, grid)
    eager = EagerGrid(grid.K, grid.n_theta)
    res = eager.laplacian(u)
    assert eager.norm(res) < 1e-6 * eager.norm(u)
    assert np.abs(u[0, :] - q0).max() < 1e-10


def test_dtn_multiplier_and_trivials():
    n = 64
    th = ring(n)
    for m in (1, 4, 9):
        q0 = np.exp(1j * m * th)
        assert np.abs(dtn(q0) - m * q0).max() < 1e-11
    assert np.abs(dtn(np.ones(n))).max() == 0.0


def test_dtn_against_radial_derivative():
    # independent route: spectral d/dr of the harmonic extension at r = 1
    rng = np.random.default_rng(3)
    grid = PolarGrid(64, 64)
    th = ring(64)
    q0 = np.zeros(64, dtype=complex)
    for m in range(-10, 11):
        a = rng.standard_normal() + 1j * rng.standard_normal()
        q0 += a * np.exp(1j * m * th)
    u = poisson_extend(q0, grid)
    normal_deriv = EagerGrid(grid.K, grid.n_theta).dr(u)[0, :]
    assert np.abs(normal_deriv - dtn(q0)).max() < 1e-8 * np.abs(dtn(q0)).max()


def test_dtn_symmetry_and_positivity():
    rng = np.random.default_rng(11)
    n = 48
    w = 2.0 * np.pi / n
    for _ in range(20):
        p = rng.standard_normal(n) + 1j * rng.standard_normal(n)
        q = rng.standard_normal(n) + 1j * rng.standard_normal(n)
        lhs = w * np.vdot(q, dtn(p))
        rhs = w * np.vdot(dtn(q), p)
        assert abs(lhs - rhs) < 1e-10 * max(1.0, abs(lhs))
        quad = w * np.vdot(q, dtn(q))
        assert quad.real > -1e-12
        assert abs(quad.imag) < 1e-10 * max(1.0, quad.real)


# -- layer symbols -----------------------------------------------------------


def test_leading_symbol_closed_form():
    sym = build_parametrix(order=0)
    rng = np.random.default_rng(5)
    y = rng.uniform(0.0, 0.3, 40)
    xi = rng.uniform(-2.0, 2.0, 40)
    h = 0.05
    lam = np.abs(xi) / (1.0 - y)
    want = np.exp(-y * lam / h) * _ramp(lam)
    assert np.abs(sym.a0(y, xi, h) - want).max() < 1e-14


def test_symbol_boundary_values():
    sym = build_parametrix(order=1)
    xi = np.array([0.3, 0.7, 1.4, -1.0])
    h = 1.0 / 24
    a0 = sym.a0(np.zeros(4), xi, h)
    assert np.abs(a0 - _ramp(np.abs(xi))).max() < 1e-14
    a1 = sym.a1(np.array([0.0]), xi, h)
    assert np.abs(a1).max() < 1e-13


def test_correction_vanishes_below_cutoff():
    sym = build_parametrix(order=1)
    # lam(y) stays under DELTA0/2 throughout the collar for this frequency
    vals = sym.a1(np.linspace(0.0, 0.3, 31), np.array([0.05]), 1.0 / 32)
    assert np.abs(vals).max() == 0.0


def test_correction_solves_depth_ode():
    chart = DiskChart()
    h = 1.0 / 32
    xi = np.array([1.0])
    ys, corr, corr_v = _solve_correction(chart, xi, h, 2000)
    dt = ys[1] - ys[0]
    # stored derivative agrees with a high-order difference of the values
    mid_fd = (corr[:-4] - 8 * corr[1:-3] + 8 * corr[3:-1] - corr[4:]) / (12 * dt)
    assert np.abs(mid_fd - corr_v[2:-2]).max() < 1e-6 * np.abs(corr_v).max()
    # the ODE itself: h^2 A'' - lam^2 A = F at interior nodes
    second = (corr_v[2:] - corr_v[:-2]) / (2 * dt)
    lam = chart.lam_jet(ys[1:-1, None], np.abs(xi)[None, :])[0]
    F = np.stack([_forcing(chart, y, xi, h) for y in ys[1:-1]])
    resid = h * h * second - lam**2 * corr[1:-1] - F
    assert np.abs(resid).max() < 2e-2 * np.abs(F).max()


def test_scanned_solve_matches_stage_loop(monkeypatch):
    # the superposition corr = a_p - a_p(0) u / u(0) cancels a term
    # a_p(0) u / u(0) that exceeds max |corr| by a factor K: about 5e2 on
    # the disk at m = 128, but 1.6e3, 6.8e4 and 5.9e7 at m = 32, 64 and 128
    # on the inner component, where lam falls with depth.  Both solvers
    # lose those digits alike, so the stated tolerance is 1e-11 of each
    # column's max, or 1e-14 of the cancelled term where that is larger
    # (measured: at most 1.4e-12 of the column max on the disk, 2e-8 at
    # K = 5.9e7)
    solves = []
    for chart in (DiskChart(), AnnulusChart(0.5, component="inner")):
        sym = build_parametrix(chart=chart, order=1)
        for m in (12, 32, 128):
            solves += live_solves(monkeypatch, lambda: extension_error(sym, m))
        rng = np.random.default_rng(23)
        h, n = 1.0 / 40, 256
        th = ring(n)
        q0 = sum((rng.standard_normal() + 1j * rng.standard_normal()) * np.exp(1j * m * th)
                 for m in range(20, 61))
        batch = live_solves(monkeypatch, lambda: apply_parametrix(sym, q0, h))
        assert batch[0][1].size == 41
        solves += batch
    assert len(solves) == 8
    for args in solves:
        ys, corr, corr_v = _solve_correction(*args)
        ys_want, *want, terms = loop_solve_correction(*args, cancelled=True)
        assert np.array_equal(ys, ys_want)
        for got, ref, term in zip((corr, corr_v), want, terms):
            tol = np.maximum(1e-11 * np.abs(ref).max(axis=0), 1e-14 * term)
            assert (np.abs(got - ref) <= tol).all()


def test_multi_block_extension_error_matches_stage_loop(monkeypatch):
    # lam / h grows the homogeneous sweep by about e^713 at m = 2000, far
    # past one scan block; the errors are near 1e-7 of the exact
    # extension's norm, so they are compared to 1e-14 of that norm
    sym = build_parametrix(order=1)
    for m in (2000, 4000):
        got = extension_error(sym, m)
        monkeypatch.setattr(parametrix, "_solve_correction", loop_solve_correction)
        want = extension_error(sym, m)
        monkeypatch.undo()
        assert abs(got - want) < 1e-14
        # measured 4.786e-8 and 2.210e-7, 0.19 and 3.5 times h^2: the
        # 2,000 depth steps stop resolving the layer near m = 4000
        assert 0.1 < got * m * m < 5.0


def test_scan_splits_growth_into_blocks(monkeypatch):
    scans = []
    real = parametrix._suffix_scan

    def spy(*block):
        scans.append(block[0].shape[0])
        real(*block)

    monkeypatch.setattr(parametrix, "_suffix_scan", spy)
    for m in (128, 2000):
        scans.clear()
        ys, corr, corr_v = _solve_correction(DiskChart(), np.array([1.0]), 1.0 / m, 2000)
        assert sum(scans) == 2000 and np.isfinite(corr).all() and np.isfinite(corr_v).all()
        # the log-growth is the integral of lam / h = m / (1 - y) over [0, 0.3]
        want = int(np.ceil(-m * np.log(0.7) / parametrix.LOG_GROWTH_BLOCK))
        assert len(scans) in (want, want + 1)


def test_a1_evaluates_forcing_once_per_stage_depth(monkeypatch):
    calls = []
    real = parametrix._forcing

    def counted(*args):
        calls.append(1)
        return real(*args)

    monkeypatch.setattr(parametrix, "_forcing", counted)
    build_parametrix(order=1).a1(np.array([0.0, 0.1]), np.array([1.0, 2.0]), 1.0 / 32)
    assert len(calls) == 3


@pytest.mark.parametrize(
    "chart, m, want",
    [
        # lam = |xi'|/(rho_in + y) peaks at the inner circle: eps0 lam / h =
        # 0.3 * 2 * 4000; read at y = eps0, as on the disk, it gave 2,000
        (AnnulusChart(0.5, "inner"), 4000, 2400),
        (AnnulusChart(0.5, "inner"), 8000, 4800),
        # lam = |xi'|/(1 - y) peaks at y = eps0: 0.3 / 0.7 * 8000 = 3428.6
        (DiskChart(), 4000, 2000),
        (DiskChart(), 8000, 3428),
        (AnnulusChart(0.5), 8000, 3428),
    ],
)
def test_depth_steps_follow_the_chart_lam_peak(monkeypatch, chart, m, want):
    sym = build_parametrix(chart, order=1)
    solves = live_solves(monkeypatch, lambda: sym.a1(np.array([0.1]), np.array([1.0]), 1.0 / m))
    assert [args[-1] for args in solves] == [want]


SYM1 = build_parametrix(order=1)


@pytest.mark.parametrize(
    "call, match",
    [
        (lambda: SYM1.a1([0.0, 0.1], [1.0], -0.05), "h must be finite and positive"),
        (lambda: SYM1.a1([0.0, 0.1], [1.0], 0.0), "h must be finite and positive"),
        (lambda: SYM1.a1([0.0, 0.1], [1.0], np.nan), "h must be finite and positive"),
        (lambda: SYM1.a1([0.0, 0.1], [1.0], np.inf), "h must be finite and positive"),
        (lambda: SYM1.a0([0.0, 0.1], [1.0], -0.05), "h must be finite and positive"),
        (lambda: SYM1.a1([0.0, np.nan], [1.0], 0.05), "depths"),
        (lambda: SYM1.a1([0.0, 0.1], [np.nan], 0.05), "frequencies"),
        (lambda: SYM1.a1([0.0, 0.1], [1.0, np.inf], 0.05), "frequencies"),
        # a0 once read exp(-y lam / h) off the collar: 3.0e14 at y = -0.5
        (lambda: SYM1.a0(-0.5, 1.0, 0.01), "depths"),
        (lambda: SYM1.a0([0.0, 0.31], [1.0], 0.05), "depths"),
        (lambda: SYM1.a0([0.0, 0.1], [np.nan], 0.05), "frequencies"),
        (lambda: SYM1.total([0.0, 1.2], [1.0], 0.05), "depths"),
        (lambda: SYM1.total([0.0, 0.1], [-np.inf], 0.05), "frequencies"),
        (lambda: band_mass(np.ones((24, 32)), PolarGrid(24, 32), 0.0, 0.0),
         "h must be finite and positive"),
        (lambda: extension_error(SYM1, 0), "nonzero ring mode"),
        (lambda: extension_error(SYM1, 32.5), "must be an integer"),
        (lambda: extension_error(SYM1, np.nan), "must be an integer"),
        (lambda: apply_parametrix(SYM1, np.exp(16j * ring(64)), -1.0 / 16),
         "h must be finite and positive"),
        (lambda: collar_poisson(SYM1, np.exp(16j * ring(64)), 0.0), "h must be finite and positive"),
    ],
    ids=["a1-negative-h", "a1-zero-h", "a1-nan-h", "a1-inf-h", "a0-negative-h",
         "a1-nan-depth", "a1-nan-xi", "a1-inf-xi", "a0-negative-depth", "a0-deep",
         "a0-nan-xi", "total-deep", "total-inf-xi", "band-mass-zero-h", "m-zero",
         "m-half-integer", "m-nan", "apply-negative-h", "poisson-zero-h"],
)
def test_layer_kernels_refuse_bad_input(call, match):
    with pytest.raises(ValueError, match=match):
        call()


def test_extension_error_negative_mode_uses_abs_h():
    sym = build_parametrix(order=0)
    assert extension_error(sym, -16) == extension_error(sym, 16)


def test_build_validation():
    with pytest.raises(ValueError):
        build_parametrix(order=2)

    class NoJet:
        pass

    with pytest.raises(TypeError):
        build_parametrix(chart=NoJet())


def test_ode_failure_names_frequency():
    class HostileChart:
        def lam_jet(self, y, xip):
            return DiskChart().lam_jet(y, xip)

        def curvature_h(self, y):
            return 1e308

    sym = build_parametrix(chart=HostileChart(), order=1)
    with pytest.raises(ParametrixODEError, match=r"diverged.*xi'\) = \(any, \[1\."):
        sym.a1(np.array([0.1]), np.array([1.0]), 1.0 / 32)


# -- quantized extension vs the exact one ------------------------------------


@pytest.mark.parametrize("order", [0, 1])
@pytest.mark.parametrize(
    "chart",
    [DiskChart(), AnnulusChart(0.5), AnnulusChart(0.5, "inner"), AnnulusChart(0.3, "inner")],
    ids=["disk", "annulus-0.5-outer", "annulus-0.5-inner", "annulus-0.3-inner"],
)
def test_closed_form_extension_error_matches_field_oracle(chart, order):
    # one ring harmonic: the depth integral against the two ring-FFT fields
    sym = build_parametrix(chart=chart, order=order)
    for m in (8, 32, -40, 64, 128):
        want = field_extension_error(sym, m)
        assert abs(extension_error(sym, m) - want) <= 1e-12 * want, m


def test_extension_error_leading_order():
    sym = build_parametrix(order=0)
    e32 = extension_error(sym, 32)
    e64 = extension_error(sym, 64)
    # measured 0.0180 and 0.0093: C h with C near 0.6
    assert e32 < 1.0 / 32
    assert e64 < 1.0 / 64 * 1.0
    assert 1.4 < e32 / e64 < 2.6


def test_extension_error_first_order_improves():
    s0 = build_parametrix(order=0)
    s1 = build_parametrix(order=1)
    for m in (32, 64):
        e0 = extension_error(s0, m)
        e1 = extension_error(s1, m)
        assert e1 < 0.1 * e0
        # quadratic in h: measured 0.149 / m^2
        assert e1 * m * m < 0.5


def test_extension_error_h_ladder():
    sym = build_parametrix(order=0)
    errs = [extension_error(sym, m) for m in (32, 64, 128)]
    for e, m in zip(errs, (32, 64, 128)):
        assert 0.1 < e * m < 2.0
    ratios = [errs[i] / errs[i + 1] for i in range(2)]
    assert all(1.4 < r < 2.6 for r in ratios)


def test_low_modes_annihilated_exactly():
    sym = build_parametrix(order=0)
    h = 1.0 / 32
    n = 128
    th = ring(n)
    low = np.exp(3j * th)  # h * 3 < DELTA0 / 2
    out = apply_parametrix(sym, low, h)
    assert np.abs(out.values).max() == 0.0
    mixed = low + np.exp(40j * th)
    got = apply_parametrix(sym, mixed, h)
    alone = apply_parametrix(sym, np.exp(40j * th), h)
    assert np.abs(got.values - alone.values).max() < 1e-12


def test_multimode_extension_accuracy():
    rng = np.random.default_rng(23)
    sym = build_parametrix(order=0)
    h = 1.0 / 40
    n = 256
    th = ring(n)
    q0 = np.zeros(n, dtype=complex)
    for m in range(20, 61):
        q0 += (rng.standard_normal() + 1j * rng.standard_normal()) * np.exp(1j * m * th)
    got = apply_parametrix(sym, q0, h)
    ref = collar_poisson(sym, q0, h)
    diff = CollarField(got.y, got.weights, got.theta, got.values - ref.values)
    assert diff.norm() / ref.norm() < 0.05


def test_collar_norm_measure():
    y = np.array([0.1, 0.2])
    w = np.array([0.15, 0.15])
    theta = ring(16)
    f = CollarField(y, w, theta, np.ones((2, 16), dtype=complex))
    assert abs(f.norm() - np.sqrt(0.3 * 2 * np.pi)) < 1e-12


# -- strip masses ------------------------------------------------------------


def test_band_mass_against_closed_form():
    grid = PolarGrid(96, 128)
    m, h = 32, 1.0 / 32
    field = grid.r[:, None] ** m * np.exp(1j * m * grid.theta)[None, :]
    got = band_mass(field, grid, 0.0, h)
    want = 2.0 * np.pi * (1.0 - 0.7 ** (2 * m + 1)) / (2 * m + 1)
    assert abs(got - want) < 1e-9 * want


def test_band_mass_reads_the_default_layer_ramp():
    # the ramp and lam = h |m| / (1 - y), spelt out as band_mass once did,
    # give the same bits on criterion 9's inputs
    md = stokes_disk_mode(32, 1)
    fhat = md.grid.to_modes(np.asarray(md.pressure, dtype=complex))
    col_mass = np.sum(np.abs(fhat) ** 2, axis=0)
    live = np.flatnonzero(col_mass > col_mass.sum() * 1e-30)
    for y0 in (0.02, 0.1):
        y, w = _gauss_nodes(y0, 0.3)
        total = np.zeros(y.size)
        for j in live:
            m = int(md.grid.modes[j])
            prof = md.grid.interp_modes_radial(fhat[:, j], m, 1.0 - y)
            total += np.abs(_ramp(md.h * abs(m) / (1.0 - y)) * prof) ** 2
        want = float(np.dot(w, 2.0 * np.pi * total))
        assert band_mass(md.pressure, md.grid, y0, md.h) == want


def test_band_mass_pressure_layer():
    md = stokes_disk_mode(32, 1)
    h = md.h
    total = band_mass(md.pressure, md.grid, 0.0, h)
    deep = band_mass(md.pressure, md.grid, 5.0 * h, h)
    c = 2.0 * 32 * h
    assert deep <= (np.exp(-5.0 * c) + h) * total
    y0s = np.array([0.0, 2 * h, 4 * h, 6 * h])
    masses = [band_mass(md.pressure, md.grid, y0, h) for y0 in y0s]
    slope = np.polyfit(y0s, np.log(masses), 1)[0]
    assert abs(slope + c / h) < 0.2 * c / h


def test_band_mass_fixed_across_radial_index():
    vals = [band_mass(md.pressure, md.grid, 0.0, md.h)
            for md in (stokes_disk_mode(8, k) for k in range(1, 6))]
    assert max(vals) / min(vals) < 1.02


def test_band_mass_input_validation():
    grid = PolarGrid(24, 32)
    f = np.ones((24, 32), dtype=complex)
    with pytest.raises(ValueError):
        band_mass(f, grid, 0.5, 0.05)


def test_gauss_nodes_are_fresh_arrays_over_one_cached_rule():
    want_z, want_w = np.polynomial.legendre.leggauss(NUM_Y)
    y, w = _gauss_nodes(-1.0, 1.0)
    assert np.array_equal(y, want_z) and np.array_equal(w, want_w)
    # a caller writing into its nodes cannot change the next call's
    y[:] = 0.0
    w *= 2.0
    y2, w2 = _gauss_nodes(-1.0, 1.0)
    assert np.array_equal(y2, want_z) and np.array_equal(w2, want_w)
    assert y2 is not y and w2 is not w
    z, wz = parametrix._legendre_rule()
    assert not z.flags.writeable and not wz.flags.writeable
    assert parametrix._legendre_rule()[0] is z
    # the affine map onto [a, b] is the one it always was
    a, b = 0.05, 0.3
    y3, w3 = _gauss_nodes(a, b)
    assert np.array_equal(y3, 0.5 * (b - a) * want_z + 0.5 * (a + b))
    assert np.array_equal(w3, 0.5 * (b - a) * want_w)
