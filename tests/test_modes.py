import functools
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.special import jv

from bicharlab.modes import (
    ModeSpec,
    _jv_deriv,
    bessel_zero,
    laplace_disk_mode,
    pick_k_for_ratio,
    stokes_disk_mode,
)
from bicharlab.polar import PolarGrid


def j0_series(x):
    s, term = 1.0, 1.0
    for j in range(1, 40):
        term *= -(x * x / 4.0) / (j * j)
        s += term
    return s


def j1_series(x):
    s, term = 0.5, 0.5
    for j in range(1, 40):
        term *= -(x * x / 4.0) / (j * (j + 1))
        s += term
    return s * x


def bisect_root(f, a, b):
    fa = f(a)
    for _ in range(200):
        mid = 0.5 * (a + b)
        fm = f(mid)
        if fa * fm <= 0:
            b = mid
        else:
            a, fa = mid, fm
    return 0.5 * (a + b)


def test_bessel_zero_against_series_oracle():
    assert bessel_zero(0, 1) == pytest.approx(2.404825557695773, abs=1e-12)
    assert bessel_zero(1, 1) == pytest.approx(3.831705970207512, abs=1e-12)
    assert bessel_zero(0, 1) == pytest.approx(bisect_root(j0_series, 2.0, 3.0), abs=1e-12)
    assert bessel_zero(1, 1) == pytest.approx(bisect_root(j1_series, 3.5, 4.5), abs=1e-12)


def test_bessel_zero_cross_check_and_interlacing():
    # independent of the finder: J_m vanishes at each zero and changes sign
    for m in range(6):
        for k in range(1, 11):
            lam = bessel_zero(m, k)
            assert abs(jv(m, lam)) <= 1e-13
            assert jv(m, lam - 1e-9) * jv(m, lam + 1e-9) < 0.0
    for m in range(4):
        for k in range(1, 8):
            assert bessel_zero(m, k) < bessel_zero(m + 1, k) < bessel_zero(m, k + 1)
    for k in range(3, 8):
        gap = bessel_zero(0, k + 1) - bessel_zero(0, k)
        assert abs(gap - math.pi) < 0.02


def test_radial_orthogonality():
    grid = PolarGrid(48, 8)
    for m in (0, 2):
        za, zb = bessel_zero(m, 1), bessel_zero(m, 2)
        prod = jv(m, za * grid.r) * jv(m, zb * grid.r)
        assert abs(grid.radial.integrate_rdr(prod)) < 1e-12


def test_laplace_mode_properties():
    mode = laplace_disk_mode(3, 2)
    rep = mode.residual_report()
    assert rep["pde"] < 1e-8
    assert rep["boundary"] < 1e-10
    assert rep["normalization"] < 1e-10
    assert rep["flux_norm"] == pytest.approx(math.sqrt(2.0), abs=1e-8)
    # closed-form evaluator agrees with the sampled field
    pts = np.stack([mode.grid.R * np.cos(mode.grid.T), mode.grid.R * np.sin(mode.grid.T)], axis=-1)
    vals = mode.eval_velocity(pts)[..., 0]
    assert np.max(np.abs(vals - mode.velocity[0])) < 1e-12


def test_stokes_mode_properties():
    m, k = 5, 3
    mode = stokes_disk_mode(m, k)
    rep = mode.residual_report()
    assert rep["momentum"] < 1e-7
    assert rep["divergence"] < 1e-8
    assert rep["boundary"] < 1e-9
    assert rep["normalization"] < 1e-9
    assert rep["flux_norm"] == pytest.approx(math.sqrt(2.0), abs=1e-7)
    # companion pressure: exact norm and gradient norm
    g = mode.grid
    assert g.norm(mode.pressure) == pytest.approx(1.0 / math.sqrt(m + 1), abs=1e-10)
    qx, qy = g.grad_cartesian(mode.pressure)
    grad_norm = mode.h * math.hypot(g.norm(qx), g.norm(qy))
    assert grad_norm == pytest.approx(math.sqrt(2.0 * m) / mode.lam, abs=1e-9)


def test_stokes_flux_is_tangential_of_constant_modulus():
    mode = stokes_disk_mode(4, 2)
    flux = mode.boundary_flux()
    mag = np.hypot(np.abs(flux[0]), np.abs(flux[1]))
    assert np.max(np.abs(mag - 1.0 / math.sqrt(math.pi))) < 1e-7
    # radial part of the normal derivative vanishes on the boundary; contract
    # the cartesian jacobian (u itself vanishes there, so no frame terms)
    g = mode.grid
    ct, st = np.cos(g.theta), np.sin(g.theta)
    dux = g.grad_cartesian(mode.velocity[0])
    duy = g.grad_cartesian(mode.velocity[1])
    dndr = (ct**2 * dux[0][0, :] + ct * st * (dux[1][0, :] + duy[0][0, :])
            + st**2 * duy[1][0, :])
    assert np.max(np.abs(dndr)) < 1e-7


def test_stokes_pressure_sign_matters():
    mode = stokes_disk_mode(2, 2)
    g = mode.grid
    h = mode.h
    qx, qy = g.grad_cartesian(-mode.pressure)
    rx = -(h * h) * g.laplacian(mode.velocity[0]) - mode.velocity[0] + h * qx
    ry = -(h * h) * g.laplacian(mode.velocity[1]) - mode.velocity[1] + h * qy
    wrong = math.hypot(g.norm(rx), g.norm(ry))
    assert wrong > 10 * mode.residual_report()["momentum"]


def eval_pressure(mode, points):
    """Closed-form rescaled pressure q = h * P of a Stokes mode at ambient points."""
    rho = np.hypot(points[..., 0], points[..., 1])
    theta = np.arctan2(points[..., 1], points[..., 0])
    m, lam, c = mode.m, mode.lam, mode.c
    return -1j * c * lam * jv(m, lam) * rho**m * np.exp(1j * m * theta)


def test_stokes_closed_form_evaluators():
    mode = stokes_disk_mode(3, 1)
    g = mode.grid
    pts = np.stack([g.R * np.cos(g.T), g.R * np.sin(g.T)], axis=-1)
    v = mode.eval_velocity(pts)
    assert np.max(np.abs(v[..., 0] - mode.velocity[0])) < 1e-9
    assert np.max(np.abs(v[..., 1] - mode.velocity[1])) < 1e-9
    q = eval_pressure(mode, pts)
    assert np.max(np.abs(q - mode.pressure)) < 1e-12
    # boundary modulus of q is c * lam * |J_m(lam)| = 1/sqrt(pi)
    assert np.max(np.abs(np.abs(q[0, :]) - 1.0 / math.sqrt(math.pi))) < 1e-12


def test_m_zero_modes():
    rep = laplace_disk_mode(0, 1).residual_report()
    assert rep["pde"] < 1e-9 and rep["flux_norm"] == pytest.approx(math.sqrt(2.0), abs=1e-9)
    mode = stokes_disk_mode(0, 2)
    rep = mode.residual_report()
    assert rep["momentum"] < 1e-8 and rep["divergence"] < 1e-9
    assert mode.grid.norm(mode.pressure) == pytest.approx(1.0, abs=1e-10)


def test_large_angular_mode():
    mode = stokes_disk_mode(32, 1)
    rep = mode.residual_report()
    assert rep["momentum"] < 1e-6
    assert rep["normalization"] < 1e-8
    assert rep["flux_norm"] == pytest.approx(math.sqrt(2.0), abs=1e-6)


def test_resolution_validation():
    with pytest.raises(ValueError):
        laplace_disk_mode(3, 1, num_theta=12)
    with pytest.raises(ValueError):
        laplace_disk_mode(0, 8, num_r=10)
    with pytest.raises(ValueError):
        ModeSpec("heat", 0, 1).resolve(3.0)
    with pytest.raises(ValueError):
        bessel_zero(-1, 1)


def per_point_velocity(mode, points):
    """The per-point closed form that eval_velocity replaced: the oracle."""
    pts = np.asarray(points, dtype=float)
    rho = np.hypot(pts[..., 0], pts[..., 1])
    theta = np.arctan2(pts[..., 1], pts[..., 0])
    m, lam, c = mode.m, mode.lam, mode.c
    phase = np.exp(1j * m * theta)
    if mode.kind == "laplace":
        return (c * jv(m, lam * rho) * phase)[..., None]
    jm_lam = jv(m, lam)
    F = c * (jv(m, lam * rho) - jm_lam * rho**m)
    dF = c * (lam * _jv_deriv(m, lam * rho) - jm_lam * m * rho ** max(m - 1, 0))
    with np.errstate(divide="ignore", invalid="ignore"):
        F_over_rho = np.where(rho > 1e-12, F / np.where(rho > 1e-12, rho, 1.0), 0.0)
    if m == 1:
        lim = c * (0.5 * lam - jv(1, lam))
        F_over_rho = np.where(rho > 1e-12, F_over_rho, lim)
    ct, st_ = np.cos(theta), np.sin(theta)
    ux = (st_ * dF + ct * 1j * m * F_over_rho) * phase
    uy = -(ct * dF - st_ * 1j * m * F_over_rho) * phase
    return np.stack([ux, uy], axis=-1)


@functools.cache
def mode_for(family, m):
    if family == "laplace":
        return laplace_disk_mode(m, 3)
    return stokes_disk_mode(m, pick_k_for_ratio("stokes", m, 0.5))


def signed_swaps(a, b):
    """The eight images of (a, b) under the symmetries of the square: one radius."""
    return [(s * x, t * y) for x, y in ((a, b), (b, a)) for s in (1, -1) for t in (1, -1)]


coordinate = st.one_of(
    st.sampled_from([0.0, -0.0, 0.3, 0.5, 1.0]),
    st.floats(-1.2, 1.2, allow_nan=False),
)


@settings(derandomize=True, database=None, deadline=None, max_examples=60)
@given(
    family=st.sampled_from(["laplace", "stokes"]),
    m=st.sampled_from([0, 1, 44]),
    pairs=st.lists(st.tuples(coordinate, coordinate), min_size=1, max_size=6),
)
def test_eval_velocity_per_radius_is_bit_identical_to_per_point(family, m, pairs):
    # each pair brings its eight square images, which share its float
    # radius, and the origin is always in the set; a count divisible by
    # 3 is also sent as a (k, 3, 2) batch
    pts = np.array([(0.0, 0.0)] + [p for a, b in pairs for p in signed_swaps(a, b)])
    pts = pts.reshape(-1, 3, 2) if len(pts) % 3 == 0 else pts
    mode = mode_for(family, m)
    got = mode.eval_velocity(pts)
    want = per_point_velocity(mode, pts)
    assert got.shape == want.shape
    assert np.array_equal(np.ascontiguousarray(got).view(np.uint64),
                          np.ascontiguousarray(want).view(np.uint64))
