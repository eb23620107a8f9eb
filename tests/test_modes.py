import functools
import math
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.special import jn_zeros, jv

from bicharlab import modes as modes_module
from bicharlab.modes import (
    K_MAX,
    _zeros_table,
    bessel_zero,
    family_lambda,
    laplace_disk_mode,
    pick_k_for_ratio,
    stokes_disk_mode,
)
from bicharlab.polar import PolarGrid
from test_polar import EagerGrid, built, mesh


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


def test_pick_k_for_ratio_matches_the_full_table_argmin():
    # the prefix search gives the argmin over all 80 zeros, orders 0..65
    ratios = np.concatenate([np.linspace(0.0, 1.2, 25), [-0.1, 0.5 + 1e-12, 2.0]])
    for order in range(66):
        zs = jn_zeros(order, 80)
        families = [("laplace", order)] + ([("stokes", order - 1)] if order else [])
        for family, m in families:
            for ratio in ratios:
                want = int(np.argmin(np.abs(m / zs - ratio))) + 1
                assert pick_k_for_ratio(family, m, ratio) == want, (family, m, ratio)


def test_pick_k_for_ratio_takes_zeros_only_as_far_as_the_minimizer(monkeypatch):
    # m = 44 at ratio 0.5, the last `reflect` member, needs k = 10: the
    # prefix of 16 zeros crosses, so no 80-zero table is computed
    taken = []
    monkeypatch.setattr(modes_module, "jn_zeros",
                        lambda m, k: taken.append(k) or jn_zeros(m, k))
    monkeypatch.setattr(modes_module, "_ZEROS", {})
    assert pick_k_for_ratio("stokes", 44, 0.5) == 10
    assert taken == [8, 16]
    # the order keeps one table, and a shorter read takes a prefix of it
    assert list(modes_module._ZEROS) == [45] and len(modes_module._ZEROS[45]) == 16
    assert bessel_zero(45, 3) == modes_module._ZEROS[45][2] and taken == [8, 16]


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
    pts = np.stack(mesh(mode.grid)[2:], axis=-1)
    vals = eval_velocity(mode, pts)[..., 0]
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
    g = EagerGrid(mode.grid.K, mode.grid.n_theta)
    assert g.norm(mode.pressure) == pytest.approx(1.0 / math.sqrt(m + 1), abs=1e-10)
    qx, qy = g.grad_cartesian(mode.pressure)
    grad_norm = mode.h * math.hypot(g.norm(qx), g.norm(qy))
    assert grad_norm == pytest.approx(math.sqrt(2.0 * m) / mode.lam, abs=1e-9)


def test_stokes_flux_is_tangential_of_constant_modulus():
    mode = stokes_disk_mode(4, 2)
    g = EagerGrid(mode.grid.K, mode.grid.n_theta)
    flux = [mode.h * g.dr(u)[0, :] for u in mode.velocity]
    mag = np.hypot(np.abs(flux[0]), np.abs(flux[1]))
    assert np.max(np.abs(mag - 1.0 / math.sqrt(math.pi))) < 1e-7
    # radial part of the normal derivative vanishes on the boundary; contract
    # the cartesian jacobian (u itself vanishes there, so no frame terms)
    ct, st = np.cos(g.theta), np.sin(g.theta)
    dux = g.grad_cartesian(mode.velocity[0])
    duy = g.grad_cartesian(mode.velocity[1])
    dndr = (ct**2 * dux[0][0, :] + ct * st * (dux[1][0, :] + duy[0][0, :])
            + st**2 * duy[1][0, :])
    assert np.max(np.abs(dndr)) < 1e-7


def test_stokes_pressure_sign_matters():
    mode = stokes_disk_mode(2, 2)
    g = EagerGrid(mode.grid.K, mode.grid.n_theta)
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
    pts = np.stack(mesh(g)[2:], axis=-1)
    v = eval_velocity(mode, pts)
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
    g = EagerGrid(mode.grid.K, mode.grid.n_theta)
    assert g.norm(mode.pressure) == pytest.approx(1.0, abs=1e-10)


def test_large_angular_mode():
    mode = stokes_disk_mode(32, 1)
    rep = mode.residual_report()
    assert rep["momentum"] < 1e-6
    assert rep["normalization"] < 1e-8
    assert rep["flux_norm"] == pytest.approx(math.sqrt(2.0), abs=1e-6)


def test_resolution_validation():
    with pytest.raises(ValueError):
        bessel_zero(-1, 1)


@settings(derandomize=True, database=None, deadline=None, max_examples=200)
@given(
    ctor=st.sampled_from([laplace_disk_mode, stokes_disk_mode]),
    m=st.integers(0, 128),
    k=st.integers(1, K_MAX),
)
def test_grid_sizing_rule_resolves_every_mode(ctor, m, k):
    # the constructors' one sizing rule resolves lam and m on every mode a
    # config can name, so no grid needs a resolution check: more than 4
    # lam / pi radial nodes, and an even count of more than 4 m angles
    mode = ctor(m, k)
    assert mode.grid.K > 4.0 * mode.lam / math.pi
    assert mode.grid.n_theta > 4 * m and mode.grid.n_theta % 2 == 0


def test_mode_construction_makes_one_grid_and_one_zero_lookup(monkeypatch):
    # the benchmark's self-test counts both on laplace_disk_mode(3, 2)
    calls = {"grid": 0, "zero": 0}
    grid_init, zero = PolarGrid.__init__, modes_module.bessel_zero

    def counted_init(self, *args):
        calls["grid"] += 1
        grid_init(self, *args)

    def counted_zero(*args):
        calls["zero"] += 1
        return zero(*args)

    monkeypatch.setattr(PolarGrid, "__init__", counted_init)
    monkeypatch.setattr(modes_module, "bessel_zero", counted_zero)
    mode = laplace_disk_mode(3, 2)
    assert calls == {"grid": 1, "zero": 1}
    assert isinstance(mode.grid, PolarGrid) and mode.grid.K == 40


def test_bessel_zero_tables_are_read_only():
    zs = _zeros_table(4, 6)
    want = zs.copy()
    with pytest.raises(ValueError):
        zs[-1] = 0.0
    assert np.array_equal(_zeros_table(4, 6), want)
    assert bessel_zero(4, 6) == want[-1]
    # a longer read grows the order's one table, still read-only
    assert np.array_equal(_zeros_table(4, 12)[:6], want)
    with pytest.raises(ValueError):
        _zeros_table(4, 12)[0] = 0.0
    # the tables keep no refused key
    keys = sorted(modes_module._ZEROS)
    for m, k in ((-1, 3), (2, 0)):
        with pytest.raises(ValueError, match="m >= 0 and k >= 1"):
            _zeros_table(m, k)
    assert sorted(modes_module._ZEROS) == keys


def test_bessel_zero_tables_grow_by_doubling_as_prefixes(monkeypatch):
    # `jn_zeros` is prefix-stable: each order's table grows through 8, 16,
    # 32, 64 and K_MAX = 80 zeros, and every prefix read on the way holds
    # the bits of the 80-zero table, over every order a config reaches
    taken = []
    monkeypatch.setattr(modes_module, "jn_zeros",
                        lambda m, k: taken.append(k) or jn_zeros(m, k))
    monkeypatch.setattr(modes_module, "_ZEROS", {})
    for m in range(130):
        prefixes = [_zeros_table(m, k) for k in range(1, K_MAX + 1)]
        full = modes_module._ZEROS[m]
        assert len(full) == K_MAX and not full.flags.writeable
        for k, zs in enumerate(prefixes, 1):
            assert same_bits(zs, full[:k]), (m, k)
    assert taken == [8, 16, 32, 64, 80] * 130
    # a table of exactly k zeros holds the same bits, at a few (m, k)
    for m, k in ((0, 1), (0, 80), (13, 5), (44, 10), (65, 8), (129, 37)):
        assert bessel_zero(m, k) == jn_zeros(m, k)[-1]


def eager_mode(kind, m, k):
    """A mode as its constructors built it before the fields became lazy.

    The grid and both fields are made at once, on an `EagerGrid` sized by
    the rule as the constructors took it then.  Kept as the oracle of
    `Quasimode`'s first-read fields.
    """
    lam = family_lambda(kind, m, k)
    grid = EagerGrid(max(40, int(math.ceil(1.35 * lam)) + 16), max(32, 4 * m + 16))
    if kind == "laplace":
        c = 1.0 / (math.sqrt(math.pi) * abs(jv(m + 1, lam)))
        profile = c * jv(m, lam * grid.r)
        u = profile[:, None] * np.exp(1j * m * grid.theta)[None, :]
        velocity, pressure = np.stack([u]), None
    else:
        c = 1.0 / (math.sqrt(math.pi) * lam * abs(jv(m, lam)))
        jm_lam = jv(m, lam)
        F = c * (jv(m, lam * grid.r) - jm_lam * grid.r**m)
        psi = F[:, None] * np.exp(1j * m * grid.theta)[None, :]
        g1, g2 = grid.grad_cartesian(psi)
        velocity = np.stack([g2, -g1])
        w_m = grid.r[:, None] ** m * np.exp(1j * m * grid.theta)[None, :]
        pressure = -1j * c * lam * jm_lam * w_m
    return SimpleNamespace(kind=kind, m=m, k=k, lam=lam, h=1.0 / lam, grid=grid,
                           velocity=velocity, pressure=pressure, c=c)


def eager_boundary_flux(mode):
    g = mode.grid
    return np.stack([mode.h * g.dr(comp)[0, :] for comp in mode.velocity], axis=0)


def eager_residual_report(mode):
    """The residual report as separate Laplacian, divergence and flux passes."""
    g = mode.grid
    h = mode.h
    out = {}
    if mode.kind == "laplace":
        u = mode.velocity[0]
        out["pde"] = g.norm(-(h * h) * g.laplacian(u) - u)
        out["boundary"] = g.boundary_norm(u[0, :])
        out["normalization"] = abs(g.norm(u) - 1.0)
    else:
        ux, uy = mode.velocity
        qx, qy = g.grad_cartesian(mode.pressure)
        rx = -(h * h) * g.laplacian(ux) - ux + h * qx
        ry = -(h * h) * g.laplacian(uy) - uy + h * qy
        out["momentum"] = math.hypot(g.norm(rx), g.norm(ry))
        out["divergence"] = g.norm(g.div_cartesian(ux, uy))
        out["boundary"] = max(g.boundary_norm(ux[0, :]), g.boundary_norm(uy[0, :]))
        nrm = math.hypot(g.norm(ux), g.norm(uy))
        out["normalization"] = abs(nrm - 1.0)
    flux = eager_boundary_flux(mode)
    out["flux_norm"] = math.sqrt(sum(g.boundary_norm(row) ** 2 for row in flux))
    return out


def same_bits(a, b) -> bool:
    a, b = np.ascontiguousarray(a), np.ascontiguousarray(b)
    return a.shape == b.shape and np.array_equal(a.view(np.uint64), b.view(np.uint64))


def assert_matches_eager_oracle(mode, eager):
    """The polar fields and the residuals on profiles against the grid route.

    The scalar velocity and every pressure are the closed form on both
    sides, so they are bit-equal; the velocity family's velocity within
    1e-13 of its max.  The residuals: flux_norm within 1e-11 relative, the
    others within 2e-11 absolute, the round-off of the grid route's sums
    over every angular column.
    """
    assert (mode.grid.K, mode.grid.n_theta) == (eager.grid.K, eager.grid.n_theta)
    assert mode.c == eager.c and mode.lam == eager.lam
    assert len(mode.velocity) == (1 if mode.kind == "laplace" else 2)
    if mode.kind == "laplace":
        assert same_bits(mode.velocity, eager.velocity) and mode.pressure is None
    else:
        peak = np.abs(eager.velocity).max()
        assert np.abs(mode.velocity - eager.velocity).max() <= 1e-13 * peak
        assert same_bits(mode.pressure, eager.pressure)
    got, want = mode.residual_report(), eager_residual_report(eager)
    assert sorted(got) == sorted(want)
    for key, value in want.items():
        tol = 1e-11 * value if key == "flux_norm" else 2e-11
        assert abs(got[key] - value) <= tol, (key, got[key], value)


# (kind, m, k) and, where pinned, the grid's (num_r, num_theta): an odd
# num_r, and a num_r past its floor of 40
FIRST_READ_CASES = [
    ("laplace", 0, 1, None, None),
    ("laplace", 1, 3, None, None),
    ("laplace", 5, 12, 77, 36),
    ("laplace", 33, 6, None, None),
    ("stokes", 0, 2, None, None),
    ("stokes", 1, 1, None, None),
    ("stokes", 2, 9, 60, 32),
    ("stokes", 16, 4, None, None),
]


@pytest.mark.parametrize("kind, m, k, num_r, num_theta", FIRST_READ_CASES)
def test_first_read_fields_and_one_pass_residuals_match_eager_oracle(kind, m, k, num_r, num_theta):
    ctor = laplace_disk_mode if kind == "laplace" else stokes_disk_mode
    mode = ctor(m, k)
    assert "_fields" not in vars(mode) and built(mode.grid) == []
    if num_r is not None:
        assert (mode.grid.K, mode.grid.n_theta) == (num_r, num_theta)
    assert_matches_eager_oracle(mode, eager_mode(kind, m, k))
    assert mode.velocity is mode.velocity


@settings(derandomize=True, database=None, deadline=None, max_examples=40)
@given(kind=st.sampled_from(["laplace", "stokes"]), m=st.integers(0, 48), k=st.integers(1, 8))
def test_residuals_on_profiles_match_the_grid_route(kind, m, k):
    ctor = laplace_disk_mode if kind == "laplace" else stokes_disk_mode
    eager = eager_mode(kind, m, k)
    assert_matches_eager_oracle(ctor(m, k), eager)
    # the premise: a mode's grid fields hold only their harmonics, the
    # scalar mode and the pressure m, the velocity components m +- 1
    g = eager.grid
    fields = [(eager.velocity, [m] if kind == "laplace" else [m - 1, m + 1])]
    if kind == "stokes":
        fields.append((eager.pressure[None], [m]))
    for field, js in fields:
        for comp in field:
            fhat = g.to_modes(comp)
            off = ~np.isin(g.modes, js)
            assert np.abs(fhat[:, off]).max() <= 1e-13 * np.abs(comp).max()


def test_box_only_experiments_build_no_polar_matrices():
    # invariance, off-shell, support and interior-tail experiments read
    # the closed form on a box: the polar grid keeps only its axes
    from bicharlab.config import build_symbol
    from bicharlab.verify import car_mass, h_oscillation_tail, invariance_gap, support_gap

    bump = build_symbol({"type": "interior", "xi_bound": 1.6, "factors": [
        {"var": "bump", "center": [0.25, 0.0], "radius": 0.2},
        {"var": "speed", "window": [0.6, 0.8, 1.2, 1.4]}]})
    off_shell = build_symbol({"type": "interior", "xi_bound": 1.5, "factors": [
        {"var": "radius", "window": [-0.76, -0.62, 0.62, 0.76]},
        {"var": "speed_sq", "window": [0.35, 0.5, 0.75, 0.8]}]})
    fam = [laplace_disk_mode(0, 10), stokes_disk_mode(2, 6)]
    invariance_gap(fam, bump, 0.1)
    car_mass(fam, off_shell)
    support_gap(fam, bump, 0.3, nx=8, nxi=9)
    h_oscillation_tail(fam, (2.0, 4.0))
    for mode in fam:
        assert "_fields" not in vars(mode) and built(mode.grid) == []


def eval_velocity(mode, points):
    """Closed-form velocity of a disk mode at ambient points, shape (..., ncomp).

    The radial table runs once per distinct float radius and is gathered
    back; the angular part runs per point.
    """
    pts = np.asarray(points, dtype=float)
    rho = np.hypot(pts[..., 0], pts[..., 1])
    theta = np.arctan2(pts[..., 1], pts[..., 0])
    rad, inv = np.unique(rho.ravel(), return_inverse=True)
    inv = inv.reshape(rho.shape)
    return mode.angular_values([t[inv] for t in mode.radial_table(rad)], theta)


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
    x = lam * rho
    F = c * (jv(m, x) - jm_lam * rho**m)
    with np.errstate(divide="ignore", invalid="ignore"):
        djm = jv(m - 1, x) - m * np.where(x > 0.0, jv(m, x) / x, 0.5 if m == 1 else 0.0)
    dF = c * (lam * djm - jm_lam * m * rho ** max(m - 1, 0))
    with np.errstate(divide="ignore", invalid="ignore"):
        F_over_rho = np.where(rho > 1e-12, F / np.where(rho > 1e-12, rho, 1.0), 0.0)
    if m == 1:
        lim = c * (0.5 * lam - jv(1, lam))
        F_over_rho = np.where(rho > 1e-12, F_over_rho, lim)
    ct, st_ = np.cos(theta), np.sin(theta)
    ux = (st_ * dF + ct * 1j * m * F_over_rho) * phase
    uy = -(ct * dF - st_ * 1j * m * F_over_rho) * phase
    return np.stack([ux, uy], axis=-1)


def three_order_derivative(m, x):
    """J_m' as `radial_table` took it before: (J_{m-1} - J_{m+1}) / 2, and
    -J_1 at m = 0.  The oracle of the two-order form."""
    if m == 0:
        return -jv(1, x)
    return 0.5 * (jv(m - 1, x) - jv(m + 1, x))


@pytest.mark.parametrize("m", [1, 2, 3, 7, 16, 44, 64])
@pytest.mark.parametrize("k", [1, 2, 5, 10])
def test_radial_table_derivative_matches_the_three_order_oracle(m, k):
    # J_m' = J_{m-1} - (m / x) J_m with its limit at x = 0, against the
    # three orders it replaced: within 1e-14 of the profile's max
    mode = stokes_disk_mode(m, k)
    rad = np.linspace(0.0, 1.0, 2001)
    dF, _ = mode.radial_table(rad)
    jm_lam = jv(m, mode.lam)
    want = mode.c * (mode.lam * three_order_derivative(m, mode.lam * rad)
                     - jm_lam * m * rad ** max(m - 1, 0))
    assert np.max(np.abs(dF - want)) <= 1e-14 * np.max(np.abs(want))
    assert dF[0] == want[0]  # the limit at rho = 0, exactly


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
    got = eval_velocity(mode, pts)
    want = per_point_velocity(mode, pts)
    assert got.shape == want.shape
    assert np.array_equal(np.ascontiguousarray(got).view(np.uint64),
                          np.ascontiguousarray(want).view(np.uint64))
