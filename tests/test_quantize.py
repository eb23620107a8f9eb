"""Quantization layer: operator identities on windowed fields, agreement
of the FFT path with the direct lattice sum, pairing quadratures against
independent integrals, family extrapolation, and phase-space densities."""

import math
import tracemalloc
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from bicharlab import quantize
from bicharlab.bumps import bump_profile, plateau_step, window
from bicharlab.config import build_symbol
from bicharlab.modes import bessel_zero, laplace_disk_mode, pick_k_for_ratio, stokes_disk_mode
from bicharlab.polar import PolarGrid
from bicharlab.quantize import (
    XI_FLOOR,
    BandlimitError,
    BoxGrid,
    HusimiGrid,
    InteriorSymbol,
    SupportMarginError,
    TangentialSymbol,
    apply_interior_op,
    apply_tangential_op,
    default_box,
    husimi_grid,
    measure_sequence,
    pairing,
    sample_mode_on_box,
    shifted_pairing,
)
from bicharlab.quantize import (
    _lattice_positions,
    _origin_phase,
    _plane_coeffs,
    _speed_on_lattice,
    _synthesize,
    apply_shifted_op,
)
from bicharlab.verify import h_oscillation_tail, invariance_gap
from test_modes import eval_velocity
from test_polar import mesh


def spatial_plateau(r_on, r_off):
    return lambda x1, x2: 1.0 - plateau_step(np.hypot(x1, x2), r_on, r_off)


def snap_frequency(grid, h, xi):
    """Componentwise nearest point of the h-scaled frequency lattice."""
    lattice = h * grid.k
    return np.array([lattice[np.argmin(np.abs(lattice - v))] for v in xi])


def disk_mask(grid):
    """The box nodes in the closed unit disk."""
    return (grid.X1**2 + grid.X2**2) <= 1.0


def box_norm(grid, f):
    """L2 norm of a box field."""
    return float(np.sqrt(grid.inner(f, f).real))


def packet(grid, x0, xi0, h, width=0.35):
    """Normalized bump-windowed plane wave, frequency snapped to the lattice."""
    xi = snap_frequency(grid, h, xi0)
    env = bump_profile(np.hypot(grid.X1 - x0[0], grid.X2 - x0[1]) / width)
    f = env * np.exp(1j * (grid.X1 * xi[0] + grid.X2 * xi[1]) / h)
    return f / box_norm(grid, f), xi


def box_pairing(a, mode, grid, check=True):
    """(Op_h(a) u | u) summed over the mode's components, sampled on an explicit box."""
    total = 0.0 + 0.0j
    for u in sample_mode_on_box(mode, grid):
        total += grid.inner(apply_interior_op(a, u, mode.h, grid, check=check), u)
    return complex(total)


def test_identity_and_multiplication_symbols():
    grid = BoxGrid(64)
    h = 0.05
    f, _ = packet(grid, (0.1, -0.2), (0.8, 0.3), h)
    ident = InteriorSymbol(spatial_plateau(0.7, 0.85), xi_bound=0.0)
    out = apply_interior_op(ident, f, h, grid)
    assert np.max(np.abs(out - f)) < 1e-12

    def xfac(x1, x2):
        return bump_profile(np.hypot(x1 - 0.1, x2 + 0.2) / 0.7)

    mult = InteriorSymbol(xfac, xi_bound=0.0)
    out = apply_interior_op(mult, f, h, grid)
    assert np.max(np.abs(out - xfac(grid.X1, grid.X2) * f)) < 1e-12


def test_first_order_symbol_oscillatory_and_quadrature_oracle():
    grid = BoxGrid(96)
    chi = spatial_plateau(0.7, 0.85)
    sym = InteriorSymbol(chi, lambda r: r, xi_bound=1.5)  # chi(x) |xi|
    errs = []
    for h in (0.05, 0.025):
        f, xi = packet(grid, (0.0, 0.1), (0.9, -0.4), h)
        out = apply_interior_op(sym, f, h, grid)
        errs.append(box_norm(grid, out - np.hypot(*xi) * f))
    assert errs[0] < 0.4
    assert 1.6 < errs[0] / errs[1] < 2.5

    # direct quadrature of the lattice sum at one output point; the
    # coefficients in the e^{i k.x} basis carry the box-origin phase
    h = 0.05
    f, xi = packet(grid, (0.0, 0.1), (0.9, -0.4), h)
    out = apply_interior_op(sym, f, h, grid)
    coef = np.fft.fft2(f) / grid.n**2
    coef = coef * np.exp(1j * grid.half * (grid.K1 + grid.K2))
    i0, j0 = 52, 46
    x1s, x2s = grid.x[i0], grid.x[j0]
    phases = np.exp(1j * (grid.K1 * x1s + grid.K2 * x2s))
    val = np.sum(chi(x1s, x2s) * np.hypot(h * grid.K1, h * grid.K2) * coef * phases)
    assert abs(val - out[i0, j0]) < 1e-9


def dense_twin(sym):
    """The same symbol with momentum factor 1, which takes the masked path."""
    return InteriorSymbol(sym.spatial, sym.speed, np.ones_like, xi_bound=sym.xi_bound)


def test_arc_interior_symbol_takes_the_fft_path():
    # the arc is a factor of x alone, so radius, speed and arc stay separable
    a = build_symbol(
        {
            "type": "interior",
            "xi_bound": 1.5,
            "factors": [
                {"var": "radius", "window": [0.2, 0.3, 0.7, 0.8]},
                {"var": "speed", "window": [0.6, 0.8, 1.2, 1.4]},
            ],
            "arc": {"center": 0.5, "inner": 0.4, "outer": 0.9},
        }
    )
    assert a.momentum is None
    mode = laplace_disk_mode(3, 2)
    grid = BoxGrid(64)
    fast = box_pairing(a, mode, grid)
    assert abs(fast) > 1e-3
    assert abs(fast - box_pairing(dense_twin(a), mode, grid)) < 1e-12


def test_masked_path_matches_fast_path():
    grid = BoxGrid(48)
    h = 0.1
    sym = InteriorSymbol(
        spatial_plateau(0.55, 0.7), lambda r: window(r, 0.2, 0.4, 1.2, 1.5), xi_bound=1.6
    )
    f, _ = packet(grid, (-0.1, 0.05), (0.6, 0.2), h, width=0.3)
    twin = dense_twin(sym)
    fast = apply_interior_op(sym, f, h, grid)
    masked = apply_interior_op(twin, f, h, grid)
    assert np.max(np.abs(fast - masked)) < 1e-10

    mode = laplace_disk_mode(1, 1)
    v_fast = box_pairing(sym, mode, grid)
    v_masked = box_pairing(twin, mode, grid)
    assert abs(v_fast - v_masked) < 1e-10


def test_margin_bandlimit_and_construction_refusals():
    grid = BoxGrid(64)
    wide = InteriorSymbol(spatial_plateau(0.95, 0.99), xi_bound=0.0)
    with pytest.raises(SupportMarginError):
        apply_interior_op(wide, np.zeros((64, 64)), 0.05, grid)

    hungry = InteriorSymbol(spatial_plateau(0.5, 0.6), xi_bound=3.0)
    with pytest.raises(BandlimitError):
        apply_interior_op(hungry, np.zeros((64, 64)), 0.01, grid)

    with pytest.raises(ValueError, match="xi_bound"):
        InteriorSymbol(spatial_plateau(0.5, 0.6), xi_bound=-1.0)
    with pytest.raises(ValueError):
        TangentialSymbol(lambda y, xip: 1.0 + 0.0 * y * xip, y_support=0.3)
    # an angular factor that is 0 at one angle does not hide the multiplier
    with pytest.raises(ValueError, match="must vanish for y >= y_support"):
        TangentialSymbol(
            lambda y, xip: 1.0 + 0.0 * y * xip,
            angular=lambda th: np.sin(th - np.pi / 7),
            y_support=0.3,
        )


def test_tangential_multiplier_and_theta_dependent_quantization():
    g = PolarGrid(32, 64)
    h = 1.0 / 16.0
    m = 5
    prof = (g.r**3)[:, None]
    f = prof * np.exp(1j * m * g.theta)[None, :]

    def psi(y):
        return 1.0 - plateau_step(y, 0.15, 0.3)

    depth_only = TangentialSymbol(lambda y, xip: psi(y) + 0.0 * xip, y_support=0.31)
    out = apply_tangential_op(depth_only, f, h, g)
    R, T, _, _ = mesh(g)
    assert np.max(np.abs(out - psi(1.0 - R) * f)) < 1e-12

    def chi(s):
        return window(np.abs(s), 0.05, 0.1, 0.5, 0.6)

    diag = TangentialSymbol(lambda y, xip: psi(y) * chi(xip), y_support=0.31)
    out = apply_tangential_op(diag, f, h, g)
    expect = psi(1.0 - R) * chi(h * m) * f
    assert np.max(np.abs(out - expect)) < 1e-12

    full = TangentialSymbol(
        lambda y, xip: psi(y) * chi(xip),
        angular=lambda th: 1.0 + 0.3 * np.cos(th),
        y_support=0.31,
    )
    out = apply_tangential_op(full, f, h, g)
    expect = psi(1.0 - R) * (1.0 + 0.3 * np.cos(T)) * chi(h * m) * f
    assert np.max(np.abs(out - expect)) < 1e-12


def dense_tangential_op(a, f, h, grid):
    """Left quantization of a collar symbol as a dense sum: the oracle.

    Row by row, sum_m a(1 - r_i, theta_j, h m) fhat_{i,m} e^{i m theta_j}
    with the full symbol a = b(y, xi') c(theta) tabulated on the theta by
    mode grid, so nothing rests on the factoring apply_tangential_op uses.
    """
    fhat = grid.to_modes(f)
    y = 1.0 - grid.r
    xs = h * grid.modes.astype(float)
    E = np.exp(1j * np.outer(grid.theta, grid.modes.astype(float)))
    angular = np.ones(grid.n_theta) if a.angular is None else a.angular(grid.theta)
    out = np.empty((grid.K, grid.n_theta), dtype=complex)
    for i in range(grid.K):
        A = np.asarray(a.multiplier(y[i], xs[None, :]) * angular[:, None])
        out[i] = (A * E) @ fhat[i]
    return out


def ramp(lo, hi, width):
    """Strategy for (a, b), lo <= a < b <= hi, with b - a in [1e-3, width]."""
    return st.tuples(st.floats(lo, hi - width), st.floats(1e-3, width)).map(
        lambda p: (p[0], p[0] + p[1])
    )


@settings(derandomize=True, database=None, deadline=None, max_examples=30)
@given(
    depth=ramp(0.0, 0.45, 0.3),
    rise=ramp(-2.0, 0.0, 1.0),
    plateau=st.floats(0.0, 1.0),
    fall=st.floats(1e-3, 1.0),
    xip_abs=st.booleans(),
    arc=st.one_of(
        st.none(),
        st.tuples(st.floats(-7.0, 7.0), st.floats(0.01, 2.0), st.floats(1e-3, 1.0)),
    ),
    h=st.floats(0.01, 0.5),
    m=st.integers(-20, 20),
    seed=st.integers(0, 2**16),
)
def test_factored_tangential_op_matches_dense_oracle(
    depth, rise, plateau, fall, xip_abs, arc, h, m, seed
):
    xw = [*rise, rise[1] + plateau, rise[1] + plateau + fall]
    spec = {
        "type": "tangential",
        "y_support": 0.5,
        "y_ramp": list(depth),
        "xip_window": xw,
        "xip_abs": xip_abs,
    }
    if arc is not None:
        center, inner, gap = arc
        spec["arc"] = {"center": center, "inner": inner, "outer": min(inner + gap, 3.1)}
    a = build_symbol(spec)
    g = PolarGrid(16, 48)
    rng = np.random.default_rng(seed)
    f = rng.standard_normal((g.K, g.n_theta)) + 1j * rng.standard_normal((g.K, g.n_theta))
    f += (g.r**abs(m))[:, None] * np.exp(1j * m * g.theta)[None, :]
    got = apply_tangential_op(a, f, h, g)
    want = dense_tangential_op(a, f, h, g)
    assert np.max(np.abs(got - want)) <= 1e-12 * np.max(np.abs(f))


def test_collar_exponential_symbol_matches_power_extension():
    rels = []
    for m in (40, 80):
        h = 1.0 / m
        g = PolarGrid(96, 192)

        def a(y, xip, h=h):
            lam = np.abs(xip) / (1.0 - y)
            cut = 1.0 - plateau_step(y, 0.5, 0.62)
            return np.exp(-y * lam / h) * window(np.abs(xip), 0.5, 0.8, 1.2, 1.5) * cut

        sym = TangentialSymbol(a, y_support=0.63)
        f0 = np.ones((g.K, 1)) * np.exp(1j * m * g.theta)[None, :]
        out = apply_tangential_op(sym, f0, h, g)
        expect = (g.r**m)[:, None] * np.exp(1j * m * g.theta)[None, :]
        rels.append(g.norm(out - expect) / g.norm(expect))
    assert rels[0] < 0.02
    assert 0.35 < rels[1] / rels[0] < 0.7


def test_pairing_partition_of_unity():
    grid = BoxGrid(192)
    interior = InteriorSymbol(spatial_plateau(0.8, 0.9), xi_bound=0.0)
    collar = TangentialSymbol(
        lambda y, xip: plateau_step(1.0 - y, 0.8, 0.9) + 0.0 * xip, y_support=0.21
    )
    # default radial grids under-resolve the Gevrey ramp of the cutoffs,
    # so the quadrature side of this identity needs more radial nodes
    for mode in (
        laplace_disk_mode(3, 4, num_r=128),
        stokes_disk_mode(2, 3, num_r=128),
    ):
        total = box_pairing(interior, mode, grid) + pairing(collar, mode)
        assert abs(total - 1.0) < 1e-6


def test_pairing_multiplication_matches_polar_quadrature():
    mode = laplace_disk_mode(0, 1, num_r=128)
    grid = BoxGrid(128)
    sym = InteriorSymbol(lambda x1, x2: bump_profile(np.hypot(x1, x2) / 0.6), xi_bound=0.0)
    val = box_pairing(sym, mode, grid)
    g = mode.grid
    ref = g.integrate(bump_profile(mesh(g)[0] / 0.6) * np.abs(mode.velocity[0]) ** 2).real
    assert abs(val - ref) < 1e-6


def test_elliptic_frequency_symbol_decays_along_family():
    # wide Gevrey ramps and a fat margin from the rim keep the window
    # kernel's subexponential leakage below the h-linear boundary term
    modes = [laplace_disk_mode(2, k) for k in (4, 8, 16, 32)]
    sym = InteriorSymbol(
        spatial_plateau(0.6, 0.7), lambda r: window(r, 1.2, 1.5, 1.9, 2.2), xi_bound=2.2
    )
    series = measure_sequence(sym, modes)
    mags = np.abs(series.values)
    assert np.all(np.diff(mags) < 0.0)
    assert np.all(mags <= 0.2 * series.hs)
    assert series.extrapolated and abs(series.limit) < 1e-3


def angular_multiplier_pairing(chi, mode):
    """Pair with the diagonal multiplier chi(h * angular frequency).

    This is the exact quantization of a function of the angular-momentum
    fiber variable on the disk, with no spatial cutoff.
    """
    g = mode.grid
    weights = chi(mode.h * g.modes.astype(float))
    total = 0.0 + 0.0j
    for u in mode.velocity:
        fhat = g.to_modes(u)
        total += g.inner(g.from_modes(weights[None, :] * fhat), u)
    return complex(total)


def test_measure_sequence_angular_multiplier_concentration(monkeypatch):
    family = []
    for m in (8, 16, 32):
        k = 1
        while bessel_zero(m, k) < 2.0 * m:
            k += 1
        family.append(laplace_disk_mode(m, k))
    ratios = [m.m * m.h for m in family]
    assert all(0.4 < s < 0.6 for s in ratios)

    def chi_on(s):
        return window(np.abs(s), 0.25, 0.35, 0.65, 0.75)

    # the series pairs through the module's `pairing`
    monkeypatch.setattr(quantize, "pairing", angular_multiplier_pairing)
    series = measure_sequence(chi_on, family)
    assert np.max(np.abs(series.values - 1.0)) < 1e-9
    assert abs(series.limit - 1.0) < 1e-9

    def chi_off(s):
        return window(np.abs(s), 0.76, 0.8, 0.9, 0.94)

    series = measure_sequence(chi_off, family)
    assert np.max(np.abs(series.values)) < 1e-12

    short = measure_sequence(chi_on, family[:2])
    assert short.limit is None and not short.extrapolated
    with pytest.raises(ValueError):
        measure_sequence(chi_on, family[::-1])


def test_real_symbol_pairing_imaginary_part_and_positivity():
    sym = InteriorSymbol(
        spatial_plateau(0.7, 0.8),
        momentum=lambda ell: window(ell, -0.2, -0.1, 0.35, 0.45),
        xi_bound=1.5,
    )
    modes = [laplace_disk_mode(5, k) for k in (2, 4, 8)]
    vals = [pairing(sym, m) for m in modes]
    for v, m in zip(vals, modes):
        assert abs(v.imag) < 0.5 * m.h
        # nonnegative symbol: sharp-Garding-size negative part at most
        assert v.real > -3.0 * m.h
    assert abs(vals[-1].imag) < abs(vals[0].imag) + 0.05 * modes[-1].h


def husimi_snap(h, box, nxi, xi_max):
    """Lattice indices nearest each xi target, sorted by frequency."""
    lattice = h * box.k
    targets = np.linspace(-xi_max, xi_max, nxi)
    idx = np.unique([int(np.argmin(np.abs(lattice - t))) for t in targets])
    return idx[np.argsort(lattice[idx])]


def two_pass_husimi(fields, h, box, nx=24, nxi=25, x_max=1.25, xi_max=1.6):
    """Husimi density of raw box fields by two batched 1-D FFT passes.

    The raw-field form of husimi_grid: it computes every window centre and
    assumes no rotation symmetry, so it takes any field or stack of them.
    """
    comps = np.asarray(fields, dtype=complex)
    if comps.ndim == 2:
        comps = comps[None, :, :]
    idx = husimi_snap(h, box, nxi, xi_max)
    xi_axis = h * box.k[idx]
    x_axis = np.linspace(-x_max, x_max, nx)
    g = np.exp(-((box.x[None, :] - x_axis[:, None]) ** 2) / (2.0 * h))
    dens = np.zeros((nx, nx, len(idx), len(idx)))
    for i in range(nx):
        for u in comps:
            V = np.fft.fft(g[i][:, None] * u, axis=0)[idx]
            G = np.fft.fft(V[None] * g[:, None, :], axis=2)[:, :, idx]
            dens[i] += np.abs(G) ** 2
    dens *= (box.cell / np.sqrt(np.pi * h)) ** 2 / (2.0 * np.pi * h) ** 2
    dx0, dxi = x_axis[1] - x_axis[0], float(np.mean(np.diff(xi_axis)))
    return HusimiGrid(x_axis, xi_axis, dens, (dx0 * dxi) ** 2)


def test_husimi_plane_wave_peak_and_mass():
    h = 0.04
    box = BoxGrid(96)
    f, xi = packet(box, (0.2, -0.1), (0.7, -0.3), h, width=0.4)
    hg = two_pass_husimi(f, h, box, nx=21, nxi=21, x_max=1.0, xi_max=1.4)
    i, j, p, q = np.unravel_index(int(np.argmax(hg.density)), hg.density.shape)
    px, py = hg.x_axis[i], hg.x_axis[j]
    pxi1, pxi2 = hg.xi_axis[p], hg.xi_axis[q]
    dx0 = hg.x_axis[1] - hg.x_axis[0]
    dxi = hg.xi_axis[1] - hg.xi_axis[0]
    assert abs(px - 0.2) <= dx0 + 1e-12
    assert abs(py + 0.1) <= dx0 + 1e-12
    assert abs(pxi1 - xi[0]) <= dxi + 1e-12
    assert abs(pxi2 - xi[1]) <= dxi + 1e-12
    assert abs(hg.mass() - 1.0) < 0.05


def test_husimi_mode_concentrates_on_unit_shell():
    mode = laplace_disk_mode(0, 20)
    hg = husimi_grid(mode)
    assert abs(hg.mass() - 1.0) < 0.05
    # share of mass at frequency radius outside [0.7, 1.3]
    S1, S2 = np.meshgrid(hg.xi_axis, hg.xi_axis, indexing="ij")
    off = np.abs(np.hypot(S1, S2) - 1.0) > 0.3
    assert hg.density[:, :, off].sum() / hg.density.sum() < 0.1


def loop_husimi_density(comps, h, box, nx, nxi, x_max, xi_max):
    """The nx^2 full-FFT loop that the two passes replaced: the oracle."""
    idx = husimi_snap(h, box, nxi, xi_max)
    x_axis = np.linspace(-x_max, x_max, nx)
    dens = np.zeros((nx, nx, len(idx), len(idx)))
    norm_w = 1.0 / np.sqrt(np.pi * h)
    sel = np.ix_(idx, idx)
    for i, x0 in enumerate(x_axis):
        g1 = np.exp(-((box.x - x0) ** 2) / (2.0 * h))
        for j, y0 in enumerate(x_axis):
            g2 = np.exp(-((box.x - y0) ** 2) / (2.0 * h))
            w = norm_w * np.outer(g1, g2)
            for u in comps:
                G = np.fft.fft2(w * u) * box.cell
                dens[i, j] += np.abs(G[sel]) ** 2
    return dens / (2.0 * np.pi * h) ** 2


def assert_matches_loop(hg, h, box, comps, nx, nxi, x_max=1.25, xi_max=1.6):
    ref = loop_husimi_density(comps, h, box, nx, nxi, x_max, xi_max)
    assert hg.density.shape == ref.shape
    assert np.max(np.abs(hg.density - ref)) <= 1e-13 * ref.max()
    return hg


def assert_two_pass_matches_loop(fields, h, box, nx, nxi):
    hg = two_pass_husimi(fields, h, box, nx=nx, nxi=nxi)
    return assert_matches_loop(hg, h, box, np.reshape(fields, (-1, box.n, box.n)), nx, nxi)


def assert_husimi_matches_loop(mode, nx, nxi):
    # husimi_grid samples the mode on the box whose lattice reaches xi_max + 1
    box = default_box(mode.h, 1.6 + 1.0)
    hg = husimi_grid(mode, nx=nx, nxi=nxi)
    return assert_matches_loop(hg, mode.h, box, sample_mode_on_box(mode, box), nx, nxi)


def test_husimi_matches_fft_loop_on_raw_fields():
    h = 0.05
    box = BoxGrid(64)
    f, _ = packet(box, (0.2, -0.1), (0.7, -0.3), h, width=0.4)
    g, _ = packet(box, (-0.3, 0.25), (-0.5, 0.9), h, width=0.3)
    assert_two_pass_matches_loop(f, h, box, nx=12, nxi=13)  # single field
    assert_two_pass_matches_loop(np.stack([f, g]), h, box, nx=10, nxi=11)
    assert_two_pass_matches_loop(g, h, box, nx=11, nxi=9)  # odd nx


def test_husimi_matches_fft_loop_when_xi_targets_collapse():
    # lattice step h dk ~ 0.21 exceeds the target step 3.2 / 24, so
    # np.unique merges targets and the xi axis is shorter than nxi
    h = 0.1
    box = BoxGrid(32)
    f, _ = packet(box, (0.1, 0.2), (0.6, 0.4), h, width=0.5)
    hg = assert_two_pass_matches_loop(f, h, box, nx=8, nxi=25)
    assert 2 <= len(hg.xi_axis) < 25


def test_husimi_matches_fft_loop_on_stokes_mode():
    mode = stokes_disk_mode(16, 3)
    assert_husimi_matches_loop(mode, nx=24, nxi=25)


@pytest.mark.parametrize(
    "mode, nx",
    [
        (stokes_disk_mode(44, pick_k_for_ratio("stokes", 44, 0.5)), 6),
        (laplace_disk_mode(5, 7), 9),  # odd nx: the origin row
        (stokes_disk_mode(1, 4), 8),
        (laplace_disk_mode(0, 3), 7),
    ],
    ids=["stokes-44", "laplace-odd-nx", "stokes-1", "laplace-0-odd-nx"],
)
def test_husimi_matches_fft_loop_on_the_other_quadrants(mode, nx):
    assert_husimi_matches_loop(mode, nx=nx, nxi=29)


def test_husimi_matches_fft_loop_on_a_mode_when_xi_targets_collapse():
    # lattice step h dk ~ 0.24 exceeds the target step 3.2 / 24; the step
    # does not depend on the box size n
    mode = laplace_disk_mode(0, 3)
    hg = assert_husimi_matches_loop(mode, nx=8, nxi=25)
    assert 2 <= len(hg.xi_axis) < 25


def test_husimi_axes_are_symmetric_through_a_target_tie():
    # xi_max sits halfway between the lattice points 3 h dk and 4 h dk, an
    # exact tie in floats: argmin takes the first in FFT order, 3 h dk for
    # +xi_max but -4 h dk for -xi_max, so snapping both signs is lopsided
    mode = laplace_disk_mode(0, 3)
    lattice = mode.h * BoxGrid(32).k
    xi_max = 0.5 * (lattice[3] + lattice[4])
    # the box husimi_grid takes has the same lattice step h dk, so the
    # same tie
    box = default_box(mode.h, xi_max + 1.0)
    lattice = mode.h * box.k
    assert abs(lattice[3] - xi_max) == abs(lattice[4] - xi_max)
    lopsided = lattice[husimi_snap(mode.h, box, 3, xi_max)]
    assert not np.array_equal(lopsided, -lopsided[::-1])
    hg = husimi_grid(mode, nx=27, nxi=3, xi_max=xi_max)
    assert np.array_equal(hg.xi_axis, [-lattice[3], 0.0, lattice[3]])
    # linspace(-1.25, 1.25, 27) is off symmetric by 4.4e-16
    assert np.array_equal(hg.x_axis, -hg.x_axis[::-1]) and hg.x_axis[13] == 0.0
    assert np.max(np.abs(hg.x_axis - np.linspace(-1.25, 1.25, 27))) < 1e-15


def d4_images(dens):
    """The density read through each of the 8 symmetries of the square.

    A symmetry g sends the centre x to g x and xi to g xi when it turns,
    to -g xi when it reflects; on the symmetric axes, a sign flip is a
    reversal.  An invariant density equals all 8 images.
    """
    nx, nxi = dens.shape[0], dens.shape[2]
    i, j, p, q = np.meshgrid(*(np.arange(n) for n in (nx, nx, nxi, nxi)), indexing="ij")
    for swap in (False, True):
        for s1 in (1, -1):
            for s2 in (1, -1):
                turn = (-1 if swap else 1) * s1 * s2 > 0
                x = [j, i] if swap else [i, j]
                xi = [q, p] if swap else [p, q]
                x = [c if sg > 0 else nx - 1 - c for c, sg in zip(x, (s1, s2))]
                xsg = (s1, s2) if turn else (-s1, -s2)
                xi = [c if sg > 0 else nxi - 1 - c for c, sg in zip(xi, xsg)]
                yield dens[x[0], x[1], xi[0], xi[1]]


@pytest.mark.parametrize(
    "mode",
    [laplace_disk_mode(0, 3), stokes_disk_mode(1, 4), stokes_disk_mode(44, 2)],
    ids=["laplace-0", "stokes-1", "stokes-44"],
)
@pytest.mark.parametrize("nx", [10, 9])
def test_husimi_density_has_the_symmetry_of_the_square(mode, nx):
    dens = husimi_grid(mode, nx=nx, nxi=13).density
    images = list(d4_images(dens))
    assert len(images) == 8
    for image in images:
        assert np.max(np.abs(image - dens)) <= 1e-13 * dens.max()


def test_husimi_refuses_degenerate_windows():
    mode = laplace_disk_mode(0, 3)
    for bad in ({"x_max": 0.0}, {"x_max": math.inf}, {"xi_max": -0.5}, {"xi_max": math.nan}):
        with pytest.raises(ValueError, match="x_max"):
            husimi_grid(mode, **bad)


def test_husimi_refuses_raw_fields():
    box = BoxGrid(32)
    f, _ = packet(box, (0.1, 0.2), (0.6, 0.4), 0.1, width=0.5)
    with pytest.raises(TypeError, match="disk mode"):
        husimi_grid(f)


@pytest.mark.parametrize("mode", [stokes_disk_mode(7, 2), laplace_disk_mode(3, 4)])
def test_sample_mode_on_box_is_the_full_box_closed_form_on_the_disk(mode):
    box = default_box(mode.h, 2.6)
    comps = sample_mode_on_box(mode, box)
    points = np.stack(np.broadcast_arrays(box.X1, box.X2), axis=-1)
    full = np.moveaxis(eval_velocity(mode, points), -1, 0)
    inside = disk_mask(box)
    assert comps.shape == full.shape and comps.dtype == complex
    bits = [np.ascontiguousarray(c[:, inside]).view(np.uint64) for c in (comps, full)]
    assert np.array_equal(*bits)
    outside = np.ascontiguousarray(comps[:, ~inside]).view(float)
    assert np.all(outside == 0.0) and not np.signbit(outside).any()


def one_shot_sample(mode, grid, cutoff=None):
    """sample_mode_on_box as it was: every live node of the box gathered at
    once and evaluated by one `eval_velocity` call.  The oracle of the
    streamed sampler."""
    i, j = np.nonzero(disk_mask(grid))
    x1, x2 = grid.x[i], grid.x[j]
    if cutoff is not None:
        w = cutoff(np.hypot(x1, x2))
        live = np.flatnonzero(w)
        i, j, x1, x2, w = i[live], j[live], x1[live], x2[live], w[live]
    vals = eval_velocity(mode, np.stack([x1, x2], axis=-1))
    if cutoff is not None:
        vals *= w[:, None]
    comps = np.zeros((vals.shape[-1], grid.n, grid.n), dtype=complex)
    comps[:, i, j] = vals.T
    return comps


def tail_cutoff(t):
    return 1.0 - plateau_step(t, 0.7, 0.9)


@pytest.mark.parametrize("cutoff", [None, tail_cutoff], ids=["disk", "cutoff"])
@pytest.mark.parametrize("mode, xi_bound", [
    (laplace_disk_mode(3, 4), 1.5),  # n = 36: the box is one block
    (stokes_disk_mode(1, 2), 1.5),
    (laplace_disk_mode(0, 40), 8.5),  # n = 1026, the layer tails box
    (stokes_disk_mode(44, 10), 2.6),  # n = 236
    (stokes_disk_mode(7, 5), 3.0),
], ids=lambda v: f"{v.kind}-{v.m}-{v.k}" if hasattr(v, "kind") else str(v))
def test_streamed_sample_matches_the_one_shot_oracle(mode, xi_bound, cutoff):
    box = default_box(mode.h, xi_bound)
    got = sample_mode_on_box(mode, box, cutoff)
    want = one_shot_sample(mode, box, cutoff)
    assert got.shape == want.shape and got.dtype == want.dtype
    assert got.tobytes() == want.tobytes()


@pytest.mark.parametrize("family", [laplace_disk_mode, stokes_disk_mode])
def test_streamed_sample_shares_radii_across_blocks(family, monkeypatch):
    # blocks of two rows put the nodes (i, j) and (j, i) in different
    # blocks; the one radius table keeps them on one entry and the bits
    mode = family(5, 3)
    box = default_box(mode.h, 1.5)
    want = [one_shot_sample(mode, box, cutoff).tobytes() for cutoff in (None, tail_cutoff)]
    monkeypatch.setattr(quantize, "SAMPLE_NODES", 2 * box.n)
    tables = []
    radial_table = type(mode).radial_table
    monkeypatch.setattr(type(mode), "radial_table",
                        lambda self, rad: tables.append(rad) or radial_table(self, rad))
    got = [sample_mode_on_box(mode, box, cutoff).tobytes() for cutoff in (None, tail_cutoff)]
    assert got == want
    i, j = np.nonzero(disk_mask(box))
    assert len(tables) == 2
    assert np.array_equal(tables[0], np.unique(np.hypot(box.x[i], box.x[j])))


def test_sample_of_a_box_within_one_block(monkeypatch):
    mode = stokes_disk_mode(3, 2)
    box = default_box(mode.h, 1.5)
    assert box.n**2 <= quantize.SAMPLE_NODES
    calls = []
    angular_values = type(mode).angular_values
    monkeypatch.setattr(type(mode), "angular_values",
                        lambda self, *args: calls.append(1) or angular_values(self, *args))
    got = sample_mode_on_box(mode, box, tail_cutoff)
    assert len(calls) == 1
    assert got.tobytes() == one_shot_sample(mode, box, tail_cutoff).tobytes()


def spectral_tail_mass(fields, grid, h, R):
    """Fraction of L2 mass at lattice frequencies with |h k| > R.

    Oracle for h_oscillation_tail, which takes one spectrum per component
    for all radii instead of one per radius.
    """
    comps = np.asarray(fields)
    if comps.ndim == 2:
        comps = comps[None, :, :]
    speed = h * np.hypot(grid.K1, grid.K2)
    tail_mask = speed > R
    tot = 0.0
    tail = 0.0
    for u in comps:
        power = np.abs(np.fft.fft2(u)) ** 2
        tot += float(power.sum())
        tail += float(power[tail_mask].sum())
    if tot == 0.0:
        return 0.0
    return tail / tot


def test_spectral_tail_mass_decreases_in_radius():
    mode = laplace_disk_mode(4, 6)
    h = mode.h
    box = default_box(h, 8.5)
    comps = sample_mode_on_box(mode, box)
    tails = [spectral_tail_mass(comps, box, h, R) for R in (2.0, 4.0, 8.0)]
    assert tails[0] < 0.05
    assert tails[0] > tails[1] > tails[2]


def test_h_oscillation_tail_matches_per_radius_oracle():
    # the Stokes mode has two velocity components, so the sums over
    # components are checked too; the cutoff is the interior default
    fam = [laplace_disk_mode(0, 5), laplace_disk_mode(1, 3), laplace_disk_mode(4, 6),
           stokes_disk_mode(1, 2), stokes_disk_mode(3, 4, num_r=64, num_theta=30)]
    radii = (2.0, 4.0, 8.0)
    want = np.zeros((len(radii), len(fam)))
    for j, mode in enumerate(fam):
        box = default_box(mode.h, max(radii) + 0.5)
        comps = sample_mode_on_box(mode, box)
        comps *= 1.0 - plateau_step(np.hypot(box.X1, box.X2), 0.7, 0.9)
        for i, R in enumerate(radii):
            want[i, j] = spectral_tail_mass(comps, box, mode.h, R)
    assert np.array_equal(h_oscillation_tail(fam, radii), want)


def test_default_box_and_snap_frequency():
    h = 0.02
    grid = default_box(h, 2.0)
    assert h * (grid.kmax - 2.0 * grid.dk) >= 2.0
    snapped = snap_frequency(grid, h, (0.777, -1.234))
    assert np.max(np.abs(snapped - np.array([0.777, -1.234]))) <= 0.5 * h * grid.dk


def test_box_grid_keeps_axes_not_meshgrids():
    # four (n, n) meshgrids at n = 1028 held 33.8 MB; the axes are O(n)
    tracemalloc.start()
    try:
        box = BoxGrid(1028)
        held, _ = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert held < 1_000_000
    assert (box.X1 + box.X2).shape == (1028, 1028)
    assert np.array_equal(box.K1[:, 0], box.k) and np.array_equal(box.K2[0], box.k)


def test_pairing_refuses_a_pullback_it_cannot_place():
    # a pullback has no spatial factor for the margin check to read
    mode = laplace_disk_mode(1, 1)
    placed = SimpleNamespace(eval=lambda x1, x2, xi1, xi2: 0.0 * x1, xi_bound=1.0)
    with pytest.raises(TypeError, match="check=False"):
        pairing(placed, mode)
    assert pairing(placed, mode, check=False) == 0.0


# -- transported-symbol application (chirped convolution route) --------------


def trig_window(grid, reach=3):
    """Real trig polynomial on the box: exactly representable and shiftable."""
    dk = grid.dk

    def xf(x1, x2):
        return (
            0.9
            + 0.4 * np.cos(reach * dk * x1) * np.cos(dk * x2)
            + 0.25 * np.sin(2.0 * dk * x2)
        )

    return xf


def ring_speed(r):
    return window(r, 0.4, 0.6, 1.1, 1.3)


def ring_window(xi1, xi2):
    return ring_speed(np.hypot(xi1, xi2))


def lattice_field(grid, reach, seed):
    """Bandlimited field from random plane coefficients with |index| <= reach."""
    rng = np.random.default_rng(seed)
    kint = np.rint(grid.k / grid.dk).astype(int)
    sel = np.abs(kint) <= reach
    coeffs = np.zeros((grid.n, grid.n), dtype=complex)
    block = rng.standard_normal((sel.sum(), sel.sum())) + 1j * rng.standard_normal(
        (sel.sum(), sel.sum())
    )
    coeffs[np.ix_(sel, sel)] = block
    f = np.fft.ifft2(coeffs * np.exp(-1j * grid.half * (grid.K1 + grid.K2))) * grid.n**2
    return f, coeffs


def test_shifted_op_matches_direct_sum():
    from bicharlab.quantize import apply_shifted_op

    grid = BoxGrid(64)
    h, s = 0.05, 0.12
    xf = trig_window(grid)
    a = InteriorSymbol(xf, ring_speed, xi_bound=1.5)
    f, coeffs = lattice_field(grid, 4, seed=31)
    # support semantics are exercised elsewhere; this is the algebra check
    got = apply_shifted_op(a, s, f, h, grid, check=False)
    # independent dense route straight from the left-quantization sum,
    # evaluating the shifted window at each live lattice frequency
    live = np.argwhere(np.abs(coeffs) > 0)
    want = np.zeros((grid.n, grid.n), dtype=complex)
    for i, j in live:
        k1, k2 = grid.k[i], grid.k[j]
        c = coeffs[i, j] * ring_window(h * k1, h * k2)
        if c == 0.0:
            continue
        phase = np.exp(1j * (k1 * grid.X1 + k2 * grid.X2))
        want += c * xf(grid.X1 + 2 * s * h * k1, grid.X2 + 2 * s * h * k2) * phase
    scale = np.abs(want).max()
    assert np.abs(got - want).max() < 1e-10 * scale


def test_shifted_op_zero_shift_is_plain_quantization():
    from bicharlab.quantize import apply_shifted_op

    grid = BoxGrid(64)
    h = 0.06
    xf = trig_window(grid)
    a = InteriorSymbol(xf, ring_speed, xi_bound=1.5)
    f, _ = lattice_field(grid, 4, seed=5)
    got = apply_shifted_op(a, 0.0, f, h, grid, check=False)
    want = apply_interior_op(a, f, h, grid, check=False)
    assert np.abs(got - want).max() < 1e-10 * np.abs(want).max()


def test_shifted_op_margin_accounts_for_transport():
    from bicharlab.quantize import apply_shifted_op

    grid = BoxGrid(64)
    a = InteriorSymbol(spatial_plateau(0.25, 0.45), ring_speed, xi_bound=1.5)
    f, _ = lattice_field(grid, 4, seed=9)
    with pytest.raises(SupportMarginError, match="transported"):
        apply_shifted_op(a, 0.5, f, 0.05, grid)


def test_shifted_pairing_agrees_with_masked_route():
    from bicharlab.quantize import shifted_pairing

    md = laplace_disk_mode(6, 4)
    h, s = md.h, 0.1
    grid = default_box(h, 1.5)
    xf = trig_window(grid)
    a = InteriorSymbol(xf, ring_speed, xi_bound=1.5)
    # the free shift by its evaluator alone, paired on the dense path
    moved = SimpleNamespace(
        eval=lambda x1, x2, xi1, xi2: xf(x1 + 2 * s * xi1, x2 + 2 * s * xi2)
        * ring_window(xi1, xi2),
        xi_bound=1.5,
    )
    fast = 0.0 + 0.0j
    for u in sample_mode_on_box(md, grid):
        fast += grid.inner(apply_shifted_op(a, s, u, h, grid, check=False), u)
    dense = box_pairing(moved, md, grid, check=False)
    assert abs(fast - dense) < 1e-8 * max(1.0, abs(dense))



def same_bits(a, b) -> bool:
    a, b = np.ascontiguousarray(a), np.ascontiguousarray(b)
    return a.shape == b.shape and np.array_equal(a.view(np.uint64), b.view(np.uint64))


def double_lattice_unchirp_op(a, s, f, h, grid):
    """apply_shifted_op as it was, checks aside: the unchirp taken on the
    whole (2n)^2 double lattice and cut to the kept n^2 after the product,
    and the box-origin phase taken once per plane transform.  The oracle
    of the kept-lattice unchirp."""
    if s == 0.0:
        return apply_interior_op(a, f, h, grid, check=False)
    n = grid.n
    pos = _lattice_positions(n)
    k2 = grid.dk * np.fft.fftfreq(2 * n, 1.0 / (2 * n)).astype(int)
    unchirp2 = np.exp(1j * s * h * (k2[:, None] ** 2 + k2[None, :] ** 2))
    chirp = np.exp(-1j * s * h * (grid.K1**2 + grid.K2**2))
    spatial = np.broadcast_to(a.spatial(grid.X1, grid.X2), (n, n))
    P2 = np.zeros((2 * n, 2 * n), dtype=complex)
    Q2 = np.zeros_like(P2)
    sel = np.ix_(pos, pos)
    spatial_hat = _plane_coeffs(np.asarray(spatial, dtype=complex), grid, _origin_phase(grid))
    P2[sel] = spatial_hat * chirp
    Q2[sel] = _speed_on_lattice(a, h, grid, _plane_coeffs(f, grid, _origin_phase(grid)) * chirp)
    out2 = np.fft.fft2(np.fft.ifft2(P2) * np.fft.ifft2(Q2)) * (2 * n) ** 2
    return _synthesize((out2 * unchirp2)[sel], grid)


def per_call_pairings(a, s, mode):
    """The invariance loop as it was: `pairing`, then a second sample of the
    mode on the same default box for the shifted pairing."""
    before = pairing(a, mode)
    grid = default_box(mode.h, max(a.xi_bound, XI_FLOOR))
    after = 0.0 + 0.0j
    for u in sample_mode_on_box(mode, grid):
        after += grid.inner(double_lattice_unchirp_op(a, s, u, mode.h, grid), u)
    return before, complex(after)


# the symbol of the benchmark's invariance experiment
BUMP_SYMBOL = {
    "type": "interior",
    "xi_bound": 1.6,
    "factors": [
        {"var": "bump", "center": [0.25, 0.0], "radius": 0.2},
        {"var": "speed", "window": [0.6, 0.8, 1.2, 1.4]},
    ],
}

SHIFT_MODES = [
    laplace_disk_mode(0, 6),
    laplace_disk_mode(1, 4),
    laplace_disk_mode(5, 3, num_r=48, num_theta=40),
    stokes_disk_mode(1, 2),
    stokes_disk_mode(4, 2),
]


def full_padded_shifted_op(a, s, f, h, grid):
    """apply_shifted_op as it was, checks aside: the chirped coefficients
    zero-padded into (2n)^2 arrays, the full ifft2 of each and the full
    fft2 of their product, cut to the kept lattice.  The oracle of the
    pruned padded passes."""
    if s == 0.0:
        return apply_interior_op(a, f, h, grid, check=False)
    n = grid.n
    pos = _lattice_positions(n)
    kept = grid.dk * np.fft.fftfreq(2 * n, 1.0 / (2 * n)).astype(int)[pos]
    unchirp = np.exp(1j * s * h * (kept[:, None] ** 2 + kept[None, :] ** 2))
    chirp = np.exp(-1j * s * h * (grid.K1**2 + grid.K2**2))
    phase = _origin_phase(grid)
    spatial = np.broadcast_to(a.spatial(grid.X1, grid.X2), (n, n))
    P2 = np.zeros((2 * n, 2 * n), dtype=complex)
    Q2 = np.zeros_like(P2)
    sel = np.ix_(pos, pos)
    P2[sel] = _plane_coeffs(np.asarray(spatial, dtype=complex), grid, phase) * chirp
    Q2[sel] = _speed_on_lattice(a, h, grid, _plane_coeffs(f, grid, phase) * chirp)
    out2 = np.fft.fft2(np.fft.ifft2(P2) * np.fft.ifft2(Q2)) * (2 * n) ** 2
    return _synthesize(out2[sel] * unchirp, grid)


@pytest.mark.parametrize("n", [60, 88, 132, 204, 300])
def test_pruned_padded_passes_match_the_full_transforms(n):
    grid = BoxGrid(n)
    a = build_symbol(BUMP_SYMBOL)
    h = 2.0 * a.xi_bound / (grid.kmax - 2.0 * grid.dk)  # twice the least h the lattice takes
    rng = np.random.default_rng(n)
    f = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
    for s in (0.15, -0.1, 1e-3):
        got = apply_shifted_op(a, s, f, h, grid, check=False)
        assert got.tobytes() == full_padded_shifted_op(a, s, f, h, grid).tobytes()


@pytest.mark.parametrize("s", [math.nan, math.inf, -math.inf])
def test_shifted_op_refuses_a_non_finite_time(s):
    grid = BoxGrid(64)
    a = InteriorSymbol(spatial_plateau(0.25, 0.45), ring_speed, xi_bound=1.5)
    f, _ = lattice_field(grid, 4, seed=3)
    for check in (True, False):
        with pytest.raises(ValueError, match="finite s"):
            apply_shifted_op(a, s, f, 0.05, grid, check=check)
    mode = laplace_disk_mode(0, 6)
    with pytest.raises(ValueError, match="finite s"):
        shifted_pairing(build_symbol(BUMP_SYMBOL), s, mode)
    with pytest.raises(ValueError, match="finite s"):
        invariance_gap([mode], build_symbol(BUMP_SYMBOL), s)


def test_each_interior_operator_reads_the_spatial_factor_once():
    # the margin check and the product or plane coefficients share one read
    grid = BoxGrid(64)
    plateau = spatial_plateau(0.25, 0.45)
    reads = []
    a = InteriorSymbol(lambda x1, x2: reads.append(1) or plateau(x1, x2), ring_speed,
                       xi_bound=1.5)
    f, _ = lattice_field(grid, 4, seed=7)

    def shifted(a, f, h, grid, check):
        return apply_shifted_op(a, 0.05, f, h, grid, check=check)

    for apply in (apply_interior_op, shifted):
        for check in (True, False):
            reads.clear()
            apply(a, f, 0.05, grid, check=check)
            assert len(reads) == 1
    with pytest.raises(SupportMarginError, match="transported"):
        apply_shifted_op(a, 0.5, f, 0.05, grid)
    assert len(reads) == 2


@pytest.mark.parametrize("mode", SHIFT_MODES, ids=lambda md: f"{md.kind}-{md.m}-{md.k}")
@pytest.mark.parametrize("s", [0.1, -0.07, 0.0])
def test_kept_lattice_unchirp_matches_double_lattice_oracle(mode, s):
    a = build_symbol(BUMP_SYMBOL)
    grid = default_box(mode.h, 1.6)
    for u in sample_mode_on_box(mode, grid):
        got = apply_shifted_op(a, s, u, mode.h, grid)
        assert same_bits(got, double_lattice_unchirp_op(a, s, u, mode.h, grid))


@pytest.mark.parametrize("s", [0.12, -0.12, 1e-3])
def test_kept_lattice_unchirp_on_a_lattice_field(s):
    grid = BoxGrid(64)
    a = InteriorSymbol(trig_window(grid), ring_speed, xi_bound=1.5)
    f, _ = lattice_field(grid, 4, seed=17)
    got = apply_shifted_op(a, s, f, 0.05, grid, check=False)
    assert same_bits(got, double_lattice_unchirp_op(a, s, f, 0.05, grid))


@pytest.mark.parametrize("mode", SHIFT_MODES, ids=lambda md: f"{md.kind}-{md.m}-{md.k}")
def test_shifted_pairing_takes_both_times_on_one_sample(mode, monkeypatch):
    a = build_symbol(BUMP_SYMBOL)
    for s in (0.1, -0.07):
        want = per_call_pairings(a, s, mode)
        samples = []
        sample = quantize.sample_mode_on_box
        monkeypatch.setattr(quantize, "sample_mode_on_box",
                            lambda *args: samples.append(1) or sample(*args))
        got = shifted_pairing(a, s, mode)
        monkeypatch.undo()
        assert got == want and len(samples) == 1


def test_invariance_rows_match_the_per_call_loop():
    a = build_symbol(BUMP_SYMBOL)
    fam = [laplace_disk_mode(0, k) for k in (10, 16, 25)]
    for modes, s in ((fam, 0.15), (fam, -0.1), (SHIFT_MODES[3:], 0.1)):
        rep = invariance_gap(modes, a, s)
        for row, mode in zip(rep.rows, modes):
            before, after = per_call_pairings(a, s, mode)
            assert (row.h, row.before, row.after, row.gap) == (
                float(mode.h), float(before.real), float(after.real), float(abs(after - before)))


@pytest.mark.parametrize("mode", [laplace_disk_mode(0, 9), laplace_disk_mode(1, 5),
                                  stokes_disk_mode(3, 4)], ids=["laplace-0", "laplace-1", "stokes-3"])
def test_cutoff_sample_matches_the_full_box_cut(mode):
    # the cutoff vanishes for |x| >= 0.9, so only the nodes inside are
    # evaluated; the full-box product gives the same bits there and a
    # zero of either sign everywhere else
    cut = lambda t: 1.0 - plateau_step(t, 0.7, 0.9)
    box = default_box(mode.h, 4.5)
    got = sample_mode_on_box(mode, box, cut)
    full = sample_mode_on_box(mode, box)
    full *= cut(np.hypot(box.X1, box.X2))
    live = cut(np.hypot(box.X1, box.X2)) != 0.0
    assert live.any() and not live[~disk_mask(box)].any()
    assert same_bits(got[:, live], full[:, live])
    assert np.array_equal(got, full)
    assert not np.signbit(np.ascontiguousarray(got[:, ~live]).view(float)).any()
