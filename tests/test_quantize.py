"""Quantization layer: operator identities on windowed fields, agreement
of the FFT path with the direct lattice sum, pairing quadratures against
independent integrals, family extrapolation, and phase-space densities."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from bicharlab.bumps import bump_profile, plateau_step, window
from bicharlab.config import build_symbol
from bicharlab.modes import bessel_zero, laplace_disk_mode, stokes_disk_mode
from bicharlab.polar import PolarGrid
from bicharlab.quantize import (
    BandlimitError,
    BoxGrid,
    InteriorSymbol,
    SeparableTerm,
    SupportMarginError,
    TangentialSymbol,
    apply_interior_op,
    apply_tangential_op,
    default_box,
    husimi_grid,
    measure_sequence,
    pairing,
    sample_mode_on_box,
)
from bicharlab.verify import h_oscillation_tail


def spatial_plateau(r_on, r_off):
    return lambda x1, x2: 1.0 - plateau_step(np.hypot(x1, x2), r_on, r_off)


def ones_xi(xi1, xi2):
    return np.ones(np.broadcast(np.asarray(xi1), np.asarray(xi2)).shape)


def snap_frequency(grid, h, xi):
    """Componentwise nearest point of the h-scaled frequency lattice."""
    lattice = h * grid.k
    return np.array([lattice[np.argmin(np.abs(lattice - v))] for v in xi])


def packet(grid, x0, xi0, h, width=0.35):
    """Normalized bump-windowed plane wave, frequency snapped to the lattice."""
    xi = snap_frequency(grid, h, xi0)
    env = bump_profile(np.hypot(grid.X1 - x0[0], grid.X2 - x0[1]) / width)
    f = env * np.exp(1j * (grid.X1 * xi[0] + grid.X2 * xi[1]) / h)
    return f / grid.norm(f), xi


def test_identity_and_multiplication_symbols():
    grid = BoxGrid(64)
    h = 0.05
    f, _ = packet(grid, (0.1, -0.2), (0.8, 0.3), h)
    ident = InteriorSymbol(
        terms=[SeparableTerm(spatial_plateau(0.7, 0.85), ones_xi)], xi_bound=0.0
    )
    out = apply_interior_op(ident, f, h, grid)
    assert np.max(np.abs(out - f)) < 1e-12

    def xfac(x1, x2):
        return bump_profile(np.hypot(x1 - 0.1, x2 + 0.2) / 0.7)

    mult = InteriorSymbol(terms=[SeparableTerm(xfac, ones_xi)], xi_bound=0.0)
    out = apply_interior_op(mult, f, h, grid)
    assert np.max(np.abs(out - xfac(grid.X1, grid.X2) * f)) < 1e-12


def test_first_order_symbol_oscillatory_and_quadrature_oracle():
    grid = BoxGrid(96)
    chi = spatial_plateau(0.7, 0.85)
    sym = InteriorSymbol(
        terms=[SeparableTerm(chi, lambda xi1, xi2: xi1 + 0.0 * xi2)], xi_bound=1.5
    )
    errs = []
    for h in (0.05, 0.025):
        f, xi = packet(grid, (0.0, 0.1), (0.9, -0.4), h)
        out = apply_interior_op(sym, f, h, grid)
        errs.append(grid.norm(out - xi[0] * f))
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
    val = np.sum(chi(x1s, x2s) * (h * grid.K1) * coef * phases)
    assert abs(val - out[i0, j0]) < 1e-9


def evaluator_twin(sym):
    """The same separable symbol given by its evaluator alone: the masked path."""
    return InteriorSymbol(
        evaluator=sym.eval,
        xi_bound=sym.xi_bound,
        x_envelope=lambda x1, x2: sum(np.abs(t.x_factor(x1, x2)) for t in sym.terms),
    )


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
    assert a.terms is not None
    mode = laplace_disk_mode(3, 2)
    grid = BoxGrid(64)
    fast = pairing(a, mode, grid=grid)
    assert abs(fast) > 1e-3
    assert abs(fast - pairing(evaluator_twin(a), mode, grid=grid)) < 1e-12


def test_masked_path_matches_fast_path():
    grid = BoxGrid(48)
    h = 0.1
    terms = [
        SeparableTerm(
            spatial_plateau(0.55, 0.7),
            lambda xi1, xi2: window(np.hypot(xi1, xi2), 0.2, 0.4, 1.2, 1.5),
        ),
        SeparableTerm(
            lambda x1, x2: 0.4 * bump_profile(np.hypot(x1 + 0.2, x2) / 0.45),
            lambda xi1, xi2: plateau_step(xi1 + 0.0 * xi2, -0.5, 0.5),
        ),
    ]
    sym = InteriorSymbol(terms=terms, xi_bound=1.6)
    f, _ = packet(grid, (-0.1, 0.05), (0.6, 0.2), h, width=0.3)
    twin = evaluator_twin(sym)
    fast = apply_interior_op(sym, f, h, grid)
    masked = apply_interior_op(twin, f, h, grid)
    assert np.max(np.abs(fast - masked)) < 1e-10

    mode = laplace_disk_mode(1, 1)
    v_fast = pairing(sym, mode, grid=grid)
    v_masked = pairing(twin, mode, grid=grid)
    assert abs(v_fast - v_masked) < 1e-10


def test_margin_bandlimit_and_construction_refusals():
    grid = BoxGrid(64)
    wide = InteriorSymbol(
        terms=[SeparableTerm(spatial_plateau(0.95, 0.99), ones_xi)], xi_bound=0.0
    )
    with pytest.raises(SupportMarginError):
        apply_interior_op(wide, np.zeros((64, 64)), 0.05, grid)

    hungry = InteriorSymbol(
        terms=[SeparableTerm(spatial_plateau(0.5, 0.6), ones_xi)], xi_bound=3.0
    )
    with pytest.raises(BandlimitError):
        apply_interior_op(hungry, np.zeros((64, 64)), 0.01, grid)

    with pytest.raises(ValueError):
        InteriorSymbol(evaluator=lambda a, b, c, d: 0.0 * a, xi_bound=1.0)
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
    assert np.max(np.abs(out - psi(1.0 - g.R) * f)) < 1e-12

    def chi(s):
        return window(np.abs(s), 0.05, 0.1, 0.5, 0.6)

    diag = TangentialSymbol(lambda y, xip: psi(y) * chi(xip), y_support=0.31)
    out = apply_tangential_op(diag, f, h, g)
    expect = psi(1.0 - g.R) * chi(h * m) * f
    assert np.max(np.abs(out - expect)) < 1e-12

    full = TangentialSymbol(
        lambda y, xip: psi(y) * chi(xip),
        angular=lambda th: 1.0 + 0.3 * np.cos(th),
        y_support=0.31,
    )
    out = apply_tangential_op(full, f, h, g)
    expect = psi(1.0 - g.R) * (1.0 + 0.3 * np.cos(g.T)) * chi(h * m) * f
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
    interior = InteriorSymbol(
        terms=[SeparableTerm(spatial_plateau(0.8, 0.9), ones_xi)], xi_bound=0.0
    )
    collar = TangentialSymbol(
        lambda y, xip: plateau_step(1.0 - y, 0.8, 0.9) + 0.0 * xip, y_support=0.21
    )
    # default radial grids under-resolve the Gevrey ramp of the cutoffs,
    # so the quadrature side of this identity needs more radial nodes
    for mode in (
        laplace_disk_mode(3, 4, num_r=128),
        stokes_disk_mode(2, 3, num_r=128),
    ):
        total = pairing(interior, mode, grid=grid) + pairing(collar, mode)
        assert abs(total - 1.0) < 1e-6


def test_pairing_multiplication_matches_polar_quadrature():
    mode = laplace_disk_mode(0, 1, num_r=128)
    grid = BoxGrid(128)
    sym = InteriorSymbol(
        terms=[SeparableTerm(lambda x1, x2: bump_profile(np.hypot(x1, x2) / 0.6), ones_xi)],
        xi_bound=0.0,
    )
    val = pairing(sym, mode, grid=grid)
    g = mode.grid
    ref = g.integrate(bump_profile(g.R / 0.6) * np.abs(mode.velocity[0]) ** 2).real
    assert abs(val - ref) < 1e-6


def test_elliptic_frequency_symbol_decays_along_family():
    # wide Gevrey ramps and a fat margin from the rim keep the window
    # kernel's subexponential leakage below the h-linear boundary term
    modes = [laplace_disk_mode(2, k) for k in (4, 8, 16, 32)]
    sym = InteriorSymbol(
        terms=[
            SeparableTerm(
                spatial_plateau(0.6, 0.7),
                lambda xi1, xi2: window(np.hypot(xi1, xi2), 1.2, 1.5, 1.9, 2.2),
            )
        ],
        xi_bound=2.2,
    )
    series = measure_sequence(sym, modes, grid=BoxGrid(224))
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


def test_measure_sequence_angular_multiplier_concentration():
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

    series = measure_sequence(chi_on, family, pairing_fn=angular_multiplier_pairing)
    assert np.max(np.abs(series.values - 1.0)) < 1e-9
    assert abs(series.limit - 1.0) < 1e-9

    def chi_off(s):
        return window(np.abs(s), 0.76, 0.8, 0.9, 0.94)

    series = measure_sequence(chi_off, family, pairing_fn=angular_multiplier_pairing)
    assert np.max(np.abs(series.values)) < 1e-12

    short = measure_sequence(chi_on, family[:2], pairing_fn=angular_multiplier_pairing)
    assert short.limit is None and not short.extrapolated
    with pytest.raises(ValueError):
        measure_sequence(chi_on, family[::-1], pairing_fn=angular_multiplier_pairing)


def test_pairing_linearity_in_the_symbol():
    grid = BoxGrid(48)
    mode = laplace_disk_mode(1, 1)
    term_a = SeparableTerm(
        spatial_plateau(0.5, 0.65),
        lambda xi1, xi2: window(np.hypot(xi1, xi2), 0.1, 0.3, 1.2, 1.4),
    )
    term_b = SeparableTerm(
        lambda x1, x2: bump_profile(np.hypot(x1, x2 - 0.1) / 0.5),
        lambda xi1, xi2: plateau_step(xi2 + 0.0 * xi1, -0.8, 0.8),
    )
    va = pairing(InteriorSymbol(terms=[term_a], xi_bound=1.5), mode, grid=grid)
    vb = pairing(InteriorSymbol(terms=[term_b], xi_bound=1.5), mode, grid=grid)
    vab = pairing(InteriorSymbol(terms=[term_a, term_b], xi_bound=1.5), mode, grid=grid)
    assert abs(vab - (va + vb)) < 1e-12


def test_real_symbol_pairing_imaginary_part_and_positivity():
    def evaluator(x1, x2, xi1, xi2):
        spatial = 1.0 - plateau_step(np.hypot(x1, x2), 0.7, 0.8)
        return spatial * window(x1 * xi2 - x2 * xi1, -0.2, -0.1, 0.35, 0.45)

    sym = InteriorSymbol(
        evaluator=evaluator,
        xi_bound=1.5,
        x_envelope=lambda x1, x2: 1.0 - plateau_step(np.hypot(x1, x2), 0.7, 0.8),
    )
    modes = [laplace_disk_mode(5, k) for k in (2, 4, 8)]
    vals = [pairing(sym, m) for m in modes]
    for v, m in zip(vals, modes):
        assert abs(v.imag) < 0.5 * m.h
        # nonnegative symbol: sharp-Garding-size negative part at most
        assert v.real > -3.0 * m.h
    assert abs(vals[-1].imag) < abs(vals[0].imag) + 0.05 * modes[-1].h


def test_husimi_plane_wave_peak_and_mass():
    h = 0.04
    box = BoxGrid(96)
    f, xi = packet(box, (0.2, -0.1), (0.7, -0.3), h, width=0.4)
    hg = husimi_grid(f, h, box=box, nx=21, nxi=21, x_max=1.0, xi_max=1.4)
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
    """The nx^2 full-FFT loop that husimi_grid replaced: the oracle."""
    lattice = h * box.k
    targets = np.linspace(-xi_max, xi_max, nxi)
    idx = np.unique([int(np.argmin(np.abs(lattice - t))) for t in targets])
    idx = idx[np.argsort(lattice[idx])]
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


def assert_husimi_matches_loop(source, h, box, comps, nx, nxi, x_max=1.25, xi_max=1.6):
    hg = husimi_grid(source, h, box=box, nx=nx, nxi=nxi, x_max=x_max, xi_max=xi_max)
    ref = loop_husimi_density(comps, h, box, nx, nxi, x_max, xi_max)
    assert hg.density.shape == ref.shape
    assert np.max(np.abs(hg.density - ref)) <= 1e-13 * ref.max()
    return hg


def test_husimi_matches_fft_loop_on_raw_fields():
    h = 0.05
    box = BoxGrid(64)
    f, _ = packet(box, (0.2, -0.1), (0.7, -0.3), h, width=0.4)
    g, _ = packet(box, (-0.3, 0.25), (-0.5, 0.9), h, width=0.3)
    assert_husimi_matches_loop(f, h, box, f[None], nx=12, nxi=13)  # single field
    assert_husimi_matches_loop(np.stack([f, g]), h, box, [f, g], nx=10, nxi=11)
    assert_husimi_matches_loop(g, h, box, g[None], nx=11, nxi=9)  # odd nx


def test_husimi_matches_fft_loop_when_xi_targets_collapse():
    # lattice step h dk ~ 0.21 exceeds the target step 3.2 / 24, so
    # np.unique merges targets and the xi axis is shorter than nxi
    h = 0.1
    box = BoxGrid(32)
    f, _ = packet(box, (0.1, 0.2), (0.6, 0.4), h, width=0.5)
    hg = assert_husimi_matches_loop(f, h, box, f[None], nx=8, nxi=25)
    assert 2 <= len(hg.xi_axis) < 25


def test_husimi_matches_fft_loop_on_stokes_mode():
    mode = stokes_disk_mode(16, 3)
    box = default_box(mode.h, 2.6)
    comps = sample_mode_on_box(mode, box)
    assert_husimi_matches_loop(mode, mode.h, box, comps, nx=24, nxi=25)


@pytest.mark.parametrize("mode", [stokes_disk_mode(7, 2), laplace_disk_mode(3, 4)])
def test_sample_mode_on_box_is_the_full_box_closed_form_on_the_disk(mode):
    box = default_box(mode.h, 2.6)
    comps = sample_mode_on_box(mode, box)
    full = np.moveaxis(mode.eval_velocity(np.stack([box.X1, box.X2], axis=-1)), -1, 0)
    inside = box.disk_mask()
    assert comps.shape == full.shape and comps.dtype == complex
    bits = [np.ascontiguousarray(c[:, inside]).view(np.uint64) for c in (comps, full)]
    assert np.array_equal(*bits)
    outside = np.ascontiguousarray(comps[:, ~inside]).view(float)
    assert np.all(outside == 0.0) and not np.signbit(outside).any()


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
    fam = [laplace_disk_mode(4, 6), stokes_disk_mode(3, 4)]
    radii = (2.0, 4.0, 8.0)
    want = np.zeros((len(radii), len(fam)))
    for j, mode in enumerate(fam):
        box = default_box(mode.h, max(radii) + 0.5)
        comps = sample_mode_on_box(mode, box)
        comps *= 1.0 - plateau_step(np.hypot(box.X1, box.X2), 0.7, 0.9)
        for i, R in enumerate(radii):
            want[i, j] = spectral_tail_mass(comps, box, mode.h, R)
    assert np.array_equal(h_oscillation_tail(fam, radii), want)
    assert np.array_equal(h_oscillation_tail(fam, 8.0), want[2])


def test_default_box_and_snap_frequency():
    h = 0.02
    grid = default_box(h, 2.0)
    assert h * (grid.kmax - 2.0 * grid.dk) >= 2.0
    snapped = snap_frequency(grid, h, (0.777, -1.234))
    assert np.max(np.abs(snapped - np.array([0.777, -1.234]))) <= 0.5 * h * grid.dk


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


def ring_window(xi1, xi2):
    return window(np.hypot(xi1, xi2), 0.4, 0.6, 1.1, 1.3)


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
    a = InteriorSymbol(terms=[SeparableTerm(xf, ring_window)], xi_bound=1.5)
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
    a = InteriorSymbol(terms=[SeparableTerm(xf, ring_window)], xi_bound=1.5)
    f, _ = lattice_field(grid, 4, seed=5)
    got = apply_shifted_op(a, 0.0, f, h, grid, check=False)
    want = apply_interior_op(a, f, h, grid, check=False)
    assert np.abs(got - want).max() < 1e-10 * np.abs(want).max()


def test_shifted_op_margin_accounts_for_transport():
    from bicharlab.quantize import apply_shifted_op

    grid = BoxGrid(64)
    a = InteriorSymbol(
        terms=[SeparableTerm(spatial_plateau(0.25, 0.45), ring_window)],
        xi_bound=1.5,
    )
    f, _ = lattice_field(grid, 4, seed=9)
    with pytest.raises(SupportMarginError, match="transported"):
        apply_shifted_op(a, 0.5, f, 0.05, grid)


def test_shifted_pairing_agrees_with_masked_route():
    from bicharlab.quantize import shifted_pairing

    md = laplace_disk_mode(6, 4)
    h, s = md.h, 0.1
    grid = default_box(h, 1.5)
    xf = trig_window(grid)
    a = InteriorSymbol(terms=[SeparableTerm(xf, ring_window)], xi_bound=1.5)
    moved = InteriorSymbol(
        evaluator=lambda x1, x2, xi1, xi2: xf(x1 + 2 * s * xi1, x2 + 2 * s * xi2)
        * ring_window(xi1, xi2),
        xi_bound=1.5,
        x_envelope=lambda x1, x2: np.ones(np.broadcast(x1, x2).shape),
    )
    fast = shifted_pairing(a, s, md, grid=grid, check=False)
    dense = pairing(moved, md, grid=grid, check=False)
    assert abs(fast - dense) < 1e-8 * max(1.0, abs(dense))

