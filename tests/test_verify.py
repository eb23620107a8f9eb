import functools
import json
import tracemalloc

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from bicharlab import billiard, config, modes, quantize, verify
from bicharlab.bumps import bump_profile, plateau_step, window
from bicharlab.charts import AnnulusChart, DiskChart
from bicharlab.io import write_json
from bicharlab.quantize import InteriorSymbol, TangentialSymbol
from bicharlab.verify import ModeRow, PropagationReport, Thresholds

CHART = DiskChart()


def ring_speed(r):
    return window(r, 0.5, 0.7, 1.3, 1.5)


def ring_window(s1, s2):
    return ring_speed(np.hypot(s1, s2))


def conserved_momentum(ell):
    return window(ell, 0.1, 0.2, 0.35, 0.45)


def conserved_eval(x1, x2, xi1, xi2):
    return ring_window(xi1, xi2) * conserved_momentum(x1 * xi2 - x2 * xi1)


def unit(x1, x2):
    """The spatial factor 1, broadcast over x."""
    return np.ones(np.broadcast_shapes(np.shape(x1), np.shape(x2)))


def fiber_symbol(speed=None, momentum=None):
    """An InteriorSymbol with spatial factor 1: a function of the fiber only."""
    return InteriorSymbol(unit, speed, momentum, xi_bound=1.5)


def closed_disk(x1, x2):
    return np.where(np.hypot(x1, x2) <= 1.0, 1.0, 0.0)


def conserved_symbol():
    return InteriorSymbol(
        closed_disk, ring_speed, conserved_momentum, xi_bound=1.5, name="conserved window"
    )


def offcenter_bump(xi_bound=1.4):
    return InteriorSymbol(
        lambda x1, x2: bump_profile(np.hypot(x1 - 0.25, x2) / 0.2),
        lambda r: window(r, 0.6, 0.8, 1.2, 1.4),
        xi_bound=xi_bound,
        name="off-center bump",
    )


def disk_cloud(rng, num, r_max=0.97, speed=(0.3, 1.5)):
    rr = r_max * np.sqrt(rng.uniform(0.0, 1.0, num))
    aa = rng.uniform(0.0, 2.0 * np.pi, num)
    sp = rng.uniform(*speed, num)
    bb = rng.uniform(0.0, 2.0 * np.pi, num)
    return rr * np.cos(aa), rr * np.sin(aa), sp * np.cos(bb), sp * np.sin(bb)


# -- transport ----------------------------------------------------------


def test_transport_identity_at_zero_time():
    a = offcenter_bump()
    tau = verify.TransportedSymbol(a, 0.0)
    x1, x2, s1, s2 = disk_cloud(np.random.default_rng(0), 300)
    got = tau.eval(x1, x2, s1, s2)
    want = np.real(a.eval(x1, x2, s1, s2))
    assert np.max(np.abs(got - want)) == 0.0
    assert tau.unresolved == 0


def test_transport_recenters_free_bump():
    s = 0.1
    a = InteriorSymbol(
        lambda x1, x2: bump_profile(np.hypot(x1, x2) / 0.3),
        ring_speed,
        xi_bound=1.5,
        name="centered bump",
    )
    tau = verify.TransportedSymbol(a, s)
    x1, x2, s1, s2 = disk_cloud(np.random.default_rng(1), 300, r_max=0.3)
    want = bump_profile(np.hypot(x1 + 2 * s * s1, x2 + 2 * s * s2) / 0.3)
    want = want * ring_window(s1, s2)
    got = tau.eval(x1, x2, s1, s2)
    assert np.max(np.abs(got - want)) < 1e-13


def test_transport_conserved_quantities_invariant():
    # speed and angular momentum survive every reflection, so a window in
    # those variables is a fixed point of the pullback for any time
    tau = verify.TransportedSymbol(fiber_symbol(ring_speed, conserved_momentum), 3.7)
    x1, x2, s1, s2 = disk_cloud(np.random.default_rng(2), 400)
    dev = np.abs(tau.eval(x1, x2, s1, s2) - conserved_eval(x1, x2, s1, s2))
    assert np.max(dev) < 1e-12
    assert tau.unresolved == 0


def test_transport_round_trip_inverts():
    a = offcenter_bump()
    tau1 = verify.TransportedSymbol(a, 0.9)
    tau2 = verify.TransportedSymbol(tau1, -0.9)
    x1, x2, s1, s2 = disk_cloud(np.random.default_rng(3), 300)
    dev = np.abs(tau2.eval(x1, x2, s1, s2) - np.real(a.eval(x1, x2, s1, s2)))
    assert np.max(dev) < 1e-12
    assert tau1.unresolved + tau2.unresolved == 0


def test_transport_zero_outside_disk_and_static_nodes():
    tau = verify.TransportedSymbol(fiber_symbol(), 0.5)
    assert tau.eval(1.2, 0.0, 1.0, 0.0) == 0.0
    assert tau.eval(0.3, 0.0, 0.0, 0.0) == 1.0


def test_transport_marks_doubtful_tangential_contacts():
    tau = verify.TransportedSymbol(fiber_symbol(ring_speed), 0.5)
    val = tau.eval(np.array([1.0]), np.array([0.0]), np.array([0.0]), np.array([0.8]))
    assert val[0] == 0.0
    assert tau.unresolved == 1

    spatial = verify.TransportedSymbol(
        InteriorSymbol(lambda x1, x2: window(np.hypot(x1, x2), 0.2, 0.3, 0.5, 0.6), xi_bound=1.5),
        0.5,
    )
    val = spatial.eval(np.array([1.0]), np.array([0.0]), np.array([0.0]), np.array([0.8]))
    assert val[0] == 0.0
    assert spatial.unresolved == 0


def test_transport_refuses_non_finite_input():
    tau = verify.TransportedSymbol(fiber_symbol(), 0.5)
    with pytest.raises(ValueError, match="finite"):
        tau.eval(np.nan, 0.0, 1.0, 0.0)
    with pytest.raises(ValueError, match="finite"):
        tau.eval(0.3, 0.0, np.nan, 0.0)
    # refused before pruning: the speed window is 0 at |xi| = inf
    ring = verify.TransportedSymbol(config.build_symbol(REFLECT_SYMBOL), 0.5)
    assert ring.invariant is not None
    with pytest.raises(ValueError, match="finite"):
        ring.eval(np.array([0.3, 0.3]), 0.0, np.array([np.inf, 0.9]), 0.0)


# -- pruning by the flow invariants -------------------------------------

# the criterion-11 symbol, run by the `reflect` and `bounce` benchmarks
REFLECT_SYMBOL = {
    "type": "interior",
    "xi_bound": 1.5,
    "factors": [
        {"var": "radius", "window": [0.45, 0.55, 0.97, 1.02]},
        {"var": "speed", "window": [0.75, 0.85, 1.15, 1.25]},
        {"var": "angular_momentum", "window": [0.3, 0.4, 0.6, 0.7]},
    ],
    "arc": {"center": 0.0, "inner": 0.35, "outer": 0.6},
}


def unpruned_eval(tau, x1, x2, xi1, xi2):
    """TransportedSymbol.eval before pruning: every live disk point is flown."""
    X1, X2, S1, S2 = np.broadcast_arrays(
        *(np.asarray(v, dtype=float) for v in (x1, x2, xi1, xi2))
    )
    shape = X1.shape
    px = np.stack([X1.ravel(), X2.ravel()], axis=-1)
    pxi = np.stack([S1.ravel(), S2.ravel()], axis=-1)
    out = np.zeros(px.shape[0], dtype=float)
    inside = np.hypot(px[:, 0], px[:, 1]) <= 1.0 + 1e-12
    live = inside & (np.hypot(pxi[:, 0], pxi[:, 1]) > verify.DEAD_SPEED)
    stuck = np.zeros_like(inside)
    if live.any():
        px[live], pxi[live], _, stuck[live] = billiard.propagate(
            px[live], pxi[live], tau.s, pinned="mark"
        )
    if stuck.any():
        tau.unresolved += int(np.sum(tau._doubtful(px[stuck], pxi[stuck])))
    keep = inside & ~stuck
    if keep.any():
        out[keep] = np.real(
            tau._base(px[keep, 0], px[keep, 1], pxi[keep, 0], pxi[keep, 1])
        )
    return out.reshape(shape)


def assert_pruning_exact(a, s, *points):
    tau, ref = verify.TransportedSymbol(a, s), verify.TransportedSymbol(a, s)
    got = tau.eval(*points)
    want = unpruned_eval(ref, *points)
    assert got.shape == want.shape
    assert np.array_equal(got, want)
    assert tau.unresolved == ref.unresolved


@st.composite
def _edges(draw, lo, width):
    # ramps of at least 1e-6: a window is exactly 0 within 1/745 of a ramp
    # of its outer edges (exp underflows), far beyond the 1e-12 relative
    # drift of |xi| and x wedge xi under `propagate`; a ramp narrower than
    # that drift has no transported value to agree on
    a = draw(st.floats(lo, lo + width))
    ramp = st.floats(1e-6, 0.3)
    b = a + draw(ramp)
    c = b + draw(st.floats(0.0, 0.5))
    return [a, b, c, c + draw(ramp)]


@st.composite
def symbol_specs(draw):
    factors = []
    if draw(st.booleans()):
        var = draw(st.sampled_from(["speed", "speed_sq"]))
        factors.append({"var": var, "window": draw(_edges(0.0, 1.0))})
    if draw(st.booleans()):
        factors.append({"var": "angular_momentum", "window": draw(_edges(-0.9, 1.0))})
    if draw(st.booleans()) or not factors:
        factors.append({"var": "radius", "window": draw(_edges(-0.5, 1.2))})
    spec = {"type": "interior", "xi_bound": 2.0, "factors": factors}
    if draw(st.booleans()):
        spec["arc"] = {"center": draw(st.floats(-3.0, 3.0)), "inner": 0.4, "outer": 0.9}
    return spec


# relative nudges off a window edge, from inside rounding to well clear
NUDGES = np.array([0.0, 1e-15, -1e-15, 1e-9, -1e-9, 1e-3, -1e-3])


def edge_points(spec, rng, num=96):
    """Phase points on and near the edges of the spec's windows.

    About a quarter of the points take a speed at a speed-window edge,
    a quarter an angular momentum at an angular-momentum edge, an eighth
    sit on the rim with a tangent covector (pinned contacts) and a few
    have xi = 0 or x outside the disk.
    """
    speeds, ells = [], []
    for f in spec["factors"]:
        if f["var"] == "speed":
            speeds += f["window"]
        elif f["var"] == "speed_sq":
            speeds += [np.sqrt(max(w, 0.0)) for w in f["window"]]
        elif f["var"] == "angular_momentum":
            ells += f["window"]
    r = np.sqrt(rng.uniform(0.0, 1.0, num)) * 1.05
    phi = rng.uniform(0.0, 2.0 * np.pi, num)
    rho = rng.uniform(0.0, 1.8, num)
    beta = phi + rng.uniform(0.0, 2.0 * np.pi, num)
    quarter = num // 4
    if speeds:
        rho[:quarter] = rng.choice(speeds, quarter) * (1.0 + rng.choice(NUDGES, quarter))
    if ells:
        sl = slice(quarter, 2 * quarter)
        r[sl] = np.minimum(r[sl], 1.0)
        ell = rng.choice(ells, quarter) * (1.0 + rng.choice(NUDGES, quarter))
        rho[sl] = np.maximum(rho[sl], np.abs(ell) / np.maximum(r[sl], 1e-3) + 1e-3)
        beta[sl] = phi[sl] + np.arcsin(ell / (r[sl] * rho[sl]))
    rim = slice(2 * quarter, 2 * quarter + num // 8)
    r[rim] = 1.0
    beta[rim] = phi[rim] + rng.choice([-0.5, 0.5], num // 8) * np.pi
    rho[-3:] = 0.0
    return r * np.cos(phi), r * np.sin(phi), rho * np.cos(beta), rho * np.sin(beta)


@settings(derandomize=True, database=None, deadline=None, max_examples=40)
@given(symbol_specs(), st.floats(-3.0, 3.0), st.integers(0, 2**32 - 1), st.booleans())
def test_property_pruned_transport_matches_unpruned(spec, s, seed, nested):
    a = config.build_symbol(spec)
    if nested:
        a = verify.TransportedSymbol(a, 0.3)
    rng = np.random.default_rng(seed)
    x1, x2, s1, s2 = edge_points(spec, rng)
    assert_pruning_exact(a, s, x1, x2, s1, s2)  # 1-D
    if nested:
        return  # each pinned node of the outer pullback runs 32 inner ones
    for i in (0, 30, 50, 95):  # scalars
        point = (float(v[i]) for v in (x1, x2, s1, s2))
        assert_pruning_exact(a, s, *point)
    # broadcast 4-D phase grid with rim nodes, the origin and window edges
    xs = np.array([-1.05, -1.0, -0.45, 0.0, 0.3, 1.0, 1.05])
    xis = np.unique(np.concatenate([[0.0, 0.6, 1.0], rng.choice(np.abs(s1), 3)]))
    xis = np.concatenate([-xis[::-1], xis])
    grid = (
        xs[:, None, None, None],
        xs[None, :, None, None],
        xis[None, None, :, None],
        xis[None, None, None, :],
    )
    assert_pruning_exact(a, s, *grid)


@settings(derandomize=True, database=None, deadline=None, max_examples=60)
@given(symbol_specs(), st.integers(0, 2**32 - 1))
def test_property_invariant_is_a_factor_of_the_symbol(spec, seed):
    a = config.build_symbol(spec)
    points = edge_points(spec, np.random.default_rng(seed))
    if a.invariant is None:
        assert not any(f["var"] != "radius" for f in spec["factors"])
        return
    dead = np.asarray(a.invariant(*points)) == 0
    assert np.all(np.broadcast_to(a.eval(*points), dead.shape)[dead] == 0)


def legacy_interior(spec):
    """The two-branch interior builder the factored form replaced: the oracle.

    Returns (evaluator, invariant) as the old builder wired them: one
    separable term, summed from 0.0, without an angular_momentum factor,
    and a general evaluator with one.
    """
    spatial_fns, fiber_fns, general_fns = [], [], []
    for f in spec["factors"]:
        w = tuple(f.get("window", ()))
        if f["var"] == "radius":
            spatial_fns.append(lambda x1, x2, w=w: window(np.hypot(x1, x2), *w))
        elif f["var"] == "speed":
            fiber_fns.append(lambda xi1, xi2, w=w: window(np.hypot(xi1, xi2), *w))
        elif f["var"] == "speed_sq":
            fiber_fns.append(lambda xi1, xi2, w=w: window(xi1 * xi1 + xi2 * xi2, *w))
        else:
            general_fns.append(
                lambda x1, x2, xi1, xi2, w=w: window(x1 * xi2 - x2 * xi1, *w)
            )
    arc = spec.get("arc")

    def spatial(x1, x2):
        acc = 1.0
        for fn in spatial_fns:
            acc = acc * fn(x1, x2)
        if arc is not None:
            acc = acc * config._arc_factor(arc)(np.arctan2(x2, x1))
        return acc

    def fiber(xi1, xi2):
        acc = np.ones_like(np.asarray(xi1, dtype=float))
        for fn in fiber_fns:
            acc = acc * fn(xi1, xi2)
        return acc

    def invariant(x1, x2, xi1, xi2):
        acc = fiber(xi1, xi2)
        for fn in general_fns:
            acc = acc * fn(x1, x2, xi1, xi2)
        return acc

    def evaluator(x1, x2, xi1, xi2):
        acc = spatial(x1, x2) * fiber(xi1, xi2)
        for fn in general_fns:
            acc = acc * fn(x1, x2, xi1, xi2)
        return acc

    def separable(x1, x2, xi1, xi2):
        return 0.0 + spatial(x1, x2) * fiber(xi1, xi2)

    if not (fiber_fns or general_fns):
        invariant = None
    return (evaluator if general_fns else separable), invariant


@st.composite
def factored_specs(draw):
    # up to two windows per fiber variable, so products of factors and
    # the multiply order are exercised too
    spec = draw(symbol_specs())
    for var, lo in (("speed", 0.0), ("speed_sq", 0.0), ("angular_momentum", -0.9)):
        if draw(st.booleans()):
            spec["factors"].append({"var": var, "window": draw(_edges(lo, 1.0))})
    return spec


@settings(derandomize=True, database=None, deadline=None, max_examples=60)
@given(factored_specs(), st.integers(0, 2**32 - 1))
def test_property_factored_symbol_matches_two_branch_oracle(spec, seed):
    a = config.build_symbol(spec)
    evaluator, invariant = legacy_interior(spec)
    rng = np.random.default_rng(seed)
    x1, x2, s1, s2 = edge_points(spec, rng)
    xs = np.array([-1.05, -0.45, 0.0, 0.3, 1.0])
    xis = np.concatenate([[-1.3, 0.0, 0.6], rng.choice(np.abs(s1), 3)])
    grid = (
        xs[:, None, None, None],
        xs[None, :, None, None],
        xis[None, None, :, None],
        xis[None, None, None, :],
    )
    # bit for bit, but for two round-off changes.  A speed_sq window now
    # reads hypot(xi)^2, not xi1^2 + xi2^2: |xi|^2 moves by an ulp or two,
    # which the window's slope, at most about 2 / ramp, turns into an
    # absolute change.  Two momentum windows multiply together before
    # they multiply the spatial-speed product: an ulp or two relative.
    ramps = [
        min(w[1] - w[0], w[3] - w[2])
        for w in (f["window"] for f in spec["factors"] if f["var"] == "speed_sq")
    ]
    atol = 1e-14 / min(ramps) if ramps else 0.0
    two_momenta = sum(f["var"] == "angular_momentum" for f in spec["factors"]) > 1
    rtol = 1e-15 if two_momenta else 0.0
    assert (a.invariant is None) == (invariant is None)
    for points in ((x1, x2, s1, s2), grid):
        got, want = np.broadcast_arrays(a.eval(*points), evaluator(*points))
        pairs = [(got, want)]
        if invariant is not None:
            pairs.append(np.broadcast_arrays(a.invariant(*points), invariant(*points)))
        for got, want in pairs:
            assert np.array_equal(got == 0, want == 0)
            if atol == rtol == 0.0:
                assert np.array_equal(got, want)
            else:
                np.testing.assert_allclose(got, want, rtol=rtol, atol=atol)
    if a.momentum is None:
        # FFT path against the direct lattice sum of the same symbol
        box = quantize.BoxGrid(32)
        f = rng.standard_normal((32, 32)) + 1j * rng.standard_normal((32, 32))
        twin = InteriorSymbol(a.spatial, a.speed, np.ones_like, xi_bound=a.xi_bound)
        spatial = a.spatial(box.X1, box.X2)
        fast = quantize._apply_interior(a, f, 0.1, box, spatial)
        dense = quantize._apply_interior(twin, f, 0.1, box, spatial)
        assert np.max(np.abs(fast - dense)) <= 1e-12 * np.max(np.abs(f))


def workload_phase_grid(m, k, nx=28, nxi=29, x_max=1.25, xi_max=1.6):
    """The Husimi phase axes `support_gap` evaluates for the Stokes mode (m, k).

    The snap of `husimi_grid`, without sampling the mode; its axes are
    built odd under reversal and agree with these to an ulp.
    """
    h = 1.0 / modes.family_lambda("stokes", m, k)
    lattice = h * quantize.default_box(h, xi_max + 1.0).k
    nearest = [int(np.argmin(np.abs(lattice - t))) for t in np.linspace(-xi_max, xi_max, nxi)]
    xi = np.sort(lattice[np.unique(nearest)])
    x = np.linspace(-x_max, x_max, nx)
    return (
        x[:, None, None, None],
        x[None, :, None, None],
        xi[None, None, :, None],
        xi[None, None, None, :],
    )


@pytest.mark.parametrize(
    "members, s",
    [
        # `reflect`: m = 16, 24, 32, 44 at k for the ratio 0.5
        ([(16, 3), (24, 5), (32, 7), (44, 10)], 0.9),
        # `bounce`
        ([(16, 3)], 12.0),
    ],
    ids=["reflect", "bounce"],
)
def test_pruned_transport_matches_unpruned_on_workload_grids(members, s):
    a = config.build_symbol(REFLECT_SYMBOL)
    for m, k in members:
        assert_pruning_exact(a, s, *workload_phase_grid(m, k))


def test_support_run_flies_few_points(monkeypatch):
    # the config builder attaches the invariant: without it every live
    # disk node of the phase grid would be flown
    flown, grids = [], []
    propagate, husimi = billiard.propagate, verify.husimi_grid

    def counting_propagate(x, xi, t, **kw):
        flown.append(np.asarray(x).reshape(-1, 2).shape[0])
        return propagate(x, xi, t, **kw)

    def recording_husimi(*args, **kw):
        grids.append(husimi(*args, **kw))
        return grids[-1]

    monkeypatch.setattr(billiard, "propagate", counting_propagate)
    monkeypatch.setattr(verify, "husimi_grid", recording_husimi)
    a = config.build_symbol(REFLECT_SYMBOL)
    rep = verify.support_gap([modes.stokes_disk_mode(16, 3)], a, 0.9, nx=28, nxi=29)
    assert rep.rows[0].before > 1e-3
    x1, x2, s1, s2 = phase_axes(grids[0])
    inside = np.sum(np.hypot(x1, x2) <= 1.0 + 1e-12)
    live = inside * np.sum(np.hypot(s1, s2) > verify.DEAD_SPEED)
    assert 0 < sum(flown) < 0.1 * live


def phase_axes(hg):
    """The 4-D broadcast (x1, x2, xi1, xi2) axes of a Husimi grid."""
    return (
        hg.x_axis[:, None, None, None],
        hg.x_axis[None, :, None, None],
        hg.xi_axis[None, None, :, None],
        hg.xi_axis[None, None, None, :],
    )


def husimi_mass_fraction(hg, values_sq):
    total = hg.mass()
    if total == 0.0:
        return 0.0
    got = float(np.sum(hg.density * values_sq) * hg.cell_volume)
    return got / total


def full_grid_support_masses(hg, a, s):
    """The interior masses of `support_gap` on the full 4-D grid: the oracle.

    `_survivors` scans the broadcast phase axes, and |a|^2 and the squared
    pullback are written into full-grid arrays, zero off the survivors,
    and summed against the whole density.  Returns (idx, points, before,
    after, unresolved).
    """
    shape, idx, pts = verify._survivors(*phase_axes(hg), a.invariant)
    base_sq, moved_sq = np.zeros(shape), np.zeros(shape)
    base_sq[idx] = np.abs(a.eval(*pts)) ** 2
    tau = verify.TransportedSymbol(a, s)
    moved_sq[idx] = tau.eval(*pts) ** 2
    before = husimi_mass_fraction(hg, base_sq)
    return idx, pts, before, husimi_mass_fraction(hg, moved_sq), tau.unresolved


@functools.lru_cache(maxsize=None)
def oracle_mode(member):
    family, m, k = member
    build = modes.stokes_disk_mode if family == "stokes" else modes.laplace_disk_mode
    return build(m, k)


RADIUS_ONLY = {
    "type": "interior",
    "xi_bound": 2.0,
    "factors": [{"var": "radius", "window": [-0.5, -0.3, 0.6, 0.8]}],
}


@settings(derandomize=True, database=None, deadline=None, max_examples=40)
@given(
    symbol_specs(),
    st.sampled_from(
        [("stokes", 16, 3), ("stokes", 1, 3), ("laplace", 0, 3), ("laplace", 5, 2)]
    ),
    st.integers(3, 13),
    st.sampled_from([5, 12, 29]),
    st.floats(-3.0, 3.0),
)
@example(RADIUS_ONLY, ("stokes", 16, 3), 9, 12, 0.7)  # invariant None
@example(REFLECT_SYMBOL, ("stokes", 16, 3), 28, 29, 0.9)  # `reflect`
@example(REFLECT_SYMBOL, ("stokes", 16, 3), 13, 29, 12.0)  # many bounces
def test_property_product_grid_survivors_match_full_grid_oracle(spec, member, nx, nxi, s):
    a = config.build_symbol(spec)
    mode = oracle_mode(member)
    hg = quantize.husimi_grid(mode, nx=nx, nxi=nxi)
    idx, pts = verify._phase_survivors(hg, a.invariant)
    want_idx, want_pts, before, after, unresolved = full_grid_support_masses(hg, a, s)
    for got, want in zip(idx + pts, want_idx + want_pts):
        assert got.dtype == want.dtype and got.tobytes() == want.tobytes()
    rep = verify.support_gap([mode], a, s, nx=nx, nxi=nxi)
    (row,) = rep.rows
    assert abs(row.before - before) <= 1e-15 * before
    assert abs(row.after - after) <= 1e-15 * after
    assert rep.notes["unresolved"] == unresolved


def test_support_gap_refuses_degenerate_windows(monkeypatch):
    fam = [modes.stokes_disk_mode(16, 3)]
    a = config.build_symbol(REFLECT_SYMBOL)
    # the windows are husimi_grid's constants; support_gap sets none
    for bad in ({"x_max": 0.0}, {"xi_max": 1.6}):
        with pytest.raises(TypeError, match="_max"):
            verify.support_gap(fam, a, 0.9, **bad)
    # every window centre so far out that its Gaussian underflows on the
    # box: the mode has no Husimi mass to take fractions of
    monkeypatch.setattr(quantize, "HUSIMI_X_MAX", 50.0)
    with pytest.raises(ValueError, match="no Husimi mass"):
        verify.support_gap(fam, a, 0.9, nx=4)


def test_support_gap_flies_the_survivors_as_gathered(monkeypatch):
    # the phase survivors are the pullback's survivors already: support_gap
    # runs no second survivors scan, and its masses are, bit for bit, those
    # of the pullback's eval on the same points
    a = config.build_symbol(REFLECT_SYMBOL)
    mode = modes.stokes_disk_mode(16, 3)
    hg = quantize.husimi_grid(mode, nx=28, nxi=29)
    idx, pts = verify._phase_survivors(hg, a.invariant)
    tau = verify.TransportedSymbol(a, 0.9)
    after = float(np.sum(hg.density[idx] * tau.eval(*pts) ** 2) * hg.cell_volume) / hg.mass()
    scans, scan = [], verify._survivors
    monkeypatch.setattr(verify, "_survivors", lambda *args: scans.append(1) or scan(*args))
    rep = verify.support_gap([mode], a, 0.9)
    assert scans == [] and rep.rows[0].after == after
    assert rep.notes["unresolved"] == tau.unresolved


def test_support_gap_holds_no_full_phase_grid_temporaries():
    # on the last `reflect` member, the 4-D survivors scan and two
    # full-grid mass arrays peaked at 27.9 MB here, the product-grid scan
    # at 16.2 MB, and the density alive through the transport at 11.2 MB;
    # on the first member, that last form peaked at 11.3 MB.  The first
    # member's survivor arrays, kept alive through the last member's grid,
    # read 9.7 MB on the pair
    a = config.build_symbol(REFLECT_SYMBOL)
    for members, limit in ((((16, 3), (44, 10)), 9_500_000), (((16, 3),), 8_000_000)):
        fam = [modes.stokes_disk_mode(m, k) for m, k in members]
        tracemalloc.start()
        try:
            verify.support_gap(fam, a, 0.9, nx=28, nxi=29)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < limit, members


def unchunked_phase_survivors(hg, invariant):
    """`verify._phase_survivors` with one momentum block for all centres: the oracle."""
    n_xi = len(hg.xi_axis)
    ci, cj = np.nonzero(np.hypot(hg.x_axis[:, None], hg.x_axis[None, :]) <= 1.0 + 1e-12)
    x1, x2 = hg.x_axis[ci], hg.x_axis[cj]
    p, q = np.divmod(np.arange(n_xi * n_xi), n_xi)
    s1, s2 = hg.xi_axis[p], hg.xi_axis[q]
    keep = True
    if invariant is not None:
        speed = 1.0 if invariant.speed is None else invariant.speed(np.hypot(s1, s2))
        speed = np.broadcast_to(speed, p.shape)
        keep = speed != 0
        if invariant.momentum is not None:
            live = np.flatnonzero(keep)
            wedge = x1[:, None] * s2[live] - x2[:, None] * s1[live]
            keep = np.zeros((len(ci), len(p)), dtype=bool)
            keep[:, live] = speed[live] * invariant.momentum(wedge) != 0
    r, c = np.nonzero(np.broadcast_to(keep, (len(ci), len(p))))
    return (ci[r], cj[r], p[c], q[c]), (x1[r], x2[r], s1[c], s2[c])


def assert_same_arrays(got, want):
    assert len(got) == len(want)
    for a, b in zip(got, want):
        assert a.dtype == b.dtype and a.shape == b.shape and a.tobytes() == b.tobytes()


# the `reflect` members, (m, k) for the ratio 0.5; `bounce` runs the first
REFLECT_MEMBERS = [(16, 3), (24, 5), (32, 7), (44, 10)]


@functools.lru_cache(maxsize=None)
def reflect_grid(m, k):
    """The Husimi grid of a `reflect` or `bounce` member, 28 x 29 as there."""
    return quantize.husimi_grid(modes.stokes_disk_mode(m, k), nx=28, nxi=29)


@pytest.mark.parametrize("pairs", [1, 700, verify.SURVIVOR_PAIRS, 1 << 30])
def test_chunked_survivors_match_the_unchunked_oracle(monkeypatch, pairs):
    # one centre per block, a few, the module's blocks, and one block
    monkeypatch.setattr(verify, "SURVIVOR_PAIRS", pairs)
    fibers = [
        config.build_symbol(REFLECT_SYMBOL).invariant,
        fiber_symbol(momentum=conserved_momentum).invariant,
        fiber_symbol(speed=ring_speed).invariant,
        None,
    ]
    members = REFLECT_MEMBERS if pairs == verify.SURVIVOR_PAIRS else REFLECT_MEMBERS[:1]
    for m, k in members:
        hg = reflect_grid(m, k)
        for inv in fibers:
            got_idx, got_pts = verify._phase_survivors(hg, inv)
            want_idx, want_pts = unchunked_phase_survivors(hg, inv)
            assert_same_arrays(got_idx + got_pts, want_idx + want_pts)
    # no window centre in the closed disk: nothing survives
    monkeypatch.setattr(quantize, "HUSIMI_X_MAX", 1.0)
    hg = quantize.husimi_grid(modes.stokes_disk_mode(16, 3), nx=2, nxi=5)
    got_idx, got_pts = verify._phase_survivors(hg, fibers[0])
    want_idx, want_pts = unchunked_phase_survivors(hg, fibers[0])
    assert got_idx[0].size == 0
    assert_same_arrays(got_idx + got_pts, want_idx + want_pts)


@pytest.mark.parametrize(
    "members, s",
    [(REFLECT_MEMBERS, 0.9), ([(16, 3)], 12.0)],
    ids=["reflect", "bounce"],
)
def test_ray_blocks_match_the_16384_ray_blocks(monkeypatch, members, s):
    # the rays `TransportedSymbol` flies on the workload grids: blocks of
    # 16,384 rays, the oracle, give the same bits as blocks of BLOCK
    a = config.build_symbol(REFLECT_SYMBOL)
    for m, k in members:
        _, (x1, x2, s1, s2) = verify._phase_survivors(reflect_grid(m, k), a.invariant)
        live = np.hypot(s1, s2) > verify.DEAD_SPEED
        x, xi = np.stack([x1, x2], axis=-1)[live], np.stack([s1, s2], axis=-1)[live]
        assert x.shape[0] > billiard.BLOCK
        got = billiard.propagate(x, xi, s, pinned="mark")
        with monkeypatch.context() as patch:
            patch.setattr(billiard, "BLOCK", 16_384)
            want = billiard.propagate(x, xi, s, pinned="mark")
        assert_same_arrays(got, want)


def test_propagation_checks_require_disk_chart():
    fam = [modes.laplace_disk_mode(0, 8)]
    annulus = AnnulusChart(0.35)
    # invariance takes no chart: validation holds its kind to the disk
    with pytest.raises(TypeError, match="chart"):
        verify.invariance_gap(fam, conserved_symbol(), 0.3, chart=annulus)
    with pytest.raises(NotImplementedError):
        verify.support_gap(fam, conserved_symbol(), 0.3, chart=annulus)


def test_gliding_rotation_traced_rate():
    assert abs(verify.gliding_rotation(CHART, 0.4) - 0.8) < 1e-8
    assert abs(verify.gliding_rotation(CHART, np.pi / 2) - np.pi) < 1e-8
    assert abs(verify.gliding_rotation(CHART, 0.4, xip=-1.0) + 0.8) < 1e-8
    assert abs(verify.gliding_rotation(CHART, -0.7) + 1.4) < 1e-8
    with pytest.raises(ValueError, match="xip"):
        verify.gliding_rotation(CHART, 0.4, xip=0.5)


# -- invariance ---------------------------------------------------------


def test_invariance_gap_zero_time_all_zero():
    fam = [modes.laplace_disk_mode(0, k) for k in (8, 12)]
    rep = verify.invariance_gap(fam, offcenter_bump(), 0.0)
    assert rep.kind == "invariance"
    assert rep.verdict == "pass"
    assert all(r.gap < 1e-12 for r in rep.rows)


def test_invariance_gap_free_route_decays():
    fam = [modes.laplace_disk_mode(0, k) for k in (10, 14, 20, 28)]
    rep = verify.invariance_gap(fam, offcenter_bump(), 0.15)
    assert rep.verdict == "pass"
    gaps = [r.gap for r in rep.rows]
    assert gaps[-1] <= 0.05
    assert all(gaps[i + 1] <= gaps[i] + 1e-3 for i in range(len(gaps) - 1))
    # first-order pairing error shrinks like h
    assert rep.notes["gap_rate"] > 0.6
    hs = [r.h for r in rep.rows]
    assert hs == sorted(hs, reverse=True)


def test_invariance_gap_pullback_conserved_symbol(monkeypatch):
    # flow-invariant symbol: the gap isolates integrator roundoff
    fam = [modes.laplace_disk_mode(0, 8)]
    a = conserved_symbol()
    samples, sample = [], quantize.sample_mode_on_box
    monkeypatch.setattr(
        quantize, "sample_mode_on_box", lambda *args: samples.append(1) or sample(*args)
    )
    rep = verify.invariance_gap(fam, a, 1.3)
    assert rep.verdict == "pass"
    assert rep.rows[0].gap < 1e-10
    assert abs(rep.rows[0].before) > 1e-3
    assert rep.notes["unresolved"] == 0
    # the momentum factor takes the pullback: both times pair on one sample
    # of the mode, bit for bit the two pullbacks' own pairings
    assert len(samples) == 1
    for value, s in ((rep.rows[0].before, 0.0), (rep.rows[0].after, 1.3)):
        assert value == float(quantize.pairing(verify.TransportedSymbol(a, s), fam[0]).real)


def test_invariance_gap_route_validated():
    # the symbol decides the route: there is no keyword to pick one
    fam = [modes.laplace_disk_mode(0, 8)]
    with pytest.raises(TypeError, match="route"):
        verify.invariance_gap(fam, offcenter_bump(), 0.1, route="pullback")


# -- support ------------------------------------------------------------


def high_momentum_window():
    return InteriorSymbol(
        closed_disk,
        lambda r: window(r, 0.75, 0.85, 1.15, 1.25),
        lambda ell: window(ell, 0.78, 0.84, 0.96, 1.02),
        xi_bound=1.25,
        name="angular-momentum 0.9 window",
    )


def test_support_gap_disjoint_window_stays_small():
    # family concentrates at angular momentum ~0.5, symbol sits at ~0.9
    fam = [modes.stokes_disk_mode(8, 2), modes.stokes_disk_mode(12, 3)]
    rep = verify.support_gap(fam, high_momentum_window(), 0.9)
    assert rep.kind == "support"
    assert rep.verdict == "pass"
    for r in rep.rows:
        assert 0.0 <= r.before <= 1.0 and 0.0 <= r.after <= 1.0
        assert r.before < 0.05
        assert r.after <= 2.0 * r.before + 1e-3
    assert rep.notes["unresolved"] == 0


def test_support_gap_reverse_transport_recovers_mass():
    fam = [modes.stokes_disk_mode(8, 2)]
    a = high_momentum_window()
    rep1 = verify.support_gap(fam, a, 0.9)
    round_trip = verify.TransportedSymbol(verify.TransportedSymbol(a, 0.9), -0.9)
    assert round_trip.xi_bound == a.xi_bound
    rep2 = verify.support_gap(fam, round_trip, 0.0)
    assert abs(rep2.rows[0].before - rep1.rows[0].before) < 1e-10


def test_support_gap_counts_both_masses_on_the_same_centres(monkeypatch):
    # the centres at |x| = 1 + 5e-13 survive the closed-disk tolerance 1e-12;
    # masked to |x| <= 1 before transport only, they read before = 0.0 and
    # after = 0.00547 under a zero-time flow
    a = config.build_symbol(REFLECT_SYMBOL)
    monkeypatch.setattr(quantize, "HUSIMI_X_MAX", 1.0 + 5e-13)
    rep = verify.support_gap([modes.stokes_disk_mode(16, 3)], a, 0.0, nx=3)
    (row,) = rep.rows
    assert row.before > 0.005 and row.gap == 0.0


def test_support_gap_zero_symbol_trivial():
    fam = [modes.stokes_disk_mode(8, 2)]
    zero = InteriorSymbol(lambda x1, x2: 0.0 * x1, ring_speed, xi_bound=1.5, name="zero")
    rep = verify.support_gap(fam, zero, 0.7)
    assert rep.verdict == "pass"
    assert rep.rows[0].before == 0.0 and rep.rows[0].after == 0.0


def test_support_gap_whispering_arc_rotates():
    fam = [modes.stokes_disk_mode(16, 1), modes.stokes_disk_mode(20, 1)]
    arc = TangentialSymbol(
        lambda y, xp: (1.0 - plateau_step(y, 0.1, 0.2)) * window(xp, 0.6, 0.68, 0.86, 0.94),
        angular=lambda th: bump_profile((np.mod(th - 1.0, 2.0 * np.pi) - np.pi) / 1.2),
        y_support=0.2,
        name="boundary arc at grazing momentum",
    )
    rep = verify.support_gap(fam, arc, 0.4)
    assert rep.verdict == "pass"
    assert abs(rep.notes["rotation_angle"] - 0.8) < 1e-8
    for r in rep.rows:
        # pure angular modes make the rotated-arc mass match exactly up
        # to the spectral accuracy of the theta quantization
        assert r.before > 0.01
        assert abs(r.gap) < 1e-6


def test_support_gap_rejects_other_inputs():
    fam = [modes.stokes_disk_mode(8, 2)]
    with pytest.raises(TypeError):
        verify.support_gap(fam, lambda *p: 0.0, 0.3)


# -- elliptic and off-shell mass ----------------------------------------


def elliptic_window():
    return TangentialSymbol(
        lambda y, xp: (1.0 - plateau_step(y, 0.1, 0.2))
        * window(np.abs(xp), 1.28, 1.35, 1.55, 1.62),
        y_support=0.2,
        name="fiber window above the glancing speed",
    )


def test_elliptic_mass_exact_zero_for_analytic_families():
    fam = [modes.laplace_disk_mode(0, k) for k in (8, 12)]
    fam += [modes.stokes_disk_mode(8, 2), modes.stokes_disk_mode(12, 3)]
    rep = verify.elliptic_mass(fam, elliptic_window())
    assert rep.kind == "elliptic"
    assert rep.verdict == "pass"
    # single angular modes never touch the window, so the pairings are
    # exactly zero rather than merely o(1)
    assert max(r.gap for r in rep.rows) < 1e-20


def test_elliptic_mass_rejects_low_fiber_support():
    bad = TangentialSymbol(
        lambda y, xp: (1.0 - plateau_step(y, 0.1, 0.2))
        * window(np.abs(xp), 0.4, 0.5, 0.7, 0.8),
        y_support=0.2,
        name="window inside the glancing ball",
    )
    with pytest.raises(ValueError, match="vanish"):
        verify.elliptic_mass([modes.laplace_disk_mode(0, 8)], bad)
    with pytest.raises(TypeError):
        verify.elliptic_mass([modes.laplace_disk_mode(0, 8)], offcenter_bump())


def off_shell_spatial(x1, x2):
    return 1.0 - plateau_step(np.hypot(x1, x2), 0.62, 0.76)


def off_shell_window(lo, hi, xi_bound, name):
    return InteriorSymbol(
        off_shell_spatial,
        lambda r: window(r, lo, lo + 0.1, hi - 0.1, hi),
        xi_bound=xi_bound,
        name=name,
    )


def test_car_mass_decays_like_h_both_sides_of_shell():
    fam = [modes.laplace_disk_mode(0, k) for k in (8, 12, 16)]
    for sym in (
        off_shell_window(0.3, 0.7, 0.7, "half-speed window"),
        off_shell_window(1.3, 1.7, 1.7, "superluminal window"),
    ):
        rep = verify.car_mass(fam, sym)
        assert rep.kind == "car"
        assert rep.verdict == "pass"
        assert 0.0 < rep.notes["car_constant"] < 1.0
        assert rep.rows[-1].gap <= rep.notes["car_constant"] * rep.rows[-1].h


def test_car_mass_rejects_on_shell_support():
    fam = [modes.laplace_disk_mode(0, 8)]
    bad = InteriorSymbol(
        off_shell_spatial, ring_speed, xi_bound=1.5, name="shell-touching window"
    )
    with pytest.raises(ValueError, match="vanish"):
        verify.car_mass(fam, bad)
    # a window narrower than the spacing of a coarse |xi|^2 probe: the
    # symbol is 1.0 at |xi|^2 = 0.875
    narrow = config.build_symbol({
        "type": "interior",
        "xi_bound": 1.5,
        "factors": [
            {"var": "radius", "window": [-0.76, -0.62, 0.62, 0.76]},
            {"var": "speed_sq", "window": [0.86, 0.87, 0.88, 0.89]},
        ],
    })
    assert narrow.speed(np.sqrt(0.875)) == 1.0
    with pytest.raises(ValueError, match="vanish"):
        verify.car_mass(fam, narrow)
    # without a speed factor nothing makes the symbol vanish on the band
    with pytest.raises(ValueError, match="vanish"):
        verify.car_mass(fam, InteriorSymbol(off_shell_spatial, xi_bound=1.5))
    with pytest.raises(TypeError):
        verify.car_mass(fam, elliptic_window())


# -- oscillation tails ---------------------------------------------------


def test_h_oscillation_tail_interior_bounds_and_nesting():
    fam = [modes.laplace_disk_mode(0, k) for k in (8, 12, 16)]
    tails = verify.h_oscillation_tail(fam, (2.0, 4.0, 8.0))
    assert tails.shape == (3, 3)
    assert np.all(tails[1] <= 0.01)
    assert np.all(np.diff(tails, axis=0) <= 0.0)
    assert np.all(tails >= 0.0)
    single = verify.h_oscillation_tail(fam, (4.0,))
    assert single.shape == (1, 3)
    # a different max R sizes a different box, so only grid-level agreement
    np.testing.assert_allclose(single[0], tails[1], rtol=0.05)


def test_interior_tail_peak_memory():
    # the one-shot sample and the tail sums, which held the sample, its
    # power, the lattice speed and a compressed copy at once, peaked at
    # 42.8 MB here on the layer workload's largest tails box (n = 1026)
    fam = [modes.laplace_disk_mode(0, 40)]
    tracemalloc.start()
    try:
        verify.h_oscillation_tail(fam, (2.0, 4.0, 8.0))
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 32_000_000


def test_h_oscillation_tail_tangential_zero_for_pure_modes():
    fam = [modes.stokes_disk_mode(8, 2), modes.stokes_disk_mode(12, 3)]
    tails = verify.h_oscillation_tail(fam, (4.0,), variant="tangential")
    assert np.max(np.abs(tails)) == 0.0


def test_h_oscillation_tail_validation():
    fam = [modes.laplace_disk_mode(0, 8)]
    with pytest.raises(ValueError, match="exceed 1"):
        verify.h_oscillation_tail(fam, (4.0, 1.0))
    with pytest.raises(ValueError, match="variant"):
        verify.h_oscillation_tail(fam, (4.0,), variant="angular")


# -- reports -------------------------------------------------------------


def _rows(entries):
    return [ModeRow(*e) for e in entries]


def report_text(stored):
    """The thresholds and verdict of a report as text, read from its stored form."""
    pairs = ", ".join(f"{k} = {v:g}" for k, v in stored["thresholds"].items())
    return f"thresholds: {pairs}\nverdict: {stored['verdict']}"


def test_report_round_trip_and_recompute(tmp_path):
    fam = [modes.laplace_disk_mode(0, k) for k in (10, 14)]
    rep = verify.invariance_gap(fam, offcenter_bump(), 0.15)
    path = write_json(tmp_path / "report.json", rep.to_dict(), meta={"config_hash": "0" * 64})
    stored = json.loads(path.read_text())["payload"]
    assert stored == rep.to_dict()
    assert rep.verdict == "pass"
    assert verify.recompute_verdict(stored) == "pass"
    text = report_text(stored)
    for token in ("theta_pass", "kappa", "theta_floor", "verdict"):
        assert token in text
    # the verdict follows the stored numbers, not the report they came from
    stored["rows"][-1]["gap"] = 2 * stored["thresholds"]["theta_pass"]
    assert verify.recompute_verdict(stored) == "fail"


def test_report_verdict_rules_from_stored_numbers():
    th = Thresholds()
    inv = PropagationReport(
        "e", "a", 0.1, "invariance",
        _rows([(0.1, 1.0, 1.02, 0.02), (0.05, 1.0, 1.01, 0.01)]), th,
    )
    assert inv.verdict == "pass"
    growing = PropagationReport(
        "e", "a", 0.1, "invariance",
        _rows([(0.1, 1.0, 1.01, 0.01), (0.05, 1.0, 1.04, 0.04)]), th,
    )
    assert growing.verdict == "fail"
    support_bad = PropagationReport(
        "e", "a", 0.1, "support", _rows([(0.1, 0.01, 0.05, 0.04)]), th,
    )
    assert support_bad.verdict == "fail"
    support_ok = PropagationReport(
        "e", "a", 0.1, "support", _rows([(0.1, 0.01, 0.019, 0.009)]), th,
    )
    assert support_ok.verdict == "pass"
    elliptic_bad = PropagationReport(
        "e", "a", 0.0, "elliptic", _rows([(0.1, 0.2, 0.0, 0.2), (0.05, 0.0, 0.0, 0.0)]), th,
    )
    assert elliptic_bad.verdict == "fail"
    car_stuck = PropagationReport(
        "e", "a", 0.0, "car",
        _rows([(0.1, 0.04, 0.0, 0.04), (0.05, 0.039, 0.0, 0.039)]), th,
    )
    assert car_stuck.verdict == "fail"
    car_ok = PropagationReport(
        "e", "a", 0.0, "car",
        _rows([(0.1, 0.04, 0.0, 0.04), (0.05, 0.021, 0.0, 0.021)]), th,
    )
    assert car_ok.verdict == "pass"


def test_report_inconclusive_and_validation():
    th = Thresholds()
    rep = PropagationReport(
        "e", "a", 0.1, "support", _rows([(0.1, 0.2, 0.2, 0.0)]), th,
        notes={"unresolved": 3.0},
    )
    assert rep.verdict == "inconclusive"
    empty = PropagationReport("e", "a", 0.1, "invariance", [], th)
    assert empty.verdict == "inconclusive"
    with pytest.raises(ValueError, match="kind"):
        PropagationReport("e", "a", 0.1, "spectral", [], th)


def test_thresholds_overridable_and_printed():
    loose = Thresholds(theta_pass=0.5, kappa=10.0, theta_floor=0.05)
    rep = PropagationReport(
        "e", "a", 0.1, "support", _rows([(0.1, 0.01, 0.05, 0.04)]), loose,
    )
    assert rep.verdict == "pass"
    assert rep.to_dict()["thresholds"]["kappa"] == 10.0
    assert "kappa = 10" in report_text(rep.to_dict())
