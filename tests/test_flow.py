import os
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st
from scipy.integrate import solve_ivp
from scipy.interpolate import CubicHermiteSpline
from scipy.optimize import brentq

from bicharlab import billiard, flow
from bicharlab.charts import AnnulusChart, DiskChart, ModelChart, PhasePoint
from bicharlab.flow import (
    GeneralizedRay,
    reflect_hyperbolic,
    step_gliding,
    trace,
)

DISK = DiskChart()


def unit(angle):
    return np.array([np.cos(angle), np.sin(angle)])


def test_ten_bounce_oracle_agreement():
    x0 = np.array([0.05, -0.17])
    xi0 = unit(0.37)
    T = 10.0
    ray = trace(DISK, (x0, xi0), T)
    assert ray.status == "completed"
    x_ref, xi_ref, nb = billiard.propagate(x0, xi0, T)
    assert nb >= 10
    x, xi = ray.final_cartesian()
    assert ray.reflections == nb
    assert np.max(np.abs(x - x_ref)) < 1e-8
    assert np.max(np.abs(xi - xi_ref)) < 1e-8


def test_energy_conserved_along_ray():
    ray = trace(DISK, (np.array([0.3, 0.1]), unit(1.1)), 6.0)
    for t in np.linspace(0.0, 6.0, 61):
        x, xi = ray.state_cartesian(t)
        assert abs(float(xi @ xi) - 1.0) < 1e-8


def test_reversibility():
    x0 = np.array([-0.2, 0.4])
    xi0 = unit(-0.6)
    T = 4.3
    fwd = trace(DISK, (x0, xi0), T)
    xe, xie = fwd.final_cartesian()
    back = trace(DISK, (xe, -xie), T)
    xb, xib = back.final_cartesian()
    assert np.max(np.abs(xb - x0)) < 1e-6
    assert np.max(np.abs(-xib - xi0)) < 1e-6


def test_negative_time_is_involution():
    x0 = np.array([0.25, -0.33])
    xi0 = unit(2.0)
    ray = trace(DISK, (x0, xi0), -3.1)
    assert ray.t_final == pytest.approx(-3.1)
    x, xi = ray.final_cartesian()
    x_ref, xi_ref, _ = billiard.propagate(x0, xi0, -3.1)
    assert np.max(np.abs(x - x_ref)) < 1e-8
    assert np.max(np.abs(xi - xi_ref)) < 1e-8


def test_gliding_rotation():
    start = PhasePoint(0.0, 0.3, 0.0, 1.0)
    ray = trace(DISK, start, np.pi / 2)
    assert ray.status == "completed"
    assert [e.kind for e in ray.events][0] == "glide_start"
    assert not ray.event_times("glide_release")
    p = ray.final_collar()
    assert p.y == pytest.approx(0.0, abs=1e-12)
    assert p.eta == pytest.approx(0.0, abs=1e-12)
    assert p.xip == pytest.approx(1.0, abs=1e-10)
    assert p.xp == pytest.approx(0.3 + np.pi, abs=1e-9)


def test_diffractive_tangency_annulus():
    chart = AnnulusChart(0.5, "outer")
    x0 = np.array([0.5, -0.6])
    xi0 = np.array([0.0, 1.0])
    ray = trace(chart, (x0, xi0), 0.6)
    assert ray.status == "completed"
    kinds = [e.kind for e in ray.events]
    assert "diffract" in kinds
    ev = next(e for e in ray.events if e.kind == "diffract")
    assert ev.t == pytest.approx(0.3, abs=1e-6)
    assert ev.classification.sign == 1
    x, xi = ray.final_cartesian()
    assert np.max(np.abs(x - [0.5, 0.6])) < 1e-8
    assert np.max(np.abs(xi - xi0)) < 1e-8


def test_annulus_radial_bouncing():
    chart = AnnulusChart(0.5, "outer")
    ray = trace(chart, (np.array([0.7, 0.0]), np.array([1.0, 0.0])), 0.7)
    times = ray.event_times("reflect")
    assert len(times) == 3
    assert times[0] == pytest.approx(0.15, abs=1e-9)
    assert times[1] == pytest.approx(0.40, abs=1e-9)
    assert times[2] == pytest.approx(0.65, abs=1e-9)
    x, xi = ray.final_cartesian()
    assert np.allclose(x, [0.9, 0.0], atol=1e-8)
    assert np.allclose(xi, [-1.0, 0.0], atol=1e-8)


def test_model_glide_release():
    # r = (1 - zeta^2) + z * y: glide moves along z at speed 2 and the
    # liftoff condition crosses zero at z = 0
    chart = ModelChart([(0, 0, 0, 1.0), (0, 2, 0, -1.0), (1, 0, 1, 1.0)])
    ray = trace(chart, PhasePoint(0.0, -0.5, 0.0, 1.0), 0.5)
    assert ray.status == "completed"
    kinds = [e.kind for e in ray.events]
    assert kinds[0] == "glide_start"
    assert "glide_release" in kinds
    rel = next(e for e in ray.events if e.kind == "glide_release")
    assert rel.t == pytest.approx(0.25, abs=1e-6)
    assert rel.point.xp == pytest.approx(0.0, abs=1e-6)
    p = ray.final_collar()
    assert p.y > 1e-4 and p.eta > 0.0


def test_unresolved_contact_aborts():
    chart = ModelChart([(0, 1, 0, 1.0)])
    ray = trace(chart, PhasePoint(0.0, 0.0, 0.0, 0.0), 1.0)
    assert ray.status == "aborted_unresolved"
    assert ray.events[0].kind == "abort_unresolved"
    assert ray.events[0].classification.unresolved


def test_collar_transit_events():
    eta0 = np.sqrt(0.75)
    ray = trace(DISK, PhasePoint(0.0, 0.0, eta0, 0.5), 1.0)
    kinds = [e.kind for e in ray.events]
    assert "exit_collar" in kinds and "enter_collar" in kinds
    ex = next(e for e in ray.events if e.kind == "exit_collar")
    assert ex.point.y == pytest.approx(0.5 * DISK.collar_width, abs=1e-9)
    # the chord between bounces takes time sqrt(r0)
    t_reflect = ray.event_times("reflect")
    assert t_reflect and t_reflect[0] == pytest.approx(np.sqrt(0.75), abs=1e-8)


def test_reflect_hyperbolic_contract():
    out = reflect_hyperbolic(DISK, PhasePoint(0.0, 1.0, -0.5, 0.5))
    assert out.eta == pytest.approx(np.sqrt(0.75), abs=1e-14)
    with pytest.raises(ValueError):
        reflect_hyperbolic(DISK, PhasePoint(0.0, 0.0, 0.0, 1.0))


def test_step_gliding_stays_on_shell():
    p = PhasePoint(0.0, 0.0, 0.0, 1.0)
    for _ in range(100):
        p = step_gliding(DISK, p, 1e-2)
    assert DISK.r0(p.xp, p.xip) == pytest.approx(0.0, abs=1e-12)


def test_zero_time_trace():
    ray = trace(DISK, (np.array([0.2, 0.0]), unit(0.3)), 0.0)
    x, xi = ray.final_cartesian()
    assert np.allclose(x, [0.2, 0.0]) and np.allclose(xi, unit(0.3))


def test_mixed_frame_energy_on_annulus():
    chart = AnnulusChart(0.5, "outer")
    ray = trace(chart, (np.array([0.8, 0.1]), unit(2.4)), 2.0)
    for t in np.linspace(0, 2.0, 41):
        x, xi = ray.state_cartesian(t)
        assert abs(float(xi @ xi) - 1.0) < 1e-8
        assert float(np.hypot(x[0], x[1])) > 0.5 - 1e-9


@settings(derandomize=True, deadline=None, max_examples=150)
@given(
    st.floats(0.0, 0.95),
    st.floats(-np.pi, np.pi),
    st.floats(-np.pi, np.pi),
    st.floats(0.05, 8.0),
)
def test_property_trace_matches_propagate_on_disk(r, a, b, t):
    # unit-speed rays that are not grazing: |x ^ xi| <= 0.95 keeps every
    # chord a clean transversal hit for both the closed form and the ODE
    x0, xi0 = r * unit(a), unit(b)
    assume(abs(x0[0] * xi0[1] - x0[1] * xi0[0]) <= 0.95)
    x_ref, xi_ref, nb = billiard.propagate(x0, xi0, t)
    assume(np.hypot(*x_ref) < 1.0 - 1e-6)  # an end on the rim is ambiguous
    ray = trace(DISK, (x0, xi0), t)
    assert ray.status == "completed"
    assert ray.reflections == nb
    x, xi = ray.final_cartesian()
    assert np.max(np.abs(x - x_ref)) < 1e-8
    assert np.max(np.abs(xi - xi_ref)) < 1e-8


# ---------------------------------------------------------------------------
# the collar stepper, the root solver and the glide interpolant against
# scipy's solve_ivp, brentq and CubicHermiteSpline


def collar_events(chart):
    return flow._COLLAR_EVENTS + ((0, 0.5 * chart.collar_width, 1),)


def scipy_collar(chart, t0, u0, t1):
    """solve_ivp on the collar field with the tracer's settings and events."""
    f = flow._collar_field(chart)

    def event(i, level, direction):
        def fn(t, u):
            return u[i] - level

        fn.terminal = True
        fn.direction = direction
        return fn

    return solve_ivp(
        lambda t, u: f(u),
        (t0, t1),
        np.asarray(u0, dtype=float),
        method="RK45",
        rtol=flow.RTOL,
        atol=flow.ATOL,
        max_step=flow.MAX_STEP_COLLAR,
        dense_output=True,
        events=[event(*e) for e in collar_events(chart)],
    )


def assert_collar_matches_scipy(chart, t0, u0, t1):
    field = flow._collar_field(chart)
    path, hit = flow._solve_collar(field, t0, list(u0), t1, collar_events(chart))
    sol = scipy_collar(chart, t0, u0, t1)
    fired = [k for k, times in enumerate(sol.t_events) if len(times)]
    if hit is None:
        assert sol.status == 0 and not fired
        assert path.ts[-1] == t1
    else:
        assert sol.status == 1 and fired == [hit[0]]
        assert abs(hit[1] - sol.t_events[hit[0]][0]) < 1e-12
        assert np.max(np.abs(np.array(hit[2]) - sol.y_events[hit[0]][0])) < 1e-11
    assert abs(path.ts[-1] - sol.t[-1]) < 1e-12
    for t in np.linspace(t0, path.ts[-1], 52)[1:-1]:
        assert np.max(np.abs(path(t) - sol.sol(t))) < 1e-11
    return None if hit is None else hit[0]


COLLAR_CHARTS = {
    "disk": DISK,
    "outer": AnnulusChart(0.5, "outer"),
    "inner": AnnulusChart(0.5, "inner"),
}
CONTACT, TURN, EXIT = flow._CONTACT, flow._TURN, flow._EXIT


@pytest.mark.parametrize(
    "chart, u0, span, ending",
    [
        ("disk", (0.1, 0.3, -0.5, 0.8), 5.0, CONTACT),
        ("disk", (0.05, 0.3, 0.3, 0.5), 5.0, TURN),
        ("disk", (0.05, 0.3, 0.6, 0.8), 5.0, EXIT),
        ("disk", (0.05, 0.3, 0.6, 0.8), 0.02, None),
        ("outer", (0.1, 0.3, -0.5, 0.8), 5.0, CONTACT),
        ("outer", (0.05, 0.3, 0.05, 0.55), 5.0, TURN),
        ("outer", (0.05, 0.3, 0.6, 0.8), 5.0, EXIT),
        ("outer", (0.05, 0.3, 0.6, 0.8), 0.02, None),
        ("inner", (0.02, 0.3, -0.5, 0.3), 5.0, CONTACT),
        ("inner", (0.1, 0.3, -0.5, 0.8), 5.0, TURN),
        ("inner", (0.05, 0.3, 0.6, 0.8), 5.0, EXIT),
        ("inner", (0.05, 0.3, 0.6, 0.8), 0.02, None),
    ],
)
def test_collar_solve_matches_solve_ivp(chart, u0, span, ending):
    t0 = 0.75
    assert assert_collar_matches_scipy(COLLAR_CHARTS[chart], t0, u0, t0 + span) == ending


@settings(derandomize=True, deadline=None, max_examples=40)
@given(
    st.floats(0.01, 0.34),
    st.floats(-np.pi, np.pi),
    st.floats(-1.0, 1.0),
    st.floats(-0.95, 0.95),
    st.floats(0.01, 2.0),
)
def test_property_collar_solve_matches_solve_ivp(y, xp, eta, xip, span):
    if eta == xip == 0:
        # the one difference from solve_ivp: a zero covector is a rest point
        # and eta stays exactly 0.  solve_ivp fires the turning point on the
        # first step; _solve_collar skips an event that is 0 at both ends of
        # a step, so the tracer's restarts cannot stall on it
        u0 = [y, xp, 0.0, 0.0]
        field = flow._collar_field(DISK)
        path, hit = flow._solve_collar(field, 0.0, u0, span, collar_events(DISK))
        assert hit is None and path(span).tolist() == u0
        sol = scipy_collar(DISK, 0.0, u0, span)
        assert sol.status == 1 and len(sol.t_events[TURN]) == 1
        return
    assert_collar_matches_scipy(DISK, 0.0, (y, xp, eta, xip), span)


def glide_release_function(chart, cur):
    def f(s):
        q = step_gliding(chart, cur, s) if s > 0 else cur
        return chart.r1(q.xp, q.xip)

    return f


@pytest.mark.parametrize("z0", [-1.5e-3, -1e-3, -2e-4, -1.9e-3])
def test_brent_matches_brentq_on_glide_release(z0):
    # the model chart of test_model_glide_release: r1 = z, and the glide
    # moves z at speed 2, so z0 in (-2e-3, 0) releases inside one step
    chart = ModelChart([(0, 0, 0, 1.0), (0, 2, 0, -1.0), (1, 0, 1, 1.0)])
    f = glide_release_function(chart, PhasePoint(0.0, z0, 0.0, 1.0))
    h = flow.GLIDING_STEP
    for xtol in (1e-13, 1e-14, 4 * np.finfo(float).eps):
        assert flow._brent(f, 0.0, h, xtol) == brentq(f, 0.0, h, xtol=xtol)
    assert flow._brent(f, 0.0, h, 1e-13) == pytest.approx(-z0 / 2, abs=1e-12)
    with pytest.raises(ValueError):
        flow._brent(f, 0.0, h / 100, 1e-13)  # no sign change


def glide_knots(start, n):
    """Values and slopes of n glide steps on the disk rim."""
    xps, xips = [start.xp], [start.xip]
    p = start
    for _ in range(n):
        p = step_gliding(DISK, p, flow.GLIDING_STEP)
        xps.append(p.xp)
        xips.append(p.xip)
    d = np.array([flow._glide_field(DISK, a, b) for a, b in zip(xps, xips)])
    return np.array(xps), np.array(xips), d


def hermite_exact(ts, ys, ds, t):
    """The cubic Hermite basis form in rational arithmetic, rounded once."""
    j = min(max(int(np.searchsorted(ts, t, side="right")) - 1, 0), len(ts) - 2)
    h = Fraction(ts[j + 1]) - Fraction(ts[j])
    s = (Fraction(t) - Fraction(ts[j])) / h
    u = 1 - s
    return float(
        (1 + 2 * s) * u * u * Fraction(ys[j])
        + s * u * u * h * Fraction(ds[j])
        + s * s * (3 - 2 * s) * Fraction(ys[j + 1])
        - s * s * u * h * Fraction(ds[j + 1])
    )


@pytest.mark.parametrize("xp0, n", [(0.3, 1), (0.3, 40), (-2.9, 7), (3.1, 25)])
def test_hermite_matches_cubic_hermite_spline(xp0, n):
    xps, xips, d = glide_knots(PhasePoint(0.0, xp0, 0.0, 1.0), n)
    rng = np.random.default_rng(n)
    # uneven knot spacing, as a release shortens the last step
    ts = np.cumsum(np.r_[0.0, rng.uniform(0.2, 1.0, n)]) * flow.GLIDING_STEP
    probes = np.linspace(ts[0] - 1e-9, ts[-1] + 1e-9, 301)
    for ys, ds in ((xps, d[:, 0]), (xips, d[:, 1])):
        ours = flow._hermite(ts.tolist(), ys.tolist(), ds.tolist())
        ref = CubicHermiteSpline(ts, ys, ds)
        bound = 1e-15 * np.max(np.abs(ys))
        assert all(abs(ours(t) - ref(t)) <= bound for t in probes)
        assert [ours(t) for t in ts] == ys.tolist()
    # on rough data scipy's own rounding passes 1e-15 max|y|: hold the
    # basis form to the exactly rounded value instead
    ys, ds = rng.normal(size=n + 1), rng.normal(size=n + 1)
    ours = flow._hermite(ts.tolist(), ys.tolist(), ds.tolist())
    bound = 4 * np.finfo(float).eps * np.max(np.abs(ys))
    assert all(abs(ours(t) - hermite_exact(ts, ys, ds, t)) <= bound for t in probes)
    assert [ours(t) for t in ts] == ys.tolist()


TERMINATION_PROBE = """
from hypothesis import given, settings, strategies as st
from bicharlab.charts import DiskChart, ModelChart, PhasePoint
from bicharlab.flow import trace

ray = trace(DiskChart(), ([0.9, 0], [0, 0]), 1.0)
assert (ray.status, ray.t_final) == ("completed", 1.0), ray.status
ray = trace(ModelChart([(0, 0, 0, 1.0), (0, 2, 0, -1.0)]), PhasePoint(0.5, 0, 0, 0.5), 1.0)
assert ray.status == "completed", ray.status
assert abs(ray.final_collar().xp - 1.0) < 1e-12

# r independent of y: eta starts at 0 and stays exactly 0
powers = st.sampled_from([(0, 0), (1, 0), (0, 1), (2, 0), (1, 1), (0, 2)])
terms = st.lists(st.tuples(powers, st.floats(-1.0, 1.0)), min_size=1, max_size=4)

@settings(derandomize=True, database=None, deadline=None, max_examples=60)
@given(terms, st.floats(0.05, 0.9), st.floats(-2.0, 2.0), st.floats(-2.0, 2.0))
def sweep(terms, y, xp, xip):
    chart = ModelChart([(a, b, 0, c) for (a, b), c in terms])
    ray = trace(chart, PhasePoint(y, xp, 0.0, xip), 1.0)
    assert ray.status == "completed", ray.status
    end = ray.final_collar()
    assert (end.y, end.eta) == (y, 0.0)

sweep()
print("ok")
"""


def test_every_trace_terminates(tmp_path):
    # a turning-point event held at exactly 0 along the ray once fired at
    # the start of every restart, and these traces ran until killed
    root = Path(__file__).resolve().parents[1]
    env = dict(os.environ, PYTHONPATH=str(root / "src"))
    probe = subprocess.run(
        [sys.executable, "-c", TERMINATION_PROBE],
        cwd=tmp_path, env=env, capture_output=True, text=True, timeout=120,
    )
    assert probe.returncode == 0, probe.stderr
    assert probe.stdout == "ok\n"
    cli = subprocess.run(
        [sys.executable, "-m", "bicharlab.cli", "trace", "--start", "0.9,0,0,0", "--time", "1"],
        cwd=tmp_path, env=env, capture_output=True, text=True, timeout=60,
    )
    assert cli.returncode == 0, cli.stderr
    assert cli.stdout.startswith("status completed, 0 reflection(s), t_final 1\n")


def test_trace_refuses_bad_input():
    x0, xi0 = np.array([0.2, 0.1]), unit(0.3)
    for t in (np.nan, np.inf, -np.inf):
        with pytest.raises(ValueError, match="finite"):
            trace(DISK, (x0, xi0), t)
    with pytest.raises(ValueError, match="finite"):
        trace(DISK, (x0, np.array([np.nan, 1.0])), 1.0)
    with pytest.raises(ValueError, match="finite"):
        trace(DISK, PhasePoint(0.1, 0.0, np.inf, 0.5), 1.0)
    with pytest.raises(ValueError, match="outside the closed disk"):
        trace(DISK, (np.array([2.0, 0.0]), unit(0.0)), 1.0)
    with pytest.raises(ValueError, match="outside the closed annulus"):
        trace(AnnulusChart(0.5, "outer"), (np.array([0.2, 0.0]), unit(0.0)), 1.0)
    # the closed domain holds its rim up to 1e-12, as billiard.propagate does
    assert trace(DISK, (np.array([1.0 + 5e-13, 0.0]), unit(np.pi)), 0.5).status == "completed"
