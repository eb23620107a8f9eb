import importlib.util
import math
import os
import struct
import subprocess
import sys
from bisect import bisect_left
from operator import mul
from pathlib import Path

import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st
from scipy.integrate import solve_ivp
from scipy.optimize import brentq

from bicharlab import billiard, flow
from bicharlab.charts import AnnulusChart, DiskChart, ModelChart, PhasePoint
from bicharlab.flow import reflect_hyperbolic, trace

DISK = DiskChart()
# r = (1 - zeta^2) + z * y: a glide moves along z at speed 2, and the
# liftoff condition r1 = z crosses zero at z = 0
RELEASE_CHART = ModelChart([(0, 0, 0, 1.0), (0, 2, 0, -1.0), (1, 0, 1, 1.0)])


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
    assert "glide_release" not in [e.kind for e in ray.events]
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
    times = [e.t for e in ray.events if e.kind == "reflect"]
    assert len(times) == 3
    assert times[0] == pytest.approx(0.15, abs=1e-9)
    assert times[1] == pytest.approx(0.40, abs=1e-9)
    assert times[2] == pytest.approx(0.65, abs=1e-9)
    x, xi = ray.final_cartesian()
    assert np.allclose(x, [0.9, 0.0], atol=1e-8)
    assert np.allclose(xi, [-1.0, 0.0], atol=1e-8)


def test_model_glide_release():
    ray = trace(RELEASE_CHART, PhasePoint(0.0, -0.5, 0.0, 1.0), 0.5)
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
    t_reflect = [e.t for e in ray.events if e.kind == "reflect"]
    assert t_reflect and t_reflect[0] == pytest.approx(np.sqrt(0.75), abs=1e-8)


def test_reflect_hyperbolic_contract():
    out = reflect_hyperbolic(DISK, PhasePoint(0.0, 1.0, -0.5, 0.5))
    assert out.eta == pytest.approx(np.sqrt(0.75), abs=1e-14)
    with pytest.raises(ValueError):
        reflect_hyperbolic(DISK, PhasePoint(0.0, 0.0, 0.0, 1.0))


def test_zero_time_trace():
    ray = trace(DISK, (np.array([0.2, 0.0]), unit(0.3)), 0.0)
    x, xi = ray.final_cartesian()
    assert np.allclose(x, [0.2, 0.0]) and np.allclose(xi, unit(0.3))


def test_state_inside_a_restart_gap_reads_the_nearest_segment():
    # each restart nudge (KICK) leaves a 1e-9 gap between two segments;
    # a time inside it reads the nearest segment, not the ray's last one
    ray = trace(DISK, PhasePoint(0.05, 0.0, 0.1, 0.9), 3.0)
    gaps = [
        (a.t1, b.t0)
        for a, b in zip(ray.segments, ray.segments[1:])
        if b.t0 - a.t1 > 1e-12
    ]
    assert gaps and gaps[0][0] < 0.0523411988 < gaps[0][1]
    for lo, hi in gaps:
        mid = ray.state_vector(0.5 * (lo + hi))[2]
        for end in (lo, hi):
            assert np.max(np.abs(mid - ray.state_vector(end)[2])) < 1e-8


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


def test_glide_starting_with_positive_r1_releases_at_once():
    # r1 = z = 5e-9 lies inside the tangency gate, so the contact is glancing
    # of order 3 and starts a glide; r1 > 0 already, so it releases at its start
    ray = trace(RELEASE_CHART, PhasePoint(0.0, 5e-9, 0.0, 1.0), 0.5)
    assert ray.status == "completed"
    assert [(e.kind, e.t) for e in ray.events][:2] == [("glide_start", 0.0), ("glide_release", 0.0)]
    assert (ray.segments[0].kind, ray.segments[0].t0, ray.segments[0].t1) == ("gliding", 0.0, 0.0)
    p = ray.final_collar()
    assert p.y > 1e-4 and p.eta > 0.0


# ---------------------------------------------------------------------------
# the stepper and the root solver against scipy's solve_ivp and brentq


def collar_events(chart):
    mid = 0.5 * chart.collar_width
    return flow._COLLAR_EVENTS + ((lambda get: get(0) - mid, 1),)


def release_event(chart):
    return (lambda get: chart.r1(get(1), get(3)), 1)


def scipy_solve(field, t0, u0, t1, events):
    """solve_ivp on a field with the tracer's settings and terminal events."""

    def event(fn, direction):
        def g(t, u):
            return fn(u.__getitem__)

        g.terminal = True
        g.direction = direction
        return g

    return solve_ivp(
        lambda t, u: field(u),
        (t0, t1),
        np.asarray(u0, dtype=float),
        method="RK45",
        rtol=flow.RTOL,
        atol=flow.ATOL,
        max_step=flow.MAX_STEP_COLLAR,
        dense_output=True,
        events=[event(*e) for e in events],
    )


def assert_solve_matches_scipy(field, t0, u0, t1, events):
    path, hit = flow._solve_collar(field, t0, list(u0), t1, events)
    sol = scipy_solve(field, t0, u0, t1, events)
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
    return hit


def assert_collar_matches_scipy(chart, t0, u0, t1):
    field = flow._collar_field(chart)
    hit = assert_solve_matches_scipy(field, t0, u0, t1, collar_events(chart))
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
        sol = scipy_solve(field, 0.0, u0, span, collar_events(DISK))
        assert sol.status == 1 and len(sol.t_events[TURN]) == 1
        return
    assert_collar_matches_scipy(DISK, 0.0, (y, xp, eta, xip), span)


@pytest.mark.parametrize(
    "chart, xp0, span, release",
    [
        # released where z = 0, at t = 0.25 exactly
        ("model", -0.5, 1.0, 0.25),
        # the disk rim has r1 = -2 xi'^2 < 0: the glide runs out of time
        ("disk", 0.3, 1.5, None),
    ],
)
def test_glide_solve_matches_solve_ivp(chart, xp0, span, release):
    t0 = 0.5
    chart = {"model": RELEASE_CHART, "disk": DISK}[chart]
    field = flow._glide_field(chart)
    u0 = (0.0, xp0, 0.0, 1.0)
    hit = assert_solve_matches_scipy(field, t0, u0, t0 + span, (release_event(chart),))
    if release is None:
        assert hit is None
    else:
        assert abs(hit[1] - (t0 + release)) < 1e-12
        # y and eta have no velocity and stay exactly 0
        assert (hit[2][0], hit[2][2]) == (0.0, 0.0)


@pytest.mark.parametrize("z0", [-1.5e-3, -1e-3, -2e-4, -1.9e-3])
def test_brent_matches_brentq_on_glide_release(z0):
    # r1 = z on the release chart, read off the dense output of the first
    # accepted glide step; z moves at speed 2, so each z0 releases in it
    field = flow._glide_field(RELEASE_CHART)
    path, _ = flow._solve_collar(field, 0.0, [0.0, z0, 0.0, 1.0], 1.0, ())
    step = path.steps[0]
    a, b = step[0], step[0] + step[1]

    def f(s):
        return RELEASE_CHART.r1(flow._dense(step, s, 1), flow._dense(step, s, 3))

    for xtol in (1e-13, 1e-14, 4 * np.finfo(float).eps):
        assert flow._brent(f, a, b, xtol) == brentq(f, a, b, xtol=xtol)
    assert flow._brent(f, a, b, 1e-13) == pytest.approx(-z0 / 2, abs=1e-12)
    with pytest.raises(ValueError):
        flow._brent(f, a, -z0 / 4, 1e-13)  # no sign change


TERMINATION_PROBE = """
from hypothesis import given, settings, strategies as st
from bicharlab.charts import DiskChart, ModelChart, PhasePoint
from bicharlab.flow import trace

# a zero covector at x = (0.9, 0); the ambient start is off the unit
# shell and refused, so the collar-frame state it was placed at
ray = trace(DiskChart(), PhasePoint(0.1, 0, 0, 0), 1.0)
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
    # the CLI takes ambient starts only, and refuses this one at once
    cli = subprocess.run(
        [sys.executable, "-m", "bicharlab.cli", "trace", "--start", "0.9,0,0,0", "--time", "1"],
        cwd=tmp_path, env=env, capture_output=True, text=True, timeout=60,
    )
    assert cli.returncode == 2, cli.stderr
    assert "|xi| = 0.0 lies off the unit energy shell" in cli.stderr


@pytest.mark.parametrize("xi, speed", [((1.2, 1.6), "2.0"), ((0.3, 0.4), "0.5"), ((0, 0), "0.0")])
def test_trace_refuses_an_ambient_start_off_the_unit_shell(xi, speed):
    # the collar field and the reflection eta -> +sqrt(r0) hold |xi| = 1,
    # so |xi| = 2 gave 3 reflections where the chord map gives 6
    for t in (3.0, -3.0):
        with pytest.raises(ValueError, match=rf"\|xi\| = {speed} lies off the unit energy shell"):
            trace(DISK, (np.array([0.1, 0.0]), np.array(xi, dtype=float)), t)
    assert trace(DISK, (np.array([0.1, 0.0]), unit(0.7)), 0.5).status == "completed"


def test_unit_shell_tolerance():
    for angle in np.linspace(-np.pi, np.pi, 1001):
        flow.check_start(DISK, (np.zeros(2), unit(angle)))
    flow.check_start(DISK, (np.zeros(2), np.array([1.0 + 0.5 * flow.SHELL_TOL, 0.0])))
    flow.check_start(DISK, (np.zeros(2), np.array([0.0, -1.0 + 0.5 * flow.SHELL_TOL])))
    for off in (2.0, -2.0):
        with pytest.raises(ValueError, match="off the unit energy shell"):
            flow.check_start(DISK, (np.zeros(2), np.array([1.0 + off * flow.SHELL_TOL, 0.0])))


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
    with pytest.raises(ValueError, match="no ambient embedding"):
        trace(RELEASE_CHART, (x0, xi0), 1.0)
    # collar-frame starts: y >= 0 on every chart, and (y, x') in the domain
    # of a chart with an embedding
    for chart in (DISK, AnnulusChart(0.5, "outer"), RELEASE_CHART):
        with pytest.raises(ValueError, match="y = -0.5 lies below the boundary"):
            trace(chart, PhasePoint(-0.5, 0.0, 0.5, 0.5), 1.0)
    with pytest.raises(ValueError, match="y = 1.5 does not map into the closed disk domain"):
        trace(DISK, PhasePoint(1.5, 0.0, 0.5, 0.5), 1.0)
    for component in ("outer", "inner"):
        with pytest.raises(ValueError, match="does not map into the closed annulus domain"):
            trace(AnnulusChart(0.5, component), PhasePoint(0.6, 0.0, 0.5, 0.5), -1.0)
    # the closed domain holds its rim up to 1e-12, as billiard.propagate does
    assert trace(DISK, (np.array([1.0 + 5e-13, 0.0]), unit(np.pi)), 0.5).status == "completed"
    assert trace(DISK, PhasePoint(-5e-13, 0.0, 0.5, 0.5), 0.5).status == "completed"


# ---------------------------------------------------------------------------
# the straight-line stepper against the generic one it replaced

# Dormand-Prince 5(4) tableau, error weights and dense-output matrix, as in
# scipy's RK45; the collar field is autonomous, so the nodes c_i go unused
_DP_A = (
    (1 / 5,),
    (3 / 40, 9 / 40),
    (44 / 45, -56 / 15, 32 / 9),
    (19372 / 6561, -25360 / 2187, 64448 / 6561, -212 / 729),
    (9017 / 3168, -355 / 33, 46732 / 5247, 49 / 176, -5103 / 18656),
)
_DP_B = (35 / 384, 0.0, 500 / 1113, 125 / 192, -2187 / 6784, 11 / 84)
_DP_E = (-71 / 57600, 0.0, 71 / 16695, -71 / 1920, 17253 / 339200, -22 / 525, 1 / 40)
# columns of scipy's P: coefficient k of the dense polynomial over the 7 stages
_DP_P = tuple(
    zip(
        (1.0, -8048581381 / 2820520608, 8663915743 / 2820520608, -12715105075 / 11282082432),
        (0.0, 0.0, 0.0, 0.0),
        (
            0.0,
            131558114200 / 32700410799,
            -68118460800 / 10900136933,
            87487479700 / 32700410799,
        ),
        (
            0.0,
            -1754552775 / 470086768,
            14199869525 / 1410260304,
            -10690763975 / 1880347072,
        ),
        (
            0.0,
            127303824393 / 49829197408,
            -318862633887 / 49829197408,
            701980252875 / 199316789632,
        ),
        (0.0, -282668133 / 205662961, 2019193451 / 616988883, -1453857185 / 822651844),
        (0.0, 40617522 / 29380423, -110615467 / 29380423, 69997945 / 29380423),
    )
)


def _dp_step(f, y, fy, h):
    """One Dormand-Prince step of size h: (y_new, stages K0..K6)."""
    K = [fy]
    for a in _DP_A:
        K.append(f([yi + h * sum(map(mul, a, ks)) for yi, ks in zip(y, zip(*K))]))
    y_new = [yi + h * sum(map(mul, _DP_B, ks)) for yi, ks in zip(y, zip(*K))]
    K.append(f(y_new))
    return y_new, K


def _dense(step, t, i):
    """Component i of one step's quartic continuous extension at time t."""
    t_old, h, y_old, K = step
    x = (t - t_old) / h
    ks = [k[i] for k in K]
    q0, q1, q2, q3 = (sum(map(mul, ks, col)) for col in _DP_P)
    x2 = x * x
    x3 = x2 * x
    return y_old[i] + h * (q0 * x + q1 * x2 + q2 * x3 + q3 * (x3 * x))


def oracle_step(f, y, fy, h):
    """(y_new, K, error norm) from the generic step and its error norm."""
    y_new, K = _dp_step(f, y, fy, h)
    err = [h * sum(map(mul, _DP_E, ks)) for ks in zip(*K)]
    scale = [flow.ATOL + max(abs(a), abs(b)) * flow.RTOL for a, b in zip(y, y_new)]
    error_norm = flow._rms_scaled(err, scale)
    return y_new, K, error_norm


def bits(value):
    """IEEE bit patterns of a float or of nested sequences of floats."""
    if isinstance(value, (list, tuple)):
        return [bits(v) for v in value]
    return struct.pack("<d", value)


# the oracle sums with the builtin sum, a left fold from 0 up to Python
# 3.11; from 3.12 on sum compensates its rounding and reads otherwise
LEFT_FOLD_SUM = sum([1e16, 1.0, -1e16]) == 0.0
left_fold_sum = pytest.mark.skipif(
    not LEFT_FOLD_SUM, reason="the builtin sum compensates, so the oracle rounds differently"
)

MODEL = ModelChart([(0, 1, 0, 1.0), (1, 0, 1, 1.0), (2, 2, 2, 0.7)])
ORACLE_FIELDS = {
    "disk": flow._collar_field(DISK),
    "outer": flow._collar_field(AnnulusChart(0.5, "outer")),
    "inner": flow._collar_field(AnnulusChart(0.5, "inner")),
    "model": flow._collar_field(MODEL),
    "glide disk": flow._glide_field(DISK),
    "glide model": flow._glide_field(RELEASE_CHART),
}


def component(lo, hi):
    return st.one_of(st.just(0.0), st.just(-0.0), st.floats(lo, hi))


@left_fold_sum
@settings(derandomize=True, deadline=None, max_examples=400)
@given(
    st.sampled_from(sorted(ORACLE_FIELDS)),
    st.tuples(component(0.0, 0.2), component(-4.0, 4.0), component(-1.5, 1.5),
              component(-1.5, 1.5)),
    st.floats(0.0, 100.0),
    st.floats(0.0, 1.0),
    st.lists(st.floats(-0.25, 1.25), min_size=1, max_size=4),
)
@example("glide disk", (-0.0, 0.0, -0.0, -0.0), 0.0, 0.0, [0.0])
@example("disk", (-0.0, -0.0, -0.0, -0.0), 1.0, 0.0, [1.0])
def test_property_straight_line_step_matches_generic_step(name, y, t_old, size, fracs):
    # step sizes run from the solve's min_step at t_old up to MAX_STEP_COLLAR
    f = ORACLE_FIELDS[name]
    min_step = 10 * (math.nextafter(t_old, math.inf) - t_old)
    h = min_step ** (1.0 - size) * flow.MAX_STEP_COLLAR**size
    fy = f(y)
    got = flow._dp_step(f, y, fy, h)
    want = oracle_step(f, list(y), fy, h)
    assert len(got[1]) == len(want[1]) == 7
    assert bits(list(got[0])) == bits(want[0])
    assert bits([list(k) for k in got[1]]) == bits([list(k) for k in want[1]])
    assert bits(got[2]) == bits(want[2])
    new_step, old_step = (t_old, h, y, got[1]), (t_old, h, list(y), want[1])
    for t in [t_old, t_old + h, *(t_old + frac * h for frac in fracs)]:
        for i in range(4):
            assert bits(flow._dense(new_step, t, i)) == bits(_dense(old_step, t, i))


def benchmark_trace_spec(seed):
    """The `bounce` workload's trace experiment at this seed."""
    root = Path(__file__).resolve().parents[1]
    spec = importlib.util.spec_from_file_location("workloads", root / "perfbench" / "workloads.py")
    workloads = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(workloads)
    (exp,) = [e for e in workloads.build_config("bounce", seed)["experiments"] if e["kind"] == "trace"]
    return exp


def trace_record(ray):
    """Events, collar-path step boundaries and accepted-step counts, as bits."""
    events = [
        (e.kind, bits(e.t), None if e.point is None else bits(list(vars(e.point).values())),
         None if e.x is None else bits(list(e.x)))
        for e in ray.events
    ]
    paths = [seg.evaluate for seg in ray.segments if isinstance(seg.evaluate, flow._CollarPath)]
    return events, [bits(p.ts) for p in paths], [len(p.steps) for p in paths]


@left_fold_sum
@pytest.mark.parametrize("seed", [0, 1])
def test_bounce_trace_matches_generic_step(seed, monkeypatch):
    exp = benchmark_trace_spec(seed)
    start = (exp["start"][:2], exp["start"][2:])
    ray = trace(DISK, start, exp["time"])
    assert ray.status == "completed" and ray.reflections >= 100
    monkeypatch.setattr(flow, "_dp_step", oracle_step)
    monkeypatch.setattr(flow, "_dense", _dense)
    oracle = trace(DISK, start, exp["time"])
    assert trace_record(ray) == trace_record(oracle)
    assert sum(trace_record(ray)[2]) > 1000


# ---------------------------------------------------------------------------
# the event budget, and the stage loop against the tracer it replaced

BOUNCE_START = ([0.05, -0.17], [0.6, 0.8])
# the restart ray's turning points lie above the rim: each takes a nudge
RESTART_START = PhasePoint(0.05, 0.0, 0.1, 0.9)
ANNULUS_START = ([-0.8, 0.4], [1.0, 0.0])


@pytest.mark.parametrize(
    "chart, start, t, kinds",
    [
        (DISK, BOUNCE_START, 100.0, ["enter_collar", "reflect", "exit_collar"] * 3
         + ["enter_collar", "reflect"]),
        (DISK, BOUNCE_START, -100.0, ["reflect", "enter_collar", "exit_collar"] * 3
         + ["reflect", "enter_collar"]),
        (AnnulusChart(0.4), ANNULUS_START, 50.0, ["exit_collar", "enter_collar", "diffract"]
         + ["exit_collar", "enter_collar", "reflect", "exit_collar", "enter_collar", "diffract"]
         + ["exit_collar", "enter_collar"]),
        # 5 events and 6 restart nudges make the 11 charges
        (DISK, RESTART_START, 30.0, ["reflect"] * 5),
    ],
    ids=["bounce", "backward", "annulus", "restart"],
)
def test_event_budget_aborts_the_ray(chart, start, t, kinds, monkeypatch):
    # a ray aborts at the first event or restart past MAX_EVENTS, with
    # the events it logged and no finish
    monkeypatch.setattr(flow, "MAX_EVENTS", 10)
    ray = trace(chart, start, t)
    assert ray.status == "aborted_max_events"
    assert [e.kind for e in ray.events] == kinds
    assert ray.reflections == kinds.count("reflect")


def test_finish_is_not_charged_against_the_budget(monkeypatch):
    # the ray spends exactly the 303 charged events before t = 100, and
    # the finish that closes it is not charged, so it completes
    monkeypatch.setattr(flow, "MAX_EVENTS", 303)
    ray = trace(DISK, BOUNCE_START, 100.0)
    assert ray.status == "completed"
    assert len(ray.events) == 304 and ray.events[-1].kind == "finish"
    assert ray.t_final == 100.0


class ParentTracer:
    """The tracer before its stages shared one loop, kept as the oracle.

    Each stage returned early on an exhausted event budget, and run
    dispatched on the mode through an if/elif chain.  One rule differs
    from the tracer it was: the closing finish is logged uncharged.
    """

    def __init__(self, chart):
        self.chart = chart
        self.segments: list = []
        self.events: list = []
        self.restarts = 0
        self.status = "completed"
        self.active_chart = chart
        self.embeddable = hasattr(chart, "to_cartesian")
        self.bands = []
        if self.embeddable:
            charts = [chart]
            if hasattr(chart, "other_component"):
                charts.append(chart.other_component())
            self.bands = [
                (ch, ch.radius(0.5 * ch.collar_width), ch.component) for ch in charts
            ]

    # -- event logging ---------------------------------------------------

    def _log(self, kind, t, point=None, x=None, classification=None):
        if point is not None and x is None and hasattr(self.active_chart, "to_cartesian"):
            try:
                xa, _ = self.active_chart.to_cartesian(
                    PhasePoint(max(point.y, 0.0), point.xp, point.eta, point.xip)
                )
                x = (float(xa[0]), float(xa[1]))
            except ValueError:
                x = None
        self.events.append(flow.RayEvent(kind, t, point, x, classification))
        return kind == "finish" or self._within_budget()

    def _within_budget(self) -> bool:
        """False, with the ray aborted, once it has spent MAX_EVENTS."""
        if len(self.events) + self.restarts > flow.MAX_EVENTS:
            self.status = "aborted_max_events"
            return False
        return True

    # -- free flight -------------------------------------------------------

    def _entry_time(self, x, xi):
        """Earliest future crossing into a collar band, or None."""
        best = None
        a = float(xi @ xi)
        b = float(x @ xi)
        for ch, radius, side in self.bands:
            c = float(x @ x) - radius * radius
            disc = b * b - a * c
            if disc <= 0.0:
                continue
            root = math.sqrt(disc)
            # outer bands are entered moving outward (larger root), inner
            # bands moving inward (smaller root)
            t_cross = (-b + root) / (2.0 * a) if side == "outer" else (-b - root) / (2.0 * a)
            if t_cross > 1e-13 and (best is None or t_cross < best[0]):
                best = (t_cross, ch)
        return best

    def run_free(self, t, x, xi, t_total):
        x = np.array(x, dtype=float)
        xi = np.array(xi, dtype=float)
        hit = self._entry_time(x, xi)
        t_end = t_total if hit is None else min(t + hit[0], t_total)

        def ev(tt, _t=t, _x=x.copy(), _xi=xi.copy()):
            return np.concatenate([_x + 2.0 * (tt - _t) * _xi, _xi])

        self.segments.append(flow.RaySegment("free", "cartesian", t, t_end, None, ev))
        if hit is None or t + hit[0] >= t_total:
            return t_total, None, None
        x_new = x + 2.0 * hit[0] * xi
        pt = hit[1].from_cartesian(x_new, xi)
        self.active_chart = hit[1]
        if not self._log("enter_collar", t_end, pt, (float(x_new[0]), float(x_new[1]))):
            return t_end, None, None
        return t_end, hit[1], pt

    # -- collar integration --------------------------------------------------

    def run_collar(self, t, chart, pt, t_total):
        """Integrate inside the collar until contact, exit, or time runs out.

        Returns (t_new, mode, payload) with mode in {"free", "collar",
        "glide", "done"}.
        """
        if pt.y <= flow.GRAZE_TOL and pt.eta <= 0.0:
            # on the boundary moving along or into it: dispatch immediately
            return self.dispatch(t, chart, pt, t_total)

        u0 = [float(pt.y), float(pt.xp), float(pt.eta), float(pt.xip)]
        events = flow._COLLAR_EVENTS
        if self.embeddable:
            mid = 0.5 * chart.collar_width
            events += ((lambda get: get(0) - mid, 1),)
        path, hit = flow._solve_collar(flow._collar_field(chart), t, u0, t_total, events)
        segment = flow.RaySegment("collar", "collar", t, path.ts[-1], chart, path)
        self.segments.append(segment)
        if hit is None:
            return t_total, "done", None

        kind, t_hit, u = hit
        if kind == flow._EXIT:
            p = PhasePoint(u[0], u[1], u[2], u[3])
            x, xi = chart.to_cartesian(p)
            if not self._log("exit_collar", t_hit, p, (float(x[0]), float(x[1]))):
                return t_hit, "done", None
            return t_hit, "free", (x, xi)

        if kind == flow._CONTACT:
            contact = PhasePoint(0.0, u[1], u[2], u[3])
            return self.dispatch(t_hit, chart, contact, t_total)

        # turning point: eta hits 0 and y is locally extremal there
        if u[0] > flow.GRAZE_TOL:
            # perihelion above the boundary: nudge past the root and go on;
            # the nudge logs no event, so it is counted here
            self.restarts += 1
            if not self._within_budget():
                return t_hit, "done", None
            u2 = flow._kick(chart, u)
            return t_hit + flow.KICK, "collar", (chart, PhasePoint(*u2))
        if u[0] >= -flow.GRAZE_TOL:
            contact = PhasePoint(0.0, u[1], u[2], u[3])
            return self.dispatch(t_hit, chart, contact, t_total)
        # the step dipped below the boundary without an endpoint sign change;
        # locate the first actual crossing inside the accepted step
        t_a = path.ts[max(bisect_left(path.ts, t_hit) - 1, 0)]
        t_c = flow._brent(lambda s: path(s)[0], t_a, t_hit, 1e-14)
        u_c = path(t_c)
        segment.t1 = t_c
        contact = PhasePoint(0.0, u_c[1], u_c[2], u_c[3])
        return self.dispatch(t_c, chart, contact, t_total)

    # -- contact dispatch ------------------------------------------------------

    def dispatch(self, t, chart, contact: PhasePoint, t_total):
        cls = flow.classify(chart, contact.xp, contact.xip)
        if cls.tag == flow.HYPERBOLIC:
            out = flow.reflect_hyperbolic(chart, contact)
            if not self._log("reflect", t, out, classification=cls):
                return t, "done", None
            return t, "collar", (chart, out)
        if cls.tag == flow.GLANCING and not cls.unresolved:
            if cls.order == 2 and cls.sign == 1:
                out = PhasePoint(0.0, contact.xp, -contact.eta, contact.xip)
                if not self._log("diffract", t, out, classification=cls):
                    return t, "done", None
                if out.eta <= 0.0:
                    u = flow._kick(chart, [0.0, out.xp, out.eta, out.xip])
                    return t + flow.KICK, "collar", (chart, PhasePoint(*u))
                return t, "collar", (chart, out)
            start = PhasePoint(
                0.0, contact.xp, 0.0, flow._project_shell(chart, contact.xp, contact.xip)
            )
            if not self._log("glide_start", t, start, classification=cls):
                return t, "done", None
            return t, "glide", (chart, start)
        kind = "abort_unresolved" if cls.tag == flow.GLANCING else "abort_elliptic"
        self._log(kind, t, contact, classification=cls)
        if self.status == "completed":
            self.status = "aborted_" + kind.split("_", 1)[1]
        return t, "done", None

    # -- gliding ---------------------------------------------------------------

    def run_glide(self, t, chart, pt, t_total):
        """Glide along the boundary until r1 turns positive or time runs out."""
        u = [0.0, pt.xp, 0.0, pt.xip]
        if chart.r1(pt.xp, pt.xip) > 0.0:
            # the liftoff condition already holds: release at once
            hit = (0, t, u)
            segment = flow.RaySegment(
                "gliding", "collar", t, t, chart, lambda tt, _u=np.array(u): _u
            )
        else:
            release = (lambda get: chart.r1(get(1), get(3)), 1)
            path, hit = flow._solve_collar(flow._glide_field(chart), t, u, t_total, (release,))
            segment = flow.RaySegment("gliding", "collar", t, path.ts[-1], chart, path)
        self.segments.append(segment)
        if hit is None:
            return t_total, "done", None
        _, t_rel, u = hit
        if not self._log("glide_release", t_rel, PhasePoint(*u)):
            return t_rel, "done", None
        return t_rel + flow.KICK, "collar", (chart, PhasePoint(*flow._kick(chart, u)))

    # -- main loop ---------------------------------------------------------------

    def _place(self, x, xi):
        """Assign an ambient point to a collar band or the free region."""
        rho = float(np.hypot(x[0], x[1]))
        for ch, radius, side in self.bands:
            inside = rho >= radius - 1e-12 if side == "outer" else rho <= radius + 1e-12
            if inside:
                return "collar", (ch, ch.from_cartesian(x, xi))
        return "free", (x, xi)

    def run(self, start, t_total):
        t = 0.0
        if isinstance(start, PhasePoint):
            if self.embeddable and start.y > 0.5 * self.chart.collar_width:
                x, xi = self.chart.to_cartesian(start)
                mode, payload = self._place(np.asarray(x), np.asarray(xi))
            else:
                mode, payload = "collar", (self.chart, start)
        else:
            x = np.asarray(start[0], dtype=float)
            xi = np.asarray(start[1], dtype=float)
            mode, payload = self._place(x, xi)
        mode0, payload0 = mode, payload

        while t < t_total - 1e-15 and self.status == "completed":
            if mode == "free":
                t, ch, pt = self.run_free(t, payload[0], payload[1], t_total)
                if ch is None:
                    break
                mode, payload = "collar", (ch, pt)
            elif mode == "collar":
                ch, pt = payload
                self.active_chart = ch
                t, mode, payload = self.run_collar(t, ch, pt, t_total)
                if mode == "done":
                    break
            elif mode == "glide":
                ch, pt = payload
                self.active_chart = ch
                t, mode, payload = self.run_glide(t, ch, pt, t_total)
                if mode == "done":
                    break
            else:
                break

        if not self.segments:
            # nothing integrated (t_total = 0 or an immediate abort): expose
            # the start state through a zero-length segment
            if mode0 == "free":
                x0, xi0 = np.asarray(payload0[0]), np.asarray(payload0[1])
                u0 = np.concatenate([x0, xi0])
                self.segments.append(
                    flow.RaySegment("free", "cartesian", 0.0, 0.0, None, lambda tt, _u=u0: _u)
                )
            else:
                ch0, p0 = payload0
                u0 = np.array([p0.y, p0.xp, p0.eta, p0.xip])
                self.segments.append(
                    flow.RaySegment("collar", "collar", 0.0, 0.0, ch0, lambda tt, _u=u0: _u)
                )
        if self.status == "completed" and self.segments:
            last = self.segments[-1]
            u = last.evaluate(last.t1)
            if last.frame == "collar":
                self.active_chart = last.chart
                self._log("finish", last.t1, PhasePoint(u[0], u[1], u[2], u[3]))
            else:
                self._log("finish", last.t1, None, (float(u[0]), float(u[1])))
        return flow.GeneralizedRay(
            self.chart,
            self.segments,
            self.events,
            self.status,
            0.0,
            self.segments[-1].t1 if self.segments else 0.0,
        )


def ray_record(ray):
    """trace_record, the status, each segment's kind, frame and ends, and
    the final state, as bits."""
    segments = [(s.kind, s.frame, bits(s.t0), bits(s.t1)) for s in ray.segments]
    frame, _, u = ray.state_vector(ray.t_final)
    return trace_record(ray), ray.status, segments, frame, bits(list(u))


def bounce_case(seed, sign):
    exp = benchmark_trace_spec(seed)
    return DISK, (exp["start"][:2], exp["start"][2:]), sign * exp["time"], None


PARENT_CASES = {
    "bounce-0": bounce_case(0, 1),
    "bounce-0-backward": bounce_case(0, -1),
    "bounce-1": bounce_case(1, 1),
    "bounce-1-backward": bounce_case(1, -1),
    "annulus-inner-diffraction": (AnnulusChart(0.4), ANNULUS_START, 2.0, None),
    "rim-glide": (DISK, PhasePoint(0.0, 0.3, 0.0, 1.0), 2.0, None),
    "glide-release": (RELEASE_CHART, PhasePoint(0.0, -0.5, 0.0, 1.0), 0.5, None),
    "elliptic-abort": (DISK, PhasePoint(0.0, 0.1, 0.0, 1.5), 1.0, None),
    "unresolved-abort": (ModelChart([(0, 1, 0, 1.0)]), PhasePoint(0.0, 0.0, 0.0, 0.0), 1.0, None),
    "restart": (DISK, RESTART_START, 3.0, None),
    "zero-time-ambient": (DISK, ([0.2, 0.0], unit(0.3)), 0.0, None),
    "zero-time-collar": (DISK, PhasePoint(0.0, 0.3, 0.0, 1.0), 0.0, None),
    **{f"budget-{n}-bounce": (DISK, BOUNCE_START, 100.0, n) for n in (0, 1, 3, 10, 25)},
    **{f"budget-{n}-backward": (DISK, BOUNCE_START, -100.0, n) for n in (0, 10)},
    **{f"budget-{n}-annulus": (AnnulusChart(0.4), ANNULUS_START, 50.0, n) for n in (3, 10)},
    **{f"budget-{n}-restart": (DISK, RESTART_START, 30.0, n) for n in range(3, 26)},
    **{f"budget-{n}-glide": (RELEASE_CHART, PhasePoint(0.0, -0.5, 0.0, 1.0), 0.5, n)
       for n in (0, 1, 2)},
    "budget-0-rim-glide": (DISK, PhasePoint(0.0, 0.3, 0.0, 1.0), 2.0, 0),
}


@pytest.mark.parametrize("case", sorted(PARENT_CASES))
def test_stage_loop_matches_the_parent_tracer(case, monkeypatch):
    chart, start, t, max_events = PARENT_CASES[case]
    if max_events is not None:
        monkeypatch.setattr(flow, "MAX_EVENTS", max_events)
    ray = trace(chart, start, t)
    monkeypatch.setattr(flow, "_Tracer", ParentTracer)
    assert ray_record(ray) == ray_record(trace(chart, start, t))
