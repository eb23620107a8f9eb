import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from hypothesis import assume, given, settings
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
