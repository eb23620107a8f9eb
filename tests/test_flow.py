import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from bicharlab import billiard
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
