import json

import math

import numpy as np
import pytest
from scipy.signal import convolve2d

from bicharlab.charts import (
    AnnulusChart,
    CollarChart,
    DiskChart,
    ModelChart,
    OrderBudgetError,
    PhasePoint,
    _poly_mul2,
    load_chart,
)
from bicharlab.flow import check_start


def bracket_fd(chart, j, xp, xip, h_fd=1e-4):
    """Bracket oracle by nested central differences, one Richardson level."""

    def rec(order, a, b):
        if order == 0:
            return chart.r1(a, b)

        def dxp(f, a, b, h):
            return (f(a + h, b) - f(a - h, b)) / (2 * h)

        def dxip(f, a, b, h):
            return (f(a, b + h) - f(a, b - h)) / (2 * h)

        def richardson(d):
            return (4.0 * d(h_fd / 2) - d(h_fd)) / 3.0

        g = lambda u, v: rec(order - 1, u, v)
        g_x = richardson(lambda h: dxp(g, a, b, h))
        g_xi = richardson(lambda h: dxip(g, a, b, h))
        r0_x = richardson(lambda h: dxp(chart.r0, a, b, h))
        r0_xi = richardson(lambda h: dxip(chart.r0, a, b, h))
        return r0_xi * g_x - r0_x * g_xi

    return rec(j, xp, xip)


def fd_jet(chart, y, xp, xip, h=1e-4):
    """Independent first-derivative oracle: Richardson central differences."""

    def d(f):
        def central(step):
            return (f(step) - f(-step)) / (2 * step)

        return (4 * central(h / 2) - central(h)) / 3

    r = chart._jet_any_y(y, xp, xip).r
    return (
        r,
        d(lambda s: chart._jet_any_y(y + s, xp, xip).r),
        d(lambda s: chart._jet_any_y(y, xp + s, xip).r),
        d(lambda s: chart._jet_any_y(y, xp, xip + s).r),
    )


def test_disk_frozen_values():
    c = DiskChart()
    jet = c._jet_any_y(0.0, 0.3, 0.5)
    assert jet.r == pytest.approx(0.75, abs=1e-15)
    assert jet.dr_dy == pytest.approx(-0.5, abs=1e-15)
    jet = c._jet_any_y(0.0, -1.0, 1.0)
    assert jet.r == pytest.approx(0.0, abs=1e-15)
    assert jet.dr_dy == pytest.approx(-2.0, abs=1e-15)
    assert c.r0(0.0, 0.5) == pytest.approx(0.75)
    assert c.r1(0.0, 1.0) == pytest.approx(-2.0)


def test_fd_agreement_random_points():
    rng = np.random.default_rng(42)
    charts = [
        DiskChart(),
        AnnulusChart(0.5, "inner"),
        AnnulusChart(0.5, "outer"),
        ModelChart([(0, 1, 0, 1.0), (1, 0, 1, 1.0), (2, 2, 2, 0.7)]),
    ]
    for chart in charts:
        for _ in range(250):
            y = rng.uniform(0.01, chart.collar_width * 0.9)
            xp = rng.uniform(-2.0, 2.0)
            xip = rng.uniform(-1.2, 1.2)
            jet = chart._jet_any_y(y, xp, xip)
            _, fy, fxp, fxip = fd_jet(chart, y, xp, xip)
            scale = 1.0 + abs(jet.dr_dy) + abs(jet.dr_dxp) + abs(jet.dr_dxip)
            assert abs(jet.dr_dy - fy) / scale < 1e-6
            assert abs(jet.dr_dxp - fxp) / scale < 1e-6
            assert abs(jet.dr_dxip - fxip) / scale < 1e-6


def test_disk_r_against_embedded_metric():
    # metric pulled back through the coordinate map, built by differencing
    # the embedding itself
    c = DiskChart()
    rng = np.random.default_rng(1)
    h = 1e-5
    for _ in range(50):
        y, th, xip = rng.uniform(0.0, 0.3), rng.uniform(0, 6.28), rng.uniform(-1, 1)

        def emb(yy, tt):
            return np.array([(1 - yy) * np.cos(tt), (1 - yy) * np.sin(tt)])

        jt = (emb(y, th + h) - emb(y, th - h)) / (2 * h)
        g_tt = jt @ jt
        r_oracle = 1.0 - xip**2 / g_tt
        assert abs(c._jet_any_y(y, th, xip).r - r_oracle) < 1e-8


def test_collar_domain_enforced():
    # a collar-frame start needs y >= 0, and on the disk 1 - y >= 0 with
    # xi' = 0 at the center
    c = DiskChart(collar_width=0.35)
    with pytest.raises(ValueError, match="below the boundary"):
        check_start(c, PhasePoint(-0.01, 0.0, 0.0, 0.1))
    with pytest.raises(ValueError, match="does not map into the closed disk domain"):
        check_start(c, PhasePoint(1.01, 0.0, 0.0, 0.1))
    with pytest.raises(ValueError, match="angular covector at the center"):
        check_start(c, PhasePoint(1.0, 0.0, 0.0, 0.1))
    check_start(c, PhasePoint(1.0, 0.0, 0.5, 0.0))  # the center, moving radially
    check_start(c, PhasePoint(0.5, 0.0, 0.0, 0.1))  # past the collar, inside the disk
    # model charts have no ambient domain: any y >= 0 is meaningful
    m = ModelChart([(0, 1, 0, 1.0)])
    check_start(m, PhasePoint(5.0, 0.0, 0.0, 0.2))
    assert m._jet_any_y(5.0, 0.0, 0.2).r == pytest.approx(0.2)


def test_bracket_model_chart_frozen():
    m = ModelChart([(0, 1, 0, 1.0), (1, 0, 1, 1.0)])  # r0 = zeta1, r1 = z1
    assert m.iterated_bracket(0, 0.0, 0.0) == 0.0
    assert m.iterated_bracket(1, 0.0, 0.0) == pytest.approx(1.0, abs=1e-14)
    assert m.iterated_bracket(2, 0.0, 0.0) == 0.0


def test_bracket_rotational_charts_vanish():
    for chart in (DiskChart(), AnnulusChart(0.4, "inner")):
        assert chart.iterated_bracket(0, 0.7, 1.0) != 0.0
        for j in (1, 2, 3):
            assert chart.iterated_bracket(j, 0.7, 1.0) == 0.0
        # the nested-difference oracle agrees
        assert abs(bracket_fd(chart, 1, 0.7, 1.0)) < 1e-6


def test_bracket_fd_matches_polynomial():
    m = ModelChart(
        [(0, 1, 0, 1.0), (2, 0, 0, -0.5), (1, 1, 1, 1.0), (0, 0, 1, 0.3)],
        max_derivative_order=8,
    )
    for pt in [(0.3, -0.2), (0.0, 0.5), (-0.4, 0.1)]:
        # order 2 multiplies polynomials twice; the nested oracle loses digits
        for j, tol in ((1, 1e-6), (2, 1e-5)):
            exact = m.iterated_bracket(j, *pt)
            fd = bracket_fd(m, j, *pt)
            assert abs(exact - fd) < tol * (1 + abs(exact))


def random_tables(rng, draw):
    for _ in range(200):
        yield draw(tuple(rng.integers(1, 6, 2))), draw(tuple(rng.integers(1, 6, 2)))


def test_poly_product_matches_convolve2d():
    # exact coefficients have exact products and sums in any order, so the
    # numpy product and convolve2d agree to the bit
    rng = np.random.default_rng(5)
    integer = lambda shape: rng.integers(-9, 10, shape).astype(float)
    dyadic = lambda shape: rng.integers(-2**20, 2**20, shape) / 2.0**12
    for draw in (integer, dyadic):
        for a, b in random_tables(rng, draw):
            assert np.array_equal(_poly_mul2(a, b), convolve2d(a, b))
    # general floats: only the summation order differs
    for a, b in random_tables(rng, rng.standard_normal):
        gap = np.abs(_poly_mul2(a, b) - convolve2d(a, b))
        assert np.all(gap <= 1e-15 * convolve2d(np.abs(a), np.abs(b)))


def test_base_chart_has_no_bracket_fallback():
    chart = CollarChart()
    chart.max_derivative_order = 8
    with pytest.raises(NotImplementedError):
        chart.iterated_bracket(1, 0.0, 0.5)


def test_bracket_budget():
    m = ModelChart([(0, 1, 0, 1.0)], max_derivative_order=4)
    with pytest.raises(OrderBudgetError):
        m.iterated_bracket(3, 0.0, 0.0)


def test_cartesian_roundtrip():
    rng = np.random.default_rng(7)
    for chart in (DiskChart(), AnnulusChart(0.45, "inner"), AnnulusChart(0.45, "outer")):
        for _ in range(100):
            p = PhasePoint(
                rng.uniform(0, chart.collar_width),
                rng.uniform(-3, 3),
                rng.uniform(-1, 1),
                rng.uniform(-1, 1),
            )
            x, xi = chart.to_cartesian(p)
            q = chart.from_cartesian(x, xi)
            assert abs(q.y - p.y) < 1e-12
            assert abs(np.angle(np.exp(1j * (q.xp - p.xp)))) < 1e-12
            assert abs(q.eta - p.eta) < 1e-12
            assert abs(q.xip - p.xip) < 1e-12


def test_disk_energy_matches_euclidean():
    c = DiskChart()
    rng = np.random.default_rng(11)
    for _ in range(50):
        p = PhasePoint(rng.uniform(0, 0.3), rng.uniform(0, 6), rng.uniform(-1, 1), rng.uniform(-1, 1))
        x, xi = c.to_cartesian(p)
        r = c._jet_any_y(p.y, p.xp, p.xip).r
        assert abs((p.eta**2 - r) - (xi @ xi - 1.0)) < 1e-12


def test_center_point():
    c = DiskChart()
    for cov in ([1.0, 0.0], [0.0, 1.0], [-0.6, 0.8]):
        p = c.from_cartesian([0.0, 0.0], cov)
        assert p.y == pytest.approx(1.0) and p.xip == 0.0
        x, xi = c.to_cartesian(p)
        assert np.allclose(x, 0.0) and np.allclose(xi, cov)


def test_load_chart(tmp_path):
    assert load_chart("disk").kind == "disk"
    a = load_chart("annulus:0.5:inner")
    assert a.rho_in == 0.5 and a.component == "inner"
    spec = {"kind": "model", "terms": [[0, 1, 0, 1.0], [1, 0, 1, 1.0]]}
    assert load_chart(spec).kind == "model"
    path = tmp_path / "chart.json"
    path.write_text(json.dumps(spec))
    m = load_chart(str(path))
    assert m.r0(0.0, 0.7) == pytest.approx(0.7)
    # JSON may write the power 1 as 1.0: the same chart
    floats = load_chart({"kind": "model", "terms": [[0, 1.0, 0, 1.0], [1, 0, 1.0, 1.0]]})
    assert floats.terms == m.terms and np.array_equal(floats.coef, m.coef)


def test_model_chart_validation():
    with pytest.raises(ValueError):
        ModelChart([])
    with pytest.raises(ValueError):
        ModelChart([(0, -1, 0, 1.0)])
    for power in (1.5, -1.0, math.nan, "1", True):
        with pytest.raises(ValueError, match="powers must be integers"):
            ModelChart([(0, 1, 0, 1.0), (power, 0, 1, 1.0)])
    for coeff in (math.nan, math.inf, -math.inf):
        with pytest.raises(ValueError, match="finite"):
            ModelChart([(0, 1, 0, 1.0), (1, 0, 1, coeff)])
    for width in (-1.0, 0.0, math.inf, math.nan):
        with pytest.raises(ValueError, match="collar width"):
            ModelChart([(0, 1, 0, 1.0)], collar_width=width)
    # a term that is not a 4-item list is named, not a TypeError
    for term in (5, None, "0100", (0, 1, 0)):
        with pytest.raises(ValueError, match=r"bad term .*: need \(pow_z1, pow_zeta1, pow_y, coeff\)"):
            ModelChart([(0, 1, 0, 1.0), term])
    spec = {"kind": "model", "terms": [[0, 1, 0, 1.0], [1, 0, 1, math.nan]]}
    with pytest.raises(ValueError, match="finite"):
        load_chart(spec)


def test_annulus_collar_width_zero_refused():
    # an explicit width must clear 0 < width < gap; only None means the default
    assert AnnulusChart(0.5).collar_width == pytest.approx(0.2)
    for width in (0, 0.0, -0.1, 0.5):
        with pytest.raises(ValueError, match="collar width"):
            AnnulusChart(0.5, collar_width=width)
