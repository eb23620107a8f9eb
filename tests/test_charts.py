import json

import math
from typing import Sequence

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.signal import convolve2d

from bicharlab.charts import (
    AnnulusChart,
    CollarChart,
    DiskChart,
    ModelChart,
    OrderBudgetError,
    PhasePoint,
    _derivative_order,
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

    r = chart._jet_values(y, xp, xip)[0]
    return (
        r,
        d(lambda s: chart._jet_values(y + s, xp, xip)[0]),
        d(lambda s: chart._jet_values(y, xp + s, xip)[0]),
        d(lambda s: chart._jet_values(y, xp, xip + s)[0]),
    )


def test_disk_frozen_values():
    c = DiskChart()
    r, dr_dy, _, _ = c._jet_values(0.0, 0.3, 0.5)
    assert r == pytest.approx(0.75, abs=1e-15)
    assert dr_dy == pytest.approx(-0.5, abs=1e-15)
    r, dr_dy, _, _ = c._jet_values(0.0, -1.0, 1.0)
    assert r == pytest.approx(0.0, abs=1e-15)
    assert dr_dy == pytest.approx(-2.0, abs=1e-15)
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
        # a model chart has no collar: its y runs below 1
        width = getattr(chart, "collar_width", 1.0)
        for _ in range(250):
            y = rng.uniform(0.01, width * 0.9)
            xp = rng.uniform(-2.0, 2.0)
            xip = rng.uniform(-1.2, 1.2)
            _, dr_dy, dr_dxp, dr_dxip = chart._jet_values(y, xp, xip)
            _, fy, fxp, fxip = fd_jet(chart, y, xp, xip)
            scale = 1.0 + abs(dr_dy) + abs(dr_dxp) + abs(dr_dxip)
            assert abs(dr_dy - fy) / scale < 1e-6
            assert abs(dr_dxp - fxp) / scale < 1e-6
            assert abs(dr_dxip - fxip) / scale < 1e-6


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
        assert abs(c._jet_values(y, th, xip)[0] - r_oracle) < 1e-8


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
    # past the center of an annulus: the mirrored point, |x| = 0.6, was
    # once taken as lying in the domain
    with pytest.raises(ValueError, match=r"annulus domain \(point beyond the center\)"):
        check_start(AnnulusChart(0.5), PhasePoint(1.6, 0.0, 0.0, 0.1))
    # model charts have no ambient domain: any y >= 0 is meaningful
    m = ModelChart([(0, 1, 0, 1.0)])
    check_start(m, PhasePoint(5.0, 0.0, 0.0, 0.2))
    assert m._jet_values(5.0, 0.0, 0.2)[0] == pytest.approx(0.2)


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
    with pytest.raises(NotImplementedError):
        chart.iterated_bracket(1, 0.0, 0.5)
    with pytest.raises(NotImplementedError):
        chart.r0(0.0, 0.5)


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
        r = c._jet_values(p.y, p.xp, p.xip)[0]
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


def test_load_chart_refuses_trailing_shorthand_fields():
    # these once loaded, and the field past the shorthand was ignored
    assert load_chart("disk:0.2").collar_width == 0.2
    with pytest.raises(ValueError, match=r"'disk:0\.2:junk' has fields past disk\[:WIDTH\]"):
        load_chart("disk:0.2:junk")
    with pytest.raises(ValueError, match=r"'annulus:0\.3:inner:junk' has fields past annulus:"):
        load_chart("annulus:0.3:inner:junk")


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
    # a model chart is never embedded, so no step reads a collar width
    with pytest.raises(TypeError, match="collar_width"):
        ModelChart([(0, 1, 0, 1.0)], collar_width=1.0)
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


# -- round charts against their two-class form ---------------------------
#
# The disk and the annulus as two classes, each with its own closed forms,
# before they shared one round-chart base; only the class names differ.


class DiskOracle(CollarChart):
    """Unit disk, collar at the circle r = 1; y = 1 - |x|, x' the angle.

    The boundary metric pulled to the collar gives |xi'|^2_g = xi'^2/(1-y)^2,
    hence r = 1 - xi'^2/(1-y)^2 in closed form.
    """

    kind = "disk"

    def __init__(self, collar_width: float = 0.35, max_derivative_order: int = 8):
        if not 0.0 < collar_width < 1.0:
            raise ValueError("collar width must lie in (0, 1)")
        self.collar_width = float(collar_width)
        self.max_derivative_order = _derivative_order(max_derivative_order)

    def _jet_values(self, y, xp, xip):
        s = 1.0 - y
        return (1.0 - xip**2 / s**2, -2.0 * xip**2 / s**3, 0.0, -2.0 * xip / s**2)

    def _bracket(self, j, xp, xip):
        # r0 and r1 depend on xi' alone, so the bracket vanishes identically
        if j == 0:
            return -2.0 * xip**2
        return 0.0

    # metric data used by the boundary-layer machinery
    def curvature_h(self, y: float) -> float:
        """d/dy of log sqrt(det g)."""
        return -1.0 / (1.0 - y)

    def lam_jet(self, y, xip):
        """|xi'|_g and its first two y-derivatives (vectorized)."""
        s = 1.0 - np.asarray(y)
        a = np.abs(xip)
        return a / s, a / s**2, 2.0 * a / s**3

    # embedding ------------------------------------------------------

    def contains(self, x: Sequence[float]) -> bool:
        """x lies in the closed unit disk, up to 1e-12 as in billiard.propagate."""
        return math.hypot(x[0], x[1]) <= 1.0 + 1e-12

    def to_cartesian(self, p: PhasePoint) -> tuple[np.ndarray, np.ndarray]:
        rho = 1.0 - p.y
        if rho < 0.0:
            raise ValueError("point beyond the disk center")
        ct, st = math.cos(p.xp), math.sin(p.xp)
        rhat = np.array([ct, st])
        that = np.array([-st, ct])
        if rho == 0.0:
            if p.xip != 0.0:
                raise ValueError("cannot place an angular covector at the center")
            return np.zeros(2), -p.eta * rhat
        x = np.array([rho * ct, rho * st])
        xi = -p.eta * rhat + (p.xip / rho) * that
        return x, xi

    def from_cartesian(self, x: Sequence[float], xi: Sequence[float]) -> PhasePoint:
        x = np.asarray(x, dtype=float)
        xi = np.asarray(xi, dtype=float)
        rho = float(np.hypot(x[0], x[1]))
        if rho < 1e-12:
            # the angle degenerates at the center; align it with the covector so
            # the covector is purely radial in the chart
            theta = math.atan2(xi[1], xi[0]) if float(xi @ xi) > 0 else 0.0
            return PhasePoint(1.0, theta, -float(np.hypot(xi[0], xi[1])), 0.0)
        theta = math.atan2(x[1], x[0])
        rhat = x / rho
        that = np.array([-rhat[1], rhat[0]])
        return PhasePoint(1.0 - rho, theta, -float(xi @ rhat), rho * float(xi @ that))


class AnnulusOracle(CollarChart):
    """Round annulus rho_in < |x| < 1; collar at the selected component."""

    kind = "annulus"

    def __init__(
        self,
        rho_in: float,
        component: str = "outer",
        collar_width: float | None = None,
        max_derivative_order: int = 8,
    ):
        if not 0.0 < rho_in < 1.0:
            raise ValueError("inner radius must lie in (0, 1)")
        if component not in ("inner", "outer"):
            raise ValueError("component must be 'inner' or 'outer'")
        self.rho_in = float(rho_in)
        self.component = component
        gap = 1.0 - rho_in
        self.collar_width = 0.4 * gap if collar_width is None else float(collar_width)
        if not 0.0 < self.collar_width < gap:
            raise ValueError("collar width must be positive and below the gap width")
        self.max_derivative_order = _derivative_order(max_derivative_order)

    def _rho(self, y: float) -> float:
        if self.component == "outer":
            return 1.0 - y
        return self.rho_in + y

    def _jet_values(self, y, xp, xip):
        sgn = -1.0 if self.component == "outer" else 1.0
        rho = self._rho(y)
        return (1.0 - xip**2 / rho**2, sgn * 2.0 * xip**2 / rho**3, 0.0, -2.0 * xip / rho**2)

    def _bracket(self, j, xp, xip):
        if j == 0:
            sgn = -1.0 if self.component == "outer" else 1.0
            return sgn * 2.0 * xip**2 / self._rho(0.0) ** 3
        return 0.0

    def curvature_h(self, y: float) -> float:
        sgn = -1.0 if self.component == "outer" else 1.0
        return sgn / self._rho(y)

    def lam_jet(self, y, xip):
        rho = np.asarray(self._rho(np.asarray(y)))
        a = np.abs(xip)
        sgn = -1.0 if self.component == "outer" else 1.0
        return a / rho, -sgn * a / rho**2, 2.0 * a / rho**3

    def contains(self, x: Sequence[float]) -> bool:
        """x lies in the closed annulus, up to 1e-12 on either circle."""
        return self.rho_in - 1e-12 <= math.hypot(x[0], x[1]) <= 1.0 + 1e-12

    def to_cartesian(self, p: PhasePoint) -> tuple[np.ndarray, np.ndarray]:
        rho = self._rho(p.y)
        ct, st = math.cos(p.xp), math.sin(p.xp)
        x = np.array([rho * ct, rho * st])
        rhat = np.array([ct, st])
        that = np.array([-st, ct])
        nsign = -1.0 if self.component == "outer" else 1.0
        xi = nsign * p.eta * rhat + (p.xip / rho) * that
        return x, xi

    def from_cartesian(self, x, xi) -> PhasePoint:
        x = np.asarray(x, dtype=float)
        xi = np.asarray(xi, dtype=float)
        rho = float(np.hypot(x[0], x[1]))
        theta = math.atan2(x[1], x[0])
        rhat = x / rho
        that = np.array([-rhat[1], rhat[0]])
        nsign = -1.0 if self.component == "outer" else 1.0
        y = 1.0 - rho if self.component == "outer" else rho - self.rho_in
        return PhasePoint(y, theta, nsign * float(xi @ rhat), rho * float(xi @ that))

    def other_component(self) -> "AnnulusOracle":
        other = "inner" if self.component == "outer" else "outer"
        return AnnulusOracle(
            self.rho_in, other, self.collar_width, self.max_derivative_order
        )


ROUND_PAIRS = [
    (DiskChart(), DiskOracle()),
    (DiskChart(collar_width=0.2), DiskOracle(collar_width=0.2)),
    *(
        (AnnulusChart(rho_in, side), AnnulusOracle(rho_in, side))
        for rho_in in (0.3, 0.5, 0.7)
        for side in ("outer", "inner")
    ),
]


def same_bits(a, b) -> bool:
    """Equal to the last bit, signed zeros included, for scalars or arrays."""
    a, b = np.asarray(a, dtype=float), np.asarray(b, dtype=float)
    return a.shape == b.shape and np.array_equal(a, b) and np.array_equal(np.signbit(a), np.signbit(b))


def within_ulps(a, b, n) -> bool:
    return bool(np.all(np.abs(np.asarray(a) - b) <= n * np.spacing(np.abs(b))))


coord = st.floats(-3.0, 3.0)


@settings(derandomize=True, deadline=None, max_examples=300)
@given(
    pair=st.sampled_from(ROUND_PAIRS),
    depth=st.floats(0.0, 0.999),
    xp=coord,
    eta=coord,
    xip=coord,
    depths=st.lists(st.floats(0.0, 0.999), min_size=1, max_size=8),
    x=st.tuples(st.floats(-1.1, 1.1), st.floats(-1.1, 1.1)),
)
def test_round_charts_match_their_two_class_form(pair, depth, xp, eta, xip, depths, x):
    new, old = pair
    # depths run across the whole domain: the disk to near its center,
    # the annulus across the gap between its circles
    span = 1.0 if isinstance(old, DiskOracle) else 1.0 - old.rho_in
    y = depth * span
    ys = np.array(depths) * span
    assert new.kind == old.kind and new.collar_width == old.collar_width
    for got, want in zip(new._jet_values(y, xp, xip), old._jet_values(y, xp, xip), strict=True):
        assert same_bits(got, want)
    for j in (0, 1, 2):
        assert same_bits(new.iterated_bracket(j, xp, xip), old.iterated_bracket(j, xp, xip))
    assert same_bits(new.curvature_h(y), old.curvature_h(y))
    assert same_bits(new.curvature_h(ys), old.curvature_h(ys))
    for got, want in zip(new.lam_jet(ys[:, None], np.array([xip, 2.0 * xip])),
                         old.lam_jet(ys[:, None], np.array([xip, 2.0 * xip]))):
        assert same_bits(got, want)
    # at a scalar depth the annulus took its powers of a 0-d array, which
    # may round differently from a numpy scalar's; the program reads
    # lam_jet only at array depths, so the derivatives may move by 2 ulp
    got, want = new.lam_jet(y, xip), old.lam_jet(y, xip)
    assert same_bits(got[0], want[0])
    assert within_ulps(got[1], want[1], 2) and within_ulps(got[2], want[2], 2)
    p = PhasePoint(y, xp, eta, xip)
    for got, want in zip(new.to_cartesian(p), old.to_cartesian(p)):
        assert same_bits(got, want)
    xi = (eta, xip)
    for point in (x, new.to_cartesian(p)[0]):
        assert new.contains(point) == old.contains(point)
        if old.contains(point):
            assert all(same_bits(a, b) for a, b in zip(
                vars(new.from_cartesian(point, xi)).values(),
                vars(old.from_cartesian(point, xi)).values()))
