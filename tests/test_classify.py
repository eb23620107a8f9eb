import math

import numpy as np
import pytest

import bicharlab.classify as strata
from bicharlab.charts import AnnulusChart, DiskChart, ModelChart
from bicharlab.classify import ELLIPTIC, GLANCING, HYPERBOLIC, classify


def test_disk_ground_truth():
    c = DiskChart()
    assert classify(c, 0.0, 0.5).tag == HYPERBOLIC
    assert classify(c, 0.0, 1.3).tag == ELLIPTIC
    g = classify(c, 0.0, 1.0)
    assert g.tag == GLANCING
    assert g.order == 2 and g.sign == -1
    assert g.witness["r1"] == pytest.approx(-2.0, abs=1e-6)
    assert g.label() == "glancing(2,-)"


def test_annulus_inner_is_diffractive():
    c = AnnulusChart(0.5, "inner")
    g = classify(c, 0.0, 0.5)  # |xip|_alpha = 1 on the inner circle
    assert g.tag == GLANCING and g.order == 2 and g.sign == +1
    assert g.witness["r1"] == pytest.approx(2 * 0.5**2 / 0.5**3, rel=1e-12)
    # outer component of the same annulus behaves like the disk
    assert classify(AnnulusChart(0.5, "outer"), 0.0, 1.0).sign == -1


def test_model_higher_order():
    m = ModelChart([(0, 1, 0, 1.0), (1, 0, 1, 1.0)])  # r0 = zeta1, r1 = z1
    g = classify(m, 0.0, 0.0)
    assert g.tag == GLANCING and g.order == 3 and g.sign is None
    assert g.label() == "glancing(3)"

    # r1 = z1**p pushes the first nonvanishing bracket to j = p
    for p, order in [(2, 4), (3, 5)]:
        m = ModelChart([(0, 1, 0, 1.0), (p, 0, 1, 1.0)])
        g = classify(m, 0.0, 0.0)
        assert g.order == order, (p, g.as_dict())


def test_unresolved_flag():
    m = ModelChart([(0, 1, 0, 1.0)], max_derivative_order=6)  # r identically zeta1
    g = classify(m, 0.0, 0.0)
    assert g.tag == GLANCING and g.unresolved
    assert g.order == 6
    assert g.label() == "glancing(order>6)"


def test_partition_and_tolerance_monotonicity(monkeypatch):
    c = DiskChart()
    rng = np.random.default_rng(3)
    points = [(rng.uniform(-3, 3), rng.uniform(-1.5, 1.5)) for _ in range(2000)]
    base = [classify(c, xp, xip).tag for xp, xip in points]
    assert base.count(ELLIPTIC) > 0 and base.count(HYPERBOLIC) > 0
    # widening the gate can only absorb points into the glancing stratum
    monkeypatch.setattr(strata, "TOL_G", 1e-2)
    for (xp, xip), tag in zip(points, base):
        wide = classify(c, xp, xip).tag
        assert wide == tag or wide == GLANCING


@pytest.mark.parametrize(
    "chart",
    [DiskChart(), *(AnnulusChart(rho, side) for rho in (0.05, 0.5, 0.95)
                    for side in ("inner", "outer"))],
    ids=lambda c: f"{c.kind}-{getattr(c, 'rho_in', 0)}-{c.component}",
)
def test_round_charts_resolve_every_glancing_point_at_order_two(chart):
    # across the tangency band |r0| <= TOL_G, |r1| = 2 xi'^2 / rho(0)^3 is
    # about 2 / rho(0) >= 2, so classify stops at order 2; a round chart has
    # no budget for the bracket loop to read
    rho = chart.radius(0.0)
    band = [sign * rho * math.sqrt(1.0 - r0)
            for r0 in np.linspace(-strata.TOL_G, strata.TOL_G, 41) for sign in (1.0, -1.0)]
    glancing = [xip for xip in band if abs(chart.r0(0.3, xip)) <= strata.TOL_G]
    assert len(glancing) >= 78
    for xip in glancing:
        g = classify(chart, 0.3, xip)
        assert (g.tag, g.order, g.unresolved) == (GLANCING, 2, False)
        assert abs(g.witness["r1"]) >= 2.0 * (1.0 - 1e-7) / rho


def test_rotation_invariance():
    c = DiskChart()
    for xp in (0.0, 1.1, -2.7):
        assert classify(c, xp, 0.5).tag == classify(c, 0.0, 0.5).tag
        assert classify(c, xp, 1.0).as_dict() == classify(c, 0.0, 1.0).as_dict()


def test_parameter_validation():
    c = DiskChart()
    # contact order 2 needs r1: no model chart resolves fewer than 2 derivatives
    for order in (1, 0, 2.5, "8", True, math.nan):
        with pytest.raises(ValueError, match="max_derivative_order"):
            ModelChart([(0, 1, 0, 1.0)], max_derivative_order=order)
    assert ModelChart([(0, 1, 0, 1.0)], max_derivative_order=2.0).max_derivative_order == 2
    # round charts resolve every glancing point at order 2: no budget to set
    for build in (DiskChart, lambda **kw: AnnulusChart(0.5, **kw)):
        with pytest.raises(TypeError, match="max_derivative_order"):
            build(max_derivative_order=8)
    for xp, xip in ((0.0, math.inf), (math.nan, 1.0), (-math.inf, 0.5)):
        with pytest.raises(ValueError, match="finite"):
            classify(c, xp, xip)
