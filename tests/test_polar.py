import numpy as np
import pytest
from scipy.special import jv

from numpy.polynomial import chebyshev as cheb

from bicharlab.polar import PolarGrid, RadialHalfGrid, _abs_weight_moments, cheb_diff_matrix


def radial_diff(g, prof, parity):
    """d/dr of radial profiles (first axis) with the given parity at 0."""
    d = g.d_even if parity > 0 else g.d_odd
    return d @ prof


def loop_abs_weight_moments(n):
    """Moments of |x| against T_k on [-1, 1] by Chebyshev antiderivatives."""
    mom = np.zeros(n + 1)
    for k in range(0, n + 1, 2):
        e = np.zeros(k + 1)
        e[k] = 1.0
        anti = cheb.chebint(cheb.chebmulx(e))
        mom[k] = 2.0 * (cheb.chebval(1.0, anti) - cheb.chebval(0.0, anti))
    return mom


def test_diff_matrix_on_monomials():
    x = np.cos(np.pi * np.arange(12) / 11)
    d = cheb_diff_matrix(x)
    for p in range(6):
        err = np.max(np.abs(d @ x**p - p * x ** max(p - 1, 0) * (p > 0)))
        assert err < 1e-11


def test_radial_quadrature_monomials():
    g = RadialHalfGrid(24)
    for p in (0, 2, 4, 10, 16):
        val = g.integrate_rdr(g.r**p)
        assert abs(val - 1.0 / (p + 2)) < 1e-13


def test_radial_quadrature_bessel_norm():
    # at a root of J0 the radial norm has a closed form
    from scipy.special import jn_zeros

    lam = jn_zeros(0, 3)[-1]
    g = RadialHalfGrid(60)
    val = g.integrate_rdr(jv(0, lam * g.r) ** 2)
    assert abs(val - 0.5 * jv(1, lam) ** 2) < 1e-12


def test_abs_weight_moments_match_antiderivative_loop():
    # moment k does not depend on n, so one loop to the largest degree
    # serves every grid K = 4..300 (degree n = 2K - 1)
    want = loop_abs_weight_moments(2 * 300 - 1)
    for K in range(4, 301):
        n = 2 * K - 1
        assert np.abs(_abs_weight_moments(n) - want[: n + 1]).max() <= 1e-15
    mom = _abs_weight_moments(7)
    assert mom[0] == 1.0 and mom[2] == 0.0 and mom[4] == -1.0 / 3.0 and mom[6] == 0.0
    assert not mom[1::2].any()


def test_radial_parity_derivative():
    g = RadialHalfGrid(40)
    lam = 11.3
    # even profile
    err_e = np.max(np.abs(radial_diff(g, np.cos(lam * g.r), +1) + lam * np.sin(lam * g.r)))
    # odd profile
    err_o = np.max(np.abs(radial_diff(g, np.sin(lam * g.r), -1) - lam * np.cos(lam * g.r)))
    assert err_e < 1e-9 and err_o < 1e-9


def test_radial_interpolation():
    g = RadialHalfGrid(50)
    lam = 9.7
    rng = np.random.default_rng(0)
    r_new = rng.uniform(0.01, 1.0, 40)
    vals = g.interp(jv(0, lam * g.r), +1, r_new)
    assert np.max(np.abs(vals - jv(0, lam * r_new))) < 1e-11


def test_disk_area_and_moments():
    grid = PolarGrid(20, 16)
    one = np.ones((grid.K, grid.n_theta))
    assert abs(grid.integrate(one) - np.pi) < 1e-12
    assert abs(grid.integrate(grid.X1**2) - np.pi / 4) < 1e-12
    assert abs(grid.integrate(grid.X1 * grid.X2)) < 1e-13


def test_integrate_general_smooth_field():
    f = lambda x1, x2: np.exp(x1 - 0.5 * x2) * (1.0 + 0.3 * x2**3)
    a = PolarGrid(24, 20)
    b = PolarGrid(40, 34)
    va = a.integrate(f(a.X1, a.X2))
    vb = b.integrate(f(b.X1, b.X2))
    assert abs(va - vb) < 1e-12


def test_gradient_on_polynomials():
    grid = PolarGrid(18, 16)
    f = grid.X1**3 - 2.0 * grid.X1 * grid.X2**2
    g1, g2 = grid.grad_cartesian(f)
    assert np.max(np.abs(g1 - (3 * grid.X1**2 - 2 * grid.X2**2))) < 1e-10
    assert np.max(np.abs(g2 - (-4 * grid.X1 * grid.X2))) < 1e-10


def test_laplacian_polynomial_and_helmholtz():
    grid = PolarGrid(60, 24)
    f = grid.X1**4
    assert np.max(np.abs(grid.laplacian(f) - 12 * grid.X1**2)) < 1e-8

    from scipy.special import jn_zeros

    m = 3
    lam = jn_zeros(m, 2)[-1]
    u = jv(m, lam * grid.R) * np.exp(1j * m * grid.T)
    res = grid.laplacian(u) + lam**2 * u
    assert grid.norm(res) / grid.norm(u) < 1e-9


def test_mode_roundtrip_and_boundary_norm():
    grid = PolarGrid(12, 16)
    rng = np.random.default_rng(3)
    f = rng.standard_normal((grid.K, grid.n_theta))
    assert np.max(np.abs(grid.from_modes(grid.to_modes(f)) - f)) < 1e-12

    row = np.exp(3j * grid.theta)
    assert abs(grid.boundary_norm(row) - np.sqrt(2 * np.pi)) < 1e-12


def test_norm_of_disk_eigenmode():
    from scipy.special import jn_zeros

    m, k = 5, 4
    lam = jn_zeros(m, k)[-1]
    grid = PolarGrid(60, 32)
    u = jv(m, lam * grid.R) * np.exp(1j * m * grid.T)
    exact = np.sqrt(np.pi) * abs(jv(m + 1, lam))
    assert abs(grid.norm(u) - exact) < 1e-11


def test_rejects_bad_grid_shapes():
    with pytest.raises(ValueError):
        PolarGrid(10, 15)
    with pytest.raises(ValueError):
        RadialHalfGrid(2)
