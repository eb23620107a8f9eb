import numpy as np
import pytest
from scipy.special import jv

from numpy.polynomial import chebyshev as cheb

from bicharlab.modes import _gradient, _rim_norm
from bicharlab.polar import (
    PolarGrid,
    RadialHalfGrid,
    _abs_weight_moments,
    cheb_coeff_matrix,
    cheb_diff_matrix,
)


def mesh(grid):
    """(R, T, X1, X2): the (K, n_theta) radius, angle and Cartesian meshes of a polar grid."""
    R, T = np.meshgrid(grid.r, grid.theta, indexing="ij")
    return R, T, R * np.cos(T), R * np.sin(T)


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
    _, _, X1, X2 = mesh(grid)
    assert abs(grid.integrate(one) - np.pi) < 1e-12
    assert abs(grid.integrate(X1**2) - np.pi / 4) < 1e-12
    assert abs(grid.integrate(X1 * X2)) < 1e-13


def test_integrate_general_smooth_field():
    f = lambda x1, x2: np.exp(x1 - 0.5 * x2) * (1.0 + 0.3 * x2**3)
    a = PolarGrid(24, 20)
    b = PolarGrid(40, 34)
    va = a.integrate(f(*mesh(a)[2:]))
    vb = b.integrate(f(*mesh(b)[2:]))
    assert abs(va - vb) < 1e-12


def harmonics(grid, field, floor=1e-12):
    """{j: p_j}: the angular harmonics of a (K, n_theta) field above `floor`."""
    fhat = grid.to_modes(field)
    return {int(j): fhat[:, c] for c, j in enumerate(grid.modes) if np.abs(fhat[:, c]).max() > floor}


def assemble(grid, field):
    """The (K, n_theta) field sum_j p_j(r) e^{i j theta} of {j: p_j}."""
    return sum(p[:, None] * np.exp(1j * j * grid.theta)[None, :] for j, p in field.items())


def test_gradient_on_polynomials():
    # the residuals' gradient rule, harmonic by harmonic, on x1^3 - 2 x1 x2^2
    grid = PolarGrid(18, 16)
    _, _, X1, X2 = mesh(grid)
    f = X1**3 - 2.0 * X1 * X2**2
    g1, g2 = (assemble(grid, d) for d in _gradient(grid, harmonics(grid, f)))
    assert np.max(np.abs(g1 - (3 * X1**2 - 2 * X2**2))) < 1e-10
    assert np.max(np.abs(g2 - (-4 * X1 * X2))) < 1e-10


def test_laplacian_polynomial_and_helmholtz():
    grid = PolarGrid(60, 24)
    R, T, X1, _ = mesh(grid)
    lap = {j: grid.harmonic_laplacian(p, j) for j, p in harmonics(grid, X1**4).items()}
    assert np.max(np.abs(assemble(grid, lap) - 12 * X1**2)) < 1e-8

    from scipy.special import jn_zeros

    m = 3
    lam = jn_zeros(m, 2)[-1]
    p = jv(m, lam * grid.r)
    res = grid.harmonic_laplacian(p, m) + lam**2 * p
    assert grid.harmonic_norm([res]) / grid.harmonic_norm([p]) < 1e-9


def test_mode_roundtrip_and_boundary_norm():
    grid = PolarGrid(12, 16)
    rng = np.random.default_rng(3)
    f = rng.standard_normal((grid.K, grid.n_theta))
    assert np.max(np.abs(grid.from_modes(grid.to_modes(f)) - f)) < 1e-12

    assert abs(_rim_norm([1.0]) - np.sqrt(2 * np.pi)) < 1e-12
    # the circle's norm of distinct harmonics from their r = 1 values
    field = {j: rng.standard_normal(grid.K) + 1j * rng.standard_normal(grid.K) for j in (-3, 0, 5)}
    row = assemble(grid, field)[0, :]
    want = EagerGrid(grid.K, grid.n_theta).boundary_norm(row)
    assert abs(_rim_norm(p[0] for p in field.values()) - want) <= 1e-14 * want


def test_norm_of_disk_eigenmode():
    from scipy.special import jn_zeros

    m, k = 5, 4
    lam = jn_zeros(m, k)[-1]
    grid = PolarGrid(60, 32)
    exact = np.sqrt(np.pi) * abs(jv(m + 1, lam))
    assert abs(grid.harmonic_norm([jv(m, lam * grid.r)]) - exact) < 1e-11


def test_rejects_bad_grid_shapes():
    with pytest.raises(ValueError):
        PolarGrid(10, 15)
    with pytest.raises(ValueError):
        RadialHalfGrid(2)


class EagerGrid:
    """The polar grid as it was built before its matrices became lazy.

    Every matrix and mesh is made in the constructor, and the Laplacian,
    radial derivative, gradient and divergence are separate compositions,
    each with its own angular transform and BLAS products over every
    angular column.  Kept as the oracle of `PolarGrid`'s first-use
    construction, of its single-harmonic operators and of the mode
    residuals taken on profiles.
    """

    def __init__(self, num_r: int, num_theta: int):
        self.K = int(num_r)
        self.N = 2 * self.K - 1
        j = np.arange(self.N + 1)
        self.x_full = np.cos(np.pi * j / self.N)
        self.r = self.x_full[: self.K]
        d_full = cheb_diff_matrix(self.x_full)
        cols = self.N - np.arange(self.K)
        d_direct = d_full[: self.K, : self.K]
        d_mirror = d_full[: self.K, cols]
        self.d_even = d_direct + d_mirror
        self.d_odd = d_direct - d_mirror
        coeff = cheb_coeff_matrix(self.N)
        w_full = coeff.T @ _abs_weight_moments(self.N)
        self.w_rdr = 0.5 * (w_full[: self.K] + w_full[cols])
        self.coeff = coeff
        self.n_theta = int(num_theta)
        self.theta = 2.0 * np.pi * np.arange(self.n_theta) / self.n_theta
        self.modes = np.fft.fftfreq(self.n_theta, 1.0 / self.n_theta).astype(int)
        self._even_cols = (self.modes % 2) == 0
        self.R, self.T = np.meshgrid(self.r, self.theta, indexing="ij")
        self.X1 = self.R * np.cos(self.T)
        self.X2 = self.R * np.sin(self.T)
        self.dtheta_weight = 2.0 * np.pi / self.n_theta

    def to_modes(self, field):
        return np.fft.fft(field, axis=1) / self.n_theta

    def from_modes(self, fhat):
        return np.fft.ifft(fhat * self.n_theta, axis=1)

    def _diff_modes(self, fhat, extra_parity=1):
        out = np.empty_like(fhat)
        ev = self._even_cols
        if extra_parity < 0:
            ev = ~ev
        out[:, ev] = self.d_even @ fhat[:, ev]
        out[:, ~ev] = self.d_odd @ fhat[:, ~ev]
        return out

    def dr(self, field):
        return self.from_modes(self._diff_modes(self.to_modes(field)))

    def laplacian(self, field):
        fhat = self.to_modes(field)
        d1 = self._diff_modes(fhat)
        d2 = self._diff_modes(d1, extra_parity=-1)
        rinv = 1.0 / self.r[:, None]
        out = d2 + rinv * d1 - (self.modes[None, :] ** 2) * rinv**2 * fhat
        return self.from_modes(out)

    def grad_cartesian(self, field):
        fhat = self.to_modes(field)
        fr = self.from_modes(self._diff_modes(fhat))
        ft_over_r = self.from_modes(1j * self.modes[None, :] * fhat / self.r[:, None])
        ct, st = np.cos(self.T), np.sin(self.T)
        return ct * fr - st * ft_over_r, st * fr + ct * ft_over_r

    def div_cartesian(self, f1, f2):
        d1, _ = self.grad_cartesian(f1)
        _, d2 = self.grad_cartesian(f2)
        return d1 + d2

    def integrate(self, field):
        ang = field.sum(axis=1) * self.dtheta_weight
        return complex(np.tensordot(self.w_rdr, ang, axes=(0, 0)))

    def norm(self, f):
        return float(np.sqrt(max(self.integrate(np.abs(f) ** 2).real, 0.0)))

    def boundary_norm(self, row):
        return float(np.sqrt(np.sum(np.abs(row) ** 2) * self.dtheta_weight))


LAZY = ("_d_parity", "_coeff", "w_rdr")


def built(grid):
    """The first-use members a polar grid has built so far."""
    return sorted(set(LAZY) & (set(vars(grid)) | set(vars(grid.radial))))


@pytest.mark.parametrize("num_r, num_theta", [(4, 4), (12, 18), (40, 32), (61, 96)])
def test_first_use_grid_matches_eager_construction(num_r, num_theta):
    grid, eager = PolarGrid(num_r, num_theta), EagerGrid(num_r, num_theta)
    assert built(grid) == []
    rad = grid.radial
    for name in ("d_even", "d_odd", "w_rdr"):
        assert np.array_equal(getattr(rad, name), getattr(eager, name)), name
    assert np.array_equal(rad._coeff, eager.coeff)
    for name in ("r", "theta", "modes"):
        assert np.array_equal(getattr(grid, name), getattr(eager, name)), name
    assert built(grid) == sorted(LAZY)
    # a second read returns the built member itself
    assert rad.d_even is rad.d_even and rad.w_rdr is rad.w_rdr


@pytest.mark.parametrize("num_r, num_theta", [(12, 18), (40, 32), (61, 96)])
def test_one_pass_derivatives_match_the_separate_compositions(num_r, num_theta):
    # the single-harmonic operators against the grid route, which takes
    # every angular column through a transform and a BLAS product: random
    # profiles times e^{i j theta} at even, odd, zero and negative j
    grid, eager = PolarGrid(num_r, num_theta), EagerGrid(num_r, num_theta)
    rng = np.random.default_rng(num_r)
    js = (0, 1, 2, 3, -1, -2, -5, num_theta // 2 - 1)
    profiles = {}
    for j in js:
        p = rng.standard_normal(grid.K) + 1j * rng.standard_normal(grid.K)
        profiles[j] = p
        field = assemble(grid, {j: p})
        for got, want in ((assemble(grid, {j: grid.harmonic_dr(p, j)}), eager.dr(field)),
                          (assemble(grid, {j: grid.harmonic_laplacian(p, j)}), eager.laplacian(field))):
            assert np.max(np.abs(got - want)) <= 1e-12 * np.max(np.abs(want)), j
        want = eager.norm(field)
        assert abs(grid.harmonic_norm([p]) - want) <= 1e-14 * want
    # Parseval over a sum of distinct harmonics
    want = eager.norm(assemble(grid, profiles))
    assert abs(grid.harmonic_norm(profiles.values()) - want) <= 1e-14 * want
