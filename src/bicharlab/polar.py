"""Spectral tensor grid on the unit disk.

Fourier transforms in the angle, Chebyshev differentiation in the
radius.  The radial nodes are the positive half of a Lobatto grid of odd
degree, so there is no node at r = 0 and every smooth field on the disk
splits into angular harmonics p(r) e^{i j theta} whose radial profiles
extend evenly or oddly through the origin, with the parity of j.  The
Laplacian acts on each harmonic separately, so the calculus works on one
profile at a time, and the L2 norm of a sum of distinct harmonics is a
sum over their profiles (Parseval).  Quadrature uses Clenshaw-Curtis
style weights for the measure r dr.
"""

from __future__ import annotations

from functools import cached_property

import numpy as np
from numpy.polynomial import chebyshev as _cheb

__all__ = ["cheb_diff_matrix", "cheb_coeff_matrix", "RadialHalfGrid", "PolarGrid"]


def cheb_diff_matrix(x: np.ndarray) -> np.ndarray:
    """Differentiation matrix on Chebyshev-Lobatto nodes x_j = cos(j pi / N)."""
    n = len(x) - 1
    c = np.ones(n + 1)
    c[0] = c[n] = 2.0
    c = c * (-1.0) ** np.arange(n + 1)
    dx = x[:, None] - x[None, :]
    d = np.outer(c, 1.0 / c) / (dx + np.eye(n + 1))
    # negative sum trick keeps rows exact on constants
    d -= np.diag(d.sum(axis=1))
    return d


def cheb_coeff_matrix(n: int) -> np.ndarray:
    """Map nodal values on the degree-n Lobatto grid to Chebyshev coefficients."""
    j = np.arange(n + 1)
    mat = np.cos(np.pi * np.outer(j, j) / n) * (2.0 / n)
    mat[:, 0] *= 0.5
    mat[:, -1] *= 0.5
    mat[0, :] *= 0.5
    mat[-1, :] *= 0.5
    return mat


def _abs_weight_moments(n: int) -> np.ndarray:
    """Moments of |x| against T_k on [-1, 1], k = 0..n, in closed form.

    For k = 2j the moment is 1 / (1 - j^2) when j is even and 0 when j is
    odd (j = 1 included); odd k give 0 by symmetry.
    """
    mom = np.zeros(n + 1)
    j = np.arange(0, n + 1, 4) / 2
    mom[::4] = 1.0 / (1.0 - j * j)
    return mom


class RadialHalfGrid:
    """K Chebyshev nodes in (0, 1], descending from r = 1.

    Profiles are differentiated via their even or odd extension through
    r = 0, and integrated against r dr with spectral accuracy.  The
    differentiation, coefficient and quadrature matrices are built on
    first use.
    """

    def __init__(self, num_nodes: int):
        if num_nodes < 4:
            raise ValueError("need at least 4 radial nodes")
        self.K = int(num_nodes)
        self.N = 2 * self.K - 1
        j = np.arange(self.N + 1)
        self.x_full = np.cos(np.pi * j / self.N)
        self.r = self.x_full[: self.K]
        # node N - i of the full grid sits at -r_i
        self._mirror = self.N - np.arange(self.K)

    @cached_property
    def _d_parity(self) -> tuple[np.ndarray, np.ndarray]:
        d_full = cheb_diff_matrix(self.x_full)
        direct, mirror = d_full[: self.K, : self.K], d_full[: self.K, self._mirror]
        return direct + mirror, direct - mirror

    @property
    def d_even(self) -> np.ndarray:
        """d/dr of profiles that extend evenly through r = 0."""
        return self._d_parity[0]

    @property
    def d_odd(self) -> np.ndarray:
        """d/dr of profiles that extend oddly through r = 0."""
        return self._d_parity[1]

    @cached_property
    def _coeff(self) -> np.ndarray:
        return cheb_coeff_matrix(self.N)

    @cached_property
    def w_rdr(self) -> np.ndarray:
        """Quadrature weights of the nodes for the measure r dr on (0, 1)."""
        w_full = self._coeff.T @ _abs_weight_moments(self.N)
        return 0.5 * (w_full[: self.K] + w_full[self._mirror])

    def coeffs(self, prof: np.ndarray, parity: int) -> np.ndarray:
        """Chebyshev coefficients of the parity extension of a profile."""
        # nodes K..N sit at -r_{K-1}, ..., -r_0
        full = np.concatenate([prof, float(parity) * prof[::-1]], axis=0)
        return self._coeff @ full

    def interp(self, prof: np.ndarray, parity: int, r_new: np.ndarray) -> np.ndarray:
        """Evaluate the spectral interpolant of a profile at new radii."""
        a = self.coeffs(prof, parity)
        return _cheb.chebval(np.asarray(r_new), a)

    def integrate_rdr(self, prof: np.ndarray) -> np.ndarray:
        """Integral over (0,1) against r dr for even-extendable profiles."""
        return np.tensordot(self.w_rdr, prof, axes=(0, 0))


class PolarGrid:
    """Tensor grid: K radii (descending from 1) by n_theta equispaced angles.

    Fields are arrays of shape (K, n_theta).  Angular transforms follow the
    numpy FFT layout; `modes` gives the integer frequency of each column of
    a transformed field.  A harmonic's profile is an array of shape (K,).
    """

    def __init__(self, num_r: int, num_theta: int):
        if num_theta % 2 or num_theta < 4:
            raise ValueError("n_theta must be even and >= 4")
        self.radial = RadialHalfGrid(num_r)
        self.K = self.radial.K
        self.n_theta = int(num_theta)
        self.theta = 2.0 * np.pi * np.arange(self.n_theta) / self.n_theta
        self.r = self.radial.r
        self.modes = np.fft.fftfreq(self.n_theta, 1.0 / self.n_theta).astype(int)
        self.dtheta_weight = 2.0 * np.pi / self.n_theta

    # -- transforms -------------------------------------------------

    def to_modes(self, field: np.ndarray) -> np.ndarray:
        return np.fft.fft(field, axis=1) / self.n_theta

    def from_modes(self, fhat: np.ndarray) -> np.ndarray:
        return np.fft.ifft(fhat * self.n_theta, axis=1)

    # -- one harmonic p(r) e^{i j theta} ------------------------------

    def _check_profile(self, prof: np.ndarray) -> None:
        if np.shape(prof) != (self.K,):
            raise ValueError(
                f"profile must have the grid's K = {self.K} radii, got shape {np.shape(prof)}"
            )

    def harmonic_dr(self, prof: np.ndarray, j: int) -> np.ndarray:
        """p' of the harmonic p(r) e^{i j theta}; p extends through r = 0
        with the parity of j, which picks `d_even` or `d_odd`.

        Contract: prof has shape (K,), else ValueError.
        """
        self._check_profile(prof)
        d = self.radial.d_even if j % 2 == 0 else self.radial.d_odd
        # einsum without `optimize` sums outside BLAS, so the bits do not
        # depend on the BLAS thread count
        return np.einsum("ij,j->i", d, prof)

    def harmonic_laplacian(self, prof: np.ndarray, j: int) -> np.ndarray:
        """p'' + p'/r - j^2 p / r^2, the Laplacian of p(r) e^{i j theta};
        p' has the other parity, so its derivative takes the other matrix.

        Contract: prof has shape (K,), else ValueError.
        """
        d1 = self.harmonic_dr(prof, j)
        rinv = 1.0 / self.r
        return self.harmonic_dr(d1, j + 1) + rinv * d1 - (j * j) * rinv**2 * prof

    def harmonic_norm(self, profiles) -> float:
        """L2 norm over the disk of a sum of distinct harmonics, given their
        profiles: (2 pi sum_j int |p_j|^2 r dr)^{1/2} by Parseval.

        Contract: each profile has shape (K,), else ValueError.
        """
        power = 0.0
        for prof in profiles:
            self._check_profile(prof)
            power = power + np.abs(prof) ** 2
        return float(np.sqrt(max(2.0 * np.pi * self.radial.integrate_rdr(power), 0.0)))

    # -- measure ----------------------------------------------------

    def integrate(self, field: np.ndarray) -> complex:
        """Integral over the disk, Lebesgue measure r dr dtheta."""
        ang = field.sum(axis=1) * self.dtheta_weight
        return complex(self.radial.integrate_rdr(ang))

    def inner(self, f: np.ndarray, g: np.ndarray) -> complex:
        return self.integrate(f * np.conj(g))

    def interp_modes_radial(
        self, fhat_col: np.ndarray, mode: int, r_new: np.ndarray
    ) -> np.ndarray:
        parity = 1 if mode % 2 == 0 else -1
        return self.radial.interp(fhat_col, parity, r_new)
