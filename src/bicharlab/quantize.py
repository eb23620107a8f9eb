"""Semiclassical operators, quadratic pairings, and phase-space densities.

Interior symbols are quantized on a periodic Cartesian box that strictly
contains the closed unit disk; fields supported in the disk are extended
by zero, which is exact as long as the symbol keeps a margin from the
boundary (enforced, never assumed).  Left quantization throughout: the
symbol is evaluated at the output point,

    (Op_h(a) f)(x) = sum_k  a(x, h k)  fhat_k  e^{i k.x},

with k running over the angular-frequency lattice of the box.  Separable
symbols sum(X_p(x) Xi_p(xi)) go through FFTs; everything else takes the
direct lattice sum, which is slower but makes no structural assumption.
The same symbol given by its evaluator alone takes the direct sum, so it
doubles as the cross-check oracle for the fast path.

Tangential symbols are a depth-frequency multiplier b(y, xi') times an
optional angular factor c(theta).  Left quantization of that product on
the polar grid of a mode is exact as one Fourier multiplier per depth,
with xi' evaluated at h times the integer angular frequency, followed by
a pointwise multiply by c(theta).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Optional, Sequence

import numpy as np

from .polar import PolarGrid

__all__ = [
    "BoxGrid",
    "SeparableTerm",
    "InteriorSymbol",
    "TangentialSymbol",
    "SupportMarginError",
    "BandlimitError",
    "default_box",
    "sample_mode_on_box",
    "apply_interior_op",
    "apply_shifted_op",
    "apply_tangential_op",
    "pairing",
    "shifted_pairing",
    "PairingSeries",
    "measure_sequence",
    "HusimiGrid",
    "husimi_grid",
]


class SupportMarginError(ValueError):
    """Symbol support reaches too close to the boundary for zero-extension."""


class BandlimitError(ValueError):
    """Frequency lattice cannot represent the symbol's declared xi box."""


class BoxGrid:
    """Uniform periodic grid on [-half, half)^2 with its frequency lattice.

    Fields are (n, n) arrays indexed [i, j] for (x1_i, x2_j).  `k` holds
    the angular frequencies in numpy FFT order, so a field equals
    sum_k fhat_k e^{i k.x} with fhat = fft2(f) / n^2.  Every box has the
    same half width, 1.5, which leaves the unit disk a margin of 0.5.
    """

    half = 1.5

    def __init__(self, n: int):
        if n < 8 or n % 2:
            raise ValueError("n must be even and >= 8")
        self.n = int(n)
        self.dx = 2.0 * self.half / self.n
        self.x = -self.half + self.dx * np.arange(self.n)
        self.X1, self.X2 = np.meshgrid(self.x, self.x, indexing="ij")
        self.k = 2.0 * np.pi * np.fft.fftfreq(self.n, d=self.dx)
        self.K1, self.K2 = np.meshgrid(self.k, self.k, indexing="ij")
        self.kmax = np.pi / self.dx
        self.dk = np.pi / self.half
        self.cell = self.dx * self.dx

    def inner(self, f: np.ndarray, g: np.ndarray) -> complex:
        return complex(self.cell * np.sum(f * np.conj(g)))

    def norm(self, f: np.ndarray) -> float:
        return float(np.sqrt(max(self.inner(f, f).real, 0.0)))

    def disk_mask(self) -> np.ndarray:
        return (self.X1**2 + self.X2**2) <= 1.0


def default_box(h: float, xi_bound: float) -> BoxGrid:
    """Smallest comfortable grid whose lattice covers |xi| <= xi_bound."""
    half = BoxGrid.half
    n = int(math.ceil((xi_bound / h + 4.0 * np.pi / (2.0 * half)) * 2.0 * half / np.pi))
    n = max(32, n + (n % 2) + 8)
    return BoxGrid(n)


@dataclass(frozen=True)
class SeparableTerm:
    x_factor: Callable[[np.ndarray, np.ndarray], np.ndarray]
    xi_factor: Callable[[np.ndarray, np.ndarray], np.ndarray]


class InteriorSymbol:
    """Scalar symbol a(x, xi) with compact spatial support inside the disk.

    Either a list of separable terms (fast FFT application) or a general
    vectorized evaluator a(x1, x2, xi1, xi2).  `xi_bound` declares the
    frequency box on which the symbol is meant to act; operators refuse
    when the lattice of the target grid cannot cover it.  General symbols
    must also declare `x_envelope`, a nonnegative function whose support
    contains the spatial support, because the margin check cannot infer
    it from an opaque evaluator.

    `invariant`, when given, is a vectorized function of (x1, x2, xi1, xi2)
    that is a factor of the symbol and depends on |xi| and x wedge xi
    only; both are conserved by the disk billiard, so wherever it is 0
    the symbol is 0 along the whole broken ray.  Transport uses it to skip
    those points.  `None` (the default, and the only safe value for an
    opaque evaluator) claims nothing.
    """

    def __init__(
        self,
        *,
        terms: Optional[Sequence[SeparableTerm]] = None,
        evaluator: Optional[Callable] = None,
        xi_bound: float,
        x_envelope: Optional[Callable] = None,
        invariant: Optional[Callable] = None,
        name: str = "",
    ):
        if terms is None and evaluator is None:
            raise ValueError("need terms or an evaluator")
        self.terms = tuple(terms) if terms is not None else None
        self.xi_bound = float(xi_bound)
        self.invariant = invariant
        self.name = name
        if self.xi_bound < 0:
            raise ValueError("xi_bound must be nonnegative")
        if evaluator is not None:
            self._evaluator = evaluator
        else:

            def _from_terms(x1, x2, xi1, xi2):
                acc = 0.0
                for t in self.terms:
                    acc = acc + t.x_factor(x1, x2) * t.xi_factor(xi1, xi2)
                return acc

            self._evaluator = _from_terms
        if x_envelope is not None:
            self._envelope = x_envelope
        elif self.terms is not None:

            def _term_envelope(x1, x2):
                acc = 0.0
                for t in self.terms:
                    acc = acc + np.abs(t.x_factor(x1, x2))
                return acc

            self._envelope = _term_envelope
        else:
            raise ValueError("general symbols must declare x_envelope")

    def eval(self, x1, x2, xi1, xi2) -> np.ndarray:
        return self._evaluator(x1, x2, xi1, xi2)

    def support_radius(self, grid: BoxGrid) -> float:
        env = np.abs(self._envelope(grid.X1, grid.X2))
        live = env > 1e-13  # smaller envelope values count as zero
        if not live.any():
            return 0.0
        return float(np.max(np.hypot(grid.X1[live], grid.X2[live])))

    def check_margin(self, grid: BoxGrid) -> None:
        rad = self.support_radius(grid)
        bound = 1.0 - 2.0 * grid.dx
        if rad > bound:
            raise SupportMarginError(
                f"symbol support reaches |x| = {rad:.4f}, needs <= {bound:.4f} "
                f"(two cells inside the unit circle at n = {grid.n})"
            )


class TangentialSymbol:
    """Collar symbol b(y, xi') c(theta), vanishing for y >= y_support.

    `multiplier(y, xip)` is the depth-frequency factor b and `angular(theta)`
    the factor c; `None` means c = 1.  The constructor samples the
    multiplier past y_support and refuses one that fails to vanish there,
    which makes the product vanish at every angle.
    """

    def __init__(
        self,
        multiplier: Callable,
        *,
        y_support: float,
        angular: Optional[Callable] = None,
        name: str = "",
    ):
        if not 0.0 < y_support < 1.0:
            raise ValueError("y_support must lie in (0, 1)")
        self.y_support = float(y_support)
        self.multiplier = multiplier
        self.angular = angular
        self.name = name
        probe_y = np.linspace(self.y_support, 0.999, 24)[:, None]
        probe_xi = np.linspace(-4.0, 4.0, 17)[None, :]
        worst = float(np.max(np.abs(multiplier(probe_y, probe_xi))))
        if worst > 1e-12:
            raise ValueError(
                f"tangential symbol must vanish for y >= y_support, "
                f"found |a| = {worst:.2e}"
            )


def sample_mode_on_box(mode, grid: BoxGrid) -> np.ndarray:
    """Velocity components on the box, zero outside the closed disk.

    The closed form is evaluated at the disk nodes only, where the Bessel
    argument stays below lam; the rest of the box is left at +0.0.
    """
    inside = grid.disk_mask()
    vals = mode.eval_velocity(np.stack([grid.X1[inside], grid.X2[inside]], axis=-1))
    comps = np.zeros((vals.shape[-1], grid.n, grid.n), dtype=complex)
    comps[:, inside] = vals.T
    return comps


def _check_bandlimit(a: InteriorSymbol, h: float, grid: BoxGrid) -> None:
    reach = h * (grid.kmax - 2.0 * grid.dk)
    if a.xi_bound > reach:
        raise BandlimitError(
            f"declared xi box {a.xi_bound:.3f} exceeds lattice reach "
            f"{reach:.3f} at n = {grid.n}, h = {h:.3g}"
        )


def apply_interior_op(
    a: InteriorSymbol,
    f: np.ndarray,
    h: float,
    grid: BoxGrid,
    *,
    check: bool = True,
) -> np.ndarray:
    """Left quantization of `a` at parameter h applied to a box field.

    Separable terms take the FFT path, an evaluator the direct lattice sum.
    """
    if check:
        a.check_margin(grid)
        _check_bandlimit(a, h, grid)
    if a.terms is not None:
        fhat = np.fft.fft2(f)
        out = np.zeros_like(fhat)
        for t in a.terms:
            out += t.x_factor(grid.X1, grid.X2) * np.fft.ifft2(
                t.xi_factor(h * grid.K1, h * grid.K2) * fhat
            )
        return out
    # direct lattice sum, chunked over the first frequency axis
    n = grid.n
    F = _plane_coeffs(f, grid)
    E = np.exp(1j * np.outer(grid.k, grid.x))  # E[m, j] = e^{i k_m x_j}
    out = np.zeros((n, n), dtype=complex)
    x1 = grid.x[:, None, None]
    x2 = grid.x[None, :, None]
    hk2 = h * grid.k[None, None, :]
    for m1 in range(n):
        A = np.asarray(a.eval(x1, x2, h * grid.k[m1], hk2))
        if A.ndim != 3:
            A = np.broadcast_to(A, (n, n, n))
        out += E[m1][:, None] * np.einsum("abm,mb->ab", A, F[m1][:, None] * E)
    return out


def _plane_coeffs(f: np.ndarray, grid: BoxGrid) -> np.ndarray:
    """Coefficients of f in the e^{i k.x} basis (box-origin phase applied)."""
    return np.fft.fft2(f) / grid.n**2 * np.exp(1j * grid.half * (grid.K1 + grid.K2))


def _synthesize(coeffs: np.ndarray, grid: BoxGrid) -> np.ndarray:
    return np.fft.ifft2(coeffs * np.exp(-1j * grid.half * (grid.K1 + grid.K2))) * grid.n**2


def _lattice_positions(n: int):
    """Positions of the n-lattice integer frequencies inside a 2n lattice."""
    return np.fft.fftfreq(n, 1.0 / n).astype(int) % (2 * n)


def apply_shifted_op(
    a: InteriorSymbol,
    s: float,
    f: np.ndarray,
    h: float,
    grid: BoxGrid,
    *,
    check: bool = True,
) -> np.ndarray:
    """Left quantization of the free-transported symbol a(x + 2 s xi, xi).

    Needs separable terms.  Writing 2 k_p.k_q = |k_p+k_q|^2 - |k_p|^2 -
    |k_q|^2 turns the shifted action into chirped coefficients, one
    frequency-lattice convolution per term, and an unchirped synthesis,
    so no dense (x, xi) sum is ever formed.  The convolution runs on a
    zero-padded double lattice, which makes it the exact linear one;
    output frequencies beyond the original lattice are discarded, which
    is the projection any pairing against a resolved field performs
    anyway.
    """
    if a.terms is None:
        raise ValueError("shifted application needs separable terms")
    s = float(s)
    if s == 0.0:
        # the zero-time flow is the identity, so match the plain route
        # exactly instead of reprojecting through the double lattice
        return apply_interior_op(a, f, h, grid, check=check)
    if check:
        rad = a.support_radius(grid) + 2.0 * abs(s) * a.xi_bound
        bound = 1.0 - 2.0 * grid.dx
        if rad > bound:
            raise SupportMarginError(
                f"transported support reaches |x| = {rad:.4f}, needs <= "
                f"{bound:.4f} (shift 2|s| xi_bound = {2 * abs(s) * a.xi_bound:.3f})"
            )
        _check_bandlimit(a, h, grid)
    n = grid.n
    pos = _lattice_positions(n)
    k2 = grid.dk * np.fft.fftfreq(2 * n, 1.0 / (2 * n)).astype(int)
    unchirp2 = np.exp(1j * s * h * (k2[:, None] ** 2 + k2[None, :] ** 2))
    chirp = np.exp(-1j * s * h * (grid.K1**2 + grid.K2**2))
    cu = _plane_coeffs(f, grid) * chirp
    out2 = np.zeros((2 * n, 2 * n), dtype=complex)
    P2 = np.zeros_like(out2)
    Q2 = np.zeros_like(out2)
    sel = np.ix_(pos, pos)
    for t in a.terms:
        P2[sel] = _plane_coeffs(
            np.asarray(t.x_factor(grid.X1, grid.X2), dtype=complex), grid
        ) * chirp
        Q2[sel] = t.xi_factor(h * grid.K1, h * grid.K2) * cu
        out2 += np.fft.fft2(np.fft.ifft2(P2) * np.fft.ifft2(Q2)) * (2 * n) ** 2
    return _synthesize((out2 * unchirp2)[sel], grid)


def apply_tangential_op(
    a: TangentialSymbol, f: np.ndarray, h: float, grid: PolarGrid
) -> np.ndarray:
    """Quantize a collar symbol on the polar grid, y = 1 - r per row."""
    mult = a.multiplier((1.0 - grid.r)[:, None], h * grid.modes.astype(float)[None, :])
    out = grid.from_modes(mult * grid.to_modes(f))
    if a.angular is not None:
        out *= a.angular(grid.theta)[None, :]
    return out


def pairing(
    a,
    mode,
    *,
    grid: Optional[BoxGrid] = None,
    check: bool = True,
) -> complex:
    """Quadratic form (Op_h(a) u | u), summed over velocity components."""
    h = mode.h
    if isinstance(a, TangentialSymbol):
        g = mode.grid
        total = 0.0 + 0.0j
        for u in mode.velocity:
            total += g.inner(apply_tangential_op(a, u, h, g), u)
        return complex(total)
    if not isinstance(a, InteriorSymbol):
        raise TypeError("expected an InteriorSymbol or TangentialSymbol")
    return _box_pairing(
        a, mode, grid, lambda u, g: apply_interior_op(a, u, h, g, check=check)
    )


def _box_pairing(a: InteriorSymbol, mode, grid: Optional[BoxGrid], apply) -> complex:
    """Sum of (apply(u, grid) | u) over the mode's velocity components on a box.

    The box defaults to `default_box(mode.h, a.xi_bound)`.
    """
    if grid is None:
        grid = default_box(mode.h, a.xi_bound)
    total = 0.0 + 0.0j
    for u in sample_mode_on_box(mode, grid):
        total += grid.inner(apply(u, grid), u)
    return complex(total)


def shifted_pairing(
    a: InteriorSymbol,
    s: float,
    mode,
    *,
    grid: Optional[BoxGrid] = None,
    check: bool = True,
) -> complex:
    """Quadratic form of the free-transported symbol a(x + 2 s xi, xi).

    Valid as the broken-flow pullback only while every ray feeding the
    support stays strictly inside the disk over the shift; the margin
    check inside apply_shifted_op enforces the conservative version of
    that geometry.
    """
    return _box_pairing(
        a, mode, grid, lambda u, g: apply_shifted_op(a, s, u, mode.h, g, check=check)
    )


@dataclass
class PairingSeries:
    """Pairings along a mode family ordered by decreasing h."""

    hs: np.ndarray
    values: np.ndarray
    gaps: np.ndarray
    limit: Optional[complex]
    extrapolated: bool

    def rows(self):
        for h, v in zip(self.hs, self.values):
            yield {"h": float(h), "re": float(v.real), "im": float(v.imag)}


def measure_sequence(
    a,
    modes: Sequence,
    *,
    grid: Optional[BoxGrid] = None,
    pairing_fn: Optional[Callable] = None,
) -> PairingSeries:
    """Pair a symbol along a family and extrapolate the h -> 0 limit.

    Linear-in-h fit through the last three members gives the reported
    limit; with fewer than three modes extrapolation is refused and only
    the raw values are returned.  Successive gaps are always reported.
    """
    hs = np.array([m.h for m in modes], dtype=float)
    if len(hs) == 0:
        raise ValueError("empty mode family")
    if np.any(np.diff(hs) >= 0.0):
        raise ValueError("modes must be ordered by strictly decreasing h")
    fn = pairing_fn if pairing_fn is not None else (lambda s, m: pairing(s, m, grid=grid))
    values = np.array([fn(a, m) for m in modes], dtype=complex)
    gaps = np.abs(np.diff(values))
    if len(modes) >= 3:
        design = np.stack([np.ones(3), hs[-3:]], axis=1)
        coef, *_ = np.linalg.lstsq(design, values[-3:], rcond=None)
        limit: Optional[complex] = complex(coef[0])
        extrapolated = True
    else:
        limit = None
        extrapolated = False
    return PairingSeries(hs, values, gaps, limit, extrapolated)


@dataclass
class HusimiGrid:
    """Nonnegative phase-space density on a (x1, x2, xi1, xi2) grid."""

    x_axis: np.ndarray
    xi_axis: np.ndarray
    density: np.ndarray
    cell_volume: float

    def mass(self) -> float:
        return float(self.density.sum() * self.cell_volume)


def husimi_grid(
    source,
    h: Optional[float] = None,
    *,
    box: Optional[BoxGrid] = None,
    nx: int = 24,
    nxi: int = 25,
    x_max: float = 1.25,
    xi_max: float = 1.6,
) -> HusimiGrid:
    """Coherent-state density |<phi_{x,xi}, u>|^2 / (2 pi h)^2 on a phase grid.

    `source` is a mode (components sampled on the box, h taken from it) or
    a raw box field / stack of fields with `h` given explicitly.  The xi
    axis snaps to the frequency lattice, so overlaps are entries of DFTs:
    per x0 row and component, one batched 1-D FFT along x1 and one along
    x2 for every y0 at once, both numpy's pocketfft.  No BLAS call enters,
    so the bytes do not depend on the thread count.  Cells wider than
    about sqrt(h) under-resolve the coherent widths and the mass check
    drifts; callers pick nx, nxi accordingly.
    """
    if hasattr(source, "velocity"):
        h = source.h
        if box is None:
            box = default_box(h, xi_max + 1.0)
        comps = sample_mode_on_box(source, box)
    else:
        if h is None or box is None:
            raise ValueError("raw fields need explicit h and box")
        comps = np.asarray(source, dtype=complex)
        if comps.ndim == 2:
            comps = comps[None, :, :]
    lattice = h * box.k
    targets = np.linspace(-xi_max, xi_max, nxi)
    idx = np.unique([int(np.argmin(np.abs(lattice - t))) for t in targets])
    idx = idx[np.argsort(lattice[idx])]
    xi_axis = lattice[idx]
    if len(xi_axis) < 2:
        raise ValueError("frequency lattice too coarse for the xi axis")
    dxi = float(np.mean(np.diff(xi_axis)))
    x_axis = np.linspace(-x_max, x_max, nx)
    # the window g(x1 - x0) g(x2 - y0) is separable; one x0 row at a time
    # bounds the work array at (nx, len(idx), n)
    g = np.exp(-((box.x[None, :] - x_axis[:, None]) ** 2) / (2.0 * h))
    dens = np.zeros((nx, nx, len(idx), len(idx)))
    for i in range(nx):
        for u in comps:
            V = np.fft.fft(g[i][:, None] * u, axis=0)[idx]
            G = np.fft.fft(V[None] * g[:, None, :], axis=2)[:, :, idx]
            dens[i] += np.abs(G) ** 2
    dens *= (box.cell / np.sqrt(np.pi * h)) ** 2 / (2.0 * np.pi * h) ** 2
    dx0 = float(x_axis[1] - x_axis[0]) if nx > 1 else 1.0
    return HusimiGrid(x_axis, xi_axis, dens, (dx0 * dxi) ** 2)
