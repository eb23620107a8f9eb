"""Semiclassical operators, quadratic pairings, and phase-space densities.

Interior symbols are quantized on a periodic Cartesian box that strictly
contains the closed unit disk; fields supported in the disk are extended
by zero, which is exact as long as the symbol keeps a margin from the
boundary (enforced, never assumed).  Left quantization throughout: the
symbol is evaluated at the output point,

    (Op_h(a) f)(x) = sum_k  a(x, h k)  fhat_k  e^{i k.x},

with k running over the angular-frequency lattice of the box.  An
interior symbol is a spatial factor times a function of |xi| times a
function of the angular momentum x wedge xi.  Without the momentum
factor it is one separable term and goes through FFTs; with it the
direct lattice sum runs, which is slower but makes no structural
assumption; it runs in the FFT convention too, as the box-origin phase
of the coefficients and the node phase of e^{i k.x} cancel.  A pullback
symbol with an `eval` and a `xi_bound` takes the direct sum too, and the
same symbol with momentum factor 1 doubles as the cross-check oracle for
the fast path.  The type decides the check:
the operators check an InteriorSymbol's margin and lattice reach at
their entry, and a pullback, which has no spatial factor, never.

Tangential symbols are a depth-frequency multiplier b(y, xi') times an
optional angular factor c(theta).  Left quantization of that product on
the polar grid of a mode is exact as one Fourier multiplier per depth,
with xi' evaluated at h times the integer angular frequency, followed by
a pointwise multiply by c(theta).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, NamedTuple, Optional, Sequence

import numpy as np

from .modes import Quasimode
from .polar import PolarGrid

__all__ = [
    "BoxGrid",
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


# least |xi| reach of a pairing box: the modes live at |xi| = 1,
# so a lattice sized from a smaller symbol box aliases them
XI_FLOOR = 1.5


class SupportMarginError(ValueError):
    """Symbol support reaches too close to the boundary for zero-extension."""


class BandlimitError(ValueError):
    """Frequency lattice cannot represent the symbol's declared xi box."""


class BoxGrid:
    """Uniform periodic grid on [-half, half)^2 with its frequency lattice.

    Fields are (n, n) arrays indexed [i, j] for (x1_i, x2_j).  `k` holds
    the angular frequencies in numpy FFT order, so a field equals
    sum_k fhat_k e^{i k.x} with fhat = fft2(f) / n^2.  `X1`, `X2`, `K1`
    and `K2` are the axes as broadcast views, (n, 1) and (1, n), so a
    grid holds O(n) numbers.  Every box has the same half width, 1.5,
    which leaves the unit disk a margin of 0.5.  The axis is built from
    integer offsets of the centre node n // 2, so x[n - j] == -x[j]
    exactly and the symmetries of the square map box nodes onto box nodes.
    """

    half = 1.5

    def __init__(self, n: int):
        if n < 8 or n % 2:
            raise ValueError("n must be even and >= 8")
        self.n = int(n)
        self.dx = 2.0 * self.half / self.n
        self.x = self.dx * (np.arange(self.n) - self.n // 2)
        self.X1, self.X2 = self.x[:, None], self.x[None, :]
        self.k = 2.0 * np.pi * np.fft.fftfreq(self.n, d=self.dx)
        self.K1, self.K2 = self.k[:, None], self.k[None, :]
        self.kmax = np.pi / self.dx
        self.dk = np.pi / self.half
        self.cell = self.dx * self.dx

    def inner(self, f: np.ndarray, g: np.ndarray) -> complex:
        return complex(self.cell * np.sum(f * np.conj(g)))


def default_box(h: float, xi_bound: float) -> BoxGrid:
    """Smallest comfortable grid whose lattice covers |xi| <= xi_bound.

    Contract: h finite and > 0, xi_bound finite and >= 0; ValueError otherwise.
    """
    if not 0.0 < h < math.inf:
        raise ValueError(f"default_box needs a finite h > 0, got h = {h!r}")
    if not 0.0 <= xi_bound < math.inf:
        raise ValueError(
            f"default_box needs a finite xi_bound >= 0, got xi_bound = {xi_bound!r}"
        )
    half = BoxGrid.half
    n = int(math.ceil((xi_bound / h + 4.0 * np.pi / (2.0 * half)) * 2.0 * half / np.pi))
    n = max(32, n + (n % 2) + 8)
    return BoxGrid(n)


class _Fiber(NamedTuple):
    """speed(|xi|) momentum(x wedge xi), the fiber factor of an InteriorSymbol.

    Either factor may be None, which means 1.  Calling it evaluates the
    product, which is the symbol's `invariant`.
    """

    speed: Optional[Callable]
    momentum: Optional[Callable]

    def times(self, out, x1, x2, xi1, xi2):
        # spatial * speed, then * momentum: one multiply order for all callers
        if self.speed is not None:
            out = out * self.speed(np.hypot(xi1, xi2))
        if self.momentum is not None:
            out = out * self.momentum(x1 * xi2 - x2 * xi1)
        return out

    def __call__(self, x1, x2, xi1, xi2):
        return self.times(1.0, x1, x2, xi1, xi2)


class InteriorSymbol:
    """Interior symbol a(x, xi) = spatial(x) speed(|xi|) momentum(x wedge xi).

    `spatial(x1, x2)` carries the compact support inside the disk; its
    absolute value is the envelope the margin check reads.  `speed(r)` is
    a function of r = |xi| and `momentum(l)` one of l = x1 xi2 - x2 xi1;
    `None` means 1.  `xi_bound` declares the frequency box on which the
    symbol is meant to act; operators refuse when the lattice of the
    target grid cannot cover it.

    Without a momentum factor the symbol is one separable term, which the
    operators apply by FFTs; with one they take the direct lattice sum.

    `invariant` is speed(|xi|) momentum(x wedge xi), or `None` when both
    factors are `None`.  The disk billiard conserves |xi| and x wedge xi,
    so wherever the invariant is 0 the symbol is 0 along the whole broken
    ray; transport uses it to skip those points.
    """

    def __init__(
        self,
        spatial: Callable,
        speed: Optional[Callable] = None,
        momentum: Optional[Callable] = None,
        *,
        xi_bound: float,
        name: str = "",
    ):
        self.spatial = spatial
        self.speed = speed
        self.momentum = momentum
        self.xi_bound = float(xi_bound)
        self.name = name
        if self.xi_bound < 0:
            raise ValueError("xi_bound must be nonnegative")

    def eval(self, x1, x2, xi1, xi2) -> np.ndarray:
        return _Fiber(self.speed, self.momentum).times(self.spatial(x1, x2), x1, x2, xi1, xi2)

    @property
    def invariant(self) -> Optional[_Fiber]:
        if self.speed is None and self.momentum is None:
            return None
        return _Fiber(self.speed, self.momentum)


def _support_radius(spatial, grid: BoxGrid) -> float:
    """Largest |x| of a box node where `spatial`, the symbol's spatial
    factor sampled on the box, is nonzero; 0 when it is zero everywhere."""
    env = np.abs(np.broadcast_to(spatial, (grid.n, grid.n)))
    i, j = np.nonzero(env > 1e-13)  # smaller envelope values count as zero
    if i.size == 0:
        return 0.0
    return float(np.max(np.hypot(grid.x[i], grid.x[j])))


def _margin_bound(grid: BoxGrid) -> float:
    """Largest support radius the zero-extension takes: two cells inside the circle."""
    return 1.0 - 2.0 * grid.dx


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


# complex entries per block of `husimi_grid`'s second pass, (centre
# columns, xi, box columns): a box of 236 columns takes 4 centre columns
HUSIMI_NODES = 1 << 15
# half-widths of `husimi_grid`'s window centres: x reaches past the unit
# disk and xi past the unit energy shell
HUSIMI_X_MAX = 1.25
HUSIMI_XI_MAX = 1.6


def _times_i_power(z: np.ndarray, k: int) -> np.ndarray:
    """i**k z by swapping and negating real and imaginary parts: exact to the bit."""
    k %= 4
    if k % 2 == 0:
        return z if k == 0 else -z
    out = np.empty_like(z)
    out.real, out.imag = (-z.imag, z.real) if k == 1 else (z.imag, -z.real)
    return out


def sample_mode_on_box(mode, grid: BoxGrid, cutoff: Optional[Callable] = None) -> np.ndarray:
    """Velocity components on the box, zero outside the closed disk.

    The closed form is evaluated at the disk nodes of one octant, 0 <=
    x2 <= x1, where the Bessel argument stays below lam; the rest of the
    box is left at +0.0.  With `cutoff`, a function of |x|, the components
    are multiplied by it, and the closed form is evaluated only at the
    octant nodes where it is nonzero.

    The other seven octants are the images under the symmetries of the
    square, the dihedral group D4, which map box nodes onto box nodes
    because x[n - j] == -x[j] exactly.  For the quarter turn R(x1, x2) =
    (-x2, x1), u(R x) = i^m R u(x), with R u = (-u_y, u_x) on the two
    components of a Stokes mode; the reflection x2 -> -x2 takes (u_x,
    u_y) to (-conj u_x, conj u_y) for a Stokes mode and u to conj u for a
    Laplace mode, since both are c F(rho) e^{i m theta} with c and F real.
    Each image is written by swaps and sign changes of the octant values,
    so it is exact to the bit, and the octant nodes, written last, hold
    the closed form itself.  A node on a diagonal |x1| = |x2| is the image
    of its octant node under two elements and holds the one written last,
    so the mirror identity holds exactly off the diagonals and to
    round-off on them.  The filled values agree with a per-node
    evaluation to the round-off of the closed form.

    Contract: `mode` is a `modes.Quasimode`, whose closed form has the
    symmetry of the square; TypeError otherwise.
    """
    if not isinstance(mode, Quasimode):
        raise TypeError("sample_mode_on_box takes a disk mode, whose sample is rotation symmetric")
    n, c = grid.n, grid.n // 2
    q = grid.x[c:][grid.x[c:] ** 2 <= 1.0]  # x[c + i] == q[i] >= 0
    i, j = np.nonzero(np.tril(q[:, None] ** 2 + q[None, :] ** 2 <= 1.0))
    rho = np.hypot(q[i], q[j])
    w = None if cutoff is None else cutoff(rho)
    if w is not None:
        live = np.flatnonzero(w)
        i, j, rho, w = i[live], j[live], rho[live], w[live]
    vals = mode.angular_values(mode.radial_table(rho), np.arctan2(q[j], q[i]))
    if w is not None:
        vals *= w[:, None]
    vals = vals.T
    stokes = mode.ncomp == 2

    def turn(v):  # the value at R x from the value at x
        return _times_i_power(np.stack([-v[1], v[0]]) if stokes else v, mode.m)

    # the values at the mirror images (x1, -x2) of the octant nodes
    mirror = np.stack([-np.conj(vals[0]), np.conj(vals[1])]) if stokes else np.conj(vals)
    comps = np.zeros((mode.ncomp, n, n), dtype=complex)
    i += c
    j += c
    # R takes the node (a, b) to (n - b, a); four exact turns bring each
    # orbit back to its own bits, so the octant values land last
    for v, a, b in ((mirror, i, n - j), (vals, i, j)):
        for _ in range(4):
            v, a, b = turn(v), n - b, a
            comps[:, a, b] = v
    return comps


def _check_bandlimit(a: InteriorSymbol, h: float, grid: BoxGrid) -> None:
    reach = h * (grid.kmax - 2.0 * grid.dk)
    if a.xi_bound > reach:
        raise BandlimitError(
            f"declared xi box {a.xi_bound:.3f} exceeds lattice reach "
            f"{reach:.3f} at n = {grid.n}, h = {h:.3g}"
        )


def _speed_on_lattice(a: InteriorSymbol, h: float, grid: BoxGrid, fhat: np.ndarray):
    """fhat times the speed factor at the h-scaled lattice frequencies."""
    if a.speed is None:
        return fhat
    return a.speed(np.hypot(h * grid.K1, h * grid.K2)) * fhat


def apply_interior_op(a, f: np.ndarray, h: float, grid: BoxGrid) -> np.ndarray:
    """Left quantization of `a` at parameter h applied to a box field.

    An InteriorSymbol without a momentum factor takes the FFT path; one
    with it, or any other symbol with an `eval`, the direct lattice sum.

    Contract: an InteriorSymbol's support keeps two cells inside the unit
    circle (SupportMarginError) and its xi_bound lies within the lattice
    reach (BandlimitError); a pullback has no spatial factor to check.
    """
    spatial = None
    if isinstance(a, InteriorSymbol):
        # one read of the spatial factor serves the margin and the product
        spatial = a.spatial(grid.X1, grid.X2)
        rad, bound = _support_radius(spatial, grid), _margin_bound(grid)
        if rad > bound:
            raise SupportMarginError(
                f"symbol support reaches |x| = {rad:.4f}, needs <= {bound:.4f} "
                f"(two cells inside the unit circle at n = {grid.n})"
            )
        _check_bandlimit(a, h, grid)
    return _apply_interior(a, f, h, grid, spatial)


def _apply_interior(a, f: np.ndarray, h: float, grid: BoxGrid, spatial) -> np.ndarray:
    """`apply_interior_op` past its entry check; `spatial` is an
    InteriorSymbol's spatial factor on the box, None for a pullback.

    The direct sum takes F = fft2(f) / n^2 and E[m, j] = w^(m j mod n),
    w = e^{2 pi i / n}: e^{i k_m x_j} = (-1)^m w^(m j) at the nodes, and
    its (-1)^m cancels the box-origin phase e^{i k_m half} = (-1)^m.
    """
    if spatial is not None and a.momentum is None:
        return _plain_route(spatial, _speed_on_lattice(a, h, grid, np.fft.fft2(f)))
    # direct lattice sum, chunked over the first frequency axis
    n = grid.n
    F = np.fft.fft2(f) / n**2
    idx = np.arange(n)
    E = np.exp(2j * np.pi / n * (np.outer(idx, idx) % n))
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


def _plain_route(spatial: np.ndarray, weighted: np.ndarray) -> np.ndarray:
    """spatial times the inverse transform of f's speed-weighted spectrum:
    the FFT route of a symbol without a momentum factor."""
    return spatial * np.fft.ifft2(weighted)


def _alias_free_length(n: int) -> int:
    """Least 5-smooth integer >= 3n/2, the padded lattice of `_apply_shifted`."""
    size = (3 * n + 1) // 2
    while True:
        rest = size
        for p in (2, 3, 5):
            while rest % p == 0:
                rest //= p
        if rest == 1:
            return size
        size += 1


def _padded_ifft2(coeffs: np.ndarray, pos: np.ndarray, size: int) -> np.ndarray:
    """ifft2 of the (size, size) array holding `coeffs` at pos x pos, zero elsewhere.

    `size` is the alias-free length `_alias_free_length(n)` of an n x n
    `coeffs`.  ifft2 runs the last axis, then axis 0.  Only the n rows at
    `pos` are nonzero, so only they take the last-axis pass; the others
    stay zero for the axis-0 pass.  The bits are those of the full ifft2.
    """
    rows = np.zeros((len(pos), size), dtype=complex)
    rows[:, pos] = coeffs
    out = np.zeros((size, size), dtype=complex)
    out[pos] = np.fft.ifft(rows, axis=-1)
    return np.fft.ifft(out, axis=0, out=out)


def apply_shifted_op(a: InteriorSymbol, s, f: np.ndarray, h: float, grid: BoxGrid) -> list:
    """Left quantization of the free-transported symbol a(x + 2 s xi, xi).

    Writing 2 k_p.k_q = |k_p+k_q|^2 - |k_p|^2 - |k_q|^2 turns the shifted
    action into chirped coefficients, one frequency-lattice convolution
    and an unchirped synthesis, so no dense (x, xi) sum is ever formed.
    The chirps are outer products of 1-D exponentials, and the box-origin
    and synthesis phases e^{+-i k.half} are the exact signs (-1)^(m1+m2)
    at k = m dk, taken as signs.  The convolution runs on a zero-padded
    lattice of L >= 3n/2 points per axis (L 5-smooth, so the transforms
    stay fast): the sums of two n-lattice frequency indices lie in
    [-n, n - 2] and wrap into the kept window [-n/2, n/2 - 1] only when
    L < 3n/2 (Orszag's 3/2 rule), so the kept values are those of the
    exact linear convolution.  Output frequencies beyond the original
    lattice are discarded, which is the projection any pairing against a
    resolved field performs anyway.  The padded inverse transforms skip
    the zero rows, and the forward one transforms along axis 0 only the
    kept columns.

    `s` is a sequence of times (one number counts as one time); the
    fields come back in a list, one per time, from one fft2 of f, one
    speed-weighted spectrum and one read of the spatial factor, so
    `shifted_pairing` takes the times (0, s) in one call.  At s = 0 the
    flow is the identity, and the field is `apply_interior_op`'s to the
    bit.

    Contract: a has no momentum factor and s is finite (ValueError); the
    support widened by the shift 2|s| xi_bound keeps two cells inside the
    unit circle (SupportMarginError) and xi_bound lies within the lattice
    reach (BandlimitError).
    """
    if a.momentum is not None:
        raise ValueError("shifted application needs a symbol without a momentum factor")
    times = np.atleast_1d(np.asarray(s, dtype=float))
    if not np.all(np.isfinite(times)):
        raise ValueError("apply_shifted_op needs a finite s")
    spatial = a.spatial(grid.X1, grid.X2)
    shift = 2.0 * float(np.max(np.abs(times))) * a.xi_bound
    rad, bound = _support_radius(spatial, grid) + shift, _margin_bound(grid)
    if rad > bound:
        raise SupportMarginError(
            f"transported support reaches |x| = {rad:.4f}, needs <= "
            f"{bound:.4f} (shift 2|s| xi_bound = {shift:.3f})"
        )
    _check_bandlimit(a, h, grid)
    return _apply_shifted(a, times, f, h, grid, spatial)


def _apply_shifted(a: InteriorSymbol, times, f: np.ndarray, h: float, grid: BoxGrid,
                   spatial) -> list:
    """`apply_shifted_op` past its entry checks, one field per time in
    `times`; `spatial` is a's spatial factor on the box."""
    n = grid.n
    spatial = np.broadcast_to(spatial, (n, n))
    weighted = _speed_on_lattice(a, h, grid, np.fft.fft2(f))
    fields = []
    if any(s != 0.0 for s in times):
        size = _alias_free_length(n)
        ints = (np.arange(n) + n // 2) % n - n // 2  # the lattice's integer frequencies
        pos = ints % size
        sign = 1.0 - 2.0 * (ints % 2)  # e^{i k half} = (-1)^m, exactly
        spatial_hat = np.fft.fft2(spatial)
    for s in times:
        if s == 0.0:
            # the zero-time flow is the identity: the plain route, exactly
            fields.append(_plain_route(spatial, weighted))
            continue
        # per axis: the origin sign and the chirp, then 1/n; the unchirp
        # with the synthesis sign is their conjugate, needed on the kept
        # lattice only, with the scales of the padded and kept transforms
        e = sign * np.exp(-1j * s * h * grid.k**2)
        c = e / n
        cc = c[:, None] * c[None, :]
        prod = _padded_ifft2(spatial_hat * cc, pos, size)
        prod *= _padded_ifft2(weighted * cc, pos, size)
        kept_cols = np.fft.fft(prod, axis=-1, out=prod)[:, pos]
        del prod
        out = np.fft.fft(kept_cols, axis=0, out=kept_cols)[pos]
        d = np.conj(e) * (size * n)
        out *= d[:, None] * d[None, :]
        fields.append(np.fft.ifft2(out, out=out))
    return fields


def apply_tangential_op(
    a: TangentialSymbol, f: np.ndarray, h: float, grid: PolarGrid
) -> np.ndarray:
    """Quantize a collar symbol on the polar grid, y = 1 - r per row."""
    mult = a.multiplier((1.0 - grid.r)[:, None], h * grid.modes.astype(float)[None, :])
    out = grid.from_modes(mult * grid.to_modes(f))
    if a.angular is not None:
        out *= a.angular(grid.theta)[None, :]
    return out


def pairing(a, mode) -> complex:
    """Quadratic form (Op_h(a) u | u), summed over velocity components.

    Besides interior and tangential symbols, `a` may be a pullback such as
    `verify.TransportedSymbol`: its `eval` takes the direct lattice sum on
    the box of its base's `xi_bound`.

    Contract: an InteriorSymbol is checked as `apply_interior_op` checks
    it (SupportMarginError, BandlimitError); a pullback, which has no
    spatial factor, and a tangential symbol are paired as they are.
    """
    h = mode.h
    if isinstance(a, TangentialSymbol):
        g = mode.grid
        total = 0.0 + 0.0j
        for u in mode.velocity:
            total += g.inner(apply_tangential_op(a, u, h, g), u)
        return complex(total)
    [total] = _box_pairings(a, mode, lambda u, g: [apply_interior_op(a, u, h, g)])
    return total


def _box_pairings(a, mode, apply) -> list:
    """Sums of (v | u) over the mode's velocity components u, one per
    field v of the list that `apply(u, grid)` returns.

    The mode is sampled once, on `default_box(mode.h, max(a.xi_bound, XI_FLOOR))`.
    """
    grid = default_box(mode.h, max(a.xi_bound, XI_FLOOR))
    totals = None
    for u in sample_mode_on_box(mode, grid):
        fields = apply(u, grid)
        if totals is None:
            totals = [0.0 + 0.0j] * len(fields)
        totals = [t + grid.inner(v, u) for t, v in zip(totals, fields)]
    return [complex(total) for total in totals]


def shifted_pairing(a: InteriorSymbol, s: float, mode) -> tuple[complex, complex]:
    """Quadratic forms of a and of the free-transported a(x + 2 s xi, xi).

    Both pair on one sample of the mode, on the box `pairing` takes, and
    each component takes one `apply_shifted_op` call at the times (0, s):
    one fft2, one speed-weighted spectrum and one read of the spatial
    factor serve both.  The first equals `pairing(a, mode)` to the bit.
    The second is the broken-flow pullback only while every ray feeding
    the support stays strictly inside the disk over the shift; the margin
    check inside apply_shifted_op enforces the conservative version of
    that geometry.
    """
    h = mode.h
    return tuple(_box_pairings(a, mode, lambda u, g: apply_shifted_op(a, (0.0, s), u, h, g)))


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


def measure_sequence(a, modes: Sequence) -> PairingSeries:
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
    values = np.array([pairing(a, m) for m in modes], dtype=complex)
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


def _symmetric_axis(half_width: float, num: int) -> np.ndarray:
    """num points from -half_width to half_width, exactly odd under reversal."""
    return half_width * (2 * np.arange(num) - (num - 1)) / (num - 1)


def husimi_grid(mode, *, nx: int, nxi: int) -> HusimiGrid:
    """Coherent-state density |<phi_{x,xi}, u>|^2 / (2 pi h)^2 of a disk mode.

    The window centres are nx points on [-HUSIMI_X_MAX, HUSIMI_X_MAX] per
    axis and nxi frequencies near [-HUSIMI_XI_MAX, HUSIMI_XI_MAX] per axis.
    The mode's components are sampled on the box whose lattice reaches
    HUSIMI_XI_MAX + 1, and h is the mode's.  The xi axis snaps to the
    frequency lattice, so overlaps are entries of DFTs: per x0 row and component,
    one batched 1-D FFT along x1, then batched 1-D FFTs along x2 over a
    few window centres y0 at a time (HUSIMI_NODES entries per batch), all
    numpy's pocketfft.  No BLAS call enters, so the bytes do not depend on
    the thread count or the batch.  Resident at once: the 4-D density,
    the box sample and one batch; the sample is dropped before the
    symmetry fill.  The mode is +0.0 outside the closed disk, so the
    first pass transforms only box columns with |x2| <= 1; the others
    would give exact zeros.  It transforms the half x2 >= 0 of them and
    fills the mirror columns from V[xi1, -x2] = s conj V[-xi1, x2], with
    s = -1 for a Stokes u_x and +1 for u_y and for a Laplace mode (the
    reflection below): the xi indices are symmetric and x[n - j] == -x[j],
    so -xi1 and -x2 are reversals of the rows and of the columns.  Cells
    wider than about sqrt(h) under-resolve the coherent widths and the
    mass check drifts; callers pick nx, nxi accordingly.

    A disk mode's density has the symmetry of the square, the dihedral
    group D4.  For the quarter turn R(x1, x2) = (-x2, x1), u(R x) =
    e^{i m pi/2} R u(x), R acting on the velocity components of a Stokes
    mode; the window is round, so Q(-b, a, -xi2, xi1) = Q(a, b, xi1, xi2).
    Both families are c F(rho) e^{i m theta} with c and F real, so the
    reflection x2 -> -x2 takes each Cartesian component to its complex
    conjugate up to sign, and conjugation takes xi to -xi; composed with
    the quarter turn this is the swap Q(b, a, xi1, xi2) = Q(a, b, -xi2,
    -xi1).  R and the swap map the box grid, the window centres and the
    xi lattice onto themselves.  Both axes are built symmetric (the
    non-negative xi targets are snapped and mirrored, so a tie cannot
    break the symmetry), only the rows a > 0 with centres 0 <= b <= a
    (and the origin when nx is odd) are computed, the swap fills b > a
    and three turns fill the rest.  The filled values agree with a direct
    computation to the round-off of the sampled field, within 1e-13 of
    the density's max.  Anything but a `modes.Quasimode` is refused: only
    a disk mode, with its real profile, has the symmetry.
    """
    if not isinstance(mode, Quasimode):
        raise TypeError("husimi_grid takes a disk mode, whose density is rotation symmetric")
    if nx < 2 or nxi < 2:
        raise ValueError("need nx >= 2 and nxi >= 2")
    h = mode.h
    box = default_box(h, HUSIMI_XI_MAX + 1.0)
    comps = sample_mode_on_box(mode, box)
    lattice = h * box.k  # lattice[-i] == -lattice[i] exactly
    targets = _symmetric_axis(HUSIMI_XI_MAX, nxi)
    up = np.unique([int(np.argmin(np.abs(lattice - t))) for t in targets[nxi // 2 :]])
    idx = np.concatenate([box.n - up[up > 0][::-1], up])
    xi_axis = lattice[idx]
    dxi = float(np.mean(np.diff(xi_axis)))
    x_axis = _symmetric_axis(HUSIMI_X_MAX, nx)
    # the window g(x1 - x0) g(x2 - y0) is separable; one x0 row and a few
    # centre columns at a time bound the work array at HUSIMI_NODES entries
    g = np.exp(-((box.x[None, :] - x_axis[:, None]) ** 2) / (2.0 * h))
    dens = np.zeros((nx, nx, len(idx), len(idx)))
    half = nx // 2  # x_axis[half:] >= 0 and x_axis[nx - half:] > 0
    # the disk's columns x2 >= 0 are c .. hi - 1, x[c] == 0; their
    # mirrors n - j, in reverse, are n + 1 - hi .. c - 1
    c, hi = box.n // 2, int(np.nonzero(box.x**2 <= 1.0)[0][-1]) + 1
    left = slice(box.n + 1 - hi, c)
    # the mirror's sign s is -1 on a Stokes u_x only
    flips = (True, False) if len(comps) == 2 else (False,)
    V = np.zeros((len(idx), box.n), dtype=complex)
    # rows a > 0 with centres 0 <= b <= a; when nx is odd, row `half` is
    # the origin and column `half` is b = 0
    step = max(1, HUSIMI_NODES // (len(idx) * box.n))
    for i in range(half, nx):
        for u, flip in zip(comps, flips):
            V[:, c:hi] = np.fft.fft(g[i][:, None] * u[:, c:hi], axis=0)[idx]
            # idx is symmetric, so the reversed rows are the frequencies -xi1
            mirror = np.conj(V[::-1, hi - 1 : c : -1])
            V[:, left] = -mirror if flip else mirror
            for lo in range(half, i + 1, step):
                cols = slice(lo, min(lo + step, i + 1))
                G = np.fft.fft(V[None] * g[cols, None, :], axis=2)[:, :, idx]
                dens[i, cols] += np.abs(G) ** 2
    del comps  # the fill reads the density only
    # the swap fills the centres b > a of the positive quadrant
    pos = dens[nx - half :, nx - half :]
    upper = np.triu_indices(half, 1)
    pos[upper] = pos.transpose(1, 0, 3, 2)[:, :, ::-1, ::-1][upper]
    # each quarter turn carries one quadrant of centres onto the next
    quadrants = [
        (slice(nx - half, nx), slice(half, nx)),
        (slice(0, nx - half), slice(nx - half, nx)),
        (slice(0, half), slice(0, nx - half)),
        (slice(half, nx), slice(0, half)),
    ]
    for src, dst in zip(quadrants, quadrants[1:]):
        dens[dst] = np.rot90(np.rot90(dens[src], axes=(0, 1)), axes=(2, 3))
    dens *= (box.cell / np.sqrt(np.pi * h)) ** 2 / (2.0 * np.pi * h) ** 2
    dx0 = float(x_axis[1] - x_axis[0])
    return HusimiGrid(x_axis, xi_axis, dens, (dx0 * dxi) ** 2)
