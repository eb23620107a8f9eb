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
assumption.  A pullback symbol with an `eval` and a `xi_bound` takes the
direct sum too, and the same symbol with momentum factor 1 doubles as
the cross-check oracle for the fast path.

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
    which leaves the unit disk a margin of 0.5.
    """

    half = 1.5

    def __init__(self, n: int):
        if n < 8 or n % 2:
            raise ValueError("n must be even and >= 8")
        self.n = int(n)
        self.dx = 2.0 * self.half / self.n
        self.x = -self.half + self.dx * np.arange(self.n)
        self.X1, self.X2 = self.x[:, None], self.x[None, :]
        self.k = 2.0 * np.pi * np.fft.fftfreq(self.n, d=self.dx)
        self.K1, self.K2 = self.k[:, None], self.k[None, :]
        self.kmax = np.pi / self.dx
        self.dk = np.pi / self.half
        self.cell = self.dx * self.dx

    def inner(self, f: np.ndarray, g: np.ndarray) -> complex:
        return complex(self.cell * np.sum(f * np.conj(g)))


def default_box(h: float, xi_bound: float) -> BoxGrid:
    """Smallest comfortable grid whose lattice covers |xi| <= xi_bound."""
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


# box nodes per block of the sampler's passes: its temporaries stay a few
# MB at any box size, and a box of at most this many nodes is one block
SAMPLE_NODES = 1 << 15


def sample_mode_on_box(mode, grid: BoxGrid, cutoff: Optional[Callable] = None) -> np.ndarray:
    """Velocity components on the box, zero outside the closed disk.

    The closed form is evaluated at the disk nodes only, where the Bessel
    argument stays below lam; the rest of the box is left at +0.0.  With
    `cutoff`, a function of |x|, the components are multiplied by it, and
    the closed form is evaluated only at the disk nodes where it is
    nonzero.

    The box is walked in blocks of rows, about SAMPLE_NODES nodes each, so
    the temporaries stay small.  A first pass keeps the flat indices of
    the live nodes, their cutoff weights, and each node's place among its
    block's distinct radii, in arrays sized by counting the disk nodes,
    so no block's arrays outlive it (kept per block, they fragmented the
    heap, and peak RSS varied by 12 MB from run to run).  The mode's `radial_table` then runs
    once on the distinct radii of the whole box, so the nodes (i, j) and
    (j, i) share one entry even in different blocks, as hypot(a, b) ==
    hypot(b, a).  A second pass runs `angular_values` on SAMPLE_NODES
    nodes at a time and scatters them.  Each value takes the same float
    inputs as a per-point evaluation of the closed form, so the bits are
    those of one.
    """
    n, x = grid.n, grid.x
    on = np.flatnonzero(x**2 <= 1.0)  # the rows that can meet the disk
    step = max(1, SAMPLE_NODES // n)
    starts = range(on[0], on[-1] + 1, step)

    def in_disk(lo):
        return x[lo : min(lo + step, on[-1] + 1), None] ** 2 + x[None, :] ** 2 <= 1.0

    size = sum(int(np.count_nonzero(in_disk(lo))) for lo in starts)
    idx, at = np.empty(size, dtype=np.intp), np.empty(size, dtype=np.intp)
    w = None if cutoff is None else np.empty(size)
    spans, radii, end = [], [], 0
    for lo in starts:
        i, j = np.nonzero(in_disk(lo))
        i += lo
        rho = np.hypot(x[i], x[j])
        if cutoff is not None:
            block_w = cutoff(rho)
            live = np.flatnonzero(block_w)
            i, j, rho = i[live], j[live], rho[live]
            w[end : end + live.size] = block_w[live]
        block_rad, inv = np.unique(rho, return_inverse=True)
        span = slice(end, end + rho.size)
        idx[span], at[span] = i * n + j, inv
        spans.append(span)
        radii.append(block_rad)
        end = span.stop
    rad = np.unique(np.concatenate(radii))
    for span, block_rad in zip(spans, radii):
        at[span] = np.searchsorted(rad, block_rad)[at[span]]
    del radii
    table = mode.radial_table(rad)
    comps = np.zeros((mode.ncomp, n * n), dtype=complex)
    for lo in range(0, end, SAMPLE_NODES):
        span = slice(lo, min(lo + SAMPLE_NODES, end))
        i, j = np.divmod(idx[span], n)
        vals = mode.angular_values([t[at[span]] for t in table], np.arctan2(x[j], x[i]))
        if w is not None:
            vals *= w[span, None]
        comps[:, idx[span]] = vals.T
    return comps.reshape(-1, n, n)


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


def apply_interior_op(
    a,
    f: np.ndarray,
    h: float,
    grid: BoxGrid,
    *,
    check: bool = True,
) -> np.ndarray:
    """Left quantization of `a` at parameter h applied to a box field.

    An InteriorSymbol without a momentum factor takes the FFT path; one
    with it, or any other symbol with an `eval`, the direct lattice sum.
    """
    fast = isinstance(a, InteriorSymbol) and a.momentum is None
    if check or fast:
        # one read of the spatial factor serves the margin and the product
        spatial = a.spatial(grid.X1, grid.X2)
    if check:
        rad, bound = _support_radius(spatial, grid), _margin_bound(grid)
        if rad > bound:
            raise SupportMarginError(
                f"symbol support reaches |x| = {rad:.4f}, needs <= {bound:.4f} "
                f"(two cells inside the unit circle at n = {grid.n})"
            )
        _check_bandlimit(a, h, grid)
    if fast:
        fhat = _speed_on_lattice(a, h, grid, np.fft.fft2(f))
        return spatial * np.fft.ifft2(fhat)
    # direct lattice sum, chunked over the first frequency axis
    n = grid.n
    F = _plane_coeffs(f, grid, _origin_phase(grid))
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


def _origin_phase(grid: BoxGrid) -> np.ndarray:
    """e^{i k.half}: the lattice phase of the box origin at (-half, -half)."""
    return np.exp(1j * grid.half * (grid.K1 + grid.K2))


def _plane_coeffs(f: np.ndarray, grid: BoxGrid, phase: np.ndarray) -> np.ndarray:
    """Coefficients of f in the e^{i k.x} basis; `phase` is `_origin_phase(grid)`."""
    return np.fft.fft2(f) / grid.n**2 * phase


def _synthesize(coeffs: np.ndarray, grid: BoxGrid) -> np.ndarray:
    return np.fft.ifft2(coeffs * np.exp(-1j * grid.half * (grid.K1 + grid.K2))) * grid.n**2


def _lattice_positions(n: int):
    """Positions of the n-lattice integer frequencies inside a 2n lattice."""
    return np.fft.fftfreq(n, 1.0 / n).astype(int) % (2 * n)


def _padded_ifft2(coeffs: np.ndarray, pos: np.ndarray) -> np.ndarray:
    """ifft2 of the (2n, 2n) array holding `coeffs` at pos x pos, zero elsewhere.

    ifft2 runs the last axis, then axis 0.  Only the n rows at `pos` are
    nonzero, so only they take the last-axis pass; the others stay zero
    for the axis-0 pass.  The bits are those of the full ifft2.
    """
    n = len(pos)
    rows = np.zeros((n, 2 * n), dtype=complex)
    rows[:, pos] = coeffs
    out = np.zeros((2 * n, 2 * n), dtype=complex)
    out[pos] = np.fft.ifft(rows, axis=-1)
    return np.fft.ifft(out, axis=0, out=out)


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

    Needs a symbol without a momentum factor and a finite s.  Writing 2
    k_p.k_q = |k_p+k_q|^2 - |k_p|^2 - |k_q|^2 turns the shifted action
    into chirped coefficients, one frequency-lattice convolution and an
    unchirped synthesis, so no dense (x, xi) sum is ever formed.  The
    convolution runs on a zero-padded double lattice, which makes it the
    exact linear one; output frequencies beyond the original lattice are
    discarded, which is the projection any pairing against a resolved
    field performs anyway.  The padded inverse transforms skip the zero
    rows, and the forward one transforms along axis 0 only the kept
    columns; fft2 runs the last axis first, so the kept values are
    bit-identical to those of the full transforms.
    """
    if a.momentum is not None:
        raise ValueError("shifted application needs a symbol without a momentum factor")
    s = float(s)
    if not math.isfinite(s):
        raise ValueError("apply_shifted_op needs a finite s")
    if s == 0.0:
        # the zero-time flow is the identity, so match the plain route
        # exactly instead of reprojecting through the double lattice
        return apply_interior_op(a, f, h, grid, check=check)
    n = grid.n
    spatial = np.broadcast_to(a.spatial(grid.X1, grid.X2), (n, n))
    if check:
        shift = 2.0 * abs(s) * a.xi_bound
        rad, bound = _support_radius(spatial, grid) + shift, _margin_bound(grid)
        if rad > bound:
            raise SupportMarginError(
                f"transported support reaches |x| = {rad:.4f}, needs <= "
                f"{bound:.4f} (shift 2|s| xi_bound = {shift:.3f})"
            )
        _check_bandlimit(a, h, grid)
    pos = _lattice_positions(n)
    # the double lattice's frequencies at the kept positions: the unchirp
    # is needed there only
    kept = grid.dk * np.fft.fftfreq(2 * n, 1.0 / (2 * n)).astype(int)[pos]
    unchirp = np.exp(1j * s * h * (kept[:, None] ** 2 + kept[None, :] ** 2))
    chirp = np.exp(-1j * s * h * (grid.K1**2 + grid.K2**2))
    phase = _origin_phase(grid)
    prod = _padded_ifft2(_plane_coeffs(np.asarray(spatial, dtype=complex), grid, phase) * chirp, pos)
    prod *= _padded_ifft2(_speed_on_lattice(a, h, grid, _plane_coeffs(f, grid, phase) * chirp), pos)
    kept_cols = np.fft.fft(prod, axis=-1, out=prod)[:, pos]
    del prod
    out = np.fft.fft(kept_cols, axis=0, out=kept_cols)[pos] * (2 * n) ** 2
    return _synthesize(out * unchirp, grid)


def apply_tangential_op(
    a: TangentialSymbol, f: np.ndarray, h: float, grid: PolarGrid
) -> np.ndarray:
    """Quantize a collar symbol on the polar grid, y = 1 - r per row."""
    mult = a.multiplier((1.0 - grid.r)[:, None], h * grid.modes.astype(float)[None, :])
    out = grid.from_modes(mult * grid.to_modes(f))
    if a.angular is not None:
        out *= a.angular(grid.theta)[None, :]
    return out


def pairing(a, mode, *, check: bool = True) -> complex:
    """Quadratic form (Op_h(a) u | u), summed over velocity components.

    Besides interior and tangential symbols, `a` may be a pullback such as
    `verify.TransportedSymbol`: its `eval` takes the direct lattice sum on
    the box of its base's `xi_bound`.  It has no spatial factor for the
    margin check to read, so it pairs with check=False only.
    """
    h = mode.h
    if isinstance(a, TangentialSymbol):
        g = mode.grid
        total = 0.0 + 0.0j
        for u in mode.velocity:
            total += g.inner(apply_tangential_op(a, u, h, g), u)
        return complex(total)
    if check and not isinstance(a, InteriorSymbol):
        raise TypeError(
            "expected an InteriorSymbol or TangentialSymbol, or a pullback paired with check=False"
        )
    [total] = _box_pairings(a, mode, lambda u, g: apply_interior_op(a, u, h, g, check=check))
    return total


def _box_pairings(a, mode, *applies) -> list:
    """Sums of (apply(u, grid) | u) over the mode's velocity components, one per apply.

    The mode is sampled once, on `default_box(mode.h, max(a.xi_bound, XI_FLOOR))`.
    """
    grid = default_box(mode.h, max(a.xi_bound, XI_FLOOR))
    totals = [0.0 + 0.0j] * len(applies)
    for u in sample_mode_on_box(mode, grid):
        for i, apply in enumerate(applies):
            totals[i] += grid.inner(apply(u, grid), u)
    return [complex(total) for total in totals]


def shifted_pairing(a: InteriorSymbol, s: float, mode) -> tuple[complex, complex]:
    """Quadratic forms of a and of the free-transported a(x + 2 s xi, xi).

    Both pair on one sample of the mode, on the box `pairing` takes; the
    first equals `pairing(a, mode)`.  The second is the
    broken-flow pullback only while every ray feeding the support stays
    strictly inside the disk over the shift; the margin check inside
    apply_shifted_op enforces the conservative version of that geometry.
    """
    h = mode.h
    return tuple(_box_pairings(
        a, mode,
        lambda u, g: apply_interior_op(a, u, h, g),
        lambda u, g: apply_shifted_op(a, s, u, h, g),
    ))


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


def husimi_grid(
    mode,
    *,
    nx: int = 24,
    nxi: int = 25,
    x_max: float = 1.25,
    xi_max: float = 1.6,
) -> HusimiGrid:
    """Coherent-state density |<phi_{x,xi}, u>|^2 / (2 pi h)^2 of a disk mode.

    The mode's components are sampled on the box whose lattice reaches
    xi_max + 1, and h is the mode's.  The xi axis snaps to
    the frequency lattice, so overlaps are entries of DFTs: per x0 row and
    component, one batched 1-D FFT along x1 and one along x2 for the
    window centres y0 at once, both numpy's pocketfft.  No BLAS call
    enters, so the bytes do not depend on the thread count.  The mode is
    +0.0 outside the closed disk, so the first pass transforms only the
    box columns with |x2| <= 1; the others would give exact zeros.  Cells
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
    a disk mode, with its real profile, has the symmetry.  x_max and
    xi_max must be finite and positive.
    """
    if not isinstance(mode, Quasimode):
        raise TypeError("husimi_grid takes a disk mode, whose density is rotation symmetric")
    if nx < 2 or nxi < 2:
        raise ValueError("need nx >= 2 and nxi >= 2")
    if not (0.0 < x_max < math.inf and 0.0 < xi_max < math.inf):
        raise ValueError("need finite x_max > 0 and xi_max > 0")
    h = mode.h
    box = default_box(h, xi_max + 1.0)
    comps = sample_mode_on_box(mode, box)
    lattice = h * box.k  # lattice[-i] == -lattice[i] exactly
    targets = _symmetric_axis(xi_max, nxi)
    up = np.unique([int(np.argmin(np.abs(lattice - t))) for t in targets[nxi // 2 :]])
    idx = np.concatenate([box.n - up[up > 0][::-1], up])
    xi_axis = lattice[idx]
    if len(xi_axis) < 2:
        raise ValueError("frequency lattice too coarse for the xi axis")
    dxi = float(np.mean(np.diff(xi_axis)))
    x_axis = _symmetric_axis(x_max, nx)
    # the window g(x1 - x0) g(x2 - y0) is separable; one x0 row at a time
    # bounds the work array at (nx - nx // 2, len(idx), n)
    g = np.exp(-((box.x[None, :] - x_axis[:, None]) ** 2) / (2.0 * h))
    dens = np.zeros((nx, nx, len(idx), len(idx)))
    half = nx // 2  # x_axis[half:] >= 0 and x_axis[nx - half:] > 0
    on = np.nonzero(box.x**2 <= 1.0)[0]  # the disk's columns, contiguous
    disk_cols = slice(on[0], on[-1] + 1)
    V = np.zeros((len(idx), box.n), dtype=complex)
    # rows a > 0 with centres 0 <= b <= a; when nx is odd, row `half` is
    # the origin and column `half` is b = 0
    for i in range(half, nx):
        cols = slice(half, i + 1)
        for u in comps:
            V[:, disk_cols] = np.fft.fft(g[i][:, None] * u[:, disk_cols], axis=0)[idx]
            G = np.fft.fft(V[None] * g[cols, None, :], axis=2)[:, :, idx]
            dens[i, cols] += np.abs(G) ** 2
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
