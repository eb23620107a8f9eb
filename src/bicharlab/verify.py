"""Quantitative pass/fail experiments for measure propagation at finite h.

Each experiment pairs symbols against a quasimode family, stores the raw
per-mode numbers in a PropagationReport, and derives the verdict from the
stored numbers and thresholds alone.  A report read back from disk must
re-judge to the same verdict, so no experiment keeps hidden state.

Transport across the boundary uses the closed-form billiard map; mass
comparisons across reflections are made on |a|^2 (nonnegative symbols,
positive coherent-state quantization) rather than signed pairings, since
the statements being tested concern where mass lives, not its phase.
"""

from __future__ import annotations

from dataclasses import asdict, dataclass, field
from typing import Dict, List, Optional, Sequence, Union

import numpy as np

from . import billiard
from .bumps import plateau_step
from .charts import CollarChart, DiskChart, PhasePoint
from .flow import trace
from .quantize import (
    InteriorSymbol,
    TangentialSymbol,
    default_box,
    husimi_grid,
    pairing,
    sample_mode_on_box,
    shifted_pairing,
)

__all__ = [
    "Thresholds",
    "ModeRow",
    "PropagationReport",
    "TransportedSymbol",
    "gliding_rotation",
    "invariance_gap",
    "support_gap",
    "elliptic_mass",
    "car_mass",
    "h_oscillation_tail",
]


@dataclass(frozen=True)
class Thresholds:
    """Acceptance knobs for finite-h verdicts.

    The statements under test are asymptotic, so passing at finite h is a
    declared convention, not a theorem; every report prints these numbers
    next to the data they judged.
    """

    theta_pass: float = 0.05
    kappa: float = 2.0
    theta_floor: float = 1e-3

    def as_dict(self) -> Dict[str, float]:
        return asdict(self)


@dataclass(frozen=True)
class ModeRow:
    """One family member: pairing before transport, after, and their gap."""

    h: float
    before: float
    after: float
    gap: float

    def as_dict(self) -> Dict[str, float]:
        return asdict(self)


_KINDS = ("invariance", "support", "elliptic", "car")


@dataclass
class PropagationReport:
    """Self-contained record of one experiment.

    `kind` selects the verdict rule; everything the rule consumes lives in
    `rows`, `thresholds`, and `notes`, so `recompute_verdict` is a pure
    function of the stored numbers.
    """

    experiment: str
    symbol: str
    flow_time: float
    kind: str
    rows: List[ModeRow]
    thresholds: Thresholds = field(default_factory=Thresholds)
    notes: Dict[str, float] = field(default_factory=dict)
    verdict: str = ""

    def __post_init__(self):
        if self.kind not in _KINDS:
            raise ValueError(f"unknown report kind {self.kind!r}")
        if not self.verdict:
            self.verdict = self.recompute_verdict()

    def recompute_verdict(self) -> str:
        th = self.thresholds
        if self.notes.get("unresolved", 0.0) > 0 or not self.rows:
            return "inconclusive"
        gaps = [r.gap for r in self.rows]
        if self.kind == "invariance":
            shrinking = all(
                gaps[i + 1] <= gaps[i] + th.theta_floor for i in range(len(gaps) - 1)
            )
            return "pass" if shrinking and gaps[-1] <= th.theta_pass else "fail"
        if self.kind == "support":
            bounded = all(
                r.after <= th.kappa * r.before + th.theta_floor for r in self.rows
            )
            return "pass" if bounded else "fail"
        if self.kind == "elliptic":
            return "pass" if max(gaps) <= th.theta_pass else "fail"
        # car: magnitudes must shrink at least like h (within 50 percent
        # per step, ignored below the measurement floor) and end small.
        hs = [r.h for r in self.rows]
        tracks = True
        for i in range(len(gaps) - 1):
            if gaps[i] <= th.theta_floor:
                continue
            tracks = tracks and gaps[i + 1] <= 1.5 * gaps[i] * (hs[i + 1] / hs[i])
        return "pass" if tracks and gaps[-1] <= th.theta_pass else "fail"

    def to_dict(self) -> dict:
        return {
            "experiment": self.experiment,
            "symbol": self.symbol,
            "flow_time": self.flow_time,
            "kind": self.kind,
            "rows": [r.as_dict() for r in self.rows],
            "thresholds": self.thresholds.as_dict(),
            "notes": dict(self.notes),
            "verdict": self.verdict,
        }

    @classmethod
    def from_dict(cls, d: dict) -> "PropagationReport":
        return cls(
            experiment=d["experiment"],
            symbol=d["symbol"],
            flow_time=float(d["flow_time"]),
            kind=d["kind"],
            rows=[ModeRow(**row) for row in d["rows"]],
            thresholds=Thresholds(**d["thresholds"]),
            notes=dict(d.get("notes", {})),
            verdict=d.get("verdict", ""),
        )


def _require_disk(chart: Optional[CollarChart]) -> DiskChart:
    if chart is None:
        return DiskChart()
    if not isinstance(chart, DiskChart):
        raise NotImplementedError(
            "broken-flow transport is implemented for the unit-disk chart only"
        )
    return chart


# frequencies no faster than this do not move under transport
DEAD_SPEED = 1e-12


def _survivors(x1, x2, xi1, xi2, invariant):
    """The phase points where a pullback along the disk billiard can be nonzero.

    Those are the points inside the closed disk where `invariant` (if not
    None) is nonzero.  The inputs keep their broadcast structure: the disk
    mask is taken on x, the invariant on the broadcast axes it needs, and
    only the survivors are gathered, with `np.nonzero`, as four 1-D
    arrays.  Returns (shape, idx, points) for a grid of at least one
    dimension; `idx` indexes that grid.
    """
    X1, X2, S1, S2 = np.atleast_1d(
        *(np.asarray(v, dtype=float) for v in (x1, x2, xi1, xi2))
    )
    if not all(np.isfinite(v).all() for v in (X1, X2, S1, S2)):
        raise ValueError("a transported symbol needs finite x and xi")
    shape = np.broadcast_shapes(X1.shape, X2.shape, S1.shape, S2.shape)
    keep = np.hypot(X1, X2) <= 1.0 + 1e-12
    if invariant is not None:
        keep = keep & (invariant(X1, X2, S1, S2) != 0)
    idx = np.nonzero(np.broadcast_to(keep, shape))
    return shape, idx, tuple(np.broadcast_to(v, shape)[idx] for v in (X1, X2, S1, S2))


class TransportedSymbol:
    """Pullback a(gamma_s(x, xi)) along the broken geodesic flow of the disk.

    Evaluation pushes each requested point forward for time s through the
    closed-form billiard map `billiard.propagate` and reads the base
    symbol there.  x and xi must be finite (ValueError otherwise).
    Points outside the closed disk evaluate to zero.  Frequencies with
    |xi| at most the constant `DEAD_SPEED` do not move.  A tangential
    contact cannot be continued by chords; such nodes evaluate to zero
    and are counted in `unresolved`, so downstream verdicts can refuse to
    certify.  Values are taken real: the transported symbols fed to mass
    experiments are real windows.

    Pruning: free flight and specular reflection conserve |xi| and
    x wedge xi, so where the base's `invariant` (a factor of the base
    that is a function of those two only, or None; see `InteriorSymbol`)
    is 0, the pullback is 0 and the point is not flown.  The base is an
    `InteriorSymbol` or another pullback; the pullback exposes its
    `invariant`, so nested pullbacks prune too, and its `xi_bound`, so
    `pairing` and `support_gap` take it as it is.
    """

    def __init__(self, base: Union[InteriorSymbol, TransportedSymbol], s: float):
        self._base = base.eval
        self.invariant = base.invariant
        self.xi_bound = base.xi_bound
        self.s = float(s)
        self.unresolved = 0

    def eval(self, x1, x2, xi1, xi2) -> np.ndarray:
        shape, idx, (p1, p2, q1, q2) = _survivors(x1, x2, xi1, xi2, self.invariant)
        px = np.stack([p1, p2], axis=-1)
        pxi = np.stack([q1, q2], axis=-1)
        live = np.hypot(q1, q2) > DEAD_SPEED
        stuck = np.zeros(live.shape, dtype=bool)
        if live.any():
            px[live], pxi[live], _, stuck[live] = billiard.propagate(
                px[live], pxi[live], self.s, pinned="mark"
            )
        if stuck.any():
            self.unresolved += int(np.sum(self._doubtful(px[stuck], pxi[stuck])))
        out = np.zeros(shape, dtype=float)
        keep = ~stuck
        if keep.any():
            out[tuple(i[keep] for i in idx)] = np.real(
                self._base(px[keep, 0], px[keep, 1], pxi[keep, 0], pxi[keep, 1])
            )
        return out.reshape(np.broadcast_shapes(*map(np.shape, (x1, x2, xi1, xi2))))

    def _doubtful(self, xs: np.ndarray, xis: np.ndarray) -> np.ndarray:
        """Tangential contacts where zero cannot be certified.

        A contact glides along the rim, which for the disk sweeps the
        rotation circle of the frozen state; if the symbol vanishes on
        that whole circle the transported value is zero however the
        contact resolves, otherwise the node is genuinely unresolved.
        """
        worst = np.zeros(xs.shape[0])
        for phi in np.linspace(0.0, 2.0 * np.pi, 33)[:-1]:
            c, s = np.cos(phi), np.sin(phi)
            rx1 = c * xs[:, 0] - s * xs[:, 1]
            rx2 = s * xs[:, 0] + c * xs[:, 1]
            rs1 = c * xis[:, 0] - s * xis[:, 1]
            rs2 = s * xis[:, 0] + c * xis[:, 1]
            worst = np.maximum(worst, np.abs(self._base(rx1, rx2, rs1, rs2)))
        return worst > 1e-12


def gliding_rotation(chart: Optional[CollarChart], s: float, xip: float = 1.0) -> float:
    """Boundary rotation angle swept by the glancing flow over time s.

    Traced with the generalized-ray engine from the glancing point at
    tangential frequency `xip` (must be a unit covector for the disk rim,
    xip = +1 or -1), rather than hard-coding the rotation rate.
    """
    chart = _require_disk(chart)
    if abs(abs(xip) - 1.0) > 1e-12:
        raise ValueError("glancing at the disk rim needs |xip| = 1")
    ray = trace(chart, PhasePoint(0.0, 0.0, 0.0, float(xip)), float(s))
    return float(ray.final_collar().xp)


def _symbol_name(a, fallback: str) -> str:
    name = getattr(a, "name", "")
    return name if name else fallback


def invariance_gap(
    modes: Sequence,
    a: InteriorSymbol,
    s: float,
    *,
    thresholds: Optional[Thresholds] = None,
    route: str = "free",
    chart: Optional[CollarChart] = None,
    experiment: str = "invariance-gap",
) -> PropagationReport:
    """Compare pairings of a and of a(gamma_s) along a mode family.

    route="free" quantizes the straight-line transported symbol with the
    fast shifted-lattice path, pairing both symbols on one box sample of
    each mode (`shifted_pairing`); it is the broken-flow pullback only while
    the support cannot reach the boundary within time s, and the margin
    check inside refuses geometries where that could fail.  route="pullback"
    evaluates the transported symbol through the closed-form billiard map
    and quantizes it on the dense path; valid across reflections but far
    slower, meant for small cross-checks.
    """
    if route not in ("free", "pullback"):
        raise ValueError("route must be 'free' or 'pullback'")
    _require_disk(chart)
    th = thresholds or Thresholds()
    rows = []
    unresolved = 0
    for m in modes:
        if route == "free":
            before, after = shifted_pairing(a, s, m)
        else:
            # both sides share the pullback's conventions (zero outside
            # the closed disk), so a flow-invariant symbol gives a gap at
            # roundoff, not rim-smearing, size
            tau = TransportedSymbol(a, s)
            before = pairing(TransportedSymbol(a, 0.0), m, check=False)
            after = pairing(tau, m, check=False)
            unresolved += tau.unresolved
        rows.append(
            ModeRow(
                h=float(m.h),
                before=float(before.real),
                after=float(after.real),
                gap=float(abs(after - before)),
            )
        )
    notes = {"unresolved": float(unresolved)}
    if len(rows) >= 2 and all(r.gap > 0 for r in rows):
        hs = np.log([r.h for r in rows])
        gs = np.log([r.gap for r in rows])
        notes["gap_rate"] = float(np.polyfit(hs, gs, 1)[0])
    return PropagationReport(
        experiment=experiment,
        symbol=_symbol_name(a, "interior symbol"),
        flow_time=float(s),
        kind="invariance",
        rows=rows,
        thresholds=th,
        notes=notes,
    )


def _phase_survivors(hg, invariant):
    """The survivors of a Husimi phase grid, as `_survivors` finds them.

    The window centres inside the closed disk are gathered once and the
    invariant (an InteriorSymbol's, or None) is read on them times the
    flattened xi grid, (N_x, 1) by (1, N_xi), not on the full 4-D grid:
    its speed factor once per xi point, and its momentum factor only where
    the speed is nonzero.  A zero speed times a finite momentum is 0, so
    the mask is the product's.  `np.nonzero` in C order then yields the
    points of the 4-D scan, in its order and bit for bit.  Returns (idx,
    points): `idx` indexes `hg.density`.
    """
    n_xi = len(hg.xi_axis)
    ci, cj = np.nonzero(np.hypot(hg.x_axis[:, None], hg.x_axis[None, :]) <= 1.0 + 1e-12)
    x1, x2 = hg.x_axis[ci], hg.x_axis[cj]
    p, q = np.divmod(np.arange(n_xi * n_xi), n_xi)
    s1, s2 = hg.xi_axis[p], hg.xi_axis[q]
    keep = True
    if invariant is not None:
        speed = 1.0 if invariant.speed is None else invariant.speed(np.hypot(s1, s2))
        speed = np.broadcast_to(speed, p.shape)
        keep = speed != 0
        if invariant.momentum is not None:
            live = np.flatnonzero(keep)
            wedge = x1[:, None] * s2[live] - x2[:, None] * s1[live]
            keep = np.zeros((len(ci), len(p)), dtype=bool)
            keep[:, live] = speed[live] * invariant.momentum(wedge) != 0
    r, c = np.nonzero(np.broadcast_to(keep, (len(ci), len(p))))
    return (ci[r], cj[r], p[c], q[c]), (x1[r], x2[r], s1[c], s2[c])


def support_gap(
    modes: Sequence,
    a: Union[InteriorSymbol, TransportedSymbol, TangentialSymbol],
    s: float,
    *,
    thresholds: Optional[Thresholds] = None,
    chart: Optional[CollarChart] = None,
    experiment: str = "support-transport",
    nx: int = 28,
    nxi: int = 29,
    x_max: float = 1.25,
    xi_max: float = 1.6,
    glancing_sign: float = 1.0,
) -> PropagationReport:
    """Mass of |a|^2 against each mode, before and after time-s transport.

    Interior symbols are paired through the coherent-state density (a
    positive quantization, so the numbers really are masses) with the
    transported symbol evaluated pointwise through the closed-form
    billiard map; both masses are counted over the closed disk and reported
    as fractions of the mode's total phase-space mass, which must be
    positive (ValueError otherwise).  Both symbols are evaluated only on the
    survivors of the phase grid, the window centres in the closed disk
    times the xi points where the symbol's invariant is nonzero, and each
    mass is a sum over those points.  Tangential symbols are compared
    against their gliding rotation: the transported symbol is the input
    arc rotated by the angle the flow engine sweeps in time s at the
    glancing ring on the side `glancing_sign`, and the masses are
    boundary-collar pairings.
    Pass rule: mass_after <= kappa * mass_before + theta_floor per mode.
    """
    th = thresholds or Thresholds()
    rows = []
    notes: Dict[str, float] = {}
    unresolved = 0
    if isinstance(a, TangentialSymbol):
        alpha = gliding_rotation(chart, s, xip=glancing_sign)
        notes["rotation_angle"] = alpha

        def abs2(y, xp):
            return np.abs(a.multiplier(y, xp)) ** 2

        def arc2(rotation):
            # |c|^2 of the arc rotated by `rotation`; no arc rotates to none
            if a.angular is None:
                return None
            return lambda theta: np.abs(a.angular(theta + rotation)) ** 2

        sym0 = TangentialSymbol(
            abs2, y_support=a.y_support, angular=arc2(0.0), name="|a|^2"
        )
        sym1 = TangentialSymbol(
            abs2, y_support=a.y_support, angular=arc2(alpha), name="|a|^2 rotated"
        )
        for m in modes:
            before = pairing(sym0, m).real
            after = pairing(sym1, m).real
            rows.append(
                ModeRow(
                    h=float(m.h),
                    before=float(before),
                    after=float(after),
                    gap=float(after - before),
                )
            )
    else:
        if not isinstance(a, (InteriorSymbol, TransportedSymbol)):
            raise TypeError("expected an interior or tangential symbol, or a pullback of one")
        _require_disk(chart)
        for m in modes:
            hg = husimi_grid(m, nx=nx, nxi=nxi, x_max=x_max, xi_max=xi_max)
            total = hg.mass()
            if total == 0.0:
                raise ValueError(
                    f"mode at h = {m.h:.4g} has no Husimi mass on the window grid"
                )
            # both a and its pullback are 0 off the survivors, the
            # invariant being a factor of a: evaluate both there only.
            # The survivors lie in the closed disk, so both masses count
            # the same centres, matching the transported symbol's
            # zero-outside convention, and the s and then -s
            # reversibility holds for any input support
            idx, pts = _phase_survivors(hg, a.invariant)
            dens = hg.density[idx]
            tau = TransportedSymbol(a, s)
            base_sq = np.abs(a.eval(*pts)) ** 2
            moved_sq = tau.eval(*pts) ** 2
            unresolved += tau.unresolved
            before = float(np.sum(dens * base_sq) * hg.cell_volume) / total
            after = float(np.sum(dens * moved_sq) * hg.cell_volume) / total
            rows.append(
                ModeRow(
                    h=float(m.h), before=before, after=after, gap=after - before
                )
            )
    notes["unresolved"] = float(unresolved)
    return PropagationReport(
        experiment=experiment,
        symbol=_symbol_name(a, "symbol"),
        flow_time=float(s),
        kind="support",
        rows=rows,
        thresholds=th,
        notes=notes,
    )


def _pairing_magnitude_report(
    modes: Sequence,
    a,
    *,
    kind: str,
    thresholds: Optional[Thresholds],
    experiment: str,
) -> PropagationReport:
    th = thresholds or Thresholds()
    rows = []
    worst_imag = 0.0
    for m in modes:
        val = pairing(a, m)
        worst_imag = max(worst_imag, abs(val.imag))
        rows.append(
            ModeRow(h=float(m.h), before=float(val.real), after=0.0, gap=float(abs(val)))
        )
    notes = {"unresolved": 0.0, "max_imag": float(worst_imag)}
    if kind == "car" and rows:
        notes["car_constant"] = float(max(r.gap / r.h for r in rows))
    return PropagationReport(
        experiment=experiment,
        symbol=_symbol_name(a, "symbol"),
        flow_time=0.0,
        kind=kind,
        rows=rows,
        thresholds=th,
        notes=notes,
    )


# elliptic windows vanish for |xi'| up to this, past the glancing value 1
ELLIPTIC_EDGE = 1.1


def elliptic_mass(
    modes: Sequence,
    a_E: TangentialSymbol,
    *,
    thresholds: Optional[Thresholds] = None,
    experiment: str = "elliptic-window",
) -> PropagationReport:
    """Boundary-collar pairings with a symbol supported above the glancing speed.

    The limit measure carries no mass there, so every pairing must stay
    below theta_pass; the verdict checks all family members, not just the
    last, since nothing is being extrapolated.
    """
    if not isinstance(a_E, TangentialSymbol):
        raise TypeError("elliptic windows are tangential symbols")
    yy = np.linspace(0.0, 0.999 * a_E.y_support, 12)[:, None]
    xips = np.linspace(-ELLIPTIC_EDGE, ELLIPTIC_EDGE, 45)[None, :]
    worst = float(np.max(np.abs(a_E.multiplier(yy, xips))))
    if worst > 1e-12:
        raise ValueError(
            f"elliptic window must vanish for |xi'| <= {ELLIPTIC_EDGE}, found |a| = {worst:.2e}"
        )
    return _pairing_magnitude_report(
        modes, a_E, kind="elliptic", thresholds=thresholds, experiment=experiment
    )


# the |xi|^2 band around the unit shell on which off-shell windows vanish
CAR_BAND = (0.8, 1.2)


def car_mass(
    modes: Sequence,
    a_off: InteriorSymbol,
    *,
    thresholds: Optional[Thresholds] = None,
    experiment: str = "off-shell-window",
) -> PropagationReport:
    """Interior pairings with a symbol vanishing near the unit speed shell.

    Off-shell mass decays linearly in h; the report fits the constant
    C = max |value| / h (stored in notes) and the verdict demands the
    magnitudes shrink at least like h step to step, within 50 percent,
    above the measurement floor.  The speed factor must vanish on the band
    `CAR_BAND`, 0.8 <= |xi|^2 <= 1.2, probed at 2001 evenly spaced |xi|^2;
    a symbol without one is refused.
    """
    if not isinstance(a_off, InteriorSymbol):
        raise TypeError("off-shell windows are interior symbols")
    if a_off.speed is None:
        raise ValueError("off-shell window needs a speed factor to vanish on the band")
    worst = float(np.max(np.abs(a_off.speed(np.sqrt(np.linspace(*CAR_BAND, 2001))))))
    if worst > 1e-12:
        raise ValueError(
            "off-shell window must vanish on the band | |xi|^2 - 1 | <= 0.2, "
            f"found |a| = {worst:.2e}"
        )
    return _pairing_magnitude_report(
        modes, a_off, kind="car", thresholds=thresholds, experiment=experiment
    )


# the plateau ramp of each tail variant: on |x| for the interior one, on
# the collar depth 1 - |x| for the tangential one
TAIL_CUTOFFS = {"interior": (0.7, 0.9), "tangential": (0.2, 0.3)}


def h_oscillation_tail(
    modes: Sequence, radii: Sequence[float], *, variant: str = "interior"
) -> np.ndarray:
    """Mass fraction beyond frequency R/h for each mode and radius R, under a cutoff.

    variant="interior": modes are sampled on a Cartesian box sized so the
    lattice reaches the largest requested radius, multiplied by a radial
    plateau cutoff (ramp on |x| in [0.7, 0.9]; the closed form is
    evaluated only where the cutoff is nonzero), and the tail is the
    fraction of Fourier power at |xi| > R/h.  variant="tangential": the
    angular-frequency tail of the velocity restricted to the boundary
    collar (depth ramp on [0.2, 0.3]).  The ramps are `TAIL_CUTOFFS`.

    The radii are measured on one shared grid per mode, so the tails nest
    exactly.  Returns shape (len(radii), len(modes)).
    """
    Rs = np.asarray(radii, dtype=float)
    if np.any(Rs <= 1.0):
        raise ValueError("tail radii must exceed 1, the speed of the shell")
    if variant not in TAIL_CUTOFFS:
        raise ValueError("variant must be 'interior' or 'tangential'")
    lo, hi = TAIL_CUTOFFS[variant]
    out = np.zeros((Rs.size, len(modes)))
    if variant == "interior":
        for j, m in enumerate(modes):
            grid = default_box(m.h, float(Rs.max()) + 0.5)
            comps = sample_mode_on_box(m, grid, lambda t: 1.0 - plateau_step(t, lo, hi))
            # one power spectrum per component serves every radius; the
            # per-radius sums still run over the components in order
            speed = None
            tot = 0.0
            tail = np.zeros(Rs.size)
            last = len(comps) - 1
            for c in range(last + 1):
                # the spectrum overwrites the component, and the sample is
                # released once its last spectrum is taken, before the sums
                power = np.abs(np.fft.fft2(comps[c], out=comps[c]))
                if c == last:
                    del comps
                power *= power
                if speed is None:
                    # built once, after the first spectrum: a one-component
                    # sample is gone by then, so the two never coexist
                    speed = np.hypot(grid.K1, grid.K2)
                    speed *= m.h
                tot += float(power.sum())
                for i, rad in enumerate(Rs):
                    tail[i] += float(power[speed > rad].sum())
                del power
            if tot != 0.0:
                out[:, j] = tail / tot
            # free this box before the next one, or peak memory varies
            del grid, speed
    else:
        for j, m in enumerate(modes):
            g = m.grid
            w = 1.0 - plateau_step(1.0 - g.r, lo, hi)
            power = np.zeros((g.K, g.n_theta))
            for u in m.velocity:
                power += np.abs(g.to_modes(u)) ** 2
            per_mode = 2.0 * np.pi * np.real(
                g.radial.integrate_rdr(w[:, None] * power)
            )
            total = float(per_mode.sum())
            if total == 0.0:
                continue
            freq = m.h * np.abs(g.modes.astype(float))
            for i, rad in enumerate(Rs):
                out[i, j] = float(per_mode[freq > rad].sum()) / total
    return out
