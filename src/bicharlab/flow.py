"""Broken bicharacteristic flow with glancing-aware boundary dispatch.

A ray alternates between exact straight-line flight away from the boundary
collar, an ODE integration of the collar Hamilton field inside it, and a
constrained gliding motion along the boundary when it arrives tangentially
with the boundary curving away.  Each boundary contact is classified and
dispatched: transversal contacts reflect, tangential contacts with the
boundary curving toward the domain pass straight through, the remaining
glancing contacts start a glide that releases where the curvature condition
changes sign.  Unresolvable contacts abort the trace rather than guess.
Motion is at unit energy: the collar field and the reflection hold the
shell |xi| = 1, and an ambient start off it is refused.

The collar field and the gliding field are integrated by one Dormand-Prince
5(4) stepper with its 4th-order continuous extension (Dormand & Prince 1980;
step control and dense output as in Hairer, Norsett & Wanner, Solving ODEs I,
II.4-II.6), a port of scipy's RK45 on plain floats, written out for the
4-component collar state (y, x', eta, xi').  Its dense output is the
ray between events; the boundary contact, the turning point, the band exit
and the glide release are events located on it, and they and the sub-step
dip crossing come from one Brent solver (scipy's brentq, ported).  The tests
hold both to scipy's solve_ivp and brentq as oracles, and the written-out
step to a loop over the tableau, bit for bit.
"""

from __future__ import annotations

import math
import sys
from bisect import bisect_left
from dataclasses import dataclass
from typing import Callable, Optional, Union

import numpy as np

from .charts import CollarChart, PhasePoint
from .classify import GLANCING, HYPERBOLIC, TOL_G, BoundaryClass, classify

__all__ = [
    "RayEvent",
    "RaySegment",
    "GeneralizedRay",
    "trace",
    "reflect_hyperbolic",
    "check_start",
]


# tolerances and largest step of the collar and glide solves
RTOL = 1e-11
ATOL = 1e-13
MAX_STEP_COLLAR = 0.01
# an ambient start needs ||xi| - 1| <= SHELL_TOL: the collar field and the
# reflection eta -> +sqrt(r0) hold the unit energy shell
SHELL_TOL = 1e-9
# heights within this of the boundary count as on it
GRAZE_TOL = 1e-9
# time step of the restart nudge off an event root
KICK = 1e-9
# a ray whose logged events plus restarts nudged past a turning point
# exceed this is aborted
MAX_EVENTS = 10_000

# step-size control: safety factor, step change bounds, error exponent -1/(4+1)
_SAFETY = 0.9
_MIN_FACTOR = 0.2
_MAX_FACTOR = 10.0
_ERR_EXP = -1 / 5
# relative root tolerance, and the absolute one of event times (scipy's 4 eps)
_ROOT_TOL = 4 * sys.float_info.epsilon
# collar events (function of a state getter, direction): the boundary y = 0
# crossed downward, the turning point eta = 0, and (embeddable charts only)
# the collar band's midline crossed upward, appended per chart
_CONTACT, _TURN, _EXIT = 0, 1, 2
_COLLAR_EVENTS = ((lambda get: get(0), -1), (lambda get: get(2), 0))


def _brent(f, a, b, xtol):
    """Root of f in [a, b] by Brent's method; a port of scipy's brentq.

    Converges to within xtol + 4 eps |x|, in at most 100 iterations.
    """
    xpre, xcur = a, b
    fpre, fcur = f(xpre), f(xcur)
    if fpre == 0:
        return xpre
    if fcur == 0:
        return xcur
    if (fpre < 0) == (fcur < 0):
        raise ValueError("f(a) and f(b) must have different signs")
    xblk = fblk = spre = scur = 0.0
    for _ in range(100):
        if fpre != 0 and fcur != 0 and (fpre < 0) != (fcur < 0):
            xblk, fblk = xpre, fpre
            spre = scur = xcur - xpre
        if abs(fblk) < abs(fcur):
            xpre, xcur, xblk = xcur, xblk, xcur
            fpre, fcur, fblk = fcur, fblk, fcur
        delta = (xtol + _ROOT_TOL * abs(xcur)) / 2
        sbis = (xblk - xcur) / 2
        if fcur == 0 or abs(sbis) < delta:
            return xcur
        if abs(spre) > delta and abs(fcur) < abs(fpre):
            if xpre == xblk:
                # secant
                stry = -fcur * (xcur - xpre) / (fcur - fpre)
            else:
                # inverse quadratic interpolation
                dpre = (fpre - fcur) / (xpre - xcur)
                dblk = (fblk - fcur) / (xblk - xcur)
                stry = -fcur * (fblk * dblk - fpre * dpre) / (dblk * dpre * (fblk - fpre))
            if 2 * abs(stry) < min(abs(spre), 3 * abs(sbis) - delta):
                spre, scur = scur, stry
            else:
                spre = scur = sbis
        else:
            spre = scur = sbis
        xpre, fpre = xcur, fcur
        if abs(scur) > delta:
            xcur += scur
        else:
            xcur += delta if sbis > 0 else -delta
        fcur = f(xcur)
    raise RuntimeError("root not converged in 100 iterations")


def _rms_scaled(v, scale):
    return math.sqrt(sum((a / s) ** 2 for a, s in zip(v, scale))) / len(v) ** 0.5


def _initial_step(f, y0, f0, interval):
    """First step size: Hairer, Norsett & Wanner II.4, as scipy selects it."""
    scale = [ATOL + abs(a) * RTOL for a in y0]
    d0 = _rms_scaled(y0, scale)
    d1 = _rms_scaled(f0, scale)
    h0 = 1e-6 if d0 < 1e-5 or d1 < 1e-5 else 0.01 * d0 / d1
    h0 = min(h0, interval)
    f1 = f([a + h0 * b for a, b in zip(y0, f0)])
    d2 = _rms_scaled([a - b for a, b in zip(f1, f0)], scale) / h0
    if d1 <= 1e-15 and d2 <= 1e-15:
        h1 = max(1e-6, h0 * 1e-3)
    else:
        h1 = (0.01 / max(d1, d2)) ** (1 / 5)
    return min(100 * h0, h1, interval, MAX_STEP_COLLAR)


def _dp_step(f, y, fy, h):
    """One Dormand-Prince step of size h: (y_new, stages K0..K6, error norm).

    The state is the 4-component collar state (y, x', eta, xi'), and fy =
    f(y) is K0.  The error norm is the RMS of the embedded error estimate
    over ATOL + RTOL max(|y|, |y_new|), as scipy's RK45 scales it.  The
    tableau of scipy's RK45 is written out: each sum over a tableau row runs
    left to right from 0.0, where Python's sum starts (0 + -0.0 reads
    +0.0), and skips the zero weights of K1, which with finite stages add a
    signed zero to a sum started from 0.0 and so change nothing.  A negative
    weight's term is subtracted, which rounds as adding it.  The error sums
    start at their first term, as they are squared.  The nodes c_i go
    unused, as the collar field is autonomous.
    """
    y0, y1, y2, y3 = y
    k00, k01, k02, k03 = k0 = fy
    k10, k11, k12, k13 = k1 = f((
        y0 + h * (0.0 + 1 / 5 * k00),
        y1 + h * (0.0 + 1 / 5 * k01),
        y2 + h * (0.0 + 1 / 5 * k02),
        y3 + h * (0.0 + 1 / 5 * k03),
    ))
    k20, k21, k22, k23 = k2 = f((
        y0 + h * (0.0 + 3 / 40 * k00 + 9 / 40 * k10),
        y1 + h * (0.0 + 3 / 40 * k01 + 9 / 40 * k11),
        y2 + h * (0.0 + 3 / 40 * k02 + 9 / 40 * k12),
        y3 + h * (0.0 + 3 / 40 * k03 + 9 / 40 * k13),
    ))
    k30, k31, k32, k33 = k3 = f((
        y0 + h * (0.0 + 44 / 45 * k00 - 56 / 15 * k10 + 32 / 9 * k20),
        y1 + h * (0.0 + 44 / 45 * k01 - 56 / 15 * k11 + 32 / 9 * k21),
        y2 + h * (0.0 + 44 / 45 * k02 - 56 / 15 * k12 + 32 / 9 * k22),
        y3 + h * (0.0 + 44 / 45 * k03 - 56 / 15 * k13 + 32 / 9 * k23),
    ))
    k40, k41, k42, k43 = k4 = f((
        y0 + h * (0.0 + 19372 / 6561 * k00 - 25360 / 2187 * k10
                  + 64448 / 6561 * k20 - 212 / 729 * k30),
        y1 + h * (0.0 + 19372 / 6561 * k01 - 25360 / 2187 * k11
                  + 64448 / 6561 * k21 - 212 / 729 * k31),
        y2 + h * (0.0 + 19372 / 6561 * k02 - 25360 / 2187 * k12
                  + 64448 / 6561 * k22 - 212 / 729 * k32),
        y3 + h * (0.0 + 19372 / 6561 * k03 - 25360 / 2187 * k13
                  + 64448 / 6561 * k23 - 212 / 729 * k33),
    ))
    k50, k51, k52, k53 = k5 = f((
        y0 + h * (0.0 + 9017 / 3168 * k00 - 355 / 33 * k10 + 46732 / 5247 * k20
                  + 49 / 176 * k30 - 5103 / 18656 * k40),
        y1 + h * (0.0 + 9017 / 3168 * k01 - 355 / 33 * k11 + 46732 / 5247 * k21
                  + 49 / 176 * k31 - 5103 / 18656 * k41),
        y2 + h * (0.0 + 9017 / 3168 * k02 - 355 / 33 * k12 + 46732 / 5247 * k22
                  + 49 / 176 * k32 - 5103 / 18656 * k42),
        y3 + h * (0.0 + 9017 / 3168 * k03 - 355 / 33 * k13 + 46732 / 5247 * k23
                  + 49 / 176 * k33 - 5103 / 18656 * k43),
    ))
    n0, n1, n2, n3 = y_new = (
        y0 + h * (0.0 + 35 / 384 * k00 + 500 / 1113 * k20 + 125 / 192 * k30
                  - 2187 / 6784 * k40 + 11 / 84 * k50),
        y1 + h * (0.0 + 35 / 384 * k01 + 500 / 1113 * k21 + 125 / 192 * k31
                  - 2187 / 6784 * k41 + 11 / 84 * k51),
        y2 + h * (0.0 + 35 / 384 * k02 + 500 / 1113 * k22 + 125 / 192 * k32
                  - 2187 / 6784 * k42 + 11 / 84 * k52),
        y3 + h * (0.0 + 35 / 384 * k03 + 500 / 1113 * k23 + 125 / 192 * k33
                  - 2187 / 6784 * k43 + 11 / 84 * k53),
    )
    k60, k61, k62, k63 = k6 = f(y_new)
    # error estimate over its scale, component by component
    e0 = h * (-71 / 57600 * k00 + 71 / 16695 * k20 - 71 / 1920 * k30 + 17253 / 339200 * k40
              - 22 / 525 * k50 + 1 / 40 * k60) / (ATOL + max(abs(y0), abs(n0)) * RTOL)
    e1 = h * (-71 / 57600 * k01 + 71 / 16695 * k21 - 71 / 1920 * k31 + 17253 / 339200 * k41
              - 22 / 525 * k51 + 1 / 40 * k61) / (ATOL + max(abs(y1), abs(n1)) * RTOL)
    e2 = h * (-71 / 57600 * k02 + 71 / 16695 * k22 - 71 / 1920 * k32 + 17253 / 339200 * k42
              - 22 / 525 * k52 + 1 / 40 * k62) / (ATOL + max(abs(y2), abs(n2)) * RTOL)
    e3 = h * (-71 / 57600 * k03 + 71 / 16695 * k23 - 71 / 1920 * k33 + 17253 / 339200 * k43
              - 22 / 525 * k53 + 1 / 40 * k63) / (ATOL + max(abs(y3), abs(n3)) * RTOL)
    error_norm = math.sqrt(e0**2 + e1**2 + e2**2 + e3**2) / 2.0
    return y_new, (k0, k1, k2, k3, k4, k5, k6), error_norm


def _dense(step, t, i):
    """Component i of one step's quartic continuous extension at time t.

    The quartic's coefficients are scipy's RK45 dense-output matrix P times
    the stages, summed as _dp_step sums a tableau row, without the zero
    entries of K1 and of the first column.
    """
    t_old, h, y_old, (k0, _, k2, k3, k4, k5, k6) = step
    k0, k2, k3, k4, k5, k6 = k0[i], k2[i], k3[i], k4[i], k5[i], k6[i]
    q1 = (0.0 - 8048581381 / 2820520608 * k0 + 131558114200 / 32700410799 * k2
          - 1754552775 / 470086768 * k3 + 127303824393 / 49829197408 * k4
          - 282668133 / 205662961 * k5 + 40617522 / 29380423 * k6)
    q2 = (0.0 + 8663915743 / 2820520608 * k0 - 68118460800 / 10900136933 * k2
          + 14199869525 / 1410260304 * k3 - 318862633887 / 49829197408 * k4
          + 2019193451 / 616988883 * k5 - 110615467 / 29380423 * k6)
    q3 = (0.0 - 12715105075 / 11282082432 * k0 + 87487479700 / 32700410799 * k2
          - 10690763975 / 1880347072 * k3 + 701980252875 / 199316789632 * k4
          - 1453857185 / 822651844 * k5 + 69997945 / 29380423 * k6)
    x = (t - t_old) / h
    x2 = x * x
    x3 = x2 * x
    return y_old[i] + h * ((0.0 + k0) * x + q1 * x2 + q2 * x3 + q3 * (x3 * x))


class _CollarPath:
    """Dense output of one collar or glide solve, one quartic per accepted step.

    ts holds the step boundaries, the last one cut to the event time when an
    event ended the solve.  A time on a boundary takes the earlier step, and
    times outside extrapolate the end steps, as scipy's OdeSolution does.
    """

    def __init__(self, t0):
        self.ts = [t0]
        self.steps = []  # (t_old, h, y_old, K)

    def __call__(self, t):
        j = min(max(bisect_left(self.ts, t) - 1, 0), len(self.steps) - 1)
        step = self.steps[j]
        return np.array([_dense(step, t, i) for i in range(len(step[2]))])


def _solve_collar(f, t, y, t_bound, events):
    """Integrate y' = f(y) from t toward t_bound, stopping at the first event.

    Events are (function, direction) pairs, as solve_ivp's terminal events:
    function(get) reads the state components it needs through get(i), so
    the root search on a step's dense polynomial evaluates only those.  An
    event fires on a sign change in the given direction (0 for either) over
    an accepted step.  Unlike solve_ivp, an event function that is exactly
    0 at both ends of a step does not fire: it holds a conserved zero (eta
    on a y-independent chart, or a zero covector) and would fire again
    after every restart.  Returns (path, hit) with hit = (event index,
    time, state) or None when t_bound is reached first.
    """
    fy = f(y)
    h_abs = _initial_step(f, y, fy, t_bound - t)
    path = _CollarPath(t)
    get = y.__getitem__
    g = [fn(get) for fn, _ in events]
    while True:
        min_step = 10 * (math.nextafter(t, math.inf) - t)
        h_abs = min(max(h_abs, min_step), MAX_STEP_COLLAR)
        rejected = False
        while True:
            if h_abs < min_step:
                raise RuntimeError(
                    "collar integration failed: required step size is less than"
                    " spacing between numbers"
                )
            t_new = min(t + h_abs, t_bound)
            h = t_new - t
            h_abs = abs(h)
            y_new, K, error_norm = _dp_step(f, y, fy, h)
            if error_norm < 1:
                if error_norm == 0:
                    factor = _MAX_FACTOR
                else:
                    factor = min(_MAX_FACTOR, _SAFETY * error_norm**_ERR_EXP)
                if rejected:
                    factor = min(1, factor)
                h_abs *= factor
                break
            h_abs *= max(_MIN_FACTOR, _SAFETY * error_norm**_ERR_EXP)
            rejected = True

        step = (t, h, y, K)
        path.steps.append(step)
        path.ts.append(t_new)
        hit = None
        get = y_new.__getitem__
        g_new = [fn(get) for fn, _ in events]
        for n, ((fn, direction), g0, g1) in enumerate(zip(events, g, g_new)):
            if g0 == 0 == g1:
                continue
            up = g0 <= 0 <= g1
            down = g0 >= 0 >= g1
            if (up and direction >= 0) or (down and direction <= 0):
                root = _brent(
                    lambda s, fn=fn: fn(lambda i: _dense(step, s, i)),
                    t,
                    t_new,
                    _ROOT_TOL,
                )
                if hit is None or root < hit[1]:
                    hit = (n, root)
        if hit is not None:
            n, root = hit
            path.ts[-1] = root
            return path, (n, root, [_dense(step, root, i) for i in range(len(y))])
        if t_new >= t_bound:
            return path, None
        t, y, fy, g = t_new, y_new, K[-1], g_new


@dataclass(frozen=True)
class RayEvent:
    kind: str
    t: float
    point: Optional[PhasePoint] = None
    x: Optional[tuple] = None
    classification: Optional[BoundaryClass] = None


@dataclass
class RaySegment:
    kind: str  # "free" | "collar" | "gliding"
    frame: str  # "cartesian" | "collar"
    t0: float
    t1: float
    chart: Optional[CollarChart]
    evaluate: Callable[[float], np.ndarray]


def _components(chart):
    """The chart and, on an annulus, the chart of its other boundary circle."""
    if hasattr(chart, "other_component"):
        return [chart, chart.other_component()]
    return [chart]


class GeneralizedRay:
    """Piecewise trajectory together with its boundary events.

    State vectors are (x1, x2, xi1, xi2) in the cartesian frame and
    (y, x', eta, xi') in a collar frame.
    """

    def __init__(self, chart, segments, events, status, t0, t1):
        self.chart = chart
        self.segments = segments
        self.events = events
        self.status = status
        self.t0 = t0
        self.t1 = t1

    @property
    def t_final(self) -> float:
        """Endpoint away from the anchor t = 0 (negative for backward rays)."""
        return self.t0 if abs(self.t0) > abs(self.t1) else self.t1

    @property
    def reflections(self) -> int:
        return sum(1 for e in self.events if e.kind == "reflect")

    def segment_at(self, t: float) -> RaySegment:
        if not self.segments:
            raise ValueError("empty ray")
        lo, hi = sorted((self.t0, self.t1))
        if not (lo - 1e-9 <= t <= hi + 1e-9):
            raise ValueError(f"time {t} outside [{lo}, {hi}]")
        # the first segment within 1e-12 of t, else the nearest one: a
        # restart nudge (`KICK`) leaves a gap between two segments
        return min(
            self.segments,
            key=lambda seg: max(seg.t0 - 1e-12 - t, t - seg.t1 - 1e-12, 0.0),
        )

    def state_vector(self, t: float):
        seg = self.segment_at(t)
        return seg.frame, seg.chart, np.asarray(seg.evaluate(t), dtype=float)

    def state_collar(self, t: float) -> PhasePoint:
        frame, chart, u = self.state_vector(t)
        if frame == "collar":
            return PhasePoint(u[0], u[1], u[2], u[3])
        for ch in _components(self.chart):
            p = ch.from_cartesian(u[:2], u[2:])
            if -1e-9 <= p.y <= ch.collar_width:
                return p
        raise ValueError("state is outside every collar at this time")

    def state_cartesian(self, t: float):
        frame, chart, u = self.state_vector(t)
        if frame == "cartesian":
            return u[:2], u[2:]
        if not hasattr(chart, "to_cartesian"):
            raise ValueError("this chart has no ambient embedding")
        p = PhasePoint(max(u[0], 0.0), u[1], u[2], u[3])
        return chart.to_cartesian(p)

    def final_collar(self) -> PhasePoint:
        return self.state_collar(self.t_final)

    def final_cartesian(self):
        return self.state_cartesian(self.t_final)

    def _time_reversed(self) -> "GeneralizedRay":
        def rev_seg(seg: RaySegment) -> RaySegment:
            def ev(t, _seg=seg):
                u = np.array(_seg.evaluate(-t), dtype=float)
                u[2:] *= -1.0
                return u

            return RaySegment(seg.kind, seg.frame, -seg.t1, -seg.t0, seg.chart, ev)

        segs = [rev_seg(s) for s in reversed(self.segments)]
        evs = [
            RayEvent(
                e.kind,
                -e.t,
                e.point.flipped() if e.point is not None else None,
                e.x,
                e.classification,
            )
            for e in reversed(self.events)
        ]
        return GeneralizedRay(self.chart, segs, evs, self.status, -self.t1, -self.t0)


def reflect_hyperbolic(chart: CollarChart, point: PhasePoint) -> PhasePoint:
    """Specular update at a transversal boundary contact: eta -> +sqrt(r0)."""
    r0 = chart.r0(point.xp, point.xip)
    if r0 <= TOL_G:
        raise ValueError(f"contact is not hyperbolic (r0 = {r0})")
    return PhasePoint(0.0, point.xp, math.sqrt(r0), point.xip)


def _collar_field(chart: CollarChart):
    """Hamilton field of the collar symbol on (y, x', eta, xi')."""

    jet = chart._jet_values

    def f(u):
        _, dr_dy, dr_dxp, dr_dxip = jet(u[0], u[1], u[3])
        return (2.0 * u[2], -dr_dxip, dr_dy, dr_dxp)

    return f


def _glide_field(chart: CollarChart):
    """Hamilton field of r0 on the boundary, in the collar state (0, x', 0, xi')."""

    jet = chart._jet_values

    def f(u):
        _, _, dr_dxp, dr_dxip = jet(0.0, u[1], u[3])
        return (0.0, -dr_dxip, 0.0, dr_dxp)

    return f


def _project_shell(chart: CollarChart, xp: float, xip: float) -> float:
    # Newton steps in xi' push the point back onto {r0 = 0}
    for _ in range(3):
        r, _, _, dr_dxip = chart._jet_values(0.0, xp, xip)
        if abs(r) < 1e-14 * (1.0 + xip * xip):
            break
        if abs(dr_dxip) < 1e-12:
            break
        xip = xip - r / dr_dxip
    return xip


def _kick(chart: CollarChart, u):
    # one tiny Dormand-Prince step of the collar field, so restarts do not
    # sit exactly on an event root
    f = _collar_field(chart)
    return _dp_step(f, u, f(u), KICK)[0]


class _Tracer:
    """The stage loop of one ray.

    Each stage takes (t, payload, t_total) and returns (t, mode, payload),
    where mode names the next stage, or is "done" once time runs out or
    the ray aborts.  Every logged event but the closing finish, and every
    restart, is charged against MAX_EVENTS, and the charge past it sets the
    status that ends the loop.
    """

    def __init__(self, chart: CollarChart):
        self.chart = chart
        self.segments: list = []
        self.events: list = []
        self.restarts = 0
        self.status = "completed"
        self.embeddable = hasattr(chart, "to_cartesian")
        self.bands = []
        if self.embeddable:
            self.bands = [
                (ch, ch.radius(0.5 * ch.collar_width), ch.component) for ch in _components(chart)
            ]

    # -- event logging ---------------------------------------------------

    def _log(self, kind, t, chart, point, x=None, classification=None):
        """Record an event and charge all but a finish; without x, its
        position is taken through `chart`."""
        if x is None and hasattr(chart, "to_cartesian"):
            try:
                xa, _ = chart.to_cartesian(
                    PhasePoint(max(point.y, 0.0), point.xp, point.eta, point.xip)
                )
                x = (float(xa[0]), float(xa[1]))
            except ValueError:
                x = None
        self.events.append(RayEvent(kind, t, point, x, classification))
        if kind != "finish":
            self._check_budget()

    def _check_budget(self):
        """Abort the ray once its events and restarts exceed MAX_EVENTS."""
        if len(self.events) + self.restarts > MAX_EVENTS:
            self.status = "aborted_max_events"

    # -- free flight -------------------------------------------------------

    def _entry_time(self, x, xi):
        """Earliest future crossing into a collar band, or None."""
        best = None
        a = float(xi @ xi)
        b = float(x @ xi)
        for ch, radius, side in self.bands:
            c = float(x @ x) - radius * radius
            disc = b * b - a * c
            if disc <= 0.0:
                continue
            root = math.sqrt(disc)
            # outer bands are entered moving outward (larger root), inner
            # bands moving inward (smaller root)
            t_cross = (-b + root) / (2.0 * a) if side == "outer" else (-b - root) / (2.0 * a)
            if t_cross > 1e-13 and (best is None or t_cross < best[0]):
                best = (t_cross, ch)
        return best

    def run_free(self, t, payload, t_total):
        x = np.array(payload[0], dtype=float)
        xi = np.array(payload[1], dtype=float)
        hit = self._entry_time(x, xi)
        t_end = t_total if hit is None else min(t + hit[0], t_total)

        def ev(tt, _t=t, _x=x.copy(), _xi=xi.copy()):
            return np.concatenate([_x + 2.0 * (tt - _t) * _xi, _xi])

        self.segments.append(RaySegment("free", "cartesian", t, t_end, None, ev))
        if hit is None or t + hit[0] >= t_total:
            return t_total, "done", None
        x_new = x + 2.0 * hit[0] * xi
        pt = hit[1].from_cartesian(x_new, xi)
        self._log("enter_collar", t_end, hit[1], pt, (float(x_new[0]), float(x_new[1])))
        return t_end, "collar", (hit[1], pt)

    # -- collar integration --------------------------------------------------

    def run_collar(self, t, payload, t_total):
        """Integrate inside the collar until contact, exit, or time runs out."""
        chart, pt = payload
        if pt.y <= GRAZE_TOL and pt.eta <= 0.0:
            # on the boundary moving along or into it: dispatch immediately
            return self.dispatch(t, chart, pt)

        u0 = [float(pt.y), float(pt.xp), float(pt.eta), float(pt.xip)]
        events = _COLLAR_EVENTS
        if self.embeddable:
            mid = 0.5 * chart.collar_width
            events += ((lambda get: get(0) - mid, 1),)
        path, hit = _solve_collar(_collar_field(chart), t, u0, t_total, events)
        segment = RaySegment("collar", "collar", t, path.ts[-1], chart, path)
        self.segments.append(segment)
        if hit is None:
            return t_total, "done", None

        kind, t_hit, u = hit
        if kind == _EXIT:
            p = PhasePoint(u[0], u[1], u[2], u[3])
            x, xi = chart.to_cartesian(p)
            self._log("exit_collar", t_hit, chart, p, (float(x[0]), float(x[1])))
            return t_hit, "free", (x, xi)

        if kind == _CONTACT:
            return self.dispatch(t_hit, chart, PhasePoint(0.0, u[1], u[2], u[3]))

        # turning point: eta hits 0 and y is locally extremal there
        if u[0] > GRAZE_TOL:
            # perihelion above the boundary: nudge past the root and go on;
            # the nudge logs no event, so it is charged here
            self.restarts += 1
            self._check_budget()
            return t_hit + KICK, "collar", (chart, PhasePoint(*_kick(chart, u)))
        if u[0] >= -GRAZE_TOL:
            return self.dispatch(t_hit, chart, PhasePoint(0.0, u[1], u[2], u[3]))
        # the step dipped below the boundary without an endpoint sign change;
        # locate the first actual crossing inside the accepted step
        t_a = path.ts[max(bisect_left(path.ts, t_hit) - 1, 0)]
        t_c = _brent(lambda s: path(s)[0], t_a, t_hit, 1e-14)
        u_c = path(t_c)
        segment.t1 = t_c
        return self.dispatch(t_c, chart, PhasePoint(0.0, u_c[1], u_c[2], u_c[3]))

    # -- contact dispatch ------------------------------------------------------

    def dispatch(self, t, chart, contact: PhasePoint):
        cls = classify(chart, contact.xp, contact.xip)
        if cls.tag == HYPERBOLIC:
            out = reflect_hyperbolic(chart, contact)
            self._log("reflect", t, chart, out, classification=cls)
            return t, "collar", (chart, out)
        if cls.tag == GLANCING and not cls.unresolved:
            if cls.order == 2 and cls.sign == 1:
                out = PhasePoint(0.0, contact.xp, -contact.eta, contact.xip)
                self._log("diffract", t, chart, out, classification=cls)
                if out.eta <= 0.0:
                    u = _kick(chart, [0.0, out.xp, out.eta, out.xip])
                    return t + KICK, "collar", (chart, PhasePoint(*u))
                return t, "collar", (chart, out)
            start = PhasePoint(
                0.0, contact.xp, 0.0, _project_shell(chart, contact.xp, contact.xip)
            )
            self._log("glide_start", t, chart, start, classification=cls)
            return t, "glide", (chart, start)
        kind = "abort_unresolved" if cls.tag == GLANCING else "abort_elliptic"
        self._log(kind, t, chart, contact, classification=cls)
        if self.status == "completed":
            self.status = "aborted_" + kind.split("_", 1)[1]
        return t, "done", None

    # -- gliding ---------------------------------------------------------------

    def run_glide(self, t, payload, t_total):
        """Glide along the boundary until r1 turns positive or time runs out."""
        chart, pt = payload
        u = [0.0, pt.xp, 0.0, pt.xip]
        if chart.r1(pt.xp, pt.xip) > 0.0:
            # the liftoff condition already holds: release at once
            hit = (0, t, u)
            segment = RaySegment("gliding", "collar", t, t, chart, lambda tt, _u=np.array(u): _u)
        else:
            release = (lambda get: chart.r1(get(1), get(3)), 1)
            path, hit = _solve_collar(_glide_field(chart), t, u, t_total, (release,))
            segment = RaySegment("gliding", "collar", t, path.ts[-1], chart, path)
        self.segments.append(segment)
        if hit is None:
            return t_total, "done", None
        _, t_rel, u = hit
        self._log("glide_release", t_rel, chart, PhasePoint(*u))
        return t_rel + KICK, "collar", (chart, PhasePoint(*_kick(chart, u)))

    # -- main loop ---------------------------------------------------------------

    def _place(self, x, xi):
        """Assign an ambient point to a collar band or the free region."""
        rho = float(np.hypot(x[0], x[1]))
        for ch, radius, side in self.bands:
            inside = rho >= radius - 1e-12 if side == "outer" else rho <= radius + 1e-12
            if inside:
                return "collar", (ch, ch.from_cartesian(x, xi))
        return "free", (x, xi)

    def run(self, start, t_total):
        if isinstance(start, PhasePoint):
            if self.embeddable and start.y > 0.5 * self.chart.collar_width:
                x, xi = self.chart.to_cartesian(start)
                mode, payload = self._place(np.asarray(x), np.asarray(xi))
            else:
                mode, payload = "collar", (self.chart, start)
        else:
            x = np.asarray(start[0], dtype=float)
            xi = np.asarray(start[1], dtype=float)
            mode, payload = self._place(x, xi)

        stages = {"free": self.run_free, "collar": self.run_collar, "glide": self.run_glide}
        t, mode0, payload0 = 0.0, mode, payload
        while t < t_total - 1e-15 and self.status == "completed":
            t, mode, payload = stages[mode](t, payload, t_total)

        if not self.segments:
            # nothing integrated (t_total = 0 or an immediate abort): expose
            # the start state through a zero-length segment
            if mode0 == "free":
                frame, chart, u0 = "cartesian", None, np.concatenate(payload0)
            else:
                chart, p0 = payload0
                frame, u0 = "collar", np.array([p0.y, p0.xp, p0.eta, p0.xip])
            self.segments.append(RaySegment(mode0, frame, 0.0, 0.0, chart, lambda tt, _u=u0: _u))
        if self.status == "completed":
            last = self.segments[-1]
            u = last.evaluate(last.t1)
            if last.frame == "collar":
                self._log("finish", last.t1, last.chart, PhasePoint(u[0], u[1], u[2], u[3]))
            else:
                self._log("finish", last.t1, None, None, (float(u[0]), float(u[1])))
        return GeneralizedRay(
            self.chart, self.segments, self.events, self.status, 0.0, self.segments[-1].t1
        )


def check_start(chart: CollarChart, start: Union[PhasePoint, tuple]) -> None:
    """ValueError unless `start` lies in the chart's closed domain.

    A collar-frame PhasePoint needs y >= 0 on every chart and, on a chart
    with an embedding, a state that maps into the domain; an ambient
    (x, xi) pair needs an embeddable chart, x in its domain and |xi| = 1
    within SHELL_TOL.  Both hold the boundary up to 1e-12, as
    billiard.propagate does.  A collar-frame start off the shell
    eta^2 = r is taken as given.
    """
    embeddable = hasattr(chart, "to_cartesian")
    if isinstance(start, PhasePoint):
        if start.y < -1e-12:
            raise ValueError(f"y = {start.y} lies below the boundary y = 0")
        if embeddable:
            try:
                x, _ = chart.to_cartesian(start)
                inside, why = chart.contains(x), ""
            except ValueError as exc:  # past the disk center, or at it with xi' != 0
                inside, why = False, f" ({exc})"
            if not inside:
                raise ValueError(
                    f"y = {start.y} does not map into the closed {chart.kind} domain{why}"
                )
    elif not embeddable:
        raise ValueError(
            f"a {chart.kind} chart has no ambient embedding, give the start as {{y, xp, eta, xip}}"
        )
    elif not chart.contains(start[0]):
        x = start[0]
        raise ValueError(f"x = ({x[0]}, {x[1]}) lies outside the closed {chart.kind} domain")
    else:
        speed = math.hypot(*start[1])
        if not abs(speed - 1.0) <= SHELL_TOL:
            raise ValueError(
                f"|xi| = {speed} lies off the unit energy shell |xi| = 1 (tolerance"
                f" {SHELL_TOL:g}), which the collar field and the reflections assume"
            )


def trace(chart: CollarChart, start: Union[PhasePoint, tuple], t_total: float) -> GeneralizedRay:
    """Trace the generalized broken ray through `start` for time `t_total`.

    `start` is a PhasePoint in the chart's collar frame, or an (x, xi) pair
    in ambient coordinates for embeddable charts.  Negative times run the
    flow backward through the momentum-flip involution.  ValueError unless
    the time and the start are finite and check_start accepts the start.
    """
    if isinstance(start, PhasePoint):
        values = [start.y, start.xp, start.eta, start.xip]
        flipped = start.flipped()
    else:
        x, xi = np.asarray(start[0], dtype=float), np.asarray(start[1], dtype=float)
        start, flipped = (x, xi), (x, -xi)
        values = x.tolist() + xi.tolist()
    if not all(math.isfinite(v) for v in [t_total, *values]):
        raise ValueError(f"trace needs a finite time and start, got {t_total} and {values}")
    check_start(chart, start)
    if t_total < 0:
        return _Tracer(chart).run(flipped, -t_total)._time_reversed()
    return _Tracer(chart).run(start, t_total)
