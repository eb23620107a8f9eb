"""Experiment configs: the table of experiment kinds, validation and builders.

A config is a plain JSON document listing experiments over one chart.
Each experiment kind is one record of `KINDS`: the schema of its keys,
the cross-key rules no schema states, and the runner that computes it
and returns an `Outcome`.  Validation reports every offense by the
dotted path of the offending key before any numerics run.  The schema
runs first; the cross-key rules of an experiment's own keys, of its
family and of its symbol then run only where the schema found no error
inside that part, so they read well-typed values.  Builders turn the
declarative specs into charts, mode families and symbols.

The identity of a run is the canonical form of (chart, experiments,
thresholds, seed); the output directory and the worker count are
execution details and stay out of the hash.
"""

from __future__ import annotations

import math
from collections import namedtuple
from dataclasses import dataclass
from typing import Optional, Sequence

import jsonschema
import numpy as np

from .bumps import bump_profile, plateau_step, window
from .charts import PhasePoint, load_chart
from .classify import classify
from .flow import check_start, trace
from .io import config_hash
from .modes import ModeSpec, family_lambda, laplace_disk_mode, pick_k_for_ratio, stokes_disk_mode
from .parametrix import build_parametrix, extension_error
from .quantize import InteriorSymbol, SeparableTerm, TangentialSymbol, measure_sequence
from .verify import Thresholds
from .verify import car_mass, elliptic_mass, h_oscillation_tail, invariance_gap, support_gap

__all__ = [
    "ConfigError",
    "Outcome",
    "RunContext",
    "KINDS",
    "validate_config",
    "ExperimentConfig",
    "load_config",
    "family_members",
    "build_family",
    "build_symbol",
]


class ConfigError(ValueError):
    """Invalid experiment config; `errors` holds one message per offense."""

    def __init__(self, errors: Sequence[str]):
        self.errors = list(errors)
        super().__init__(
            "invalid config:\n" + "\n".join("  " + e for e in self.errors)
        )


_NUM = {"type": "number"}
_POS = {"type": "number", "exclusiveMinimum": 0}
_FRAC = {"type": "number", "exclusiveMinimum": 0, "exclusiveMaximum": 1}
_INT_NN = {"type": "integer", "minimum": 0}
_INT_POS = {"type": "integer", "minimum": 1}
_WINDOW = {"type": "array", "items": _NUM, "minItems": 4, "maxItems": 4}
_NAME = {"type": "string", "pattern": "^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$"}
_PAIR = {"type": "array", "items": _NUM, "minItems": 2, "maxItems": 2}


def _by(key: str, schemas: dict) -> dict:
    """Object schema applying schemas[its value at `key`]."""
    return {
        "type": "object",
        "properties": {key: {"enum": list(schemas)}},
        "required": [key],
        "pick": [key, schemas],
    }


def _pick(validator, pick, instance, schema):
    # keyword "pick": [key, {value: schema}] applies the schema an object's
    # value at key names; the enum beside it in _by reports any other value
    key, schemas = pick
    if validator.is_type(instance, "object"):
        for value, picked in schemas.items():
            if instance.get(key) == value:
                yield from validator.descend(instance, picked)


_FAMILY = {
    "type": "object",
    "properties": {
        "family": {"enum": ["laplace", "stokes"]},
        "m": {"anyOf": [_INT_NN, {"type": "array", "items": _INT_NN, "minItems": 1}]},
        "k": {
            "anyOf": [
                _INT_POS,
                {"type": "array", "items": _INT_POS, "minItems": 1},
                {
                    "type": "object",
                    "properties": {"ratio": _FRAC, "k_max": _INT_POS},
                    "required": ["ratio"],
                    "additionalProperties": False,
                },
            ]
        },
        "num_r": _INT_POS,
        "num_theta": _INT_POS,
    },
    "required": ["family", "m", "k"],
    "additionalProperties": False,
}

_WINDOWED = {
    "properties": {"var": {}, "window": _WINDOW},
    "required": ["window"],
    "additionalProperties": False,
}
_FACTOR = _by(
    "var",
    {
        "radius": _WINDOWED,
        "speed": _WINDOWED,
        "speed_sq": _WINDOWED,
        "angular_momentum": _WINDOWED,
        "bump": {
            "properties": {"var": {}, "center": _PAIR, "radius": _POS},
            "required": ["center", "radius"],
            "additionalProperties": False,
        },
    },
)

_ARC = {
    "type": "object",
    "properties": {"center": _NUM, "inner": _POS, "outer": _POS},
    "required": ["center", "inner", "outer"],
    "additionalProperties": False,
}

_SYMBOL = _by(
    "type",
    {
        "interior": {
            "properties": {
                "type": {},
                "xi_bound": _POS,
                "factors": {"type": "array", "items": _FACTOR, "minItems": 1},
                "arc": _ARC,
                "name": {"type": "string"},
            },
            "required": ["xi_bound", "factors"],
            "additionalProperties": False,
        },
        "tangential": {
            "properties": {
                "type": {},
                "y_support": _FRAC,
                "y_ramp": _PAIR,
                "xip_window": _WINDOW,
                "xip_abs": {"type": "boolean"},
                "arc": _ARC,
                "name": {"type": "string"},
            },
            "required": ["y_support"],
            "additionalProperties": False,
        },
    },
)

# ---------------------------------------------------------------------------
# cross-key rules: each reads only values its part's schema has accepted


# a window ramp narrower than this switches within round-off of its edges,
# so a transported value on it is rounding noise
MIN_RAMP = 1e-9


def _check_window(w, where: str):
    if w is None:
        return
    if not w[0] <= w[1] <= w[2] <= w[3]:
        yield f"{where}: window edges must be nondecreasing, got {w}"
    elif min(w[1] - w[0], w[3] - w[2]) < MIN_RAMP:
        yield f"{where}: window ramps must be at least {MIN_RAMP:g} wide, got {w}"


def _check_symbol(spec: dict, where: str):
    if spec["type"] == "interior":
        for j, f in enumerate(spec["factors"]):
            yield from _check_window(f.get("window"), f"{where}.factors[{j}].window")
        if not any(f["var"] in ("radius", "bump") for f in spec["factors"]):
            yield (
                f"{where}.factors: interior symbols need a radius or bump factor"
                " so the spatial support is bounded"
            )
    else:
        ramp = spec.get("y_ramp")
        if ramp is not None and not 0.0 <= ramp[0] < ramp[1] <= spec["y_support"]:
            yield f"{where}.y_ramp: need 0 <= a < b <= y_support, got {ramp}"
        yield from _check_window(spec.get("xip_window"), f"{where}.xip_window")
    arc = spec.get("arc")
    if arc is not None and not arc["inner"] < arc["outer"] < np.pi:
        yield f"{where}.arc: need 0 < inner < outer < pi for a smooth wrapped arc"


def _check_family(fam: dict, where: str) -> list[str]:
    errors = []
    m, k = fam["m"], fam["k"]
    if isinstance(m, list) and isinstance(k, list) and len(m) != len(k):
        errors.append(f"{where}: m and k lists must have equal length to pair up")
    if fam["family"] == "stokes" and min(m if isinstance(m, list) else [m]) < 1:
        errors.append(f"{where}.m: the velocity family needs m >= 1")
    if errors or not {"num_r", "num_theta"} & set(fam):
        return errors
    # the defaults clear the floors; explicit sizes must clear them for
    # every member, since the floors grow with m and lam
    for mi, ki in family_members(fam):
        spec = ModeSpec(fam["family"], mi, ki, fam.get("num_r"), fam.get("num_theta"))
        try:
            spec.resolve(family_lambda(fam["family"], mi, ki))
        except ValueError as exc:
            key = "num_theta" if "num_theta" in str(exc) else "num_r"
            return [f"{where}.{key}: {exc}"]
    return errors


def _no_rules(exp, where, chart):
    return ()


def _symbol_of(symbol_type):
    """Rule of a kind that pairs `symbol_type` symbols only."""

    def check(exp, where, chart):
        if exp["symbol"]["type"] != symbol_type:
            yield f"{where}.symbol.type: {exp['kind']} experiments need {symbol_type} symbols"

    return check


def _check_invariance(exp, where, chart):
    yield from _symbol_of("interior")(exp, where, chart)
    factors = exp["symbol"].get("factors", ())
    if exp.get("route") != "pullback" and any(f["var"] == "angular_momentum" for f in factors):
        yield (
            f"{where}.symbol.factors: an angular_momentum factor is not separable,"
            " so only route 'pullback' transports it"
        )


def _check_support(exp, where, chart):
    interior = exp["symbol"]["type"] == "interior"
    if not interior and "husimi" in exp:
        yield f"{where}.husimi: only interior symbols are paired through the Husimi density"
    if interior and "glancing_sign" in exp:
        yield f"{where}.glancing_sign: only tangential symbols glide"


def _check_classify(exp, where, chart):
    if not exp.get("points") and not exp.get("samples"):
        yield f"{where}: need points or samples > 0"
    if "expect" in exp and len(exp["expect"]) != len(exp.get("points", [])):
        yield f"{where}.expect: must match points, one label per point"


def _check_trace(exp, where, chart):
    if exp["time"] == 0:
        yield f"{where}.time: zero-time traces are empty, pick a sign"
    # a chart that did not load is reported already
    if chart is None:
        return
    try:
        check_start(chart, _trace_start(exp["start"]))
    except ValueError as exc:
        yield f"{where}.start: {exc}"


def _check_parametrix(exp, where, chart):
    band = exp.get("halving_band")
    if band is not None and not 0 < band[0] < band[1]:
        yield f"{where}.halving_band: need 0 < lo < hi"


def _check_tails(exp, where, chart):
    radii = exp["radii"]
    if any(not r > 1 for r in radii):
        yield f"{where}.radii: every radius must exceed 1"
    if radii != sorted(radii):
        yield f"{where}.radii: must be increasing"


# ---------------------------------------------------------------------------
# runners

# what a runner gets besides its own spec
RunContext = namedtuple("RunContext", "chart thresholds seed index")

# what a runner returns: the status and summary.json row, the columns of
# NAME.csv, the payload of NAME.json, and (suffix, array, extra meta)
# triples, each written as the field grid NAME-suffix
Outcome = namedtuple("Outcome", "status summary cols payload grids", defaults=((),))


def _set_keys(spec: dict, *keys) -> dict:
    """The `keys` the spec sets: an unset one keeps its callee's default."""
    return {key: spec[key] for key in keys if key in spec}


def _residual_rows(modes):
    reports = [mode.residual_report() for mode in modes]
    keys = sorted(reports[0])
    cols = {attr: [getattr(mode, attr) for mode in modes] for attr in ("m", "k", "lam", "h")}
    cols.update({key: [rep[key] for rep in reports] for key in keys})
    return keys, cols


def _run_classify(spec, ctx):
    points = [tuple(p) for p in spec.get("points", [])]
    n_extra = int(spec.get("samples", 0))
    if n_extra:
        rng = np.random.default_rng(1_000_003 * (ctx.seed + 1) + ctx.index)
        extra = rng.uniform((-np.pi, -1.5), (np.pi, 1.5), size=(n_extra, 2))
        points += [tuple(p) for p in extra]
    kwargs = _set_keys(spec, "tol_g", "tol_bracket")
    results = [classify(ctx.chart, xp, xip, **kwargs) for xp, xip in points]
    labels = [r.label() for r in results]
    cols = {
        "xp": [p[0] for p in points],
        "xip": [p[1] for p in points],
        "label": labels,
        "order": ["" if r.order is None else r.order for r in results],
        "sign": ["" if r.sign is None else r.sign for r in results],
        "r0": [r.witness.get("r0", "") for r in results],
        "r1": [r.witness.get("r1", "") for r in results],
    }
    payload = [{"xp": p[0], "xip": p[1], "result": r.as_dict()} for p, r in zip(points, results)]
    status, summary = "ok", {"points": len(points)}
    expect = spec.get("expect")
    if expect is not None:
        bad = [
            {"xp": p[0], "xip": p[1], "got": g, "want": w}
            for p, g, w in zip(points, labels, expect)
            if g != w
        ]
        if bad:
            status, summary = "fail", {"points": len(points), "mismatches": bad}
    return Outcome(status, summary, cols, payload)


def _trace_start(start):
    """A config start as trace takes it: a PhasePoint or an (x, xi) pair."""
    return PhasePoint(**start) if isinstance(start, dict) else (start[:2], start[2:])


def _run_trace(spec, ctx):
    ray = trace(ctx.chart, _trace_start(spec["start"]), float(spec["time"]))
    lo, hi = sorted((ray.t0, ray.t1))
    ts = np.linspace(lo, hi, int(spec.get("samples", 33)))
    frames, states = [], []
    for t in ts:
        frame, _, vec = ray.state_vector(float(t))
        frames.append(frame)
        states.append(vec)
    states = np.asarray(states)
    cols = {
        "t": ts,
        "frame": frames,
        "q1": states[:, 0],
        "q2": states[:, 1],
        "p1": states[:, 2],
        "p2": states[:, 3],
    }
    events = [
        {
            "kind": e.kind,
            "t": e.t,
            "x": None if e.x is None else [float(v) for v in e.x],
            "classification": None if e.classification is None else e.classification.label(),
        }
        for e in ray.events
    ]
    payload = {
        "status": ray.status,
        "reflections": ray.reflections,
        "t_final": ray.t_final,
        "events": events,
    }
    status, summary = "ok", {"status": ray.status, "reflections": ray.reflections}
    want = spec.get("expect_reflections")
    if want is not None and ray.reflections != want:
        status = "fail"
        summary["expect_reflections"] = want
    return Outcome(status, summary, cols, payload)


def _run_mode(spec, ctx):
    modes = build_family(spec["family"])
    keys, cols = _residual_rows(modes)
    worst = {key: max(cols[key]) for key in keys}
    violations = []
    for key, bound in sorted(spec.get("tolerances", {}).items()):
        if key not in worst:
            violations.append(f"{key}: not reported by the {spec['family']['family']} family")
        elif worst[key] > bound:
            violations.append(f"{key}: worst {worst[key]:.3e} exceeds {bound:.3e}")
    payload = {"worst": worst, "violations": violations}
    grids = ()
    if spec.get("fields"):
        last = modes[-1]
        at = {"m": last.m, "k": last.k}
        grids = [
            (suffix, field, at)
            for suffix, field in (("velocity", last.velocity), ("pressure", last.pressure))
            if field is not None
        ]
    return Outcome("fail" if violations else "ok", payload, cols, payload, grids)


def _run_parametrix(spec, ctx):
    kwargs = _set_keys(spec, "delta0", "eps0")
    orders = spec.get("orders", [0, 1])
    ms = spec["m"]
    table = {}
    for order in orders:
        sym = build_parametrix(chart=ctx.chart, order=order, **kwargs)
        table[order] = {m: extension_error(sym, m) for m in ms}
    cols = {
        "order": [o for o in orders for _ in ms],
        "m": [m for _ in orders for m in ms],
        "h": [1.0 / m for _ in orders for m in ms],
        "error": [table[o][m] for o in orders for m in ms],
    }
    violations = []
    if spec.get("expect_halving"):
        lo, hi = spec.get("halving_band", [1.4, 2.6])
        base = table[orders[0]]
        for m1, m2 in zip(ms, ms[1:]):
            if m2 != 2 * m1:
                continue
            ratio = base[m1] / base[m2]
            if not lo <= ratio <= hi:
                violations.append(
                    f"order-{orders[0]} ratio {ratio:.3f} at m {m1}->{m2}"
                    f" outside [{lo}, {hi}]"
                )
        if 0 in table and 1 in table:
            for m in ms:
                if not table[1][m] < table[0][m]:
                    violations.append(f"order-1 error not below order-0 at m = {m}")
    payload = {
        "errors": {str(o): {str(m): table[o][m] for m in ms} for o in orders},
        "violations": violations,
    }
    return Outcome("fail" if violations else "ok", payload, cols, payload)


def _run_measure(spec, ctx):
    modes = build_family(spec["family"])
    a = build_symbol(spec["symbol"], name=spec["name"])
    series = measure_sequence(a, modes)
    cols = {
        "h": series.hs,
        "re": series.values.real,
        "im": series.values.imag,
        "gap": [""] + [float(g) for g in series.gaps],
    }
    payload = {
        "rows": list(series.rows()),
        "limit": None
        if series.limit is None
        else {"re": series.limit.real, "im": series.limit.imag},
        "extrapolated": series.extrapolated,
    }
    summary = {"members": len(modes), "extrapolated": series.extrapolated}
    return Outcome("ok", summary, cols, payload)


def _run_tails(spec, ctx):
    modes = build_family(spec["family"])
    radii = [float(r) for r in spec["radii"]]
    fr = h_oscillation_tail(modes, tuple(radii), **_set_keys(spec, "variant"))
    cols = {
        "R": [r for r in radii for _ in modes],
        "m": [mode.m for _ in radii for mode in modes],
        "k": [mode.k for _ in radii for mode in modes],
        "h": [mode.h for _ in radii for mode in modes],
        "fraction": [float(v) for row in fr for v in row],
    }
    worst = float(np.max(fr[-1]))
    payload = {"radii": radii, "fractions": fr.tolist(), "worst_at_largest_radius": worst}
    status = "ok"
    if "bound" in spec and worst > spec["bound"]:
        status = "fail"
        payload["bound"] = spec["bound"]
    return Outcome(status, payload, cols, payload)


def _run_propagation(check, spec, ctx, **options):
    """Family, symbol, `check` with the given keywords, report."""
    modes = build_family(spec["family"])
    a = build_symbol(spec["symbol"], name=spec["name"])
    rep = check(modes, a, thresholds=ctx.thresholds, experiment=spec["name"], **options)
    cols = {key: [getattr(r, key) for r in rep.rows] for key in ("h", "before", "after", "gap")}
    summary = {"verdict": rep.verdict, "notes": rep.notes}
    return Outcome(rep.verdict, summary, cols, rep.to_dict())


def _run_invariance(spec, ctx):
    return _run_propagation(
        invariance_gap, spec, ctx, s=float(spec["time"]), chart=ctx.chart,
        **_set_keys(spec, "route"),
    )


def _run_support(spec, ctx):
    return _run_propagation(
        support_gap, spec, ctx, s=float(spec["time"]), chart=ctx.chart,
        **_set_keys(spec, "glancing_sign"), **spec.get("husimi", {}),
    )


def _run_elliptic(spec, ctx):
    return _run_propagation(elliptic_mass, spec, ctx)


def _run_car(spec, ctx):
    return _run_propagation(car_mass, spec, ctx)


# ---------------------------------------------------------------------------
# the experiment kinds


def _keys(*required, **properties) -> dict:
    """Schema of an experiment with a name, a kind and these keys, no other."""
    return {
        # "kind" needs no constraint: the dispatch in _by checks it
        "properties": {"name": _NAME, "kind": {}, **properties},
        "required": ["name", "kind", *required],
        "additionalProperties": False,
    }


_PAIRING = _keys("family", "symbol", family=_FAMILY, symbol=_SYMBOL)

# schema: the experiment's keys; check(exp, where, chart): the offenses its
# own keys and its symbol commit together, once both passed the schema;
# run(spec, ctx) computes it and returns an Outcome
Kind = namedtuple("Kind", "schema check run")

KINDS = {
    "classify": Kind(
        _keys(
            points={"type": "array", "items": _PAIR},
            samples=_INT_NN,
            expect={"type": "array", "items": {"type": "string"}},
            tol_g=_POS,
            tol_bracket=_POS,
        ),
        _check_classify,
        _run_classify,
    ),
    "trace": Kind(
        _keys(
            "start", "time",
            start={
                "anyOf": [
                    {"type": "array", "items": _NUM, "minItems": 4, "maxItems": 4},
                    {
                        "type": "object",
                        "properties": {"y": _NUM, "xp": _NUM, "eta": _NUM, "xip": _NUM},
                        "required": ["y", "xp", "eta", "xip"],
                        "additionalProperties": False,
                    },
                ]
            },
            time=_NUM,
            samples=_INT_POS,
            expect_reflections=_INT_NN,
        ),
        _check_trace,
        _run_trace,
    ),
    "mode": Kind(
        _keys(
            "family",
            family=_FAMILY,
            tolerances={
                "type": "object",
                "properties": {
                    "pde": _POS,
                    "momentum": _POS,
                    "divergence": _POS,
                    "boundary": _POS,
                    "normalization": _POS,
                    "flux_norm": _POS,
                },
                "additionalProperties": False,
            },
            fields={"type": "boolean"},
        ),
        _no_rules,
        _run_mode,
    ),
    "parametrix": Kind(
        _keys(
            "m",
            m={"type": "array", "items": _INT_POS, "minItems": 1, "uniqueItems": True},
            orders={"type": "array", "items": {"enum": [0, 1]}, "minItems": 1, "uniqueItems": True},
            delta0=_FRAC,
            eps0=_FRAC,
            expect_halving={"type": "boolean"},
            halving_band=_PAIR,
        ),
        _check_parametrix,
        _run_parametrix,
    ),
    "measure": Kind(_PAIRING, _no_rules, _run_measure),
    "invariance": Kind(
        _keys(
            "family", "symbol", "time",
            family=_FAMILY,
            symbol=_SYMBOL,
            time=_NUM,
            route={"enum": ["free", "pullback"]},
        ),
        _check_invariance,
        _run_invariance,
    ),
    "support": Kind(
        _keys(
            "family", "symbol", "time",
            family=_FAMILY,
            symbol=_SYMBOL,
            time=_NUM,
            glancing_sign={"enum": [1, -1]},
            husimi={
                "type": "object",
                "properties": {
                    "nx": {"type": "integer", "minimum": 2},
                    "nxi": {"type": "integer", "minimum": 2},
                    "x_max": _POS,
                    "xi_max": _POS,
                },
                "additionalProperties": False,
            },
        ),
        _check_support,
        _run_support,
    ),
    "elliptic": Kind(_PAIRING, _symbol_of("tangential"), _run_elliptic),
    "car": Kind(_PAIRING, _symbol_of("interior"), _run_car),
    "tails": Kind(
        _keys(
            "family", "radii",
            family=_FAMILY,
            radii={"type": "array", "items": _NUM, "minItems": 1},
            variant={"enum": ["interior", "tangential"]},
            bound=_POS,
        ),
        _check_tails,
        _run_tails,
    ),
}

_CONFIG = {
    "type": "object",
    "properties": {
        "experiments": {
            "type": "array",
            "items": _by("kind", {name: kind.schema for name, kind in KINDS.items()}),
        },
        "chart": {"type": ["string", "object"]},
        "thresholds": {
            "type": "object",
            "properties": {"theta_pass": _POS, "kappa": _POS, "theta_floor": _POS},
            "additionalProperties": False,
        },
        "seed": _INT_NN,
        "out": {"type": "string"},
        "jobs": _INT_POS,
    },
    "required": ["experiments"],
    "additionalProperties": False,
}

# JSON Schema's "integer" also admits 2.0, which the builders cannot
# iterate or index with, so only Python ints count
_VALIDATOR = jsonschema.validators.extend(
    jsonschema.Draft202012Validator,
    validators={"pick": _pick},
    type_checker=jsonschema.Draft202012Validator.TYPE_CHECKER.redefine(
        "integer", lambda checker, value: type(value) is int
    ),
)(_CONFIG)


# ---------------------------------------------------------------------------
# validation


def _path_str(path) -> str:
    out = ""
    for p in path:
        out += f"[{p}]" if isinstance(p, int) else f".{p}"
    return out.lstrip(".") if out else "(root)"


def _nonfinite(node, path=()):
    """(path, value) of each NaN or infinity, which Python's json parses."""
    if isinstance(node, float) and not math.isfinite(node):
        yield path, node
    elif isinstance(node, dict):
        for key, value in node.items():
            yield from _nonfinite(value, path + (key,))
    elif isinstance(node, list):
        for i, value in enumerate(node):
            yield from _nonfinite(value, path + (i,))


def _schema_errors(raw) -> list[tuple]:
    """(path, message) of each schema offense; an unknown key gets its own path."""
    out = []
    for e in sorted(_VALIDATOR.iter_errors(raw), key=lambda e: list(e.absolute_path)):
        path = tuple(e.absolute_path)
        if e.validator == "additionalProperties":
            extra = sorted(set(e.instance) - set(e.schema.get("properties", {})))
            out += [(path + (key,), "unknown key") for key in extra]
        else:
            out.append((path, e.message))
    return out


def _spoiled(path) -> tuple:
    """The part of the config whose cross-key rules an offense at `path` voids.

    Within experiment i the parts are (..., "family"), (..., "symbol") and
    (..., "keys") for its other keys; an offense at the experiment itself or
    at its kind left its schema unapplied and voids ("experiments", i), all
    of them.
    """
    head = tuple(path[:3])
    if head[:1] != ("experiments",) or len(head) < 3 or head[2] == "kind":
        return head[:2]
    return head if head[2] in ("family", "symbol") else head[:2] + ("keys",)


def validate_config(raw) -> list[str]:
    """All offenses, each naming the offending key by path: the schema's,
    then the cross-key rules of every part the schema found sound."""
    if not isinstance(raw, dict):
        return ["(root): config must be a JSON object"]
    found = _schema_errors(raw)
    found += [(path, f"{value} is not a finite number") for path, value in _nonfinite(raw)]
    errors = [f"{_path_str(path)}: {message}" for path, message in found]
    try:
        chart = load_chart(raw.get("chart", "disk"))
    except (ValueError, OSError, TypeError) as exc:
        errors.append(f"chart: {exc}")
        chart = None
    spoiled = {_spoiled(path) for path, _ in found}
    exps = [] if ("experiments",) in spoiled else raw.get("experiments", [])
    seen_names = {}
    for i, exp in enumerate(exps):
        where = f"experiments[{i}]"
        if ("experiments", i) in spoiled:
            continue
        if ("experiments", i, "keys") not in spoiled:
            name = exp["name"]
            if name in seen_names:
                errors.append(
                    f"{where}.name: duplicate of experiments[{seen_names[name]}],"
                    " artifact files would collide"
                )
            seen_names.setdefault(name, i)
            if ("experiments", i, "symbol") not in spoiled:
                errors += KINDS[exp["kind"]].check(exp, where, chart)
        for key, check in (("family", _check_family), ("symbol", _check_symbol)):
            if key in exp and ("experiments", i, key) not in spoiled:
                errors += check(exp[key], f"{where}.{key}")
    return errors


@dataclass(frozen=True)
class ExperimentConfig:
    """Validated config plus the resolved execution knobs."""

    raw: dict
    experiments: tuple
    thresholds: Thresholds
    seed: int
    out: Optional[str]
    jobs: int

    @property
    def hash(self) -> str:
        return config_hash(self.identity())

    def identity(self) -> dict:
        """The hashed portion: what was computed, not where or how wide."""
        return {
            "chart": self.raw.get("chart", "disk"),
            "experiments": list(self.experiments),
            "thresholds": self.thresholds.as_dict(),
            "seed": self.seed,
        }


def load_config(raw: dict, *, out=None, seed=None, jobs=None) -> ExperimentConfig:
    """Validate and resolve a parsed config; flags beat file values.

    The --seed and --jobs flags are held to the schema of their file keys.
    """
    errors = validate_config(raw)
    for key, value in (("seed", seed), ("jobs", jobs)):
        if value is not None:
            flag_schema = _VALIDATOR.evolve(schema=_CONFIG["properties"][key])
            errors += [f"--{key}: {e.message}" for e in flag_schema.iter_errors(value)]
    if errors:
        raise ConfigError(errors)
    return ExperimentConfig(
        raw=raw,
        experiments=tuple(raw["experiments"]),
        thresholds=Thresholds(**raw.get("thresholds", {})),
        seed=int(seed if seed is not None else raw.get("seed", 0)),
        out=str(out) if out is not None else raw.get("out"),
        jobs=int(jobs if jobs is not None else raw.get("jobs", 1)),
    )


def family_members(fam: dict) -> list[tuple[int, int]]:
    """Resolve the m/k broadcast into explicit (m, k) pairs, sorted by lam."""
    m, k = fam["m"], fam["k"]
    if isinstance(k, dict):
        ms = m if isinstance(m, list) else [m]
        pairs = [(mi, pick_k_for_ratio(fam["family"], mi, **k)) for mi in ms]
    elif isinstance(m, int) and isinstance(k, int):
        pairs = [(m, k)]
    elif isinstance(m, int):
        pairs = [(m, ki) for ki in k]
    elif isinstance(k, int):
        pairs = [(mi, k) for mi in m]
    else:
        pairs = list(zip(m, k))
    return sorted(set(pairs), key=lambda p: (family_lambda(fam["family"], *p), p))


def build_family(fam: dict) -> list:
    ctor = laplace_disk_mode if fam["family"] == "laplace" else stokes_disk_mode
    return [
        ctor(m, k, fam.get("num_r"), fam.get("num_theta"))
        for m, k in family_members(fam)
    ]


def _arc_factor(arc: dict):
    center, inner, outer = arc["center"], arc["inner"], arc["outer"]

    def factor(theta):
        # wrapped angular distance; the kink at distance pi sits in the
        # zero plateau as long as outer < pi, which validation enforced
        d = np.abs(np.angle(np.exp(1j * (np.asarray(theta) - center))))
        return 1.0 - plateau_step(d, inner, outer)

    return factor


def build_symbol(spec: dict, *, name: Optional[str] = None):
    label = spec.get("name", name or spec["type"])
    if spec["type"] == "tangential":
        return _build_tangential(spec, label)
    return _build_interior(spec, label)


def _build_tangential(spec: dict, label: str) -> TangentialSymbol:
    ys = float(spec["y_support"])
    ramp = spec.get("y_ramp", [0.5 * ys, ys])
    ya, yb = float(ramp[0]), float(ramp[1])
    xw = spec.get("xip_window")
    use_abs = bool(spec.get("xip_abs", False))
    arc = spec.get("arc")

    def depth(y):
        return 1.0 - plateau_step(np.asarray(y, dtype=float), ya, yb)

    def fiber(xip):
        if xw is None:
            return np.ones_like(np.asarray(xip, dtype=float))
        t = np.abs(xip) if use_abs else xip
        return window(t, *xw)

    return TangentialSymbol(
        lambda y, xip: depth(y) * fiber(xip),
        y_support=ys,
        angular=None if arc is None else _arc_factor(arc),
        name=label,
    )


def _build_interior(spec: dict, label: str) -> InteriorSymbol:
    spatial_fns = []
    fiber_fns = []
    general_fns = []
    for f in spec["factors"]:
        if f["var"] == "bump":
            cx, cy = (float(c) for c in f["center"])
            rad = float(f["radius"])
            spatial_fns.append(
                lambda x1, x2, cx=cx, cy=cy, rad=rad: bump_profile(
                    np.hypot(x1 - cx, x2 - cy) / rad
                )
            )
        elif f["var"] == "radius":
            w = tuple(f["window"])
            spatial_fns.append(
                lambda x1, x2, w=w: window(np.hypot(x1, x2), *w)
            )
        elif f["var"] == "speed":
            w = tuple(f["window"])
            fiber_fns.append(lambda xi1, xi2, w=w: window(np.hypot(xi1, xi2), *w))
        elif f["var"] == "speed_sq":
            w = tuple(f["window"])
            fiber_fns.append(
                lambda xi1, xi2, w=w: window(xi1 * xi1 + xi2 * xi2, *w)
            )
        else:
            w = tuple(f["window"])
            general_fns.append(
                lambda x1, x2, xi1, xi2, w=w: window(x1 * xi2 - x2 * xi1, *w)
            )
    arc = spec.get("arc")

    def spatial(x1, x2):
        acc = 1.0
        for fn in spatial_fns:
            acc = acc * fn(x1, x2)
        if arc is not None:
            acc = acc * _arc_factor(arc)(np.arctan2(x2, x1))
        return acc

    def fiber(xi1, xi2):
        acc = np.ones_like(np.asarray(xi1, dtype=float))
        for fn in fiber_fns:
            acc = acc * fn(xi1, xi2)
        return acc

    def invariant(x1, x2, xi1, xi2):
        # the factors in |xi| and x wedge xi, which the disk billiard conserves
        acc = fiber(xi1, xi2)
        for fn in general_fns:
            acc = acc * fn(x1, x2, xi1, xi2)
        return acc

    if not (fiber_fns or general_fns):
        invariant = None
    xi_bound = float(spec["xi_bound"])
    if not general_fns:
        return InteriorSymbol(
            terms=[SeparableTerm(spatial, fiber)],
            xi_bound=xi_bound,
            invariant=invariant,
            name=label,
        )

    def envelope(x1, x2):
        acc = 1.0
        for fn in spatial_fns:
            acc = acc * fn(x1, x2)
        return acc

    def evaluator(x1, x2, xi1, xi2):
        acc = spatial(x1, x2) * fiber(xi1, xi2)
        for fn in general_fns:
            acc = acc * fn(x1, x2, xi1, xi2)
        return acc

    return InteriorSymbol(
        evaluator=evaluator,
        xi_bound=xi_bound,
        x_envelope=envelope,
        invariant=invariant,
        name=label,
    )
