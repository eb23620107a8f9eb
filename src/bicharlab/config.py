"""Experiment configs: schema validation and builders.

A config is a plain JSON document listing experiments over one chart.
Validation runs before any numerics and reports every offense by the
dotted path of the offending key, so a bad tolerance or an unknown
field never costs a mode build.  Builders then turn the declarative
specs into charts, mode families and symbols from the core modules.

The identity of a run is the canonical form of (chart, experiments,
thresholds, seed); the output directory and the worker count are
execution details and stay out of the hash.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Optional, Sequence

import jsonschema
import numpy as np
from scipy.special import jn_zeros

from .bumps import bump_profile, plateau_step, window
from .charts import load_chart
from .io import config_hash
from .modes import ModeSpec, laplace_disk_mode, stokes_disk_mode
from .quantize import InteriorSymbol, SeparableTerm, TangentialSymbol
from .verify import Thresholds

__all__ = [
    "ConfigError",
    "validate_config",
    "ExperimentConfig",
    "load_config",
    "family_lambda",
    "pick_k_for_ratio",
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

_FACTOR = {
    "type": "object",
    "properties": {
        "var": {"enum": ["radius", "speed", "speed_sq", "angular_momentum", "bump"]},
        "window": _WINDOW,
        "center": _PAIR,
        "radius": _POS,
    },
    "required": ["var"],
    "additionalProperties": False,
}

_ARC = {
    "type": "object",
    "properties": {"center": _NUM, "inner": _POS, "outer": _POS},
    "required": ["center", "inner", "outer"],
    "additionalProperties": False,
}

_INTERIOR_SYMBOL = {
    "type": "object",
    "properties": {
        "type": {"const": "interior"},
        "xi_bound": _POS,
        "factors": {"type": "array", "items": _FACTOR, "minItems": 1},
        "arc": _ARC,
        "name": {"type": "string"},
    },
    "required": ["type", "xi_bound", "factors"],
    "additionalProperties": False,
}

_TANGENTIAL_SYMBOL = {
    "type": "object",
    "properties": {
        "type": {"const": "tangential"},
        "y_support": _FRAC,
        "y_ramp": _PAIR,
        "xip_window": _WINDOW,
        "xip_abs": {"type": "boolean"},
        "arc": _ARC,
        "name": {"type": "string"},
    },
    "required": ["type", "y_support"],
    "additionalProperties": False,
}

_ANY_SYMBOL = {"type": "object"}

# "kind" needs no constraint: validate_config picks the schema by it
_COMMON = {"name": _NAME, "kind": {}}

# the experiment kinds: one schema each; cli.RUNNERS has one runner each
_EXPERIMENT_SCHEMAS = {
    "classify": {
        "type": "object",
        "properties": {
            **_COMMON,
            "points": {"type": "array", "items": _PAIR},
            "samples": _INT_NN,
            "expect": {"type": "array", "items": {"type": "string"}},
            "tol_g": _POS,
            "tol_bracket": _POS,
        },
        "required": ["name", "kind"],
        "additionalProperties": False,
    },
    "trace": {
        "type": "object",
        "properties": {
            **_COMMON,
            "start": {
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
            "time": _NUM,
            "samples": _INT_POS,
            "expect_reflections": _INT_NN,
        },
        "required": ["name", "kind", "start", "time"],
        "additionalProperties": False,
    },
    "mode": {
        "type": "object",
        "properties": {
            **_COMMON,
            "family": _FAMILY,
            "tolerances": {
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
            "fields": {"type": "boolean"},
        },
        "required": ["name", "kind", "family"],
        "additionalProperties": False,
    },
    "parametrix": {
        "type": "object",
        "properties": {
            **_COMMON,
            "m": {"type": "array", "items": _INT_POS, "minItems": 1, "uniqueItems": True},
            "orders": {
                "type": "array",
                "items": {"enum": [0, 1]},
                "minItems": 1,
                "uniqueItems": True,
            },
            "delta0": _FRAC,
            "eps0": _FRAC,
            "expect_halving": {"type": "boolean"},
            "halving_band": _PAIR,
        },
        "required": ["name", "kind", "m"],
        "additionalProperties": False,
    },
    "measure": {
        "type": "object",
        "properties": {**_COMMON, "family": _FAMILY, "symbol": _ANY_SYMBOL},
        "required": ["name", "kind", "family", "symbol"],
        "additionalProperties": False,
    },
    "invariance": {
        "type": "object",
        "properties": {
            **_COMMON,
            "family": _FAMILY,
            "symbol": _ANY_SYMBOL,
            "time": _NUM,
            "route": {"enum": ["free", "pullback"]},
        },
        "required": ["name", "kind", "family", "symbol", "time"],
        "additionalProperties": False,
    },
    "support": {
        "type": "object",
        "properties": {
            **_COMMON,
            "family": _FAMILY,
            "symbol": _ANY_SYMBOL,
            "time": _NUM,
            "glancing_sign": {"enum": [1, -1]},
            "husimi": {
                "type": "object",
                "properties": {
                    "nx": {"type": "integer", "minimum": 2},
                    "nxi": {"type": "integer", "minimum": 2},
                    "x_max": _POS,
                    "xi_max": _POS,
                },
                "additionalProperties": False,
            },
        },
        "required": ["name", "kind", "family", "symbol", "time"],
        "additionalProperties": False,
    },
    "elliptic": {
        "type": "object",
        "properties": {**_COMMON, "family": _FAMILY, "symbol": _ANY_SYMBOL},
        "required": ["name", "kind", "family", "symbol"],
        "additionalProperties": False,
    },
    "car": {
        "type": "object",
        "properties": {**_COMMON, "family": _FAMILY, "symbol": _ANY_SYMBOL},
        "required": ["name", "kind", "family", "symbol"],
        "additionalProperties": False,
    },
    "tails": {
        "type": "object",
        "properties": {
            **_COMMON,
            "family": _FAMILY,
            "radii": {"type": "array", "items": _NUM, "minItems": 1},
            "variant": {"enum": ["interior", "tangential"]},
            "bound": _POS,
        },
        "required": ["name", "kind", "family", "radii"],
        "additionalProperties": False,
    },
}

_TOP = {
    "type": "object",
    "properties": {
        "experiments": {"type": "array", "items": {"type": "object"}},
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

def _path_str(prefix: str, path) -> str:
    out = prefix
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


def _schema_errors(instance, schema, prefix: str) -> list[str]:
    v = jsonschema.Draft202012Validator(schema)
    out = []
    for e in sorted(v.iter_errors(instance), key=lambda e: list(e.absolute_path)):
        path = list(e.absolute_path)
        if e.validator == "additionalProperties":
            # name each unknown key by its own path
            extra = sorted(set(e.instance) - set(e.schema.get("properties", {})))
            out += [f"{_path_str(prefix, path + [key])}: unknown key" for key in extra]
        else:
            out.append(f"{_path_str(prefix, path)}: {e.message}")
    return out


def _check_window(w, where: str, errors: list[str]):
    if w is not None and not (w[0] <= w[1] <= w[2] <= w[3]):
        errors.append(f"{where}: window edges must be nondecreasing, got {w}")


def _check_arc(arc, where: str, errors: list[str]):
    if arc is None:
        return
    if not arc["inner"] < arc["outer"] < np.pi:
        errors.append(
            f"{where}: need 0 < inner < outer < pi for a smooth wrapped arc"
        )


def _validate_symbol(spec, where: str, errors: list[str]):
    if not isinstance(spec, dict) or spec.get("type") not in ("interior", "tangential"):
        errors.append(f"{where}.type: must be 'interior' or 'tangential'")
        return
    if spec["type"] == "interior":
        errors.extend(_schema_errors(spec, _INTERIOR_SYMBOL, where))
        factors = spec.get("factors", [])
        spatial = False
        for j, f in enumerate(factors):
            if not isinstance(f, dict) or "var" not in f:
                continue
            fwhere = f"{where}.factors[{j}]"
            if f["var"] == "bump":
                if "center" not in f or "radius" not in f:
                    errors.append(f"{fwhere}: bump factors need center and radius")
                if "window" in f:
                    errors.append(f"{fwhere}.window: bump factors take no window")
                spatial = True
            else:
                if "window" not in f:
                    errors.append(f"{fwhere}.window: required for var {f['var']!r}")
                else:
                    _check_window(f["window"], f"{fwhere}.window", errors)
                if "center" in f or "radius" in f:
                    errors.append(f"{fwhere}: center/radius only apply to bump factors")
                if f["var"] == "radius":
                    spatial = True
        if factors and not spatial:
            errors.append(
                f"{where}.factors: interior symbols need a radius or bump factor"
                " so the spatial support is bounded"
            )
        _check_arc(spec.get("arc"), f"{where}.arc", errors)
    else:
        errors.extend(_schema_errors(spec, _TANGENTIAL_SYMBOL, where))
        ys = spec.get("y_support")
        ramp = spec.get("y_ramp")
        if isinstance(ys, (int, float)) and ramp is not None:
            if not 0.0 <= ramp[0] < ramp[1] <= ys:
                errors.append(
                    f"{where}.y_ramp: need 0 <= a < b <= y_support, got {ramp}"
                )
        _check_window(spec.get("xip_window"), f"{where}.xip_window", errors)
        _check_arc(spec.get("arc"), f"{where}.arc", errors)


def _validate_family(fam, where: str, errors: list[str]):
    m, k = fam.get("m"), fam.get("k")
    if isinstance(m, list) and isinstance(k, list) and len(m) != len(k):
        errors.append(f"{where}: m and k lists must have equal length to pair up")
    if fam.get("family") == "stokes":
        ms = m if isinstance(m, list) else [m]
        if any(isinstance(mi, int) and mi < 1 for mi in ms):
            errors.append(f"{where}.m: the velocity family needs m >= 1")
    if not {"num_r", "num_theta"} & set(fam) or any(e.startswith(where) for e in errors):
        return
    # the defaults clear the floors; explicit sizes must clear them for
    # every member, since the floors grow with m and lam
    for mi, ki in family_members(fam):
        spec = ModeSpec(fam["family"], mi, ki, fam.get("num_r"), fam.get("num_theta"))
        try:
            spec.resolve(family_lambda(fam["family"], mi, ki))
        except ValueError as exc:
            key = "num_theta" if "num_theta" in str(exc) else "num_r"
            errors.append(f"{where}.{key}: {exc}")
            return


def _validate_chart(spec, errors: list[str]):
    """The chart `spec` names, or None after recording why it has none."""
    try:
        return load_chart(spec)
    except (ValueError, OSError, TypeError) as exc:
        errors.append(f"chart: {exc}")
        return None


def validate_config(raw) -> list[str]:
    """All offenses in one pass, each naming the offending key by path."""
    if not isinstance(raw, dict):
        return ["(root): config must be a JSON object"]
    errors = _schema_errors(raw, _TOP, "")
    errors += [f"{_path_str('', p)}: {v} is not a finite number" for p, v in _nonfinite(raw)]
    chart = _validate_chart(raw.get("chart", "disk"), errors)
    exps = raw.get("experiments")
    if not isinstance(exps, list):
        return errors
    seen_names = {}
    for i, exp in enumerate(exps):
        where = f"experiments[{i}]"
        if not isinstance(exp, dict):
            continue
        kind = exp.get("kind")
        if kind not in _EXPERIMENT_SCHEMAS:
            errors.append(f"{where}.kind: unknown kind {kind!r}")
            continue
        errors.extend(_schema_errors(exp, _EXPERIMENT_SCHEMAS[kind], where))
        name = exp.get("name")
        if isinstance(name, str):
            if name in seen_names:
                errors.append(
                    f"{where}.name: duplicate of experiments[{seen_names[name]}],"
                    " artifact files would collide"
                )
            seen_names.setdefault(name, i)
        if "symbol" in exp:
            _validate_symbol(exp["symbol"], f"{where}.symbol", errors)
        if "family" in exp and isinstance(exp["family"], dict):
            _validate_family(exp["family"], f"{where}.family", errors)
        if kind == "classify":
            if not exp.get("points") and not exp.get("samples"):
                errors.append(f"{where}: need points or samples > 0")
            expect = exp.get("expect")
            if expect is not None and len(expect) != len(exp.get("points", [])):
                errors.append(
                    f"{where}.expect: must match points, one label per point"
                )
        if kind == "trace" and exp.get("time") == 0:
            errors.append(f"{where}.time: zero-time traces are empty, pick a sign")
        if kind == "trace" and isinstance(exp.get("start"), list) and chart is not None:
            x = exp["start"][:2]
            numeric = len(x) == 2 and all(type(v) in (int, float) and math.isfinite(v) for v in x)
            if not hasattr(chart, "to_cartesian"):
                errors.append(
                    f"{where}.start: a {chart.kind} chart has no ambient embedding,"
                    " give the start as {y, xp, eta, xip}"
                )
            elif numeric and not chart.contains(x):
                # the schema and the finiteness check report malformed starts
                errors.append(
                    f"{where}.start: x = ({x[0]}, {x[1]}) lies outside the closed"
                    f" {chart.kind} domain"
                )
        if kind == "tails":
            radii = exp.get("radii", [])
            if any(not r > 1 for r in radii):
                errors.append(f"{where}.radii: every radius must exceed 1")
            if list(radii) != sorted(radii):
                errors.append(f"{where}.radii: must be increasing")
        if kind == "parametrix":
            band = exp.get("halving_band")
            if band is not None and not 0 < band[0] < band[1]:
                errors.append(f"{where}.halving_band: need 0 < lo < hi")
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
    """Validate and resolve a parsed config; flags beat file values."""
    errors = validate_config(raw)
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


def _zero_order(family: str, m: int) -> int:
    # scalar eigenvalues sit at zeros of J_m, velocity ones at J_{m+1}
    return m if family == "laplace" else m + 1


def family_lambda(family: str, m: int, k: int) -> float:
    return float(jn_zeros(_zero_order(family, m), k)[-1])


def pick_k_for_ratio(family: str, m: int, ratio: float, k_max: int = 80) -> int:
    """Radial index whose angular-momentum fraction m/lam is nearest ratio.

    lam grows with k, so the fraction sweeps down monotonically; the
    minimizer over 1..k_max is unique up to ties.
    """
    zs = jn_zeros(_zero_order(family, m), k_max)
    return int(np.argmin(np.abs(m / zs - ratio))) + 1


def family_members(fam: dict) -> list[tuple[int, int]]:
    """Resolve the m/k broadcast into explicit (m, k) pairs, sorted by lam."""
    m, k = fam["m"], fam["k"]
    if isinstance(k, dict):
        ms = m if isinstance(m, list) else [m]
        pairs = [
            (mi, pick_k_for_ratio(fam["family"], mi, k["ratio"], k.get("k_max", 80)))
            for mi in ms
        ]
    elif isinstance(m, int) and isinstance(k, int):
        pairs = [(m, k)]
    elif isinstance(m, int):
        pairs = [(m, ki) for ki in k]
    elif isinstance(k, int):
        pairs = [(mi, k) for mi in m]
    else:
        pairs = list(zip(m, k))
    seen = set()
    unique = []
    for p in pairs:
        if p not in seen:
            seen.add(p)
            unique.append(p)
    unique.sort(key=lambda p: (family_lambda(fam["family"], *p), p))
    return unique


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

    if arc is None:
        return TangentialSymbol(
            lambda y, xip: depth(y) * fiber(xip), y_support=ys, name=label
        )
    arcf = _arc_factor(arc)
    return TangentialSymbol(
        lambda y, theta, xip: depth(y) * arcf(theta) * fiber(xip),
        y_support=ys,
        theta_dependent=True,
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

    xi_bound = float(spec["xi_bound"])
    if not general_fns and arc is None:
        return InteriorSymbol(
            terms=[SeparableTerm(spatial, fiber)], xi_bound=xi_bound, name=label
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
        evaluator=evaluator, xi_bound=xi_bound, x_envelope=envelope, name=label
    )
