"""Outside-in tracer: times each layer by wrapping its public functions.

Nothing in the library is edited.  `Tracer.install` replaces each target
function at every name it is bound to inside the package (modules import
many of them by name, e.g. `verify` holds its own `husimi_grid`), so a
call through any binding is seen.  Spans nest on one stack: a layer's
`self_s` is its wall time minus the time of the traced layers it called.
Work counts are read from the arguments and return value of each call.
`Tracer.own_s` is the time spent inside the wrappers themselves, outside
the wrapped functions: the cost of tracing.  `Tracer.uninstall` puts
every original attribute back.
"""

from __future__ import annotations

import functools
import importlib
import operator
import os
import sys
from time import perf_counter

import numpy as np


def _husimi_ffts(args, kwargs, result):
    # one windowed FFT per x-grid point and velocity component
    source = args[0] if args else kwargs["source"]
    if hasattr(source, "velocity"):
        comps = len(source.velocity)
    else:
        comps = 1 if np.ndim(source) == 2 else len(source)
    return {"ffts": len(result.x_axis) ** 2 * comps}


def _box_points(args, kwargs, result):
    grid = args[1] if len(args) > 1 else kwargs["grid"]
    return {"points": grid.n * grid.n}


def _rays(args, kwargs, result):
    x = args[0] if args else kwargs["x"]
    bounces = np.asarray(result[2])
    pinned = int(np.sum(result[3])) if len(result) > 3 else 0
    return {
        "rays": int(np.size(x)) // 2,
        "bounces": int(bounces.sum()),
        "max_bounces": int(bounces.max(initial=0)),
        "pinned": pinned,
    }


def _reflections(args, kwargs, result):
    return {"reflections": int(result.reflections)}


def _bytes_written(args, kwargs, result):
    return {"bytes": os.path.getsize(result)}


PACKAGE = "bicharlab"

# (metric prefix, module, attribute path, counter); the prefix is the
# module name inside the package plus the public name
TARGETS = (
    ("quantize.husimi_grid", "quantize", "husimi_grid", _husimi_ffts),
    ("quantize.sample_mode_on_box", "quantize", "sample_mode_on_box", _box_points),
    ("quantize.apply_interior_op", "quantize", "apply_interior_op", None),
    ("quantize.apply_shifted_op", "quantize", "apply_shifted_op", None),
    ("quantize.apply_tangential_op", "quantize", "apply_tangential_op", None),
    ("billiard.propagate", "billiard", "propagate", _rays),
    ("verify.TransportedSymbol.eval", "verify", "TransportedSymbol.eval", None),
    ("parametrix.ParametrixSymbol.a1", "parametrix", "ParametrixSymbol.a1", None),
    ("parametrix.extension_error", "parametrix", "extension_error", None),
    ("modes.stokes_disk_mode", "modes", "stokes_disk_mode", None),
    ("modes.laplace_disk_mode", "modes", "laplace_disk_mode", None),
    ("modes.bessel_zero", "modes", "bessel_zero", None),
    ("modes.Quasimode.residual_report", "modes", "Quasimode.residual_report", None),
    ("polar.PolarGrid", "polar", "PolarGrid.__init__", None),
    ("flow.trace", "flow", "trace", _reflections),
    ("classify.classify", "classify", "classify", None),
    ("config.load_config", "config", "load_config", None),
    ("io.write_csv", "io", "write_csv", _bytes_written),
    ("io.write_json", "io", "write_json", _bytes_written),
    ("cli.run_experiment", "cli", "run_experiment", None),
)

# counts every target reports, zero when the layer is never called
COUNTS = {
    "quantize.husimi_grid": ("ffts",),
    "quantize.sample_mode_on_box": ("points",),
    "billiard.propagate": ("rays", "bounces", "max_bounces", "pinned"),
    "flow.trace": ("reflections",),
    "io.write_csv": ("bytes",),
    "io.write_json": ("bytes",),
}


def _bindings(module, path):
    """The target object and every (namespace, attribute) that holds it."""
    *outer, attr = path.split(".")
    owner = module
    for part in outer:
        owner = getattr(owner, part)
    if outer:
        # a method, possibly aliased inside its class (`__call__ = eval`)
        original, spaces = owner.__dict__[attr], [owner]
    else:
        original = getattr(module, attr)
        spaces = [
            mod
            for key, mod in sorted(sys.modules.items())
            if key == PACKAGE or key.startswith(PACKAGE + ".")
        ]
    return original, [
        (space, name)
        for space in spaces
        for name, value in list(vars(space).items())
        if value is original
    ]


class Tracer:
    """Per-layer calls, self time and work counts for one process."""

    def __init__(self):
        self.stats = {
            name: {"calls": 0, "self_s": 0.0, **dict.fromkeys(COUNTS.get(name, ()), 0)}
            for name, *_ in TARGETS
        }
        self.missing = []
        self.own_s = 0.0
        self._stack = []
        self._patches = []

    def _wrap(self, name, fn, count):
        stats = self.stats[name]
        stack = self._stack

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            entered = perf_counter()
            stack.append(0.0)
            t0 = perf_counter()
            t1 = None
            try:
                result = fn(*args, **kwargs)
                t1 = perf_counter()
                if count is not None:
                    for key, value in count(args, kwargs, result).items():
                        merge = max if key.startswith("max_") else operator.add
                        stats[key] = merge(stats[key], value)
                return result
            finally:
                left = perf_counter()
                if t1 is None:  # fn raised
                    t1 = left
                stats["calls"] += 1
                stats["self_s"] += t1 - t0 - stack.pop()
                self.own_s += (t0 - entered) + (left - t1)
                if stack:
                    # the caller's self time excludes this whole wrapper
                    stack[-1] += left - entered

        return traced

    def install(self) -> "Tracer":
        importlib.import_module(PACKAGE)
        for name, modname, path, count in TARGETS:
            module = importlib.import_module(f"{PACKAGE}.{modname}")
            try:
                original, owners = _bindings(module, path)
            except (AttributeError, KeyError):
                self.missing.append(name)
                continue
            traced = self._wrap(name, original, count)
            for space, attr in owners:
                self._patches.append((space, attr, original))
                setattr(space, attr, traced)
        return self

    def uninstall(self) -> None:
        while self._patches:
            space, attr, original = self._patches.pop()
            setattr(space, attr, original)

    def metrics(self) -> dict:
        """Flat `<layer>.<stat>` values."""
        return {
            f"{name}.{stat}": value
            for name, stats in self.stats.items()
            for stat, value in stats.items()
        }
