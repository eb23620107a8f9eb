"""Command line front end: ad hoc probes plus a config-driven runner.

Subcommands classify/trace/mode/parametrix are one-shot probes driven
by flags; trace and parametrix compute through the same helpers as the
config kinds of the same name.  measure/verify/run execute experiment
configs.  Each experiment kind is declared twice, once in each of two
tables: its schema in `config._EXPERIMENT_SCHEMAS`, its runner in
`RUNNERS` below (a test pins the two key sets equal).  run takes every
experiment in the file; verify and measure are kind filters over the
same table, verify keeping `VERIFY_KINDS` (the defect-measure checks)
and measure the pairing series.  Exit status is 0 when nothing failed
(inconclusive is not a failure), 1 when any experiment failed or
errored, 2 on a config or usage problem.

The runner is a single orchestrator; --jobs bounds worker parallelism
and workers receive only the immutable config identity, writing their
own artifact files.  All artifacts are deterministic for a fixed
config and seed.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import sys
import time
from collections import namedtuple
from concurrent.futures import ProcessPoolExecutor
from functools import partial
from importlib import resources
from pathlib import Path

import numpy as np

from . import io as artio
from .charts import PhasePoint, load_chart
from .classify import classify
from .config import (
    ConfigError,
    ExperimentConfig,
    build_chart,
    build_family,
    build_symbol,
    build_thresholds,
    load_config,
)
from .flow import trace
from .modes import laplace_disk_mode, stokes_disk_mode
from .parametrix import build_parametrix, extension_error
from .quantize import measure_sequence
from .verify import car_mass, elliptic_mass, h_oscillation_tail, invariance_gap, support_gap

__all__ = [
    "OUT_ENV",
    "FAIL_STATUSES",
    "RunContext",
    "RUNNERS",
    "VERIFY_KINDS",
    "run_experiment",
    "run_config",
    "cmd_classify",
    "cmd_trace",
    "cmd_mode",
    "cmd_parametrix",
    "cmd_run",
    "cmd_verify",
    "cmd_measure",
    "build_parser",
    "main",
]

OUT_ENV = "BICHARLAB_OUT"
FAIL_STATUSES = ("fail", "error")


def _default_out() -> str:
    return os.environ.get(OUT_ENV, "bicharlab_out")


def _resolve_config_path(arg: str) -> Path:
    if arg.startswith("@"):
        return Path(str(resources.files("bicharlab") / "configs" / (arg[1:] + ".json")))
    return Path(arg)


def _read_config(arg: str) -> dict:
    path = _resolve_config_path(arg)
    with open(path) as fh:
        return json.load(fh)


# ---------------------------------------------------------------------------
# experiment execution


def _meta(identity_hash: str, spec: dict, seed: int) -> dict:
    return {
        "config_hash": identity_hash,
        "experiment": spec["name"],
        "kind": spec["kind"],
        "seed": seed,
    }


# what a runner gets besides its own spec
RunContext = namedtuple("RunContext", "chart thresholds seed index out_dir meta")


def _residual_rows(modes):
    reports = [mode.residual_report() for mode in modes]
    keys = sorted(reports[0])
    cols = {"m": [], "k": [], "lam": [], "h": []}
    cols.update({key: [] for key in keys})
    for mode, rep in zip(modes, reports):
        cols["m"].append(mode.m)
        cols["k"].append(mode.k)
        cols["lam"].append(mode.lam)
        cols["h"].append(mode.h)
        for key in keys:
            cols[key].append(rep[key])
    return keys, cols


def _run_classify(spec, ctx):
    points = [tuple(p) for p in spec.get("points", [])]
    n_extra = int(spec.get("samples", 0))
    if n_extra:
        rng = np.random.default_rng(1_000_003 * (ctx.seed + 1) + ctx.index)
        extra = rng.uniform((-np.pi, -1.5), (np.pi, 1.5), size=(n_extra, 2))
        points += [tuple(p) for p in extra]
    kwargs = {k: spec[k] for k in ("tol_g", "tol_bracket") if k in spec}
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
    files = [
        artio.write_csv(ctx.out_dir / f"{spec['name']}.csv", cols, meta=ctx.meta),
        artio.write_json(
            ctx.out_dir / f"{spec['name']}.json",
            [
                {"xp": p[0], "xip": p[1], "result": r.as_dict()}
                for p, r in zip(points, results)
            ],
            meta=ctx.meta,
        ),
    ]
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
    return status, summary, files


def _trace_ray(spec, chart):
    start = spec["start"]
    if isinstance(start, dict):
        start = PhasePoint(**start)
    else:
        start = (np.asarray(start[:2], dtype=float), np.asarray(start[2:], dtype=float))
    return trace(chart, start, float(spec["time"]))


def _write_trace(ray, spec, out_dir, meta):
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
    files = [
        artio.write_csv(out_dir / f"{spec['name']}.csv", cols, meta=meta),
        artio.write_json(out_dir / f"{spec['name']}.json", payload, meta=meta),
    ]
    status, summary = "ok", {"status": ray.status, "reflections": ray.reflections}
    want = spec.get("expect_reflections")
    if want is not None and ray.reflections != want:
        status = "fail"
        summary["expect_reflections"] = want
    return status, summary, files


def _run_trace(spec, ctx):
    return _write_trace(_trace_ray(spec, ctx.chart), spec, ctx.out_dir, ctx.meta)


def _run_mode(spec, ctx):
    modes = build_family(spec["family"])
    keys, cols = _residual_rows(modes)
    files = [artio.write_csv(ctx.out_dir / f"{spec['name']}.csv", cols, meta=ctx.meta)]
    worst = {key: max(cols[key]) for key in keys}
    violations = []
    for key, bound in sorted(spec.get("tolerances", {}).items()):
        if key not in worst:
            violations.append(f"{key}: not reported by the {spec['family']['family']} family")
        elif worst[key] > bound:
            violations.append(f"{key}: worst {worst[key]:.3e} exceeds {bound:.3e}")
    payload = {"worst": worst, "violations": violations}
    files.append(artio.write_json(ctx.out_dir / f"{spec['name']}.json", payload, meta=ctx.meta))
    if spec.get("fields"):
        last = modes[-1]
        grid_meta = dict(ctx.meta, m=last.m, k=last.k)
        files += artio.write_field_grid(
            ctx.out_dir / f"{spec['name']}-velocity", last.velocity, meta=grid_meta
        )
        if last.pressure is not None:
            files += artio.write_field_grid(
                ctx.out_dir / f"{spec['name']}-pressure", last.pressure, meta=grid_meta
            )
    status = "fail" if violations else "ok"
    return status, payload, files


def _parametrix_table(spec, chart):
    """{order: {m: extension error}} for the spec's orders and angular indices."""
    kwargs = {k: spec[k] for k in ("delta0", "eps0") if k in spec}
    table = {}
    for order in spec.get("orders", [0, 1]):
        sym = build_parametrix(chart=chart, order=order, **kwargs)
        table[order] = {m: extension_error(sym, m) for m in spec["m"]}
    return table


def _write_parametrix(table, spec, out_dir, meta):
    orders = spec.get("orders", [0, 1])
    ms = spec["m"]
    cols = {
        "order": [o for o in orders for _ in ms],
        "m": [m for _ in orders for m in ms],
        "h": [1.0 / m for _ in orders for m in ms],
        "error": [table[o][m] for o in orders for m in ms],
    }
    files = [artio.write_csv(out_dir / f"{spec['name']}.csv", cols, meta=meta)]
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
    files.append(artio.write_json(out_dir / f"{spec['name']}.json", payload, meta=meta))
    return ("fail" if violations else "ok"), payload, files


def _run_parametrix(spec, ctx):
    return _write_parametrix(_parametrix_table(spec, ctx.chart), spec, ctx.out_dir, ctx.meta)


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
    files = [artio.write_csv(ctx.out_dir / f"{spec['name']}.csv", cols, meta=ctx.meta)]
    payload = {
        "rows": list(series.rows()),
        "limit": None
        if series.limit is None
        else {"re": series.limit.real, "im": series.limit.imag},
        "extrapolated": series.extrapolated,
    }
    files.append(artio.write_json(ctx.out_dir / f"{spec['name']}.json", payload, meta=ctx.meta))
    summary = {"members": len(modes), "extrapolated": series.extrapolated}
    return "ok", summary, files


def _write_propagation(rep, spec, out_dir, meta):
    cols = {key: [getattr(r, key) for r in rep.rows] for key in ("h", "before", "after", "gap")}
    files = [
        artio.write_csv(out_dir / f"{spec['name']}.csv", cols, meta=meta),
        artio.write_json(out_dir / f"{spec['name']}.json", rep.to_dict(), meta=meta),
    ]
    summary = {"verdict": rep.verdict, "notes": rep.notes}
    return rep.verdict, summary, files


def _run_tails(spec, ctx):
    modes = build_family(spec["family"])
    radii = [float(r) for r in spec["radii"]]
    fr = h_oscillation_tail(modes, tuple(radii), variant=spec.get("variant", "interior"))
    cols = {
        "R": [r for r in radii for _ in modes],
        "m": [mode.m for _ in radii for mode in modes],
        "k": [mode.k for _ in radii for mode in modes],
        "h": [mode.h for _ in radii for mode in modes],
        "fraction": [float(v) for row in fr for v in row],
    }
    files = [artio.write_csv(ctx.out_dir / f"{spec['name']}.csv", cols, meta=ctx.meta)]
    worst = float(np.max(fr[-1]))
    payload = {"radii": radii, "fractions": fr.tolist(), "worst_at_largest_radius": worst}
    status = "ok"
    if "bound" in spec and worst > spec["bound"]:
        status = "fail"
        payload["bound"] = spec["bound"]
    files.append(artio.write_json(ctx.out_dir / f"{spec['name']}.json", payload, meta=ctx.meta))
    return status, payload, files


def _run_propagation(check, spec, ctx, options=None):
    """Family, symbol, `check` with the keywords `options(spec, chart)` adds, report."""
    modes = build_family(spec["family"])
    a = build_symbol(spec["symbol"], name=spec["name"])
    extra = options(spec, ctx.chart) if options else {}
    rep = check(modes, a, thresholds=ctx.thresholds, experiment=spec["name"], **extra)
    return _write_propagation(rep, spec, ctx.out_dir, ctx.meta)


def _invariance_options(spec, chart):
    return {"s": float(spec["time"]), "route": spec.get("route", "free"), "chart": chart}


def _support_options(spec, chart):
    return {
        "s": float(spec["time"]),
        "chart": chart,
        "glancing_sign": float(spec.get("glancing_sign", 1)),
        **spec.get("husimi", {}),
    }


# one runner per experiment kind, called as runner(spec, ctx); the same
# kinds key the schemas in config._EXPERIMENT_SCHEMAS
RUNNERS = {
    "classify": _run_classify,
    "trace": _run_trace,
    "mode": _run_mode,
    "parametrix": _run_parametrix,
    "measure": _run_measure,
    "invariance": partial(_run_propagation, invariance_gap, options=_invariance_options),
    "support": partial(_run_propagation, support_gap, options=_support_options),
    "elliptic": partial(_run_propagation, elliptic_mass),
    "car": partial(_run_propagation, car_mass),
    "tails": _run_tails,
}

# the kinds `verify` runs: the defect-measure checks
VERIFY_KINDS = ("invariance", "support", "elliptic", "car", "tails")


def run_experiment(identity: dict, index: int, out: str, identity_hash: str) -> dict:
    """Execute one experiment and write its artifacts; never raises."""
    spec = identity["experiments"][index]
    seed = identity["seed"]
    meta = _meta(identity_hash, spec, seed)
    try:
        ctx = RunContext(
            chart=build_chart(identity["chart"]),
            thresholds=build_thresholds(identity["thresholds"]),
            seed=seed,
            index=index,
            out_dir=Path(out),
            meta=meta,
        )
        status, summary, files = RUNNERS[spec["kind"]](spec, ctx)
    except Exception as exc:
        status = "error"
        summary = {"error": f"{type(exc).__name__}: {exc}"}
        files = []
    return {
        "name": spec["name"],
        "kind": spec["kind"],
        "status": status,
        "summary": summary,
        "files": sorted(p.name for p in files),
    }


def _entry(payload):
    return run_experiment(*payload)


def run_config(cfg: ExperimentConfig, *, only_kinds=None, select=None):
    """Run the config's experiments; returns (exit_code, summary dict, out dir)."""
    out_dir = Path(cfg.out or _default_out())
    out_dir.mkdir(parents=True, exist_ok=True)
    identity = cfg.identity()
    chash = cfg.hash
    live = []
    for i, spec in enumerate(cfg.experiments):
        if only_kinds is not None and spec["kind"] not in only_kinds:
            continue
        if select is not None and spec["name"] not in select:
            continue
        live.append(i)
    payloads = [(identity, i, str(out_dir), chash) for i in live]
    t0 = time.perf_counter()
    if cfg.jobs > 1 and len(payloads) > 1:
        with ProcessPoolExecutor(max_workers=min(cfg.jobs, len(payloads))) as ex:
            done = list(ex.map(_entry, payloads))
    else:
        done = [_entry(p) for p in payloads]
    by_index = dict(zip(live, done))
    results = []
    for i, spec in enumerate(cfg.experiments):
        if i in by_index:
            results.append(by_index[i])
        else:
            results.append(
                {
                    "name": spec["name"],
                    "kind": spec["kind"],
                    "status": "skipped",
                    "summary": {},
                    "files": [],
                }
            )
    counts = {}
    for r in results:
        counts[r["status"]] = counts.get(r["status"], 0) + 1
    code = 1 if any(r["status"] in FAIL_STATUSES for r in results) else 0
    summary = {"experiments": results, "counts": counts, "exit_status": code}
    artio.write_json(out_dir / "summary.json", summary, meta={"config_hash": chash, "seed": cfg.seed})
    for r in results:
        print(f"{r['name']:<28} {r['status']}")
    print(
        f"{len(live)} experiment(s) in {time.perf_counter() - t0:.1f}s,"
        f" summary -> {out_dir / 'summary.json'}"
    )
    return code, summary, out_dir


# ---------------------------------------------------------------------------
# subcommands


def _adhoc_meta(command: str, params: dict) -> dict:
    ident = {"command": command, **params}
    return {"config_hash": artio.config_hash(ident), "experiment": command, "kind": command, "seed": 0}


def cmd_classify(args) -> int:
    chart = load_chart(args.chart)
    res = classify(chart, args.xp, args.xip, tol_g=args.tol_g, tol_bracket=args.tol_bracket)
    print(res.label())
    for key in sorted(res.witness):
        value = res.witness[key]
        if isinstance(value, list):
            for j, v in enumerate(value):
                print(f"  {key}[{j}] = {v:.12g}")
        else:
            print(f"  {key} = {value:.12g}")
    if args.out:
        meta = _adhoc_meta(
            "classify",
            {"chart": args.chart, "xp": args.xp, "xip": args.xip,
             "tol_g": args.tol_g, "tol_bracket": args.tol_bracket},
        )
        path = artio.write_json(
            Path(args.out) / "classify.json",
            {"xp": args.xp, "xip": args.xip, "result": res.as_dict()},
            meta=meta,
        )
        print(f"wrote {path}")
    return 0


def cmd_trace(args) -> int:
    chart = load_chart(args.chart)
    spec = {"name": "trace", "kind": "trace",
            "start": args.start, "time": args.time, "samples": args.samples}
    ray = _trace_ray(spec, chart)
    print(f"status {ray.status}, {ray.reflections} reflection(s), t_final {ray.t_final:.6g}")
    for e in ray.events:
        loc = "" if e.x is None else f" at ({e.x[0]:.6g}, {e.x[1]:.6g})"
        cls = "" if e.classification is None else f" [{e.classification.label()}]"
        print(f"  t = {e.t:10.6f}  {e.kind}{loc}{cls}")
    frame, _, vec = ray.state_vector(ray.t_final)
    print(f"final ({frame}): {', '.join(f'{v:.9g}' for v in vec)}")
    if args.out:
        meta = _adhoc_meta("trace", {"chart": args.chart, **{k: spec[k] for k in ("start", "time", "samples")}})
        _, _, files = _write_trace(ray, spec, Path(args.out), meta)
        print(f"wrote {', '.join(str(f) for f in files)}")
    return 0


def cmd_mode(args) -> int:
    ctor = laplace_disk_mode if args.family == "laplace" else stokes_disk_mode
    try:
        mode = ctor(args.m, args.k, args.num_r, args.num_theta)
    except ValueError as exc:
        # the floors of --num-r and --num-theta depend on m and k
        flag = "--num-theta" if "num_theta" in str(exc) else "--num-r"
        args.usage_error(f"argument {flag}: {exc}")
    rep = mode.residual_report()
    print(f"{args.family} mode m = {mode.m}, k = {mode.k}: lam = {mode.lam:.12g}, h = {mode.h:.6g}")
    for key in sorted(rep):
        print(f"  {key:<14} {rep[key]:.6e}")
    if args.out:
        meta = _adhoc_meta("mode", {"family": args.family, "m": args.m, "k": args.k})
        path = artio.write_json(
            Path(args.out) / f"mode-{args.family}-{args.m}-{args.k}.json",
            {"lam": mode.lam, "h": mode.h, "residuals": rep},
            meta=meta,
        )
        print(f"wrote {path}")
    return 0


def cmd_parametrix(args) -> int:
    ms, orders = args.m, args.orders
    spec = {"name": "parametrix", "kind": "parametrix",
            "m": ms, "orders": orders, "delta0": args.delta0, "eps0": args.eps0}
    table = _parametrix_table(spec, None)
    print("order " + "".join(f"  m={m:<10}" for m in ms))
    for order in orders:
        print(f"{order:<6}" + "".join(f"  {table[order][m]:<12.4e}" for m in ms))
    if args.out:
        meta = _adhoc_meta("parametrix", {k: spec[k] for k in ("m", "orders", "delta0", "eps0")})
        _, _, files = _write_parametrix(table, spec, Path(args.out), meta)
        print(f"wrote {', '.join(str(f) for f in files)}")
    return 0


def _cmd_config_driven(args, only_kinds=None) -> int:
    try:
        raw = _read_config(args.config)
    except FileNotFoundError:
        print(f"config not found: {args.config}", file=sys.stderr)
        return 2
    except json.JSONDecodeError as exc:
        print(f"config is not valid JSON: {exc}", file=sys.stderr)
        return 2
    try:
        cfg = load_config(raw, out=args.out, seed=args.seed, jobs=args.jobs)
    except ConfigError as exc:
        print(str(exc), file=sys.stderr)
        return 2
    select = set(args.select) if getattr(args, "select", None) else None
    code, _, _ = run_config(cfg, only_kinds=only_kinds, select=select)
    return code


def cmd_run(args) -> int:
    return _cmd_config_driven(args)


def cmd_verify(args) -> int:
    return _cmd_config_driven(args, only_kinds=set(VERIFY_KINDS))


def cmd_measure(args) -> int:
    return _cmd_config_driven(args, only_kinds={"measure"})


def _add_config_flags(p):
    p.add_argument("--config", required=True, help="config path, or @name for a bundled one")
    p.add_argument("--out", default=None, help=f"output root (default ${OUT_ENV} or bicharlab_out)")
    p.add_argument("--seed", type=int, default=None, help="override the config seed")
    p.add_argument("--jobs", type=int, default=None, help="worker processes for experiments")
    p.add_argument("--select", nargs="*", default=None, help="run only these experiment names")


def _checked(convert, ok, what):
    """argparse type: convert a flag value, refusing it unless ok(value).

    A ValueError or OSError (an unreadable file) from either also refuses
    it.  A refusal is a usage error: argparse prints the usage line and
    exits 2.
    """

    def parse(text):
        try:
            value = convert(text)
            if ok(value):
                return value
        except (ValueError, OSError):
            pass
        raise argparse.ArgumentTypeError(f"need {what}, got {text!r}")

    return parse


def _numbers(convert):
    return lambda text: [convert(v) for v in text.split(",")]


def _distinct(values):
    return len(set(values)) == len(values)


_START = _checked(
    _numbers(float),
    lambda v: len(v) == 4 and all(map(math.isfinite, v)),
    "four finite numbers x1,x2,xi1,xi2",
)
_RING_INDICES = _checked(
    _numbers(int), lambda v: _distinct(v) and min(v) >= 1, "distinct integers >= 1"
)
_ORDERS = _checked(
    _numbers(int), lambda v: _distinct(v) and set(v) <= {0, 1}, "distinct orders from 0,1"
)
_FINITE = _checked(float, math.isfinite, "a finite number")
_POSITIVE = _checked(float, lambda v: v > 0.0, "a positive number")
_FRACTION = _checked(float, lambda v: 0.0 < v < 1.0, "a number in (0, 1)")
_TIME = _checked(float, lambda v: v != 0.0 and math.isfinite(v), "a finite nonzero time")
_CHART = _checked(str, load_chart, "disk[:WIDTH], annulus:RHO_IN[:inner|outer] or a chart file")


def _int_at_least(lo):
    return _checked(int, lambda v: v >= lo, f"an integer >= {lo}")


def build_parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(
        prog="bicharlab",
        description="broken-ray flow, boundary strata, disk quasimodes and defect-measure checks",
    )
    sub = ap.add_subparsers(dest="command", required=True)

    p = sub.add_parser("classify", help="classify one boundary covector")
    p.add_argument("--chart", type=_CHART, default="disk")
    p.add_argument("--xp", type=_FINITE, required=True)
    p.add_argument("--xip", type=_FINITE, required=True)
    p.add_argument("--tol-g", dest="tol_g", type=_POSITIVE, default=1e-8)
    p.add_argument("--tol-bracket", dest="tol_bracket", type=_POSITIVE, default=1e-6)
    p.add_argument("--out", default=None)
    p.set_defaults(func=cmd_classify)

    p = sub.add_parser("trace", help="trace one broken ray")
    p.add_argument("--chart", type=_CHART, default="disk")
    p.add_argument("--start", type=_START, required=True, help="x1,x2,xi1,xi2")
    p.add_argument("--time", type=_TIME, required=True)
    p.add_argument("--samples", type=_int_at_least(1), default=33)
    p.add_argument("--out", default=None)
    p.set_defaults(func=cmd_trace)

    p = sub.add_parser("mode", help="build one quasimode and print its residuals")
    p.add_argument("--family", choices=["laplace", "stokes"], required=True)
    p.add_argument("--m", type=_int_at_least(0), required=True)
    p.add_argument("--k", type=_int_at_least(1), required=True)
    p.add_argument("--num-r", dest="num_r", type=int, default=None)
    p.add_argument("--num-theta", dest="num_theta", type=int, default=None)
    p.add_argument("--out", default=None)
    p.set_defaults(func=cmd_mode, usage_error=p.error)

    p = sub.add_parser("parametrix", help="boundary-layer extension errors")
    p.add_argument("--m", type=_RING_INDICES, default="32,64,128",
                   help="comma-separated angular orders")
    p.add_argument("--orders", type=_ORDERS, default="0,1", help="comma-separated symbol orders")
    p.add_argument("--delta0", type=_POSITIVE, default=0.25)
    p.add_argument("--eps0", type=_FRACTION, default=0.3)
    p.add_argument("--out", default=None)
    p.set_defaults(func=cmd_parametrix)

    p = sub.add_parser("measure", help="run the pairing-series experiments of a config")
    _add_config_flags(p)
    p.set_defaults(func=cmd_measure)

    p = sub.add_parser("verify", help="run the defect-measure experiments of a config")
    _add_config_flags(p)
    p.set_defaults(func=cmd_verify)

    p = sub.add_parser("run", help="run every experiment of a config")
    _add_config_flags(p)
    p.set_defaults(func=cmd_run)

    return ap


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    return args.func(args)


if __name__ == "__main__":
    sys.exit(main())
