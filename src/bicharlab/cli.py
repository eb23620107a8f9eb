"""Command line front end: experiment configs and one-experiment probes.

Each experiment kind is declared twice, once in each of two tables: its
schema in `config._EXPERIMENT_SCHEMAS`, its runner in `RUNNERS` below
(a test pins the two key sets equal).  A runner only computes: it
returns an `Outcome`, and `_write` turns any outcome into the kind's
artifacts, NAME.csv and NAME.json plus, for a mode experiment with
`fields`, the field grids beside them.

run, verify and measure execute a config file.  run takes every
experiment in the file; verify and measure are kind filters over the
same table, verify keeping `VERIFY_KINDS` (the defect-measure checks)
and measure the pairing series.  classify, trace, mode and parametrix
are probes: each turns its flags into a config holding one experiment
of the kind of the same name, checks it with `config.validate_config`
like any other config (a refusal names the flag that set the offending
key), computes it with the kind's runner, prints the result and, with
--out, writes the same artifacts a run of that config writes.

Exit status is 0 when nothing failed (inconclusive is not a failure),
1 when any experiment failed or errored, 2 on a config or usage
problem.  The runner is a single orchestrator; --jobs bounds worker
parallelism and workers receive only the immutable config identity,
writing their own artifact files.  All artifacts are deterministic for
a fixed config and seed.
"""

from __future__ import annotations

import argparse
import json
import os
import re
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
from .config import ConfigError, ExperimentConfig, build_family, build_symbol, load_config
from .flow import trace
from .modes import laplace_disk_mode  # noqa: F401  perfbench/selftest.py wraps this binding
from .parametrix import build_parametrix, extension_error
from .quantize import measure_sequence
from .verify import Thresholds
from .verify import car_mass, elliptic_mass, h_oscillation_tail, invariance_gap, support_gap

__all__ = [
    "OUT_ENV",
    "FAIL_STATUSES",
    "Outcome",
    "RunContext",
    "RUNNERS",
    "VERIFY_KINDS",
    "run_experiment",
    "run_config",
    "cmd_probe",
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
RunContext = namedtuple("RunContext", "chart thresholds seed index")

# what a runner returns: the status and summary.json row, the columns of
# NAME.csv, the payload of NAME.json, and (suffix, array, extra meta)
# triples, each written as the field grid NAME-suffix
Outcome = namedtuple("Outcome", "status summary cols payload grids", defaults=((),))


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


def _run_trace(spec, ctx):
    start = spec["start"]
    if isinstance(start, dict):
        start = PhasePoint(**start)
    else:
        start = (np.asarray(start[:2], dtype=float), np.asarray(start[2:], dtype=float))
    ray = trace(ctx.chart, start, float(spec["time"]))
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
    kwargs = {k: spec[k] for k in ("delta0", "eps0") if k in spec}
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
    fr = h_oscillation_tail(modes, tuple(radii), variant=spec.get("variant", "interior"))
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


def _run_propagation(check, spec, ctx, options=None):
    """Family, symbol, `check` with the keywords `options(spec, chart)` adds, report."""
    modes = build_family(spec["family"])
    a = build_symbol(spec["symbol"], name=spec["name"])
    extra = options(spec, ctx.chart) if options else {}
    rep = check(modes, a, thresholds=ctx.thresholds, experiment=spec["name"], **extra)
    cols = {key: [getattr(r, key) for r in rep.rows] for key in ("h", "before", "after", "gap")}
    summary = {"verdict": rep.verdict, "notes": rep.notes}
    return Outcome(rep.verdict, summary, cols, rep.to_dict())


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


def _compute(identity: dict, index: int) -> Outcome:
    spec = identity["experiments"][index]
    ctx = RunContext(
        chart=load_chart(identity["chart"]),
        thresholds=Thresholds(**identity["thresholds"]),
        seed=identity["seed"],
        index=index,
    )
    return RUNNERS[spec["kind"]](spec, ctx)


def _write(out_dir: Path, spec: dict, meta: dict, outcome: Outcome) -> list:
    """Write one experiment's artifacts; returns their paths."""
    name = spec["name"]
    files = [
        artio.write_csv(out_dir / f"{name}.csv", outcome.cols, meta=meta),
        artio.write_json(out_dir / f"{name}.json", outcome.payload, meta=meta),
    ]
    for suffix, field, at in outcome.grids:
        files += artio.write_field_grid(out_dir / f"{name}-{suffix}", field, meta=dict(meta, **at))
    return files


def run_experiment(identity: dict, index: int, out: str, identity_hash: str) -> dict:
    """Execute one experiment and write its artifacts; never raises."""
    spec = identity["experiments"][index]
    try:
        outcome = _compute(identity, index)
        meta = _meta(identity_hash, spec, identity["seed"])
        files = _write(Path(out), spec, meta, outcome)
        status, summary = outcome.status, outcome.summary
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
# probes


def _given(**keys) -> dict:
    return {key: value for key, value in keys.items() if value is not None}


# each probe's flags as the keys of its one experiment; a flag not given
# leaves its key out, so the config default applies
_PROBE_KEYS = {
    "classify": lambda a: _given(points=[[a.xp, a.xip]], tol_g=a.tol_g, tol_bracket=a.tol_bracket),
    "trace": lambda a: _given(start=a.start, time=a.time, samples=a.samples),
    "mode": lambda a: {
        "family": _given(family=a.family, m=a.m, k=a.k, num_r=a.num_r, num_theta=a.num_theta)
    },
    "parametrix": lambda a: _given(m=a.m, orders=a.orders, delta0=a.delta0, eps0=a.eps0),
}

_POINT_FLAGS = {"points[0][0]": "--xp", "points[0][1]": "--xip"}


def _flag(path: str) -> str:
    """The probe flag that sets the config key at `path`."""
    key = path.removeprefix("experiments[0].")
    if key in _POINT_FLAGS:
        return _POINT_FLAGS[key]
    return "--" + re.sub(r"\[\d+\]", "", key).rsplit(".", 1)[-1].replace("_", "-")


def _print_classify(spec, outcome):
    print(outcome.cols["label"][0])
    witness = outcome.payload[0]["result"]["witness"]
    for key in sorted(witness):
        value = witness[key]
        if isinstance(value, list):
            for j, v in enumerate(value):
                print(f"  {key}[{j}] = {v:.12g}")
        else:
            print(f"  {key} = {value:.12g}")


def _print_trace(spec, outcome):
    ray = outcome.payload
    print(
        f"status {ray['status']}, {ray['reflections']} reflection(s),"
        f" t_final {ray['t_final']:.6g}"
    )
    for e in ray["events"]:
        loc = "" if e["x"] is None else f" at ({e['x'][0]:.6g}, {e['x'][1]:.6g})"
        cls = "" if e["classification"] is None else f" [{e['classification']}]"
        print(f"  t = {e['t']:10.6f}  {e['kind']}{loc}{cls}")
    # two or more samples span [t_final, 0] or [0, t_final] and pin both
    # ends exactly; a single sample sits at the lower end
    i = 0 if ray["t_final"] < 0 else -1
    state = ", ".join(f"{outcome.cols[c][i]:.9g}" for c in ("q1", "q2", "p1", "p2"))
    print(f"final ({outcome.cols['frame'][i]}): {state}")


def _print_mode(spec, outcome):
    cols = outcome.cols
    print(
        f"{spec['family']['family']} mode m = {cols['m'][0]}, k = {cols['k'][0]}:"
        f" lam = {cols['lam'][0]:.12g}, h = {cols['h'][0]:.6g}"
    )
    for key, value in sorted(outcome.payload["worst"].items()):
        print(f"  {key:<14} {value:.6e}")


def _print_parametrix(spec, outcome):
    print("order " + "".join(f"  m={m:<10}" for m in spec["m"]))
    for order, row in outcome.payload["errors"].items():
        print(f"{order:<6}" + "".join(f"  {error:<12.4e}" for error in row.values()))


_PRINTERS = {
    "classify": _print_classify,
    "trace": _print_trace,
    "mode": _print_mode,
    "parametrix": _print_parametrix,
}


def cmd_probe(args) -> int:
    """Run the probe's flags as a one-experiment config of the same kind."""
    kind = args.command
    spec = {"name": kind, "kind": kind, **_PROBE_KEYS[kind](args)}
    try:
        cfg = load_config({"chart": getattr(args, "chart", "disk"), "experiments": [spec]})
    except ConfigError as exc:
        path, _, reason = exc.errors[0].partition(": ")
        args.usage_error(f"argument {_flag(path)}: {reason}")
    outcome = _compute(cfg.identity(), 0)
    _PRINTERS[kind](spec, outcome)
    if args.out:
        files = _write(Path(args.out), spec, _meta(cfg.hash, spec, cfg.seed), outcome)
        print(f"wrote {', '.join(str(f) for f in files)}")
    return 1 if outcome.status in FAIL_STATUSES else 0


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


def _comma_list(convert):
    """argparse type: comma-separated values, each converted by `convert`."""

    def parse(text):
        return [convert(v) for v in text.split(",")]

    parse.__name__ = f"comma-separated {convert.__name__}"
    return parse


def build_parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(
        prog="bicharlab",
        description="broken-ray flow, boundary strata, disk quasimodes and defect-measure checks",
    )
    sub = ap.add_subparsers(dest="command", required=True)

    def probe(kind, help):
        p = sub.add_parser(kind, help=help)
        p.set_defaults(func=cmd_probe, usage_error=p.error)
        return p

    chart_help = "disk[:WIDTH], annulus:RHO_IN[:inner|outer] or a chart file"
    p = probe("classify", "classify one boundary covector")
    p.add_argument("--chart", default="disk", help=chart_help)
    p.add_argument("--xp", type=float, required=True)
    p.add_argument("--xip", type=float, required=True)
    p.add_argument("--tol-g", dest="tol_g", type=float)
    p.add_argument("--tol-bracket", dest="tol_bracket", type=float)
    p.add_argument("--out", default=None)

    p = probe("trace", "trace one broken ray")
    p.add_argument("--chart", default="disk", help=chart_help)
    p.add_argument("--start", type=_comma_list(float), required=True, help="x1,x2,xi1,xi2")
    p.add_argument("--time", type=float, required=True)
    p.add_argument("--samples", type=int)
    p.add_argument("--out", default=None)

    p = probe("mode", "build one quasimode and print its residuals")
    p.add_argument("--family", required=True, help="laplace or stokes")
    p.add_argument("--m", type=int, required=True)
    p.add_argument("--k", type=int, required=True)
    p.add_argument("--num-r", dest="num_r", type=int)
    p.add_argument("--num-theta", dest="num_theta", type=int)
    p.add_argument("--out", default=None)

    p = probe("parametrix", "boundary-layer extension errors")
    p.add_argument("--m", type=_comma_list(int), default="32,64,128",
                   help="comma-separated angular orders")
    p.add_argument("--orders", type=_comma_list(int), help="comma-separated symbol orders")
    p.add_argument("--delta0", type=float)
    p.add_argument("--eps0", type=float)
    p.add_argument("--out", default=None)

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
