"""Command line front end: experiment configs and one-experiment probes.

Every experiment kind is one record of `config.KINDS`, holding its
schema, its cross-key rules and its runner.  This module holds only the
command line: it runs a kind's runner and `_write` turns the `Outcome`
into the kind's artifacts, NAME.csv and NAME.json plus, for a mode
experiment with `fields`, the field grids beside them.

run, verify and measure execute a config file.  run takes every
experiment in the file; verify and measure are kind filters over the
same table, verify keeping `VERIFY_KINDS` (the defect-measure checks)
and measure the pairing series.  classify, trace, mode and parametrix
are probes: each turns its flags into a config holding one experiment
of the kind of the same name, checks it with `config.validate_config`
like any other config (a refusal names the flag that set the offending
key), computes it with the kind's runner, prints the result and, with
--out, writes the same artifacts a run of that config writes.  `_PROBES`
holds each probe's flag-to-key mapping and printer.

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
from importlib import resources
from pathlib import Path

from . import io as artio
from .charts import load_chart
from .config import KINDS, ConfigError, ExperimentConfig, Outcome, RunContext, load_config
from .modes import laplace_disk_mode  # noqa: F401  perfbench/selftest.py wraps this binding
from .verify import Thresholds

__all__ = [
    "OUT_ENV",
    "FAIL_STATUSES",
    "VERIFY_KINDS",
    "run_experiment",
    "run_config",
    "cmd_probe",
    "cmd_config",
    "build_parser",
    "main",
]

OUT_ENV = "BICHARLAB_OUT"
FAIL_STATUSES = ("fail", "error")


def _default_out() -> str:
    return os.environ.get(OUT_ENV, "bicharlab_out")


def _read_config(arg: str) -> dict:
    """The config at path `arg`, or the bundled one `arg` names as @NAME."""
    if arg.startswith("@"):
        arg = str(resources.files("bicharlab") / "configs" / (arg[1:] + ".json"))
    with open(arg) as fh:
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
    return KINDS[spec["kind"]].run(spec, ctx)


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
        # imported here: it pulls in multiprocessing, which a serial run never reads
        from concurrent.futures import ProcessPoolExecutor

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


# each probe: its flags as the keys of its one experiment (a flag not
# given leaves its key out, so the config default applies), and how it
# prints the outcome
_PROBES = {
    "classify": (lambda a: {"points": [[a.xp, a.xip]]}, _print_classify),
    "trace": (lambda a: _given(start=a.start, time=a.time, samples=a.samples), _print_trace),
    "mode": (lambda a: {"family": {"family": a.family, "m": a.m, "k": a.k}}, _print_mode),
    "parametrix": (lambda a: _given(m=a.m, orders=a.orders), _print_parametrix),
}


def cmd_probe(args) -> int:
    """Run the probe's flags as a one-experiment config of the same kind."""
    kind = args.command
    keys, show = _PROBES[kind]
    spec = {"name": kind, "kind": kind, **keys(args)}
    try:
        cfg = load_config({"chart": getattr(args, "chart", "disk"), "experiments": [spec]})
    except ConfigError as exc:
        path, _, reason = exc.errors[0].partition(": ")
        args.usage_error(f"argument {_flag(path)}: {reason}")
    outcome = _compute(cfg.identity(), 0)
    show(spec, outcome)
    if args.out:
        files = _write(Path(args.out), spec, _meta(cfg.hash, spec, cfg.seed), outcome)
        print(f"wrote {', '.join(str(f) for f in files)}")
    return 1 if outcome.status in FAIL_STATUSES else 0


def cmd_config(args) -> int:
    """run, verify and measure: the config's experiments of `args.only_kinds`."""
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
    select = None if args.select is None else set(args.select)
    unknown = sorted((select or set()) - {spec["name"] for spec in cfg.experiments})
    if unknown:
        # argparse's usage error, returned like the config errors above
        args.parser.print_usage(sys.stderr)
        print(f"{args.parser.prog}: error: argument --select: no experiment named"
              f" {', '.join(map(repr, unknown))}", file=sys.stderr)
        return 2
    code, _, _ = run_config(cfg, only_kinds=args.only_kinds, select=select)
    return code


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
        p.add_argument("--out", default=None)
        return p

    chart_help = "disk[:WIDTH], annulus:RHO_IN[:inner|outer] or a chart file"
    p = probe("classify", "classify one boundary covector")
    p.add_argument("--chart", default="disk", help=chart_help)
    p.add_argument("--xp", type=float, required=True)
    p.add_argument("--xip", type=float, required=True)

    p = probe("trace", "trace one broken ray")
    p.add_argument("--chart", default="disk", help=chart_help)
    p.add_argument("--start", type=_comma_list(float), required=True, help="x1,x2,xi1,xi2")
    p.add_argument("--time", type=float, required=True)
    p.add_argument("--samples", type=int)

    p = probe("mode", "build one quasimode and print its residuals")
    p.add_argument("--family", required=True, help="laplace or stokes")
    p.add_argument("--m", type=int, required=True)
    p.add_argument("--k", type=int, required=True)

    p = probe("parametrix", "boundary-layer extension errors")
    p.add_argument("--m", type=_comma_list(int), default="32,64,128",
                   help="comma-separated angular orders")
    p.add_argument("--orders", type=_comma_list(int), help="comma-separated symbol orders")

    for command, kinds, help in (
        ("measure", {"measure"}, "run the pairing-series experiments of a config"),
        ("verify", set(VERIFY_KINDS), "run the defect-measure experiments of a config"),
        ("run", None, "run every experiment of a config"),
    ):
        p = sub.add_parser(command, help=help)
        p.add_argument("--config", required=True, help="config path, or @name for a bundled one")
        p.add_argument("--out", default=None, help=f"output root (default ${OUT_ENV} or bicharlab_out)")
        p.add_argument("--seed", type=int, default=None, help="override the config seed")
        p.add_argument("--jobs", type=int, default=None, help="worker processes for experiments")
        p.add_argument("--select", nargs="+", default=None, help="run only these experiment names")
        p.set_defaults(func=cmd_config, only_kinds=kinds, parser=p)

    return ap


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    return args.func(args)


if __name__ == "__main__":
    sys.exit(main())
