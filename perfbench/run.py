"""Benchmark: `bicharlab run` on one workload, end to end or per layer.

    python3 perfbench/run.py --workload reflect --seed 1 --seconds 40 --trace 0

Run from the root of a source checkout.  Each run writes the workload
config for the seed, then starts one fresh Python process per CLI run
(`bicharlab run --config ... --jobs 1`, see child.py) until the next one
would end after `--seconds`.  Every CLI run is checked against the
recorded reference (reference/<workload>.json) and, for the seeded
experiments, against the oracles in workloads.py.

--trace 0 prints the end-to-end metrics: medians of run_s, setup_s
(both scaled by the speed probe, see PROBE_REF_S) and peak_rss_mb.
--trace 1 alternates untraced and traced processes (at least two traced,
so the work counts can be compared) and prints every per-layer metric
plus the tracing overhead.  The last line of stdout is
one JSON object: {"correct", "attempted", "failed", "metrics"}.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import math
import os
import platform
import shutil
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import workloads  # noqa: E402

# every number in a report must match the reference within
# |a - b| <= RTOL * max(|a|, |b|) + ATOL; statuses, verdicts and other
# strings must match exactly
RTOL = 1e-9
ATOL = 1e-9
# reflection points of the ODE tracer against the closed-form chords;
# observed error is about 3e-10 after 100 reflections
HIT_ATOL = 1e-7
# report files whose content depends on the seed; checked by oracle
SEEDED = {"bounce-trace", "bounce-classify"}
# The CPU speed of a small shared virtual machine can drift by up to 1.8x
# over minutes (seen on a 2-vCPU Xeon VM), and wall times drift with it.
# run_s and setup_s are therefore wall seconds scaled to a CPU on which
# child.probe_loop takes PROBE_REF_S, using the probe timed inside the
# same process and phase.  A probe mean drops the PROBE_TRIM share at
# each end (preempted samples).
PROBE_REF_S = 3.0e-4
PROBE_TRIM = 0.1
# setup-only processes: at least this many setup samples per run
MIN_SETUP_SAMPLES = 3
# a CLI process still running this long after the benchmark started is
# killed, so the benchmark ends within 180 s whatever the program does
LIMIT_S = 170.0
STARTED = time.monotonic()
NPROC = len(os.sched_getaffinity(0))
# one BLAS thread: on a small shared machine a second spinning thread adds
# noise and no speed, and matmul rounding then cannot depend on nproc
BLAS_THREADS = 1
JOBS = 1


def machine_info() -> dict:
    import numpy
    import scipy

    blas = {}
    try:
        blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
    except (TypeError, KeyError):
        pass
    cpu = platform.processor()
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                cpu = line.split(":", 1)[1].strip()
                break
    except OSError:
        pass
    return {
        "nproc": NPROC,
        "cpu": cpu,
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas": f"{blas.get('name', '?')} {blas.get('version', '?')}",
        "blas_threads": BLAS_THREADS,
        "jobs": JOBS,
    }


def child_env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = str(Path("src").resolve())
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        env[var] = str(BLAS_THREADS)
    return env


def run_cli(work: Path, tag: str, config: Path, *, trace: bool, select=None) -> dict:
    """One fresh process running the CLI on the config; its timings."""
    out = work / tag
    timings = work / f"{tag}.timings.json"
    args = ["run", "--config", str(config), "--out", str(out), "--jobs", str(JOBS)]
    if select is not None:
        args += ["--select", select]
    with open(work / f"{tag}.log", "wb") as log:
        t0 = time.monotonic()
        proc = subprocess.Popen(
            [sys.executable, str(HERE / "child.py"), str(timings), repr(t0), str(int(trace)), *args],
            stdout=log,
            stderr=subprocess.STDOUT,
            env=child_env(),
        )
        try:
            code = proc.wait(timeout=max(0.0, STARTED + LIMIT_S - time.monotonic()))
        except subprocess.TimeoutExpired:
            code = "killed at the time limit"
        finally:
            if proc.poll() is None:
                proc.kill()
                proc.wait()
        wall = time.monotonic() - t0
    result = {"tag": tag, "exit": code, "wall": wall, "out": out, "trace": trace}
    if timings.is_file():
        result.update(json.loads(timings.read_text()))
    return result


# ---------------------------------------------------------------------------
# correctness


def flatten(value, path=""):
    if isinstance(value, dict):
        for key in sorted(value):
            yield from flatten(value[key], f"{path}.{key}")
    elif isinstance(value, list):
        for i, item in enumerate(value):
            yield from flatten(item, f"{path}[{i}]")
    else:
        yield path, value


def close(a, b) -> bool:
    if isinstance(a, bool) or isinstance(b, bool):
        return a is b
    if isinstance(a, (int, float)) and isinstance(b, (int, float)):
        if math.isnan(a) or math.isnan(b):
            return math.isnan(a) and math.isnan(b)
        return abs(a - b) <= RTOL * max(abs(a), abs(b)) + ATOL
    return a == b


def report_payload(out: Path, name: str):
    return json.loads((out / f"{name}.json").read_text())["payload"]


def check_numbers(got, want) -> list:
    got, want = dict(flatten(got)), dict(flatten(want))
    if got.keys() != want.keys():
        return [f"keys differ: {sorted(got.keys() ^ want.keys())[:4]}"]
    return [f"{p}: {got[p]!r} vs {want[p]!r}" for p in want if not close(got[p], want[p])]


def check_seeded(out: Path, name: str, config: dict) -> list:
    spec = next(e for e in config["experiments"] if e["name"] == name)
    payload = report_payload(out, name)
    if spec["kind"] == "classify":
        if len(payload) != spec["samples"]:
            return [f"{len(payload)} points, want {spec['samples']}"]
        bad = []
        for point in payload:
            tag, r0 = workloads.rim_class(point["xip"])
            res = point["result"]
            if res["tag"] != tag or not close(res["witness"]["r0"], r0):
                bad.append(f"xip {point['xip']!r}: {res['tag']} r0 {res['witness']['r0']!r}, want {tag} {r0!r}")
        return bad
    hits = workloads.chord_map(spec["start"], spec["time"])
    got = [e["x"] for e in payload["events"] if e["kind"] == "reflect"]
    if payload["status"] != "completed" or payload["reflections"] != len(hits) or len(got) != len(hits):
        return [f"{payload['status']}, {payload['reflections']} reflections, want {len(hits)}"]
    worst = max((math.dist(a, b) for a, b in zip(got, hits)), default=0.0)
    return [f"reflection points off by {worst:.2e}"] if worst > HIT_ATOL else []


def check_run(run: dict, config: dict, reference: dict) -> list:
    """Problems with one CLI run, one entry per experiment that failed."""
    names = [e["name"] for e in config["experiments"]]
    if run["exit"] != 0:
        return [f"{n}: exit code {run['exit']}" for n in names]
    try:
        summary = report_payload(run["out"], "summary")["experiments"]
    except (OSError, ValueError, KeyError) as exc:
        return [f"{n}: no summary ({exc})" for n in names]
    statuses = {r["name"]: r["status"] for r in summary}
    problems = []
    for name in names:
        try:
            if statuses.get(name) != reference["status"][name]:
                issues = [f"status {statuses.get(name)}, want {reference['status'][name]}"]
            elif name in SEEDED:
                issues = check_seeded(run["out"], name, config)
            else:
                issues = check_numbers(report_payload(run["out"], name), reference["reports"][name])
        except (OSError, ValueError, KeyError, TypeError) as exc:
            issues = [f"unreadable report: {exc!r}"]
        if issues:
            problems.append(f"{name}: {'; '.join(issues[:3])}")
    return problems


def tree_sha(out: Path) -> str:
    digest = hashlib.sha256()
    for path in sorted(p for p in out.rglob("*") if p.is_file()):
        digest.update(path.relative_to(out).as_posix().encode() + b"\0")
        digest.update(path.read_bytes())
    return digest.hexdigest()


# ---------------------------------------------------------------------------
# metrics


def probe_mean(samples: list) -> float:
    ordered = sorted(samples)
    cut = int(len(ordered) * PROBE_TRIM)
    return statistics.fmean(ordered[cut : len(ordered) - cut])


def scaled(seconds: float, probe_s: list) -> float:
    """Wall seconds scaled to a CPU on which the probe takes PROBE_REF_S."""
    return seconds * PROBE_REF_S / probe_mean(probe_s)


def end_to_end(runs: list, setups: list) -> dict:
    timed = [r for r in runs if not r["trace"]]
    run_s = [scaled(r["run_s"], r["run_probe_s"]) for r in timed]
    walls = ", ".join(f"{r['run_s']:.3f}" for r in timed)
    print(f"# run_s samples, scaled (wall): {', '.join(f'{s:.3f}' for s in run_s)} ({walls})")
    return {
        "run_s": {"value": statistics.median(run_s), "unit": "s"},
        "setup_s": {"value": statistics.median(setups), "unit": "s"},
        "peak_rss_mb": {
            "value": statistics.median(r["peak_rss_kib"] * 1024 / 1e6 for r in timed),
            "unit": "MB",
        },
    }


def per_layer(runs: list) -> tuple[dict, list]:
    """Per-layer metrics and the counts that moved between traced runs."""
    traced = [r["layers"] for r in runs if r["trace"]]
    metrics, moved = {}, []
    for key in traced[0]:
        values = [layers[key] for layers in traced]
        if key.endswith("_s"):
            metrics[key] = {"value": statistics.median(values), "unit": "s"}
            continue
        if len(set(values)) > 1:
            moved.append(f"{key}: {values}")
        unit = "B" if key.endswith(".bytes") else "count"
        metrics[key] = {"value": values[0], "unit": unit}
    metrics["tracing.overhead_s"] = {
        "value": statistics.median(r["tracer_s"] for r in runs if r["trace"]),
        "unit": "s",
    }
    diff = statistics.median(r["run_s"] for r in runs if r["trace"]) - statistics.median(
        r["run_s"] for r in runs if not r["trace"]
    )
    metrics["tracing.traced_minus_untraced_s"] = {"value": diff, "unit": "s"}
    return metrics, moved


def print_layer_table(metrics: dict, run_s: float) -> None:
    print(f"# layer self time, share of traced run_s = {run_s:.3f} s")
    rows = sorted(
        ((k[: -len(".self_s")], v["value"]) for k, v in metrics.items() if k.endswith(".self_s")),
        key=lambda kv: -kv[1],
    )
    for layer, self_s in rows:
        calls = metrics[f"{layer}.calls"]["value"]
        counts = ", ".join(
            f"{k.rsplit('.', 1)[1]}={v['value']}"
            for k, v in metrics.items()
            if k.startswith(layer + ".") and k.rsplit(".", 1)[1] not in ("calls", "self_s")
        )
        print(f"#   {layer:<34} {self_s:8.3f} s {100 * self_s / run_s:5.1f}%  calls={calls} {counts}")
    print(
        f"#   tracing overhead {metrics['tracing.overhead_s']['value']:.3f} s in the wrappers;"
        f" traced minus untraced run_s {metrics['tracing.traced_minus_untraced_s']['value']:+.3f} s"
    )


# ---------------------------------------------------------------------------


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", choices=workloads.WORKLOADS, required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    if not Path("src/bicharlab/cli.py").is_file():
        print("run from the root of a bicharlab checkout: src/bicharlab/cli.py not found", file=sys.stderr)
        return 2
    reference = json.loads((HERE / "reference" / f"{args.workload}.json").read_text())
    config = workloads.build_config(args.workload, args.seed)
    work = Path(".perfbench_work") / f"{args.workload}-s{args.seed}-p{os.getpid()}"
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))
    try:
        return measure(args, config, reference, work)
    finally:
        shutil.rmtree(work, ignore_errors=True)


def measure(args, config: dict, reference: dict, work: Path) -> int:
    config_path = work / "config.json"
    config_path.write_text(json.dumps(config, indent=1, sort_keys=True))
    print("# machine " + json.dumps(machine_info(), sort_keys=True))
    print(f"# workload {args.workload}, seed {args.seed}, {len(config['experiments'])} experiment(s)")
    deadline = time.monotonic() + args.seconds

    def fits(runs) -> bool:
        longest = max(r["wall"] for r in runs)
        return time.monotonic() + longest <= deadline

    def setup_only(i: int) -> dict:
        # a CLI run that selects no experiment
        return run_cli(work, f"setup{i}", config_path, trace=False, select="setup-only")

    def setup_sample(run: dict):
        if run.get("setup_probe_s"):
            return scaled(run["setup_s"], run["setup_probe_s"]), run["setup_s"]
        return None

    setup_runs = [setup_only(0)]  # fills the file and bytecode caches; not timed
    runs = []
    # --trace 1 alternates traced and untraced runs and needs two traced
    pattern = (True, False) if args.trace else (False,)
    while True:
        runs.append(run_cli(work, f"run{len(runs)}", config_path, trace=pattern[len(runs) % len(pattern)]))
        if runs[-1]["exit"] != 0:
            break
        if not (args.trace and len(runs) < 3) and not fits(runs):
            break
    # (scaled, wall) set-up seconds of every untraced process
    setups = [setup_sample(r) for r in runs if not r["trace"]]
    while not args.trace and (len(setups) < MIN_SETUP_SAMPLES or fits(setup_runs)):
        setup_runs.append(setup_only(len(setup_runs)))
        setups.append(setup_sample(setup_runs[-1]))
        if setups[-1] is None:
            break

    attempted = failed = 0
    shas = set()
    for run in runs:
        problems = check_run(run, config, reference)
        attempted += len(config["experiments"])
        failed += len(problems)
        sha = tree_sha(run["out"]) if run["out"].is_dir() else "-"
        shas.add(sha)
        print(
            f"# {run['tag']} {'traced' if run['trace'] else 'untraced'} exit={run['exit']}"
            f" setup_s={run.get('setup_s', float('nan')):.3f} run_s={run.get('run_s', float('nan')):.3f}"
            f" probe_ms={1e3 * probe_mean(run['run_probe_s']) if run.get('run_probe_s') else float('nan'):.4f}"
            f" rss_kib={run.get('peak_rss_kib', 0)} artifacts={sha[:16]}"
        )
        for line in problems:
            print(f"#   FAIL {line}")
        if run["exit"] != 0:
            log = (work / f"{run['tag']}.log").read_text(errors="replace").splitlines()
            print("\n".join(f"#   | {line}" for line in log[-12:]))
        shutil.rmtree(run["out"], ignore_errors=True)
    same = "identical" if len(shas) == 1 else f"{len(shas)} different"
    ref_sha = reference.get("artifact_sha256", {}).get(str(args.seed))
    note = "" if ref_sha is None else f", {'matches' if shas == {ref_sha} else 'differs from'} the reference"
    print(f"# artifact trees: {same} across {len(runs)} run(s){note}")
    if None not in setups:
        print(f"# setup_s samples, scaled (wall): {', '.join(f'{s:.3f} ({w:.3f})' for s, w in setups)}")

    correct = failed == 0
    metrics = {}
    timed = all("run_s" in r and (r["trace"] or r.get("run_probe_s")) for r in runs)
    if args.trace and timed and len({r["trace"] for r in runs}) == 2:
        metrics, moved = per_layer(runs)
        for line in moved:
            print(f"#   COUNT MOVED {line}")
        missing = sorted({name for r in runs if r["trace"] for name in r["missing_layers"]})
        if missing:
            print(f"#   LAYERS NOT FOUND {', '.join(missing)}")
        correct = correct and not moved and not missing
        print_layer_table(metrics, statistics.median(r["run_s"] for r in runs if r["trace"]))
    elif not args.trace and timed and None not in setups:
        metrics = end_to_end(runs, [scaled_s for scaled_s, _ in setups])
    print(json.dumps({"correct": correct, "attempted": attempted, "failed": failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
