"""Run the benchmark over several seeds and print the spread of each metric.

    python3 perfbench/spread.py --seeds 1-10 [--log FILE]

Run from the root of a checkout.  Workloads are interleaved (seed 1 of
every workload, then seed 2, ...) because the wall time of a shared
machine drifts over minutes.  For each workload and end-to-end metric it
prints the median, the quartiles (statistics.quantiles, n=4) and the
spread (q3 - q1) / median next to the metric's bound in BENCHMARK.json.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path


def seed_range(text: str) -> list:
    lo, _, hi = text.partition("-")
    return list(range(int(lo), int(hi or lo) + 1))


def main(argv=None) -> int:
    bench = json.loads(Path("BENCHMARK.json").read_text())
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--seeds", type=seed_range, default=seed_range("1-10"))
    ap.add_argument("--log", type=Path, default=None, help="append every result here as JSON lines")
    args = ap.parse_args(argv)
    names = [w["name"] for w in bench["workloads"]]
    values = {name: {} for name in names}
    for seed in args.seeds:
        for name in names:
            cmd = bench["command"] + [
                "--workload", name, "--seed", str(seed),
                "--seconds", str(bench["run_seconds"]), "--trace", "0",
            ]
            proc = subprocess.run(cmd, capture_output=True, text=True, timeout=240)
            lines = proc.stdout.strip().splitlines()
            result = json.loads(lines[-1]) if proc.returncode == 0 and lines else {"correct": False}
            if args.log:
                with open(args.log, "a") as fh:
                    fh.write(json.dumps({"workload": name, "seed": seed, "exit": proc.returncode, **result}) + "\n")
            if not result["correct"]:
                print(f"seed {seed} {name}: exit {proc.returncode}, not correct", file=sys.stderr)
                print(proc.stdout[-3000:], proc.stderr[-3000:], file=sys.stderr)
                return 1
            shown = ", ".join(f"{k}={v['value']:.4g}" for k, v in sorted(result["metrics"].items()))
            print(f"seed {seed} {name}: {shown}", flush=True)
            for key, metric in result["metrics"].items():
                values[name].setdefault(key, []).append(metric["value"])
    bounds = {m["name"]: m["bound"] for m in bench["end_to_end"]}
    print(f"{'workload':<9} {'metric':<12} {'median':>10} {'q1':>10} {'q3':>10} {'spread':>7} {'bound':>6}")
    for name in names:
        for key, vals in sorted(values[name].items()):
            if len(vals) < 2:
                continue
            q1, med, q3 = statistics.quantiles(vals, n=4)
            print(f"{name:<9} {key:<12} {med:>10.4f} {q1:>10.4f} {q3:>10.4f} "
                  f"{(q3 - q1) / med:>7.3f} {bounds.get(key, float('nan')):>6}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
