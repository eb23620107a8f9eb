"""Record the correctness reference of each workload from the current code.

    python3 perfbench/record_reference.py [WORKLOAD...]

Run from the root of a checkout of the commit whose outputs are the
reference.  Runs each workload once with seed 0 and writes
reference/<workload>.json: the status of every experiment, every report
payload except the seeded ones (those are checked by oracle), and the
sha256 of the artifact tree for seed 0.
"""

from __future__ import annotations

import json
import shutil
import sys
from pathlib import Path

import run
import workloads

SEED = 0


def record(workload: str) -> dict:
    config = workloads.build_config(workload, SEED)
    work = Path(".perfbench_work") / f"record-{workload}"
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    try:
        config_path = work / "config.json"
        config_path.write_text(json.dumps(config))
        result = run.run_cli(work, "ref", config_path, trace=False)
        if result["exit"] != 0:
            raise SystemExit(f"{workload}: exit code {result['exit']}, see {work}")
        out = result["out"]
        summary = run.report_payload(out, "summary")["experiments"]
        return {
            "workload": workload,
            "status": {r["name"]: r["status"] for r in summary},
            "reports": {
                r["name"]: run.report_payload(out, r["name"])
                for r in summary
                if r["name"] not in run.SEEDED
            },
            "artifact_sha256": {str(SEED): run.tree_sha(out)},
            "recorded_with": run.machine_info(),
        }
    finally:
        shutil.rmtree(work, ignore_errors=True)


def main(names) -> int:
    for workload in names or workloads.WORKLOADS:
        ref = record(workload)
        path = run.HERE / "reference" / f"{workload}.json"
        path.parent.mkdir(exist_ok=True)
        path.write_text(json.dumps(ref, indent=1, sort_keys=True) + "\n")
        print(f"{workload}: {ref['status']} -> {path}")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
