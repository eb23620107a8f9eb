"""Run the program under a profiler and write the functions of src/bicharlab it runs.

The program is what checks the paper's claims: the acceptance criteria
(tests/test_acceptance.py, run in this process) and `bicharlab run` with
one job on the seed-0 benchmark workloads and on @smoke.  Every function
call in this process and its threads is recorded with sys.setprofile and
threading.setprofile.  The output is a JSON document: the exit code of
each run, and the list of the package's reached functions, each as (file
name, qualified name, code positions), the identity that
`test_reach.defined_functions` gives the same function compiled from its
source.  A failed criterion or run still counts what it reached.

    PYTHONPATH=src python tests/reach.py OUT_DIR

writes OUT_DIR/reached.json, with the runs' artifacts under OUT_DIR.
"""

import importlib.util
import json
import sys
import threading
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]


def ident(code) -> list:
    """A function's identity that survives recompiling its file."""
    return [Path(code.co_filename).name, code.co_qualname, list(code.co_positions())]


def main(out: Path) -> None:
    called = set()

    def record(frame, event, arg):
        if event == "call":
            called.add(frame.f_code)

    sys.setprofile(record)
    threading.setprofile(record)
    import pytest

    codes = {"criteria": int(pytest.main([
        str(ROOT / "tests" / "test_acceptance.py"), "-q", "-p", "no:cacheprovider"]))}

    from bicharlab import cli

    spec = importlib.util.spec_from_file_location("workloads", ROOT / "perfbench" / "workloads.py")
    workloads = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(workloads)
    runs = {"smoke": "@smoke"}
    for name in workloads.WORKLOADS:
        runs[name] = out / f"{name}.json"
        runs[name].write_text(json.dumps(workloads.build_config(name, 0)))
    for name, config in runs.items():
        codes[name] = cli.main(["run", "--config", str(config), "--out", str(out / name), "--jobs", "1"])
    sys.setprofile(None)
    threading.setprofile(None)

    package = Path(cli.__file__).parent
    reached = [ident(c) for c in called if Path(c.co_filename).parent == package]
    (out / "reached.json").write_text(json.dumps({"exit codes": codes, "reached": reached}))


if __name__ == "__main__":
    main(Path(sys.argv[1]))
