"""Self-test of the benchmark; runs in a few seconds.

    PYTHONPATH=src python3 perfbench/selftest.py

Checks that every workload config passes `config.validate_config` for
several seeds and stays the same for the same seed, and that the tracer
sees calls through every binding, nests self time, counts its own
time, and restores every attribute it replaced.
"""

from __future__ import annotations

import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))

import workloads  # noqa: E402
from tracer import TARGETS, Tracer  # noqa: E402

from bicharlab import cli, config, modes  # noqa: E402

failures = []


def check(ok: bool, what: str) -> None:
    if not ok:
        failures.append(what)


def test_configs() -> None:
    for name in workloads.WORKLOADS:
        for seed in (0, 1, 7, 2**31 - 1):
            cfg = workloads.build_config(name, seed)
            errors = config.validate_config(cfg)
            check(not errors, f"{name} seed {seed}: {errors}")
            check(cfg == workloads.build_config(name, seed), f"{name} seed {seed} not repeatable")
    starts = {tuple(workloads.trace_start(seed)) for seed in range(5)}
    check(len(starts) == 5, "trace start does not follow the seed")


def snapshot() -> dict:
    """Every attribute of the package's modules and traced classes."""
    spaces = [mod for key, mod in sys.modules.items() if key.startswith("bicharlab")]
    spaces += [getattr(sys.modules[f"bicharlab.{mod}"], path.split(".")[0])
               for _, mod, path, _ in TARGETS if "." in path]
    return {(id(space), attr): value for space in spaces for attr, value in list(vars(space).items())}


def test_tracer() -> None:
    before = snapshot()
    original = modes.laplace_disk_mode
    tracer = Tracer().install()
    try:
        check(not tracer.missing, f"targets not found: {tracer.missing}")
        check(cli.laplace_disk_mode is not original, "cli's own binding was not wrapped")
        check(config.laplace_disk_mode is modes.laplace_disk_mode, "bindings got different wrappers")
        cli.laplace_disk_mode(3, 2)
        stats = tracer.stats
        check(stats["modes.laplace_disk_mode"]["calls"] == 1, "call through cli not counted")
        check(stats["modes.bessel_zero"]["calls"] == 1, "nested call not counted")
        check(stats["polar.PolarGrid"]["calls"] == 1, "constructor not counted")
        check(all(s["self_s"] >= 0 for s in stats.values()), "negative self time")
        check(tracer.own_s > 0, "time in the wrappers not counted")
    finally:
        tracer.uninstall()
    after = snapshot()
    moved = [key[1] for key, value in before.items() if after.get(key) is not value]
    check(before.keys() == after.keys() and not moved, f"attributes not restored: {moved[:5]}")
    check(modes.laplace_disk_mode is original, "laplace_disk_mode still wrapped")


def main() -> int:
    test_configs()
    test_tracer()
    for line in failures:
        print(f"FAIL {line}")
    print("selftest", "failed" if failures else "passed")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
