"""One benchmark process: the `bicharlab` CLI, timed from outside.

    python3 perfbench/child.py TIMINGS SPAWN_T TRACE CLI_ARG...

Runs `bicharlab.cli.main(CLI_ARG...)` in this fresh process, the way the
`bicharlab` command does, and writes TIMINGS as JSON:

- `setup_s`: from SPAWN_T (the parent's `time.monotonic()` just before it
  started this process) until `load_config` returned a validated config;
- `run_s`: the span of `run_config`, which ends once summary.json is
  written;
- `peak_rss_kib`: peak resident memory of this process;
- `setup_probe_s`, `run_probe_s`: with TRACE = 0, the durations of a
  fixed pure-Python loop run from a timer signal every PROBE_EVERY_S
  seconds, during set-up and during `run_config`: the speed of this CPU
  while each phase went on (run.py scales the times by it);
- `layers`, `missing_layers`, `tracer_s`: with TRACE = 1, the per-layer
  tracer's metrics, the targets it could not find, and the time spent in
  its own wrappers.

The process exits with the CLI's own exit code.
"""

from __future__ import annotations

import json
import resource
import signal
import sys
import time
from pathlib import Path

# the speed probe: PROBE_LOOPS iterations (about 0.3 ms) every PROBE_EVERY_S
# seconds, about 0.6% of the run
PROBE_EVERY_S = 0.05
PROBE_LOOPS = 3000


def probe_loop() -> float:
    t0 = time.perf_counter()
    acc = 0
    for i in range(PROBE_LOOPS):
        acc += (i * 7) % 13
    return time.perf_counter() - t0


def main(argv) -> int:
    timings_path, spawn, trace, cli_args = argv[0], float(argv[1]), argv[2] == "1", argv[3:]
    probes = []
    if not trace:
        # a traced process is not probed: the probe would land in layer spans
        signal.signal(signal.SIGALRM, lambda *_: probes.append(probe_loop()))
        signal.setitimer(signal.ITIMER_REAL, PROBE_EVERY_S, PROBE_EVERY_S)
    import bicharlab
    from bicharlab import cli

    src = Path("src").resolve()
    if src not in Path(bicharlab.__file__).resolve().parents:
        print(f"bicharlab was imported from {bicharlab.__file__}, not {src}", file=sys.stderr)
        return 3
    tracer = None
    if trace:
        from tracer import Tracer

        tracer = Tracer().install()
    marks = {}
    load_config, run_config = cli.load_config, cli.run_config

    def timed_load(*args, **kwargs):
        cfg = load_config(*args, **kwargs)
        marks["setup_s"] = time.monotonic() - spawn
        marks["setup_probe_s"] = probes[:]
        probes.clear()
        return cfg

    def timed_run(*args, **kwargs):
        t0 = time.monotonic()
        try:
            return run_config(*args, **kwargs)
        finally:
            marks["run_s"] = time.monotonic() - t0
            signal.setitimer(signal.ITIMER_REAL, 0)
            marks["run_probe_s"] = probes

    cli.load_config, cli.run_config = timed_load, timed_run
    try:
        code = cli.main(cli_args)
    finally:
        cli.load_config, cli.run_config = load_config, run_config
        if tracer is not None:
            tracer.uninstall()
    marks["peak_rss_kib"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    if tracer is not None:
        marks["layers"] = tracer.metrics()
        marks["missing_layers"] = tracer.missing
        marks["tracer_s"] = tracer.own_s
    Path(timings_path).write_text(json.dumps(marks, sort_keys=True))
    return code


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
