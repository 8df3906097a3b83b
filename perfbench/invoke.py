"""Run one adiaspec CLI invocation in a fresh interpreter and report on it.

    python3 perfbench/invoke.py REPORT.json MODE -- ARGS...

Times ``import adiaspec.cli`` and ``load_config`` (the set-up) and writes
REPORT.json with the exit code, the timings and the process's peak
resident memory.  Times are nominal (see gauge.py), except ``raw_main_s``,
the wall time of the run.  MODE is one of

* run   -- run ``adiaspec.cli.main`` on the CLI argv ARGS;
* trace -- the same with every layer call wrapped (see tracer.py); the
  spans go into the report, and the wrappers are removed again first;
* setup -- only load the config file ARGS[0], to sample set-up time.
"""

from __future__ import annotations

import json
import resource
import sys
import time


def main() -> int:
    report_path, mode = sys.argv[1], sys.argv[2]
    argv = sys.argv[sys.argv.index("--") + 1:]

    from gauge import Gauge

    gauge = Gauge()
    gauge.start()
    clock = gauge.clock
    start = clock()
    import adiaspec.cli as cli
    import_s = clock() - start

    from tracer import Tracer, layer_targets

    tracer = Tracer(clock)
    targets = layer_targets()
    if mode != "trace":
        targets = [t for t in targets if t[2] == "cli.load_config"]
    tracer.install(targets)
    try:
        start, raw_start = clock(), time.perf_counter()
        if mode == "setup":
            cli.load_config(argv[0])
            rc = 0
        else:
            rc = cli.main(argv)
        main_s = clock() - start
        raw_main_s = time.perf_counter() - raw_start
    finally:
        gauge.stop()
        tracer.restore()

    load_config_s = sum(end - begin for _, _, name, begin, end, _ in tracer.spans
                        if name == "cli.load_config")
    report = {
        "rc": rc,
        "import_s": import_s,
        "load_config_s": load_config_s,
        "main_s": main_s,
        "raw_main_s": raw_main_s,
        "peak_rss_mib": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "spans": tracer.spans if mode == "trace" else [],
    }
    with open(report_path, "w") as fh:
        json.dump(report, fh)
    return rc


if __name__ == "__main__":
    sys.exit(main())
