"""Run radform.cli.main under the external tracer, in a fresh process.

    python3 bench/cli_shim.py SUMMARY_JSON CLI_ARGS...

The traced cli workload starts this instead of `python -m radform.cli`.
It times the import of radform.cli, installs the tracer, calls main, and
writes the tracer's summary to SUMMARY_JSON and its spans next to it.
cli.process_s runs from the parent's spawn time (BENCH_SPAWN_T, wall
clock) to the end of main, so it includes interpreter start-up.
"""

import json
import os
import sys
import time

import tracer as tracing


def main(argv):
    summary_path, cli_args = argv[0], argv[1:]
    t0 = time.perf_counter()
    import radform.cli

    import_s = time.perf_counter() - t0
    t = tracing.Tracer()
    t.install()
    t1 = time.perf_counter()
    try:
        code = radform.cli.main(cli_args)
    finally:
        main_s = time.perf_counter() - t1
        t.uninstall()
        sys.stdout.flush()
        summary = t.summary()
        summary["counters"].update({
            "cli.import_s": import_s,
            "cli.main_s": main_s,
            "cli.process_s": time.time() - float(os.environ["BENCH_SPAWN_T"]),
        })
        with open(summary_path, "w") as handle:
            json.dump(summary, handle)
        t.write_spans(summary_path + ".spans.jsonl")
    return code


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
