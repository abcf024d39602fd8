"""radform benchmark: one closed-loop run of one workload.

    python3 bench/run.py --workload {cli,diagnose,tower} --seed N \\
        --seconds S --trace {0,1}

Run it from the root of a radform checkout.  It starts bench/worker.py
SETUP_REPEATS times in a row: every start is timed until the worker has
imported radform, generated its inputs and warmed its caches (setup_s is
the median), and the last one goes on to run whole passes until S
seconds have passed.  The outcomes are then judged here, outside the
timed region and outside the worker whose memory is reported, against
answers radform did not produce (check.py).  With --trace 1 the worker
also replays its first pass under the external tracer, and the metrics
are the per-layer ones.

A table goes to stdout first; the last line is one JSON object with the
keys correct, attempted, failed and metrics.  See bench/README.md.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import time

import check
import gen
import tracer as tracing

SETUP_REPEATS = 5
RUN_TIMEOUT_S = 170
WORKER = os.path.join(os.path.dirname(os.path.abspath(__file__)), "worker.py")

# the op whose median time is flagship_s, per workload
FLAGSHIP = {
    "cli": lambda op: op["argv"] == ["obstruct", gen.FIXTURE_DEGREE5],
    "diagnose": lambda op: op["kind"] == "flagship",
    "tower": lambda op: op["kind"] == "inverse" and op["tower"] == "quad5",
}

END_TO_END = (
    ("setup_s", "s"),
    ("verdict_s.p50", "s"),
    ("verdict_s.p90", "s"),
    ("verdicts_per_s", "1/s"),
    ("flagship_s", "s"),
    ("peak_rss_mb", "MB"),
)


def per_layer_units() -> dict:
    """Name -> unit of every per-layer metric, in BENCHMARK.json order."""
    units = {}
    for name, *_ in tracing.TARGETS:
        units[f"{name}.calls"] = "count"
        units[f"{name}.self_s"] = "s"
    units.update({
        "cyclotomic.order_gt1_frac": "ratio",
        "multipoly.MPoly.mul.terms_out": "count",
        "multipoly.coeff_bits.max": "bits",
        "multipoly.symmetrize.terms_in": "count",
        "multipoly.symmetrize.partition_frac": "ratio",
        "tower.attestation_errors": "count",
        "cli.process_s": "s",
        "cli.import_s": "s",
        "cli.main_s": "s",
        "trace_overhead_frac": "ratio",
    })
    return units


def _ratio(num, den):
    return num / den if den else 0.0


def per_layer(summary: dict, overhead: float) -> dict:
    calls, self_s, counters = summary["calls"], summary["self_s"], summary["counters"]
    values = {}
    for name, *_ in tracing.TARGETS:
        values[f"{name}.calls"] = calls.get(name, 0)
        values[f"{name}.self_s"] = self_s.get(name, 0.0)
    values.update({
        "cyclotomic.order_gt1_frac": _ratio(
            counters["cyclotomic.order_gt1"], calls["cyclotomic.CycScalar.mul"]),
        "multipoly.MPoly.mul.terms_out": counters["multipoly.MPoly.mul.terms_out"],
        "multipoly.coeff_bits.max": counters["multipoly.coeff_bits.max"],
        "multipoly.symmetrize.terms_in": counters["multipoly.symmetrize.terms_in"],
        "multipoly.symmetrize.partition_frac": _ratio(
            counters["multipoly.symmetrize.partition_terms"],
            counters["multipoly.symmetrize.terms_in"]),
        "tower.attestation_errors": counters["tower.attestation_errors"],
        "cli.process_s": counters.get("cli.process_s", 0.0),
        "cli.import_s": counters.get("cli.import_s", 0.0),
        "cli.main_s": counters.get("cli.main_s", 0.0),
        "trace_overhead_frac": overhead,
    })
    return values


def _worker(args, setup_only, workdir):
    command = [sys.executable, WORKER, args.workload, str(args.seed),
               str(args.seconds), str(args.trace), "1" if setup_only else "0", workdir]
    path = os.pathsep.join(filter(None, [os.path.abspath("src"), os.environ.get("PYTHONPATH")]))
    env = dict(os.environ, PYTHONPATH=path)
    start = time.perf_counter()
    proc = subprocess.Popen(command, stdout=subprocess.PIPE, text=True, env=env)
    try:
        line = proc.stdout.readline()
        setup = time.perf_counter() - start
        if line.strip() != "ready":
            raise RuntimeError(f"worker failed during set-up: {line.strip()!r}")
        out, _ = proc.communicate(timeout=RUN_TIMEOUT_S)
    finally:
        if proc.poll() is None:
            proc.kill()
            proc.wait()
    if proc.returncode != 0:
        raise RuntimeError(f"worker exited with {proc.returncode}")
    return setup, out


def judge(workload, seed, records, workdir):
    """Expected answers regenerated from the seed; returns (failures, ops),
    ops aligned with records."""
    passes = {}
    failures, ops = [], []
    for pass_index, i, _, outcome in records:
        index = max(pass_index, 0)  # the traced replay repeats pass 0
        if index not in passes:
            if workload == "cli":
                passes[index] = gen.cli_pass(seed, index, workdir)
            else:
                passes[index] = gen.PASSES[workload](seed, index)
        op = passes[index][i]
        ops.append(op)
        reason = check.failure(op, outcome)
        if reason:
            failures.append(reason)
    return failures, ops


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(gen.PASSES))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=int, default=20)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (os.path.isfile("src/radform/cli.py") and os.path.isdir("fixtures")):
        print("bench/run.py: run it from the root of a radform checkout "
              "(src/radform and fixtures/ not found)", file=sys.stderr)
        return 2

    workdir = os.path.join(".bench_work", f"{args.workload}-{args.seed}")
    shutil.rmtree(workdir, ignore_errors=True)
    os.makedirs(workdir)
    setups = []
    for r in range(SETUP_REPEATS):
        setup, out = _worker(args, r < SETUP_REPEATS - 1, workdir)
        setups.append(setup)
    result = json.loads(out.strip().splitlines()[-1])

    records = result["records"]
    failures, ops = judge(args.workload, args.seed, records, workdir)
    untraced = [(r, op) for r, op in zip(records, ops) if r[0] >= 0]
    latencies = [r[2] for r, _ in untraced]
    flagship = [r[2] for r, op in untraced if FLAGSHIP[args.workload](op)]
    wall = sum(result["pass_walls"])
    e2e = {
        "setup_s": statistics.median(setups),
        "verdict_s.p50": statistics.median(latencies),
        "verdict_s.p90": statistics.quantiles(latencies, n=10, method="inclusive")[8],
        "verdicts_per_s": len(latencies) / wall,
        "flagship_s": statistics.median(flagship),
        "peak_rss_mb": result["peak_rss_mb"],
    }
    attempted = len(records)
    print(f"workload {args.workload}  seed {args.seed}  passes {len(result['pass_walls'])}"
          f"  ops {len(latencies)}  flagship samples {len(flagship)}")
    for (name, unit) in END_TO_END:
        print(f"  {name:<16} {e2e[name]:>12.6g} {unit}")
    print(f"  {'failed_frac':<16} {len(failures) / attempted:>12.6g} ratio"
          f"  ({len(failures)} of {attempted})")
    for reason in failures[:10]:
        print(f"  FAILED {reason}")

    if args.trace:
        trace = result["trace"]
        overhead = trace["wall_s"] / result["pass_walls"][0] - 1
        units = per_layer_units()
        values = per_layer(trace["summary"], overhead)
        metrics = {name: {"value": values[name], "unit": units[name]} for name in units}
        for name, m in metrics.items():
            print(f"  {name:<44} {m['value']:>14.6g} {m['unit']}")
    else:
        metrics = {name: {"value": e2e[name], "unit": unit} for name, unit in END_TO_END}
    print(json.dumps({
        "correct": not failures,
        "attempted": attempted,
        "failed": len(failures),
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
