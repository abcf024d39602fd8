"""Compare two git revisions on the benchmark in alternating pairs.

    python scripts/bench_pairs.py PARENT CHANGE --workload diagnose --pairs 10

Each run extracts a fresh `git archive` tree of its revision into a
temporary directory and runs `python3 bench/run.py --workload W --seed S
--seconds T --trace 0` there, one run at a time, where T is the
`run_seconds` of BENCHMARK.json (at CHANGE).  Pair i runs seed
SEED_BASE + i on both sides, the parent first in even pairs and the
change first in odd ones.  The environment is passed through unchanged;
PYTHONDONTWRITEBYTECODE is recorded because it decides whether a run
writes and reuses bytecode caches in its tree.

Prints one JSON object: {"environment": {...}, "end_to_end": {workload:
{"summary": ..., "rss_at_equal_ops": ..., "runs": [...]}}}, the `end_to_end` block of a
BENCH_<pr>.json file.  Per metric of BENCHMARK.json (at CHANGE) the
summary gives both medians, the quartiles (statistics.quantiles,
method="inclusive") and the parent's IQR, the wins (a strictly better
value of the change within its pair), whether the change's median is
worse than the parent's by more than the metric's bound, and whether a
gain may be claimed (`claim_met`: the change wins at least 9 of every 10
pairs, ties counting for neither side, and its median is better than the
parent's by more than the parent's IQR).  Each run
records its seed, side, attempted and failed ops, every metric, and
`src_lines`, the line count of src/radform/*.py in its tree, so the size
of the package sits next to its timings.  Next to the summary,
"rss_at_equal_ops" fits peak_rss_mb against the ops attempted over all
runs (least squares, in KB per op) and moves the change's median peak RSS
along that slope to the parent's median op count: a worker that keeps
one record per op reads more memory for every extra op it completes.  The
workloads are those of BENCHMARK.json, all by default.  With no
revisions it prints this help.
"""

import argparse
import glob
import json
import os
import statistics
import subprocess
import sys
import tempfile

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def src_lines(tree):
    """The line count of src/radform/*.py under tree, as `wc -l` gives it."""
    total = 0
    for path in glob.glob(os.path.join(tree, "src", "radform", "*.py")):
        with open(path, "rb") as f:
            total += f.read().count(b"\n")
    return total


def run_once(rev, workload, seed, seconds):
    """The result line of one benchmark run on a fresh tree of rev, with the
    tree's src_lines added."""
    with tempfile.TemporaryDirectory(prefix="bench_pairs_") as tree:
        archive = subprocess.run(
            ["git", "-C", ROOT, "archive", rev], check=True, capture_output=True
        ).stdout
        subprocess.run(["tar", "-x", "-C", tree], input=archive, check=True)
        run = subprocess.run(
            [sys.executable, "bench/run.py", "--workload", workload, "--seed", str(seed),
             "--seconds", str(seconds), "--trace", "0"],
            cwd=tree, capture_output=True, text=True,
        )
        lines = src_lines(tree)
    if run.returncode:
        sys.exit(f"bench/run.py on {rev} exited {run.returncode}:\n{run.stderr}")
    return {**json.loads(run.stdout.strip().splitlines()[-1]), "src_lines": lines}


def summarize(runs, spec):
    """Per-metric medians, quartiles, parent IQR, wins, bound verdicts and
    whether a gain may be claimed."""
    summary = {}
    for metric in spec:
        name, lower = metric["name"], metric["better"] == "lower"
        sides = {s: [r[name] for r in runs if r["side"] == s] for s in ("parent", "change")}
        pairs = {}
        for r in runs:
            pairs.setdefault(r["pair"], {})[r["side"]] = r[name]
        wins = sum((p["change"] < p["parent"]) if lower else (p["change"] > p["parent"])
                   for p in pairs.values())
        quart = {s: statistics.quantiles(v, n=4, method="inclusive") if len(v) > 1
                 else [v[0]] * 3 for s, v in sides.items()}
        parent, change = (statistics.median(sides[s]) for s in ("parent", "change"))
        frac = change / parent - 1 if parent else 0.0
        gain = parent - change if lower else change - parent
        iqr = quart["parent"][2] - quart["parent"][0]
        summary[name] = {
            "parent_median": parent,
            "change_median": change,
            "median_change_frac": frac,
            "parent_quartiles": [quart["parent"][0], quart["parent"][2]],
            "change_quartiles": [quart["change"][0], quart["change"][2]],
            "parent_iqr": iqr,
            "change_wins": wins,
            "pairs": len(pairs),
            "bound": metric["bound"],
            "worse_by_more_than_bound": (frac if lower else -frac) > metric["bound"],
            "claim_met": 10 * wins >= 9 * len(pairs) and gain > iqr,
        }
    return summary


def rss_at_equal_ops(runs):
    """The slope of peak_rss_mb against attempted ops over all runs (None
    when every run attempted as many), and the change's median peak RSS
    moved along it to the parent's median op count."""
    ops, rss = [r["attempted"] for r in runs], [r["peak_rss_mb"] for r in runs]
    slope = statistics.linear_regression(ops, rss).slope if len(set(ops)) > 1 else None
    median = {s: {key: statistics.median(r[key] for r in runs if r["side"] == s)
                  for key in ("attempted", "peak_rss_mb")} for s in ("parent", "change")}
    parent, change = median["parent"], median["change"]
    moved = change["peak_rss_mb"] - (slope or 0.0) * (change["attempted"] - parent["attempted"])
    return {
        "slope_kb_per_op": None if slope is None else slope * 1024,
        "parent_median_attempted": parent["attempted"],
        "change_median_attempted": change["attempted"],
        "parent_median_peak_rss_mb": parent["peak_rss_mb"],
        "change_median_peak_rss_mb": change["peak_rss_mb"],
        "change_peak_rss_mb_at_parent_ops": moved,
        "change_frac_at_parent_ops": moved / parent["peak_rss_mb"] - 1,
    }


def main():
    parser = argparse.ArgumentParser(
        description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter
    )
    parser.add_argument("parent", nargs="?", help="git revision of the parent")
    parser.add_argument("change", nargs="?", help="git revision of the change")
    parser.add_argument("--workload", action="append",
                        help="workload of BENCHMARK.json to run (repeatable; default all)")
    parser.add_argument("--pairs", type=int, default=10, help="pairs per workload")
    parser.add_argument("--seed-base", type=int, default=0, help="seed of pair 0")
    args = parser.parse_args()
    if args.parent is None or args.change is None:
        parser.print_help()
        return 0
    spec = json.loads(subprocess.run(
        ["git", "-C", ROOT, "show", f"{args.change}:BENCHMARK.json"],
        check=True, capture_output=True, text=True,
    ).stdout)
    names = [w["name"] for w in spec["workloads"]]
    unknown = set(args.workload or ()) - set(names)
    if unknown:
        parser.error(f"unknown workload(s) {sorted(unknown)}; BENCHMARK.json has {names}")
    result = {"environment": {"PYTHONDONTWRITEBYTECODE": os.environ.get("PYTHONDONTWRITEBYTECODE")},
              "end_to_end": {}}
    for workload in args.workload or names:
        runs = []
        for i in range(args.pairs):
            seed = args.seed_base + i
            order = ("parent", "change") if i % 2 == 0 else ("change", "parent")
            for side in order:
                rev = args.parent if side == "parent" else args.change
                line = run_once(rev, workload, seed, spec["run_seconds"])
                runs.append({"pair": i, "seed": seed, "side": side,
                             "attempted": line["attempted"], "failed": line["failed"],
                             "correct": line["correct"], "src_lines": line["src_lines"],
                             **{m["name"]: line["metrics"][m["name"]]["value"]
                                for m in spec["end_to_end"]}})
                print(f"{workload} pair {i} {side}: attempted {line['attempted']}, "
                      f"failed {line['failed']}", file=sys.stderr, flush=True)
        result["end_to_end"][workload] = {"summary": summarize(runs, spec["end_to_end"]),
                                          "rss_at_equal_ops": rss_at_equal_ops(runs),
                                          "runs": runs}
    print(json.dumps(result, indent=1))
    return 0


if __name__ == "__main__":
    sys.exit(main())
