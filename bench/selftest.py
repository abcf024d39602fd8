"""Self-test of the benchmark's answer check and of its metric lists.

    python3 bench/selftest.py        (from the repository root)

Runs a few real operations of every workload, confirms that their true
expected answers all pass, then plants one wrong expected answer per
answer source (known by construction, golden file, sympy) and confirms
that each one is counted as failed, so failed_frac rises by exactly one
op per plant.  Finally checks that BENCHMARK.json and predictions.json
name exactly the metrics run.py prints.  Exits 0 when all of this holds.
"""

from __future__ import annotations

import json
import os
import sys

sys.path.insert(0, os.path.abspath("src"))
os.environ["PYTHONPATH"] = os.pathsep.join(
    filter(None, [os.path.abspath("src"), os.environ.get("PYTHONPATH")])
)

import check  # noqa: E402
import gen  # noqa: E402
import run  # noqa: E402
import worker  # noqa: E402

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))


def _pick(ops, count, accept):
    return [op for op in ops if accept(op)][:count]


def _cases(workdir):
    """(op, outcome) pairs from real runs of each workload's runner."""
    diagnose = worker.Diagnose(0, workdir)
    tower = worker.Tower(0, workdir)
    cli = worker.Cli(0, workdir)
    ops = _pick(diagnose.make_pass(0), 4, lambda op: op["kind"] != "flagship")
    tower_ops = tower.make_pass(0)
    ops += _pick(tower_ops, 2, lambda op: op["kind"] == "inverse")
    ops += _pick(tower_ops, 1, lambda op: op["kind"] == "pipeline")
    cli_ops = cli.make_pass(0)
    ops += _pick(cli_ops, 1, lambda op: op["argv"][0] == "verify")
    ops += _pick(cli_ops, 1, lambda op: op["argv"][0] == "symmetrize")
    runner = {"verify": cli, "symmetrize": cli, "inverse": tower, "pipeline": tower}
    return [(op, runner.get(op["kind"], diagnose).run(op)) for op in ops]


def _plant(op):
    """A copy of op whose first non-code expectation is wrong."""
    planted = dict(op, expect=list(op["expect"]))
    for i, (kind, *args) in enumerate(planted["expect"]):
        if kind == "value":
            planted["expect"][i] = ("value", f"not {args[0]}")
        elif kind == "stdout":
            other = "verify_degree3_poly.out" if args[0] != "verify_degree3_poly.out" \
                else "verify_degree2_poly.out"
            planted["expect"][i] = ("stdout", other)
        elif kind == "sympy_symmetrize":
            planted["expect"][i] = ("sympy_symmetrize", args[0] + " + x1^2 + x2^2")
        else:
            continue
        return planted, kind
    raise AssertionError(f"nothing to plant in {op['kind']}")


def main() -> int:
    workdir = os.path.join(".bench_work", "selftest")
    os.makedirs(workdir, exist_ok=True)
    cases = _cases(workdir)
    problems = []
    for op, outcome in cases:
        reason = check.failure(op, outcome)
        if reason:
            problems.append(f"true answer rejected: {reason}")
    sources = {}
    for op, outcome in cases:
        planted, kind = _plant(op)
        caught = check.failure(planted, outcome) is not None
        sources.setdefault(kind, []).append(caught)
        if not caught:
            problems.append(f"planted wrong {kind} answer on {op['kind']} not counted")
    attempted = 2 * len(cases)
    failed = sum(sum(caught) for caught in sources.values())
    print(f"planted {len(cases)} wrong answers among {attempted} ops: "
          f"failed_frac = {failed}/{attempted} = {failed / attempted:.3f}")
    for kind in ("value", "stdout", "sympy_symmetrize"):
        if not sources.get(kind):
            problems.append(f"no planted answer of source {kind}")

    with open("BENCHMARK.json") as handle:
        spec = json.load(handle)
    e2e = [(m["name"], m["unit"]) for m in spec["end_to_end"]]
    layer = {m["name"]: m["unit"] for m in spec["per_layer"]}
    if e2e != list(run.END_TO_END):
        problems.append("BENCHMARK.json end_to_end differs from run.END_TO_END")
    if layer != run.per_layer_units():
        problems.append("BENCHMARK.json per_layer differs from run.per_layer_units()")
    with open(os.path.join(BENCH_DIR, "predictions.json")) as handle:
        predicted = {name for entry in json.load(handle)["per_layer"]
                     for name in entry["metrics"]}
    if predicted != set(layer):
        problems.append(f"predictions.json metrics differ: {sorted(predicted ^ set(layer))}")
    if sorted(w["name"] for w in spec["workloads"]) != sorted(gen.PASSES):
        problems.append("BENCHMARK.json workloads differ from gen.PASSES")

    for problem in problems:
        print("PROBLEM", problem)
    print("selftest", "failed" if problems else "passed")
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
