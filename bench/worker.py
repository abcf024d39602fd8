"""The process that does the work: set-up, the timed loop, the traced replay.

    python3 bench/worker.py WORKLOAD SEED SECONDS TRACE SETUP_ONLY WORKDIR

run.py starts it from the repository root.  It prints "ready" when set-up
(import, input generation, cache warm-up) is done and, unless SETUP_ONLY
is 1, runs whole passes of the workload in a closed loop with one client
until SECONDS of wall time have passed.  With TRACE 1 it then replays the
first pass under the external tracer.  The last line it prints is one
JSON object with the raw outcomes; judging them is run.py's job, so no
expected answer and no checking library ever enters this process.
"""

from __future__ import annotations

import json
import os
import resource
import subprocess
import sys
import time

import gen
import tracer as tracing

CLI_TIMEOUT_S = 120


def _raised(err: BaseException) -> dict:
    return {"value": f"raised:{type(err).__name__}", "error": str(err)[:200]}


class Diagnose:
    """run_ruffini on document text parsed with formula.parse."""

    def __init__(self, seed, workdir):
        from radform import corpus, formula, multipoly, obstruction, permchar

        self.corpus, self.formula = corpus, formula
        self.multipoly, self.obstruction = multipoly, obstruction
        self.seed = seed
        self.texts = {
            name: formula.serialize(candidate)
            for name, candidate in corpus.adversarial_candidates()
        }
        # fills permchar's cached perfectness oracle, so set-up pays for it
        permchar.verify_hom_trivial(5, 2)

    def make_pass(self, index):
        return gen.diagnose_pass(self.seed, index)

    def _refute(self, text):
        report = self.obstruction.run_ruffini(self.formula.parse(text))
        return {"value": report.verdict}

    def run(self, op):
        if op["kind"] == "chain":
            return self._refute(op["text"])
        if op["kind"] == "adversarial":
            return self._refute(self.texts[op["name"]])
        # flagship: rebuilt every time; corpus.discriminant_candidate() is
        # cached and would time a dictionary lookup after the first call
        mp = self.multipoly
        delta = self.corpus.vandermonde(5)
        p0 = mp.symmetrize(delta ** 2)
        p1 = (mp.MPoly.variable(6, 1) + mp.MPoly.variable(6, 6)) / 2
        candidate = self.formula.PolyRadicalFormula(5, 1, [2], [p0.poly, p1], [delta])
        report = self.obstruction.run_ruffini(candidate)
        return {"value": report.verdict, "text": str(p0)}

    def peak_rss_mb(self):
        return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024


class Tower:
    """Tower inverses, nonpower checks, annihilation and the witness pipeline."""

    def __init__(self, seed, workdir):
        from radform import formula, multipoly, resolvent, tower

        self.formula, self.resolvent, self.tower = formula, resolvent, tower
        self.MPoly = multipoly.MPoly
        self.seed = seed
        self.specs = {}
        for name, (n, k, rho, _) in gen.TOWERS.items():
            spec = tower.TowerSpec(n)
            poly = self.MPoly(n, dict(rho))
            spec.add_level(k, spec.from_sigma_poly(poly), tower.ATTESTED_ASSERTED)
            self.specs[name] = spec
        self.fixtures = {}
        for path in gen.TOWER_FIXTURES:
            with open(path) as handle:
                self.fixtures[path] = handle.read()

    def make_pass(self, index):
        ops = gen.tower_pass(self.seed, index)
        for op in ops:
            if op["kind"] == "inverse":
                spec = self.specs[op["tower"]]
                n = spec.n
                element = spec.zero(1)
                for m, coeff in enumerate(op["coords"]):
                    lifted = spec.lift(spec.from_sigma_poly(self.MPoly(n, coeff)), 1)
                    element = element + lifted * spec.generator(1) ** m
                op["element"] = element
            elif op["kind"] == "annihilation":
                n = self.specs[op["tower"]].n
                op["polys"] = [self.MPoly(n, c) for c in op["coeffs"]]
        return ops

    def run(self, op):
        kind = op["kind"]
        if kind == "inverse":
            e = op["element"]
            try:
                inverse = e.inverse()
            except self.tower.AttestationError as err:
                return _raised(err)
            ok = e * inverse == e.spec.one(1)
            return {"value": "inverse-ok" if ok else "inverse-wrong"}
        if kind == "nonpower":
            return {"value": self.tower.nonpower_check(self.specs[op["tower"]], 1).status}
        if kind == "annihilation":
            spec = self.specs[op["tower"]]
            report = self.tower.check_annihilation(spec, 1, op["polys"])
            return {"value": report.annihilates}
        document = self.formula.parse(self.fixtures[op["path"]])
        witnesses, _ = self.resolvent.derive_witnesses(document)
        report = self.resolvent.abel_polynomialize(document, witnesses)
        converted = self.formula.to_poly_formula(report.final, report.witnesses)
        verdict = self.formula.verify_poly_formula(converted)
        return {"value": verdict.all_pass, "text": self.formula.serialize(converted)}

    def peak_rss_mb(self):
        return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024


class Cli:
    """One fresh `python -m radform.cli` process per op, one at a time."""

    def __init__(self, seed, workdir):
        self.seed, self.workdir = seed, workdir
        self.shim = os.path.join(os.path.dirname(os.path.abspath(__file__)), "cli_shim.py")
        self.summaries = []
        # one throwaway child settles bytecode caches; permchar's oracle
        # lives in the child process, so every timed child starts cold
        self._spawn([sys.executable, "-m", "radform.cli", "builtin", "degree2"])

    def make_pass(self, index):
        ops = gen.cli_pass(self.seed, index, self.workdir)
        for op in ops:
            if op["document"] is not None:
                with open(op["argv"][1], "w") as handle:
                    handle.write(op["document"])
        return ops

    def _spawn(self, command, env=None):
        # run.py put src/ on PYTHONPATH, which the children inherit
        done = subprocess.run(
            command, capture_output=True, text=True, env=env, timeout=CLI_TIMEOUT_S
        )
        return {"value": done.returncode, "text": done.stdout,
                "error": done.stderr.strip()[-200:]}

    def run(self, op):
        return self._spawn([sys.executable, "-m", "radform.cli", *op["argv"]])

    def run_traced(self, op, index):
        summary = os.path.join(self.workdir, f"shim-{index}.json")
        env = dict(os.environ, BENCH_SPAWN_T=repr(time.time()))
        outcome = self._spawn([sys.executable, self.shim, summary, *op["argv"]], env)
        with open(summary) as handle:
            self.summaries.append(json.load(handle))
        return outcome

    def peak_rss_mb(self):
        return resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss / 1024


WORKLOADS = {"cli": Cli, "diagnose": Diagnose, "tower": Tower}


def _run_pass(ops, records, pass_index, run):
    """Run ops in order with run(op, index); returns the pass's wall time."""
    start = time.perf_counter()
    for i, op in enumerate(ops):
        t0 = time.perf_counter()
        try:
            outcome = run(op, i)
        except Exception as err:  # the loop must go on; run.py counts it failed
            outcome = _raised(err)
        records.append([pass_index, i, time.perf_counter() - t0, outcome])
    return time.perf_counter() - start


def main(argv):
    workload, seed, seconds, trace, setup_only, workdir = argv
    seed, seconds = int(seed), float(seconds)
    runner = WORKLOADS[workload](seed, workdir)
    ops = runner.make_pass(0)
    print("ready", flush=True)
    if setup_only == "1":
        return 0
    records, pass_walls = [], []
    first = ops

    def untraced(op, _index):
        return runner.run(op)

    while True:
        pass_walls.append(_run_pass(ops, records, len(pass_walls), untraced))
        if sum(pass_walls) >= seconds:
            break
        ops = runner.make_pass(len(pass_walls))
    result = {
        "records": records,
        "pass_walls": pass_walls,
        "peak_rss_mb": runner.peak_rss_mb(),
        "trace": None,
    }
    if trace == "1":
        traced = []
        if workload == "cli":
            wall = _run_pass(first, traced, -1, runner.run_traced)
            summary = tracing.merge(runner.summaries)
        else:
            t = tracing.Tracer()
            t.install()
            try:
                def run(op, _index):
                    with t.op(op["kind"]):
                        return runner.run(op)
                wall = _run_pass(first, traced, -1, run)
            finally:
                t.uninstall()
            t.write_spans(os.path.join(workdir, "spans.jsonl"))
            summary = t.summary()
        records.extend(traced)
        result["trace"] = {"wall_s": wall, "summary": summary}
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
