"""External tracer: wraps radform's layer functions from outside the package.

install() replaces every module binding of each target function (and
every class attribute holding a target method, so aliases such as
__rmul__ = __mul__ are caught too) with a timing wrapper; uninstall()
puts the originals back.  Patching only the defining module would miss
calls made through `from radform.multipoly import substitute` in
formula.py and elsewhere, so every loaded radform module is scanned.

Each call opens a span.  Self time is the span's duration minus the time
covered by its wrapped children.  Hot scalar and polynomial arithmetic is
aggregated per (name, parent name) so memory stays bounded; every other
call is kept as a span (name, start, end, parent) until write_spans().
"""

from __future__ import annotations

import contextlib
import json
import sys
import time
from collections import defaultdict

# (metric name, module, attribute path, hot)
TARGETS = (
    ("cyclotomic.CycScalar.mul", "radform.cyclotomic", "CycScalar.__mul__", True),
    ("cyclotomic.CycScalar.add", "radform.cyclotomic", "CycScalar.__add__", True),
    ("cyclotomic.CycScalar.inv", "radform.cyclotomic", "CycScalar.inv", True),
    ("multipoly.MPoly.mul", "radform.multipoly", "MPoly.__mul__", True),
    ("multipoly.MPoly.add", "radform.multipoly", "MPoly.__add__", True),
    ("multipoly.MPoly.pow", "radform.multipoly", "MPoly.__pow__", True),
    ("multipoly.substitute", "radform.multipoly", "substitute", False),
    ("multipoly.is_even_symmetric", "radform.multipoly", "is_even_symmetric", False),
    ("multipoly.is_symmetric", "radform.multipoly", "is_symmetric", False),
    ("multipoly.kth_root_poly", "radform.multipoly", "kth_root_poly", False),
    ("multipoly.symmetrize", "radform.multipoly", "symmetrize", False),
    ("multipoly.ElemSymBasisExpr.expand", "radform.multipoly",
     "ElemSymBasisExpr.expand", False),
    ("multipoly.elem_sym", "radform.multipoly", "elem_sym", True),
    ("tower.TowerElem.inverse", "radform.tower", "TowerElem.inverse", False),
    ("tower.TowerElem.mul", "radform.tower", "TowerElem.__mul__", True),
    ("tower.check_annihilation", "radform.tower", "check_annihilation", False),
    ("tower.witness_check", "radform.tower", "witness_check", False),
    ("tower.nonpower_check", "radform.tower", "nonpower_check", False),
    ("permchar.close_group", "radform.permchar", "close_group", False),
    ("permchar.commutator_closure", "radform.permchar", "commutator_closure", False),
    ("permchar.verify_hom_trivial", "radform.permchar", "verify_hom_trivial", False),
    ("permchar.character_of", "radform.permchar", "character_of", True),
    ("formula.parse", "radform.formula", "parse", False),
    ("formula.serialize", "radform.formula", "serialize", False),
    ("formula.level_substitution", "radform.formula", "level_substitution", False),
    ("formula.verify_poly_formula", "radform.formula", "verify_poly_formula", False),
    ("formula.factor_radicals", "radform.formula", "factor_radicals", False),
    ("formula.to_poly_formula", "radform.formula", "to_poly_formula", False),
    ("obstruction.run_ruffini", "radform.obstruction", "run_ruffini", False),
    ("obstruction.keeping_symmetry", "radform.obstruction", "keeping_symmetry", False),
    ("resolvent.derive_witnesses", "radform.resolvent", "derive_witnesses", False),
    ("resolvent.abel_polynomialize", "radform.resolvent", "abel_polynomialize", False),
    ("resolvent.build_R", "radform.resolvent", "build_R", False),
    ("dsl.parse_expression", "radform.dsl", "parse_expression", False),
)

# counters read from arguments and results, besides calls and self time
COUNTERS = (
    "cyclotomic.order_gt1",
    "multipoly.MPoly.mul.terms_out",
    "multipoly.coeff_bits.max",
    "multipoly.symmetrize.terms_in",
    "multipoly.symmetrize.partition_terms",
    "tower.attestation_errors",
)


def _coeff_bits(poly) -> int:
    best = 0
    for coeff in poly.terms.values():
        for part in coeff.coeffs:
            best = max(best, part.numerator.bit_length(), part.denominator.bit_length())
    return best


class Tracer:
    def __init__(self):
        self.stack = []  # frames: [name, child_time, span_index or None]
        self.spans = []  # (name, start, end, parent span index or None)
        self.calls = defaultdict(int)
        self.self_s = defaultdict(float)
        self.hot = defaultdict(lambda: [0, 0.0, 0.0])  # (name, parent) -> calls, total, self
        self.counters = dict.fromkeys(COUNTERS, 0)
        self._patched = []  # (owner, attribute, original)
        self._last_error = None
        self.attestation_error = None

    # -- spans -------------------------------------------------------------

    def _enter(self, name, hot):
        parent = self.stack[-1] if self.stack else None
        index = None
        if not hot:
            index = len(self.spans)
            parent_index = next(
                (f[2] for f in reversed(self.stack) if f[2] is not None), None
            )
            self.spans.append([name, 0.0, 0.0, parent_index])
        frame = [name, 0.0, index]
        self.stack.append(frame)
        return frame, parent

    def _leave(self, frame, parent, hot, start, end):
        self.stack.pop()
        duration = end - start
        own = duration - frame[1]
        if parent is not None:
            parent[1] += duration
        name = frame[0]
        self.calls[name] += 1
        self.self_s[name] += own
        if hot:
            entry = self.hot[(name, parent[0] if parent else None)]
            entry[0] += 1
            entry[1] += duration
            entry[2] += own
        else:
            span = self.spans[frame[2]]
            span[1], span[2] = start, end

    @contextlib.contextmanager
    def op(self, kind):
        """Root span around one benchmark operation."""
        frame, parent = self._enter(f"op.{kind}", False)
        start = time.perf_counter()
        try:
            yield
        finally:
            self._leave(frame, parent, False, start, time.perf_counter())

    def _wrap(self, name, fn, hot, observe):
        tracer = self

        def wrapper(*args, **kwargs):
            frame, parent = tracer._enter(name, hot)
            start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            except BaseException as err:
                tracer._leave(frame, parent, hot, start, time.perf_counter())
                tracer._note_error(err)
                raise
            tracer._leave(frame, parent, hot, start, time.perf_counter())
            if observe is not None:
                observe(args, result)
            return result

        return wrapper

    def _note_error(self, err):
        if err is not self._last_error and isinstance(err, self.attestation_error):
            self.counters["tower.attestation_errors"] += 1
        self._last_error = err

    # -- counters read from calls ------------------------------------------

    def _observer(self, name):
        counters = self.counters

        def bits(poly):
            if poly.__class__.__name__ == "MPoly" and poly.terms:
                b = _coeff_bits(poly)
                if b > counters["multipoly.coeff_bits.max"]:
                    counters["multipoly.coeff_bits.max"] = b

        if name == "cyclotomic.CycScalar.mul":
            def observe(args, result):
                if getattr(result, "order", 1) > 1:
                    counters["cyclotomic.order_gt1"] += 1
            return observe
        if name == "multipoly.MPoly.mul":
            def observe(args, result):
                if result is not NotImplemented:
                    counters["multipoly.MPoly.mul.terms_out"] += len(result.terms)
                    bits(result)
            return observe
        if name in ("multipoly.MPoly.pow", "multipoly.substitute",
                    "multipoly.kth_root_poly"):
            return lambda args, result: bits(result)
        if name == "multipoly.symmetrize":
            def observe(args, result):
                terms = args[0].terms
                counters["multipoly.symmetrize.terms_in"] += len(terms)
                counters["multipoly.symmetrize.partition_terms"] += sum(
                    all(e[i] >= e[i + 1] for i in range(len(e) - 1)) for e in terms
                )
                bits(result.poly)
            return observe
        return None

    # -- patching ----------------------------------------------------------

    def install(self):
        from radform.tower import AttestationError

        self.attestation_error = AttestationError
        modules = [m for name, m in list(sys.modules.items())
                   if name == "radform" or name.startswith("radform.")]
        for name, module_name, path, hot in TARGETS:
            owner = sys.modules[module_name]
            *owner_path, attr = path.split(".")
            for part in owner_path:
                owner = getattr(owner, part)
            original = owner.__dict__[attr] if owner_path else getattr(owner, attr)
            wrapper = self._wrap(name, original, hot, self._observer(name))
            if owner_path:
                # a class: replace every attribute bound to the same function
                for key, value in list(vars(owner).items()):
                    if value is original:
                        self._patched.append((owner, key, value))
                        setattr(owner, key, wrapper)
            else:
                for module in modules:
                    for key, value in list(vars(module).items()):
                        if value is original:
                            self._patched.append((module, key, value))
                            setattr(module, key, wrapper)

    def uninstall(self):
        for owner, key, value in reversed(self._patched):
            setattr(owner, key, value)
        self._patched.clear()

    # -- results -----------------------------------------------------------

    def summary(self) -> dict:
        """Calls and self time per target, plus the counters."""
        out = {"calls": {}, "self_s": {}, "counters": dict(self.counters)}
        for name, *_ in TARGETS:
            out["calls"][name] = self.calls.get(name, 0)
            out["self_s"][name] = self.self_s.get(name, 0.0)
        return out

    def write_spans(self, path):
        """One JSON line per span, then one per aggregated hot (name, parent)."""
        with open(path, "w") as handle:
            for name, start, end, parent in self.spans:
                handle.write(json.dumps(
                    {"name": name, "start": start, "end": end, "parent": parent}
                ) + "\n")
            for (name, parent), (calls, total, own) in sorted(
                self.hot.items(), key=lambda item: (item[0][0], str(item[0][1]))
            ):
                handle.write(json.dumps(
                    {"name": name, "parent_name": parent, "calls": calls,
                     "total_s": total, "self_s": own}
                ) + "\n")


def merge(summaries) -> dict:
    """Sum calls, self time and counters over several summaries (coefficient
    bits take the maximum)."""
    out = {"calls": defaultdict(int), "self_s": defaultdict(float),
           "counters": defaultdict(int)}
    for summary in summaries:
        for section in ("calls", "self_s"):
            for name, value in summary[section].items():
                out[section][name] += value
        for name, value in summary["counters"].items():
            if name.endswith(".max"):
                out["counters"][name] = max(out["counters"][name], value)
            else:
                out["counters"][name] += value
    return {key: dict(value) for key, value in out.items()}
