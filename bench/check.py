"""Independent answer checks, run by run.py after the timed region.

Three sources, none of them the program under test: answers known by
construction (gen.py), golden files written out by hand (expected/), and
sympy, which re-expands every printed sigma-form and re-verifies every
printed polyformula on its own polynomial arithmetic.
"""

from __future__ import annotations

import functools
import itertools
import math
import os
import re
from math import prod

EXPECTED_DIR = os.path.join(os.path.dirname(os.path.abspath(__file__)), "expected")
_SAFE = re.compile(r"[\sxsfw0-9+\-*/^()]*")
_UNITY = re.compile(r"w\((\d+)\)")


@functools.cache
def golden(name: str) -> str:
    with open(os.path.join(EXPECTED_DIR, name)) as handle:
        return handle.read()


@functools.cache
def _ring(n: int, order: int):
    """QQ[W, x1..xn] in lex order with W first, so reducing modulo the
    cyclotomic polynomial of W gives a normal form."""
    import sympy

    names = ["W"] + [f"x{i}" for i in range(1, n + 1)]
    ring, w, *xs = sympy.ring(",".join(names), sympy.QQ, sympy.lex)
    coeffs = sympy.Poly(sympy.cyclotomic_poly(order, sympy.Symbol("W"))).all_coeffs()
    phi = sum((ring(c) * w ** i for i, c in enumerate(reversed(coeffs))), ring.zero)
    elementary = [
        sum((prod(c) for c in itertools.combinations(xs, i)), ring.zero)
        for i in range(1, n + 1)
    ]
    return ring, w, xs, elementary, phi


def _evaluate(text, ring, names, order):
    """Value of a radform expression in `ring`; names maps variable names to
    ring elements and w(q) becomes W^(order/q)."""
    import sympy

    if not _SAFE.fullmatch(text):
        raise ValueError(f"unexpected characters in {text!r}")
    text = _UNITY.sub(lambda m: f"(W**{order // int(m.group(1))})", text)
    symbols = {name: sympy.Symbol(name) for name in names}
    symbols["W"] = sympy.Symbol("W")
    expr = sympy.sympify(text.replace("^", "**"), locals=symbols)
    poly = sympy.Poly(expr, *symbols.values())
    gens = list(names.values()) + [ring.gens[0]]
    total = ring.zero
    for monom, coeff in poly.terms():
        term = ring(coeff)
        for g, e in zip(gens, monom):
            if e:
                term *= g ** e
        total += term
    return total


def symmetrize_holds(expr: str, output: str) -> bool:
    """The printed sigma-form, with e_i put back for s_i, equals expr."""
    n = max(int(i) for i in re.findall(r"x(\d+)", expr))
    ring, _, xs, elementary, _ = _ring(n, 1)
    lhs = _evaluate(expr, ring, {f"x{i + 1}": x for i, x in enumerate(xs)}, 1)
    sigmas = {f"s{i + 1}": e for i, e in enumerate(elementary)}
    return _evaluate(output.strip(), ring, sigmas, 1) == lhs


@functools.cache
def discriminant_holds(output: str) -> bool:
    """The printed sigma-form expands to prod_(i<j) (x_i - x_j)^2 at n = 5."""
    ring, _, xs, elementary, _ = _ring(5, 1)
    square = prod(xs[i] - xs[j] for i in range(5) for j in range(i + 1, 5)) ** 2
    sigmas = {f"s{i + 1}": e for i, e in enumerate(elementary)}
    return _evaluate(output.strip(), ring, sigmas, 1) == square


@functools.cache
def polyformula_holds(document: str) -> bool:
    """Every identity of a printed polyformula holds: witness_j^k_j equals
    p_(j-1) at sigma = e(x) and earlier witnesses, and p_s equals x_1."""
    lines = [line.strip() for line in document.splitlines()]
    lines = [line for line in lines if line and not line.startswith("#")]
    head = re.fullmatch(r"polyformula n=(\d+) s=(\d+)", lines[0])
    if not head:
        return False
    n, s = int(head.group(1)), int(head.group(2))
    fields = dict(line.split(" = ", 1) for line in lines[1:] if " = " in line)
    ks = [int(k) for k in lines[1].split()[1:]] if s else []
    order = math.lcm(1, *(int(q) for q in _UNITY.findall(document)))
    ring, w, xs, elementary, phi = _ring(n, order)
    x_names = {f"x{i + 1}": x for i, x in enumerate(xs)}
    names = {f"s{i + 1}": e for i, e in enumerate(elementary)}
    witnesses = [_evaluate(fields[f"witness {j}"], ring, x_names, order)
                 for j in range(1, s + 1)]

    def p(j):
        scope = dict(names)
        scope.update({f"f{t}": witnesses[t - 1] for t in range(1, j + 1)})
        return _evaluate(fields[f"p {j}"], ring, scope, order)

    claims = [(witnesses[j - 1] ** ks[j - 1], p(j - 1)) for j in range(1, s + 1)]
    claims.append((xs[0], p(s)))
    return all((lhs - rhs).rem(phi) == 0 for lhs, rhs in claims)


def _holds(kind, args, value, text) -> bool:
    if kind in ("value", "code"):
        return value == args[0]
    if kind == "stdout":
        return text == golden(args[0])
    if kind == "stdout_text":
        return text == args[0]
    if kind == "last_line":
        return bool(text) and text.rstrip("\n").splitlines()[-1] == args[0]
    if kind == "sympy_symmetrize":
        return symmetrize_holds(args[0], text)
    if kind == "sympy_polyformula":
        return polyformula_holds(text)
    if kind == "sympy_discriminant":
        return discriminant_holds(text)
    raise ValueError(f"unknown check {kind!r}")


def failure(op: dict, outcome: dict) -> str | None:
    """None when the outcome meets every expectation of op, else why not."""
    value, text = outcome.get("value"), outcome.get("text", "")
    for check in op["expect"]:
        kind, args = check[0], check[1:]
        try:
            ok = _holds(kind, args, value, text)
        except Exception:  # output too malformed to check counts as wrong
            ok = False
        if not ok:
            detail = outcome.get("error") or repr(value)
            return f"{op['kind']}: {kind} {args[:1]} not met (got {detail})"
    return None
