"""Command-line front end: verify, diagnose, and transform formula documents.

Every subcommand reads DSL documents or inline expressions, runs the
corresponding library operation, and prints a plain-text report with one
record per line in a stable order, so outputs can be diffed against
golden files.  Exit codes: 0 when every check passes, 1 when a
verification or precondition fails, 2 for unreadable or unparseable
input.
"""

from __future__ import annotations

import argparse
import re
import sys

from radform.cyclotomic import ORDER_CAP, OrderCapError, root_of_unity
from radform.dsl import (
    DslError,
    PolyContext,
    degree_bound,
    max_name_index,
    parse_expression,
    read_int,
)
from radform.formula import (
    _NAMES,
    FormalRadicalFormula,
    PolyRadicalFormula,
    SolvabilityScheme,
    builtin,
    parse,
    serialize,
    to_poly_formula,
    verify_poly_formula,
)
from radform.multipoly import symmetrize
from radform.obstruction import run_ruffini
from radform.permchar import Perm, character_of
from radform.resolvent import abel_polynomialize, derive_witnesses
from radform.tower import ATTESTED_UNKNOWN, AttestationError, nonpower_check, witness_check

DEFAULT_MAX_DEGREE = 24


def _emit(args: argparse.Namespace, text: str):
    if args.output:
        with open(args.output, "w") as handle:
            handle.write(text if text.endswith("\n") else text + "\n")
    else:
        sys.stdout.write(text if text.endswith("\n") else text + "\n")


def _fail(message: str, code: int) -> int:
    print(message, file=sys.stderr)
    return code


def _inline_polynomial(args: argparse.Namespace, n: int):
    """(f, None): args.expr as a polynomial in the witness-line variables
    x1..xn; or (None, why) when its syntactic degree bound exceeds the cap,
    which is checked before anything is expanded."""
    ctx = PolyContext(n, _NAMES["polyformula", "witness"], 0, "f")
    bound = degree_bound(args.expr, ctx)
    if bound > args.max_degree:
        return None, (f"degree bound {bound} exceeds the cap {args.max_degree} "
                      "(raise it with --max-degree)")
    return parse_expression(args.expr, ctx), None


def _read_document(path: str):
    with open(path) as handle:
        return parse(handle.read())


def _refuted_level1(document: FormalRadicalFormula) -> str | None:
    """Why the document's level-1 nonpower attestation is false, if it is."""
    spec = document.spec
    if spec.s and spec.attestations[0] != ATTESTED_UNKNOWN:
        result = nonpower_check(spec, 1)
        if result.status == "refuted":
            root = result.root.render()
            return f"level 1: nonpower attestation refuted: p_0 = ({root})^{result.k}"


def cmd_verify(args: argparse.Namespace) -> int:
    document = _read_document(args.input)
    if isinstance(document, SolvabilityScheme):
        _emit(
            args,
            f"scheme n={document.n} s={document.s}: shape accepted; "
            "no witnesses to check at this level",
        )
        return 0
    if isinstance(document, PolyRadicalFormula):
        report = verify_poly_formula(document)
    else:
        if refutation := _refuted_level1(document):
            return _fail(refutation, 1)
        try:
            witnesses, notes = derive_witnesses(document)
        except ValueError as err:
            return _fail(f"witness derivation failed: {err}", 1)
        report = witness_check(document.spec, witnesses, target=document.target)
        if args.verbose:
            for note in notes:
                print(note, file=sys.stderr)
    _emit(args, "\n".join(report.lines()))
    return 0 if report.all_pass else 1


def cmd_obstruct(args: argparse.Namespace) -> int:
    document = _read_document(args.input)
    if not isinstance(document, PolyRadicalFormula):
        return _fail("obstruct needs a polyformula document with witnesses", 2)
    try:
        report = run_ruffini(document)
    except ValueError as err:
        return _fail(str(err), 1)
    _emit(args, "\n".join(report.lines()))
    return 0


def _unit_power(value, q: int) -> str:
    eps = root_of_unity(q, q)
    for m in range(q):
        if value == eps ** m:
            if m == 0:
                return "1"
            if m == 1:
                return f"w({q})"
            return f"w({q})^{m}"
    raise AssertionError("character value is not a q-th root of unity")


def cmd_character(args: argparse.Namespace) -> int:
    q, perms = args.q, args.perms
    if q < 1:
        return _fail(f"q must be a positive integer, got {q}", 2)
    if q > ORDER_CAP:
        return _fail(f"q = {q} exceeds the root-of-unity order cap {ORDER_CAP}", 2)
    n = max(max_name_index(args.expr, "x"), 1)
    for text in perms:
        for digits in re.findall(r"\d+", text):
            n = max(n, read_int(digits))
    f, refusal = _inline_polynomial(args, n)
    if refusal:
        return _fail(refusal, 1)
    lines = []
    for text in perms:
        try:
            alpha = Perm.from_cycles(text, n)
        except ValueError as err:
            return _fail(str(err), 2)
        try:
            value = character_of(f, q, alpha)
        except ValueError as err:
            return _fail(f"character undefined for {text.strip()}: {err}", 1)
        lines.append(f"chi({text.strip()}) = {_unit_power(value, q)}")
    _emit(args, "\n".join(lines))
    return 0


def cmd_symmetrize(args: argparse.Namespace) -> int:
    n = max_name_index(args.expr, "x")
    if n == 0:
        return _fail("expression mentions no x-variables", 2)
    f, refusal = _inline_polynomial(args, n)
    if refusal:
        return _fail(refusal, 1)
    try:
        result = symmetrize(f)
    except ValueError as err:
        return _fail(str(err), 1)
    _emit(args, str(result))
    return 0


def cmd_abelize(args: argparse.Namespace) -> int:
    document = _read_document(args.input)
    if not isinstance(document, FormalRadicalFormula):
        return _fail("abelize needs a towerformula document", 2)
    if refutation := _refuted_level1(document):
        return _fail(refutation, 1)
    try:
        witnesses, notes = derive_witnesses(document)
        report = abel_polynomialize(document, witnesses)
        converted = to_poly_formula(report.final, report.witnesses)
    except (ValueError, AttestationError) as err:
        return _fail(str(err), 1)
    out = [serialize(converted).rstrip("\n"), ""]
    out.extend(f"# {note}" for note in notes)
    out.extend(f"# {line}" for line in report.lines())
    _emit(args, "\n".join(out))
    return 0


def cmd_builtin(args: argparse.Namespace) -> int:
    try:
        document = builtin(args.name)
    except ValueError as err:
        return _fail(str(err), 2)
    _emit(args, serialize(document))
    return 0


def build_parser() -> argparse.ArgumentParser:
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--output", help="write the report here instead of stdout")
    common.add_argument("--max-degree", type=int, default=DEFAULT_MAX_DEGREE,
                        help="safety cap for expression expansion")
    common.add_argument("-v", "--verbose", action="store_true")

    parser = argparse.ArgumentParser(
        prog="radform",
        description="verify, diagnose, and transform radical formula documents",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("verify", parents=[common],
                       help="check every identity of a formula document")
    p.add_argument("input")
    p.set_defaults(run=cmd_verify)

    p = sub.add_parser("obstruct", parents=[common],
                       help="run the degree-5 diagnosis on a polyformula")
    p.add_argument("input")
    p.set_defaults(run=cmd_obstruct)

    p = sub.add_parser("character", parents=[common],
                       help="character values of a polynomial at even permutations")
    p.add_argument("expr")
    p.add_argument("q", type=int)
    p.add_argument("perms", nargs="+")
    p.set_defaults(run=cmd_character)

    p = sub.add_parser("symmetrize", parents=[common],
                       help="rewrite a symmetric polynomial in the s-basis")
    p.add_argument("expr")
    p.set_defaults(run=cmd_symmetrize)

    p = sub.add_parser("abelize", parents=[common],
                       help="rewrite a towerformula to polynomial witnesses")
    p.add_argument("input")
    p.set_defaults(run=cmd_abelize)

    p = sub.add_parser("builtin", parents=[common],
                       help="print a built-in formula document")
    p.add_argument("name")
    p.set_defaults(run=cmd_builtin)

    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.run(args)
    except (DslError, OSError) as err:
        return _fail(str(err), 2)
    except (OverflowError, OrderCapError) as err:
        return _fail(str(err), 1)


if __name__ == "__main__":
    sys.exit(main())
