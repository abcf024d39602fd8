"""Formula documents: parsing, serialization, verification, conversions.

Frozen oracles used below, computed by hand before these tests were run:

* quadratic: p0 = s1^2 - 4*s2 is (x1 - x2)^2 under Vieta, and the broken
  variant p1 = (s1 - f1)/2 produces x2, so the final difference is x2 - x1.
* cubic resolvents u = x1 + w*x2 + w^2*x3, v = x1 + w^2*x2 + w*x3 with
  w = exp(2*pi*i/3) give
      p0 = (u^3 - v^3)^2
         = 108*s1^3*s3 - 27*s1^2*s2^2 - 486*s1*s2*s3 + 108*s2^3 + 729*s3^2
  (expanded once on paper via u^3 + v^3 = s1^3 - (9/2)*s1*s2 + (27/2)*s3
  and u*v = s1^2 - 3*s2, then checked modulo small primes).
* at the integer roots (1, 2, -3): sigma = (0, -7, -6).
* splitting a 4th root gives exponents [2, 2] with the middle polynomial
  equal to the inserted radical itself, and the witness chain
  ((x1 - x2)^2, x1 - x2).
"""

import hashlib
import pathlib
import random
import re
from fractions import Fraction
from math import prod

import pytest

from radform import formula as formula_module
from radform.corpus import adversarial_candidates
from radform.cyclotomic import root_of_unity
from radform.dsl import DslError
from radform.formula import (
    FormalRadicalFormula,
    PolyRadicalFormula,
    SolvabilityScheme,
    builtin,
    factor_radicals,
    parse,
    serialize,
    to_poly_formula,
    verify_poly_formula,
    vieta_convert,
)
from radform.multipoly import (
    MPoly,
    elem_sym,
    evaluate,
    permute_vars,
    substitute,
)
from radform.tower import ATTESTED_ASSERTED, ATTESTED_UNKNOWN

QUAD_SCHEME = """
scheme n=2 s=1
k 2
p 0 = a1^2 - 4*a0
p 1 = (z1 - a1)/2
"""

QUAD_TOWER = """
towerformula n=2 s=1
k 2
p 0 = s1^2 - 4*s2
target = (s1 + y1)/2
assert-nonpower 1
"""


def var(nvars, i):
    return MPoly.variable(nvars, i)


class TestParsing:
    def test_scheme_document(self):
        scheme = parse(QUAD_SCHEME)
        assert isinstance(scheme, SolvabilityScheme)
        assert (scheme.n, scheme.s, scheme.ks) == (2, 1, [2])
        assert scheme.ps[0] == var(2, 2) ** 2 - 4 * var(2, 1)
        assert scheme.ps[1] == (var(3, 3) - var(3, 2)) / 2

    def test_polyformula_document(self):
        text = (
            "polyformula n=2 s=1\n"
            "k 2\n"
            "p 0 = s1^2 - 4*s2\n"
            "p 1 = (s1 + f1)/2\n"
            "witness 1 = x1 - x2\n"
        )
        formula = parse(text)
        assert isinstance(formula, PolyRadicalFormula)
        assert formula.witnesses == [var(2, 1) - var(2, 2)]
        assert formula == builtin("degree2")

    def test_tower_document(self):
        formula = parse(QUAD_TOWER)
        assert isinstance(formula, FormalRadicalFormula)
        assert formula.ks == [2]
        assert formula.spec.attestations == [ATTESTED_ASSERTED]
        spec = formula.spec
        want = (spec.lift(spec.from_sigma_poly(var(2, 1)), 1) + spec.generator(1)) * Fraction(1, 2)
        assert formula.target == want

    def test_comments_ignored(self):
        text = QUAD_SCHEME.replace("k 2", "k 2   # one square root\n# noise")
        assert parse(text) == parse(QUAD_SCHEME)

    def test_header_required(self):
        with pytest.raises(DslError, match="header"):
            parse("k 2\np 0 = a0\n")
        with pytest.raises(DslError, match="empty"):
            parse("# nothing here\n")

    def test_k_count_must_match_header(self):
        with pytest.raises(DslError, match="header says s=2"):
            parse("scheme n=2 s=2\nk 2\np 0 = a0\np 1 = z1\np 2 = z2\n")

    def test_composite_exponent_rejected_in_tower(self):
        text = "towerformula n=2 s=1\nk 4\np 0 = s1\ntarget = y1\n"
        with pytest.raises(DslError, match="factor composite"):
            parse(text)

    def test_tower_p_lines_ascend(self):
        text = (
            "towerformula n=2 s=2\nk 2 2\n"
            "p 1 = y1\np 0 = s1\ntarget = y2\n"
        )
        with pytest.raises(DslError, match="ascending order"):
            parse(text)

    def test_radical_scope_grows_with_level(self):
        text = "scheme n=2 s=2\nk 2 2\np 0 = a0\np 1 = z2\np 2 = z1\n"
        with pytest.raises(DslError, match="unknown variable 'z2'") as err:
            parse(text)
        assert err.value.line == 4

    def test_misplaced_lines(self):
        with pytest.raises(DslError, match="target lines belong"):
            parse("scheme n=2 s=0\np 0 = a0\ntarget = a0\n")
        with pytest.raises(DslError, match="witness lines belong"):
            parse("towerformula n=2 s=0\ntarget = s1\nwitness 1 = x1\n")
        with pytest.raises(DslError, match="duplicate definition"):
            parse("scheme n=1 s=0\np 0 = a0\np 0 = a0\n")
        with pytest.raises(DslError, match="missing witness 1"):
            parse("polyformula n=2 s=1\nk 2\np 0 = s1\np 1 = f1\n")

    def test_error_carries_position(self):
        text = "scheme n=2 s=0\np 0 = a0 + $\n"
        with pytest.raises(DslError) as err:
            parse(text)
        assert err.value.line == 2
        assert "column" in str(err.value)


# ---------------------------------------------------------------------------
# the document layer pinned: every refusal's message and position, and the
# bytes that serialize writes back


S1 = "scheme n=2 s=1\n"
P1 = "polyformula n=2 s=1\n"
T1 = "towerformula n=2 s=1\n"

# (document, message without its position suffix, line, column)
BAD_DOCUMENTS = [
    ("", "empty document", None, None),
    ("# nothing here\n", "empty document", None, None),
    ("k 2\np 0 = a0\n", "expected a header like 'polyformula n=2 s=1'", 1, 1),
    ("  scheme n=2\n", "expected a header like 'polyformula n=2 s=1'", 1, 1),
    ("scheme n=0 s=0\np 0 = 1\n", "degree n must be at least 1", 1, None),
    ("towerformula n=0 s=0\ntarget = 1\n", "degree n must be at least 1", 1, None),
    (S1 + "k 2 3\n", "k line lists 2 exponents but the header says s=1", 2, None),
    (T1 + "k 2 2\n", "k line lists 2 exponents but the header says s=1", 2, None),
    (S1 + "k 0\n", "radical exponents must be positive", 2, None),
    (T1 + "k 0\n", "radical exponents must be positive", 2, None),
    (T1 + "k 4\n", "radical degree 4 is not prime; factor composite degrees "
     "before writing a tower document", 2, None),
    ("towerformula n=2 s=2\nk 2 6\n", "radical degree 6 is not prime; factor "
     "composite degrees before writing a tower document", 2, None),
    (S1 + "k 2\nk 2\n", "duplicate k line", 3, None),
    (P1 + "k 2\nk 2\n", "duplicate k line", 3, None),
    (T1 + "k 2\nk 2\n", "duplicate k line", 3, None),
    (S1 + "p 2 = a0\n", "p index 2 exceeds s=1", 2, None),
    (P1 + "p 3 = s1\n", "p index 3 exceeds s=1", 2, None),
    (S1 + "p 0 = a0\np 0 = a1\n", "duplicate definition of p 0", 3, None),
    (P1 + "p 0 = s1\np 0 = s2\n", "duplicate definition of p 0", 3, None),
    (S1 + "witness 1 = x1\n", "witness lines belong to polyformula documents", 2, None),
    (T1 + "witness 1 = x1\n", "witness lines belong to polyformula documents", 2, None),
    (P1 + "witness 0 = x1\n", "witness index must be 1..1", 2, None),
    (P1 + "witness 2 = x1\n", "witness index must be 1..1", 2, None),
    (P1 + "witness 1 = x1\nwitness 1 = x2\n", "duplicate witness 1", 3, None),
    (S1 + "target = a0\n",
     "target lines belong to towerformula documents, not scheme", 2, None),
    (P1 + "target = s1\n",
     "target lines belong to towerformula documents, not polyformula", 2, None),
    (S1 + "assert-nonpower 1\n", "assert-nonpower applies to towerformula documents", 2, None),
    (P1 + "assert-nonpower 1\n", "assert-nonpower applies to towerformula documents", 2, None),
    (S1 + "q 1 = a0\n", "unrecognized line 'q 1 = a0'", 2, None),
    (P1 + "k2\n", "unrecognized line 'k2'", 2, None),
    (T1 + "  frob  \n", "unrecognized line 'frob'", 2, None),
    (S1 + "p 0 = a0\np 1 = z1\n", "missing k line", None, None),
    (P1 + "p 0 = s1\np 1 = f1\nwitness 1 = x1\n", "missing k line", None, None),
    (T1 + "assert-nonpower 7\n", "missing k line", None, None),
    (S1 + "k 2\np 0 = a0\n", "missing definition of p 1", None, None),
    (P1 + "k 2\np 1 = f1\nwitness 1 = x1\n", "missing definition of p 0", None, None),
    (T1 + "k 2\n", "missing definition of p 0", None, None),
    ("towerformula n=2 s=2\nk 2 2\np 0 = s1\n", "missing definition of p 1", None, None),
    (P1 + "k 2\np 0 = s1\np 1 = f1\n", "missing witness 1", None, None),
    ("polyformula n=2 s=2\nk 2 2\np 0 = s1\np 2 = f1\np 1 = f1\nwitness 1 = x1\n",
     "missing witness 2", None, None),
    (T1 + "k 2\np 0 = s1\n", "missing target line", None, None),
    (T1 + "p 0 = s1\n", "the k line must precede p definitions", 2, None),
    ("towerformula n=2 s=0\np 0 = s1\n", "the k line must precede p definitions", 2, None),
    (T1 + "k 2\np 1 = s1\n", "tower documents define p 0..p 0; the final element "
     "is the target line", 3, None),
    ("towerformula n=2 s=2\nk 2 2\np 1 = y1\n",
     "p levels must appear in ascending order; expected p 0", 3, None),
    (T1 + "k 2\np 0 = s1\np 0 = s2\n",
     "p levels must appear in ascending order; expected p 1", 4, None),
    (T1 + "target = s1\n", "all p levels must be defined before the target", 2, None),
    ("towerformula n=2 s=2\nk 2 2\np 0 = s1\ntarget = y1\n",
     "all p levels must be defined before the target", 4, None),
    (T1 + "k 2\np 0 = s1\ntarget = y1\ntarget = y1\n", "duplicate target line", 5, None),
    (T1 + "k 2\np 0 = s1\ntarget = y1\nassert-nonpower 2\n",
     "assert-nonpower level must be 1..1", 5, None),
    (T1 + "assert-nonpower 0\nk 2\np 0 = s1\ntarget = y1\n",
     "assert-nonpower level must be 1..1", 2, None),
    (S1 + "k 2\np 0 = a0\np 1 = z2\n",
     "unknown variable 'z2' in p 1 (expected a0..a1 or z1..z1)", 4, 7),
    (P1 + "k 2\np 0 = x1\n", "unknown variable 'x1' in p 0 (expected s1..s2)", 3, 7),
    (P1 + "k 2\np 0 = s1\np 1 = f1\nwitness 1 = s1\n",
     "unknown variable 's1' in witness 1 (expected x1..x2)", 5, 13),
    (T1 + "k 2\np 0 = y1\n", "unknown variable 'y1' (expected s1..s2)", 3, 7),
    (T1 + "k 2\np 0 = s3\n", "unknown variable 's3' (expected s1..s2)", 3, 7),
    (T1 + "k 2\np 0 = s1\ntarget = y2\n",
     "unknown variable 'y2' (expected s1..s2 or y1..y1)", 4, 10),
    (S1 + "k 2\np 0 = a00\n", "unknown variable 'a00' in p 0 (expected a0..a1)", 3, 7),
    (S1 + "k 2\np 0 = a0\np 1 = z01\n",
     "unknown variable 'z01' in p 1 (expected a0..a1 or z1..z1)", 4, 7),
    (P1 + "k 2\np 0 = s01\n", "unknown variable 's01' in p 0 (expected s1..s2)", 3, 7),
    (P1 + "k 2\np 0 = s1\np 1 = f1\nwitness 1 = x01\n",
     "unknown variable 'x01' in witness 1 (expected x1..x2)", 5, 13),
    (T1 + "k 2\np 0 = s01\n", "unknown variable 's01' (expected s1..s2)", 3, 7),
    (T1 + "k 2\np 0 = s1\ntarget = y01\n",
     "unknown variable 'y01' (expected s1..s2 or y1..y1)", 4, 10),
    (T1 + "k 2\np 0 = s1\ntarget = s1/y1\n",
     "divisors must be radical-free (no y-variables)", 4, 12),
    (S1 + "k 2\n   p 0 = a0 + $\n", "unexpected character '$'", 3, 12),
    (P1 + "k 2\np 0 = s1^2 - 4*)s2\n", "expected a value, found ')'", 3, 16),
    (P1 + "k 2\np 0 = s1 / 0\n", "division by zero", 3, 10),
    (P1 + "k 2\np 0 = s1 / s2\n",
     "division by a non-constant polynomial is not allowed here", 3, 10),
    (P1 + "k 2\np 0 = s1^x\n", "exponent must be a nonnegative integer", 3, 10),
    (P1 + "k 2\np 0 = w(0)\n", "root-of-unity order must be positive", 3, 9),
    (P1 + "k 2\np 0 = w(s1)\n", "w(...) takes an integer order", 3, 9),
    (P1 + "k 2\np 0 = w(101)\n", "root-of-unity order 101 exceeds the cap 100", 3, 9),
    (P1 + "k 2\np 0 = (s1\n", "expected ')', found 'end of line'", 3, 10),
    (P1 + "k 2\np 0 =\n", "expected a value, found 'end of line'", 3, 6),
    (P1 + "k 2\np 0 = s1 s2\n", "unexpected 's2'", 3, 10),
]


@pytest.mark.parametrize("text, message, line, col", BAD_DOCUMENTS)
def test_bad_document_refusal_is_pinned(text, message, line, col):
    with pytest.raises(DslError) as err:
        parse(text)
    assert (str(err.value), err.value.line, err.value.col) == (
        str(DslError(message, line, col)), line, col
    )


@pytest.mark.parametrize("text", [
    S1 + "k 2\np 0 = a{}\n", P1 + "k 2\np 0 = s{}\n", T1 + "k 2\np 0 = s{}\n",
], ids=["scheme", "polyformula", "towerformula"])
def test_a_name_index_past_the_digit_limit_is_refused_as_an_integer(text):
    with pytest.raises(DslError) as err:
        parse(text.format("1" * 4301))
    assert (str(err.value), err.value.line, err.value.col) == (
        "integer of 4301 digits exceeds the limit of 4300 digits (line 3, column 7)", 3, 7)


def test_every_line_kind_has_two_groups():
    # parse finds a matched row from the index of its last group, 2 * (row + 1)
    assert [re.compile(fields).groups for _, fields, *_ in formula_module._LINE_KINDS] == [
        2] * len(formula_module._LINE_KINDS)


FIXTURES = pathlib.Path(__file__).resolve().parent.parent / "fixtures"

# serialize(parse(text)) of the fixtures that do not already read back as
# themselves: a tower target is written as a sum over its radical's powers
REWRITTEN_FIXTURES = {
    "degree2.tower": (
        "towerformula n=2 s=1\n"
        "k 2\n"
        "p 0 = s1^2 - 4*s2\n"
        "target = (s1)/(2) + ((1)/(2))*y1\n"
        "assert-nonpower 1\n"
    ),
    "degree3.tower": (
        "towerformula n=3 s=3\n"
        "k 2 3 3\n"
        "p 0 = 108*s1^3*s3 - 27*s1^2*s2^2 - 486*s1*s2*s3 + 108*s2^3 + 729*s3^2\n"
        "p 1 = (2*s1^3 - 9*s1*s2 + 27*s3)/(2) + ((1)/(2))*y1\n"
        "p 2 = (2*s1^3 - 9*s1*s2 + 27*s3)/(2) + ((-1)/(2))*y1\n"
        "target = (s1)/(3) + ((1)/(3))*y2 + ((1)/(3))*y3\n"
        "assert-nonpower 1\n"
        "assert-nonpower 2\n"
        "assert-nonpower 3\n"
    ),
}


@pytest.mark.parametrize("name", [
    "degree2.poly", "degree2.tower", "degree2_broken.poly",
    "degree3.poly", "degree3.tower", "degree5_candidate.poly",
])
def test_fixture_serialization_is_pinned(name):
    text = (FIXTURES / name).read_text()
    assert serialize(parse(text)) == REWRITTEN_FIXTURES.get(name, text)


# sha256 of serialize(parse(serialize(candidate))) for each corpus candidate
CANDIDATE_DIGESTS = {
    "no-radicals": "3633e269f88671bd4a2a8ad13a3b6a0251262982565268661ea3571400ba3976",
    "radical-free-mix": "41e24450d4dadc8bd03197853403ffccb6524f3b318233aa6f8aa96a59412d4c",
    "sum-root": "6c94370bf564ae23574ef2b31acb8ef716947fe0f53ec22709d8f01db89ca09e",
    "product-root": "50a3903d69fca26865b26cad2ac00b4a347ff80f7e60bb6d416127e7e8ecbcef",
    "broken-first-radicand": "5570bc23ef12b5082701bf89b64c663ae2fa69b3d82fa005acac554f44fc1813",
    "quadratic-formula-lookalike":
        "6bdbfaa3383c3d885a38107084c69ada0cfd7f865903ffed3c78ba3a78a110eb",
    "two-level-tower": "bc6d2bd437dc0ce11ff3ef43397cab10b192b2f3fbd24f869aa17e0ca330eff7",
    "broken-second-level": "504e4b14bb4d18c2c453b3f0b7c4aef3258e41cf0560d42e759450c1bf1a9133",
    "fourth-root": "68bf6df842ae02eeef20900f0bdcddb7593c1be994a7e0007f3cc0f9745150c0",
    "zero-witness": "46e9b09f416b80976a6a495b138222b5dcc0d8a05ae2fd846150bd48cd8392fb",
    "deep-chain": "200045bcd4bfabe12711b0253971329e6558dbc4c56638f0f51ac54999c5bbca",
    "cube-chain": "1d708f0143d6a19af27ecc771f51862da7015a87068b698aafc6200a86f7118f",
}


def test_corpus_serialization_is_pinned():
    candidates = adversarial_candidates()
    assert [name for name, _ in candidates] == list(CANDIDATE_DIGESTS)
    for name, candidate in candidates:
        text = serialize(candidate)
        again = serialize(parse(text))
        assert again == text, name
        assert hashlib.sha256(again.encode()).hexdigest() == CANDIDATE_DIGESTS[name], name


class TestSerialization:
    def test_builtin_round_trips(self):
        for name in ("degree2", "degree3"):
            formula = builtin(name)
            assert parse(serialize(formula)) == formula

    def test_scheme_round_trip(self):
        scheme = parse(QUAD_SCHEME)
        assert parse(serialize(scheme)) == scheme

    def test_tower_round_trip_keeps_attestation(self):
        formula = parse(QUAD_TOWER)
        again = parse(serialize(formula))
        assert again == formula
        assert again.spec.attestations == [ATTESTED_ASSERTED]
        unattested = parse(QUAD_TOWER.replace("assert-nonpower 1\n", ""))
        assert unattested.spec.attestations == [ATTESTED_UNKNOWN]
        assert unattested != formula

    def test_formulas_differing_in_one_witness_are_unequal(self):
        formula = builtin("degree2")
        same = PolyRadicalFormula(2, 1, [2], list(formula.ps), list(formula.witnesses))
        other = PolyRadicalFormula(2, 1, [2], list(formula.ps), [-formula.witnesses[0]])
        assert same == formula
        assert other != formula and formula != other

    def test_random_formulas_round_trip(self):
        rng = random.Random(11)
        w3 = root_of_unity(3, 3)
        w4 = root_of_unity(4, 4)

        def random_poly(nvars):
            out = MPoly.zero(nvars)
            for _ in range(rng.randrange(1, 5)):
                coeff = rng.choice(
                    [1, -1, 3, Fraction(1, 2), Fraction(-2, 3), w3, w4, w3 + 1]
                )
                term = MPoly.constant(nvars, coeff)
                for i in range(1, nvars + 1):
                    term = term * var(nvars, i) ** rng.randrange(0, 3)
                out = out + term
            return out

        for _ in range(20):
            n = rng.randrange(1, 4)
            s = rng.randrange(0, 3)
            ks = [rng.choice([2, 3, 4]) for _ in range(s)]
            ps = [random_poly(n + j) for j in range(s + 1)]
            witnesses = [random_poly(n) for _ in range(s)]
            formula = PolyRadicalFormula(n, s, ks, ps, witnesses)
            assert parse(serialize(formula)) == formula


class TestVerification:
    def test_quadratic_identities_hold(self):
        report = verify_poly_formula(builtin("degree2"))
        assert report.all_pass
        assert [r.name for r in report.records] == [
            "witness_1^2 = p_0(sigma, witnesses)",
            "x_1 = p_s(sigma, witnesses)",
        ]

    def test_cubic_identities_hold(self):
        formula = builtin("degree3")
        s = [var(3, i) for i in (1, 2, 3)]
        want_p0 = (
            108 * s[0] ** 3 * s[2]
            - 27 * s[0] ** 2 * s[1] ** 2
            - 486 * s[0] * s[1] * s[2]
            + 108 * s[1] ** 3
            + 729 * s[2] ** 2
        )
        assert formula.ps[0] == want_p0
        report = verify_poly_formula(formula)
        assert report.all_pass
        assert len(report.records) == 4

    def test_sign_slip_is_caught(self):
        broken = builtin("degree2")
        broken.ps[1] = (var(3, 1) - var(3, 3)) / 2
        report = verify_poly_formula(broken)
        assert [r.ok for r in report.records] == [True, False]
        failure = report.first_failure()
        assert failure.name == "x_1 = p_s(sigma, witnesses)"
        assert failure.detail == "difference has leading term -1*x1"
        assert "FAIL" in str(report)

    def test_degenerate_formula_without_radicals(self):
        formula = PolyRadicalFormula(1, 0, [], [var(1, 1)], [])
        report = verify_poly_formula(formula)
        assert report.all_pass
        assert len(report.records) == 1


class TestVietaConversion:
    def test_quadratic_scheme_becomes_discriminant_tower(self):
        converted = vieta_convert(parse(QUAD_SCHEME))
        expected = parse(QUAD_TOWER.replace("assert-nonpower 1\n", ""))
        assert converted == expected

    def test_linear_scheme(self):
        scheme = parse("scheme n=1 s=0\np 0 = -a0\n")
        converted = vieta_convert(scheme)
        assert converted == parse("towerformula n=1 s=0\ntarget = s1\n")

    def test_composite_exponent_refused(self):
        scheme = parse("scheme n=2 s=1\nk 4\np 0 = a0\np 1 = z1\n")
        with pytest.raises(ValueError, match="not prime"):
            vieta_convert(scheme)


def _expand_composite_by_substitution(n, s, ks, ps, witnesses):
    """The renaming of prime normalization written as a substitution of
    variable images: an independent oracle for formula._expand_composite."""
    chains = [formula_module._prime_factors(k) for k in ks]
    starts = [0]
    for chain in chains:
        starts.append(starts[-1] + len(chain))
    last = {i + 1: starts[i] + len(chains[i]) for i in range(s)}

    def remap(poly, old_j, avail):
        images = {v: var(n + avail, v) for v in range(1, n + 1)}
        images.update({n + i: var(n + avail, n + last[i]) for i in range(1, old_j + 1)})
        return substitute(poly, images, out_nvars=n + avail)

    new_ps, new_witnesses = [], []
    for i, chain in enumerate(chains, start=1):
        new_ps.append(remap(ps[i - 1], i - 1, starts[i - 1]))
        new_ps.extend(var(n + starts[i - 1] + t - 1, n + starts[i - 1] + t - 1)
                      for t in range(2, len(chain) + 1))
        new_witnesses.extend(witnesses[i - 1] ** prod(chain[t:]) for t in range(1, len(chain) + 1))
    new_ps.append(remap(ps[s], s, starts[-1]))
    return n, starts[-1], [q for chain in chains for q in chain], new_ps, new_witnesses


def _random_levels(rng, n, ks):
    """ps[j] of arity n + j with w(3) and fractional coefficients, and witnesses."""
    coeffs = [1, -2, Fraction(1, 3), root_of_unity(3, 3), Fraction(-5, 2)]
    ps = [
        MPoly(n + j, {tuple(rng.randint(0, 2) for _ in range(n + j)): rng.choice(coeffs)
                      for _ in range(4)})
        for j in range(len(ks) + 1)
    ]
    witnesses = [MPoly(n, {tuple(rng.randint(0, 1) for _ in range(n)): rng.choice(coeffs)})
                 for _ in ks]
    return ps, witnesses


class TestFactorRadicals:
    def test_renaming_matches_substitution_by_variable_images(self, monkeypatch):
        rng = random.Random(1234)
        ks = [1, 4, 6, 8, 9]
        for trial in range(6):
            order = rng.sample(ks, len(ks))
            ps, witnesses = _random_levels(rng, 2, order)
            formula = PolyRadicalFormula(2, len(ks), order, ps, witnesses)
            got = factor_radicals(formula)
            with monkeypatch.context() as patch:
                patch.setattr(formula_module, "_expand_composite",
                              _expand_composite_by_substitution)
                want = factor_radicals(formula)
            assert (got.s, got.ks) == (want.s, want.ks), trial
            assert [p.nvars for p in got.ps] == [p.nvars for p in want.ps], trial
            assert got.ps == want.ps and got.witnesses == want.witnesses, trial
            assert [p.render() for p in got.ps] == [p.render() for p in want.ps], trial

    def test_all_prime_exponents_keep_their_polynomials(self):
        ps, witnesses = _random_levels(random.Random(5), 3, [2, 3, 5, 2])
        formula = PolyRadicalFormula(3, 4, [2, 3, 5, 2], ps, witnesses)
        out = factor_radicals(formula)
        assert out.ks == [2, 3, 5, 2]
        assert all(a is b for a, b in zip(out.ps, ps)) and len(out.ps) == len(ps)

    def test_prime_formula_unchanged(self):
        formula = builtin("degree2")
        assert factor_radicals(formula) == formula
        tower = parse(QUAD_TOWER)
        assert factor_radicals(tower) is tower

    def test_fourth_root_becomes_two_square_roots(self):
        scheme = parse("scheme n=2 s=1\nk 4\np 0 = a1^2 - 4*a0\np 1 = z1 - a1\n")
        out = factor_radicals(scheme)
        assert (out.s, out.ks) == (2, [2, 2])
        assert out.ps[0] == scheme.ps[0]
        assert out.ps[1] == var(3, 3)
        assert out.ps[2] == var(4, 4) - var(4, 2)

    def test_sixth_root_splits_into_ascending_primes(self):
        scheme = parse("scheme n=1 s=1\nk 6\np 0 = a0\np 1 = z1\n")
        out = factor_radicals(scheme)
        assert out.ks == [2, 3]
        assert out.ps[1] == var(2, 2)
        assert out.ps[2] == var(3, 3)

    def test_witness_chain_and_verdict_preservation(self):
        x1, x2 = var(2, 1), var(2, 2)
        p0 = (var(2, 1) ** 2 - 4 * var(2, 2)) ** 2
        formula = PolyRadicalFormula(2, 1, [4], [p0, var(3, 3)], [x1 - x2])
        before = [r.ok for r in verify_poly_formula(formula).records]
        assert before == [True, False]
        out = factor_radicals(formula)
        assert out.ks == [2, 2]
        assert out.witnesses == [(x1 - x2) ** 2, x1 - x2]
        after = [r.ok for r in verify_poly_formula(out).records]
        assert after == [True, True, False]

    def test_unit_exponent_inlined(self):
        scheme = parse("scheme n=1 s=1\nk 1\np 0 = a0\np 1 = z1 + a0\n")
        out = factor_radicals(scheme)
        assert (out.s, out.ks) == (0, [])
        assert out.ps[0] == 2 * var(1, 1)

    def test_factored_cubic_still_verifies(self):
        out = factor_radicals(builtin("degree3"))
        assert out == builtin("degree3")
        assert verify_poly_formula(out).all_pass


class TestTowerPolyConversion:
    def test_quadratic_tower_round_trip(self):
        tower = vieta_convert(parse(QUAD_SCHEME))
        x1, x2 = var(2, 1), var(2, 2)
        assert to_poly_formula(tower, [x1 - x2]) == builtin("degree2")

    def test_rational_function_target_refused(self):
        tower = parse("towerformula n=2 s=0\ntarget = s2/s1\n")
        with pytest.raises(ValueError, match="rational function"):
            to_poly_formula(tower, [])


class TestRootRelabeling:
    def test_witness_permutation_tracks_first_root(self):
        formula = builtin("degree3")
        images_base = {i: elem_sym(3, i) for i in range(1, 4)}
        for alpha in [(2, 1, 3), (2, 3, 1), (3, 1, 2), (1, 3, 2)]:
            images = dict(images_base)
            for t, w in enumerate(formula.witnesses, start=1):
                images[3 + t] = permute_vars(w, alpha)
            value = substitute(formula.ps[3], images, out_nvars=3)
            assert value == var(3, alpha[0])


class TestNumericEvaluation:
    def test_cubic_at_integer_roots(self):
        formula = builtin("degree3")
        roots = (1, 2, -3)
        sigma = [evaluate(elem_sym(3, i), roots) for i in (1, 2, 3)]
        assert sigma == [0, -7, -6]
        wits = [evaluate(w, roots) for w in formula.witnesses]
        assert wits[1] ** 3 == evaluate(formula.ps[1], sigma + wits[:1])
        assert evaluate(formula.ps[3], sigma + wits) == 1
