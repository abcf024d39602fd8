"""Tokenizer and expression parser behavior, both evaluation contexts."""

import functools
import hashlib
import importlib.util
import pathlib

import pytest
from fractions import Fraction
from hypothesis import given, seed, settings, strategies as st

from radform import corpus, dsl, formula
from radform.cyclotomic import ORDER_CAP, root_of_unity
from radform.dsl import (
    DslError,
    PolyContext,
    Token,
    TowerContext,
    degree_bound,
    max_name_index,
    parse_expression,
    tokenize,
)
from radform.multipoly import MPoly
from radform.tower import TowerElem, TowerSpec

ROOT = pathlib.Path(__file__).resolve().parent.parent


X, SY = ("x", 1, ""), ("s", 1, "y")  # the rules of witness and tower lines


def x_ctx(n):
    return PolyContext(n, X, 0)


class TableContext(PolyContext):
    """A PolyContext in nvars variables whose names come from a table,
    for names that no line's rule writes."""

    def __init__(self, nvars, table):
        super().__init__(nvars, X, 0)
        self.table = table

    def index(self, name):
        return self.table[name]


def quad_tower():
    s1, s2 = MPoly.variable(2, 1), MPoly.variable(2, 2)
    spec = TowerSpec(2)
    spec.add_level(2, spec.from_sigma_poly(s1 ** 2 - 4 * s2))
    return spec


class TestTokenizer:
    def test_kinds_and_columns(self):
        toks = tokenize("x1 + 12*w(3)")
        assert [(t.kind, t.value) for t in toks[:-1]] == [
            ("NAME", "x1"),
            ("OP", "+"),
            ("INT", "12"),
            ("OP", "*"),
            ("NAME", "w"),
            ("OP", "("),
            ("INT", "3"),
            ("OP", ")"),
        ]
        assert toks[0].col == 1
        assert toks[1].col == 4
        assert toks[-1].kind == "END"

    def test_token_repr_equality_hash_and_immutability(self):
        tok = tokenize("x1", line_no=3)[0]
        assert repr(tok) == "Token(kind='NAME', value='x1', line=3, col=1)"
        assert tok == Token("NAME", "x1", 3, 1)
        assert tok != Token("NAME", "x1", 3, 2)
        assert hash(tok) == hash(Token("NAME", "x1", 3, 1))
        assert (tok.kind, tok.value, tok.line, tok.col) == ("NAME", "x1", 3, 1)
        with pytest.raises(AttributeError):
            tok.kind = "INT"

    def test_bad_character_position(self):
        with pytest.raises(DslError) as err:
            tokenize("x1 + $", line_no=7)
        assert err.value.line == 7
        assert err.value.col == 6

    def test_max_name_index(self):
        assert max_name_index("x1*x3 + x2^2", "x") == 3
        assert max_name_index("s1 + s2", "x") == 0


class TestPolyExpressions:
    def test_precedence_and_fractions(self):
        ctx = x_ctx(2)
        x1, x2 = MPoly.variable(2, 1), MPoly.variable(2, 2)
        assert parse_expression("x1 + 2*x2^3", ctx) == x1 + 2 * x2 ** 3
        assert parse_expression("1/2*x1 - x2", ctx) == x1 / 2 - x2
        assert parse_expression("(x1 + x2)^2", ctx) == (x1 + x2) ** 2
        assert parse_expression("2 - 3*4", ctx) == MPoly.constant(2, -10)

    def test_unary_minus(self):
        ctx = x_ctx(1)
        x1 = MPoly.variable(1, 1)
        assert parse_expression("-x1^2", ctx) == -(x1 ** 2)
        assert parse_expression("--x1", ctx) == x1
        assert parse_expression("3 - -x1", ctx) == 3 + x1

    def test_cyclotomic_constants(self):
        ctx = x_ctx(1)
        assert parse_expression("i^2", ctx) == MPoly.constant(1, -1)
        assert parse_expression("w(6)^3", ctx) == MPoly.constant(1, -1)
        w3 = root_of_unity(3, 3)
        assert parse_expression("w(3)^2 + w(3) + 1", ctx) == MPoly.zero(1)
        assert parse_expression("(1 + w(3))*x1", ctx) == MPoly.variable(1, 1) * (
            1 + w3
        )

    @pytest.mark.parametrize("make", [
        lambda: x_ctx(1), lambda: TowerContext(quad_tower(), SY, 1),
    ], ids=["poly", "tower"])
    def test_order_above_the_cap_reports_position(self, make):
        assert parse_expression(f"w({ORDER_CAP})^{ORDER_CAP}", make()) == 1
        with pytest.raises(DslError, match=f"order {ORDER_CAP + 1} exceeds the cap") as err:
            parse_expression(f"1 + w({ORDER_CAP + 1})", make(), line_no=2)
        assert (err.value.line, err.value.col) == (2, 7)

    def test_unknown_variable_reports_position(self):
        with pytest.raises(DslError) as err:
            parse_expression("x1 + q7", x_ctx(2), line_no=3)
        assert "q7" in str(err.value)
        assert err.value.line == 3
        assert err.value.col == 6

    def test_only_used_variables_are_built(self):
        # x9 is out of range for two variables: building it would raise
        ctx = TableContext(2, {"x1": 1, "x2": 2, "x9": 9})
        assert parse_expression("x1 - x2 + x1", ctx) == MPoly.variable(2, 1) * 2 - MPoly.variable(2, 2)
        with pytest.raises(ValueError):
            parse_expression("x9", ctx)

    def test_constant_division_only(self):
        ctx = x_ctx(2)
        assert parse_expression("x1/2", ctx) == MPoly.variable(2, 1) * Fraction(1, 2)
        with pytest.raises(DslError, match="non-constant"):
            parse_expression("x1/x2", ctx)
        with pytest.raises(DslError, match="zero"):
            parse_expression("x1/0", ctx)

    def test_trailing_garbage(self):
        with pytest.raises(DslError, match="unexpected"):
            parse_expression("x1 x1", x_ctx(1))
        with pytest.raises(DslError, match="expected a value"):
            parse_expression("x1 +", x_ctx(1))

    def test_exponent_must_be_integer(self):
        with pytest.raises(DslError, match="exponent"):
            parse_expression("x1^x1", x_ctx(1))


class TestTowerExpressions:
    def test_generators_and_sigma(self):
        spec = quad_tower()
        ctx = TowerContext(spec, SY, 1)
        got = parse_expression("1/2*s1 + (1/2)*y1", ctx)
        want = (spec.from_sigma_poly(MPoly.variable(2, 1)) + spec.generator(1)) * Fraction(1, 2)
        assert got == want

    def test_division_by_sigma_polynomial(self):
        spec = quad_tower()
        ctx = TowerContext(spec, SY, 1)
        got = parse_expression("y1/(s1^2 - 4*s2)", ctx)
        assert got * spec.ps[0] == spec.generator(1)

    def test_division_by_radical_rejected(self):
        spec = quad_tower()
        ctx = TowerContext(spec, SY, 1)
        with pytest.raises(DslError, match="radical-free"):
            parse_expression("s1/y1", ctx)

    def test_out_of_range_generator(self):
        spec = quad_tower()
        ctx = TowerContext(spec, SY, 1)
        with pytest.raises(DslError, match="unknown variable 'y2'"):
            parse_expression("y2", ctx)
        with pytest.raises(DslError, match="unknown variable 's3'"):
            parse_expression("s3", ctx)


# ---------------------------------------------------------------------------
# the monomial evaluator against the operator fold it replaces


def reference(text, atom, unity, divide):
    """text folded one operator at a time with the values' own operators,
    left to right: the evaluation order the monomial evaluator must
    reproduce.  atom(lexeme) is an integer's or a name's value, unity(q)
    that of w(q), and divide(a, b) a quotient.  Valid input only."""
    toks, pos = [t.value for t in tokenize(text)], 0

    def take():
        nonlocal pos
        pos += 1
        return toks[pos - 1]

    def expr():
        value = unary()
        while toks[pos] in ("+", "-"):
            value = value + unary() if take() == "+" else value - unary()
        return value

    def unary():
        minus = False
        while toks[pos] in ("+", "-"):
            minus ^= take() == "-"
        value = term()
        return -value if minus else value

    def term():
        value = power()
        while toks[pos] in ("*", "/"):
            value = value * power() if take() == "*" else divide(value, power())
        return value

    def power():
        value = primary()
        while toks[pos] == "^":
            take()
            value = value ** int(take())
        return value

    def primary():
        tok = take()
        if tok == "(":
            value = expr()
            take()
            return value
        if tok == "i":
            return unity(4)
        if tok == "w" and toks[pos] == "(":
            take()
            q = int(take())
            take()
            return unity(q)
        return atom(tok)

    return expr()


def poly_reference(text, n):
    return reference(
        text,
        lambda tok: MPoly.constant(n, int(tok)) if tok.isdigit() else MPoly.variable(n, int(tok[1:])),
        lambda q: MPoly.constant(n, root_of_unity(q, q)),
        lambda a, b: a / b.constant_value(),
    )


def tower_reference(text, spec, level):
    def atom(tok):
        if tok.isdigit():
            return spec.scalar(int(tok))
        if tok[0] == "s":
            return spec.from_sigma_poly(MPoly.variable(spec.n, int(tok[1:])))
        assert int(tok[1:]) <= level
        return spec.generator(int(tok[1:]))

    return reference(
        text, atom, lambda q: spec.scalar(root_of_unity(q, q)),
        lambda a, b: a * TowerElem(spec, 0, b.payload.inv()),
    )


def shape(e):
    """A tower element down to the unreduced numerator and denominator of
    each level-0 coordinate, as abelize prints them."""
    if e.level == 0:
        return e.payload.num.render(), e.payload.den.render()
    return tuple(shape(c) for c in e.payload)


def expressions(atoms, exponents=("", "", "^0", "^1", "^2", "^3")):
    """Sums of unary-signed products of powers of atoms and parenthesised
    subexpressions, with divisions by nonzero rational constants."""
    divisors = st.sampled_from(["/2", "/3", "/(-4)", "/(2/3)", "/ 5", "/(-1/2)^2"])

    def extend(inner):
        factor = st.tuples(
            st.one_of(st.sampled_from(atoms), inner.map(lambda e: f"({e})")),
            st.sampled_from(exponents),
        ).map("".join)
        term = st.tuples(
            factor,
            st.lists(st.one_of(st.tuples(st.sampled_from(["*", " * "]), factor).map("".join),
                               divisors), max_size=3),
        ).map(lambda t: t[0] + "".join(t[1]))
        signed = st.tuples(st.sampled_from(["", "", "-", "--", "- -", "+", "-+-"]), term)
        return st.tuples(
            signed.map("".join),
            st.lists(st.tuples(st.sampled_from(["+", "-", " - ", "+-", "--"]), term).map("".join),
                     max_size=3),
        ).map(lambda t: t[0] + "".join(t[1]))

    return st.recursive(st.sampled_from(atoms), extend, max_leaves=8)


POLY_ATOMS = ["x1", "x2", "x3", "x1", "x2", "0", "1", "2", "3", "12", "i", "w(3)", "w(4)", "w(6)",
              "w(1)"]
RATIONAL_ATOMS = ["x1", "x2", "x3", "x1", "x2", "0", "1", "2", "3", "12"]


class TestMonomialEvaluation:
    @seed(21)
    @settings(max_examples=300, deadline=None)
    @given(expressions(POLY_ATOMS))
    def test_poly_matches_operator_fold(self, text):
        got = parse_expression(text, x_ctx(3))
        want = poly_reference(text, 3)
        assert got == want
        assert got.render() == want.render()

    @seed(22)
    @settings(max_examples=100, deadline=None)
    @given(expressions(RATIONAL_ATOMS))
    def test_rational_expressions_match_sympy(self, text):
        sympy = pytest.importorskip("sympy")
        xs = sympy.symbols("x1:4")
        got = parse_expression(text, x_ctx(3))
        as_sympy = sum(
            (sympy.Rational(c.as_fraction().numerator, c.as_fraction().denominator)
             * sympy.prod([x ** e for x, e in zip(xs, exps)])
             for exps, c in got.terms.items()),
            sympy.Integer(0),
        )
        want = sympy.sympify(text.replace("^", "**"), locals=dict(zip(("x1", "x2", "x3"), xs)))
        assert sympy.expand(want - as_sympy) == 0

    @pytest.mark.parametrize("name", ["degree2.tower", "degree3.tower"])
    def test_tower_fixtures_match_operator_fold(self, name):
        text = (ROOT / "fixtures" / name).read_text()
        doc = formula.parse(text)
        spec = TowerSpec(doc.spec.n)
        for line in text.splitlines():
            head, _, source = line.partition("=")
            if head.startswith("p "):
                j = int(head.split()[1])
                spec.add_level(doc.spec.ks[j], tower_reference(source, spec, j))
            elif head.startswith("target"):
                target = tower_reference(source, spec, spec.s)
        assert [shape(p) for p in spec.ps] == [shape(p) for p in doc.spec.ps]
        assert shape(target) == shape(doc.target)

    @pytest.mark.parametrize("text, want", [
        ("s1/2 + s2/4", ("4*x1 + 2*x2", "8")),
        ("s1/2 + s2/4 - s1/(-4)", ("-24*x1 - 8*x2", "-32")),
        ("1/2*s1^2 - 3/4*s2 + 5/6", ("24*x1^2 - 36*x2 + 40", "48")),
        ("(s1/2 + s2/4)*y1 + s1/3", (("x1", "3"), ("4*x1 + 2*x2", "8"))),
    ])
    def test_tower_sums_keep_unreduced_denominators(self, text, want):
        # RatFunc never reduces, so a sum over unequal denominators
        # multiplies them, and abelize prints the result as it is
        spec = quad_tower()
        assert shape(parse_expression(text, TowerContext(spec, SY, 1))) == want
        assert shape(tower_reference(text, spec, 1)) == want

    @seed(23)
    @settings(max_examples=100, deadline=None)
    @given(st.sampled_from(["degree2.tower", "degree3.tower"]), st.data())
    def test_tower_expressions_match_operator_fold(self, name, data):
        spec = fixture_tower(name)
        atoms = ["s1", "s2", "s1", "s2", "0", "1", "2", "3", "w(3)", "i"] + [
            f"y{j}" for j in range(1, spec.s + 1)]
        text = data.draw(expressions(atoms, exponents=("", "", "^0", "^1", "^2")))
        got = parse_expression(text, TowerContext(spec, SY, spec.s))
        assert shape(got) == shape(tower_reference(text, spec, spec.s))


@functools.cache
def fixture_tower(name):
    return formula.parse((ROOT / "fixtures" / name).read_text()).spec


# ---------------------------------------------------------------------------
# errors and outputs recorded from the operator-fold parser that the
# monomial evaluator replaced


def pinned_ctx(name):
    if name == "tower":
        return TowerContext(quad_tower(), SY, 1)
    if name == "f":
        return PolyContext(3, X, 0, where="p 1")
    return x_ctx(int(name[1:]))


PINNED_ERRORS = [
    ("x2", "x1 + $", 7, ("DslError", "unexpected character '$' (line 7, column 6)", 7, 6)),
    ("x1", "1 + w(101)", 2, ("DslError", "root-of-unity order 101 exceeds the cap 100 (line 2, column 7)", 2, 7)),
    ("tower", "1 + w(101)", 2, ("DslError", "root-of-unity order 101 exceeds the cap 100 (line 2, column 7)", 2, 7)),
    ("x2", "x1 + q7", 3, ("DslError", "unknown variable 'q7' (expected x1..x2) (line 3, column 6)", 3, 6)),
    ("x2", "x1/x2", 1, ("DslError", "division by a non-constant polynomial is not allowed here (line 1, column 3)", 1, 3)),
    ("x2", "x1/0", 1, ("DslError", "division by zero (line 1, column 3)", 1, 3)),
    ("x1", "x1 x1", 1, ("DslError", "unexpected 'x1' (line 1, column 4)", 1, 4)),
    ("x1", "x1 +", 1, ("DslError", "expected a value, found 'end of line' (line 1, column 5)", 1, 5)),
    ("x1", "x1^x1", 1, ("DslError", "exponent must be a nonnegative integer (line 1, column 4)", 1, 4)),
    ("tower", "s1/y1", 1, ("DslError", "divisors must be radical-free (no y-variables) (line 1, column 3)", 1, 3)),
    ("tower", "y2", 1, ("DslError", "unknown variable 'y2' (expected s1..s2 or y1..y1) (line 1, column 1)", 1, 1)),
    ("tower", "s3", 1, ("DslError", "unknown variable 's3' (expected s1..s2 or y1..y1) (line 1, column 1)", 1, 1)),
    ("x3", "x1*q7*x2", 4, ("DslError", "unknown variable 'q7' (expected x1..x3) (line 4, column 4)", 4, 4)),
    ("x3", "x1*x2/0", 1, ("DslError", "division by zero (line 1, column 6)", 1, 6)),
    ("x3", "x1*x2/x3", 1, ("DslError", "division by a non-constant polynomial is not allowed here (line 1, column 6)", 1, 6)),
    ("x3", "x1*x2 + x1^", 5, ("DslError", "exponent must be a nonnegative integer (line 5, column 12)", 5, 12)),
    ("x3", "x1*w(0)*x2", 1, ("DslError", "root-of-unity order must be positive (line 1, column 6)", 1, 6)),
    ("x3", "x1*w(101)*x2", 1, ("DslError", "root-of-unity order 101 exceeds the cap 100 (line 1, column 6)", 1, 6)),
    ("x3", "x1*w(x)*x2", 1, ("DslError", "w(...) takes an integer order (line 1, column 6)", 1, 6)),
    ("x3", "2*w(3*x2", 1, ("DslError", "expected ')', found '*' (line 1, column 6)", 1, 6)),
    ("x3", "x1*(x2 + x3", 1, ("DslError", "expected ')', found 'end of line' (line 1, column 12)", 1, 12)),
    ("x3", "x1*x2)", 1, ("DslError", "unexpected ')' (line 1, column 6)", 1, 6)),
    ("x3", "x1*", 1, ("DslError", "expected a value, found 'end of line' (line 1, column 4)", 1, 4)),
    ("x3", "x1 = 2", 1, ("DslError", "unexpected '=' (line 1, column 4)", 1, 4)),
    ("x3", "", 1, ("DslError", "expected a value, found 'end of line' (line 1, column 1)", 1, 1)),
    ("x3", "-", 1, ("DslError", "expected a value, found 'end of line' (line 1, column 2)", 1, 2)),
    ("x3", "x1*-x2", 1, ("DslError", "expected a value, found '-' (line 1, column 4)", 1, 4)),
    ("x3", "x1/(x2 - x2)", 1, ("DslError", "division by zero (line 1, column 3)", 1, 3)),
    ("x3", "x1/(2 - 2)", 1, ("DslError", "division by zero (line 1, column 3)", 1, 3)),
    ("x3", "x1/0^2", 1, ("DslError", "division by zero (line 1, column 3)", 1, 3)),
    ("x3", "x1^2^", 1, ("DslError", "exponent must be a nonnegative integer (line 1, column 6)", 1, 6)),
    ("x3", "w*x1", 1, ("DslError", "unknown variable 'w' (expected x1..x3) (line 1, column 1)", 1, 1)),
    ("x3", "x1 + 2 ²", 1, ("DslError", "unexpected character '²' (line 1, column 8)", 1, 8)),
    ("f", "3*x1*x9", 2, ("DslError", "unknown variable 'x9' in p 1 (expected x1..x3) (line 2, column 6)", 2, 6)),
    ("tower", "s1*s2/(s1 - s1)", 1, ("DslError", "division by zero (line 1, column 6)", 1, 6)),
    ("tower", "s1*y1*s9", 1, ("DslError", "unknown variable 's9' (expected s1..s2 or y1..y1) (line 1, column 7)", 1, 7)),
    ("tower", "s1*s2/y1", 1, ("DslError", "divisors must be radical-free (no y-variables) (line 1, column 6)", 1, 6)),
    ("x3", "x1^4294967295*x1", 1, ("ExponentOverflowError", "exponent of x1 overflows its 32-bit field", None, None)),
    ("x3", "(x1*x2)^65536^65536", 1, ("ExponentOverflowError", "exponent of x1 overflows its 32-bit field", None, None)),
    ("x3", "x2*x1^4294967296", 1, ("ExponentOverflowError", "exponent of x1 overflows its 32-bit field", None, None)),
]


@pytest.mark.parametrize("ctx, text, line, want", PINNED_ERRORS)
def test_errors_as_pinned(ctx, text, line, want):
    with pytest.raises((DslError, OverflowError)) as err:
        parse_expression(text, pinned_ctx(ctx), line)
    got = err.value
    assert (type(got).__name__, str(got), getattr(got, "line", None), getattr(got, "col", None)) == want


@pytest.mark.parametrize("text, bound", [
    ("x1^4294967295*x1", 4294967296), ("x1*x2/0", 2), ("(x1 - x1)^3", 3), ("w(101)*x1", 1),
    ("x1/x2^5", 1), ("2^99999999*x1", 1), ("0*x1^7 + x2", 7),
    ("(x1 + x2^2)^3*i/(2/3) - x3", 6), ("x1^0", 0), ("7", 0),
])
def test_degree_bound_as_pinned(text, bound):
    assert degree_bound(text, x_ctx(3)) == bound


def test_degree_bound_checks_names_where_the_parse_would():
    with pytest.raises(DslError) as err:
        degree_bound("x1*q7*x2", x_ctx(3))
    assert (err.value.line, err.value.col) == (1, 4)


def test_lcm_of_orders_above_the_cap_is_reported_at_the_operator():
    assert parse_expression("w(7)*w(11)", x_ctx(1)).order == 77
    for text, col in [("x1+x2+w(7)*w(11)*w(13)", 17), ("x1+x2+w(7)*w(11)+w(13)", 17),
                      ("w(7)*w(11)*x1/w(13)", 14)]:
        with pytest.raises(DslError, match="order 1001 exceeds the cap 100") as err:
            parse_expression(text, x_ctx(2), line_no=3)
        assert (err.value.line, err.value.col) == (3, col)
    with pytest.raises(DslError, match="order 1001 exceeds the cap") as err:
        parse_expression("w(7)*w(11)*y1*w(13)", TowerContext(quad_tower(), SY, 1))
    assert err.value.col == 14


def test_a_variable_named_w_leaves_w_of_q_a_root_of_unity():
    got = parse_expression("w*x1 + w(3) - w", TableContext(2, {"w": 1, "x1": 2}))
    assert got.render(["w", "x1"]) == "w*x1 - w + w(3)"


def test_no_token_on_the_parse_path(monkeypatch):
    def refuse(*args):
        raise AssertionError("a Token was built")

    want = poly_reference("x1*x2^2 - 1/2*x3", 3)
    monkeypatch.setattr(dsl, "Token", refuse)
    monkeypatch.setattr(dsl.re, "compile", refuse)
    assert parse_expression("x1*x2^2 - 1/2*x3", x_ctx(3)) == want
    assert max_name_index("x1*x3 + x2^2", "x") == 3


def test_no_name_table_on_the_parse_path(monkeypatch):
    # names resolve by their line's rule: parsing builds no name list and
    # no MPoly.variable, and what it builds serializes as before
    def refuse(*args):
        raise AssertionError("a name list or a variable was built")

    texts = [path.read_text() for path in sorted((ROOT / "fixtures").iterdir())
             if path.name != "bad_syntax.poly"]
    candidates = dict(corpus.adversarial_candidates())
    texts += [op["text"] if op["kind"] == "chain" else formula.serialize(candidates[op["name"]])
              for op in bench_gen().diagnose_pass(0, 1) if op["kind"] != "flagship"]
    want = [formula.serialize(formula.parse(text)) for text in texts]
    with monkeypatch.context() as patch:
        for owner in (formula, dsl):
            patch.setattr(owner, "variable_names", refuse)
        patch.setattr(MPoly, "variable", refuse)
        parsed = [formula.parse(text) for text in texts]
    assert [formula.serialize(doc) for doc in parsed] == want


def test_corpus_candidates_round_trip():
    for name, candidate in corpus.adversarial_candidates():
        text = formula.serialize(candidate)
        assert formula.serialize(formula.parse(text)) == text, name


@functools.cache
def bench_gen():
    """bench/gen.py, the benchmark's seeded document generator."""
    loader = importlib.util.spec_from_file_location("bench_gen", ROOT / "bench" / "gen.py")
    gen = importlib.util.module_from_spec(loader)
    loader.loader.exec_module(gen)
    return gen


def test_seeded_chains_serialize_as_pinned():
    texts = [op["text"] for op in bench_gen().diagnose_pass(5, 0) if op["kind"] == "chain"]
    out = [formula.serialize(formula.parse(t)) for t in texts]
    assert len(out) == 200
    assert all(formula.serialize(formula.parse(s)) == s for s in out)
    # recorded from the operator-fold parser
    digest = hashlib.sha1("\n".join(out).encode()).hexdigest()
    assert digest == "f99a5cedaf50c3e1f515ee52fe8e02f5cb125ff4"
