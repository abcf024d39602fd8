"""Tokenizer and expression parser behavior, both evaluation contexts."""

import pytest
from fractions import Fraction

from radform.cyclotomic import ORDER_CAP, root_of_unity
from radform.dsl import (
    DslError,
    PolyContext,
    Token,
    TowerContext,
    max_name_index,
    parse_expression,
    tokenize,
)
from radform.multipoly import MPoly
from radform.tower import TowerSpec


def x_ctx(n):
    return PolyContext(n, {f"x{i}": i for i in range(1, n + 1)})


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
        lambda: x_ctx(1), lambda: TowerContext(quad_tower(), 1),
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
        ctx = PolyContext(2, {"x1": 1, "x2": 2, "x9": 9})
        assert parse_expression("x1 - x2 + x1", ctx) == MPoly.variable(2, 1) * 2 - MPoly.variable(2, 2)
        with pytest.raises(ValueError, match="out of range"):
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
        ctx = TowerContext(spec, max_level=1)
        got = parse_expression("1/2*s1 + (1/2)*y1", ctx)
        want = (spec.from_sigma_poly(MPoly.variable(2, 1)) + spec.generator(1)) * Fraction(1, 2)
        assert got == want

    def test_division_by_sigma_polynomial(self):
        spec = quad_tower()
        ctx = TowerContext(spec, max_level=1)
        got = parse_expression("y1/(s1^2 - 4*s2)", ctx)
        assert got * spec.ps[0] == spec.generator(1)

    def test_division_by_radical_rejected(self):
        spec = quad_tower()
        ctx = TowerContext(spec, max_level=1)
        with pytest.raises(DslError, match="radical-free"):
            parse_expression("s1/y1", ctx)

    def test_out_of_range_generator(self):
        spec = quad_tower()
        ctx = TowerContext(spec, max_level=1)
        with pytest.raises(DslError, match="unknown variable 'y2'"):
            parse_expression("y2", ctx)
        with pytest.raises(DslError, match="unknown variable 's3'"):
            parse_expression("s3", ctx)
