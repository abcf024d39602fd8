"""Expression tokenizer and parser for the formula document language.

Expressions are sums, differences, products, powers and (restricted)
quotients of named variables, nonnegative integers, the imaginary unit
``i`` and root-of-unity constants ``w(q)``.  What a name means, and what
a ``/`` is allowed to divide by, depends on the evaluation context:

  * PolyContext maps names to polynomial variables and only divides by
    nonzero scalar constants;
  * TowerContext maps ``s<i>`` to ground-field generators and ``y<j>`` to
    tower radicals, and divides by radical-free (level-0) values only.

Errors carry line and column positions for document-level diagnostics.
"""

from __future__ import annotations

import collections
import re

from radform.cyclotomic import root_of_unity
from radform.multipoly import MPoly
from radform.tower import TowerElem, TowerSpec

__all__ = [
    "DslError",
    "degree_bound",
    "PolyContext",
    "Token",
    "TowerContext",
    "max_name_index",
    "parse_expression",
    "tokenize",
]


class DslError(ValueError):
    def __init__(self, message: str, line: int | None = None, col: int | None = None):
        where = ""
        if line is not None:
            where = f" (line {line}" + (f", column {col}" if col else "") + ")"
        super().__init__(message + where)
        self.line = line
        self.col = col


Token = collections.namedtuple("Token", "kind value line col")
Token.__doc__ = """One lexeme: its kind ("INT", "NAME", "OP" or "END"), its text and
its 1-based line and column.  A named tuple: built at a tuple's cost,
immutable, and compared and hashed by its four fields."""


# every non-space character starts a match, so finditer skips only spaces
_TOKEN_RE = re.compile(
    r"\s*(?:(?P<INT>\d+)|(?P<NAME>[A-Za-z][A-Za-z0-9]*)|(?P<OP>[-+*/^()=])|(?P<BAD>\S))"
)


def tokenize(text: str, line_no: int = 1) -> list[Token]:
    """One line of input to a token list ending in an END marker."""
    tokens = []
    for m in _TOKEN_RE.finditer(text):
        kind = m.lastgroup
        if kind == "BAD":
            raise DslError(f"unexpected character {m[kind]!r}", line_no, m.start(kind) + 1)
        tokens.append(Token(kind, m[kind], line_no, m.start(kind) + 1))
    tokens.append(Token("END", "", line_no, len(text) + 1))
    return tokens


def max_name_index(text: str, letter: str) -> int:
    """Largest N such that `letterN` occurs as a name in the text; 0 if none."""
    best = 0
    pattern = re.compile(rf"^{re.escape(letter)}(\d+)$")
    for tok in tokenize(text):
        if tok.kind == "NAME":
            m = pattern.match(tok.value)
            if m:
                best = max(best, int(m.group(1)))
    return best


# ---------------------------------------------------------------------------
# evaluation contexts


class PolyContext:
    """Evaluate into MPoly with a fixed name -> variable-index table."""

    def __init__(self, nvars: int, var_map: dict[str, int], where: str = ""):
        self.nvars = nvars
        self.var_map = var_map
        self.where = where
        self._variables = {}

    def integer(self, value: int):
        return MPoly.constant(self.nvars, value)

    def unity_root(self, q: int):
        return MPoly.constant(self.nvars, root_of_unity(q, q))

    def variable(self, name: str, tok: Token):
        poly = self._variables.get(name)
        if poly is not None:
            return poly
        index = self.var_map.get(name)
        if index is None:
            known = ", ".join(sorted(self.var_map)) or "none"
            hint = f" in {self.where}" if self.where else ""
            raise DslError(
                f"unknown variable {name!r}{hint} (expected one of: {known})",
                tok.line,
                tok.col,
            )
        poly = self._variables[name] = MPoly.variable(self.nvars, index)
        return poly

    def divide(self, num, den, tok: Token):
        if not den.is_constant():
            raise DslError(
                "division by a non-constant polynomial is not allowed here",
                tok.line,
                tok.col,
            )
        value = den.constant_value()
        if not value:
            raise DslError("division by zero", tok.line, tok.col)
        return num / value


class TowerContext:
    """Evaluate into TowerElem: s<i> are ground variables, y<j> radicals."""

    def __init__(self, spec: TowerSpec, max_level: int):
        self.spec = spec
        self.max_level = max_level

    def integer(self, value: int):
        return self.spec.scalar(value)

    def unity_root(self, q: int):
        return self.spec.scalar(root_of_unity(q, q))

    def variable(self, name: str, tok: Token):
        m = re.fullmatch(r"([sy])(\d+)", name)
        if m:
            idx = int(m.group(2))
            if m.group(1) == "s" and 1 <= idx <= self.spec.n:
                return self.spec.from_sigma_poly(MPoly.variable(self.spec.n, idx))
            if m.group(1) == "y" and 1 <= idx <= self.max_level:
                return self.spec.generator(idx)
        raise DslError(
            f"unknown variable {name!r} (expected s1..s{self.spec.n}"
            + (f" or y1..y{self.max_level}" if self.max_level else "")
            + ")",
            tok.line,
            tok.col,
        )

    def divide(self, num, den, tok: Token):
        if den.level != 0:
            raise DslError(
                "divisors must be radical-free (no y-variables)", tok.line, tok.col
            )
        if den.is_zero():
            raise DslError("division by zero", tok.line, tok.col)
        inv = TowerElem(self.spec, 0, den.payload.inv())
        return num * inv


class _Degree:
    """A total-degree bound: sums take the larger bound, products add
    bounds, and a k-th power multiplies one by k."""

    __slots__ = ("d",)

    def __init__(self, d: int):
        self.d = d

    def __add__(self, other):
        return _Degree(max(self.d, other.d))

    __sub__ = __add__

    def __neg__(self):
        return self

    def __mul__(self, other):
        return _Degree(self.d + other.d)

    def __pow__(self, k: int):
        return _Degree(self.d * k)


class _DegreeContext:
    """Evaluate to degree bounds; names are checked against another context."""

    def __init__(self, ctx):
        self.ctx = ctx

    def integer(self, value: int):
        return _Degree(0)

    def unity_root(self, q: int):
        return _Degree(0)

    def variable(self, name: str, tok: Token):
        self.ctx.variable(name, tok)
        return _Degree(1)

    def divide(self, num, den, tok: Token):
        return num


def degree_bound(source, ctx) -> int:
    """An upper bound on the total degree of an expression, read off its
    syntax without expanding anything; its names must be known to ctx."""
    return parse_expression(source, _DegreeContext(ctx)).d


# ---------------------------------------------------------------------------
# recursive-descent expression parser


class _Parser:
    def __init__(self, tokens: list[Token], ctx):
        self.tokens = tokens
        self.ctx = ctx
        self.pos = 0

    def peek(self) -> Token:
        return self.tokens[self.pos]

    def advance(self) -> Token:
        tok = self.tokens[self.pos]
        self.pos += 1
        return tok

    def at_op(self, *ops) -> bool:
        tok = self.peek()
        return tok.kind == "OP" and tok.value in ops

    def expect_op(self, op: str):
        tok = self.advance()
        if tok.kind != "OP" or tok.value != op:
            raise DslError(
                f"expected {op!r}, found {tok.value or 'end of line'!r}",
                tok.line,
                tok.col,
            )

    def parse(self):
        value = self.expr()
        tok = self.peek()
        if tok.kind != "END":
            raise DslError(f"unexpected {tok.value!r}", tok.line, tok.col)
        return value

    def expr(self):
        value = self.unary()
        while self.at_op("+", "-"):
            op = self.advance().value
            rhs = self.unary()
            value = value + rhs if op == "+" else value - rhs
        return value

    def unary(self):
        minus = False
        while self.at_op("+", "-"):
            if self.advance().value == "-":
                minus = not minus
        value = self.term()
        return -value if minus else value

    def term(self):
        value = self.power()
        while self.at_op("*", "/"):
            tok = self.advance()
            rhs = self.power()
            if tok.value == "*":
                value = value * rhs
            else:
                value = self.ctx.divide(value, rhs, tok)
        return value

    def power(self):
        value = self.atom()
        while self.at_op("^"):
            self.advance()
            tok = self.advance()
            if tok.kind != "INT":
                raise DslError("exponent must be a nonnegative integer", tok.line, tok.col)
            value = value ** int(tok.value)
        return value

    def atom(self):
        tok = self.advance()
        if tok.kind == "INT":
            return self.ctx.integer(int(tok.value))
        if tok.kind == "NAME":
            if tok.value == "i":
                return self.ctx.unity_root(4)
            if tok.value == "w" and self.at_op("("):
                self.advance()
                qtok = self.advance()
                if qtok.kind != "INT":
                    raise DslError("w(...) takes an integer order", qtok.line, qtok.col)
                q = int(qtok.value)
                if q < 1:
                    raise DslError("root-of-unity order must be positive", qtok.line, qtok.col)
                self.expect_op(")")
                try:
                    return self.ctx.unity_root(q)
                except ValueError as err:
                    raise DslError(str(err), qtok.line, qtok.col) from None
            return self.ctx.variable(tok.value, tok)
        if tok.kind == "OP" and tok.value == "(":
            value = self.expr()
            self.expect_op(")")
            return value
        raise DslError(
            f"expected a value, found {tok.value or 'end of line'!r}",
            tok.line,
            tok.col,
        )


def parse_expression(source, ctx, line_no: int = 1):
    """Evaluate an expression string (or pre-tokenized list) in a context."""
    tokens = tokenize(source, line_no) if isinstance(source, str) else source
    return _Parser(tokens, ctx).parse()
