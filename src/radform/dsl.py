"""Expression lexer and parser for the formula document language.

Expressions are sums, differences, products, powers and (restricted)
quotients of named variables, nonnegative integers, the imaginary unit
``i`` and root-of-unity constants ``w(q)``.  A name is resolved by its
line's rule to a variable index; what the index means, and what a ``/``
is allowed to divide by, depends on the evaluation context:

  * PolyContext reads index i as the variable x_i and only divides by
    nonzero scalar constants;
  * TowerContext reads a ground index as a sigma-variable and a radical's
    as a tower generator, and divides by radical-free (level-0) values.

A product of variables, integers, their powers and divisions by nonzero
constants is one monomial (c, key, d), c/d times a packed key of
radform.multipoly, so a product is a key addition and a power a key
multiplication.  A +/- chain adds monomials into one numerator dict over
one denominator as RatFunc adds, and its context builds the value once.
From the first other value on (w(q), i, y<j>, a parenthesised sum, a
degree that could overflow its field) the context's operators fold the
rest in source order.  Errors carry line and column positions.
"""

from __future__ import annotations

import collections
import re
import sys

from radform.cyclotomic import FIELD_BITS, OrderCapError, root_of_unity
from radform.multipoly import MPoly, _make, _variable_key
from radform.tower import RatFunc, TowerElem, TowerSpec

__all__ = [
    "DslError",
    "degree_bound",
    "PolyContext",
    "Token",
    "TowerContext",
    "max_name_index",
    "parse_expression",
    "read_int",
    "tokenize",
    "variable_names",
]


class DslError(ValueError):
    def __init__(self, message: str, line: int | None = None, col: int | None = None):
        where = "" if line is None else f" (line {line}" + (f", column {col}" if col else "") + ")"
        super().__init__(message + where)
        self.line, self.col = line, col


Token = collections.namedtuple("Token", "kind value line col")
Token.__doc__ = """One lexeme: its kind ("INT", "NAME", "OP" or "END"), its text and
its 1-based line and column.  A named tuple: built at a tuple's cost,
immutable, and compared and hashed by its four fields."""


_LEXEME_RE = re.compile(r"\d+|[A-Za-z][A-Za-z0-9]*|[-+*/^()=]")
_BAD_RE = re.compile(r"[^\s\dA-Za-z*/^()=+-]")


def _lex(text: str, line_no: int) -> list[str]:
    """The lexemes of one line and "" for its end; other characters are refused."""
    if bad := _BAD_RE.search(text):
        raise DslError(f"unexpected character {bad[0]!r}", line_no, bad.start() + 1)
    return _LEXEME_RE.findall(text) + [""]


def _columns(text: str) -> list[int]:
    """The 1-based column of each lexeme of _lex(text), the end's last."""
    return [m.start() + 1 for m in _LEXEME_RE.finditer(text)] + [len(text) + 1]


def tokenize(text: str, line_no: int = 1) -> list[Token]:
    """One line of input to a token list ending in an END marker."""
    return [
        Token("END" if not v else "INT" if v.isdigit() else "NAME" if v[0].isalpha() else "OP",
              v, line_no, col)
        for v, col in zip(_lex(text, line_no), _columns(text))
    ]


def read_int(digits: str, line: int | None = None, col: int | None = None) -> int:
    """The value of a run of decimal digits that a user wrote; one longer
    than Python's integer string-conversion limit is a DslError there."""
    try:
        return int(digits)
    except ValueError:
        raise DslError(f"integer of {len(digits)} digits exceeds the limit of "
                       f"{sys.get_int_max_str_digits()} digits", line, col) from None


def max_name_index(text: str, letter: str) -> int:
    """Largest N such that `letterN` occurs as a name in the text; 0 if none."""
    n, best = len(letter), 0
    for pos, v in enumerate(_lex(text, 1)):
        if v[:n] == letter and v[n:].isdigit():
            try:
                best = max(best, read_int(v[n:]))
            except DslError as err:  # columns are computed only for an error
                raise DslError(str(err), 1, _columns(text)[pos] + n) from None
    return best


def variable_names(n: int, rule: tuple, level: int) -> list[str]:
    """The names that a line's rule gives its n + level variables, in order."""
    ground, first, radical = rule
    return [f"{ground}{t}" for t in range(first, first + n)] + [
        f"{radical}{j}" for j in range(1, level + 1)]


# ---------------------------------------------------------------------------
# evaluation contexts; they raise DslErrors that the parser positions


class _Context:
    """Names by a line's rule (ground, first, radical): ground<first>.. are
    indices 1..n and radical1..radical<level> n+1..n+level, with no leading
    zeros.  A monomial product or power whose key is longer than key_bits
    is left to the operators, which raise ExponentOverflowError.  An
    unknown name's message gives the two ranges, never a list of names."""

    def __init__(self, n: int, rule: tuple, level: int, nvars: int, where: str = ""):
        self.n, self.rule, self.level, self.where = n, rule, level, where
        self.key_bits = FIELD_BITS * (nvars + 2)

    def integer(self, value: int):
        return value, 0, 1

    def index(self, name: str) -> int:
        """The index of a name by the rule, or an unknown-variable DslError."""
        ground, first, radical = self.rule
        digits = name[1:]
        if digits.isdigit() and (digits[0] != "0" or len(digits) == 1):
            i = read_int(digits)
            if name[0] == ground and first <= i < first + self.n:
                return i - first + 1
            if name[0] == radical and 1 <= i <= self.level:
                return self.n + i
        where = f" in {self.where}" if self.where else ""
        levels = f" or {radical}1..{radical}{self.level}" if self.level else ""
        raise DslError(f"unknown variable {name!r}{where} "
                       f"(expected {ground}{first}..{ground}{first + self.n - 1}{levels})")


class PolyContext(_Context):
    """Evaluate into MPoly in the n + level variables of a line's rule."""

    def __init__(self, n: int, rule: tuple, level: int, where: str = ""):
        super().__init__(n, rule, level, n + level, where)
        self.nvars = n + level

    def unity_root(self, q: int):
        return MPoly.constant(self.nvars, root_of_unity(q, q))

    def variable(self, name: str):
        return 1, _variable_key(self.nvars, self.index(name)), 1

    def build(self, terms: dict, den: int):
        if den < 0:
            terms, den = {k: -c for k, c in terms.items()}, -den
        return _make(self.nvars, 1, terms, den)

    def divide(self, num, den):
        if not den.is_constant():
            raise DslError("division by a non-constant polynomial is not allowed here")
        value = den.constant_value()
        if not value:
            raise DslError("division by zero")
        return num / value


class TowerContext(_Context):
    """Evaluate into TowerElem: ground names are sigmas, radicals generators."""

    def __init__(self, spec: TowerSpec, rule: tuple, level: int):
        super().__init__(spec.n, rule, level, spec.n)
        self.spec = spec

    def unity_root(self, q: int):
        return self.spec.scalar(root_of_unity(q, q))

    def variable(self, name: str):
        i = self.index(name)
        if i > self.n:
            return self.spec.generator(i - self.n)
        return 1, _variable_key(self.n, i), 1

    def build(self, terms: dict, den: int):
        n = self.spec.n
        return self.spec.from_ratfunc(RatFunc(_make(n, 1, terms), MPoly.constant(n, den)))

    def divide(self, num, den):
        if den.level != 0:
            raise DslError("divisors must be radical-free (no y-variables)")
        if den.is_zero():
            raise DslError("division by zero")
        return num * TowerElem(self.spec, 0, den.payload.inv())


class _DegreeContext:
    """Evaluate to degree bounds: a key is a total degree alone, with no
    field to overflow; a sum keeps its largest key, cancelled terms
    included, and a quotient its dividend.  Names are checked by ctx."""

    key_bits = float("inf")

    def __init__(self, ctx):
        self.ctx = ctx

    def integer(self, value: int):
        return 1, 0, 1

    unity_root = integer

    def variable(self, name: str):
        self.ctx.index(name)
        return 1, 1 << FIELD_BITS, 1

    def build(self, terms: dict, den: int):
        return 1, max(terms), 1

    def divide(self, num, den):
        return num


def degree_bound(source, ctx) -> int:
    """An upper bound on the total degree of an expression, read off its
    syntax without expanding anything; its names must be known to ctx."""
    return parse_expression(source, _DegreeContext(ctx))[1] >> FIELD_BITS


# ---------------------------------------------------------------------------
# recursive-descent expression parser


class _Parser:
    """Recursive descent over one line's lexemes, `atoms` caching each
    lexeme's atom; a monomial is a tuple, any other value the context's."""

    def __init__(self, text: str, ctx, line_no: int):
        self.text, self.lex, self.ctx, self.line = text, _lex(text, line_no), ctx, line_no
        self.pos, self.atoms = 0, {}

    def fail(self, message: str, pos: int):
        raise DslError(message, self.line, _columns(self.text)[pos]) from None

    def value(self, x):
        return self.ctx.build({x[1]: x[0]}, x[2]) if type(x) is tuple else x

    def apply(self, op: str, a, b, pos: int):
        """a op b on context values, an order above the cap or a refused
        divisor reported at the operator."""
        a, b = self.value(a), self.value(b)
        try:
            return (a * b if op == "*" else a + b if op == "+" else a - b if op == "-"
                    else a ** b if op == "^" else self.ctx.divide(a, b))
        except (DslError, OrderCapError) as err:
            self.fail(str(err), pos)

    def integer(self, pos: int) -> int:
        """The integer lexeme at pos, an over-long one refused there."""
        try:
            return read_int(self.lex[pos])
        except DslError as err:
            self.fail(str(err), pos)

    def expect(self, op: str):
        tok = self.lex[self.pos]
        if tok != op:
            self.fail(f"expected {op!r}, found {tok or 'end of line'!r}", self.pos)
        self.pos += 1

    def parse(self):
        value = self.expr()
        if tok := self.lex[self.pos]:
            self.fail(f"unexpected {tok!r}", self.pos)
        return self.value(value)

    def expr(self):
        lex = self.lex
        value = self.unary()
        if lex[self.pos] not in ("+", "-"):
            return value
        terms, den = ({value[1]: value[0]}, value[2]) if type(value) is tuple else (None, 1)
        while (op := lex[pos := self.pos]) == "+" or op == "-":
            self.pos = pos + 1
            rhs = self.unary()
            if terms is None or type(rhs) is not tuple:
                if terms is not None:
                    value, terms = self.ctx.build(terms, den), None
                value = self.apply(op, value, rhs, pos)
                continue
            c, key, d = rhs if op == "+" else (-rhs[0], rhs[1], rhs[2])
            if d != den:
                terms = {k: v * d for k, v in terms.items()}
                c, den = c * den, den * d
            terms[key] = terms.get(key, 0) + c
        return value if terms is None else self.ctx.build(terms, den)

    def unary(self):
        lex, minus = self.lex, False
        while (op := lex[self.pos]) == "+" or op == "-":
            minus ^= op == "-"
            self.pos += 1
        value = self.term()
        if not minus:
            return value
        return (-value[0], value[1], value[2]) if type(value) is tuple else -value

    def term(self):
        lex, key_bits = self.lex, self.ctx.key_bits
        value = self.power()
        while (op := lex[pos := self.pos]) == "*" or op == "/":
            self.pos = pos + 1
            rhs = self.power()
            if op == "/" and type(rhs) is tuple and rhs[0] and not rhs[1]:
                op, rhs = "*", (rhs[2], 0, rhs[0])  # times the constant's inverse
            if (op == "*" and type(value) is type(rhs) is tuple
                    and (value[1] + rhs[1]).bit_length() <= key_bits):
                value = (value[0] * rhs[0], value[1] + rhs[1], value[2] * rhs[2])
            else:
                value = self.apply(op, value, rhs, pos)
        return value

    def power(self):
        lex = self.lex
        value = self.atom()
        while lex[pos := self.pos] == "^":
            if not lex[pos + 1].isdigit():
                self.fail("exponent must be a nonnegative integer", pos + 1)
            self.pos, e = pos + 2, self.integer(pos + 1)
            if type(value) is tuple and (value[1] * e).bit_length() <= self.ctx.key_bits:
                value = (value[0] ** e, value[1] * e, value[2] ** e)
            else:
                value = self.apply("^", value, e, pos)
        return value

    def atom(self):
        lex, pos, ctx = self.lex, self.pos, self.ctx
        tok = lex[pos]
        self.pos = pos + 1
        if (atom := self.atoms.get(tok)) is not None:
            return atom
        if tok == "(":
            value = self.expr()
            self.expect(")")
            return value
        if tok == "i":
            return ctx.unity_root(4)
        if tok == "w" and lex[pos + 1] == "(":
            if not lex[pos + 2].isdigit():
                self.fail("w(...) takes an integer order", pos + 2)
            if (q := self.integer(pos + 2)) < 1:
                self.fail("root-of-unity order must be positive", pos + 2)
            self.pos = pos + 3
            self.expect(")")
            try:
                return ctx.unity_root(q)
            except ValueError as err:
                self.fail(str(err), pos + 2)
        if not tok[:1].isalnum():
            self.fail(f"expected a value, found {tok or 'end of line'!r}", pos)
        try:
            atom = ctx.integer(read_int(tok)) if tok.isdigit() else ctx.variable(tok)
        except DslError as err:
            self.fail(str(err), pos)
        if tok != "w":  # a later "w(" is a root of unity
            self.atoms[tok] = atom
        return atom


def parse_expression(source: str, ctx, line_no: int = 1):
    """Evaluate an expression string in a context."""
    return _Parser(source, ctx, line_no).parse()
