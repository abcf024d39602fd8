"""Radical-formula data model, document parser/serializer and verifiers.

Three forms of the same idea, in increasing concreteness:

  * SolvabilityScheme: exponents k_j and polynomials p_j over the
    coefficient variables a_0..a_(n-1) with abstract radical placeholders
    z_1..z_j.  Nothing is verified; it only has a shape.
  * FormalRadicalFormula: the scheme transplanted onto a radical tower
    over the sigma-variables (vieta_convert does the transplant), with a
    target element meant to equal x_1.
  * PolyRadicalFormula: the fully explicit form — every radical carries a
    polynomial witness in x_1..x_n, and all defining equalities become
    exact polynomial identities that verify_poly_formula checks.

Each form is written as a document of its kind (`scheme`, `towerformula`,
`polyformula`): a header `<kind> n=<n> s=<s>`, then the lines that
_LINE_KINDS lists (k, p, witness, target, assert-nonpower), read by one
loop and written by one serializer.  `#` starts a comment, and an integer
past Python's string-conversion limit is a DslError at its position.
"""

from __future__ import annotations

import re
from math import prod

from radform.dsl import (
    DslError, PolyContext, TowerContext, parse_expression, read_int, variable_names,
)
from radform.multipoly import (
    MPoly, _exps, _grouped, permute_vars, sigma_images, substitute, symmetrize,
)
from radform.cyclotomic import _is_prime, _prime_factors, root_of_unity
from radform.tower import (
    ATTESTED_ASSERTED,
    ATTESTED_UNKNOWN,
    IdentityRecord,
    RatFunc,
    TowerElem,
    TowerSpec,
    WitnessReport,
    compatible,
)

__all__ = [
    "FormalRadicalFormula",
    "PolyRadicalFormula",
    "SolvabilityScheme",
    "builtin",
    "factor_radicals",
    "parse",
    "serialize",
    "to_poly_formula",
    "verify_poly_formula",
    "vieta_convert",
]


# ---------------------------------------------------------------------------
# the three formula forms


def _fields_equal(self, other):
    return vars(self) == vars(other) if type(other) is type(self) else NotImplemented


class SolvabilityScheme:
    """Abstract solution shape over coefficient variables a_0..a_(n-1).

    ps[j] may mention the radical placeholders z_1..z_j, so its arity is
    n + j.  Exponents need not be prime here; factor_radicals normalizes.
    """

    def __init__(self, n: int, s: int, ks: list, ps: list):
        _check_shape(n, s, ks, ps)
        self.n, self.s, self.ks, self.ps = n, s, ks, ps

    __eq__ = _fields_equal


class PolyRadicalFormula:
    """Explicit radical formula: every radical has an x-polynomial witness."""

    def __init__(self, n: int, s: int, ks: list, ps: list, witnesses: list):
        _check_shape(n, s, ks, ps)
        if len(witnesses) != s:
            raise ValueError(f"need {s} witnesses, got {len(witnesses)}")
        for j, w in enumerate(witnesses, start=1):
            if w.nvars != n:
                raise ValueError(f"witness {j} has {w.nvars} variables, expected {n}")
        self.n, self.s, self.ks, self.ps, self.witnesses = n, s, ks, ps, witnesses

    __eq__ = _fields_equal


def _check_shape(n, s, ks, ps):
    if n < 1:
        raise ValueError("degree must be at least 1")
    if len(ks) != s:
        raise ValueError(f"need {s} radical exponents, got {len(ks)}")
    if any(k < 1 for k in ks):
        raise ValueError("radical exponents must be positive")
    if len(ps) != s + 1:
        raise ValueError(f"need {s + 1} defining polynomials, got {len(ps)}")
    for j, p in enumerate(ps):
        if p.nvars != n + j:
            raise ValueError(
                f"p_{j} has {p.nvars} variables, expected {n + j}"
            )


class FormalRadicalFormula:
    """A radical tower plus the element that is claimed to equal x_1."""

    def __init__(self, spec: TowerSpec, target: TowerElem):
        self.spec = spec
        self.target = spec.lift(spec._coerce_elem(target), spec.s)

    @property
    def n(self):
        return self.spec.n

    @property
    def s(self):
        return self.spec.s

    @property
    def ks(self):
        return list(self.spec.ks)

    def __eq__(self, other):
        if not isinstance(other, FormalRadicalFormula):
            return NotImplemented
        if self.n != other.n or self.ks != other.ks:
            return False
        if not compatible(self.spec, other.spec):
            return False
        mine = [a != ATTESTED_UNKNOWN for a in self.spec.attestations]
        theirs = [a != ATTESTED_UNKNOWN for a in other.spec.attestations]
        if mine != theirs:
            return False
        return self.target._same_payload(other.target)

    def __repr__(self):
        return f"FormalRadicalFormula(n={self.n}, ks={self.ks})"


# ---------------------------------------------------------------------------
# the document grammar

_KINDS = {
    "scheme": SolvabilityScheme,
    "polyformula": PolyRadicalFormula,
    "towerformula": FormalRadicalFormula,
}

# (document kind, line kind) -> the rule by which a line names its variables
# (dsl._Context.index): the letter and first index of the n ground
# variables, and the letter of the radicals 1..j that a level-j line names
_NAMES = {
    ("scheme", "p"): ("a", 0, "z"),
    ("polyformula", "p"): ("s", 1, "f"),
    ("polyformula", "witness"): ("x", 1, ""),
    ("towerformula", "p"): ("s", 1, "y"),
    ("towerformula", "target"): ("s", 1, "y"),
}

# The line kinds: keyword; what follows it, as two regex groups (the
# integer field: an index or the k line's exponents; and the expression,
# the group a match of the kind closes last); the document kinds that hold
# such lines; the refusal the other kinds print; and the noun that names
# one line in duplicate and missing-line errors.
_LINE_KINDS = (
    ("k", r"\s+([\d\s]+)()", tuple(_KINDS), "", "k line"),
    ("p", r"\s*(\d+)\s*=(.*)", tuple(_KINDS), "", "definition of p {}"),
    ("witness", r"\s*(\d+)\s*=(.*)", ("polyformula",),
     "witness lines belong to polyformula documents", "witness {}"),
    ("target", r"()\s*=(.*)", ("towerformula",),
     "target lines belong to towerformula documents, not {}", "target line"),
    ("assert-nonpower", r"\s+(\d+)()\s*", ("towerformula",),
     "assert-nonpower applies to towerformula documents", ""),
)
_HEADER_RE = re.compile(rf"^({'|'.join(_KINDS)})\s+n\s*=\s*(\d+)\s+s\s*=\s*(\d+)\s*$")
_LINE_RE = re.compile("|".join(f"{kw}{fields}$" for kw, fields, *_ in _LINE_KINDS))
_NOUNS = {kw: noun for kw, *_, noun in _LINE_KINDS}


def _level(line, j, s):
    """The radicals that an expression line may name: p j's are 1..j, a
    target's 1..s, a witness's none."""
    return j if line == "p" else s if line == "target" else 0


def _required(kind, s):
    """(line kind, index) of each line a document must hold, in checking
    order, yielded lazily: a missing k line is found before anything that
    grows with s, which only the k line's length bounds."""
    if s:
        yield "k", None
    yield from (("p", j) for j in range(s + (kind != "towerformula")))
    if kind == "polyformula":
        yield from (("witness", j) for j in range(1, s + 1))
    if kind == "towerformula":
        yield "target", None


def _document_lines(text):
    lines = []
    for idx, raw in enumerate(text.splitlines(), start=1):
        content = raw.split("#", 1)[0].strip()
        if content:
            lines.append((idx, content))
    return lines


def _int_field(match, group, line_no):
    return read_int(match[group], line_no, match.start(group) + 1)


def _exponents(match, group, line_no, s, tower):
    """The radical exponents of a k line, checked against the header's s."""
    start = match.start(group) + 1
    ks = [read_int(v[0], line_no, start + v.start()) for v in re.finditer(r"\d+", match[group])]
    if len(ks) != s:
        raise DslError(f"k line lists {len(ks)} exponents but the header says s={s}", line_no)
    if any(k < 1 for k in ks):
        raise DslError("radical exponents must be positive", line_no)
    for k in ks:
        if tower and not _is_prime(k):
            raise DslError(f"radical degree {k} is not prime; factor composite "
                           "degrees before writing a tower document", line_no)
    return ks


def parse(text: str):
    """Parse a document into one of the three formula forms."""
    lines = _document_lines(text)
    if not lines:
        raise DslError("empty document")
    line_no, head = lines[0]
    if not (m := _HEADER_RE.match(head)):
        raise DslError("expected a header like 'polyformula n=2 s=1'", line_no, 1)
    kind, n, s = m[1], _int_field(m, 2, line_no), _int_field(m, 3, line_no)
    if n < 1:
        raise DslError("degree n must be at least 1", line_no)
    tower = kind == "towerformula"
    spec = TowerSpec(n) if tower else None  # a tower is built one p line at a time
    defined = {}  # (line kind, index) -> its value; an assert-nonpower's line number
    for line_no, content in lines[1:]:
        if not (m := _LINE_RE.match(content)):
            raise DslError(f"unrecognized line {content!r}", line_no)
        g = m.lastindex  # the expression's group, 2 * (the kind's row + 1)
        line, _, kinds, refusal, noun = _LINE_KINDS[g // 2 - 1]
        if kind not in kinds:
            raise DslError(refusal.format(kind), line_no)
        j = _int_field(m, g - 1, line_no) if m[g - 1] and line != "k" else None
        if line == "assert-nonpower":  # its level is checked once the tower is built
            defined.setdefault((line, j), line_no)
            continue
        if tower:  # a tower is built in order: the k line, p 0..s-1, the target
            if line == "p" and ("k", None) not in defined:
                raise DslError("the k line must precede p definitions", line_no)
            if line == "p" and j >= s:
                raise DslError(f"tower documents define p 0..p {s - 1}; the final element "
                               "is the target line", line_no)
            if line == "p" and j != spec.s:
                raise DslError(f"p levels must appear in ascending order; expected p {spec.s}",
                               line_no)
            if line == "target" and spec.s != s:
                raise DslError("all p levels must be defined before the target", line_no)
        elif line == "p" and j > s:
            raise DslError(f"p index {j} exceeds s={s}", line_no)
        elif line == "witness" and not 1 <= j <= s:
            raise DslError(f"witness index must be 1..{s}", line_no)
        if (line, j) in defined:
            raise DslError(f"duplicate {noun.format(j)}", line_no)
        if line == "k":
            defined[line, j] = _exponents(m, g - 1, line_no, s, tower)
            continue
        rule, level = _NAMES[kind, line], _level(line, j, s)
        ctx = (TowerContext(spec, rule, level) if tower
               else PolyContext(n, rule, level, f"{line} {j}"))
        defined[line, j] = value = parse_expression(" " * m.start(g) + m[g], ctx, line_no)
        if tower and line == "p":
            spec.add_level(defined["k", None][j], value)
    for line, j in _required(kind, s):
        if (line, j) not in defined:
            raise DslError(f"missing {_NOUNS[line].format(j)}")
    if tower:
        for (line, j), line_no in defined.items():
            if line == "assert-nonpower":
                if not 1 <= j <= s:
                    raise DslError(f"assert-nonpower level must be 1..{s}", line_no)
                spec.set_attestation(j, ATTESTED_ASSERTED)
        return FormalRadicalFormula(spec, defined["target", None])
    ks, ps = defined.get(("k", None), []), [defined["p", j] for j in range(s + 1)]
    if kind == "scheme":
        return SolvabilityScheme(n, s, ks, ps)
    return PolyRadicalFormula(n, s, ks, ps, [defined["witness", j] for j in range(1, s + 1)])


def _fields(obj, kind):
    """(line kind, integer field, expression) of each body line of obj's document."""
    tower = kind == "towerformula"
    if obj.s:
        yield "k", " ".join(map(str, obj.ks)), None
    yield from (("p", j, p) for j, p in enumerate(obj.spec.ps if tower else obj.ps))
    yield from (("witness", j, w) for j, w in enumerate(getattr(obj, "witnesses", ()), 1))
    if tower:
        yield "target", None, obj.target
        yield from (("assert-nonpower", j, None)
                    for j, a in enumerate(obj.spec.attestations, 1) if a != ATTESTED_UNKNOWN)


def serialize(obj) -> str:
    """The document text of a formula form, in the grammar that parse reads."""
    kind = next((kind for kind, form in _KINDS.items() if type(obj) is form), None)
    if kind is None:
        raise TypeError(f"cannot serialize {type(obj).__name__}")
    lines = [f"{kind} n={obj.n} s={obj.s}"]
    for line, field, value in _fields(obj, kind):
        text = line if field is None else f"{line} {field}"
        if value is not None:
            names = variable_names(obj.n, _NAMES[kind, line], _level(line, field, obj.s))
            text += " = " + value.render(names)
        lines.append(text)
    return "\n".join(lines) + "\n"


# ---------------------------------------------------------------------------
# verification of the polynomial form


def level_substitution(formula, j):
    """ps[j] with sigma_i -> elem_sym and f_t -> witness_t, as an x-polynomial."""
    n = formula.n
    images = dict(sigma_images(n))
    images.update({n + t: formula.witnesses[t - 1] for t in range(1, j + 1)})
    return substitute(formula.ps[j], images, out_nvars=n)


def chain_identity(formula, j):
    """(radicand, record) for identity j: witness_j^(k_j) = ps[j-1] with
    sigmas and earlier witnesses substituted in, the radicand being that
    substituted ps[j-1]."""
    k = formula.ks[j - 1]
    radicand = level_substitution(formula, j - 1)
    return radicand, IdentityRecord.of(
        f"witness_{j}^{k} = p_{j - 1}(sigma, witnesses)",
        radicand - formula.witnesses[j - 1] ** k,
    )


def verify_poly_formula(formula: PolyRadicalFormula) -> WitnessReport:
    """Check every defining identity of the formula exactly.

    Identity j (1 <= j <= s): witness_j^(k_j) equals ps[j-1] with sigmas
    and earlier witnesses substituted in.  The final identity: x_1 equals
    ps[s] under the same substitution.  Each identity is reported with a
    PASS/FAIL line; failures carry the leading term of the difference.
    """
    records = [chain_identity(formula, j)[1] for j in range(1, formula.s + 1)]
    x1 = MPoly.variable(formula.n, 1)
    records.append(IdentityRecord.of(
        "x_1 = p_s(sigma, witnesses)", level_substitution(formula, formula.s) - x1
    ))
    return WitnessReport(records=records)


# ---------------------------------------------------------------------------
# Vieta transplant: coefficient variables -> sigma variables


def _eval_in_tower(poly: MPoly, images, spec: TowerSpec, level: int):
    """Evaluate a placeholder polynomial on tower elements (1-based images)."""
    total = spec.zero(0)
    for key, ws in _grouped(poly._terms).items():
        term = spec.scalar(poly._scalar(ws))
        for var, e in enumerate(_exps(key, poly.nvars), start=1):
            if e:
                term = term * images[var] ** e
        total = total + term
    return spec.lift(total, level)


def vieta_convert(scheme: SolvabilityScheme) -> FormalRadicalFormula:
    """Send a_j to (-1)^(n-j) * sigma_(n-j) and z_j to the tower radical y_j.

    The sign pattern is the one that makes the a_j the coefficients of the
    monic polynomial with roots x_1..x_n, so a scheme that solves generic
    equations becomes a tower formula claiming to produce x_1.
    """
    n = scheme.n
    for k in scheme.ks:
        if not _is_prime(k):
            raise ValueError(
                f"radical degree {k} is not prime; run factor_radicals first"
            )
    spec = TowerSpec(n)
    a_images = {}
    for var in range(1, n + 1):
        j = var - 1
        sign = 1 if (n - j) % 2 == 0 else -1
        a_images[var] = spec.from_sigma_poly(sign * MPoly.variable(n, n - j))
    for j in range(scheme.s):
        images = dict(a_images)
        images.update({n + t: spec.generator(t) for t in range(1, j + 1)})
        spec.add_level(scheme.ks[j], _eval_in_tower(scheme.ps[j], images, spec, j))
    images = dict(a_images)
    images.update({n + t: spec.generator(t) for t in range(1, scheme.s + 1)})
    target = _eval_in_tower(scheme.ps[scheme.s], images, spec, scheme.s)
    return FormalRadicalFormula(spec, target)


# ---------------------------------------------------------------------------
# prime normalization of radical exponents


def _drop_unit_level(n, s, ks, ps, witnesses):
    """Remove the first k_j = 1 level by inlining its defining polynomial."""
    j = next(i + 1 for i, k in enumerate(ks) if k == 1)
    new_ps = list(ps[: j - 1])
    inline = ps[j - 1]  # arity n + j - 1; becomes the image of z_j
    for m in range(j, s + 1):
        arity = n + m - 1
        images = {var: MPoly.variable(arity, var) for var in range(1, n + j)}
        images[n + j] = inline.pad_vars(arity)
        for i in range(j + 1, m + 1):
            images[n + i] = MPoly.variable(arity, n + i - 1)
        new_ps.append(substitute(ps[m], images, out_nvars=arity))
    if witnesses is not None:
        witnesses = witnesses[: j - 1] + witnesses[j:]
    return n, s - 1, ks[: j - 1] + ks[j:], new_ps, witnesses


def _expand_composite(n, s, ks, ps, witnesses):
    chains = [_prime_factors(k) for k in ks]
    starts = [0]
    for chain in chains:
        starts.append(starts[-1] + len(chain))
    total = starts[-1]
    last = {i + 1: starts[i] + len(chains[i]) for i in range(s)}

    def remap(poly, old_j, avail):
        """poly with z_i renamed to the last radical of its chain, in n + avail variables."""
        arity = n + avail
        moved = [n + last[i] for i in range(1, old_j + 1)]
        if poly.nvars == arity and moved == list(range(n + 1, arity + 1)):
            return poly
        unused = sorted(set(range(n + 1, arity + 1)) - set(moved))
        return permute_vars(poly.pad_vars(arity), [*range(1, n + 1), *moved, *unused])

    new_ks = [q for chain in chains for q in chain]
    new_ps = []
    new_witnesses = [] if witnesses is not None else None
    for i in range(1, s + 1):
        chain = chains[i - 1]
        new_ps.append(remap(ps[i - 1], i - 1, starts[i - 1]))
        for t in range(2, len(chain) + 1):
            avail = starts[i - 1] + t - 1
            new_ps.append(MPoly.variable(n + avail, n + avail))
        if new_witnesses is not None:
            for t in range(1, len(chain) + 1):
                new_witnesses.append(witnesses[i - 1] ** prod(chain[t:]))
    new_ps.append(remap(ps[s], s, total))
    return n, total, new_ks, new_ps, new_witnesses


def factor_radicals(obj):
    """Split composite radical exponents into chains of primes.

    A level with exponent k = q_1*...*q_m (ascending primes) becomes m
    consecutive levels; each inserted defining polynomial is just the
    previous new radical, and a witness f turns into the chain of its
    powers f^(q_2*...*q_m), ..., f^(q_m), f.  Levels with exponent 1 are
    inlined away entirely.  Tower-form inputs are already prime by
    construction and come back unchanged.
    """
    if isinstance(obj, FormalRadicalFormula):
        return obj
    if not isinstance(obj, (SolvabilityScheme, PolyRadicalFormula)):
        raise TypeError(f"cannot normalize {type(obj).__name__}")
    n, s, ks, ps = obj.n, obj.s, list(obj.ks), list(obj.ps)
    witnesses = list(obj.witnesses) if isinstance(obj, PolyRadicalFormula) else None
    if any(k == 0 for k in ks):
        raise ValueError("radical exponent 0 cannot be factored")
    while any(k == 1 for k in ks):
        n, s, ks, ps, witnesses = _drop_unit_level(n, s, ks, ps, witnesses)
    n, s, ks, ps, witnesses = _expand_composite(n, s, ks, ps, witnesses)
    if witnesses is None:
        return SolvabilityScheme(n, s, ks, ps)
    return PolyRadicalFormula(n, s, ks, ps, witnesses)


# ---------------------------------------------------------------------------
# conversion from a witnessed tower back to the polynomial form


def _flatten_elem(e: TowerElem, n: int, arity: int) -> MPoly:
    if e.level == 0:
        poly = e.ratfunc.as_poly()
        if poly is None:
            raise ValueError(
                "tower coefficient is a genuine rational function; "
                "it has no polynomial form: " + e.ratfunc.render()
            )
        return poly.pad_vars(arity)
    gen = MPoly.variable(arity, n + e.level)
    out = MPoly.zero(arity)
    for m, c in enumerate(e.coords):
        if not c.is_zero():
            out = out + _flatten_elem(c, n, arity) * gen ** m
    return out


def to_poly_formula(formula: FormalRadicalFormula, witnesses) -> PolyRadicalFormula:
    """Rewrite a witnessed tower formula in the explicit polynomial form.

    Fails if any tower coefficient or witness is a rational function that
    does not reduce to a polynomial.
    """
    n, s = formula.n, formula.s
    # the target is the last defining polynomial, over all s radicals
    ps = [_flatten_elem(e, n, n + j) for j, e in enumerate([*formula.spec.ps, formula.target])]
    wits = []
    for j, w in enumerate(witnesses, start=1):
        if isinstance(w, RatFunc):
            poly = w.as_poly()
            if poly is None:
                raise ValueError(f"witness {j} is not a polynomial: {w.render()}")
            w = poly
        wits.append(w)
    return PolyRadicalFormula(n, s, list(formula.ks), ps, wits)


# ---------------------------------------------------------------------------
# built-in formulas


def builtin(name: str) -> PolyRadicalFormula:
    """The two classical solution formulas in fully verified polynomial form.

    degree2: the quadratic with discriminant radical f1 = x1 - x2.
    degree3: the cubic via third-order resolvents u, v; the square root
    picks up u^3 - v^3 and the two cube roots produce u and v themselves,
    with every sigma-coefficient obtained by symmetrization.
    """
    if name == "degree2":
        s1 = MPoly.variable(2, 1)
        s2 = MPoly.variable(2, 2)
        x1 = MPoly.variable(2, 1)
        x2 = MPoly.variable(2, 2)
        p0 = s1 ** 2 - 4 * s2
        p1 = (MPoly.variable(3, 1) + MPoly.variable(3, 3)) / 2  # (s1 + f1)/2
        return PolyRadicalFormula(2, 1, [2], [p0, p1], [x1 - x2])
    if name == "degree3":
        x = [MPoly.variable(3, i) for i in (1, 2, 3)]
        w = root_of_unity(3, 3)
        u = x[0] + w * x[1] + w ** 2 * x[2]
        v = x[0] + w ** 2 * x[1] + w * x[2]
        f1 = u ** 3 - v ** 3
        p0 = symmetrize(f1 ** 2).poly
        big_u = symmetrize(u ** 3 + v ** 3).poly
        p1 = (big_u.pad_vars(4) + MPoly.variable(4, 4)) / 2
        p2 = (big_u.pad_vars(5) - MPoly.variable(5, 4)) / 2
        p3 = (
            MPoly.variable(6, 1) + MPoly.variable(6, 5) + MPoly.variable(6, 6)
        ) / 3
        return PolyRadicalFormula(
            3, 3, [2, 3, 3], [p0, p1, p2, p3], [f1, u, v]
        )
    raise ValueError(f"no builtin formula named {name!r} (try degree2, degree3)")
