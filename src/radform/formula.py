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

Documents are line-oriented: a header, a `k` line with the radical
exponents, `p <j> = <expr>` definitions, plus `witness`/`target`/
`assert-nonpower` lines depending on the document kind.  `#` starts a
comment.
"""

from __future__ import annotations

import re
from math import prod

from radform.dsl import DslError, PolyContext, TowerContext, parse_expression
from radform.multipoly import (
    MPoly, _exps, _grouped, permute_vars, sigma_images, substitute, symmetrize,
)
from radform.cyclotomic import _prime_factors, root_of_unity
from radform.tower import (
    ATTESTED_ASSERTED,
    ATTESTED_UNKNOWN,
    IdentityRecord,
    RatFunc,
    TowerElem,
    TowerSpec,
    WitnessReport,
    _is_prime,
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
# variable-name tables


def _scheme_names(n, j):
    return [f"a{t}" for t in range(n)] + [f"z{i}" for i in range(1, j + 1)]


def _poly_names(n, j):
    return [f"s{i}" for i in range(1, n + 1)] + [f"f{i}" for i in range(1, j + 1)]


def _x_names(n):
    return [f"x{i}" for i in range(1, n + 1)]


def _context(names, where):
    """The parsing context whose variables are names, numbered from 1."""
    return PolyContext(len(names), {v: i for i, v in enumerate(names, 1)}, where)


# ---------------------------------------------------------------------------
# document parsing

_HEADER_RE = re.compile(
    r"^(scheme|polyformula|towerformula)\s+n\s*=\s*(\d+)\s+s\s*=\s*(\d+)\s*$"
)
_K_RE = re.compile(r"^k\s+([\d\s]+)$")
_P_RE = re.compile(r"^p\s*(\d+)\s*=(.*)$")
_WITNESS_RE = re.compile(r"^witness\s*(\d+)\s*=(.*)$")
_TARGET_RE = re.compile(r"^target\s*=(.*)$")
_ATTEST_RE = re.compile(r"^assert-nonpower\s+(\d+)\s*$")


def _document_lines(text):
    lines = []
    for idx, raw in enumerate(text.splitlines(), start=1):
        content = raw.split("#", 1)[0].rstrip()
        if content.strip():
            lines.append((idx, content))
    return lines


def _expr_source(match, group):
    """The expression tail, space-padded so token columns match the line."""
    return " " * match.start(group) + match.group(group)


def _parse_k_line(match, line_no, s):
    values = [int(v) for v in match.group(1).split()]
    if len(values) != s:
        raise DslError(
            f"k line lists {len(values)} exponents but the header says s={s}",
            line_no,
        )
    if any(v < 1 for v in values):
        raise DslError("radical exponents must be positive", line_no)
    return values


def parse(text: str):
    """Parse a document into one of the three formula forms."""
    lines = _document_lines(text)
    if not lines:
        raise DslError("empty document")
    line_no, head = lines[0]
    m = _HEADER_RE.match(head.strip())
    if not m:
        raise DslError(
            "expected a header like 'polyformula n=2 s=1'", line_no, 1
        )
    kind, n, s = m.group(1), int(m.group(2)), int(m.group(3))
    if n < 1:
        raise DslError("degree n must be at least 1", line_no)
    body = lines[1:]
    if kind == "scheme":
        return _parse_schemeish(n, s, body, with_witnesses=False)
    if kind == "polyformula":
        return _parse_schemeish(n, s, body, with_witnesses=True)
    return _parse_tower(n, s, body)


def _parse_schemeish(n, s, body, with_witnesses):
    kindname = "polyformula" if with_witnesses else "scheme"
    ks = None
    ps = {}
    witnesses = {}
    for line_no, content in body:
        stripped = content.strip()
        if m := _K_RE.match(stripped):
            if ks is not None:
                raise DslError("duplicate k line", line_no)
            ks = _parse_k_line(m, line_no, s)
        elif m := _P_RE.match(content.strip()):
            j = int(m.group(1))
            if j > s:
                raise DslError(f"p index {j} exceeds s={s}", line_no)
            if j in ps:
                raise DslError(f"duplicate definition of p {j}", line_no)
            names = _poly_names(n, j) if with_witnesses else _scheme_names(n, j)
            ctx = _context(names, f"p {j}")
            ps[j] = parse_expression(_expr_source(m, 2), ctx, line_no)
        elif m := _WITNESS_RE.match(stripped):
            if not with_witnesses:
                raise DslError(
                    "witness lines belong to polyformula documents", line_no
                )
            j = int(m.group(1))
            if not 1 <= j <= s:
                raise DslError(f"witness index must be 1..{s}", line_no)
            if j in witnesses:
                raise DslError(f"duplicate witness {j}", line_no)
            ctx = _context(_x_names(n), f"witness {j}")
            witnesses[j] = parse_expression(_expr_source(m, 2), ctx, line_no)
        elif _TARGET_RE.match(stripped):
            raise DslError(
                f"target lines belong to towerformula documents, not {kindname}",
                line_no,
            )
        elif _ATTEST_RE.match(stripped):
            raise DslError(
                "assert-nonpower applies to towerformula documents", line_no
            )
        else:
            raise DslError(f"unrecognized line {stripped!r}", line_no)
    if s > 0 and ks is None:
        raise DslError("missing k line")
    missing = [j for j in range(s + 1) if j not in ps]
    if missing:
        raise DslError(f"missing definition of p {missing[0]}")
    plist = [ps[j] for j in range(s + 1)]
    if with_witnesses:
        missing_w = [j for j in range(1, s + 1) if j not in witnesses]
        if missing_w:
            raise DslError(f"missing witness {missing_w[0]}")
        return PolyRadicalFormula(
            n, s, ks or [], plist, [witnesses[j] for j in range(1, s + 1)]
        )
    return SolvabilityScheme(n, s, ks or [], plist)


def _parse_tower(n, s, body):
    spec = TowerSpec(n)
    ks = None
    target = None
    attest_lines = []
    next_p = 0
    for line_no, content in body:
        stripped = content.strip()
        if m := _K_RE.match(stripped):
            if ks is not None:
                raise DslError("duplicate k line", line_no)
            ks = _parse_k_line(m, line_no, s)
            for v in ks:
                if not _is_prime(v):
                    raise DslError(
                        f"radical degree {v} is not prime; factor composite "
                        "degrees before writing a tower document",
                        line_no,
                    )
        elif m := _P_RE.match(stripped):
            j = int(m.group(1))
            if ks is None:
                raise DslError("the k line must precede p definitions", line_no)
            if j >= s:
                raise DslError(
                    f"tower documents define p 0..p {s - 1}; the final element "
                    "is the target line",
                    line_no,
                )
            if j != next_p:
                raise DslError(
                    f"p levels must appear in ascending order; expected p {next_p}",
                    line_no,
                )
            ctx = TowerContext(spec, max_level=j)
            elem = parse_expression(_expr_source(m, 2), ctx, line_no)
            spec.add_level(ks[j], elem)
            next_p += 1
        elif m := _TARGET_RE.match(stripped):
            if target is not None:
                raise DslError("duplicate target line", line_no)
            if next_p != s:
                raise DslError(
                    "all p levels must be defined before the target", line_no
                )
            ctx = TowerContext(spec, max_level=s)
            target = parse_expression(_expr_source(m, 1), ctx, line_no)
        elif m := _ATTEST_RE.match(stripped):
            attest_lines.append((line_no, int(m.group(1))))
        elif _WITNESS_RE.match(stripped):
            raise DslError("witness lines belong to polyformula documents", line_no)
        else:
            raise DslError(f"unrecognized line {stripped!r}", line_no)
    if s > 0 and ks is None:
        raise DslError("missing k line")
    if next_p != s:
        raise DslError(f"missing definition of p {next_p}")
    if target is None:
        raise DslError("missing target line")
    for line_no, j in attest_lines:
        if not 1 <= j <= s:
            raise DslError(f"assert-nonpower level must be 1..{s}", line_no)
        spec.set_attestation(j, ATTESTED_ASSERTED)
    return FormalRadicalFormula(spec, target)


# ---------------------------------------------------------------------------
# serialization


def serialize(obj) -> str:
    if isinstance(obj, SolvabilityScheme):
        lines = [f"scheme n={obj.n} s={obj.s}"]
        if obj.s:
            lines.append("k " + " ".join(str(k) for k in obj.ks))
        for j, p in enumerate(obj.ps):
            lines.append(f"p {j} = " + p.render(_scheme_names(obj.n, j)))
        return "\n".join(lines) + "\n"
    if isinstance(obj, PolyRadicalFormula):
        lines = [f"polyformula n={obj.n} s={obj.s}"]
        if obj.s:
            lines.append("k " + " ".join(str(k) for k in obj.ks))
        for j, p in enumerate(obj.ps):
            lines.append(f"p {j} = " + p.render(_poly_names(obj.n, j)))
        for j, w in enumerate(obj.witnesses, start=1):
            lines.append(f"witness {j} = " + w.render(_x_names(obj.n)))
        return "\n".join(lines) + "\n"
    if isinstance(obj, FormalRadicalFormula):
        names = [f"s{i}" for i in range(1, obj.n + 1)]
        lines = [f"towerformula n={obj.n} s={obj.s}"]
        if obj.s:
            lines.append("k " + " ".join(str(k) for k in obj.ks))
        for j in range(obj.s):
            lines.append(f"p {j} = " + obj.spec.ps[j].render(names))
        lines.append("target = " + obj.target.render(names))
        for j, att in enumerate(obj.spec.attestations, start=1):
            if att != ATTESTED_UNKNOWN:
                lines.append(f"assert-nonpower {j}")
        return "\n".join(lines) + "\n"
    raise TypeError(f"cannot serialize {type(obj).__name__}")


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
    new_ks = ks[: j - 1] + ks[j:]
    new_witnesses = None
    if witnesses is not None:
        new_witnesses = witnesses[: j - 1] + witnesses[j:]
    return n, s - 1, new_ks, new_ps, new_witnesses


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
    if isinstance(obj, SolvabilityScheme):
        n, s, ks, ps, witnesses = obj.n, obj.s, list(obj.ks), list(obj.ps), None
    elif isinstance(obj, PolyRadicalFormula):
        n, s, ks, ps, witnesses = (
            obj.n,
            obj.s,
            list(obj.ks),
            list(obj.ps),
            list(obj.witnesses),
        )
    else:
        raise TypeError(f"cannot normalize {type(obj).__name__}")
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
    ps = [
        _flatten_elem(formula.spec.ps[j], n, n + j) for j in range(s)
    ]
    ps.append(_flatten_elem(formula.target, n, n + s))
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
