"""Finite permutations, their characters on polynomials, and triviality proofs.

A Perm stores the 1-based image tuple of a permutation of {1..n} and
composes functionally: (a * b)(i) = a(b(i)).  On top of that sit the
root-of-unity characters attached to a polynomial whose q-th power is
invariant under even permutations, and the two independent routes that
certify such characters are trivial on the alternating group when n >= 5:
a generator-identity derivation instantiated on concrete index tuples,
and a perfectness oracle (the commutator subgroup of A_n, computed as a
normal closure, is all of A_n for n = 5, 6).
"""

from __future__ import annotations

import functools
import math
import re

from radform.cyclotomic import CycScalar, Frozen, _bezout_min_b, _is_prime, root_of_unity
from radform.multipoly import MPoly, _generators, _new, _relabelled

__all__ = [
    "Character",
    "ClosureCapError",
    "HomTrivialityReport",
    "OracleRun",
    "Perm",
    "an_generators",
    "build_character",
    "character_of",
    "close_group",
    "commutator_closure",
    "compose",
    "verify_hom_trivial",
]

CLOSURE_CAP = 10_000


class ClosureCapError(RuntimeError):
    """Group enumeration exceeded the brute-force element budget."""


class Perm(Frozen):
    """A permutation of {1..n} held as its tuple of images."""

    __slots__ = ("images", "_sign")

    def __init__(self, images, check: bool = True):
        """check=False trusts images, a tuple known to be a permutation."""
        if check:
            images = tuple(int(i) for i in images)
            if sorted(images) != list(range(1, len(images) + 1)):
                raise ValueError(f"{images} is not a permutation of 1..{len(images)}")
        object.__setattr__(self, "images", images)

    @classmethod
    def identity(cls, n: int) -> "Perm":
        return cls(range(1, n + 1))

    @classmethod
    def from_cycles(cls, cycles, n: int) -> "Perm":
        """Build from cycle notation, either a string like "(1 2 3)(4 5)"
        or an iterable of index tuples.  Fixed points may be omitted."""
        if isinstance(cycles, str):
            text = cycles.strip()
            if not re.fullmatch(r"(\(\s*(\d+[\s,]*)*\)\s*)*", text):
                raise ValueError(f"bad cycle notation: {cycles!r}")
            groups = re.findall(r"\(([^()]*)\)", text)
            cycles = [
                [int(v) for v in re.split(r"[\s,]+", g.strip()) if v]
                for g in groups
            ]
        images, seen = list(range(1, n + 1)), set()
        for cycle in cycles:
            cycle = [int(v) for v in cycle]
            for pos, v in enumerate(cycle):
                if not 1 <= v <= n:
                    raise ValueError(f"cycle entry {v} out of range 1..{n}")
                if v in seen:
                    raise ValueError(f"index {v} repeated across cycles")
                seen.add(v)
                images[v - 1] = cycle[(pos + 1) % len(cycle)]
        return cls(images)

    @classmethod
    def transposition(cls, n: int, i: int, j: int) -> "Perm":
        return cls.from_cycles([(i, j)], n)

    @property
    def degree(self) -> int:
        return len(self.images)

    def __call__(self, i: int) -> int:
        return self.images[i - 1]

    def __mul__(self, other: "Perm") -> "Perm":
        return compose(self, other)

    def inverse(self) -> "Perm":
        return Perm(_tuple_inverse(self.images), False)

    def cycles(self):
        """Disjoint cycles (fixed points omitted), each starting at its
        smallest element, listed by smallest element."""
        seen, out = set(), []
        for start in range(1, len(self.images) + 1):
            if start not in seen and self(start) != start:
                cycle = [start]
                while (nxt := self(cycle[-1])) != start:
                    cycle.append(nxt)
                seen.update(cycle)
                out.append(tuple(cycle))
        return out

    def is_even(self) -> bool:
        return self.sign() == 1

    def sign(self) -> int:
        """+1 or -1, computed on the first call."""
        if not hasattr(self, "_sign"):
            object.__setattr__(self, "_sign", (-1) ** sum(len(c) - 1 for c in self.cycles()))
        return self._sign

    def parity(self) -> str:
        return "even" if self.is_even() else "odd"

    def __eq__(self, other):
        if not isinstance(other, Perm):
            return NotImplemented
        return self.images == other.images

    def __hash__(self):
        return hash(self.images)

    def __repr__(self):
        return f"Perm({self.images})"

    def __str__(self):
        cycles = self.cycles()
        if not cycles:
            return "()"
        return "".join("(" + " ".join(str(v) for v in c) + ")" for c in cycles)


def compose(a: Perm, b: Perm) -> Perm:
    """(a b)(i) = a(b(i)); degrees must agree."""
    if a.degree != b.degree:
        raise ValueError(f"degree mismatch: {a.degree} vs {b.degree}")
    return Perm(_tuple_compose(a.images, b.images), False)


def an_generators(n: int) -> list[Perm]:
    """The three-cycles (1 2 m), m = 3..n, generating the even permutations."""
    if n < 3:
        raise ValueError(f"alternating generators need n >= 3, got {n}")
    return [Perm.from_cycles([(1, 2, m)], n) for m in range(3, n + 1)]


# ---------------------------------------------------------------------------
# brute-force subgroup machinery (raw image tuples internally, for speed)


def _tuple_compose(a, b):
    return tuple(a[bi - 1] for bi in b)


def _tuple_inverse(a):
    inv = [0] * len(a)
    for i, img in enumerate(a):
        inv[img - 1] = i + 1
    return tuple(inv)


def _tuple_closure(gens, cap):
    if not gens:
        raise ValueError("need at least one generator")
    n = len(gens[0])
    identity = tuple(range(1, n + 1))
    group, frontier = {identity}, [identity]
    while frontier:
        new = []
        for h in frontier:
            for g in gens:
                prod = _tuple_compose(g, h)
                if prod not in group:
                    group.add(prod)
                    new.append(prod)
                    if len(group) > cap:
                        raise ClosureCapError(
                            f"subgroup closure exceeded {cap} elements"
                        )
        frontier = new
    return group


def close_group(gens, cap: int = CLOSURE_CAP) -> set[Perm]:
    """All products of the generators (a brute-force subgroup listing)."""
    tuples = _tuple_closure([g.images for g in gens], cap)
    return {Perm(t, False) for t in tuples}


def commutator_closure(gens, cap: int = CLOSURE_CAP) -> set[Perm]:
    """The commutator subgroup [G, G] of the group G generated by gens.

    [G, G] is the normal closure in G of the commutators g h g^-1 h^-1 of
    the generators (Holt, Eick & O'Brien, Handbook of Computational Group
    Theory, 2.3).  A commutator, or a conjugate of a closure generator by
    a generator of G, joins the closure's generators only when the closure
    so far misses it; none missing means normal.  G is never enumerated."""
    gs = [g.images for g in gens]
    if not gs:
        raise ValueError("need at least one generator")
    inverses = [_tuple_inverse(g) for g in gs]
    pending = sorted({
        _tuple_compose(_tuple_compose(g, h), _tuple_compose(gi, hi))
        for g, gi in zip(gs, inverses)
        for h, hi in zip(gs, inverses)
    })
    normal_gens, closed = [], {tuple(range(1, len(gs[0]) + 1))}
    while pending:
        c = pending.pop()
        if c not in closed:
            normal_gens.append(c)
            closed = _tuple_closure(normal_gens, cap)
            pending.extend(_tuple_compose(_tuple_compose(g, c), gi) for g, gi in zip(gs, inverses))
    return {Perm(t, False) for t in closed}


# ---------------------------------------------------------------------------
# characters


def _ratio(f: MPoly, q: int, images: tuple) -> CycScalar:
    """The q-th root of unity chi = lc(f) / lc(f(x_alpha)) with
    f = chi * f(x_alpha), alpha given by its images, or ValueError: a
    fixed f is compared in place, and no test forms a power of f."""
    terms = _relabelled(f, images)
    if terms == f._terms:
        return CycScalar.one(f.order)
    moved = _new(f.nvars, f.order, terms, f._den)
    top, lead = f._lead()
    moved_lead = moved._ws(top)
    if not moved_lead:
        raise ValueError("no character: leading supports differ")
    lead, moved_lead = f._scalar(lead), f._scalar(moved_lead)
    if moved_lead * f == lead * moved and lead ** q == moved_lead ** q:
        return lead / moved_lead
    raise ValueError("no q-th root of unity relates f to its permuted copy")


def character_of(f: MPoly, q: int, alpha: Perm) -> CycScalar:
    """The unique q-th root of unity chi with f = chi * f(x_alpha).

    Defined for nonzero f whose q-th power is invariant under even
    permutations, and for even alpha.  Existence and uniqueness follow
    from factoring f^q - (f(x_alpha))^q over the coefficient field, a UFD:
    f^q is fixed by g exactly when f(x_g) = zeta * f with zeta^q = 1, so
    that is tested on the two generators of the alternating group without
    forming f^q.
    """
    if f.is_zero():
        raise ValueError("character of the zero polynomial is undefined")
    if alpha.degree != f.nvars:
        raise ValueError("permutation degree does not match the variable count")
    if not alpha.is_even():
        raise ValueError(f"{alpha} is odd; characters live on even permutations")
    try:
        for g in _generators(f.nvars, True):
            _ratio(f, q, g)
    except ValueError:
        raise ValueError(
            f"f^{q} is not invariant under even permutations; no character exists"
        ) from None
    return _ratio(f, q, alpha.images)


class Character(Frozen):
    """Character data of one polynomial: values on alternating generators."""

    __slots__ = ("n", "q", "values", "source")

    def __init__(self, n: int, q: int, values: dict, source: MPoly):
        object.__setattr__(self, "n", n)
        object.__setattr__(self, "q", q)
        object.__setattr__(self, "values", values)
        object.__setattr__(self, "source", source)

    def is_trivial(self) -> bool:
        return all(v == CycScalar.one() for v in self.values.values())

    def describe(self) -> list[str]:
        return [f"chi({g}) = {self.values[g]}" for g in sorted(self.values, key=lambda p: p.images)]


@functools.cache
def _generator_table(n: int):
    """The generators (1 2 m), once per n."""
    return tuple(an_generators(n))


def build_character(f: MPoly, q: int) -> Character:
    """Character of f on the generators (1 2 m).  f^q is fixed by g iff
    f(x_g) = zeta * f with zeta a q-th root of unity in f's field; the
    values multiply on products of generators as the character does
    (tests/test_permchar.py checks it)."""
    if f.is_zero():
        raise ValueError("character of the zero polynomial is undefined")
    values = {}
    for g in _generator_table(f.nvars):
        try:
            values[g] = _ratio(f, q, g.images)
        except ValueError:
            raise ValueError(
                f"f^{q} moves under the even permutation {g.images}; no character "
                "exists and the keeping-symmetry question does not arise"
            ) from None
    return Character(n=f.nvars, q=q, values=values, source=f)


# ---------------------------------------------------------------------------
# triviality of characters on the alternating group


class OracleRun(Frozen):
    __slots__ = ("n", "group_size", "commutator_size")

    def __init__(self, n: int, group_size: int, commutator_size: int):
        object.__setattr__(self, "n", n)
        object.__setattr__(self, "group_size", group_size)
        object.__setattr__(self, "commutator_size", commutator_size)

    @property
    def perfect(self) -> bool:
        return self.group_size == self.commutator_size


class HomTrivialityReport:
    def __init__(self, n: int, q: int, trivial: bool, derivations: list | None = None,
                 oracle_runs: list | None = None, counterexample: Character | None = None,
                 notes: list | None = None):
        self.n, self.q, self.trivial = n, q, trivial
        self.derivations = [] if derivations is None else derivations
        self.oracle_runs = [] if oracle_runs is None else oracle_runs
        self.counterexample = counterexample
        self.notes = [] if notes is None else notes

    def lines(self) -> list[str]:
        head = (
            f"characters of order {self.q} on even permutations of 1..{self.n}: "
            + ("all trivial" if self.trivial else "NONTRIVIAL character exists")
        )
        out = [head]
        out.extend(f"  {line}" for line in self.derivations)
        for run in self.oracle_runs:
            out.append(
                f"  oracle n={run.n}: |group| = {run.group_size}, "
                f"|commutator closure| = {run.commutator_size}"
                + (" (perfect)" if run.perfect else " (NOT perfect)")
            )
        if self.counterexample is not None:
            out.append("  counterexample character:")
            out.extend(f"    {line}" for line in self.counterexample.describe())
        out.extend(f"  note: {line}" for line in self.notes)
        return out

    def __str__(self):
        return "\n".join(self.lines())


@functools.cache
def _perfectness_oracle(n: int) -> OracleRun:
    """The sizes of A_n and of its commutator closure, which lies inside
    it (tests/test_permchar.py checks it)."""
    gens = an_generators(n)
    group = close_group(gens)
    commutators = commutator_closure(gens)
    return OracleRun(n=n, group_size=len(group), commutator_size=len(commutators))


def _force_by_coprime_exponent(label: str, cycle_len: int, q: int) -> str:
    if math.gcd(cycle_len, q) != 1:
        raise AssertionError(f"{cycle_len} and {q} are not coprime")
    b, a = _bezout_min_b(q, cycle_len)
    return (
        f"chi({label})^{cycle_len} = 1 and chi({label})^{q} = 1; "
        f"{cycle_len}*({a}) + {q}*({b}) = 1 forces chi({label}) = 1"
    )


def _derive_generator_trivial_q_not_3(g: Perm, q: int) -> list[str]:
    if g * g * g != Perm.identity(g.degree):
        raise AssertionError(f"{g} is not a three-cycle")
    return [
        f"{g}: cube is the identity (machine checked)",
        "  " + _force_by_coprime_exponent(str(g), 3, q),
    ]


def _derive_generator_trivial_q_3(g: Perm) -> list[str]:
    """For q = 3 express the generator as a product of two five-cycles;
    every five-cycle has trivial character since gcd(5, 3) = 1."""
    n, (i, j, k) = g.degree, g.cycles()[0]
    aux = [v for v in range(1, n + 1) if v not in (i, j, k)][:2]
    if len(aux) < 2:
        raise ValueError("need at least five indices for the q = 3 route")
    l, m = aux
    first = Perm.from_cycles([(m, l, k, j, i)], n)
    second = Perm.from_cycles([(i, k, j, l, m)], n)
    if first * second != g:
        raise AssertionError("five-cycle factorization failed")
    out = [f"{g} = {first} * {second} (machine checked)"]
    for c in (first, second):
        if c * c * c * c * c != Perm.identity(n):
            raise AssertionError(f"{c} is not a five-cycle")
        out.append("  " + _force_by_coprime_exponent(str(c), 5, 3))
    out.append(f"  hence chi({g}) = 1 * 1 = 1")
    return out


def _resolvent_counterexample(n: int) -> Character:
    """r1 + w3 * r2 + w3^2 * r3 for the roots (n = 3) or the pair products
    x1 x2 + x3 x4, x1 x3 + x2 x4, x1 x4 + x2 x3 (n = 4)."""
    if n not in (3, 4):
        raise ValueError(f"no stock counterexample for n = {n}")
    e3, x = root_of_unity(3, 3), [MPoly.variable(n, i) for i in range(1, n + 1)]
    pairs = ((1, 2, 3), (2, 1, 3), (3, 1, 2))
    r = x if n == 3 else [x[0] * x[i] + x[j] * x[k] for i, j, k in pairs]
    return build_character(r[0] + e3 * r[1] + e3 ** 2 * r[2], 3)


@functools.cache
def _generator_derivations(n: int, q: int) -> tuple[str, ...]:
    """The machine-checked lines proving every generator (1 2 m) carries
    character 1, derived once per (n, q)."""
    lines = []
    for g in an_generators(n):
        if q != 3:
            lines.extend(_derive_generator_trivial_q_not_3(g, q))
        else:
            lines.extend(_derive_generator_trivial_q_3(g))
    lines.append("all generators carry character 1, hence the character is trivial")
    return tuple(lines)


def verify_hom_trivial(n: int, q: int) -> HomTrivialityReport:
    """Certify (or refute) that every character of order q arising from an
    even-power-invariant polynomial is trivial on even permutations of 1..n.

    For n >= 5 two independent routes run: concrete generator-identity
    derivations, and the perfectness oracle for the alternating groups on
    5 and 6 letters.  For n = 3, 4 with q = 3 an explicit counterexample
    character is returned instead.
    """
    if n < 3:
        raise ValueError("triviality question needs n >= 3")
    if not _is_prime(q):
        raise ValueError(f"character order q must be prime, got {q}")
    report = HomTrivialityReport(n=n, q=q, trivial=True)
    if n < 5 and q == 3:
        report.trivial = False
        report.counterexample = _resolvent_counterexample(n)
        report.notes.append(
            "below five variables the resolvent combination realizes a "
            "nontrivial character"
        )
        return report
    report.derivations.extend(_generator_derivations(n, q))
    if n >= 5:
        for m in (5, 6):
            run = _perfectness_oracle(m)
            if not run.perfect:
                raise AssertionError(f"perfectness oracle failed for n = {m}")
            report.oracle_runs.append(run)
        report.notes.append(
            "independent route: a character kills commutators, and the "
            "commutator closure exhausts the group"
        )
    else:
        report.notes.append(
            f"n = {n} sits below the n >= 5 range; triviality for "
            f"q = {q} still follows from the three-cycle identity alone"
        )
    return report
