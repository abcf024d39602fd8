"""Radical towers over the symmetric rational-function field.

The ground field F_0 is the field of rational functions in sigma_1..sigma_n
with cyclotomic-rational coefficients (sigma_i standing for the i-th
elementary symmetric polynomial).  Level j adjoins one radical generator
y_j with y_j^k_j = p_(j-1), where k_j is prime and p_(j-1) lives at level
j - 1.  An element of level j is a coefficient vector of length k_j over
level j - 1, so everything reduces to exact polynomial arithmetic.

Rational functions are kept as raw numerator/denominator pairs: equality
goes through cross-multiplication and nothing ever computes a gcd.

Each operator coerces its operand once (a TowerElem lifts it to the higher
of the two levels); the payload arithmetic below it (_add, _mul, and _eq or
_same_payload for ==) runs on the coordinates of one level with no operator
dispatch, and a product sums into empty slots, never into a zero.

Division goes through the absolute norm: a^-1 = adj(a) / N(a), where
adj(a) multiplies the adjugates of a level by level down the tower, each
from k - 1 products in the level's own field, and N(a) = a * adj(a) lies
in F_0.  Everything up to the one division by N(a) is polynomial, and so
is the self-check a * adj(a) == N(a).

Whether each quotient is really a field depends on p_(j-1) not being a
k_j-th power one level down.  That fact is tracked per level as a
three-valued attestation (verified / asserted / unknown); division refuses
to run on unknown levels, and a falsely attested level is detected when
an inverse meets an element whose norm (the determinant of
multiplication by it) is zero at some level.
"""

from __future__ import annotations

from fractions import Fraction

from radform.cyclotomic import CycScalar, Field, Frozen, _is_prime, coerced
from radform.multipoly import (
    MPoly,
    NO_ROOT,
    UNDECIDED,
    _scalar_kth_root,
    divide_exact,
    kth_root_poly,
    sigma_images,
    substitute,
)

__all__ = [
    "AnnihilationReport",
    "AttestationError",
    "IdentityRecord",
    "NonpowerResult",
    "RatFunc",
    "TowerElem",
    "TowerSpec",
    "WitnessReport",
    "check_annihilation",
    "conjugate",
    "expand_with_witnesses",
    "nonpower_check",
    "witness_check",
    "witness_ratfunc",
    "ATTESTED_VERIFIED",
    "ATTESTED_ASSERTED",
    "ATTESTED_UNKNOWN",
]

ATTESTED_VERIFIED = "verified"
ATTESTED_ASSERTED = "asserted"
ATTESTED_UNKNOWN = "unknown"


class AttestationError(RuntimeError):
    """Division needed a nonpower attestation that is missing or false."""


class RatFunc(Field):
    """num/den with multivariate polynomial parts; den is never zero.

    No reduction is performed; comparisons cross-multiply.
    """

    __slots__ = ("num", "den")

    def __init__(self, num: MPoly, den: MPoly | None = None):
        if den is None:
            den = MPoly.constant(num.nvars, 1)
        if den.is_zero():
            raise ZeroDivisionError("rational function with zero denominator")
        if num.nvars != den.nvars:
            raise ValueError("numerator and denominator disagree on variables")
        object.__setattr__(self, "num", num)
        object.__setattr__(self, "den", den)

    @classmethod
    def zero(cls, nvars: int) -> "RatFunc":
        return cls(MPoly.zero(nvars))

    @classmethod
    def one(cls, nvars: int) -> "RatFunc":
        return cls(MPoly.constant(nvars, 1))

    @classmethod
    def constant(cls, nvars: int, value) -> "RatFunc":
        return cls(MPoly.constant(nvars, value))

    @property
    def nvars(self) -> int:
        return self.num.nvars

    def is_zero(self) -> bool:
        return self.num.is_zero()

    def _coerce(self, other):
        if isinstance(other, RatFunc):
            return other
        if isinstance(other, MPoly):
            return RatFunc(other)
        try:
            return RatFunc.constant(self.nvars, other)
        except TypeError:
            return None

    def _add(self, other):
        if self.den == other.den:
            return RatFunc(self.num + other.num, self.den)
        return RatFunc(
            self.num * other.den + other.num * self.den, self.den * other.den
        )

    def _mul(self, other):
        return RatFunc(self.num * other.num, self.den * other.den)

    def _eq(self, other):
        return self.num * other.den == other.num * self.den

    __add__, __mul__, __eq__ = map(coerced(_coerce), (_add, _mul, _eq))

    def __neg__(self):
        return RatFunc(-self.num, self.den)

    def inv(self) -> "RatFunc":
        if self.num.is_zero():
            raise ZeroDivisionError("inverse of the zero rational function")
        return RatFunc(self.den, self.num)

    def _one(self):
        return RatFunc.one(self.nvars)

    def as_poly(self) -> MPoly | None:
        """num/den as a polynomial when den divides num exactly, else None."""
        if self.den.is_constant():
            return self.num / self.den.constant_value()
        return divide_exact(self.num, self.den)

    def render(self, names=None) -> str:
        num = self.num.render(names)
        if self.den == MPoly.constant(self.nvars, 1):
            return num
        return f"({num})/({self.den.render(names)})"

    def __repr__(self):
        return f"RatFunc({self.render()})"


class TowerSpec:
    """Shape of one radical tower: variable count, prime radical degrees,
    defining elements, and per-level nonpower attestations.

    Levels are appended through add_level during construction; the
    defining element for level j + 1 must already live in this spec at
    level j, which is why building is incremental.
    """

    def __init__(self, n: int):
        if n < 1:
            raise ValueError("need at least one variable")
        self.n = n
        self.ks: list[int] = []
        self.ps: list[TowerElem] = []
        self.attestations: list[str] = []

    @property
    def s(self) -> int:
        return len(self.ks)

    def add_level(self, k: int, p: "TowerElem", attestation: str = ATTESTED_UNKNOWN):
        if not _is_prime(k):
            raise ValueError(
                f"radical degree {k} is not prime; factor composite degrees first"
            )
        if attestation not in (ATTESTED_VERIFIED, ATTESTED_ASSERTED, ATTESTED_UNKNOWN):
            raise ValueError(f"bad attestation {attestation!r}")
        p = self._coerce_elem(p)
        if p.level > self.s:
            raise ValueError(
                f"defining element of level {self.s + 1} must live at level "
                f"{self.s} or below, got level {p.level}"
            )
        p = self.lift(p, self.s)
        self.ks.append(k)
        self.ps.append(p)
        self.attestations.append(attestation)
        return self

    def set_attestation(self, level: int, value: str):
        if value not in (ATTESTED_VERIFIED, ATTESTED_ASSERTED, ATTESTED_UNKNOWN):
            raise ValueError(f"bad attestation {value!r}")
        self.attestations[level - 1] = value

    def _coerce_elem(self, value) -> "TowerElem":
        if isinstance(value, TowerElem):
            if not compatible(value.spec, self, upto=value.level):
                raise ValueError("element belongs to a different tower")
            return TowerElem(self, value.level, value.payload)
        if isinstance(value, RatFunc):
            return self.from_ratfunc(value)
        if isinstance(value, MPoly):
            return self.from_sigma_poly(value)
        return self.scalar(value)

    # -- element constructors ---------------------------------------------

    def from_ratfunc(self, rf: RatFunc) -> "TowerElem":
        if rf.nvars != self.n:
            raise ValueError(f"expected {self.n} sigma-variables, got {rf.nvars}")
        return TowerElem(self, 0, rf)

    def from_sigma_poly(self, poly: MPoly) -> "TowerElem":
        return self.from_ratfunc(RatFunc(poly))

    def scalar(self, value, level: int = 0) -> "TowerElem":
        base = TowerElem(self, 0, RatFunc.constant(self.n, value))
        return self.lift(base, level)

    def zero(self, level: int = 0) -> "TowerElem":
        return self.scalar(0, level)

    def one(self, level: int = 0) -> "TowerElem":
        return self.scalar(1, level)

    def generator(self, j: int) -> "TowerElem":
        """y_j as an element of level j."""
        if not 1 <= j <= self.s:
            raise ValueError(f"no generator y_{j} in a tower of height {self.s}")
        coords = [self.zero(j - 1)] * self.ks[j - 1]
        coords[1] = self.one(j - 1)
        return TowerElem(self, j, tuple(coords))

    def lift(self, e: "TowerElem", level: int) -> "TowerElem":
        if e.level > level:
            raise ValueError(f"cannot lower level {e.level} element to {level}")
        if level > self.s:
            raise ValueError(f"level {level} exceeds tower height {self.s}")
        while e.level < level:
            target = e.level + 1
            coords = [e] + [self.zero(e.level)] * (self.ks[target - 1] - 1)
            e = TowerElem(self, target, tuple(coords))
        return e

    def __repr__(self):
        return f"TowerSpec(n={self.n}, ks={self.ks})"


def compatible(a: TowerSpec, b: TowerSpec, upto: int | None = None) -> bool:
    """Structural agreement of two specs on the levels up to `upto`."""
    if a is b:
        return True
    if a.n != b.n:
        return False
    limit = min(a.s, b.s) if upto is None else upto
    if upto is not None and (a.s < upto or b.s < upto):
        return False
    if upto is None and a.s != b.s:
        return False
    if a.ks[:limit] != b.ks[:limit]:
        return False
    return all(a.ps[j]._same_payload(b.ps[j]) for j in range(limit))


class TowerElem(Field):
    """One element of the tower: a rational function at level 0, or a
    coefficient vector over the level below."""

    __slots__ = ("spec", "level", "payload")

    def __init__(self, spec: TowerSpec, level: int, payload):
        if level == 0:
            if not isinstance(payload, RatFunc):
                raise TypeError("level-0 payload must be a rational function")
        else:
            payload = tuple(payload)
            if level > spec.s:
                raise ValueError(f"level {level} exceeds tower height {spec.s}")
            if len(payload) != spec.ks[level - 1]:
                raise ValueError(
                    f"level-{level} vector needs {spec.ks[level - 1]} coordinates"
                )
            if any(c.level != level - 1 for c in payload):
                raise ValueError("coordinates must live one level down")
        object.__setattr__(self, "spec", spec)
        object.__setattr__(self, "level", level)
        object.__setattr__(self, "payload", payload)

    @property
    def coords(self):
        if self.level == 0:
            raise ValueError("level-0 elements have no coordinate vector")
        return self.payload

    @property
    def ratfunc(self) -> RatFunc:
        if self.level != 0:
            raise ValueError("only level-0 elements wrap a rational function")
        return self.payload

    def is_zero(self) -> bool:
        if self.level == 0:
            return self.payload.is_zero()
        return all(c.is_zero() for c in self.payload)

    def _same_payload(self, other: "TowerElem") -> bool:
        if self.level != other.level:
            return False
        if self.level == 0:
            return self.payload._eq(other.payload)
        return all(a._same_payload(b) for a, b in zip(self.payload, other.payload))

    # -- arithmetic --------------------------------------------------------

    def _coerce(self, other):
        if isinstance(other, TowerElem):
            if not compatible(
                self.spec, other.spec, upto=max(self.level, other.level)
            ):
                raise ValueError("elements belong to different towers")
            return other
        return self.spec._coerce_elem(other) if _scalar_like(other) else None

    def _pair(self, other):
        lvl = max(self.level, other.level)
        return self.spec.lift(self, lvl), self.spec.lift(other, lvl)

    @coerced(_coerce)
    def __add__(self, other):
        a, b = self._pair(other)
        return a._add(b)

    def __neg__(self):
        if self.level == 0:
            return TowerElem(self.spec, 0, -self.payload)
        return TowerElem(self.spec, self.level, tuple(-c for c in self.payload))

    @coerced(_coerce)
    def __mul__(self, other):
        a, b = self._pair(other)
        return a._mul(b)

    def _one(self):
        return self.spec.one(self.level)

    @coerced(_coerce)
    def __eq__(self, other):
        a, b = self._pair(other)
        return a._same_payload(b)

    def _add(self, other):
        if self.level == 0:
            return TowerElem(self.spec, 0, self.payload._add(other.payload))
        coords = map(TowerElem._add, self.payload, other.payload)
        return TowerElem(self.spec, self.level, coords)

    def _mul(self, other):
        """The product of two coordinate vectors of one level, summed into
        empty (None) slots and folded modulo y^k - rho."""
        spec, level = self.spec, self.level
        if level == 0:
            return TowerElem(spec, 0, self.payload._mul(other.payload))
        k = spec.ks[level - 1]
        raw = [None] * (2 * k - 1)
        for i, ca in enumerate(self.payload):
            if ca.is_zero():
                continue
            for j, cb in enumerate(other.payload):
                if not cb.is_zero():
                    raw[i + j] = _accumulate(raw[i + j], ca._mul(cb))
        _fold(raw, k, spec.ps[level - 1])
        return TowerElem(spec, level, raw)

    def inverse(self) -> "TowerElem":
        """Multiplicative inverse through the absolute norm: a^-1 = adj(a) / N(a).

        At level j, _adjugate gives adj(x) with x * adj(x) = N(x) one
        level down.  Walking x down the tower that way multiplies the
        adjugates into adj(a) and leaves the absolute norm N(a) at level 0
        (transitivity of the norm), so the one division is by N(a) at the
        end, after the fraction-free check a * adj(a) == N(a).  Every level
        walked requires a nonpower attestation; a zero norm means x is a
        zero divisor modulo y_j^k - rho, which refutes the attestation and
        raises instead of returning garbage.
        """
        if self.is_zero():
            raise ZeroDivisionError("inverse of zero in the tower")
        # adj starts empty: a multiply by one costs 7% of a level-1 inverse
        spec, x, adj = self.spec, self, None
        while x.level:
            level = x.level
            att = spec.attestations[level - 1]
            if att == ATTESTED_UNKNOWN:
                raise AttestationError(
                    f"level {level} has no nonpower attestation; cannot divide"
                )
            # a lifted lower-level element needs no k-fold norm
            if all(c.is_zero() for c in x.payload[1:]):
                x = x.payload[0]
                continue
            others, x = _adjugate(x)
            adj = others if adj is None else adj * others
            if x.is_zero():
                raise AttestationError(
                    f"defining polynomial at level {level} is reducible; the "
                    f"nonpower attestation ({att}) is refuted"
                )
        adj = spec.lift(spec.one(0) if adj is None else adj, self.level)
        if not (self * adj == x):
            raise AssertionError("inverse failed its own check")
        return adj * TowerElem(spec, 0, x.payload.inv())

    inv = inverse

    # -- display -----------------------------------------------------------

    def render(self, sigma_names=None) -> str:
        if sigma_names is None:
            sigma_names = [f"s{i}" for i in range(1, self.spec.n + 1)]
        if self.level == 0:
            return self.payload.render(sigma_names)
        parts = []
        for m, c in enumerate(self.payload):
            if c.is_zero():
                continue
            body = c.render(sigma_names)
            gen = f"y{self.level}" if m else ""
            if m > 1:
                gen = f"y{self.level}^{m}"
            if not gen:
                parts.append(body)
            elif body == "1":
                parts.append(gen)
            else:
                needs_parens = ("+" in body or "-" in body[1:] or "/" in body)
                parts.append(f"({body})*{gen}" if needs_parens else f"{body}*{gen}")
        return " + ".join(parts) if parts else "0"

    def __repr__(self):
        return f"TowerElem(level={self.level}, {self.render()})"


def _scalar_like(x):
    return isinstance(x, (int, Fraction, CycScalar, MPoly, RatFunc))


def _accumulate(slot, term: TowerElem) -> TowerElem:
    return term if slot is None else slot._add(term)


def _fold(raw: list, k: int, rho: TowerElem) -> list:
    """Reduce the coefficient list raw modulo y^k - rho in place: from the
    top, y^m becomes y^(m-k) * rho, empty (None) and zero coefficients
    skipped.  raw keeps its k low coefficients, the empty ones filled with
    zero, and the folded ones come back as the quotient, lowest degree
    first."""
    for m in range(len(raw) - 1, k - 1, -1):
        c = raw[m]
        if c is not None and not c.is_zero():
            raw[m - k] = _accumulate(raw[m - k], c._mul(rho))
    quotient = raw[k:]
    del raw[k:]
    if any(c is None for c in raw):
        zero = rho.spec.zero(rho.level)
        raw[:] = [zero if c is None else c for c in raw]
    return quotient


def _adjugate(x: TowerElem):
    """adj(x) and N(x) = x * adj(x) one level down, by the Faddeev-LeVerrier
    recurrence on multiplication by x (Cohen, A Course in Computational
    Algebraic Number Theory, Algorithm 2.2.7), whose trace in the basis
    1, y, ..., y^(k-1) is Tr(z) = k * z_0 (Lang, Algebra, Ch. VI, Sec. 5):
    M_1 = 1 and M_(m+1) = x*M_m + c_m with c_m = -k * (x*M_m)_0 / m end in
    x*M_k = (-1)^(k+1) * N(x) after k - 1 products."""
    k, prod = x.spec.ks[x.level - 1], x  # x*M_1 = x costs no product
    for m in range(1, k):
        head = _scale(prod.payload[0], Fraction(m - k, m))  # (x*M_m)_0 + c_m
        others = TowerElem(x.spec, x.level, (head,) + prod.payload[1:])
        prod = x * others
    if k == 2:  # k is prime, so 2 is its one even value
        others, prod = -others, -prod
    return others, prod.coords[0]


# ---------------------------------------------------------------------------
# conjugation


def _scale(e: TowerElem, factor: CycScalar | Fraction) -> TowerElem:
    if e.level == 0:
        rf = e.payload
        return TowerElem(
            e.spec, 0, RatFunc(rf.num * factor, rf.den)
        )
    return TowerElem(e.spec, e.level, tuple(_scale(c, factor) for c in e.payload))


def conjugate(e: TowerElem, j: int, power: int) -> TowerElem:
    """The automorphism sending y_j to w_(k_j)^power * y_j, identity on the
    rest of the tower."""
    if not 1 <= j <= e.spec.s:
        raise ValueError(f"no level {j} in this tower")
    if e.level < j:
        return e
    if e.level > j:
        return TowerElem(
            e.spec, e.level, tuple(conjugate(c, j, power) for c in e.payload)
        )
    k = e.spec.ks[j - 1]
    eps = [CycScalar(k, [0] * m + [1]) for m in range(k)]  # w_k^m, reduced
    out = [_scale(c, eps[power * m % k]) if m else c for m, c in enumerate(e.payload)]
    return TowerElem(e.spec, j, tuple(out))


# ---------------------------------------------------------------------------
# nonpower checking


class NonpowerResult(Frozen):
    __slots__ = ("level", "k", "status", "root", "detail")

    def __init__(self, level: int, k: int, status: str, root: TowerElem | None = None,
                 detail: str = ""):
        object.__setattr__(self, "level", level)
        object.__setattr__(self, "k", k)
        object.__setattr__(self, "status", status)  # "verified" | "refuted" | "undecided"
        object.__setattr__(self, "root", root)
        object.__setattr__(self, "detail", detail)


def nonpower_check(spec: TowerSpec, level: int) -> NonpowerResult:
    """Decide, where possible, that p_(level-1) is not a k_level-th power
    one level down.

    At level 1 the question reduces to kth_root_poly: A/B is a k-th power
    iff A*B^(k-1) is one.  A refutation carries the root, which may lie
    in a larger cyclotomic field (2*s1^2 = ((w(8) - w(8)^3)*s1)^2), and
    "undecided" is left only where the leading coefficient's root is out
    of reach: a non-rational coefficient.  Deeper levels refute literal
    constants with the same scalar root and otherwise return "undecided",
    also for a constant with no cyclotomic root, which may still have one
    in the tower (with y1^3 = 2, the level y2^3 = 2 has the root y1).
    """
    if not 1 <= level <= spec.s:
        raise ValueError(f"no level {level} in this tower")
    k = spec.ks[level - 1]
    rho = spec.ps[level - 1]
    if rho.is_zero():
        return NonpowerResult(level, k, "refuted", spec.zero(level - 1), "rho = 0^k")
    if level == 1:
        rf = rho.payload
        candidate = rf.num * rf.den ** (k - 1)
        outcome = kth_root_poly(candidate, k)
        if outcome is NO_ROOT:
            return NonpowerResult(
                level, k, "verified",
                detail=f"num*den^{k - 1} has no polynomial {k}-th root",
            )
        if outcome is UNDECIDED:
            return NonpowerResult(
                level, k, "undecided",
                detail="root extraction stalled on a constant factor",
            )
        root = TowerElem(spec, 0, RatFunc(outcome, rf.den))
        return NonpowerResult(level, k, "refuted", root, "explicit root found")
    flat = _constant_scalar(rho)
    if flat is not None:
        root = _scalar_kth_root(flat, k)
        if isinstance(root, CycScalar):
            return NonpowerResult(
                level, k, "refuted", spec.scalar(root, level - 1), "constant root"
            )
    return NonpowerResult(
        level, k, "undecided",
        detail="no syntactic certificate for a nested radical level",
    )


def _constant_scalar(e: TowerElem):
    """The value of e when it is a literal constant."""
    if e.level == 0:
        num, den = e.payload.num, e.payload.den
        if num.is_constant() and den.is_constant():
            return num.constant_value() / den.constant_value()
        return None
    head = _constant_scalar(e.payload[0])
    if head is None:
        return None
    if any(not c.is_zero() for c in e.payload[1:]):
        return None
    return head


# ---------------------------------------------------------------------------
# annihilation certificates


class AnnihilationReport:
    def __init__(self, level: int, k: int, remainder: list, quotient: list,
                 lines: list | None = None):
        self.level, self.k, self.remainder, self.quotient = level, k, remainder, quotient
        self.lines = [] if lines is None else lines

    @property
    def annihilates(self) -> bool:
        return all(c.is_zero() for c in self.remainder)

    def __str__(self):
        return "\n".join(self.lines)


def check_annihilation(spec: TowerSpec, level: int, q_coeffs) -> AnnihilationReport:
    """Reduce Q(t) modulo t^k - rho for the given level.

    A zero remainder certifies that Q vanishes on the level generator and
    on every conjugate w^j * y simultaneously, since (w^j y)^k = rho as
    well.  The reduction is the fold that tower products use, on Q padded
    to k coefficients; t^k - rho is monic, so it inverts nothing and needs
    no nonpower attestation.  The remainder (k coefficients) and the
    quotient (no trailing zeros) come back for inspection either way.
    """
    if not 1 <= level <= spec.s:
        raise ValueError(f"no level {level} in this tower")
    below = level - 1
    k = spec.ks[below]
    rho = spec.ps[below]
    rem = [spec.lift(spec._coerce_elem(c), below) for c in q_coeffs]
    rem += [None] * (k - len(rem))
    quo = _fold(rem, k, rho)
    while quo and quo[-1].is_zero():
        quo.pop()
    report = AnnihilationReport(level=level, k=k, remainder=rem, quotient=quo)
    if report.annihilates:
        report.lines.append(
            f"remainder of Q modulo t^{k} - p_{below} is 0: Q annihilates the "
            f"level-{level} generator and all {k} of its conjugates"
        )
    else:
        nonzero = next(i for i, c in enumerate(rem) if not c.is_zero())
        report.lines.append(
            f"remainder is nonzero (degree-{nonzero} coefficient survives); "
            "no annihilation certificate"
        )
    return report


# ---------------------------------------------------------------------------
# witness expansion


def witness_ratfunc(w) -> RatFunc:
    """A witness, given as an MPoly or a RatFunc in x_1..x_n, as a RatFunc."""
    return RatFunc(w) if isinstance(w, MPoly) else w


def expand_with_witnesses(e: TowerElem, witnesses) -> RatFunc:
    """Interpret a tower element as a rational function of x_1..x_n by
    sending sigma_i to the elementary symmetric polynomial and y_j to the
    j-th witness polynomial."""
    n = e.spec.n
    if e.level == 0:
        images = sigma_images(n)
        num = substitute(e.payload.num, images, out_nvars=n)
        den = substitute(e.payload.den, images, out_nvars=n)
        if den.is_zero():
            raise ZeroDivisionError(
                "denominator vanishes identically under the witness substitution"
            )
        return RatFunc(num, den)
    wrf = witness_ratfunc(witnesses[e.level - 1])
    total = RatFunc.zero(n)
    power = RatFunc.one(n)
    for m, c in enumerate(e.payload):
        if m:
            power = power * wrf
        if not c.is_zero():
            total = total + expand_with_witnesses(c, witnesses) * power
    return total


class IdentityRecord:
    def __init__(self, name: str, ok: bool, detail: str = ""):
        self.name, self.ok, self.detail = name, ok, detail

    @classmethod
    def of(cls, name: str, diff: MPoly) -> "IdentityRecord":
        """The record of the identity whose two sides differ by diff."""
        ok = diff.is_zero()
        return cls(name=name, ok=ok, detail="" if ok else leading_term_text(diff))

    def line(self) -> str:
        mark = "PASS" if self.ok else "FAIL"
        out = f"{mark}  {self.name}"
        if self.detail and not self.ok:
            out += f"  [{self.detail}]"
        return out


class WitnessReport:
    def __init__(self, records: list):
        self.records = records

    @property
    def all_pass(self) -> bool:
        return all(r.ok for r in self.records)

    def first_failure(self) -> IdentityRecord | None:
        return next((r for r in self.records if not r.ok), None)

    def lines(self):
        return [r.line() for r in self.records]

    def __str__(self):
        return "\n".join(self.lines())


def leading_term_text(diff: MPoly) -> str:
    exps, coeff = diff.leading_term()
    mono = "*".join(
        f"x{i + 1}^{e}" if e > 1 else f"x{i + 1}" for i, e in enumerate(exps) if e
    ) or "1"
    return f"difference has leading term {coeff}*{mono}"


def witness_check(
    spec: TowerSpec, witnesses, target: TowerElem | None = None
) -> WitnessReport:
    """Verify witness_j^(k_j) = p_(j-1) under the witness interpretation for
    every level, and optionally that the target element expands to x_1."""
    if len(witnesses) != spec.s:
        raise ValueError(f"need {spec.s} witnesses, got {len(witnesses)}")
    n = spec.n
    records = []
    for j in range(1, spec.s + 1):
        wrf = witness_ratfunc(witnesses[j - 1])
        k = spec.ks[j - 1]
        lhs = wrf ** k
        rhs = expand_with_witnesses(spec.ps[j - 1], witnesses)
        records.append(IdentityRecord.of(
            f"witness_{j}^{k} = p_{j - 1}(sigma, witnesses)",
            lhs.num * rhs.den - rhs.num * lhs.den,
        ))
    if target is not None:
        x1 = RatFunc(MPoly.variable(n, 1))
        expanded = expand_with_witnesses(spec.lift(target, spec.s), witnesses)
        records.append(IdentityRecord.of(
            "x_1 = target(sigma, witnesses)",
            x1.num * expanded.den - expanded.num * x1.den,
        ))
    return WitnessReport(records=records)
