"""Sparse multivariate polynomials over the cyclotomic-rational scalars.

A polynomial in x_1..x_n over Q(w_N) is a dict from packed monomials to
nonzero int numerators over one positive denominator coprime to them
(zero has 1), with its variable count and order N: FLINT fmpq_mpoly's
rational content over an integer polynomial, so arithmetic runs on ints
and a Fraction appears only when a coefficient is read out.  A packed
monomial is one int of FIELD_BITS-wide fields: from the top, the total
degree, the exponents of x_1..x_n, and the exponent of w_N, kept below
phi(N) by cyclotomic.reduce_phi.  So graded-lex order (total degree,
then the exponent tuple; used everywhere) is int comparison, a monomial
product is one int addition, and a coefficient is the set of keys that
differ only in the w-field.  An exponent too large for its field raises
ExponentOverflowError; a carry is never silent.  N is the lcm of the
orders of the non-rational coefficients, 1 if there are none.  The form
is canonical, so structural equality is semantic equality.  `terms`
rebuilds the {exponent tuple: CycScalar} view on every access.

Substitution expands by a multivariate Horner scheme whose step
acc * power + low is one product loop into low's numerators.  Beyond
ring arithmetic this module carries the symmetric-function kit:
elementary symmetric polynomials, invariance tests under the full and
the even (alternating) symmetric group, rewriting symmetric polynomials
in the elementary basis by e-to-m transition counts, and the one exact
k-th root extractor.  It takes its leading coefficient's root from exact
rational roots and, for k = 2, from quadratic Gauss sums, so it answers
UNDECIDED only for a non-rational leading coefficient or an irrational
root for k >= 3.
"""

from __future__ import annotations

import functools
import itertools
import math
import types
from fractions import Fraction

from radform.cyclotomic import (
    FIELD_BITS,
    FIELD_MASK,
    ORDER_CAP,
    CycScalar,
    Frozen,
    Ring,
    capped,
    coerced,
    euler_phi,
    join_terms,
    mul_terms,
    power,
    project,
    reduce_phi,
    root_of_unity,
    term_text,
)

__all__ = [
    "ElemSymBasisExpr",
    "ExponentOverflowError",
    "MPoly",
    "NO_ROOT",
    "NotSymmetricError",
    "UNDECIDED",
    "divide_exact",
    "elem_sym",
    "evaluate",
    "is_even_symmetric",
    "is_symmetric",
    "kth_root_poly",
    "permute_vars",
    "sigma_images",
    "substitute",
    "symmetrize",
]


class NotSymmetricError(ValueError):
    """Input fails the required symmetry; carries a violating permutation."""

    def __init__(self, message, witness=None):
        super().__init__(message)
        self.witness = witness


class ExponentOverflowError(OverflowError):
    """An exponent does not fit its packed field."""

    def __init__(self, index):
        super().__init__(f"exponent of x{index} overflows its {FIELD_BITS}-bit field")
        self.index = index


def _shift(nvars, index):
    """Bit offset of the field of x_index (1-based)."""
    return FIELD_BITS * (nvars - index + 1)


def _variable_key(nvars, index):
    """The packed key of the monomial x_index (1-based)."""
    return 1 << FIELD_BITS * (nvars + 1) | 1 << _shift(nvars, index)


def _pack(exps) -> int:
    key = sum(exps)
    for i, e in enumerate(exps, start=1):
        if e > FIELD_MASK:
            raise ExponentOverflowError(i)
        key = key << FIELD_BITS | e
    return key << FIELD_BITS


def _exps(key, nvars) -> tuple:
    """The x-exponent tuple of a packed key."""
    return tuple(key >> s & FIELD_MASK for s in range(FIELD_BITS * nvars, 0, -FIELD_BITS))


def _scalar_terms(value):
    """(order, {w-exponent: numerator}, denominator) of an int, Fraction or
    CycScalar."""
    if isinstance(value, (int, Fraction)):
        return 1, ({0: value.numerator} if value else {}), value.denominator
    if isinstance(value, CycScalar):
        den = math.lcm(*(c.denominator for c in value.coeffs))
        return value.order, {
            j: c.numerator * (den // c.denominator) for j, c in enumerate(value.coeffs) if c
        }, den
    raise TypeError(f"cannot use {type(value).__name__} as a coefficient")


def _lift(terms, order, target):
    """Packed terms of order `order` rewritten in Q(w_target)."""
    if order == target or order == 1:
        return terms
    step = target // order - 1
    lifted = reduce_phi({k + (k & FIELD_MASK) * step: c for k, c in terms.items()}, target)
    return {k: c for k, c in lifted.items() if c}


def _grouped(terms):
    """{key with a zero w-field: {w-exponent: coefficient}}."""
    groups = {}
    for k, c in terms.items():
        w = k & FIELD_MASK
        groups.setdefault(k - w, {})[w] = c
    return groups


def _make(nvars, order, terms, den=1, poly=None) -> "MPoly":
    """The polynomial terms / den (den > 0) owning `terms`: zero numerators
    are dropped in place and a factor common to den and them divided out.
    Every MPoly is built here, so a term is touched again only when there
    is something to drop or divide, and the slots are set through their
    descriptors (Frozen.__setattr__ refuses)."""
    if 0 in terms.values():
        for k in [k for k, c in terms.items() if not c]:
            del terms[k]
    if den > 1 and (g := math.gcd(den, *terms.values())) > 1:
        den //= g
        for k in terms:
            terms[k] //= g
    if order > 1 and not any(k & FIELD_MASK for k in terms):
        order = 1
    return _new(nvars, order, terms, den, poly)


def _new(nvars, order, terms, den, poly=None) -> "MPoly":
    """The polynomial with these slots, terms already in _make's form."""
    poly = object.__new__(MPoly) if poly is None else poly
    _set_nvars(poly, nvars)
    _set_order(poly, order)
    _set_terms(poly, terms)
    _set_den(poly, den)
    return poly


def _check_fields(p, q, nvars):
    """Raise ExponentOverflowError if an exponent of the product of the
    nonempty term dicts p and q would not fit its field."""
    degree = FIELD_BITS * (nvars + 1)
    # no exponent exceeds the total degree, so the fields need checking
    # one by one only when the two degrees add up past a field
    if (max(p) >> degree) + (max(q) >> degree) > FIELD_MASK:
        tops = [[max(e) for e in zip(*(_exps(k, nvars) for k in t))] for t in (p, q)]
        for i, (a, b) in enumerate(zip(*tops), start=1):
            if a + b > FIELD_MASK:
                raise ExponentOverflowError(i)


def _scaled(terms, factor):
    """The numerator dict times an integer (the dict itself for 1)."""
    return terms if factor == 1 else {k: c * factor for k, c in terms.items()}


def _combine(p, q, sign):
    """p + sign * q on packed term dicts of one order."""
    out = dict(p)
    get = out.get
    for k, c in q.items():
        out[k] = get(k, 0) + sign * c
    return out


class MPoly(Ring):
    """Polynomial in nvars variables with exact cyclotomic coefficients."""

    __slots__ = ("nvars", "order", "_terms", "_den")

    def __init__(self, nvars: int, terms=None):
        if nvars < 0:
            raise ValueError("nvars must be nonnegative")
        order, den, staged = 1, 1, []
        for exps, coeff in (terms or {}).items():
            exps = tuple(int(e) for e in exps)
            if len(exps) != nvars or any(e < 0 for e in exps):
                raise ValueError(f"bad exponent tuple {exps} for nvars={nvars}")
            c_order, c_terms, c_den = _scalar_terms(coeff)
            staged.append((_pack(exps), c_order, c_terms, c_den))
            order, den = math.lcm(order, c_order), math.lcm(den, c_den)
        packed = {}
        for key, c_order, c_terms, c_den in staged:
            for w, c in _lift(c_terms, c_order, order).items():
                packed[key + w] = packed.get(key + w, 0) + c * (den // c_den)
        _make(nvars, order, packed, den, self)

    @property
    def terms(self):
        """Read-only {exponent tuple: CycScalar} view, rebuilt on each access."""
        return types.MappingProxyType({
            _exps(x, self.nvars): self._scalar(ws)
            for x, ws in _grouped(self._terms).items()
        })

    def _scalar(self, ws) -> CycScalar:
        """The coefficient with the numerators {w-exponent: numerator}."""
        phi, den = euler_phi(self.order), self._den
        return CycScalar(self.order, [Fraction(ws.get(j, 0), den) for j in range(phi)])

    # -- constructors ------------------------------------------------------

    @classmethod
    def zero(cls, nvars: int) -> "MPoly":
        return _make(nvars, 1, {})

    @classmethod
    def constant(cls, nvars: int, value) -> "MPoly":
        return _make(nvars, *_scalar_terms(value))

    @classmethod
    def variable(cls, nvars: int, index: int) -> "MPoly":
        """The monomial x_index; indices are 1-based."""
        if not 1 <= index <= nvars:
            raise ValueError(f"variable index {index} out of range 1..{nvars}")
        return _make(nvars, 1, {_variable_key(nvars, index): 1})

    @classmethod
    def monomial(cls, nvars: int, exps, coeff=1) -> "MPoly":
        return cls(nvars, {tuple(exps): coeff})

    # -- basic queries -----------------------------------------------------

    def is_zero(self) -> bool:
        return not self._terms

    def total_degree(self) -> int:
        """Largest term degree; -1 for the zero polynomial."""
        if not self._terms:
            return -1
        return max(self._terms) >> FIELD_BITS * (self.nvars + 1)

    def leading_term(self):
        """Graded-lex maximal (exponents, coefficient); None when zero."""
        if not self._terms:
            return None
        top, ws = self._lead()
        return _exps(top, self.nvars), self._scalar(ws)

    def _lead(self):
        """(key of the leading x-monomial, its {w-exponent: coefficient})."""
        top = max(self._terms)
        top -= top & FIELD_MASK
        return top, self._ws(top)

    def _ws(self, key):
        get = self._terms.get
        return {j: c for j in range(euler_phi(self.order)) if (c := get(key + j))}

    def is_constant(self) -> bool:
        return not self._terms or max(self._terms) >> FIELD_BITS == 0

    def constant_value(self) -> CycScalar:
        if not self._terms:
            return CycScalar.zero()
        if not self.is_constant():
            raise ValueError("polynomial is not constant")
        return self._scalar(self._ws(0))

    def support_vars(self):
        """1-based indices of variables that actually occur."""
        used = 0
        for k in self._terms:
            used |= k
        n = self.nvars
        return {i for i in range(1, n + 1) if used >> _shift(n, i) & FIELD_MASK}

    def pad_vars(self, nvars: int) -> "MPoly":
        """Reinterpret in a larger variable list; new variables are unused."""
        if nvars < self.nvars:
            raise ValueError("pad_vars cannot shrink the variable list")
        up = FIELD_BITS * (nvars - self.nvars)
        return _make(nvars, self.order, {
            (k - (k & FIELD_MASK) << up) + (k & FIELD_MASK): c
            for k, c in self._terms.items()
        }, self._den)

    # -- ring arithmetic ---------------------------------------------------

    def _coerce(self, other):
        if isinstance(other, MPoly):
            if other.nvars != self.nvars:
                raise ValueError(
                    f"variable count mismatch: {self.nvars} vs {other.nvars}"
                )
            return other
        if isinstance(other, (int, Fraction, CycScalar)):
            return MPoly.constant(self.nvars, other)
        return None

    def _aligned(self, other):
        """Both packed term dicts lifted to one order, and that order."""
        if self.order == other.order:
            return self._terms, other._terms, self.order
        m = capped(math.lcm(self.order, other.order))
        return _lift(self._terms, self.order, m), _lift(other._terms, other.order, m), m

    def _summands(self, other):
        """Both numerator dicts aligned and scaled to the lcm of the two
        denominators, the order and that lcm."""
        p, q, order = self._aligned(other)
        den = math.lcm(self._den, other._den)
        return _scaled(p, den // self._den), _scaled(q, den // other._den), order, den

    @coerced(_coerce)
    def __add__(self, other):
        p, q, order, den = self._summands(other)
        if len(p) < len(q):
            p, q = q, p
        return _make(self.nvars, order, _combine(p, q, 1), den)

    def __neg__(self):
        return _make(self.nvars, self.order, {k: -c for k, c in self._terms.items()}, self._den)

    @coerced(_coerce)
    def __sub__(self, other):
        p, q, order, den = self._summands(other)
        return _make(self.nvars, order, _combine(p, q, -1), den)

    @coerced(_coerce)
    def __mul__(self, other):
        p, q, order = self._aligned(other)
        if not p or not q:
            return MPoly.zero(self.nvars)
        _check_fields(p, q, self.nvars)
        return _make(self.nvars, order, mul_terms(p, q, order), self._den * other._den)

    def __truediv__(self, other):
        """Division by a nonzero scalar only."""
        if isinstance(other, MPoly):
            if not other.is_constant():
                return NotImplemented
            other = other.constant_value()
        if isinstance(other, CycScalar) and other.is_rational():
            other = other.coeffs[0]
        if isinstance(other, (int, Fraction)):
            return self * (1 / Fraction(other))
        if not isinstance(other, CycScalar):
            return NotImplemented
        return self * other.inv()

    def __pow__(self, exponent: int):
        if not isinstance(exponent, int) or exponent < 0:
            return NotImplemented
        return power(self, exponent, lambda: MPoly.constant(self.nvars, 1))

    def __eq__(self, other):
        if isinstance(other, (int, Fraction, CycScalar)):
            other = MPoly.constant(self.nvars, other)
        if not isinstance(other, MPoly):
            return NotImplemented
        if self.nvars != other.nvars:
            return False
        p, q, _ = self._aligned(other)
        return self._den == other._den and p == q

    # -- display -----------------------------------------------------------

    def __repr__(self):
        return f"MPoly({self.nvars}, {len(_grouped(self._terms))} terms)"

    def __str__(self):
        return self.render()

    def render(self, names=None) -> str:
        """Human-readable form, terms in descending graded-lex order, the
        coefficients written at the smallest order that holds all of them,
        so equal polynomials print alike however their order arose."""
        if not self._terms:
            return "0"
        if names is None:
            names = [f"x{i}" for i in range(1, self.nvars + 1)]
        items = sorted(_grouped(self._terms).items(), reverse=True)
        scalars = [self._scalar(ws) for _, ws in items]
        for d in range(2, self.order):
            if self.order % d == 0:
                low = list(itertools.takewhile(lambda c: c is not None, (
                    c if c.is_rational() else project(c, d) for c in scalars)))
                if len(low) == len(scalars):
                    scalars = low
                    break
        parts = []
        for (key, _), scalar in zip(items, scalars):
            body = "*".join(
                name if e == 1 else f"{name}^{e}"
                for name, e in zip(names, _exps(key, self.nvars)) if e
            )
            cs = str(scalar)
            if " " in cs or cs.startswith("-") and body:
                if not (cs.lstrip("-").replace("/", "").isdigit()):
                    cs = f"({cs})"
            parts.append(term_text(cs, body))
        return join_terms(parts)


_set_nvars, _set_order, _set_terms, _set_den = (
    MPoly.__dict__[slot].__set__ for slot in ("nvars", "order", "_terms", "_den")
)


# ---------------------------------------------------------------------------
# substitution and evaluation


def substitute(f: MPoly, images: dict, out_nvars: int | None = None) -> MPoly:
    """Replace variable i by images[i] (1-based keys) everywhere in f.

    Every variable occurring in f must be covered.  Non-MPoly images are
    treated as constants; out_nvars fixes the output arity when no image
    is a polynomial.  Expansion is by a multivariate Horner scheme: f is
    grouped by the exponent of the variable whose image has the lowest
    degree, each group is expanded in the other variables, and the groups
    are folded from the top degree down, so a partial sum is only ever
    multiplied by a cached power of one image.
    """
    arities = {v.nvars for v in images.values() if isinstance(v, MPoly)}
    if len(arities) > 1:
        raise ValueError(f"images disagree on variable count: {sorted(arities)}")
    if arities and out_nvars not in (None, *arities):
        raise ValueError("out_nvars contradicts the polynomial images")
    target = arities.pop() if arities else f.nvars if out_nvars is None else out_nvars
    missing = f.support_vars() - set(images)
    if missing:
        raise ValueError(f"no image for variable(s) {sorted(missing)}")
    prepared = {
        k: v if isinstance(v, MPoly) else MPoly.constant(target, v)
        for k, v in images.items()
    }
    order = sorted(f.support_vars(), key=lambda i: (prepared[i].total_degree(), i))
    terms = [(_exps(k, f.nvars), ws) for k, ws in _grouped(f._terms).items()]
    out = _horner(terms, order, prepared, {}, (target, f.order))
    return out if f._den == 1 else out * Fraction(1, f._den)


def _horner(terms, order, images, powers, shape):
    """The Horner scheme of substitute: terms expanded in the variables of
    order into a polynomial of shape (nvars, order), with powers caching
    images[i] ** d under (i, d)."""
    if not order or not terms:  # one term left, or none
        return _make(*shape, terms[0][1] if terms else {})
    i, groups = order[0], {}
    for exps, ws in terms:
        groups.setdefault(exps[i - 1], []).append((exps, ws))
    degrees = sorted(groups, reverse=True)
    acc = _horner(groups[degrees[0]], order[1:], images, powers, shape)
    for high, low in zip(degrees, degrees[1:] + [0]):
        if high > low:
            if (i, high - low) not in powers:
                powers[i, high - low] = images[i] ** (high - low)
            rest = _horner(groups.get(low, []), order[1:], images, powers, shape)
            acc = _mul_add(acc, powers[i, high - low], rest)
    return acc


def _mul_add(a, b, c):
    """a * b + c (a Horner step) in one product loop and one _make: the
    product accumulates into c's numerators, over lcm(den_a * den_b, den_c)
    in the lcm of the orders.  Only a product of two non-rational factors
    whose order does not divide c's goes through the operators: it may
    fall into Q, and then the sum has c's order."""
    p, q, order = a._aligned(b)
    if not p or not q:
        return c
    if a.order > 1 and b.order > 1 and c.order > 1 and c.order % order:
        return a * b + c
    _check_fields(p, q, a.nvars)
    m, den = math.lcm(order, c.order), math.lcm(a._den * b._den, c._den)
    if len(p) > len(q):
        p, q = q, p
    p = _scaled(_lift(p, order, m), den // (a._den * b._den))
    acc = {k: v * (den // c._den) for k, v in _lift(c._terms, c.order, m).items()}
    return _make(a.nvars, m, mul_terms(p, _lift(q, order, m), m, acc), den)


def evaluate(f: MPoly, point) -> CycScalar:
    """Exact value of f at a tuple of cyclotomic scalars."""
    if len(point) != f.nvars:
        raise ValueError(f"need {f.nvars} coordinates, got {len(point)}")
    images = {i: MPoly.constant(0, p) for i, p in enumerate(point, start=1)}
    return substitute(f, images, out_nvars=0).constant_value()


# ---------------------------------------------------------------------------
# variable permutation and symmetry tests


@functools.lru_cache(maxsize=1024)
def _action(images: tuple, nvars: int):
    """x_i -> x_images[i-1] on packed keys, validated once per (images,
    nvars): the mask of the fields it keeps, and per distance moved the
    mask of the fields moved and the shift (right when negative)."""
    if sorted(images) != list(range(1, nvars + 1)):
        raise ValueError(f"{images} is not a permutation of 1..{nvars}")
    shifts = {}
    for i, m in enumerate(images, 1):
        if m != i:
            shifts[i - m] = shifts.get(i - m, 0) | FIELD_MASK << _shift(nvars, i)
    return ~sum(shifts.values()), tuple((mask, FIELD_BITS * d) for d, mask in shifts.items())


def _relabelled(f: MPoly, images: tuple) -> dict:
    """f's term dict with x_i -> x_images[i-1].  A relabelling is a bijection
    on monomials, so no two keys meet and nothing needs normalising; it
    keeps order and denominator, so f is fixed iff the dicts are equal."""
    keep, moves = _action(images, f.nvars)
    out = {}
    for k, c in f._terms.items():
        new = k & keep
        for mask, s in moves:
            new |= (k & mask) << s if s > 0 else (k & mask) >> -s
        out[new] = c
    return out


def permute_vars(f: MPoly, alpha) -> MPoly:
    """f with variable i replaced by x_alpha(i); alpha gives 1-based images."""
    return _new(f.nvars, f.order, _relabelled(f, tuple(getattr(alpha, "images", alpha))), f._den)


def _cycle(n: int, *cycle) -> tuple:
    """The image tuple of one cycle on 1..n."""
    images = list(range(1, n + 1))
    for a, b in zip(cycle, cycle[1:] + cycle[:1]):
        images[a - 1] = b
    return tuple(images)


@functools.cache
def _generators(n: int, even: bool) -> tuple:
    """Image tuples of the two generators of S_n named by is_symmetric, or if
    even of A_n named by is_even_symmetric; none for a trivial group."""
    if n < 2 + even:
        return ()
    first = _cycle(n, 1, 2, 3) if even else _cycle(n, 1, 2)
    long = _cycle(n, *range(2 if even and n % 2 == 0 else 1, n + 1))
    return tuple({first, long})


def _invariant(f, even, witness):
    """is_symmetric, or if even is_even_symmetric."""
    n = f.nvars
    if all(_relabelled(f, g) == f._terms for g in _generators(n, even)):
        return (True, None) if witness else True
    listed = (_cycle(n, 1, 2, m) if even else _cycle(n, 1, m) for m in range(2 + even, n + 1))
    return (False, next(g for g in listed if _relabelled(f, g) != f._terms)) if witness else False


def is_symmetric(f: MPoly, witness: bool = False):
    """Invariance under all of S_n, tested on its generators (1 2) and
    (1 2 ... n).  On failure the witness is the first transposition
    (1 m), m = 2..n, that moves f, as an image tuple."""
    return _invariant(f, False, witness)


def is_even_symmetric(f: MPoly, witness: bool = False):
    """Invariance under the even permutations, tested on two generators of
    the alternating group A_n: (1 2 3) with (1 2 ... n) for odd n, or with
    (2 3 ... n) for even n.  On failure the witness is the first
    three-cycle (1 2 m), m = 3..n, that moves f, as an image tuple.  With
    fewer than three variables the group is trivial and everything passes."""
    return _invariant(f, True, witness)


# ---------------------------------------------------------------------------
# elementary symmetric basis


def elem_sym(n: int, i: int) -> MPoly:
    """i-th elementary symmetric polynomial of x_1..x_n (i = 0 gives 1)."""
    if not 0 <= i <= n:
        raise ValueError(f"elem_sym index {i} out of range 0..{n}")
    if i == 0:
        return MPoly.constant(n, 1)
    return MPoly(n, {
        tuple(int(j in combo) for j in range(n)): 1
        for combo in itertools.combinations(range(n), i)
    })


@functools.cache
def sigma_images(n: int) -> types.MappingProxyType:
    """Read-only {i: elem_sym(n, i)} for i = 1..n, sigma_i as an
    x-polynomial; built once per n."""
    return types.MappingProxyType({i: elem_sym(n, i) for i in range(1, n + 1)})


class ElemSymBasisExpr(Frozen):
    """A polynomial whose variables stand for sigma_1..sigma_n."""

    __slots__ = ("poly",)

    def __init__(self, poly: MPoly):
        object.__setattr__(self, "poly", poly)

    def expand(self) -> MPoly:
        """Substitute the actual elementary symmetric polynomials back in."""
        n = self.poly.nvars
        return substitute(self.poly, sigma_images(n), out_nvars=n)

    def __eq__(self, other):
        if isinstance(other, ElemSymBasisExpr):
            return self.poly == other.poly
        return NotImplemented

    def __repr__(self):
        return f"ElemSymBasisExpr({self.poly!r})"

    def __str__(self):
        names = [f"s{i}" for i in range(1, self.poly.nvars + 1)]
        return self.poly.render(names)


def symmetrize(f: MPoly) -> ElemSymBasisExpr:
    """Rewrite a symmetric polynomial in the elementary symmetric basis.

    Classical leading-term reduction: strip the graded-lex leading term
    c * x^a (a is non-increasing for a symmetric polynomial) by subtracting
    c * sigma_1^(a1-a2) * ... * sigma_n^(an), and iterate.  Once f is
    known symmetric its terms of partition shape (non-increasing
    exponents) determine it, so the loop keeps only those and subtracts
    c times the e-to-m transition counts.  The result is re-expanded in
    full and compared against the input before returning.
    """
    ok, t = is_symmetric(f, witness=True)
    if not ok:
        raise NotSymmetricError(
            f"not symmetric: transposition {t} changes the polynomial", witness=t
        )
    n, phi = f.nvars, euler_phi(f.order)
    remainder = {
        k: c for k, c in f._terms.items()
        if all(a >= b for a, b in itertools.pairwise(_exps(k, n)))
    }
    sigma = {}
    while remainder:
        top = max(remainder)
        top -= top & FIELD_MASK
        ws = {w: c for w in range(phi) if (c := remainder.get(top + w))}
        exps = _exps(top, n)
        powers = [a - b for a, b in zip(exps, exps[1:] + (0,))]
        sigma.update({_pack(powers) + w: c for w, c in ws.items()})
        for nu, count in _transition_counts(n, powers).items():
            for w, c in ws.items():
                remainder[nu + w] = remainder.get(nu + w, 0) - c * count
        remainder = {k: c for k, c in remainder.items() if c}
    result = ElemSymBasisExpr(_make(n, f.order, sigma, f._den))
    if result.expand() != f:
        raise AssertionError("symmetrization failed its own expansion check")
    return result


def _transition_counts(n: int, powers) -> dict:
    """{packed nu: coefficient of x^nu in sigma_1^p_1 * ... * sigma_n^p_n}
    over the partitions nu.  It counts the 0/1 matrices with p_r rows of r
    ones and column sums nu (Macdonald, Symmetric Functions and Hall
    Polynomials, I.6).  Rows are added one at a time; a state is a sorted
    vector of column sums with the number of matrices whose column sums
    sort to it, which covers every rearrangement of nu, hence the division.
    """
    states = {(0,) * n: 1}
    for r in range(n, 0, -1):
        rows = [tuple(int(j in c) for j in range(n)) for c in itertools.combinations(range(n), r)]
        for _ in range(powers[r - 1]):
            step = {}
            for state, count in states.items():
                for row in rows:
                    new = tuple(sorted(map(int.__add__, state, row), reverse=True))
                    step[new] = step.get(new, 0) + count
            states = step
    return {
        _pack(nu): count * math.prod(
            math.factorial(len(list(group))) for _, group in itertools.groupby(nu)
        ) // math.factorial(n)
        for nu, count in states.items()
    }


# ---------------------------------------------------------------------------
# exact polynomial k-th roots


class _Verdict(Frozen):
    __slots__ = ("name",)

    def __init__(self, name):
        object.__setattr__(self, "name", name)

    def __repr__(self):
        return self.name


NO_ROOT = _Verdict("NO_ROOT")
UNDECIDED = _Verdict("UNDECIDED")


def _int_kth_root(n: int, k: int) -> int | None:
    if n < 0:
        return None
    lo, hi = 0, 1 << (n.bit_length() // k + 1)
    while lo < hi:
        mid = (lo + hi + 1) // 2
        lo, hi = (mid, hi) if mid ** k <= n else (lo, mid - 1)
    return lo if lo ** k == n else None


def _legendre(a: int, p: int) -> int:
    r = pow(a % p, (p - 1) // 2, p)
    return r - p if r > 1 else r


def _sqrt_prime(p: int) -> CycScalar:
    """An exact square root of the prime p as a cyclotomic scalar.

    For p = 2 this is w_8 + w_8^7.  For odd p the quadratic Gauss sum
    over the Legendre symbol squares to p or -p according to p mod 4; in
    the latter case dividing by i fixes the sign (Ireland and Rosen, A
    Classical Introduction to Modern Number Theory, Ch. 6).
    """
    if p == 2:
        eight = root_of_unity(8, 8)
        return eight + eight ** 7
    eps = root_of_unity(p, p)
    total = CycScalar.zero(p)
    for a in range(1, p):
        total = total + CycScalar.from_rational(_legendre(a, p)) * eps ** a
    if p % 4 == 1:
        return total
    return total * root_of_unity(4, 4) ** 3


def _scalar_kth_root(c: CycScalar, k: int):
    """Some mu with mu^k = c, or UNDECIDED.

    A rational c with an exact rational root gets it.  For k = 2 any
    other rational c gets the square root of its squarefree part,
    assembled prime by prime from Gauss sums, times i when c < 0.  A
    non-rational c, or an irrational root for k >= 3, is UNDECIDED: the
    root may still live in some cyclotomic field, so a missing root is
    never a refutation here.  Trial division stops at ORDER_CAP, since
    root_of_unity builds no w_p above it, so a square root that needs a
    larger prime is refused with an OrderCapError at once.
    """
    if not c.is_rational():
        return UNDECIDED
    value = c.as_fraction()
    sign = -1 if value < 0 and k % 2 else 1
    num = _int_kth_root(sign * value.numerator, k)
    den = _int_kth_root(value.denominator, k)
    if num is not None and den is not None:
        return CycScalar.from_rational(Fraction(sign * num, den))
    if k != 2:
        return UNDECIDED
    m = value.numerator * value.denominator
    rest, square, mu = abs(m), 1, CycScalar.one()
    for p in range(2, ORDER_CAP + 1):  # a composite p divides rest no more
        while rest % (p * p) == 0:
            rest, square = rest // (p * p), square * p
        if rest % p == 0:
            rest, mu = rest // p, mu * _sqrt_prime(p)
    root = math.isqrt(rest)
    if root * root != rest:
        capped(rest)  # a prime above the cap divides rest to an odd power
    mu = mu * Fraction(square * root, value.denominator)
    if m < 0:
        mu = mu * root_of_unity(4, 4)
    if mu ** k != c:
        raise AssertionError("assembled square root fails to square back")
    return mu


def kth_root_poly(f: MPoly, k: int):
    """Exact g with g^k == f, or NO_ROOT / UNDECIDED.

    The one polynomial k-th root.  A root mu of the leading coefficient c
    comes from _scalar_kth_root; the leading-term recursion in graded-lex
    order then runs on f/c in f's own field, and g is its root times mu.
    It stops only when f/c - g^k is zero, and mu^k = c holds by
    construction, so (g * mu)^k == f needs no further check.  NO_ROOT is
    certain: a leading exponent k does not divide, or a remainder the
    recursion cannot reduce.  UNDECIDED is left only where mu is out of
    reach: a non-rational c, or an irrational root of c for k >= 3.
    """
    if k < 1:
        raise ValueError("k must be positive")
    if k == 1 or f.is_zero():
        return f
    n = f.nvars
    top, ws = f._lead()
    if any(e % k for e in _exps(top, n)):
        return NO_ROOT
    lead = f._scalar(ws)
    mu = _scalar_kth_root(lead, k)
    if mu is UNDECIDED:
        return UNDECIDED
    monic = f * lead.inv()
    root_key = _pack([e // k for e in _exps(top, n)])
    g = _make(n, 1, {root_key: 1})
    scale = Fraction(1, k)
    last = None
    while True:
        r = monic - g ** k
        if r.is_zero():
            return g * mu
        t = _divide_lead(r, root_key * (k - 1), scale)
        if t is None:
            return NO_ROOT
        t_key = t._lead()[0]
        if t_key >= root_key or (last is not None and t_key >= last):
            return NO_ROOT
        last = t_key
        g = g + t


def _divide_lead(r: MPoly, key: int, scale):
    """The leading term of r over the monomial `key`, times scale; None when
    that monomial does not divide it."""
    n = r.nvars
    top, ws = r._lead()
    exps = [a - b for a, b in zip(_exps(top, n), _exps(key, n))]
    if any(e < 0 for e in exps):
        return None
    t = _pack(exps)
    return _make(n, r.order, {t + w: c for w, c in ws.items()}, r._den) * scale


def divide_exact(a: MPoly, b: MPoly) -> MPoly | None:
    """Quotient a / b when b divides a exactly, else None."""
    if b.is_zero():
        raise ZeroDivisionError("division by the zero polynomial")
    if a.nvars != b.nvars:
        raise ValueError("variable count mismatch in division")
    btop, bws = b._lead()
    binv = b._scalar(bws).inv()
    quotient, r = MPoly.zero(a.nvars), a
    while r:
        t = _divide_lead(r, btop, binv)
        if t is None:
            return None
        quotient, r = quotient + t, r - t * b
    return quotient
