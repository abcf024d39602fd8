"""Exact arithmetic in the cyclotomic-rational fields Q(w_N).

w_N denotes the primitive N-th root of unity cos(2*pi/N) + i*sin(2*pi/N).
A scalar of order N is stored by its rational coordinates on the power
basis 1, w_N, ..., w_N^(phi(N)-1), so equality is a coordinate comparison.
Nothing in this module touches floating point.  Scalars of different
orders combine in Q(w_M), M the lcm of the orders (w_q = w_M^(M/q)),
and an M above ORDER_CAP is refused, as a w(N) above it is.

This module also holds the arithmetic that scalars share with the
polynomials of radform.multipoly: a sparse dict from a packed monomial
(an int whose lowest FIELD_BITS bits are the exponent of w_N; a scalar
has no other fields) to a rational.  mul_terms is the one product loop,
a monomial product being one key addition, and reduce_phi is the one
reduction modulo Phi_N, rewriting w-exponents of phi(N) and above.

The bases Frozen, Ring and Field hold the operators every number type
of the package shares: Frozen refuses attribute assignment, Ring derives
-, the reflected + and * and truthiness from a type's own +, unary -, *,
is_zero and _coerce, and Field adds / and negative powers through inv.
CycScalar, tower.RatFunc and tower.TowerElem are Fields; multipoly.MPoly
is a Ring.
"""

from __future__ import annotations

import functools
import math
from fractions import Fraction

__all__ = [
    "FIELD_BITS",
    "FIELD_MASK",
    "ORDER_CAP",
    "CycScalar",
    "Field",
    "Frozen",
    "Ring",
    "coerced",
    "OrderCapError",
    "OrderMismatchError",
    "capped",
    "cyclotomic_poly",
    "euler_phi",
    "join_terms",
    "mul_terms",
    "power",
    "project",
    "reduce_phi",
    "root_of_unity",
    "term_text",
]

_F0 = Fraction(0)
_F1 = Fraction(1)

FIELD_BITS = 32
FIELD_MASK = (1 << FIELD_BITS) - 1
# the largest order root_of_unity builds (an inverse in Q(w_N) costs N phi(N)^2)
ORDER_CAP = 100


class OrderMismatchError(ValueError):
    """A requested root order does not divide the ambient order."""


class OrderCapError(ValueError):
    """A root order above ORDER_CAP, refused before any work in its field."""


def capped(order: int) -> int:
    """The order, refused with an OrderCapError above ORDER_CAP."""
    if order > ORDER_CAP:
        raise OrderCapError(f"root-of-unity order {order} exceeds the cap {ORDER_CAP}")
    return order


def _prime_factors(k: int) -> list[int]:
    """The prime factors of k in ascending order, with multiplicity; empty
    for k < 2."""
    out, d = [], 2
    while d * d <= k:
        while k % d == 0:
            out.append(d)
            k //= d
        d += 1
    return out + [k] if k > 1 else out


def _is_prime(k: int) -> bool:
    return _prime_factors(k) == [k]


def _bezout_min_b(k: int, l: int):
    """a, b with a*k + b*l = 1 and |b| minimal (positive b on a tie)."""
    if math.gcd(k, l) != 1:
        raise ValueError(f"{k} and {l} are not coprime")
    b = pow(l, -1, k)
    if b > k - b:
        b -= k
    return (1 - b * l) // k, b


@functools.cache
def cyclotomic_poly(order: int) -> tuple[Fraction, ...]:
    """Coefficients of Phi_order, low degree first, as the product of
    (t^d - 1)^mu(order/d) over the divisors d of order.  The factors with
    mu = 1 are multiplied in first, so each division by t^d - 1 after them
    is exact: a running sum with step d."""
    if order < 1:
        raise ValueError(f"order must be positive, got {order}")
    times, over = [], []
    for d in range(1, order + 1):
        if order % d == 0:
            primes = _prime_factors(order // d)
            if len(set(primes)) == len(primes):
                (over if len(primes) % 2 else times).append(d)
    coeffs = [1]
    for d in times:
        coeffs = [a - b for a, b in zip([0] * d + coeffs, coeffs + [0] * d)]
    for d in over:
        # c = q * (t^d - 1) gives q_i = q_(i-d) - c_i
        quo = []
        for i in range(len(coeffs) - d):
            quo.append((quo[i - d] if i >= d else 0) - coeffs[i])
        coeffs = quo
    return tuple(Fraction(c) for c in coeffs)


def euler_phi(order: int) -> int:
    return len(cyclotomic_poly(order)) - 1


def reduce_phi(terms: dict, order: int) -> dict:
    """Rewrite, in place, each key's w-exponent (its lowest FIELD_BITS bits)
    below phi(order) through Phi_order(w) = 0, highest exponent first.
    Coefficients that cancel to zero stay in the dict."""
    phi = euler_phi(order)
    # w^phi = sum of -c_j * w^j over the lower coefficients c_j of Phi_order
    rule = [(j, -int(c)) for j, c in enumerate(cyclotomic_poly(order)[:-1]) if c]
    top = max((k & FIELD_MASK for k in terms), default=0)
    for e in range(top, phi - 1, -1):
        for key in [k for k in terms if k & FIELD_MASK == e]:
            c = terms.pop(key)
            base = key - phi
            for j, cj in rule:
                terms[base + j] = terms.get(base + j, 0) + c * cj
    return terms


def mul_terms(p: dict, q: dict, order: int, acc=None) -> dict:
    """Product of two packed term dicts in Q(w_order)[x], reduced by Phi_order,
    and added into the dict acc (updated in place) when one is given.
    Coefficients that cancel to zero stay in the result."""
    if len(p) < len(q):
        p, q = q, p
    acc = {} if acc is None else acc
    get = acc.get
    for k1, c1 in q.items():
        for k2, c2 in p.items():
            k = k1 + k2
            acc[k] = get(k, 0) + c1 * c2
    return reduce_phi(acc, order) if order > 1 else acc


def _sparse(coeffs) -> dict:
    return {j: c for j, c in enumerate(coeffs) if c}


def join_terms(parts) -> str:
    """Rendered terms joined by + and -, a leading minus sign absorbed."""
    out = parts[0] if parts else "0"
    for p in parts[1:]:
        out += " - " + p[1:] if p.startswith("-") else " + " + p
    return out


def term_text(coeff: str, body: str) -> str:
    """One rendered term: a coefficient times a monomial body (maybe empty)."""
    if not body:
        return coeff
    if coeff in ("1", "-1"):
        return coeff[:-1] + body
    return f"{coeff}*{body}"


def power(base, exponent: int, one):
    """base ** exponent by repeated squaring, for exponent >= 0; nothing is
    multiplied by one, and one() is called only for exponent 0."""
    result = None
    while exponent:
        if exponent & 1:
            result = base if result is None else result * base
        exponent >>= 1
        if exponent:
            base = base * base
    return one() if result is None else result


def coerced(coerce):
    """Binary-operator decorator: the operand goes through coerce(self, other)
    first, and a None from it means NotImplemented."""
    def decorate(method):
        @functools.wraps(method)
        def operator(self, other):
            other = coerce(self, other)
            return NotImplemented if other is None else method(self, other)
        return operator
    return decorate


class Frozen:
    """Base of radform's immutable values: constructors fill the slots past
    __setattr__ (object.__setattr__ or the slot descriptor), and nothing
    rebinds them afterwards."""

    __slots__ = ()

    def __setattr__(self, name, value):
        raise AttributeError(f"{type(self).__name__} is immutable")


_by_own_coerce = coerced(lambda self, other: self._coerce(other))


class Ring(Frozen):
    """The operators a commutative ring derives from its own __add__,
    __neg__, __mul__, is_zero and _coerce (an operand in this ring, or None).
    The reflected operators coerce first and then dispatch through the
    subclass's forward operator, whatever it is bound to at call time."""

    __slots__ = ()

    def __bool__(self):
        return not self.is_zero()

    @_by_own_coerce
    def __radd__(self, other):
        return self + other

    @_by_own_coerce
    def __rmul__(self, other):
        return self * other

    @_by_own_coerce
    def __sub__(self, other):
        return self + (-other)

    @_by_own_coerce
    def __rsub__(self, other):
        return other - self


class Field(Ring):
    """A Ring that also has inv(), and _one() for the zeroth power."""

    __slots__ = ()

    @_by_own_coerce
    def __truediv__(self, other):
        return self * other.inv()

    @_by_own_coerce
    def __rtruediv__(self, other):
        return other * self.inv()

    def __pow__(self, exponent: int):
        if not isinstance(exponent, int):
            return NotImplemented
        base = self.inv() if exponent < 0 else self
        return power(base, abs(exponent), base._one)


class CycScalar(Field):
    """One element of Q(w_N), N = self.order."""

    __slots__ = ("order", "coeffs")

    def __init__(self, order: int, coeffs):
        phi = euler_phi(order)
        cs = [c if type(c) is Fraction else Fraction(c) for c in coeffs]
        if len(cs) > phi:
            reduced = reduce_phi(_sparse(cs), order)
            cs = [reduced.get(j, _F0) for j in range(phi)]
        object.__setattr__(self, "order", order)
        object.__setattr__(self, "coeffs", tuple(cs + [_F0] * (phi - len(cs))))

    # -- constructors ------------------------------------------------------

    @classmethod
    def zero(cls, order: int = 1) -> "CycScalar":
        return cls(order, ())

    @classmethod
    def one(cls, order: int = 1) -> "CycScalar":
        return cls(order, (_F1,))

    @classmethod
    def from_rational(cls, value, order: int = 1) -> "CycScalar":
        return cls(order, (Fraction(value),))

    # -- order bookkeeping -------------------------------------------------

    def lift(self, order: int) -> "CycScalar":
        """Rewrite on the power basis of Q(w_order); order must be a multiple."""
        if order == self.order:
            return self
        if order % self.order:
            raise OrderMismatchError(
                f"cannot lift order {self.order} into order {order}"
            )
        cs = [_F0] * (len(self.coeffs) * (order // self.order))
        cs[:: order // self.order] = self.coeffs
        return CycScalar(order, cs)

    def _common(self, other):
        m = self.order if self.order == other.order else capped(math.lcm(self.order, other.order))
        return self.lift(m), other.lift(m)

    # -- predicates --------------------------------------------------------

    def is_zero(self) -> bool:
        return not any(self.coeffs)

    def is_rational(self) -> bool:
        return not any(self.coeffs[1:])

    def as_fraction(self) -> Fraction:
        if not self.is_rational():
            raise ValueError(f"{self} is not rational")
        return self.coeffs[0]

    # -- arithmetic --------------------------------------------------------

    def _coerce(self, x):
        if isinstance(x, (int, Fraction)):
            return CycScalar(1, (x,))
        return x if isinstance(x, CycScalar) else None

    def _one(self):
        return CycScalar.one(self.order)

    @coerced(_coerce)
    def __add__(self, other):
        a, b = self._common(other)
        return CycScalar(a.order, tuple(x + y for x, y in zip(a.coeffs, b.coeffs)))

    def __neg__(self):
        return CycScalar(self.order, tuple(-c for c in self.coeffs))

    @coerced(_coerce)
    def __mul__(self, other):
        a, b = self._common(other)
        if a.order == 1:
            return CycScalar(1, (a.coeffs[0] * b.coeffs[0],))
        product = mul_terms(_sparse(a.coeffs), _sparse(b.coeffs), a.order)
        return CycScalar(a.order, [product.get(j, _F0) for j in range(len(a.coeffs))])

    def inv(self) -> "CycScalar":
        """x^-1 = adj(x) / N(x): adj(x) is the product of the conjugates
        sigma_a(x), w -> w^a for the units a != 1 mod N, and the norm
        N(x) = x * adj(x) is rational (Lang, Algebra, Ch. VI 5;
        tests/test_cyclotomic.py checks x * x.inv() == 1)."""
        if self.is_zero():
            raise ZeroDivisionError("inverse of zero in Q(w_N)")
        if self.is_rational():
            return CycScalar(self.order, (1 / self.coeffs[0],))
        n, x = self.order, _sparse(self.coeffs)
        adj = {0: _F1}
        for a in range(2, n):
            if math.gcd(a, n) == 1:
                adj = mul_terms(adj, reduce_phi({a * j % n: c for j, c in x.items()}, n), n)
        norm = mul_terms(x, adj, n)
        return CycScalar(n, [adj.get(j, _F0) / norm[0] for j in range(len(self.coeffs))])

    @coerced(_coerce)
    def __eq__(self, other):
        a, b = self._common(other)
        return a.coeffs == b.coeffs

    # -- display -----------------------------------------------------------

    def __repr__(self):
        return f"CycScalar({self.order}, {[str(c) for c in self.coeffs]})"

    def __str__(self):
        try:
            return join_terms([
                term_text(str(c), f"w({self.order})" + (f"^{j}" if j > 1 else "") if j else "")
                for j, c in enumerate(self.coeffs) if c
            ])
        except ValueError:  # a part past the interpreter's int-to-str limit, left as it is
            big = max(max(abs(c.numerator), c.denominator) for c in self.coeffs)
            d = int(math.log10(big)) + 1  # log10 may round across a power of ten
            d += (big >= 10 ** d) - (big < 10 ** (d - 1))
            raise OverflowError(f"coefficient of {d} digits is too long to print") from None


def root_of_unity(q: int, order: int) -> CycScalar:
    """w_q expressed inside Q(w_order); q must divide order."""
    if q < 1 or order < 1:
        raise ValueError("root orders must be positive")
    capped(order)
    if order % q:
        raise OrderMismatchError(f"{q} does not divide the ambient order {order}")
    return CycScalar(order, [_F0] * (order // q) + [_F1])


def project(x: CycScalar, order: int) -> CycScalar | None:
    """Rewrite x on the power basis of Q(w_order) if x lies in that subfield.

    Returns None when x is outside Q(w_order).  Solved as an exact linear
    system over Q: Gauss-Jordan elimination looks for coordinates of x on
    the powers w_order^j lifted into a common field, and the candidate is
    checked by lifting it back.
    """
    common = math.lcm(x.order, order)
    target = x.lift(common)
    ncols = euler_phi(order)
    cols = [CycScalar(order, [_F0] * j + [_F1]).lift(common).coeffs for j in range(ncols)]
    mat = [[col[r] for col in cols] + [t] for r, t in enumerate(target.coeffs)]
    pivots = []
    for col in range(ncols):
        row = len(pivots)
        pivot = next((r for r in range(row, len(mat)) if mat[r][col]), None)
        if pivot is None:
            continue
        mat[row], mat[pivot] = mat[pivot], mat[row]
        mat[row] = [v / mat[row][col] for v in mat[row]]
        for r, line in enumerate(mat):
            factor = line[col]
            if r != row and factor:
                mat[r] = [v - factor * w for v, w in zip(line, mat[row])]
        pivots.append(col)
    solution = [_F0] * ncols
    for r, col in enumerate(pivots):
        solution[col] = mat[r][ncols]
    candidate = CycScalar(order, solution)
    return candidate if candidate.lift(common) == target else None
