"""Exact arithmetic in the cyclotomic-rational fields Q(w_N).

w_N denotes the primitive N-th root of unity cos(2*pi/N) + i*sin(2*pi/N).
A scalar of order N is stored by its coordinates on the power basis
1, w_N, ..., w_N^(phi(N)-1), reduced modulo the N-th cyclotomic polynomial,
so the representation is canonical and equality is a coordinate comparison.
Coordinates are arbitrary-precision rationals; nothing in this module
touches floating point.

Scalars of different orders combine by lifting both operands into Q(w_M)
for M the lcm of the two orders (w_q = w_M^(M/q)).
"""

from __future__ import annotations

import functools
import math
from fractions import Fraction

from radform import upoly

__all__ = [
    "CycScalar",
    "OrderMismatchError",
    "cyclotomic_poly",
    "euler_phi",
    "project",
    "root_of_unity",
]

_F0 = Fraction(0)
_F1 = Fraction(1)


class OrderMismatchError(ValueError):
    """A requested root order does not divide the ambient order."""


@functools.cache
def cyclotomic_poly(order: int) -> tuple[Fraction, ...]:
    """Coefficients of the cyclotomic polynomial Phi_order, low degree first.

    Computed by dividing t^order - 1 by the product of Phi_d over the
    proper divisors d of order.
    """
    if order < 1:
        raise ValueError(f"order must be positive, got {order}")
    num = [_F0] * (order + 1)
    num[0] = Fraction(-1)
    num[order] = _F1
    den = [_F1]
    for d in range(1, order):
        if order % d == 0:
            den = upoly.mul(den, cyclotomic_poly(d), _F0)
    quo, rem = upoly.divmod(num, den, None, _F0)
    if rem:
        raise AssertionError(f"cyclotomic division left a remainder for order {order}")
    return tuple(quo)


def euler_phi(order: int) -> int:
    return len(cyclotomic_poly(order)) - 1


def _reduce(cs, order):
    return upoly.divmod(cs, cyclotomic_poly(order), None, _F0)[1]


def _as_scalar(x, order=1):
    if isinstance(x, CycScalar):
        return x
    if isinstance(x, (int, Fraction)):
        return CycScalar(order, (Fraction(x),))
    return None


class CycScalar:
    """One element of Q(w_N), N = self.order."""

    __slots__ = ("order", "coeffs")

    def __init__(self, order: int, coeffs):
        phi = euler_phi(order)
        cs = [Fraction(c) for c in coeffs]
        if len(cs) > phi:
            cs = list(_reduce(cs, order))
        if len(cs) < phi:
            cs = cs + [_F0] * (phi - len(cs))
        object.__setattr__(self, "order", order)
        object.__setattr__(self, "coeffs", tuple(cs))

    def __setattr__(self, name, value):
        raise AttributeError("CycScalar is immutable")

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
        k = order // self.order
        cs = [_F0] * ((len(self.coeffs) - 1) * k + 1) if self.coeffs else [_F0]
        for j, c in enumerate(self.coeffs):
            if c:
                cs[j * k] = c
        return CycScalar(order, cs)

    def _common(self, other):
        m = math.lcm(self.order, other.order)
        return self.lift(m), other.lift(m)

    # -- predicates --------------------------------------------------------

    def is_zero(self) -> bool:
        return not any(self.coeffs)

    def __bool__(self) -> bool:
        return any(self.coeffs)

    def is_rational(self) -> bool:
        return not any(self.coeffs[1:])

    def as_fraction(self) -> Fraction:
        if not self.is_rational():
            raise ValueError(f"{self} is not rational")
        return self.coeffs[0]

    # -- arithmetic --------------------------------------------------------

    def __add__(self, other):
        other = _as_scalar(other)
        if other is None:
            return NotImplemented
        a, b = self._common(other)
        return CycScalar(a.order, tuple(x + y for x, y in zip(a.coeffs, b.coeffs)))

    __radd__ = __add__

    def __neg__(self):
        return CycScalar(self.order, tuple(-c for c in self.coeffs))

    def __sub__(self, other):
        other = _as_scalar(other)
        if other is None:
            return NotImplemented
        return self + (-other)

    def __rsub__(self, other):
        other = _as_scalar(other)
        if other is None:
            return NotImplemented
        return other + (-self)

    def __mul__(self, other):
        other = _as_scalar(other)
        if other is None:
            return NotImplemented
        a, b = self._common(other)
        return CycScalar(
            a.order, upoly.mul(upoly.trim(a.coeffs), upoly.trim(b.coeffs), _F0)
        )

    __rmul__ = __mul__

    def inv(self) -> "CycScalar":
        if self.is_zero():
            raise ZeroDivisionError("inverse of zero in Q(w_N)")
        g, s = upoly.ext_gcd(
            self.coeffs, cyclotomic_poly(self.order), _F1, _F0, lambda c: 1 / c
        )
        if len(g) != 1:
            raise AssertionError("cyclotomic polynomial split unexpectedly")
        c = g[0]
        return CycScalar(self.order, tuple(x / c for x in s))

    def __truediv__(self, other):
        other = _as_scalar(other)
        if other is None:
            return NotImplemented
        return self * other.inv()

    def __rtruediv__(self, other):
        other = _as_scalar(other)
        if other is None:
            return NotImplemented
        return other * self.inv()

    def __pow__(self, exponent: int):
        if not isinstance(exponent, int):
            return NotImplemented
        base = self
        if exponent < 0:
            base = self.inv()
            exponent = -exponent
        result = CycScalar.one(base.order)
        while exponent:
            if exponent & 1:
                result = result * base
            exponent >>= 1
            if exponent:
                base = base * base
        return result

    def __eq__(self, other):
        other = _as_scalar(other)
        if other is None:
            return NotImplemented
        a, b = self._common(other)
        return a.coeffs == b.coeffs

    # -- display -----------------------------------------------------------

    def __repr__(self):
        return f"CycScalar({self.order}, {[str(c) for c in self.coeffs]})"

    def __str__(self):
        parts = []
        for j, c in enumerate(self.coeffs):
            if not c:
                continue
            if j == 0:
                parts.append(str(c))
            else:
                root = f"w({self.order})" if j == 1 else f"w({self.order})^{j}"
                if c == 1:
                    parts.append(root)
                elif c == -1:
                    parts.append(f"-{root}")
                else:
                    parts.append(f"{c}*{root}")
        if not parts:
            return "0"
        out = parts[0]
        for p in parts[1:]:
            out += " - " + p[1:] if p.startswith("-") else " + " + p
        return out


def root_of_unity(q: int, order: int) -> CycScalar:
    """w_q expressed inside Q(w_order); q must divide order."""
    if q < 1 or order < 1:
        raise ValueError("root orders must be positive")
    if order % q:
        raise OrderMismatchError(f"{q} does not divide the ambient order {order}")
    k = order // q
    cs = [_F0] * (k + 1)
    cs[k] = _F1
    return CycScalar(order, cs)


def project(x: CycScalar, order: int) -> CycScalar | None:
    """Rewrite x on the power basis of Q(w_order) if x lies in that subfield.

    Returns None when x is outside Q(w_order).  Solved as an exact linear
    system over Q: the candidate basis powers w_order^j are lifted into a
    common field and Gauss elimination looks for coordinates of x.
    """
    common = math.lcm(x.order, order)
    target = x.lift(common)
    cols = []
    for j in range(euler_phi(order)):
        basis_power = CycScalar(order, [_F0] * j + [_F1])
        cols.append(basis_power.lift(common).coeffs)
    rows = len(target.coeffs)
    ncols = len(cols)
    mat = [[cols[c][r] for c in range(ncols)] + [target.coeffs[r]] for r in range(rows)]
    pivots = []
    row = 0
    for col in range(ncols):
        pivot = next((r for r in range(row, rows) if mat[r][col]), None)
        if pivot is None:
            continue
        mat[row], mat[pivot] = mat[pivot], mat[row]
        lead = mat[row][col]
        mat[row] = [v / lead for v in mat[row]]
        for r in range(rows):
            if r != row and mat[r][col]:
                factor = mat[r][col]
                mat[r] = [v - factor * w for v, w in zip(mat[r], mat[row])]
        pivots.append(col)
        row += 1
        if row == rows:
            break
    solution = [_F0] * ncols
    for r in range(row):
        rhs = mat[r][ncols]
        col = pivots[r]
        solution[col] = rhs
    for r in range(row, rows):
        if mat[r][ncols]:
            return None
    # verify (guards the free-variable case)
    candidate = CycScalar(order, solution)
    if candidate.lift(common).coeffs != target.coeffs:
        return None
    return candidate
