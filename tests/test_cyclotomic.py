import math
import random
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from radform.cyclotomic import (
    ORDER_CAP,
    CycScalar,
    OrderMismatchError,
    cyclotomic_poly,
    euler_phi,
    project,
    root_of_unity,
)


# -- independent oracle: Mobius product over integer polynomials -----------
# Phi_N = prod over d | N of (t^d - 1)^(mu(N/d)), computed with its own
# integer polynomial arithmetic so it shares nothing with the module.


def _mobius(n):
    result = 1
    p = 2
    while p * p <= n:
        if n % p == 0:
            n //= p
            if n % p == 0:
                return 0
            result = -result
        p += 1
    if n > 1:
        result = -result
    return result


def _imul(a, b):
    out = [0] * (len(a) + len(b) - 1)
    for i, ca in enumerate(a):
        for j, cb in enumerate(b):
            out[i + j] += ca * cb
    return out


def _idiv_exact(a, b):
    a = list(a)
    out = [0] * (len(a) - len(b) + 1)
    for i in range(len(a) - len(b), -1, -1):
        c = a[i + len(b) - 1]
        assert c % b[-1] == 0
        q = c // b[-1]
        out[i] = q
        for j, cb in enumerate(b):
            a[i + j] -= q * cb
    assert not any(a)
    return out


def _oracle_cyclotomic(n):
    num = [1]
    den = [1]
    for d in range(1, n + 1):
        if n % d:
            continue
        factor = [-1] + [0] * (d - 1) + [1]  # t^d - 1
        mu = _mobius(n // d)
        if mu == 1:
            num = _imul(num, factor)
        elif mu == -1:
            den = _imul(den, factor)
    return _idiv_exact(num, den)


FROZEN = {
    1: [-1, 1],
    2: [1, 1],
    3: [1, 1, 1],
    4: [1, 0, 1],
    6: [1, -1, 1],
    8: [1, 0, 0, 0, 1],
    9: [1, 0, 0, 1, 0, 0, 1],
    12: [1, 0, -1, 0, 1],
}


def test_cyclotomic_matches_mobius_oracle():
    for n in range(1, 25):
        expected = [Fraction(c) for c in _oracle_cyclotomic(n)]
        assert list(cyclotomic_poly(n)) == expected


def test_cyclotomic_frozen_values():
    for n, coeffs in FROZEN.items():
        assert list(cyclotomic_poly(n)) == [Fraction(c) for c in coeffs]
        assert euler_phi(n) == len(coeffs) - 1


def test_root_identities():
    e2 = root_of_unity(2, 2)
    assert e2 == -1
    e4 = root_of_unity(4, 4)
    assert e4 * e4 == -1
    e3 = root_of_unity(3, 3)
    assert e3 * e3 + e3 + 1 == CycScalar.zero(3)
    assert e3 + e3 ** 2 == -1
    assert (1 + e3) * (1 + e3 ** 2) == 1


def test_roots_are_primitive():
    for order in range(1, 25):
        for q in range(1, order + 1):
            if order % q:
                continue
            r = root_of_unity(q, order)
            assert r ** q == 1
            for m in range(1, q):
                assert r ** m != 1


def test_rejects_non_divisor_order():
    with pytest.raises(OrderMismatchError):
        root_of_unity(5, 12)
    with pytest.raises(OrderMismatchError):
        CycScalar.one(3).lift(4)


def test_order_cap_is_checked_before_phi_is_built():
    assert root_of_unity(ORDER_CAP, ORDER_CAP) ** ORDER_CAP == 1
    built = cyclotomic_poly.cache_info().currsize
    for q, order in ((ORDER_CAP + 1, ORDER_CAP + 1), (1, 9999999999)):
        with pytest.raises(ValueError, match=f"order {order} exceeds the cap {ORDER_CAP}"):
            root_of_unity(q, order)
    assert cyclotomic_poly.cache_info().currsize == built


def test_combined_order_is_capped_before_phi_is_built():
    w7, w11, w13 = (root_of_unity(q, q) for q in (7, 11, 13))
    assert (w7 * w11).order == 77
    built = cyclotomic_poly.cache_info().currsize
    for combine in (lambda a, b: a * b, lambda a, b: a + b, lambda a, b: a == b):
        with pytest.raises(ValueError, match=f"order 1001 exceeds the cap {ORDER_CAP}"):
            combine(w7 * w11, w13)
    assert cyclotomic_poly.cache_info().currsize == built
    assert (w13 * w13 + 1).order == 13


def test_mixed_order_arithmetic_lifts_to_lcm():
    e2 = root_of_unity(2, 2)
    e3 = root_of_unity(3, 3)
    prod = e2 * e3
    assert prod.order == 6
    assert prod == root_of_unity(6, 6) ** 5


def test_inverse_examples():
    e3 = root_of_unity(3, 3)
    assert (1 + e3).inv() == 1 + e3 ** 2
    e4 = root_of_unity(4, 4)
    assert e4.inv() == -e4
    assert (e4 / e4) == 1
    assert e3 ** -2 == e3


def test_rationality_probe():
    e3 = root_of_unity(3, 3)
    x = e3 + e3 ** 2
    assert x.is_rational()
    assert x.as_fraction() == Fraction(-1)
    assert not e3.is_rational()
    with pytest.raises(ValueError):
        e3.as_fraction()


def test_lift_then_project_round_trip():
    rng = random.Random(0)
    orders = [1, 2, 3, 4, 6, 8, 12]
    for _ in range(50):
        order = rng.choice(orders)
        coeffs = [Fraction(rng.randint(-5, 5), rng.randint(1, 4))
                  for _ in range(euler_phi(order))]
        x = CycScalar(order, coeffs)
        multiple = order * rng.choice([1, 2, 3])
        lifted = x.lift(multiple)
        back = project(lifted, order)
        assert back is not None
        assert back == x


def test_project_detects_foreign_elements():
    assert project(root_of_unity(4, 4), 3) is None
    assert project(root_of_unity(3, 3), 2) is None
    half = CycScalar.from_rational(Fraction(1, 2), 12)
    down = project(half, 1)
    assert down is not None and down.as_fraction() == Fraction(1, 2)


_orders = st.sampled_from([1, 2, 3, 4, 6, 8, 12, 24])


@st.composite
def scalars(draw):
    order = draw(_orders)
    coeffs = draw(
        st.lists(
            st.fractions(min_value=-4, max_value=4, max_denominator=3),
            min_size=0,
            max_size=euler_phi(order),
        )
    )
    return CycScalar(order, coeffs)


@settings(max_examples=60, deadline=None)
@given(scalars(), scalars(), scalars())
def test_field_axioms(a, b, c):
    assert (a + b) + c == a + (b + c)
    assert a + b == b + a
    assert a * b == b * a
    assert (a * b) * c == a * (b * c)
    assert a * (b + c) == a * b + a * c
    assert a + CycScalar.zero() == a
    assert a * CycScalar.one() == a
    assert a + (-a) == CycScalar.zero(a.order)


@settings(max_examples=60, deadline=None)
@given(scalars())
def test_multiplicative_inverse(a):
    if a.is_zero():
        with pytest.raises(ZeroDivisionError):
            a.inv()
    else:
        assert a * a.inv() == 1


def test_inverse_multiplies_back_in_every_field():
    # inv divides the product of the conjugates by the norm x * adj(x); a
    # wrong set of conjugates leaves that norm non-rational
    rng = random.Random(5)
    for order in range(1, 25):
        for _ in range(2):
            a = CycScalar(order, [Fraction(rng.randint(-5, 5), rng.randint(1, 3))
                                  for _ in range(euler_phi(order))])
            if not a.is_rational():
                assert a * a.inv() == 1, (order, a)


@settings(max_examples=40, deadline=None)
@given(scalars(), st.integers(min_value=0, max_value=6))
def test_power_is_iterated_product(a, k):
    expected = CycScalar.one(a.order)
    for _ in range(k):
        expected = expected * a
    assert a ** k == expected
