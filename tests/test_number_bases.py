"""The operators CycScalar, MPoly, RatFunc and TowerElem share through the
Frozen, Ring and Field bases of radform.cyclotomic."""

from fractions import Fraction

import pytest

from radform.cyclotomic import CycScalar, Field, Ring, root_of_unity
from radform.multipoly import MPoly
from radform.tower import ATTESTED_VERIFIED, RatFunc, TowerSpec


def _cyc():
    w = root_of_unity(3, 3)
    return w + 2, w ** 2 - Fraction(1, 3), CycScalar.zero(3)


def _mpoly():
    x1, x2 = MPoly.variable(2, 1), MPoly.variable(2, 2)
    return x1 + 2 * x2, x1 * x2 - root_of_unity(3, 3), MPoly.zero(2)


def _ratfunc():
    s1, s2 = MPoly.variable(2, 1), MPoly.variable(2, 2)
    return RatFunc(s1, s2 + 1), RatFunc(s2 - 3, s1 ** 2), RatFunc.zero(2)


def _tower():
    s1, s2 = MPoly.variable(2, 1), MPoly.variable(2, 2)
    spec = TowerSpec(2)
    spec.add_level(2, spec.from_sigma_poly(s1 ** 2 - 4 * s2), ATTESTED_VERIFIED)
    y1 = spec.generator(1)
    return y1 + s1, 2 * y1 - s2, spec.zero(1)


# (operands a, b and zero; what a ** 0 must keep of a)
RINGS = {
    "CycScalar": (_cyc, lambda v: v.order),
    "MPoly": (_mpoly, lambda v: v.nvars),
    "RatFunc": (_ratfunc, lambda v: v.nvars),
    "TowerElem": (_tower, lambda v: v.level),
}
FIELDS = [name for name in RINGS if name != "MPoly"]


@pytest.mark.parametrize("name", RINGS)
def test_ring_operators(name):
    a, b, zero = RINGS[name][0]()
    assert isinstance(a, Ring)
    assert a - b == a + (-b)
    assert 3 - a == -(a - 3)
    assert 1 + a == a + 1
    assert 2 * a == a + a
    assert a and not zero
    with pytest.raises(AttributeError, match=f"^{name} is immutable$"):
        setattr(a, type(a).__slots__[0], None)


@pytest.mark.parametrize("name", FIELDS)
def test_field_operators(name):
    make, shape = RINGS[name]
    a, b, _ = make()
    assert isinstance(a, Field)
    # every shared operator comes from the bases, none from the class body
    assert not {"__radd__", "__rmul__", "__sub__", "__rsub__", "__truediv__",
                "__rtruediv__", "__pow__", "__bool__", "__setattr__"} & set(vars(type(a)))
    assert a / b * b == a
    assert 3 / a * a == 3
    assert a ** -2 * a ** 2 == 1
    assert a ** 0 == 1 and shape(a ** 0) == shape(a)


def test_mpoly_stays_a_ring():
    x1 = MPoly.variable(2, 1)
    assert not isinstance(x1, Field)
    assert x1 / 2 == Fraction(1, 2) * x1
    with pytest.raises(TypeError):
        1 / x1
    with pytest.raises(TypeError):
        x1 ** -1

