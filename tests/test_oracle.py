"""Cross-checks of the exact kernels against sympy as an independent oracle.

Skipped when sympy is not installed.
"""

import random
from fractions import Fraction

import pytest

sympy = pytest.importorskip("sympy")
from sympy.combinatorics import Permutation, PermutationGroup

from radform import upoly
from radform.cyclotomic import cyclotomic_poly
from radform.permchar import Perm, commutator_closure

T = sympy.Symbol("t")


def to_sympy(coeffs):
    return sympy.Poly(list(reversed(coeffs)), T, domain="QQ")


def from_sympy(poly):
    return [Fraction(int(c.p), int(c.q)) for c in reversed(poly.all_coeffs())]


@pytest.mark.parametrize("order", range(1, 41))
def test_cyclotomic_poly_matches_sympy(order):
    expected = sympy.Poly(sympy.cyclotomic_poly(order, T), T)
    assert list(cyclotomic_poly(order)) == from_sympy(expected)


def _random_poly(rng, degree):
    coeffs = [Fraction(rng.randint(-6, 6), rng.randint(1, 4)) for _ in range(degree)]
    return coeffs + [Fraction(rng.choice([-3, -1, 1, 2]), rng.randint(1, 3))]


def test_ext_gcd_matches_sympy():
    rng = random.Random(20260)
    zero, one = Fraction(0), Fraction(1)
    for trial in range(60):
        common = _random_poly(rng, rng.randint(0, 2))
        a = upoly.mul(common, _random_poly(rng, rng.randint(0, 4)), zero)
        b = upoly.mul(common, _random_poly(rng, rng.randint(1, 4)), zero)
        g, s = upoly.ext_gcd(a, b, one, zero, lambda c: 1 / c)
        _, rem = upoly.divmod(upoly.sub(upoly.mul(s, a, zero), g), b, 1 / b[-1], zero)
        assert rem == [], trial
        _, _, h = sympy.gcdex(to_sympy(a), to_sympy(b))
        expected = from_sympy(h)
        unit = g[-1] / expected[-1]
        assert g == [unit * c for c in expected], trial


def _random_generators(rng, degree):
    gens = []
    for _ in range(rng.randint(1, 3)):
        images = list(range(degree))
        rng.shuffle(images)
        gens.append(images)
    return gens


def test_commutator_closure_matches_sympy():
    rng = random.Random(7)
    for trial in range(40):
        degree = rng.randint(2, 6)
        gens = _random_generators(rng, degree)
        ours = commutator_closure([Perm([i + 1 for i in g]) for g in gens])
        group = PermutationGroup([Permutation(g) for g in gens])
        assert len(ours) == group.derived_subgroup().order(), (trial, gens)
