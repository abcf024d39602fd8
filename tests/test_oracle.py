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
from radform.multipoly import MPoly
from radform.permchar import Perm, commutator_closure
from radform.tower import ATTESTED_VERIFIED, TowerSpec, nonpower_check

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


def _ring_elem(ring, poly):
    terms = {}
    for exps, coeff in poly.terms.items():
        assert coeff.is_rational()
        frac = coeff.as_fraction()
        terms[exps] = sympy.Rational(frac.numerator, frac.denominator)
    return ring.from_dict(terms)


@pytest.mark.parametrize("k", [2, 3, 5])
def test_level_one_inverse_matches_sympy(k):
    s1, s2 = MPoly.variable(2, 1), MPoly.variable(2, 2)
    spec = TowerSpec(2)
    spec.add_level(k, spec.from_sigma_poly(s1 ** 2 - 4 * s2))
    assert nonpower_check(spec, 1).status == "verified"
    spec.set_attestation(1, ATTESTED_VERIFIED)
    domain = sympy.QQ.frac_field(*sympy.symbols("s1 s2"))
    ring = domain.field.ring
    rho = _ring_elem(ring, s1 ** 2 - 4 * s2)
    modulus = sympy.Poly.from_list(
        [domain.one] + [domain.zero] * (k - 1) + [-domain.field(rho)], T, domain=domain
    )
    rng = random.Random(31 + k)
    basis = [MPoly.constant(2, 1), s1, s2]
    # sympy's Euclid over QQ(s1, s2) dominates the run time, so k = 5 gets
    # one sparse element and k = 3 fewer dense ones
    trials, width = {2: (6, 2), 3: (3, 3), 5: (1, 2)}[k]
    y = spec.generator(1)
    for trial in range(trials):
        coords = [
            sum((rng.randint(-2, 2) * b for b in basis), MPoly.zero(2))
            for _ in range(width)
        ]
        e = sum(
            (spec.from_sigma_poly(c) * y ** i for i, c in enumerate(coords)),
            spec.zero(1),
        )
        if e.is_zero():
            continue
        a = sympy.Poly.from_list(
            [domain.field(_ring_elem(ring, c)) for c in reversed(coords)],
            T,
            domain=domain,
        )
        expected = list(reversed(sympy.invert(a, modulus).rep.to_list()))
        expected += [domain.zero] * (k - len(expected))
        for i, (mine, want) in enumerate(zip(e.inverse().coords, expected)):
            num = _ring_elem(ring, mine.ratfunc.num)
            den = _ring_elem(ring, mine.ratfunc.den)
            assert num * want.denom == want.numer * den, (k, trial, i)
