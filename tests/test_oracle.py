"""Cross-checks of the exact kernels against sympy as an independent oracle.

Skipped when sympy is not installed.
"""

import itertools
import random
from fractions import Fraction

import pytest

sympy = pytest.importorskip("sympy")
from sympy.combinatorics import Permutation, PermutationGroup
from sympy.polys.polyfuncs import symmetrize as sympy_symmetrize

from radform.cyclotomic import CycScalar, cyclotomic_poly, root_of_unity
from radform.multipoly import (
    NO_ROOT,
    MPoly,
    _exps,
    _transition_counts,
    divide_exact,
    elem_sym,
    kth_root_poly,
    permute_vars,
    substitute,
    symmetrize,
)
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


def test_scalar_inverse_matches_sympy():
    rng = random.Random(20260)
    for order in range(1, 31):
        phi = len(cyclotomic_poly(order)) - 1
        modulus = to_sympy(list(cyclotomic_poly(order)))
        for trial in range(4):
            size = 1 if trial == 0 else phi
            coeffs = [Fraction(rng.randint(-6, 6), rng.randint(1, 4)) for _ in range(size)]
            if not any(coeffs):
                continue
            got = CycScalar(order, coeffs).inv()
            expected = from_sympy(sympy.invert(to_sympy(coeffs), modulus))
            assert list(got.coeffs) == expected + [0] * (phi - len(expected)), (order, trial)


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


# -- MPoly against sympy.Poly, with w = w_3 as an extra generator ------------

W = sympy.Symbol("w")
XS = sympy.symbols("x1:5")


def _coeff(rng, with_w):
    a = Fraction(rng.randint(-5, 5), rng.randint(1, 3))
    if not with_w or rng.random() < 0.5:
        return a
    return a + Fraction(rng.randint(-3, 3), rng.randint(1, 2)) * root_of_unity(3, 3)


def _random_mpoly(rng, n, with_w, terms=4, degree=3):
    out = {}
    for _ in range(rng.randint(0, terms)):
        exps = tuple(rng.randint(0, degree) for _ in range(n))
        out[exps] = _coeff(rng, with_w)
    return MPoly(n, out)


def _gens(n):
    return (W,) + XS[:n]


def _sym(poly):
    """poly as a sympy.Poly in (w, x1, ..., xn), w standing for w_N."""
    terms = {}
    for exps, coeff in poly.terms.items():
        for j, part in enumerate(coeff.coeffs):
            if part:
                terms[(j,) + exps] = sympy.Rational(part.numerator, part.denominator)
    return sympy.Poly.from_dict(terms or {(0,) * (poly.nvars + 1): 0}, *_gens(poly.nvars),
                                domain="QQ")


def _reduced(poly, n):
    """The sympy remainder modulo Phi_3(w); w is the main generator."""
    return poly.rem(sympy.Poly(W ** 2 + W + 1, *_gens(n), domain="QQ"))


@pytest.mark.parametrize("with_w", [False, True])
def test_mpoly_ring_operations_match_sympy(with_w):
    rng = random.Random(404 + with_w)
    for trial in range(25):
        n = rng.randint(1, 4)
        f, g = _random_mpoly(rng, n, with_w), _random_mpoly(rng, n, with_w)
        sf, sg = _sym(f), _sym(g)
        assert _sym(f + g) == _reduced(sf + sg, n), trial
        assert _sym(f - g) == _reduced(sf - sg, n), trial
        assert _sym(f * g) == _reduced(sf * sg, n), trial
        e = rng.randint(0, 4)
        assert _sym(f ** e) == _reduced(sf ** e, n), trial


def _expr(poly, symbols):
    """poly as a sympy expression in the given symbols, with w for w_3."""
    total = sympy.Integer(0)
    for exps, coeff in poly.terms.items():
        c = sum(sympy.Rational(p.numerator, p.denominator) * W ** j
                for j, p in enumerate(coeff.coeffs))
        total += c * sympy.Mul(*(s ** e for s, e in zip(symbols, exps)))
    return total


@pytest.mark.parametrize("with_w", [False, True])
def test_substitute_and_permute_match_sympy(with_w):
    rng = random.Random(505 + with_w)
    ys = sympy.symbols("y1:5")
    for trial in range(20):
        n, m = rng.randint(1, 3), rng.randint(1, 3)
        f = _random_mpoly(rng, n, with_w, degree=2)
        images = {i: _random_mpoly(rng, m, with_w, terms=3, degree=2) for i in range(1, n + 1)}
        expr = _expr(f, ys).subs({ys[i - 1]: _expr(images[i], XS) for i in images})
        expected = _reduced(sympy.Poly(sympy.expand(expr), *_gens(m), domain="QQ"), m)
        assert _sym(substitute(f, images, out_nvars=m)) == expected, trial
        alpha = rng.sample(range(1, n + 1), n)
        moved = _expr(f, [XS[alpha[i] - 1] for i in range(n)])
        expected = _reduced(sympy.Poly(moved, *_gens(n), domain="QQ"), n)
        assert _sym(permute_vars(f, alpha)) == expected, trial


def _distinct_terms(rng, n, count, degree, with_w):
    """A polynomial with exactly `count` terms of degree at most `degree`."""
    exps = [e for e in itertools.product(range(degree + 1), repeat=n) if sum(e) <= degree]
    coeffs = [_coeff(rng, with_w) or 1 for _ in range(count)]
    return MPoly(n, dict(zip(rng.sample(exps, count), coeffs)))


@pytest.mark.parametrize("with_w", [False, True])
def test_horner_substitute_matches_sympy(with_w):
    rng = random.Random(707 + with_w)
    ys = sympy.symbols("y1:6")
    for trial in range(6):
        f = _distinct_terms(rng, 5, 15 + trial, 3, with_w)
        images = {
            1: _distinct_terms(rng, 3, 1, 2, with_w),
            2: _distinct_terms(rng, 3, 3, 2, with_w),
            3: _distinct_terms(rng, 3, 10, 2, with_w),
            4: _coeff(rng, with_w),
            5: MPoly.constant(3, _coeff(rng, with_w)),
        }
        assert len(f.terms) >= 15
        assert [len(images[i].terms) for i in (1, 2, 3)] == [1, 3, 10]
        as_poly = {i: v if isinstance(v, MPoly) else MPoly.constant(3, v)
                   for i, v in images.items()}
        expr = _expr(f, ys).subs({ys[i - 1]: _expr(as_poly[i], XS) for i in images},
                                 simultaneous=True)
        expected = _reduced(sympy.Poly(sympy.expand(expr), *_gens(3), domain="QQ"), 3)
        assert _sym(substitute(f, images)) == expected, trial
        # every image a constant: the result has no variables at all
        point = {i: _coeff(rng, with_w) for i in range(1, 6)}
        values = {ys[i - 1]: _expr(MPoly.constant(0, c), ()) for i, c in point.items()}
        value = _expr(f, ys).subs(values, simultaneous=True)
        got = substitute(f, point, out_nvars=0)
        assert got.nvars == 0
        assert _sym(got) == _reduced(sympy.Poly(sympy.expand(value), W, domain="QQ"), 0), trial


def _expr12(poly, symbols):
    """poly as a sympy expression in the given symbols, with W for w_12:
    a coefficient of order N (dividing 12) on the w_N basis becomes a
    polynomial in W = w_12 with w_N = W^(12/N)."""
    total, step = sympy.Integer(0), 12 // poly.order
    for exps, coeff in poly.terms.items():
        c = sum(sympy.Rational(p.numerator, p.denominator) * W ** (j * step)
                for j, p in enumerate(coeff.coeffs))
        total += c * sympy.Mul(*(s ** e for s, e in zip(symbols, exps)))
    return total


def _mod_phi12(expr, n):
    gens = _gens(n)
    return sympy.Poly(sympy.expand(expr), *gens, domain="QQ").rem(
        sympy.Poly(W ** 4 - W ** 2 + 1, *gens, domain="QQ"))


def test_horner_substitute_across_orders_and_denominators_matches_sympy():
    """w(3) coefficients against w(4) images, and images over distinct
    rational denominators, so every Horner step aligns orders and scales
    to a common denominator."""
    rng = random.Random(808)
    ys = sympy.symbols("y1:5")
    w4 = root_of_unity(4, 4)
    for trial in range(8):
        f = _distinct_terms(rng, 4, 8 + trial, 3, with_w=True)
        images = {}
        for i, den in zip(range(1, 5), (7, 11, 13, 17)):
            exps = rng.sample(list(itertools.product(range(3), repeat=3)), 3)
            image = MPoly(3, {e: rng.randint(1, 5) for e in exps[:rng.randint(1, 2)]})
            if (i + trial) % 2:
                image = image + MPoly(3, {exps[2]: w4 * rng.randint(1, 5)})
            images[i] = image * Fraction(1, den)
        assert sorted(images[i]._den for i in images) == [7, 11, 13, 17], trial
        expr = _expr12(f, ys).subs({ys[i - 1]: _expr12(images[i], XS) for i in images},
                                   simultaneous=True)
        got = substitute(f, images)
        assert 12 % got.order == 0, trial
        assert _mod_phi12(_expr12(got, XS[:3]), 3) == _mod_phi12(expr, 3), trial


def _sigma_powers(n, size):
    """Every exponent vector p with sum(i * p_i) <= size: the partitions
    with parts at most n, written as powers of sigma_1..sigma_n."""
    for p in itertools.product(*(range(size // i + 1) for i in range(1, n + 1))):
        if sum(i * e for i, e in enumerate(p, start=1)) <= size:
            yield p


@pytest.mark.parametrize("n", range(1, 6))
def test_transition_counts_match_kernel_expansion(n):
    sigmas = [elem_sym(n, i) for i in range(1, n + 1)]
    for powers in _sigma_powers(n, 10):
        product = MPoly.constant(n, 1)
        for sigma, e in zip(sigmas, powers):
            product = product * sigma ** e
        expected = {
            exps: coeff.coeffs[0]
            for exps, coeff in product.terms.items()
            if all(a >= b for a, b in zip(exps, exps[1:]))
        }
        got = {_exps(key, n): count for key, count in _transition_counts(n, powers).items()}
        assert got == expected, powers


# -- symmetrize against sympy.polys.polyfuncs.symmetrize ----------------------


def _orbit_sum(rng, n, with_w=False, degree=3):
    """A random symmetric polynomial: the S_n-orbit sum of a few terms."""
    seed = _random_mpoly(rng, n, with_w, terms=3, degree=degree)
    total = MPoly.zero(n)
    for alpha in itertools.permutations(range(1, n + 1)):
        total = total + permute_vars(seed, alpha)
    return total


def _check_symmetrize(f):
    n = f.nvars
    ours = symmetrize(f).poly
    xs = XS[:n]
    formal, rest, _ = sympy_symmetrize(_expr(f, xs), *xs, formal=True)
    assert rest == 0
    sigmas = sympy.symbols(f"s1:{n + 1}")
    assert sympy.rem(sympy.expand(_expr(ours, sigmas) - formal), W ** 2 + W + 1, W) == 0


def test_symmetrize_matches_sympy():
    rng = random.Random(606)
    for _ in range(12):
        _check_symmetrize(_orbit_sum(rng, rng.randint(1, 4)))


def test_symmetrize_square_of_vandermonde_four():
    delta = MPoly.constant(4, 1)
    for i in range(1, 5):
        for j in range(i + 1, 5):
            delta = delta * (MPoly.variable(4, i) - MPoly.variable(4, j))
    _check_symmetrize(delta ** 2)


@pytest.mark.parametrize("with_w", [False, True])
def test_symmetrize_non_homogeneous_matches_sympy(with_w):
    rng = random.Random(808 + with_w)
    for trial in range(10):
        n = rng.randint(2, 4)
        f = _orbit_sum(rng, n, with_w) + _orbit_sum(rng, n, with_w, degree=5)
        f = f + elem_sym(n, 1) + (_coeff(rng, with_w) or 1)
        assert len({sum(exps) for exps in f.terms}) > 1, trial
        assert f.order == (3 if with_w else 1), trial
        _check_symmetrize(f)


# -- the integer-numerator layout: mixed denominators ------------------------

MIXED = (Fraction(1, 3), Fraction(3, 2), Fraction(5, 6), Fraction(-7, 4), Fraction(2))


def _mixed_coeff(rng):
    a = rng.choice(MIXED) * rng.choice((1, -1))
    if rng.random() < 0.5:
        return a
    return a + rng.choice(MIXED) * root_of_unity(3, 3) ** rng.randint(1, 2)


def _mixed_mpoly(rng, n, terms=4, degree=3):
    """A nonzero polynomial whose coefficients mix denominators 1-6 and w(3)."""
    out = {}
    for _ in range(rng.randint(1, terms)):
        out[tuple(rng.randint(0, degree) for _ in range(n))] = _mixed_coeff(rng)
    return MPoly(n, out)


def test_ring_operations_with_mixed_denominators_match_sympy():
    rng = random.Random(909)
    ys = sympy.symbols("y1:5")
    for trial in range(20):
        n, m = rng.randint(1, 3), rng.randint(1, 3)
        f, g = _mixed_mpoly(rng, n), _mixed_mpoly(rng, n)
        sf, sg = _sym(f), _sym(g)
        assert _sym(f + g) == _reduced(sf + sg, n), trial
        assert _sym(f - g) == _reduced(sf - sg, n), trial
        assert _sym(f * g) == _reduced(sf * sg, n), trial
        e = rng.randint(0, 3)
        assert _sym(f ** e) == _reduced(sf ** e, n), trial
        images = {i: _mixed_mpoly(rng, m, terms=3, degree=2) for i in range(1, n + 1)}
        expr = _expr(f, ys).subs({ys[i - 1]: _expr(images[i], XS) for i in images},
                                 simultaneous=True)
        expected = _reduced(sympy.Poly(sympy.expand(expr), *_gens(m), domain="QQ"), m)
        assert _sym(substitute(f, images, out_nvars=m)) == expected, trial
        alpha = rng.sample(range(1, n + 1), n)
        moved = _expr(f, [XS[alpha[i] - 1] for i in range(n)])
        expected = _reduced(sympy.Poly(moved, *_gens(n), domain="QQ"), n)
        assert _sym(permute_vars(f, alpha)) == expected, trial


def test_division_and_roots_with_mixed_denominators_match_sympy():
    rng = random.Random(910)
    for trial in range(15):
        n = rng.randint(1, 3)
        f, g = _mixed_mpoly(rng, n), _mixed_mpoly(rng, n)
        quotient = divide_exact(f * g, g)
        assert quotient is not None and _sym(quotient) == _sym(f), trial
        if not g.is_constant():
            assert divide_exact(f * g + 1, g) is None, trial
        # a rational leading coefficient with a rational square and cube root
        top = MPoly.monomial(n, [4] * n, Fraction(64, 729))
        h = top + f
        for k in (2, 3):
            root = kth_root_poly(h ** k, k)
            assert isinstance(root, MPoly), (trial, k)
            assert _reduced(_sym(root) ** k, n) == _reduced(_sym(h) ** k, n), (trial, k)
            assert root in (h, -h), (trial, k)
        x1 = MPoly.variable(n, 1)
        assert kth_root_poly(x1 * h ** 2, 2) is NO_ROOT, trial


def test_symmetrize_with_mixed_denominators_matches_sympy():
    rng = random.Random(911)
    for trial in range(8):
        n = rng.randint(2, 4)
        seed = _mixed_mpoly(rng, n, terms=3)
        f = MPoly.zero(n)
        for alpha in itertools.permutations(range(1, n + 1)):
            f = f + permute_vars(seed, alpha)
        _check_symmetrize(f + rng.choice(MIXED))
