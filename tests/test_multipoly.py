import gc
import math
import random
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from radform.cyclotomic import CycScalar, root_of_unity
from radform.multipoly import (
    ElemSymBasisExpr,
    ExponentOverflowError,
    MPoly,
    NO_ROOT,
    NotSymmetricError,
    UNDECIDED,
    _mul_add,
    divide_exact,
    elem_sym,
    evaluate,
    is_even_symmetric,
    is_symmetric,
    kth_root_poly,
    permute_vars,
    sigma_images,
    substitute,
    symmetrize,
)


def x(n, i):
    return MPoly.variable(n, i)


def compose(a, b):
    """(a b)(i) = a(b(i)) on 1-based image tuples."""
    return tuple(a[bi - 1] for bi in b)


def vandermonde(n):
    """Product of (x_i - x_j) over i < j."""
    poly = MPoly.constant(n, 1)
    for i in range(1, n + 1):
        for j in range(i + 1, n + 1):
            poly = poly * (x(n, i) - x(n, j))
    return poly


# -- arithmetic and canonical form ----------------------------------------


def test_canonical_form_drops_zeros():
    f = x(2, 1) - x(2, 1)
    assert f.is_zero()
    assert f.terms == {}
    g = MPoly(2, {(1, 0): 1, (0, 1): 0})
    assert g == x(2, 1)


def test_graded_lex_leading_term():
    f = x(3, 1) * x(3, 2) ** 2 + x(3, 1) ** 3 + x(3, 3)
    exps, coeff = f.leading_term()
    assert exps == (3, 0, 0)
    assert coeff == 1
    g = x(2, 2) ** 3 + x(2, 1)  # degree wins over lex position
    assert g.leading_term()[0] == (0, 3)


def test_mixed_coefficient_orders_share_one_ambient_order():
    e3 = root_of_unity(3, 3)
    f = MPoly(1, {(1,): e3, (0,): Fraction(1, 2)})
    assert f.order == 3
    assert all(c.order == 3 for c in f.terms.values())


def test_exponent_fields_never_carry():
    big = x(3, 1) ** (2 ** 20)
    square = big * big
    assert list(square.terms) == [(2 ** 21, 0, 0)]
    assert square.total_degree() == 2 ** 21
    half = x(3, 2) ** (2 ** 31)
    with pytest.raises(ExponentOverflowError, match="x2"):
        half * half
    with pytest.raises(ExponentOverflowError, match="x1"):
        MPoly(2, {(2 ** 32, 0): 1})


def test_scalar_coercion_in_operators():
    f = 2 * x(2, 1) + 1
    assert f == MPoly(2, {(1, 0): 2, (0, 0): 1})
    assert f - 1 == 2 * x(2, 1)
    assert (f * Fraction(1, 2)) == x(2, 1) + Fraction(1, 2)


# -- substitution, evaluation, permutation --------------------------------


def test_substitute_chains_polynomials():
    f = x(2, 1) ** 2 + x(2, 2)
    g = substitute(f, {1: x(3, 1) + x(3, 2), 2: x(3, 3)})
    expected = (x(3, 1) + x(3, 2)) ** 2 + x(3, 3)
    assert g == expected


def test_substitute_requires_full_cover():
    f = x(2, 1) + x(2, 2)
    with pytest.raises(ValueError):
        substitute(f, {1: x(2, 1)})


def test_substitute_rejects_conflicting_arities():
    f = x(2, 1) + x(2, 2)
    with pytest.raises(ValueError, match="disagree on variable count"):
        substitute(f, {1: x(2, 1), 2: x(3, 1)})
    with pytest.raises(ValueError, match="contradicts the polynomial images"):
        substitute(f, {1: x(2, 1), 2: 5}, out_nvars=3)
    assert substitute(f, {1: 2, 2: 3}, out_nvars=4) == MPoly.constant(4, 5)


def test_substitute_leaves_no_reference_cycle():
    f = (x(3, 1) + 2 * x(3, 2) - x(3, 3)) ** 3 + x(3, 1) * x(3, 2)
    images = sigma_images(3)
    gc.collect()
    gc.disable()
    try:
        for _ in range(10):
            substitute(f, images)
        assert gc.collect() == 0
    finally:
        gc.enable()


def test_horner_step_overflows_wherever_the_product_would():
    top = 2 ** 32 - 1
    cases = [((2 ** 31, 1), (2 ** 31, 0)), ((2 ** 31, 1), (2 ** 31 - 1, 0)),
             ((top, 0), (0, 1)), ((0, top), (1, 1)), ((1, top), (top, 0)),
             ((5, 2 ** 31), (0, 2 ** 31))]
    raised = 0
    for a_exps, b_exps in cases:
        a = MPoly.monomial(2, a_exps, Fraction(1, 3)) + x(2, 2)
        b = MPoly.monomial(2, b_exps, root_of_unity(3, 3)) + 1
        c = x(2, 1) + Fraction(1, 2)
        try:
            expected = a * b + c
        except ExponentOverflowError as err:
            raised += 1
            with pytest.raises(ExponentOverflowError, match=f"x{err.index}"):
                _mul_add(a, b, c)
        else:
            assert _mul_add(a, b, c) == expected
    assert raised == 4
    # through substitute: the last step multiplies y^(2^31) by y^(2^31)
    y = MPoly.monomial(1, (2 ** 31,))
    with pytest.raises(ExponentOverflowError, match="x1"):
        substitute(x(2, 1) * x(2, 2), {1: y, 2: y})
    assert substitute(x(2, 1) * x(2, 2), {1: y, 2: x(1, 1)}) == y * x(1, 1)


def test_substitute_keeps_the_order_of_a_sum_whose_product_falls_into_q():
    w3, w5 = root_of_unity(3, 3), root_of_unity(5, 5)
    y = x(1, 1)
    g = substitute(x(2, 1) * x(2, 2) + w3, {1: w5 * y, 2: w5 ** 4 * y})
    assert g.order == 3
    assert g.render() == "x1^2 + w(3)"


def test_evaluate_vandermonde_at_1_2_4():
    delta = vandermonde(3)
    assert evaluate(delta, [1, 2, 4]) == CycScalar.from_rational(-6)


def test_permute_vars_sends_x1_to_x2_under_123():
    f = x(3, 1)
    moved = permute_vars(f, (2, 3, 1))  # the cycle (1 2 3)
    assert moved == x(3, 2)


def test_permute_vars_composition_law():
    rng = random.Random(1)
    n = 4
    f = x(n, 1) ** 2 + 3 * x(n, 2) * x(n, 3) + x(n, 4)
    for _ in range(20):
        alpha = tuple(rng.sample(range(1, n + 1), n))
        beta = tuple(rng.sample(range(1, n + 1), n))
        lhs = permute_vars(permute_vars(f, alpha), beta)
        assert lhs == permute_vars(f, compose(beta, alpha))


def test_permute_then_evaluate_matches_permuted_point():
    rng = random.Random(2)
    n = 3
    f = x(n, 1) ** 2 * x(n, 2) + 5 * x(n, 3)
    for _ in range(10):
        alpha = tuple(rng.sample(range(1, n + 1), n))
        point = [rng.randint(-4, 4) for _ in range(n)]
        moved = permute_vars(f, alpha)
        permuted_point = [point[alpha[i] - 1] for i in range(n)]
        assert evaluate(moved, point) == evaluate(f, permuted_point)


# -- symmetry predicates ---------------------------------------------------


def test_elem_sym_small_cases():
    assert elem_sym(2, 1) == x(2, 1) + x(2, 2)
    assert elem_sym(2, 2) == x(2, 1) * x(2, 2)
    assert elem_sym(3, 2) == (
        x(3, 1) * x(3, 2) + x(3, 1) * x(3, 3) + x(3, 2) * x(3, 3)
    )
    assert elem_sym(3, 0) == MPoly.constant(3, 1)


def test_vandermonde_is_even_symmetric_but_not_symmetric():
    delta = vandermonde(3)
    assert is_even_symmetric(delta)
    assert not is_symmetric(delta)
    assert is_symmetric(delta * delta)


def test_even_symmetry_trivial_below_three_variables():
    assert is_even_symmetric(x(1, 1))
    assert is_even_symmetric(x(2, 1) - x(2, 2))
    assert is_even_symmetric(MPoly.zero(4))


# -- symmetrization --------------------------------------------------------


def test_symmetrize_power_sum_two_vars():
    f = x(2, 1) ** 2 + x(2, 2) ** 2
    result = symmetrize(f)
    s = result.poly
    assert s == MPoly(2, {(2, 0): 1, (0, 1): -2})  # s1^2 - 2 s2


def test_symmetrize_discriminant_two_vars():
    f = (x(2, 1) - x(2, 2)) ** 2
    assert symmetrize(f).poly == MPoly(2, {(2, 0): 1, (0, 1): -4})


def test_symmetrize_power_sum_three_vars():
    f = x(3, 1) ** 3 + x(3, 2) ** 3 + x(3, 3) ** 3
    expected = MPoly(3, {(3, 0, 0): 1, (1, 1, 0): -3, (0, 0, 1): 3})
    assert symmetrize(f).poly == expected


def test_symmetrize_rejects_asymmetric_input():
    with pytest.raises(NotSymmetricError) as err:
        symmetrize(x(2, 1) + 2 * x(2, 2))
    assert err.value.witness == (2, 1)


def test_symmetrize_zero():
    assert symmetrize(MPoly.zero(3)).poly.is_zero()


def test_expand_inverts_symmetrize():
    rng = random.Random(3)
    for _ in range(25):
        n = rng.randint(1, 3)
        sigma = MPoly.zero(n)
        for _ in range(rng.randint(1, 4)):
            exps = tuple(rng.randint(0, 2) for _ in range(n))
            sigma = sigma + MPoly.monomial(n, exps, rng.randint(-5, 5))
        f = ElemSymBasisExpr(sigma).expand()
        assert symmetrize(f).poly == sigma


# -- k-th roots ------------------------------------------------------------


def test_kth_root_recovers_squares():
    g = x(2, 1) + x(2, 2)
    assert kth_root_poly(g * g, 2) == g
    h = x(3, 1) ** 3
    assert kth_root_poly(h, 3) == x(3, 1)


def test_kth_root_structural_failure():
    # s1^2 - 4 s2 read as a polynomial in two variables has no square root
    f = MPoly(2, {(2, 0): 1, (0, 1): -4})
    assert kth_root_poly(f, 2) is NO_ROOT
    assert kth_root_poly(x(2, 1) * x(2, 2), 2) is NO_ROOT


def test_kth_root_undecided_on_nonrational_constant_root():
    for f in (2 * x(1, 1) ** 2, -4 * x(1, 1) ** 2):
        assert kth_root_poly(f, 2) ** 2 == f
    e3 = root_of_unity(3, 3)
    assert kth_root_poly(MPoly(1, {(2,): e3}), 2) is UNDECIDED


def test_kth_root_negative_odd_root_resolves():
    f = -8 * x(1, 1) ** 3
    assert kth_root_poly(f, 3) == -2 * x(1, 1)


def test_kth_root_degenerate_cases():
    assert kth_root_poly(MPoly.zero(2), 5).is_zero()
    f = x(2, 1) + 7
    assert kth_root_poly(f, 1) == f


def test_divide_exact():
    num = x(2, 1) ** 2 - x(2, 2) ** 2
    den = x(2, 1) - x(2, 2)
    assert divide_exact(num, den) == x(2, 1) + x(2, 2)
    assert divide_exact(x(2, 1), x(2, 2)) is None
    assert divide_exact(MPoly.zero(2), den).is_zero()


# -- randomized properties -------------------------------------------------


@st.composite
def polys(draw):
    nvars = draw(st.integers(min_value=1, max_value=3))
    nterms = draw(st.integers(min_value=0, max_value=4))
    terms = {}
    for _ in range(nterms):
        exps = tuple(
            draw(st.integers(min_value=0, max_value=3)) for _ in range(nvars)
        )
        terms[exps] = draw(st.integers(min_value=-6, max_value=6))
    return MPoly(nvars, terms)


def _same_arity(a, b, c):
    n = max(a.nvars, b.nvars, c.nvars)
    return a.pad_vars(n), b.pad_vars(n), c.pad_vars(n)


@settings(max_examples=50, deadline=None)
@given(polys(), polys(), polys())
def test_ring_axioms(a, b, c):
    a, b, c = _same_arity(a, b, c)
    assert a + b == b + a
    assert (a + b) + c == a + (b + c)
    assert a * b == b * a
    assert (a * b) * c == a * (b * c)
    assert a * (b + c) == a * b + a * c
    assert a - a == MPoly.zero(a.nvars)


@settings(max_examples=30, deadline=None)
@given(polys(), st.integers(min_value=2, max_value=3))
def test_kth_root_round_trip(g, k):
    result = kth_root_poly(g ** k, k)
    if isinstance(result, MPoly):
        assert result ** k == g ** k
    else:
        # the extractor may decline on a nonrational-rooted leading
        # coefficient, but it must never report a false NO_ROOT
        assert result is UNDECIDED and not g.is_zero()


@settings(max_examples=30, deadline=None)
@given(polys())
def test_symmetric_implies_even_symmetric(f):
    sym = sum(
        (permute_vars(f, p) for p in _all_perms(f.nvars)),
        MPoly.zero(f.nvars),
    )
    assert is_symmetric(sym)
    assert is_even_symmetric(sym)


def _all_perms(n):
    import itertools

    return [tuple(p) for p in itertools.permutations(range(1, n + 1))]


# -- the integer-numerator layout -------------------------------------------


@st.composite
def rational_polys(draw):
    """Polynomials with mixed denominators and, at times, w(3) coefficients."""
    nvars = draw(st.integers(min_value=1, max_value=3))
    fractions = st.fractions(min_value=-6, max_value=6, max_denominator=12)
    terms = {}
    for _ in range(draw(st.integers(min_value=0, max_value=4))):
        exps = tuple(draw(st.integers(min_value=0, max_value=3)) for _ in range(nvars))
        coeff = draw(fractions)
        if draw(st.booleans()):
            coeff = coeff + draw(fractions) * root_of_unity(3, 3)
        terms[exps] = coeff
    return MPoly(nvars, terms)


def _assert_canonical(p):
    """A positive denominator coprime to the numerators, 1 for zero."""
    assert p._den > 0
    assert math.gcd(p._den, *p._terms.values()) == 1
    assert all(p._terms.values())
    if p.is_zero():
        assert p._den == 1


def _same(p, q):
    """Structural equality: one packed layout, one denominator."""
    return (p.nvars, p.order, p._terms, p._den) == (q.nvars, q.order, q._terms, q._den)


@settings(max_examples=60, deadline=None)
@given(rational_polys(), rational_polys())
def test_rational_coefficients_stay_canonical(p, q):
    p, q, _ = _same_arity(p, q, q)
    results = [p, q, p + q, p - q, p * q, -p, p - p, p ** 2, p / Fraction(5, 2),
               permute_vars(p, tuple(range(p.nvars, 0, -1)))]
    for r in results:
        _assert_canonical(r)
    assert _same(p * Fraction(2, 3) * Fraction(3, 2), p)
    assert _same((p + q) - q, p)


def test_combined_order_is_capped():
    a = MPoly.variable(1, 1) * root_of_unity(7, 7) * root_of_unity(11, 11)
    assert a.order == 77
    w13 = MPoly.constant(1, root_of_unity(13, 13))
    for combine in (lambda a, b: a * b, lambda a, b: a + b, lambda a, b: a - b):
        with pytest.raises(ValueError, match="order 1001 exceeds the cap 100"):
            combine(a, w13)
    assert (w13 * w13 - w13).order == 13
