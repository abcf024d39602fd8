"""Radical tower arithmetic and tower-level verification.

Oracle values used below were derived by hand before the implementation
and are frozen here:

  * quadratic tower (n=2, k=2, p0 = s1^2 - 4*s2): the inverse of y1 is
    y1 / (s1^2 - 4*s2), the witness x1 - x2 satisfies the level identity,
    and (s1 + y1)/2 expands to x1;
  * cubic chain (n=3, ks = 2,3,3): with U = 2*s1^3 - 9*s1*s2 + 27*s3 and
    W = s1^2 - 3*s2, the base radicand is U^2 - 4*W^3, the two cube
    radicands are (U +/- y1)/2, and the witnesses are u^3 - v^3, u, v for
    u = x1 + w*x2 + w^2*x3, v = x1 + w^2*x2 + w*x3 (w a cube root of 1);
    then (s1 + y2 + y3)/3 expands to x1.
"""

import functools
import hashlib
import operator
import pathlib
import random
from fractions import Fraction

import pytest

from radform.cyclotomic import CycScalar, root_of_unity
from radform.dsl import TowerContext, parse_expression
from radform.formula import parse
from radform.multipoly import MPoly, elem_sym, evaluate, sigma_images
from radform.resolvent import derive_witnesses
from radform.tower import (
    ATTESTED_ASSERTED,
    ATTESTED_UNKNOWN,
    ATTESTED_VERIFIED,
    AttestationError,
    RatFunc,
    TowerElem,
    TowerSpec,
    _adjugate,
    check_annihilation,
    conjugate,
    expand_with_witnesses,
    nonpower_check,
    witness_check,
)


DEGREE3_TOWER = pathlib.Path(__file__).resolve().parent.parent / "fixtures" / "degree3.tower"


def sigma(n, i):
    return MPoly.variable(n, i)


def quad_spec(attest=True):
    s1, s2 = sigma(2, 1), sigma(2, 2)
    spec = TowerSpec(2)
    spec.add_level(2, spec.from_sigma_poly(s1 ** 2 - 4 * s2))
    if attest:
        result = nonpower_check(spec, 1)
        assert result.status == "verified"
        spec.set_attestation(1, ATTESTED_VERIFIED)
    return spec


@pytest.fixture(scope="module")
def cubic():
    s1, s2, s3 = (sigma(3, i) for i in (1, 2, 3))
    U = 2 * s1 ** 3 - 9 * s1 * s2 + 27 * s3
    W = s1 ** 2 - 3 * s2
    spec = TowerSpec(3)
    spec.add_level(2, spec.from_sigma_poly(U ** 2 - 4 * W ** 3))
    assert nonpower_check(spec, 1).status == "verified"
    spec.set_attestation(1, ATTESTED_VERIFIED)
    half = Fraction(1, 2)
    y1 = spec.generator(1)
    spec.add_level(3, (spec.from_sigma_poly(U) + y1) * half, ATTESTED_ASSERTED)
    spec.add_level(3, (spec.from_sigma_poly(U) - y1) * half, ATTESTED_ASSERTED)
    return spec


def quintic_spec():
    """One level of degree 5 over two sigma-variables."""
    spec = TowerSpec(2)
    spec.add_level(5, spec.from_sigma_poly(sigma(2, 1) ** 2 - 4 * sigma(2, 2)))
    return spec


def cubic_witnesses():
    x1, x2, x3 = (MPoly.variable(3, i) for i in (1, 2, 3))
    w = root_of_unity(3, 3)
    u = x1 + w * x2 + w ** 2 * x3
    v = x1 + w ** 2 * x2 + w * x3
    return [u ** 3 - v ** 3, u, v]


# ---------------------------------------------------------------------------
# rational functions


class TestRatFunc:
    def test_equality_crosses_multiplication(self):
        s1 = sigma(2, 1)
        assert RatFunc(s1 * s1, s1) == RatFunc(s1)
        assert RatFunc(s1, s1) == RatFunc.one(2)
        assert RatFunc(s1) != RatFunc(sigma(2, 2))

    def test_zero_denominator_rejected(self):
        with pytest.raises(ZeroDivisionError):
            RatFunc(sigma(2, 1), MPoly.zero(2))

    def test_field_identities(self):
        s1, s2 = sigma(2, 1), sigma(2, 2)
        a = RatFunc(s1, s2)
        b = RatFunc(s2 + 1, s1 ** 2)
        assert a + b == RatFunc(s1 ** 3 + s2 * (s2 + 1), s2 * s1 ** 2)
        assert a * a.inv() == RatFunc.one(2)
        assert (a / b) * b == a
        assert a - a == RatFunc.zero(2)
        assert 1 / a == a.inv()

    def test_negative_power(self):
        s1 = sigma(2, 1)
        a = RatFunc(s1, MPoly.constant(2, 2))
        assert a ** -2 == RatFunc(MPoly.constant(2, 4), s1 ** 2)

    def test_zero_inverse_rejected(self):
        with pytest.raises(ZeroDivisionError):
            RatFunc.zero(2).inv()

    def test_foreign_operands(self):
        r = RatFunc(sigma(2, 1), sigma(2, 2) + 1)
        with pytest.raises(TypeError):
            r + "a"
        with pytest.raises(TypeError):
            r * object()
        with pytest.raises(TypeError):
            "a" / r
        assert (r == "a") is False
        assert r != "a"

    def test_reflected_operators_match_forward_ones(self):
        r = RatFunc(sigma(2, 1), sigma(2, 2) + 1)
        three = RatFunc.constant(2, 3)
        assert 3 * r == r * 3 == three * r
        assert 2 - r == RatFunc.constant(2, 2) - r
        assert 1 / r == RatFunc.one(2) / r == r.inv()
        assert 2 + r == r + 2


# ---------------------------------------------------------------------------
# spec construction and element arithmetic


class TestSpecAndElems:
    def test_composite_degree_rejected(self):
        spec = TowerSpec(2)
        with pytest.raises(ValueError, match="not prime"):
            spec.add_level(4, spec.from_sigma_poly(sigma(2, 1)))

    def test_generator_square_is_radicand(self):
        spec = quad_spec(attest=False)
        y1 = spec.generator(1)
        assert y1 * y1 == spec.ps[0]
        assert y1 ** 2 == spec.ps[0]

    def test_generator_out_of_range(self):
        spec = quad_spec(attest=False)
        with pytest.raises(ValueError):
            spec.generator(2)

    def test_lift_and_scalar_mixing(self):
        spec = quad_spec(attest=False)
        y1 = spec.generator(1)
        e = y1 + Fraction(1, 2)
        assert e - y1 == spec.scalar(Fraction(1, 2), 1)
        assert 3 * y1 - y1 == 2 * y1
        with pytest.raises(ValueError):
            spec.lift(y1, 0)
        with pytest.raises(ValueError):
            spec.lift(y1, 5)

    def test_identical_independent_towers_interoperate(self):
        a, b = quad_spec(attest=False), quad_spec(attest=False)
        assert a.generator(1) + b.generator(1) == 2 * a.generator(1)

    def test_distinct_towers_rejected(self):
        a = quad_spec(attest=False)
        other = TowerSpec(2)
        other.add_level(2, other.from_sigma_poly(sigma(2, 2)))
        with pytest.raises(ValueError, match="different tower"):
            a.generator(1) + other.generator(1)

    @pytest.mark.parametrize("op", [
        lambda a, b: a - b, lambda a, b: b - a, lambda a, b: a * b,
        lambda a, b: a / b, lambda a, b: a == b,
    ], ids=["sub", "rsub", "mul", "truediv", "eq"])
    def test_distinct_towers_rejected_by_every_operator(self, op):
        a = quad_spec(attest=False)
        other = TowerSpec(2)
        other.add_level(2, other.from_sigma_poly(sigma(2, 2)))
        with pytest.raises(ValueError, match="different tower"):
            op(a.generator(1), other.generator(1))

    def test_foreign_operands(self):
        e = quad_spec().generator(1) + 1
        with pytest.raises(TypeError):
            e * object()
        with pytest.raises(TypeError):
            e + "a"
        with pytest.raises(TypeError):
            "a" - e
        assert (e == "a") is False
        assert e != "a"

    def test_reflected_operators_match_forward_ones(self):
        spec = quad_spec()
        e = spec.generator(1) + sigma(2, 1)
        assert 2 - e == spec.scalar(2, 1) - e == -(e - 2)
        assert 1 / e == spec.one(1) / e == e.inverse()
        assert 3 * e == e * 3 == spec.scalar(3) * e
        assert 2 + e == e + 2

    def test_cubic_level_product_oracle(self, cubic):
        # y2 * y2^2 folds through y2^3 = p1
        y2 = cubic.generator(2)
        assert y2 * y2 ** 2 == cubic.lift(cubic.ps[1], 2)
        assert (y2 + 1) * (y2 - 1) == y2 ** 2 - 1

    def test_render_mentions_generators(self, cubic):
        y2 = cubic.generator(2)
        text = (y2 ** 2 + 3 * y2).render()
        assert "y2^2" in text and "3*y2" in text


# ---------------------------------------------------------------------------
# differential tests of the payload arithmetic against a schoolbook product


def one_level_spec(k):
    """y1^k = s1^2 - 4*s2 over two sigma-variables, verified nonpower."""
    spec = TowerSpec(2)
    spec.add_level(k, spec.from_sigma_poly(sigma(2, 1) ** 2 - 4 * sigma(2, 2)))
    assert nonpower_check(spec, 1).status == "verified"
    spec.set_attestation(1, ATTESTED_VERIFIED)
    return spec


def random_elem(spec, level, rng, dens=False):
    """A seeded element of the given level.  Each coordinate is zero one
    time in five; a level-0 value is a small rational combination of 1 and
    the sigma-variables, and with dens set, half of them are over s1 + c
    for a random c."""
    if level == 0:
        n = spec.n
        basis = [MPoly.constant(n, 1)] + [sigma(n, i) for i in range(1, n + 1)]
        num = sum((Fraction(rng.randint(-3, 3), rng.choice((1, 2))) * b for b in basis),
                  MPoly.zero(n))
        den = sigma(n, 1) + rng.randint(1, 3) if dens and rng.random() < 0.5 else None
        return TowerElem(spec, 0, RatFunc(num, den))
    return TowerElem(spec, level, [
        random_elem(spec, level - 1, rng, dens) if rng.random() < 0.8 else spec.zero(level - 1)
        for _ in range(spec.ks[level - 1])
    ])


def schoolbook_add(a, b):
    if a.level == 0:
        return a + b
    return TowerElem(a.spec, a.level, map(schoolbook_add, a.coords, b.coords))


def schoolbook_mul(a, b):
    """a * b for elements of one level, with only level-0 operators doing
    arithmetic: convolve the coordinates, then fold y^k -> rho from the top."""
    if a.level == 0:
        return a * b
    spec, k = a.spec, a.spec.ks[a.level - 1]
    raw = [spec.zero(a.level - 1)] * (2 * k - 1)
    for i, ca in enumerate(a.coords):
        for j, cb in enumerate(b.coords):
            raw[i + j] = schoolbook_add(raw[i + j], schoolbook_mul(ca, cb))
    rho = spec.ps[a.level - 1]
    for m in range(2 * k - 2, k - 1, -1):
        raw[m - k] = schoolbook_add(raw[m - k], schoolbook_mul(raw[m], rho))
    return TowerElem(spec, a.level, raw[:k])


def differential_cases():
    """(spec, level, dens) for k = 2, 3, 5 and levels 2 and 3 of the fixture."""
    fixture = parse(DEGREE3_TOWER.read_text()).spec
    return [(one_level_spec(k), 1, True) for k in (2, 3, 5)] + [
        (fixture, 2, True), (fixture, 3, False)]


# sha1 of the renderings of INVERSE_COUNT seeded level-1 inverses (k = 2
# and 3 with denominators in every other element, k = 5 without), as tower
# products computed them with one operator call per coordinate
INVERSE_COUNT, INVERSE_RENDER_SHA1 = 100, "101d7f5ad47bc16c14d8e20bac366f388571f105"


class TestPayloadArithmetic:
    @pytest.fixture(scope="class")
    def cases(self):
        return differential_cases()

    def test_products_match_schoolbook(self, cases):
        rng = random.Random(151)
        for spec, level, dens in cases:
            for _ in range(3 if level < 3 else 1):
                a, b = (random_elem(spec, level, rng, dens) for _ in range(2))
                assert a * b == schoolbook_mul(a, b)
                assert a + b == schoolbook_add(a, b)

    def test_ring_axioms(self, cases):
        rng = random.Random(152)
        for spec, level, dens in cases:
            a, b, c = (random_elem(spec, level, rng, dens) for _ in range(3))
            assert a * b == b * a and a + b == b + a
            assert (a * b) * c == a * (b * c)
            assert a * (b + c) == a * b + a * c
            assert (a - a).is_zero() and a * spec.one(level) == a
            assert (a * spec.zero(level)).is_zero()

    def test_mixed_operands(self, cases):
        rng = random.Random(153)
        for spec, level, dens in cases:
            a = random_elem(spec, level, rng, dens)
            low = random_elem(spec, level - 1, rng, dens)
            lifted = spec.lift(low, level)
            assert a * low == low * a == schoolbook_mul(a, lifted)
            assert a + low == low + a == schoolbook_add(a, lifted)
            poly = sigma(spec.n, 1) - 2
            rf = RatFunc(sigma(spec.n, 2), poly)
            for value, elem in [
                (3, spec.scalar(3, level)),
                (Fraction(-2, 3), spec.scalar(Fraction(-2, 3), level)),
                (poly, spec.lift(spec.from_sigma_poly(poly), level)),
                (rf, spec.lift(spec.from_ratfunc(rf), level)),
            ]:
                assert a * value == value * a == schoolbook_mul(a, elem)
                assert a + value == value + a == schoolbook_add(a, elem)
                assert a - value == schoolbook_add(a, -elem)

    def test_inverse_multiplies_back_to_one(self, cases):
        # polynomial coordinates: a product with coordinates over different
        # denominators grows without bound (ROADMAP item 1)
        rng = random.Random(154)
        for spec, level, _ in cases[:3]:
            for _ in range(3):
                e = random_elem(spec, level, rng)
                if not e.is_zero():
                    assert e * e.inverse() == spec.one(level)
        fixture = cases[3][0]
        e = random_elem(fixture, 2, random.Random(2))
        assert e * e.inverse() == fixture.one(2)

    def test_seeded_inverse_renderings_unchanged(self, cases):
        rng = random.Random(155)
        renders = []
        for i in range(INVERSE_COUNT):
            spec = cases[i % 3][0]
            e = random_elem(spec, 1, rng, dens=i % 3 != 2 and i % 2 == 0)
            if not e.is_zero():
                renders.append(e.inverse().render())
        digest = hashlib.sha1("\n".join(renders).encode()).hexdigest()
        assert digest == INVERSE_RENDER_SHA1

    def test_constructor_checks(self):
        spec = one_level_spec(2)
        zero0 = spec.zero(0)
        with pytest.raises(ValueError, match="^level-1 vector needs 2 coordinates$"):
            TowerElem(spec, 1, [zero0])
        with pytest.raises(ValueError, match="^coordinates must live one level down$"):
            TowerElem(spec, 1, [spec.zero(1), zero0])
        with pytest.raises(ValueError, match="^level 2 exceeds tower height 1$"):
            TowerElem(spec, 2, [spec.zero(1)] * 2)
        with pytest.raises(TypeError, match="^level-0 payload must be a rational function$"):
            TowerElem(spec, 0, sigma(2, 1))


# ---------------------------------------------------------------------------
# inverses and attestations


class TestInverse:
    def test_unattested_division_refused(self):
        spec = quad_spec(attest=False)
        assert spec.attestations == [ATTESTED_UNKNOWN]
        with pytest.raises(AttestationError, match="no nonpower attestation"):
            spec.generator(1).inverse()

    def test_quadratic_generator_inverse_oracle(self):
        spec = quad_spec()
        s1, s2 = sigma(2, 1), sigma(2, 2)
        inv = spec.generator(1).inverse()
        assert inv.coords[0].is_zero()
        assert inv.coords[1].ratfunc == RatFunc(MPoly.constant(2, 1), s1 ** 2 - 4 * s2)

    def test_false_attestation_detected_on_contact(self):
        s1 = sigma(2, 1)
        spec = TowerSpec(2)
        spec.add_level(2, spec.from_sigma_poly(s1 ** 2), ATTESTED_ASSERTED)
        y1 = spec.generator(1)
        with pytest.raises(AttestationError, match="refuted"):
            (y1 - spec.from_sigma_poly(s1)).inverse()
        # elements coprime to the hidden factorization still invert fine
        assert y1 * y1.inverse() == spec.one(1)

    def test_zero_inverse_rejected(self):
        spec = quad_spec()
        with pytest.raises(ZeroDivisionError):
            spec.zero(1).inverse()

    def test_random_level_one_inverses(self):
        spec = quad_spec()
        rng = random.Random(7)
        one = spec.one(1)
        s1, s2 = sigma(2, 1), sigma(2, 2)
        basis = [MPoly.constant(2, 1), s1, s2]
        for _ in range(10):
            coords = [
                sum(
                    (rng.randint(-2, 2) * b for b in basis),
                    MPoly.zero(2),
                )
                for _ in range(2)
            ]
            e = spec.from_sigma_poly(coords[0]) + spec.generator(1) * coords[1]
            if e.is_zero():
                continue
            assert e * e.inverse() == one

    def test_nested_inverses(self, cubic):
        one2 = cubic.one(2)
        e = cubic.generator(2) - 1
        assert e * e.inverse() == one2
        y3 = cubic.generator(3)
        assert y3 * y3.inverse() == cubic.one(3)
        y1, y2 = cubic.generator(1), cubic.generator(2)
        s1 = cubic.from_sigma_poly(sigma(3, 1))
        s3 = cubic.from_sigma_poly(sigma(3, 3))
        for e in (y2 ** 2 + y1, (s1 + y1) * y2 + 1, y2 * y3 + s3):
            assert e * e.inverse() == cubic.one(e.level)
        lifted = cubic.lift(y1 + s1, 3)
        assert lifted.inverse().level == 3
        assert lifted * lifted.inverse() == cubic.one(3)

    def test_false_attestation_detected_at_level_two(self):
        # rho_1 = y1 * (s1^2 - 4*s2) = y1^3, so y2 - y1 is a zero divisor
        spec = quad_spec()
        y1 = spec.generator(1)
        spec.add_level(3, y1 * spec.ps[0], ATTESTED_ASSERTED)
        y2 = spec.generator(2)
        with pytest.raises(AttestationError, match="level 2 .*refuted"):
            (y2 - y1).inverse()
        e = y2 + 1
        assert e * e.inverse() == spec.one(2)

    def test_level_two_inverse_on_fixture_by_evaluation(self):
        # checked at x = (2, 5, 11) by evaluation alone, with no tower product
        formula = parse(DEGREE3_TOWER.read_text())
        spec = formula.spec
        e = parse_expression(
            "(s1 + 2*y1) + (s2 - y1)*y2 + (s3 + 1)*y2^2", TowerContext(spec, ("s", 1, "y"), spec.s)
        )
        point = (2, 5, 11)
        sigmas = [evaluate(sigma_images(3)[i], point) for i in (1, 2, 3)]
        witnesses, _ = derive_witnesses(formula)
        ys = [evaluate(w, point) for w in witnesses]

        def value(elem):
            if elem.level == 0:
                rf = elem.ratfunc
                return evaluate(rf.num, sigmas) / evaluate(rf.den, sigmas)
            y = ys[elem.level - 1]
            return sum(
                (value(c) * y ** m for m, c in enumerate(elem.coords)), CycScalar.zero()
            )

        assert value(e) * value(e.inverse()) == 1

    def test_lower_level_attestation_gate(self):
        # y1 + y2 has its level-2 norm at level 1, whose gate must hold too
        text = DEGREE3_TOWER.read_text().replace("assert-nonpower 1\n", "")
        spec = parse(text).spec
        assert spec.attestations[0] == ATTESTED_UNKNOWN
        e = parse_expression("y1 + y2", TowerContext(spec, ("s", 1, "y"), spec.s))
        with pytest.raises(
            AttestationError, match="level 1 has no nonpower attestation"
        ):
            e.inverse()

    def test_rational_inverse_coordinates_have_order_one(self):
        # the adjugate recurrence forms no scalar of order 3, so the inverse
        # of an element with rational coordinates has rational coordinates
        s1, s2 = sigma(2, 1), sigma(2, 2)
        spec = TowerSpec(2)
        spec.add_level(3, spec.from_sigma_poly(s1 ** 2 - 4 * s2), ATTESTED_ASSERTED)
        y1 = spec.generator(1)
        e = spec.from_sigma_poly(s1) + spec.from_sigma_poly(s2 + 1) * y1 + 2 * y1 ** 2
        inverse = e.inverse()
        assert e * inverse == spec.one(1)
        for coord in inverse.coords:
            assert (coord.ratfunc.num.order, coord.ratfunc.den.order) == (1, 1)

    def test_false_level_three_attestation_of_the_fixture_caught(self):
        # with W = s1^2 - 3*s2, p_1 * p_2 = W^3, so p_2 = (W / y2)^3 and the
        # fixture's assert-nonpower 3 is false; the norm two levels up sees it
        spec = parse(DEGREE3_TOWER.read_text()).spec
        W = spec.from_sigma_poly(sigma(3, 1) ** 2 - 3 * sigma(3, 2))
        root = W * spec.generator(2).inverse()
        assert root ** 3 == spec.ps[2]
        with pytest.raises(AttestationError, match="level 3 is reducible"):
            (spec.generator(3) - spec.lift(root, 3)).inverse()


# ---------------------------------------------------------------------------
# the adjugate recurrence


def multiplication_trace(z):
    """The trace of multiplication by z over the level below, read off the
    matrix whose i-th column holds the coordinates of z * y^i."""
    spec, level = z.spec, z.level
    column, trace = z, spec.zero(level - 1)
    for i in range(spec.ks[level - 1]):
        trace = trace + column.coords[i]
        column = column * spec.generator(level)
    return trace


class TestAdjugate:
    @pytest.fixture(scope="class")
    def cases(self):
        """k = 2, 3, 5 at level 1, and level 2 of the fixture."""
        return differential_cases()[:4]

    def test_trace_is_k_times_the_constant_coordinate(self, cases):
        rng = random.Random(291)
        for spec, level, dens in cases:
            for _ in range(2):
                z = random_elem(spec, level, rng, dens)
                assert multiplication_trace(z) == z.coords[0] * spec.ks[level - 1]

    def test_norm_and_adjugate_are_the_conjugate_products(self, cases):
        rng = random.Random(292)
        for spec, level, _ in cases:
            x = random_elem(spec, level, rng)
            conjugates = [conjugate(x, level, m) for m in range(spec.ks[level - 1])]
            adj, norm = _adjugate(x)
            assert norm.level == level - 1
            assert functools.reduce(operator.mul, conjugates) == norm
            assert functools.reduce(operator.mul, conjugates[1:]) == adj

    def test_level_of_degree_seven_multiplies_back_to_one(self):
        spec = one_level_spec(7)
        rng = random.Random(293)
        for _ in range(2):
            e = random_elem(spec, 1, rng)
            assert e * e.inverse() == spec.one(1)

    def test_square_root_over_cube_root_of_unity_scalars(self):
        # the even-k sign rule with non-rational coefficients in the ground
        s1, s2 = sigma(2, 1), sigma(2, 2)
        w = root_of_unity(3, 3)
        spec = TowerSpec(2)
        spec.add_level(2, spec.from_sigma_poly(s1 ** 2 - 4 * w * s2))
        assert nonpower_check(spec, 1).status == "verified"
        spec.set_attestation(1, ATTESTED_VERIFIED)
        y1 = spec.generator(1)
        for e in (y1 + w * s1, (w ** 2 * s2 + 1) * y1 - w, w * y1 + s1 - s2):
            assert e * e.inverse() == spec.one(1)
            assert _adjugate(e)[0] == conjugate(e, 1, 1)


# ---------------------------------------------------------------------------
# conjugation


class TestConjugate:
    def test_square_root_flips_sign(self):
        spec = quad_spec(attest=False)
        y1 = spec.generator(1)
        assert conjugate(y1, 1, 1) == -y1
        assert conjugate(conjugate(y1, 1, 1), 1, 1) == y1

    def test_cube_root_picks_up_root_of_unity(self, cubic):
        y2 = cubic.generator(2)
        w = root_of_unity(3, 3)
        assert conjugate(y2, 2, 1) == y2 * w
        assert conjugate(y2, 2, 2) == y2 * w ** 2

    def test_fixes_lower_levels(self, cubic):
        y1 = cubic.generator(1)
        assert conjugate(y1, 2, 1) == y1
        assert conjugate(cubic.lift(y1, 3), 2, 1) == y1

    def test_ring_homomorphism(self, cubic):
        a = cubic.generator(2) + cubic.generator(1)
        b = cubic.generator(3) - 2
        assert conjugate(a * b, 2, 1) == conjugate(a, 2, 1) * conjugate(b, 2, 1)
        assert conjugate(a + b, 3, 2) == conjugate(a, 3, 2) + conjugate(b, 3, 2)

    def test_composition_wraps_modulo_k(self, cubic):
        e = (cubic.generator(2) + 1) ** 2
        once = conjugate(e, 2, 1)
        assert conjugate(once, 2, 2) == e


# ---------------------------------------------------------------------------
# nonpower checks


class TestNonpower:
    def test_level_one_verified(self):
        spec = quad_spec(attest=False)
        result = nonpower_check(spec, 1)
        assert result.status == "verified"
        assert "root" in result.detail

    def test_level_one_refuted_with_root(self):
        s1, s2 = sigma(2, 1), sigma(2, 2)
        spec = TowerSpec(2)
        spec.add_level(2, spec.from_sigma_poly((s1 - s2) ** 2))
        result = nonpower_check(spec, 1)
        assert result.status == "refuted"
        assert result.root ** 2 == spec.ps[0]

    def test_zero_radicand_refuted(self):
        spec = TowerSpec(2)
        spec.add_level(2, spec.zero())
        assert nonpower_check(spec, 1).status == "refuted"

    def test_nested_constant_refuted(self):
        spec = quad_spec()
        spec.add_level(3, spec.scalar(8, 1))
        result = nonpower_check(spec, 2)
        assert result.status == "refuted"
        assert result.root == spec.scalar(2, 1)

    def test_nested_level_undecided(self, cubic):
        result = nonpower_check(cubic, 2)
        assert result.status == "undecided"

    def test_level_one_refuted_with_a_gauss_sum_root(self):
        spec = TowerSpec(2)
        spec.add_level(2, spec.from_sigma_poly(2 * sigma(2, 1) ** 2))
        result = nonpower_check(spec, 1)
        assert result.status == "refuted"
        assert result.root.render() == "(w(8) - w(8)^3)*s1"
        assert result.root ** 2 == spec.ps[0]

    def test_nested_constant_refuted_with_a_gauss_sum_root(self):
        spec = quad_spec()
        spec.add_level(2, spec.scalar(2, 1))
        result = nonpower_check(spec, 2)
        assert result.status == "refuted"
        w8 = root_of_unity(8, 8)
        assert result.root == spec.scalar(w8 - w8 ** 3, 1)
        assert result.root ** 2 == spec.ps[1]

    def test_level_one_rational_constant_without_a_cyclotomic_root_verified(self):
        # x^3 - 2 is irreducible and no cyclotomic field holds its roots
        text = "towerformula n=2 s=1\nk 3\np 0 = 2*s1^3\ntarget = s1\nassert-nonpower 1\n"
        assert nonpower_check(parse(text).spec, 1).status == "verified"

    def test_nested_constant_with_a_root_in_the_tower_undecided(self):
        # with y1^3 = 2, the level y2^3 = 2 has the root y1
        spec = TowerSpec(2)
        spec.add_level(3, spec.scalar(2), ATTESTED_VERIFIED)
        spec.add_level(3, spec.scalar(2, 1))
        assert spec.generator(1) ** 3 == spec.ps[1]
        assert nonpower_check(spec, 2).status == "undecided"

    def test_nested_non_rational_constant_undecided(self):
        spec = quad_spec()
        spec.add_level(2, spec.scalar(root_of_unity(3, 3), 1))
        assert nonpower_check(spec, 2).status == "undecided"

    @pytest.mark.parametrize("name, statuses", [
        ("degree2.tower", ["verified"]),
        ("degree3.tower", ["verified", "undecided", "undecided"]),
    ])
    def test_fixture_levels(self, name, statuses):
        spec = parse((DEGREE3_TOWER.parent / name).read_text()).spec
        assert [nonpower_check(spec, j).status for j in range(1, spec.s + 1)] == statuses


# ---------------------------------------------------------------------------
# annihilation certificates


class TestAnnihilation:
    def test_defining_polynomial_annihilates(self, cubic):
        p1 = cubic.ps[1]
        report = check_annihilation(cubic, 2, [-p1, 0, 0, 1])
        assert report.annihilates
        assert "all 3 of its conjugates" in str(report)

    def test_wrong_level_leaves_remainder(self, cubic):
        p1, p2 = cubic.ps[1], cubic.ps[2]
        report = check_annihilation(cubic, 3, [-p1, 0, 0, 1])
        assert not report.annihilates
        assert report.remainder[0] == p2 - p1
        assert "nonzero" in str(report)

    def test_low_degree_remainder_is_identity(self, cubic):
        report = check_annihilation(cubic, 2, [5, 1])
        assert not report.annihilates
        assert report.remainder[1] == cubic.one(1)

    @pytest.mark.parametrize("tower, level", [("cubic", 2), ("cubic", 3), ("quintic", 1)])
    @pytest.mark.parametrize("degree", [
        lambda k: k - 2, lambda k: k - 1, lambda k: k, lambda k: 2 * k, lambda k: 3 * k + 1,
    ], ids=["k-2", "k-1", "k", "2k", "3k+1"])
    def test_quotient_and_remainder_recombine_to_q(self, cubic, tower, level, degree):
        # below degree k the quotient is empty; from degree 2k on, folded
        # coefficients are folded again
        spec = cubic if tower == "cubic" else quintic_spec()
        k, rho = spec.ks[level - 1], spec.ps[level - 1]
        below = level - 1
        y = spec.generator(below) if below else spec.zero(0)
        q = [spec.lift(spec.from_sigma_poly(sigma(spec.n, i % spec.n + 1) + i), below)
             + (i + 1) * y for i in range(degree(k) + 1)]
        report = check_annihilation(spec, level, q)
        quo, rem = report.quotient, report.remainder
        assert len(rem) == k
        assert len(quo) == max(0, len(q) - k)
        assert not quo or not quo[-1].is_zero()
        total = rem + [spec.zero(below)] * len(quo)
        for i, c in enumerate(quo):
            total[i + k] = total[i + k] + c
            total[i] = total[i] - c * rho
        assert len(total) == max(k, len(q))
        q += [spec.zero(below)] * (len(total) - len(q))
        for got, want in zip(total, q):
            assert got == want


# ---------------------------------------------------------------------------
# witness expansion


class TestWitnesses:
    def test_quadratic_round_trip(self):
        spec = quad_spec()
        x1, x2 = MPoly.variable(2, 1), MPoly.variable(2, 2)
        target = (spec.from_sigma_poly(sigma(2, 1)) + spec.generator(1)) * Fraction(
            1, 2
        )
        report = witness_check(spec, [x1 - x2], target=target)
        assert report.all_pass
        assert len(report.records) == 2
        assert all(line.startswith("PASS") for line in report.lines())

    def test_quadratic_expansion_value(self):
        spec = quad_spec()
        x1, x2 = MPoly.variable(2, 1), MPoly.variable(2, 2)
        expanded = expand_with_witnesses(spec.generator(1), [x1 - x2])
        assert expanded == RatFunc(x1 - x2)

    def test_cubic_full_tower_round_trip(self, cubic):
        target = (
            cubic.from_sigma_poly(sigma(3, 1))
            + cubic.generator(2)
            + cubic.generator(3)
        ) * Fraction(1, 3)
        report = witness_check(cubic, cubic_witnesses(), target=target)
        assert report.all_pass, str(report)
        assert len(report.records) == 4

    def test_broken_witness_reports_leading_term(self):
        spec = quad_spec()
        x1, x2 = MPoly.variable(2, 1), MPoly.variable(2, 2)
        report = witness_check(spec, [x1 + x2])
        assert not report.all_pass
        failure = report.first_failure()
        assert failure is not None
        assert "leading term" in failure.detail
        assert str(report).startswith("FAIL")

    def test_sigma_expansion_matches_elementary_polynomials(self, cubic):
        rf = expand_with_witnesses(cubic.from_sigma_poly(sigma(3, 2)), cubic_witnesses())
        assert rf == RatFunc(elem_sym(3, 2))
