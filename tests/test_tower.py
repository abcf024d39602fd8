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
    TowerSpec,
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
            "(s1 + 2*y1) + (s2 - y1)*y2 + (s3 + 1)*y2^2", TowerContext(spec, spec.s)
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
        e = parse_expression("y1 + y2", TowerContext(spec, spec.s))
        with pytest.raises(
            AttestationError, match="level 1 has no nonpower attestation"
        ):
            e.inverse()

    def test_rational_inverse_coordinates_have_order_one(self):
        # the conjugate product runs over Q(w_3), but the inverse of an
        # element with rational coordinates has rational coordinates
        s1, s2 = sigma(2, 1), sigma(2, 2)
        spec = TowerSpec(2)
        spec.add_level(3, spec.from_sigma_poly(s1 ** 2 - 4 * s2), ATTESTED_ASSERTED)
        y1 = spec.generator(1)
        e = spec.from_sigma_poly(s1) + spec.from_sigma_poly(s2 + 1) * y1 + 2 * y1 ** 2
        inverse = e.inverse()
        assert e * inverse == spec.one(1)
        for coord in inverse.coords:
            assert (coord.ratfunc.num.order, coord.ratfunc.den.order) == (1, 1)


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
