"""Last-radical extraction, telescoping, and the downward rewrite.

Frozen expectations, computed by hand before implementation:

* Quadratic tower (n=2, k=2, radicand s1^2 - 4*s2, target (s1+y1)/2):
  smallest power l=1, u = 1/2, bezout (a, b) = (0, 1), new radicand
  (s1^2 - 4*s2)/4, q(z) = s1/2 + z, averaged resolvent (x1-x2)/2.
* Bezout pairs with minimal |b|: (k=2, l=1) -> (0, 1);
  (k=3, l=2) -> (1, -1); (k=5, l=2) -> (1, -2); (k=5, l=3) -> (-1, 2);
  (k=7, l=5) -> (-2, 3).
* Cubic tower built from the two degree-three resolvents
  u = x1 + w*x2 + w^2*x3, v = x1 + w^2*x2 + w*x3 (radicands
  (u^3-v^3)^2 in sigma, then (U+y1)/2 and (U-y1)/2 with
  U = u^3 + v^3 in sigma, target (s1+y2+y3)/3): witness derivation
  finds exactly [u^3-v^3, u, v], every unit branch w(.)^0.  The
  downward rewrite runs level 3 (u = 1/3), skips level 2 because
  (U-y1)/54 has no y2, runs level 1 (u = 1/2), ending with polynomial
  witnesses [(u^3-v^3)/2, u, v/3].
* The leading coefficient of the expanded (u^3-v^3)^2 is -27, whose
  square root 3*sqrt(-3) lives in the third cyclotomic field, not in Q;
  kth_root_poly takes it from a Gauss sum and finds the root.
"""

import gc
import pathlib
import random
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from radform.cyclotomic import CycScalar, root_of_unity
from radform.formula import (
    FormalRadicalFormula,
    builtin,
    parse,
    to_poly_formula,
    verify_poly_formula,
)
from radform.multipoly import (
    MPoly,
    UNDECIDED,
    _scalar_kth_root,
    _sqrt_prime,
    kth_root_poly,
    symmetrize,
)
from radform.resolvent import (
    _bezout_min_b,
    _rewrite,
    abel_polynomialize,
    build_R,
    derive_witnesses,
    extract_last_radical,
    resolvent_average,
    telescope_average,
)
from radform.tower import (
    ATTESTED_ASSERTED,
    ATTESTED_UNKNOWN,
    AttestationError,
    TowerElem,
    TowerSpec,
    witness_check,
)

QUAD_TOWER = """towerformula n=2 s=1
k 2
p 0 = s1^2 - 4*s2
target = (s1 + y1)/2
assert-nonpower 1
"""


def quad_formula():
    return parse(QUAD_TOWER)


def cubic_resolvents():
    x = [MPoly.variable(3, i) for i in (1, 2, 3)]
    w = root_of_unity(3, 3)
    u = x[0] + w * x[1] + w ** 2 * x[2]
    v = x[0] + w ** 2 * x[1] + w * x[2]
    return u, v


def cubic_formula():
    u, v = cubic_resolvents()
    p0 = symmetrize((u ** 3 - v ** 3) ** 2).poly
    big_u = symmetrize(u ** 3 + v ** 3).poly
    spec = TowerSpec(3)
    spec.add_level(2, p0, ATTESTED_ASSERTED)
    lifted_u = spec.lift(spec.from_sigma_poly(big_u), 1)
    y1 = spec.generator(1)
    spec.add_level(3, (lifted_u + y1) * Fraction(1, 2), ATTESTED_ASSERTED)
    spec.add_level(3, spec.lift((lifted_u - y1) * Fraction(1, 2), 2), ATTESTED_ASSERTED)
    s1 = spec.lift(spec.from_sigma_poly(MPoly.variable(3, 1)), 3)
    target = (s1 + spec.lift(spec.generator(2), 3) + spec.generator(3)) * Fraction(1, 3)
    return FormalRadicalFormula(spec, target)


class TestBezout:
    def test_frozen_pairs(self):
        assert _bezout_min_b(2, 1) == (0, 1)
        assert _bezout_min_b(3, 2) == (1, -1)
        assert _bezout_min_b(5, 2) == (1, -2)
        assert _bezout_min_b(5, 3) == (-1, 2)
        assert _bezout_min_b(7, 5) == (-2, 3)

    def test_rejects_common_factor(self):
        with pytest.raises(ValueError, match="coprime"):
            _bezout_min_b(6, 4)


@settings(max_examples=60, deadline=None)
@given(
    st.sampled_from([2, 3, 5, 7, 11]),
    st.integers(min_value=1, max_value=10),
)
def test_bezout_identity_and_minimality(k, l_raw):
    l = l_raw % k or 1
    a, b = _bezout_min_b(k, l)
    assert a * k + b * l == 1
    assert abs(b) <= k // 2 or (k == 2 and b == 1)


class TestScalarRoots:
    def test_sqrt_primes(self):
        for p in (2, 3, 5, 7, 11, 13):
            assert _sqrt_prime(p) ** 2 == CycScalar.from_rational(p)

    def test_assembled_square_roots(self):
        for value in (Fraction(-27), Fraction(9, 4), Fraction(-3),
                      Fraction(49, 50), Fraction(-5, 8), Fraction(12)):
            mu = _scalar_kth_root(CycScalar.from_rational(value), 2)
            assert mu ** 2 == CycScalar.from_rational(value)

    def test_exact_higher_roots_only(self):
        eight = _scalar_kth_root(CycScalar.from_rational(8), 3)
        assert eight == CycScalar.from_rational(2)
        assert _scalar_kth_root(CycScalar.from_rational(2), 3) is UNDECIDED

    def test_seeded_root_on_negative_leading(self):
        u, v = cubic_resolvents()
        f = (u ** 3 - v ** 3) ** 2
        g = kth_root_poly(f, 2)
        assert isinstance(g, MPoly)
        assert g ** 2 == f


class TestTelescope:
    def test_kills_everything_but_degree_one(self):
        w5 = root_of_unity(5, 5)
        coeffs = [
            CycScalar.from_rational(7),
            CycScalar.one(1),
            w5 + CycScalar.from_rational(2),
            CycScalar.from_rational(Fraction(-3, 4)),
            w5 ** 3,
        ]
        out = telescope_average(coeffs, 5)
        assert out[1] == coeffs[1]
        for m in (0, 2, 3, 4):
            assert out[m].is_zero()

    def test_wrong_length_rejected(self):
        with pytest.raises(ValueError, match="exactly 3"):
            telescope_average([CycScalar.one(1)], 3)


@settings(max_examples=40, deadline=None)
@given(
    st.sampled_from([2, 3, 5]),
    st.lists(st.integers(min_value=-9, max_value=9), min_size=5, max_size=5),
)
def test_telescope_average_projects(k, raw):
    coeffs = [CycScalar.from_rational(c) for c in raw[:k]]
    out = telescope_average(coeffs, k)
    for m in range(k):
        if m == 1:
            assert out[m] == coeffs[1]
        else:
            assert out[m].is_zero()


class TestExtraction:
    def test_quadratic_frozen(self):
        data = extract_last_radical(quad_formula())
        assert (data.level, data.k, data.l) == (1, 2, 1)
        assert (data.a, data.b) == (0, 1)
        spec = data.spec_prime
        half_s1 = spec.from_sigma_poly(MPoly.variable(2, 1)) * Fraction(1, 2)
        assert data.q_poly.coords[0] == half_s1
        assert data.q_poly.coords[1] == spec.one(0)
        s1, s2 = MPoly.variable(2, 1), MPoly.variable(2, 2)
        assert spec.ps[0] == spec.from_sigma_poly(s1 ** 2 - 4 * s2) * Fraction(1, 4)

    def test_redundant_level_refused(self):
        formula = quad_formula()
        spec = formula.spec
        flat = FormalRadicalFormula(
            spec, spec.lift(spec.from_sigma_poly(MPoly.variable(2, 1)), 1)
        )
        with pytest.raises(ValueError, match="redundant"):
            extract_last_radical(flat)

    def test_missing_attestation_refused(self):
        formula = quad_formula()
        formula.spec.set_attestation(1, ATTESTED_UNKNOWN)
        with pytest.raises(AttestationError, match="attestation"):
            extract_last_radical(formula)

    def test_no_radicals_refused(self):
        spec = TowerSpec(1)
        flat = FormalRadicalFormula(spec, spec.from_sigma_poly(MPoly.variable(1, 1)))
        with pytest.raises(ValueError, match="no last radical"):
            extract_last_radical(flat)

    def test_higher_power_entry(self):
        spec = TowerSpec(2)
        spec.add_level(3, spec.from_sigma_poly(MPoly.variable(2, 2)), ATTESTED_ASSERTED)
        y = spec.generator(1)
        target = y ** 2 * 3 + spec.lift(spec.from_sigma_poly(MPoly.variable(2, 1)), 1)
        data = extract_last_radical(FormalRadicalFormula(spec, target))
        assert (data.l, data.a, data.b) == (2, 1, -1)
        assert data.q_poly.coords[1] == data.spec_prime.one(0)
        back = _substitute_z(data, spec)
        assert back == target


def _substitute_z(data, old_spec):
    """Push q back through z = u * y^l inside the original tower."""
    z_value = TowerElem(old_spec, data.u.level, data.u.payload) * old_spec.generator(
        data.level
    ) ** data.l
    total = old_spec.zero(data.level)
    for m, c in enumerate(data.q_poly.coords):
        if not c.is_zero():
            total = total + TowerElem(old_spec, data.level - 1, c.payload) * z_value ** m
    return total


@settings(max_examples=25, deadline=None)
@given(
    st.sampled_from([2, 3, 5]),
    st.lists(st.integers(min_value=-4, max_value=4), min_size=5, max_size=5),
    st.integers(min_value=1, max_value=4),
)
def test_extraction_round_trips(k, raw, l_pick):
    spec = TowerSpec(2)
    spec.add_level(
        3, spec.from_sigma_poly(MPoly.variable(2, 1) + 1), ATTESTED_ASSERTED
    )
    spec.add_level(k, spec.generator(1) + 1, ATTESTED_ASSERTED)
    coords = [spec.scalar(c, 1) for c in raw[:k]]
    l = l_pick % k or 1
    if l == 0 or k == 2:
        l = 1
    coords[l] = spec.one(1)
    target = spec.zero(2)
    for m, c in enumerate(coords):
        target = target + spec.lift(c, 2) * spec.generator(2) ** m
    formula = FormalRadicalFormula(spec, target)
    lifted = spec.lift(target, 2)
    first = [m for m in range(1, k) if not lifted.coords[m].is_zero()][0]
    data = extract_last_radical(formula)
    assert data.l == first
    assert data.q_poly.coords[1] == data.spec_prime.one(1)
    assert _substitute_z(data, spec) == target


def test_rewrite_makes_the_degree_one_coefficient_one():
    # coordinate 1 of the rewritten target is read as _rewrite leaves it,
    # before _extract puts the canonical one in its place
    rng = random.Random(3)
    path = pathlib.Path(__file__).resolve().parent.parent / "fixtures" / "degree3.tower"
    formulas = [quad_formula(), cubic_formula(), parse(path.read_text())]
    for k in (2, 3, 5):
        for l in range(1, k):
            spec = TowerSpec(2)
            spec.add_level(k, spec.from_sigma_poly(MPoly.variable(2, 1) + 2), ATTESTED_ASSERTED)
            target = spec.lift(spec.from_sigma_poly(MPoly.variable(2, 2)), 1)
            for m in range(l, k):
                c = rng.randint(1, 4) if m == l else rng.randint(-3, 3)
                target = target + spec.generator(1) ** m * c
            formulas.append(FormalRadicalFormula(spec, target))
    for formula in formulas:
        data = extract_last_radical(formula)
        j = data.level
        raw = _rewrite(formula.spec.lift(formula.target, j), j, data.y_image, data.spec_prime)
        assert raw.coords[1] == data.spec_prime.one(j - 1)
        assert raw.coords == data.q_poly.coords


class TestResolventAverage:
    def test_quadratic_average_is_half_difference(self):
        formula = quad_formula()
        data = extract_last_radical(formula)
        wits, _ = derive_witnesses(formula)
        x1, x2 = MPoly.variable(2, 1), MPoly.variable(2, 2)
        assert resolvent_average(data, formula, wits) == (x1 - x2) / 2

    def test_cubic_top_level_average(self):
        formula = cubic_formula()
        wits, _ = derive_witnesses(formula)
        data = extract_last_radical(formula)
        _, v = cubic_resolvents()
        assert resolvent_average(data, formula, wits) == v / 3


class TestBuildR:
    def test_linear_root(self):
        coeffs = build_R(MPoly.variable(2, 1))
        s1, s2 = MPoly.variable(2, 1), MPoly.variable(2, 2)
        assert [c.poly for c in coeffs] == [s2, -1 * s1, MPoly.constant(2, 1)]

    def test_root_difference(self):
        coeffs = build_R(MPoly.variable(2, 1) - MPoly.variable(2, 2))
        s1, s2 = MPoly.variable(2, 1), MPoly.variable(2, 2)
        assert coeffs[0].poly == -1 * (s1 ** 2 - 4 * s2)
        assert coeffs[1].poly.is_zero()
        assert coeffs[2].poly == MPoly.constant(2, 1)

    def test_constant_input(self):
        coeffs = build_R(MPoly.constant(2, 3))
        assert [c.poly for c in coeffs] == [
            MPoly.constant(2, 9),
            MPoly.constant(2, -6),
            MPoly.constant(2, 1),
        ]

    def test_cap_at_four_variables(self):
        with pytest.raises(ValueError, match="capped"):
            build_R(MPoly.variable(5, 1))

    def test_annihilates_every_relabeling(self):
        x = [MPoly.variable(3, i) for i in (1, 2, 3)]
        f = x[0] * x[1] - 2 * x[2]
        coeffs = [c.expand() for c in build_R(f)]
        assert len(coeffs) == 7
        total = MPoly.zero(3)
        for i, c in enumerate(coeffs):
            total = total + c * f ** i
        assert total.is_zero()


class TestAbel:
    def test_quadratic_single_step(self):
        formula = quad_formula()
        wits, _ = derive_witnesses(formula)
        report = abel_polynomialize(formula, wits)
        assert len(report.steps) == 1 and not report.steps[0].skipped
        x1, x2 = MPoly.variable(2, 1), MPoly.variable(2, 2)
        assert report.witnesses == [(x1 - x2) / 2]
        assert report.final.target.coords[1] == report.final.spec.one(0)
        check = witness_check(
            report.final.spec, report.witnesses, target=report.final.target
        )
        assert check.all_pass
        assert "all witnesses polynomial: yes" in report.lines()

    def test_quadratic_matches_builtin_after_conversion(self):
        formula = quad_formula()
        wits, _ = derive_witnesses(formula)
        report = abel_polynomialize(formula, wits)
        converted = to_poly_formula(report.final, report.witnesses)
        reference = builtin("degree2")
        assert converted.witnesses[0] == reference.witnesses[0] / 2
        assert verify_poly_formula(converted).all_pass

    def test_cubic_full_trace(self):
        formula = cubic_formula()
        wits, notes = derive_witnesses(formula)
        u, v = cubic_resolvents()
        assert wits == [u ** 3 - v ** 3, u, v]
        assert all(note.endswith("^0") for note in notes)
        report = abel_polynomialize(formula, wits)
        levels = [(s.level, s.skipped) for s in report.steps]
        assert levels == [(3, False), (2, True), (1, False)]
        assert "no positive power of y_2" in report.steps[1].note
        top = report.steps[0].data.u
        assert top == top.spec.scalar(Fraction(1, 3), top.level)
        bottom = report.steps[2].data.u
        assert bottom == bottom.spec.scalar(Fraction(1, 2), bottom.level)
        assert report.witnesses == [(u ** 3 - v ** 3) / 2, u, v / 3]
        converted = to_poly_formula(report.final, report.witnesses)
        assert verify_poly_formula(converted).all_pass

    def test_no_radicals_is_identity(self):
        spec = TowerSpec(1)
        target = spec.from_sigma_poly(MPoly.variable(1, 1))
        report = abel_polynomialize(FormalRadicalFormula(spec, target), [])
        assert report.steps == []
        assert report.final.target == target
        assert report.witnesses == []

    def test_bad_witness_rejected(self):
        formula = quad_formula()
        x1, x2 = MPoly.variable(2, 1), MPoly.variable(2, 2)
        with pytest.raises(ValueError, match="do not verify"):
            abel_polynomialize(formula, [x1 + x2])

    def test_sign_flipped_witness_rejected(self):
        formula = quad_formula()
        x1, x2 = MPoly.variable(2, 1), MPoly.variable(2, 2)
        with pytest.raises(ValueError, match="do not verify"):
            abel_polynomialize(formula, [x2 - x1])


class TestDeriveWitnesses:
    def test_quadratic(self):
        wits, notes = derive_witnesses(quad_formula())
        x1, x2 = MPoly.variable(2, 1), MPoly.variable(2, 2)
        assert wits == [x1 - x2]
        assert notes == ["level 1: extracted root times w(2)^0"]

    def test_non_power_radicand_fails(self):
        spec = TowerSpec(2)
        spec.add_level(2, spec.from_sigma_poly(MPoly.variable(2, 1)), ATTESTED_ASSERTED)
        target = spec.generator(1)
        with pytest.raises(ValueError, match="expand to x_1"):
            derive_witnesses(FormalRadicalFormula(spec, target))

    def test_sign_flip_recovered_by_unit_branch(self):
        formula = quad_formula()
        spec = formula.spec
        flipped = (
            spec.lift(spec.from_sigma_poly(MPoly.variable(2, 1)), 1)
            - spec.generator(1)
        ) * Fraction(1, 2)
        wits, notes = derive_witnesses(FormalRadicalFormula(spec, flipped))
        x1, x2 = MPoly.variable(2, 1), MPoly.variable(2, 2)
        assert wits == [x2 - x1]
        assert notes == ["level 1: extracted root times w(2)^1"]

    def test_leaves_no_reference_cycle(self):
        path = pathlib.Path(__file__).resolve().parent.parent / "fixtures" / "degree3.tower"
        formula = parse(path.read_text())
        gc.collect()
        gc.disable()
        try:
            derive_witnesses(formula)
            assert gc.collect() == 0
        finally:
            gc.enable()

    def test_wrong_target_fails(self):
        formula = quad_formula()
        spec = formula.spec
        bad_target = spec.lift(spec.from_sigma_poly(MPoly.variable(2, 2)), 1)
        with pytest.raises(ValueError, match="expand to x_1"):
            derive_witnesses(FormalRadicalFormula(spec, bad_target))
