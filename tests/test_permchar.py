import itertools
import random
import re

import pytest

from radform.cyclotomic import CycScalar, Frozen, root_of_unity
from radform.multipoly import NO_ROOT, MPoly, is_even_symmetric, symmetrize
from radform.permchar import (
    Character,
    ClosureCapError,
    Perm,
    an_generators,
    build_character,
    character_of,
    close_group,
    commutator_closure,
    compose,
    verify_hom_trivial,
)
from radform.tower import NonpowerResult


def cyc(n, *entries):
    return Perm.from_cycles([entries], n)


def vandermonde(n):
    poly = MPoly.constant(n, 1)
    for i in range(1, n + 1):
        for j in range(i + 1, n + 1):
            poly = poly * (MPoly.variable(n, i) - MPoly.variable(n, j))
    return poly


# -- permutation basics ----------------------------------------------------


def test_compose_convention():
    t12 = Perm.transposition(3, 1, 2)
    t23 = Perm.transposition(3, 2, 3)
    assert compose(t12, t23) == cyc(3, 1, 2, 3)


def test_transposition_pair_identities():
    # (i j)(j k) = (i j k) and (i j)(k l) = (i j k)(j k l)
    for i, j, k in itertools.permutations(range(1, 7), 3):
        lhs = Perm.transposition(6, i, j) * Perm.transposition(6, j, k)
        assert lhs == cyc(6, i, j, k)
    rng = random.Random(4)
    for _ in range(40):
        i, j, k, l = rng.sample(range(1, 7), 4)
        lhs = Perm.transposition(6, i, j) * Perm.transposition(6, k, l)
        rhs = cyc(6, i, j, k) * cyc(6, j, k, l)
        assert lhs == rhs


def test_parity_is_multiplicative():
    rng = random.Random(5)
    for _ in range(50):
        n = rng.randint(2, 6)
        a = Perm(rng.sample(range(1, n + 1), n))
        b = Perm(rng.sample(range(1, n + 1), n))
        assert (a * b).sign() == a.sign() * b.sign()
    assert Perm.transposition(4, 1, 3).parity() == "odd"
    assert cyc(5, 1, 2, 3).parity() == "even"


def test_inverse_and_identity():
    rng = random.Random(6)
    for _ in range(20):
        n = rng.randint(1, 7)
        a = Perm(rng.sample(range(1, n + 1), n))
        assert a * a.inverse() == Perm.identity(n)
        assert a.inverse() * a == Perm.identity(n)


def test_cycle_notation_round_trip():
    p = Perm.from_cycles("(1 2 3)(4 5)", 6)
    assert p.images == (2, 3, 1, 5, 4, 6)
    assert str(p) == "(1 2 3)(4 5)"
    assert str(Perm.identity(3)) == "()"
    assert Perm.from_cycles("()", 4) == Perm.identity(4)
    assert Perm.from_cycles("(2,4)", 4) == Perm.transposition(4, 2, 4)


def test_cycle_notation_rejects_garbage():
    with pytest.raises(ValueError):
        Perm.from_cycles("(1 2", 3)
    with pytest.raises(ValueError):
        Perm.from_cycles("(1 2)(2 3)", 3)  # repeated index
    with pytest.raises(ValueError):
        Perm.from_cycles("(1 9)", 3)


def test_an_generators():
    gens = an_generators(5)
    assert gens == [cyc(5, 1, 2, 3), cyc(5, 1, 2, 4), cyc(5, 1, 2, 5)]
    assert all(g.is_even() for g in gens)
    with pytest.raises(ValueError):
        an_generators(2)


# -- group closures --------------------------------------------------------


def test_alternating_group_sizes():
    assert len(close_group(an_generators(3))) == 3
    assert len(close_group(an_generators(4))) == 12
    assert len(close_group(an_generators(5))) == 60


def test_commutator_closure_structure():
    # A3 is abelian, A4 has the Klein four-group, A5 is perfect
    assert len(commutator_closure(an_generators(3))) == 1
    four = commutator_closure(an_generators(4))
    assert len(four) == 4
    assert all(p * p == Perm.identity(4) for p in four)
    five = commutator_closure(an_generators(5))
    assert len(five) == 60
    assert five == close_group(an_generators(5))
    # [S_n, S_n] = A_n; the dihedral group of the square has [D4, D4] = <r^2>
    s4 = [Perm.from_cycles("(1 2)", 4), Perm.from_cycles("(1 2 3 4)", 4)]
    assert commutator_closure(s4) == close_group(an_generators(4))
    assert len(commutator_closure(s4)) == 12  # A4, not perfect: its own is `four`
    s5 = [Perm.from_cycles("(1 2)", 5), Perm.from_cycles("(1 2 3 4 5)", 5)]
    assert len(commutator_closure(s5)) == 60
    d4 = [Perm.from_cycles("(1 2 3 4)", 4), Perm.from_cycles("(1 3)", 4)]
    assert commutator_closure(d4) == {Perm.identity(4), cyc(4, 1, 3) * cyc(4, 2, 4)}
    assert len(commutator_closure(an_generators(7))) == 2520


def test_closure_cap():
    with pytest.raises(ClosureCapError):
        close_group(an_generators(5), cap=10)


# -- characters ------------------------------------------------------------


def _resolvent_poly_n3():
    e3 = root_of_unity(3, 3)
    return (
        MPoly.variable(3, 1)
        + e3 * MPoly.variable(3, 2)
        + e3 ** 2 * MPoly.variable(3, 3)
    )


def test_character_of_resolvent_combination():
    f = _resolvent_poly_n3()
    chi = character_of(f, 3, cyc(3, 1, 2, 3))
    assert chi == root_of_unity(3, 3)


def test_character_of_vandermonde_is_trivial():
    delta = vandermonde(5)
    for g in an_generators(5):
        assert character_of(delta, 2, g, check_pre=False) == CycScalar.one()
    assert is_even_symmetric(delta)


def test_character_preconditions():
    f = _resolvent_poly_n3()
    with pytest.raises(ValueError):
        character_of(f, 3, Perm.transposition(3, 1, 2))  # odd
    with pytest.raises(ValueError):
        character_of(MPoly.zero(3), 3, cyc(3, 1, 2, 3))
    skew = MPoly.variable(3, 1) + 2 * MPoly.variable(3, 2)
    with pytest.raises(ValueError):
        character_of(skew, 2, cyc(3, 1, 2, 3))


def test_build_character_homomorphism_checked():
    f = _resolvent_poly_n3()
    ch = build_character(f, 3)
    assert not ch.is_trivial()
    assert ch.values[cyc(3, 1, 2, 3)] == root_of_unity(3, 3)
    delta = vandermonde(5)
    assert build_character(delta, 2).is_trivial()


def test_build_character_fails_exactly_when_the_power_moves():
    # build_character finds the moving generator itself, without forming
    # f^q; it must fail exactly where is_even_symmetric(f^q) does, naming
    # the same three-cycle
    rng = random.Random(7)
    e3 = root_of_unity(3, 3)
    cases = [(_resolvent_poly_n3(), 3), (vandermonde(4), 2), (vandermonde(5), 2)]
    for n in (3, 4):
        x = [MPoly.variable(n, i) for i in range(1, n + 1)]
        for q in (2, 3):
            for _ in range(6):
                f = MPoly.zero(n)
                for _ in range(rng.randint(1, 3)):
                    a, b = rng.sample(range(n), 2)
                    f = f + rng.choice([1, -2, e3]) * x[a] * x[b] ** rng.randint(0, 2)
                if not f.is_zero():
                    cases.append((f, q))
    moving = 0
    for f, q in cases:
        ok, mover = is_even_symmetric(f ** q, witness=True)
        if ok:
            build_character(f, q)
        else:
            moving += 1
            with pytest.raises(ValueError, match=re.escape(f"permutation {mover};")):
                build_character(f, q)
    assert 0 < moving < len(cases)
    with pytest.raises(ValueError, match="zero polynomial"):
        build_character(MPoly.zero(5), 2)


def test_four_variable_resolvent_character():
    # pair-product combinations realize the cyclic character of A4
    e3 = root_of_unity(3, 3)
    x = [MPoly.variable(4, i) for i in range(1, 5)]
    f = (
        (x[0] * x[1] + x[2] * x[3])
        + e3 * (x[0] * x[2] + x[1] * x[3])
        + e3 ** 2 * (x[0] * x[3] + x[1] * x[2])
    )
    chi = character_of(f, 3, cyc(4, 1, 2, 3))
    assert chi == e3 ** 2


# -- triviality certification ---------------------------------------------


@pytest.mark.parametrize("q", [2, 3, 5, 7])
def test_triviality_certified_for_five_variables(q):
    report = verify_hom_trivial(5, q)
    assert report.trivial
    assert report.counterexample is None
    sizes = {(run.n, run.group_size, run.commutator_size)
             for run in report.oracle_runs}
    assert sizes == {(5, 60, 60), (6, 360, 360)}
    text = str(report)
    assert "all trivial" in text
    assert "machine checked" in text


def test_triviality_derivations_name_concrete_cycles():
    report = verify_hom_trivial(5, 3)
    body = "\n".join(report.derivations)
    # q = 3 goes through five-cycle factorizations, never through cubes
    assert "(1 5 4 3 2)" in body  # the cycle (5 4 3 2 1), smallest entry first
    assert "hence chi((1 2 3)) = 1 * 1 = 1" in body
    assert "cube" not in body


def test_each_report_is_fresh_with_the_same_lines():
    first = verify_hom_trivial(6, 2)
    first.derivations.append("appended by the caller")
    second = verify_hom_trivial(6, 2)
    assert second is not first and second.derivations is not first.derivations
    assert second.derivations == first.derivations[:-1]
    assert second.derivations[-1].startswith("all generators carry character 1")
    assert sum("machine checked" in line for line in second.derivations) == 4


def test_counterexample_below_five_variables():
    for n in (3, 4):
        report = verify_hom_trivial(n, 3)
        assert not report.trivial
        assert report.counterexample is not None
        assert not report.counterexample.is_trivial()


def test_small_n_with_q_not_3_still_trivial():
    report = verify_hom_trivial(4, 2)
    assert report.trivial
    assert report.counterexample is None
    assert not report.oracle_runs


def test_triviality_rejects_tiny_n():
    with pytest.raises(ValueError):
        verify_hom_trivial(2, 2)


FROZEN_RECORDS = {
    "Character": (lambda: verify_hom_trivial(3, 3).counterexample, "values"),
    "OracleRun": (lambda: verify_hom_trivial(5, 2).oracle_runs[0], "group_size"),
    "NonpowerResult": (lambda: NonpowerResult(1, 2, "undecided"), "status"),
    "Perm": (lambda: Perm.identity(3), "images"),
    "ElemSymBasisExpr": (lambda: symmetrize(MPoly.variable(2, 1) + MPoly.variable(2, 2)), "poly"),
    "_Verdict": (lambda: NO_ROOT, "name"),
}


@pytest.mark.parametrize("make, field", FROZEN_RECORDS.values(), ids=FROZEN_RECORDS)
def test_result_records_refuse_assignment(make, field):
    record = make()
    name = type(record).__name__
    assert isinstance(record, Frozen) and name in FROZEN_RECORDS
    before = getattr(record, field)
    with pytest.raises(AttributeError, match=f"^{name} is immutable$"):
        setattr(record, field, None)
    assert getattr(record, field) is before
