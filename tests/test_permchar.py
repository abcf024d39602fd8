import itertools
import math
import random
import re

import pytest
from hypothesis import given, seed, settings, strategies as st

from radform.cyclotomic import CycScalar, Frozen, root_of_unity
from radform.multipoly import (
    NO_ROOT,
    MPoly,
    _generators,
    is_even_symmetric,
    is_symmetric,
    permute_vars,
    symmetrize,
)
from radform.permchar import (
    Character,
    ClosureCapError,
    Perm,
    _ratio,
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


def test_commutator_closure_stays_in_the_group():
    # the perfectness oracle compares the two sizes, which shows
    # perfectness only if the closure lies inside the group
    rng = random.Random(11)
    cases = [an_generators(n) for n in range(3, 7)]
    cases.append([Perm.from_cycles("(1 2)", 4), Perm.from_cycles("(1 2 3 4)", 4)])
    for _ in range(20):
        degree = rng.randint(2, 6)
        cases.append([Perm(rng.sample(range(1, degree + 1), degree))
                      for _ in range(rng.randint(1, 3))])
    for gens in cases:
        assert commutator_closure(gens) <= close_group(gens), gens


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
        assert character_of(delta, 2, g) == CycScalar.one()
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
    # w(3) carries f's relabelled copy to f, but w(3)^2 != 1
    with pytest.raises(ValueError, match="no q-th root of unity"):
        _ratio(f, 2, cyc(3, 1, 2, 3).images)


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


@pytest.mark.parametrize("n, q", [(5, 6), (4, 9), (5, 15), (6, 30), (5, 1), (5, 0), (5, -3)])
def test_triviality_refuses_a_non_prime_order(n, q):
    with pytest.raises(ValueError, match=f"must be prime, got {q}$"):
        verify_hom_trivial(n, q)


# -- the invariance tests and characters against brute force -------------


W3 = root_of_unity(3, 3)


def _symmetric_group(n):
    """S_n listed by closing the transpositions (1 m), not the pair of
    generators the invariance test uses."""
    return close_group([Perm.transposition(n, 1, m) for m in range(2, n + 1)])


@st.composite
def layer5_polys(draw):
    """A polynomial in n <= 5 variables with w(3) coefficients over a
    denominator: as drawn, summed over the S_n or the A_n orbit (the A_n
    sum also with one variable added), or times an alternating factor: the
    Vandermonde product, or for n = 3, 4 the resolvent combination whose
    character has order 3, each times a symmetric polynomial."""
    n = draw(st.integers(min_value=3, max_value=5))
    small = st.integers(min_value=-3, max_value=3)
    g = MPoly.zero(n)
    for _ in range(draw(st.integers(min_value=1, max_value=3))):
        exps = tuple(draw(st.integers(min_value=0, max_value=2)) for _ in range(n))
        coeff = (draw(small) + draw(small) * W3) / draw(st.integers(min_value=1, max_value=4))
        g = g + MPoly.monomial(n, exps, coeff)
    kind = draw(st.sampled_from(["raw", "symmetric", "even", "even plus", "alternating"]))
    if kind == "raw":
        return g
    if kind == "alternating":
        factor = vandermonde(n) if n == 5 or draw(st.booleans()) else (
            verify_hom_trivial(n, 3).counterexample.source)
        return factor * (g.leading_term()[1] if n == 5 else _orbit_sum(g, _symmetric_group(n)))
    group = _symmetric_group(n) if kind == "symmetric" else close_group(an_generators(n))
    if kind == "even plus":
        return _orbit_sum(g, group) + MPoly.variable(n, draw(st.integers(min_value=1, max_value=n)))
    return _orbit_sum(g, group)


def _orbit_sum(g, group):
    return sum((permute_vars(g, p) for p in group), MPoly.zero(g.nvars))


@seed(20)
@settings(max_examples=80, deadline=None, database=None)
@given(layer5_polys())
def test_invariance_tests_match_the_whole_group(f):
    n = f.nvars
    assert is_symmetric(f) == all(permute_vars(f, p) == f for p in _symmetric_group(n))
    assert is_even_symmetric(f) == all(
        permute_vars(f, p) == f for p in close_group(an_generators(n))
    )
    # the witness is the first mover of the lists (1 m) and (1 2 m)
    transpositions = [Perm.transposition(n, 1, m).images for m in range(2, n + 1)]
    three_cycles = [g.images for g in an_generators(n)]
    for test, listed in ((is_symmetric, transpositions), (is_even_symmetric, three_cycles)):
        ok, witness = test(f, witness=True)
        assert ok == (test(f) is True)
        assert witness == next((t for t in listed if permute_vars(f, t) != f), None)


@seed(21)
@settings(max_examples=80, deadline=None, database=None)
@given(layer5_polys(), st.sampled_from([2, 3, 6]))
def test_character_of_matches_a_search_over_the_roots(f, q):
    if f.is_zero():
        return
    roots = [root_of_unity(q, q) ** m for m in range(q)]
    found = {}
    for alpha in close_group(an_generators(f.nvars)):
        moved = permute_vars(f, alpha)
        found[alpha] = next((chi for chi in roots if f == chi * moved), None)
    power_invariant = None not in found.values()
    # character_of on the first 12 elements in image order keeps the run short
    for alpha, chi in sorted(found.items(), key=lambda item: item[0].images)[:12]:
        if chi is None:
            with pytest.raises(ValueError):
                _ratio(f, q, alpha.images)
        else:
            assert _ratio(f, q, alpha.images) == chi
        if power_invariant:
            assert character_of(f, q, alpha) == chi
        else:
            with pytest.raises(ValueError, match=f"f\\^{q} is not invariant"):
                character_of(f, q, alpha)


@st.composite
def character_polys(draw):
    """A layer5 polynomial, for n = 3, 4 times a power of the resolvent
    combination, so that characters of order 3 are drawn too."""
    f = draw(layer5_polys())
    if f.nvars < 5:
        resolvent = verify_hom_trivial(f.nvars, 3).counterexample.source
        f = f * resolvent ** draw(st.integers(min_value=0, max_value=2))
    return f


@seed(24)
@settings(max_examples=80, deadline=None, database=None)
@given(character_polys(), st.sampled_from([2, 3, 6]))
def test_character_is_multiplicative_on_generator_products(f, q):
    # build_character records the generators' values only, so character_of
    # must agree with their products wherever a character exists
    generators = an_generators(f.nvars)
    try:
        chi = {g: character_of(f, q, g) for g in generators}
    except ValueError:
        return
    for g, h in itertools.product(generators, repeat=2):
        assert character_of(f, q, g * h) == chi[g] * chi[h]


@pytest.mark.parametrize("n", range(3, 9))
def test_the_generator_pairs_close_to_the_whole_groups(n):
    symmetric = close_group([Perm(g) for g in _generators(n, False)], cap=math.factorial(n))
    assert len(symmetric) == math.factorial(n)
    even = close_group([Perm(g) for g in _generators(n, True)], cap=math.factorial(n))
    assert len(even) == math.factorial(n) // 2
    assert all(p.is_even() for p in even)


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
