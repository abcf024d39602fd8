"""Keeping-symmetry argument and the full Ruffini walk.

Frozen oracles, worked out by hand before running the engine:

* the Vandermonde product on 5 variables picks up the sign of the
  permutation, so it is fixed by even permutations and moved by (1 2);
  its square is fully symmetric.
* the cubic resolvent u = x1 + w*x2 + w^2*x3 (w a primitive cube root)
  satisfies u(x2, x3, x1) = w^2 * u, so with the convention
  u = chi * u(moved) the character value on (1 2 3) is w.
* expected outcomes for the cheap corpus:
      broken-first-radicand        fails at level 1
      quadratic-formula-lookalike  fails at level 1
      broken-second-level          fails at level 2
      everything else              survives to the closing contradiction
"""

import random
import re

import pytest

from radform.corpus import adversarial_candidates, discriminant_candidate, vandermonde
from radform.cyclotomic import root_of_unity
from radform.formula import PolyRadicalFormula, builtin
from radform.multipoly import (
    MPoly,
    elem_sym,
    is_even_symmetric,
    is_symmetric,
    substitute,
)
from radform.obstruction import keeping_symmetry, run_ruffini
from radform.permchar import Perm

CHAIN_BREAKERS = {
    "broken-first-radicand": 1,
    "quadratic-formula-lookalike": 1,
    "broken-second-level": 2,
}


def cubic_resolvent():
    w = root_of_unity(3, 3)
    return (
        MPoly.variable(3, 1)
        + w * MPoly.variable(3, 2)
        + w ** 2 * MPoly.variable(3, 3)
    )


class TestKeepingSymmetry:
    def test_vandermonde_certificate(self):
        delta = vandermonde(5)
        verdict = keeping_symmetry(delta, 2)
        assert verdict.certified
        assert verdict.character.is_trivial()
        assert verdict.triviality is not None and verdict.triviality.trivial
        assert not is_symmetric(delta)

    def test_symmetric_polynomial_any_prime(self):
        f = elem_sym(5, 2)
        for q in (2, 3, 5):
            assert keeping_symmetry(f, q).certified

    def test_cubic_resolvent_counterexample(self):
        verdict = keeping_symmetry(cubic_resolvent(), 3)
        assert not verdict.certified
        assert verdict.triviality is None
        g = Perm.from_cycles("(1 2 3)", 3)
        assert verdict.character.values[g] == root_of_unity(3, 3)

    def test_quartic_resolvent_counterexample(self):
        x = [MPoly.variable(4, i) for i in range(1, 5)]
        w = root_of_unity(3, 3)
        f = (
            (x[0] * x[1] + x[2] * x[3])
            + w * (x[0] * x[2] + x[1] * x[3])
            + w ** 2 * (x[0] * x[3] + x[1] * x[2])
        )
        verdict = keeping_symmetry(f, 3)
        assert not verdict.certified
        assert not verdict.character.is_trivial()

    def test_rejects_bad_inputs(self):
        with pytest.raises(ValueError, match="zero polynomial"):
            keeping_symmetry(MPoly.zero(5), 2)
        with pytest.raises(ValueError, match="must be prime"):
            keeping_symmetry(elem_sym(5, 1), 4)
        with pytest.raises(ValueError, match="does not arise"):
            keeping_symmetry(MPoly.variable(5, 1), 2)

    def test_moving_power_names_the_permutation(self):
        x = [MPoly.variable(5, i) for i in range(1, 6)]
        with pytest.raises(ValueError, match=re.escape("permutation (2, 4, 3, 1, 5)")):
            keeping_symmetry(x[3] ** 2 + x[4], 2)

    def test_character_and_direct_check_agree(self):
        cases = [
            (vandermonde(5), 2),
            (elem_sym(5, 3), 3),
            (cubic_resolvent(), 3),
            (vandermonde(4), 2),
        ]
        for f, q in cases:
            verdict = keeping_symmetry(f, q)
            assert verdict.certified == is_even_symmetric(f)
            assert verdict.certified == verdict.character.is_trivial()


class TestRunRuffini:
    def test_small_degrees_refused(self):
        with pytest.raises(ValueError, match="degree2"):
            run_ruffini(builtin("degree3"))

    def test_radical_free_claim(self):
        report = run_ruffini(PolyRadicalFormula(5, 0, [], [elem_sym(5, 1)], []))
        assert report.entries == []
        assert report.contradiction is not None
        assert "closing identity" in report.verdict

    def test_corpus_outcomes(self):
        for name, candidate in adversarial_candidates():
            report = run_ruffini(candidate)
            assert report.refuted, name
            if name in CHAIN_BREAKERS:
                level = CHAIN_BREAKERS[name]
                assert report.first_failure().level == level, name
                assert report.contradiction is None, name
                assert f"level {level}" in report.verdict, name
            else:
                assert report.first_failure() is None, name
                assert report.contradiction is not None, name
            assert (report.contradiction is not None) == all(
                e.identity.ok for e in report.entries
            ), name

    def test_composite_exponent_normalized(self):
        candidates = dict(adversarial_candidates())
        report = run_ruffini(candidates["fourth-root"])
        assert report.ks == [2, 2]
        assert report.original_ks == [4]
        assert any("normalized from 4" in line for line in report.lines())

    def test_zero_witness_noted(self):
        candidates = dict(adversarial_candidates())
        report = run_ruffini(candidates["zero-witness"])
        assert "zero" in report.entries[0].note
        assert report.entries[0].character is None
        assert report.contradiction is not None

    def test_certificates_recorded_per_level(self):
        candidates = dict(adversarial_candidates())
        report = run_ruffini(candidates["deep-chain"])
        assert [e.level for e in report.entries] == [1, 2, 3]
        for entry in report.entries:
            assert entry.even_symmetric
            assert entry.symmetry.certified
            assert entry.character.is_trivial()

    def test_random_candidates_never_survive(self):
        rng = random.Random(5)

        def random_sigma_poly(arity):
            out = MPoly.zero(arity)
            for _ in range(rng.randrange(1, 4)):
                term = MPoly.constant(arity, rng.randrange(-3, 4))
                for i in range(1, arity + 1):
                    term = term * MPoly.variable(arity, i) ** rng.randrange(0, 2)
                out = out + term
            return out

        for _ in range(10):
            s = rng.randrange(0, 2)
            ks = [rng.choice([2, 3])] * s
            ps = [random_sigma_poly(5 + j) for j in range(s + 1)]
            witnesses = [random_sigma_poly(5) for _ in range(s)]
            candidate = PolyRadicalFormula(5, s, ks, ps, witnesses)
            report = run_ruffini(candidate)
            assert report.refuted
            assert (report.contradiction is None) == any(
                not e.identity.ok for e in report.entries
            )

    def test_even_symmetry_survives_composition(self):
        rng = random.Random(9)
        pool = [
            elem_sym(5, 1),
            elem_sym(5, 2),
            elem_sym(5, 3),
            elem_sym(5, 5),
            elem_sym(5, 1) * elem_sym(5, 2),
            vandermonde(5),
        ]
        for _ in range(15):
            arity = 7
            g = MPoly.zero(arity)
            for _ in range(rng.randrange(1, 4)):
                term = MPoly.constant(arity, rng.randrange(-2, 3))
                for i in range(1, arity + 1):
                    term = term * MPoly.variable(arity, i) ** rng.randrange(0, 2)
                g = g + term
            images = {i: elem_sym(5, i) for i in range(1, 6)}
            images[6] = rng.choice(pool)
            images[7] = rng.choice(pool)
            composed = substitute(g, images, out_nvars=5)
            assert is_even_symmetric(composed)


class TestDiscriminantCandidate:
    def test_first_radical_genuinely_works_then_obstruction_bites(self):
        name, candidate = discriminant_candidate()
        assert name == "discriminant-root"
        report = run_ruffini(candidate)
        entry = report.entries[0]
        assert entry.identity.ok
        assert entry.symmetry.certified
        assert not is_symmetric(candidate.witnesses[0])
        assert report.contradiction is not None
        assert "closing identity" in report.verdict
