"""Candidate degree-five formulas for exercising the obstruction engine.

None of these can work.  Each one fails along a different path: some
claim radical-free answers, some break a chain identity at a chosen
depth, some carry composite exponents or zero witnesses, and some are
honest even-symmetric chains that survive all the way to the closing
contradiction.  The discriminant candidate is kept separate because its
radicand, the symmetrized square of the Vandermonde product, takes a
while to compute; everything in adversarial_candidates() is cheap.
"""

import functools
from fractions import Fraction

from radform.formula import PolyRadicalFormula
from radform.multipoly import MPoly, elem_sym, symmetrize

N = 5


def _sigma(j, arity=N):
    return MPoly.variable(arity, j)


def _f(t, arity):
    return MPoly.variable(arity, N + t)


def vandermonde(n: int) -> MPoly:
    """The product of all x_i - x_j with i < j; even-symmetric, not symmetric."""
    out = MPoly.constant(n, 1)
    for i in range(1, n + 1):
        for j in range(i + 1, n + 1):
            out = out * (MPoly.variable(n, i) - MPoly.variable(n, j))
    return out


def adversarial_candidates() -> list:
    """(name, formula) pairs, all degree 5, all refutable in well under a second."""
    e1, e2, e3, e5 = (elem_sym(N, i) for i in (1, 2, 3, 5))
    out = []

    out.append(("no-radicals", PolyRadicalFormula(N, 0, [], [_sigma(1)], [])))
    out.append(
        (
            "radical-free-mix",
            PolyRadicalFormula(
                N, 0, [], [(_sigma(1) + 3 * _sigma(2)) / 7], []
            ),
        )
    )
    out.append(
        (
            "sum-root",
            PolyRadicalFormula(
                N,
                1,
                [2],
                [_sigma(1) ** 2, (_f(1, 6) + _sigma(2, 6)) / 2],
                [e1],
            ),
        )
    )
    out.append(
        (
            "product-root",
            PolyRadicalFormula(
                N, 1, [3], [_sigma(5) ** 3, _f(1, 6) - _sigma(3, 6)], [e5]
            ),
        )
    )
    out.append(
        (
            "broken-first-radicand",
            PolyRadicalFormula(
                N, 1, [2], [_sigma(1) ** 2 + _sigma(2), _f(1, 6)], [e1]
            ),
        )
    )
    out.append(
        (
            "quadratic-formula-lookalike",
            PolyRadicalFormula(
                N,
                1,
                [2],
                [
                    _sigma(1) ** 2 - 4 * _sigma(2),
                    (_sigma(1, 6) + _f(1, 6)) / 2,
                ],
                [e1],
            ),
        )
    )
    two_level = [
        _sigma(1) ** 2,
        _f(1, 6) ** 2 * _sigma(2, 6) ** 2,
        _f(2, 7) - _f(1, 7),
    ]
    out.append(
        (
            "two-level-tower",
            PolyRadicalFormula(N, 2, [2, 2], two_level, [e1, e1 * e2]),
        )
    )
    broken_two = list(two_level)
    broken_two[1] = broken_two[1] + _sigma(1, 6)
    out.append(
        (
            "broken-second-level",
            PolyRadicalFormula(N, 2, [2, 2], broken_two, [e1, e1 * e2]),
        )
    )
    out.append(
        (
            "fourth-root",
            PolyRadicalFormula(
                N, 1, [4], [_sigma(2) ** 4, _f(1, 6) + _sigma(1, 6)], [e2]
            ),
        )
    )
    out.append(
        (
            "zero-witness",
            PolyRadicalFormula(
                N,
                1,
                [2],
                [MPoly.zero(N), _f(1, 6) + _sigma(1, 6) * Fraction(1, 5)],
                [MPoly.zero(N)],
            ),
        )
    )
    out.append(
        (
            "deep-chain",
            PolyRadicalFormula(
                N,
                3,
                [2, 2, 2],
                [
                    _sigma(1) ** 2,
                    _f(1, 6) ** 2,
                    _f(2, 7) ** 2 * _sigma(5, 7) ** 2,
                    _f(3, 8) + _f(2, 8) + _f(1, 8),
                ],
                [e1, e1, e1 * e5],
            ),
        )
    )
    out.append(
        (
            "cube-chain",
            PolyRadicalFormula(
                N,
                2,
                [3, 3],
                [_sigma(3) ** 3, _f(1, 6) ** 3, _f(2, 7) - _sigma(4, 7)],
                [e3, e3],
            ),
        )
    )
    return out


def discriminant_formula(n: int) -> PolyRadicalFormula:
    """discriminant_candidate's formula for n roots instead of five."""
    delta = vandermonde(n)
    p0 = symmetrize(delta ** 2).poly
    p1 = (MPoly.variable(n + 1, 1) + MPoly.variable(n + 1, n + 1)) / 2
    return PolyRadicalFormula(n, 1, [2], [p0, p1], [delta])


@functools.cache
def discriminant_candidate():
    """The classical first move: adjoin the square root of the discriminant.

    The radicand is the symmetrized square of the Vandermonde product, so
    the chain identity genuinely holds and the witness is even-symmetric
    without being symmetric.  Slow to build (the symmetrization has 59
    terms), hence cached and kept out of the cheap corpus.
    """
    return "discriminant-root", discriminant_formula(N)
