"""The even-symmetry induction run against candidate radical formulas.

With five or more roots, a nonzero polynomial whose prime power f^q is
invariant under even permutations is itself invariant: the permutation
character of f lands in the q-th roots of unity, and every such
character of the even permutations is trivial (permchar proves this two
independent ways).  Walking a candidate formula level by level, every
witness in turn keeps the invariance, so the closing identity would
make x_1 invariant under even permutations.  The three-cycle (1 2 3)
moves x_1 to x_2, so no candidate survives the walk.

The walk is adversarial.  Nothing about the candidate is assumed: each
claimed identity is checked as it is encountered, and the first broken
one ends the run with a diagnosis instead of the contradiction.
"""

from __future__ import annotations

from radform.cyclotomic import _is_prime
from radform.formula import (
    PolyRadicalFormula,
    chain_identity,
    factor_radicals,
    level_substitution,
)
from radform.multipoly import MPoly, is_even_symmetric, permute_vars
from radform.permchar import (
    Character,
    HomTrivialityReport,
    build_character,
    verify_hom_trivial,
)
from radform.tower import IdentityRecord, leading_term_text

__all__ = [
    "ContradictionRecord",
    "LevelEntry",
    "ObstructionReport",
    "SymmetryVerdict",
    "keeping_symmetry",
    "run_ruffini",
]


class SymmetryVerdict:
    """Outcome of the keeping-symmetry check for one polynomial.

    certified means f was proved invariant under even permutations.  The
    character always carries the chi values on the generators (1 2 m);
    when the verdict is negative they are the concrete counterexample.
    The triviality report is attached for five or more variables, where
    the character argument closes the proof.
    """

    def __init__(self, f: MPoly, q: int, certified: bool, character: Character,
                 triviality: HomTrivialityReport | None = None, notes: list | None = None):
        self.f, self.q, self.certified, self.character = f, q, certified, character
        self.triviality = triviality
        self.notes = [] if notes is None else notes

    def lines(self) -> list[str]:
        n = self.f.nvars
        head = (
            f"even-symmetry kept: f^{self.q} invariant forces f invariant"
            if self.certified
            else f"even-symmetry NOT kept: f^{self.q} is invariant but f moves"
        )
        out = [head]
        out.extend("  " + line for line in self.character.describe())
        if self.triviality is not None:
            out.append(
                f"  order-{self.q} characters on even permutations of 1..{n} "
                "are trivial (derivation + perfectness oracle)"
            )
        out.extend("  " + note for note in self.notes)
        return out

    def __str__(self):
        return "\n".join(self.lines())


def keeping_symmetry(f: MPoly, q: int) -> SymmetryVerdict:
    """Decide whether f inherits even-symmetry from its q-th power.

    Requires nonzero f with f^q invariant under even permutations and q
    prime.  For five or more variables the answer is always yes, proved
    by the character route and confirmed by the direct generator check.
    Below five variables both outcomes occur; the cubic resolvent
    x1 + w*x2 + w^2*x3 with q = 3 is the classical counterexample.
    """
    if f.is_zero():
        raise ValueError("the zero polynomial has no symmetry character")
    if not _is_prime(q):
        raise ValueError(f"radical exponent {q} must be prime here")
    n = f.nvars
    character = build_character(f, q)
    certified = is_even_symmetric(f)
    if character.is_trivial() != certified:
        raise AssertionError(
            "character triviality and the direct generator check disagree"
        )
    verdict = SymmetryVerdict(f=f, q=q, certified=certified, character=character)
    if n >= 5:
        verdict.triviality = verify_hom_trivial(n, q)
        if not verdict.triviality.trivial or not certified:
            raise AssertionError(
                f"nontrivial order-{q} character on even permutations of "
                f"1..{n}; this contradicts the triviality proof"
            )
        verdict.notes.append(
            "independent confirmation: f is fixed by every generator (1 2 m)"
        )
    elif not certified:
        verdict.notes.append(
            f"only {n} variables; the five-variable argument does not apply"
        )
    return verdict


class LevelEntry:
    """One rung of the induction: identity check, then symmetry transfer."""

    def __init__(self, level: int, exponent: int, identity: IdentityRecord,
                 even_symmetric: bool | None = None, symmetry: SymmetryVerdict | None = None,
                 verdict: str = "", note: str = ""):
        self.level, self.exponent, self.identity = level, exponent, identity
        self.even_symmetric, self.symmetry = even_symmetric, symmetry
        self.verdict, self.note = verdict, note

    @property
    def character(self) -> Character | None:
        return self.symmetry.character if self.symmetry else None

    def lines(self) -> list[str]:
        out = [f"level {self.level}: {self.identity.line()}"]
        if not self.identity.ok:
            out.append(f"level {self.level}: verdict: {self.verdict}")
            return out
        out.append(
            f"level {self.level}: radicand is even-symmetric, "
            f"witness exponent {self.exponent}"
        )
        if self.note:
            out.append(f"level {self.level}: {self.note}")
        if self.symmetry is not None:
            out.extend(f"level {self.level}: {l}" for l in self.symmetry.lines())
        out.append(f"level {self.level}: verdict: {self.verdict}")
        return out


class ContradictionRecord:
    """The closing step: the candidate's output is even-symmetric, x_1 is not."""

    def __init__(self, final_even: bool, mover: str, difference: str):
        self.final_even, self.mover, self.difference = final_even, mover, difference

    def lines(self) -> list[str]:
        return [
            "final: p_s(sigma, witnesses) is invariant under even permutations",
            f"final: x_1 is not: {self.mover}",
            f"final: the closing identity fails; {self.difference}",
        ]


class ObstructionReport:
    """Deterministic trace of one run: levels ascending, first failure last.

    The contradiction record is present exactly when every chain identity
    held and every witness was certified, i.e. when the refutation comes
    from the even-symmetry argument rather than a broken identity.
    """

    def __init__(self, n: int, s: int, ks: list, original_ks: list, entries: list | None = None,
                 contradiction: ContradictionRecord | None = None, verdict: str = ""):
        self.n, self.s, self.ks, self.original_ks = n, s, ks, original_ks
        self.entries = [] if entries is None else entries
        self.contradiction, self.verdict = contradiction, verdict

    @property
    def refuted(self) -> bool:
        return bool(self.verdict)

    def first_failure(self) -> LevelEntry | None:
        for entry in self.entries:
            if not entry.identity.ok:
                return entry
        return None

    def lines(self) -> list[str]:
        head = (
            f"candidate degree-{self.n} formula, {self.s} radicals "
            f"(exponents {', '.join(str(k) for k in self.ks) or 'none'})"
        )
        out = [head]
        if self.original_ks != self.ks:
            out.append(
                "  exponents normalized from "
                + ", ".join(str(k) for k in self.original_ks)
            )
        for entry in self.entries:
            out.extend(entry.lines())
        if self.contradiction is not None:
            out.extend(self.contradiction.lines())
        out.append(f"verdict: {self.verdict}")
        return out

    def __str__(self):
        return "\n".join(self.lines())


def run_ruffini(candidate: PolyRadicalFormula) -> ObstructionReport:
    """Refute a degree-five-or-more candidate radical formula.

    Composite exponents are split into primes first.  Then each level is
    checked: the claimed identity witness_j^(k_j) = p_(j-1)(sigma, earlier
    witnesses) must hold exactly, after which keeping_symmetry certifies
    that the witness stays even-symmetric.  If every level passes, the
    closing identity x_1 = p_s(sigma, witnesses) is refuted outright:
    its right side is invariant under even permutations and x_1 is not.
    Candidates below degree five are refused; honest formulas exist down
    there (builtin 'degree2' and 'degree3').
    """
    if candidate.n < 5:
        raise ValueError(
            f"the even-symmetry obstruction needs at least 5 roots, got "
            f"{candidate.n}; see builtin('degree2') and builtin('degree3') "
            "for the degrees where formulas do exist"
        )
    formula = factor_radicals(candidate)
    n, s = formula.n, formula.s
    report = ObstructionReport(
        n=n, s=s, ks=list(formula.ks), original_ks=list(candidate.ks)
    )
    for j in range(1, s + 1):
        k = formula.ks[j - 1]
        witness = formula.witnesses[j - 1]
        radicand, identity = chain_identity(formula, j)
        entry = LevelEntry(level=j, exponent=k, identity=identity)
        if not identity.ok:
            entry.verdict = f"chain identity fails at level {j}"
            report.entries.append(entry)
            report.verdict = f"refuted: chain identity fails at level {j}"
            return report
        entry.even_symmetric = is_even_symmetric(radicand)
        if not entry.even_symmetric:
            raise AssertionError(
                f"radicand at level {j} moves under an even permutation "
                "although all earlier witnesses were certified"
            )
        if witness.is_zero():
            entry.note = "witness is identically zero, trivially invariant"
            entry.verdict = "symmetry kept"
        else:
            entry.symmetry = keeping_symmetry(witness, k)
            entry.verdict = "symmetry kept"
        report.entries.append(entry)
    final = level_substitution(formula, s)
    final_even = is_even_symmetric(final)
    if not final_even:
        raise AssertionError(
            "final substitution moves under an even permutation although "
            "all witnesses were certified"
        )
    x1 = MPoly.variable(n, 1)
    closing = final - x1
    if closing.is_zero():
        raise AssertionError(
            "candidate produced x_1 from even-symmetric pieces, which no "
            "even-invariant expression can equal"
        )
    three_cycle = tuple([2, 3, 1] + list(range(4, n + 1)))
    moved_index = permute_vars(x1, three_cycle).leading_term()[0].index(1) + 1
    report.contradiction = ContradictionRecord(
        final_even=final_even,
        mover=f"(1 2 3) carries x_1 to x_{moved_index}",
        difference=leading_term_text(closing),
    )
    report.verdict = "refuted: even-symmetry obstruction at the closing identity"
    return report
