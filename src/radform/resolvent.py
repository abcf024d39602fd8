"""Last-radical extraction and the downward rewrite to polynomial witnesses.

The last radical of a tower enters the target through some smallest
positive power l, coprime to the radical degree k.  Setting z equal to
u * y^l (u the level-below coefficient at that power) and using a Bezout
pair a*k + b*l = 1, the generator y itself becomes z^b * v^b * rho^a,
so the target turns into a polynomial q(z) of degree below k whose
degree-1 coefficient is exactly 1.  Averaging q over the conjugates
z * eps^i with weights eps^(-i) kills every power of z except the first,
which recovers z on the nose.

Running that extraction from the top level downward replaces each
radical in turn by one whose witness is an explicit polynomial of the
roots: the content of the rewrite is that a tower formula for x_1 can
always be repaired, level by level, into one carrying polynomial
witnesses.  Every intermediate tower is kept and re-verified, so a
failed attestation or a broken identity surfaces at the step that
introduced it.
"""

from __future__ import annotations

import itertools
from fractions import Fraction

from radform.cyclotomic import _bezout_min_b, root_of_unity
from radform.formula import FormalRadicalFormula
from radform.multipoly import MPoly, kth_root_poly, permute_vars, symmetrize
from radform.tower import (
    ATTESTED_UNKNOWN,
    AttestationError,
    RatFunc,
    TowerElem,
    TowerSpec,
    WitnessReport,
    expand_with_witnesses,
    witness_check,
    witness_ratfunc,
)

__all__ = [
    "AbelReport",
    "AbelStep",
    "LastRadicalData",
    "abel_polynomialize",
    "build_R",
    "derive_witnesses",
    "extract_last_radical",
    "resolvent_average",
    "telescope_average",
]


def _retag(e: TowerElem, spec: TowerSpec) -> TowerElem:
    """Move an element into another spec that agrees up to its level."""
    return TowerElem(spec, e.level, e.payload)


def _as_witness(rf: RatFunc):
    """Collapse a denominator that divides exactly; keep genuine fractions."""
    poly = rf.as_poly()
    return rf if poly is None else poly


class LastRadicalData:
    """What the last radical of a tower looks like through the z-change.

    l is the smallest positive power of the level generator appearing in
    the examined element, u its coefficient one level down, and a, b the
    Bezout pair with a*k + b*l = 1 (|b| minimal).  spec_prime is the
    tower with this level redefined by u^k * rho^l, where z = u * y^l
    lives; q_poly is the examined element rewritten as an element there,
    a polynomial in z of degree below k whose degree-1 coefficient is 1.
    """

    def __init__(self, level: int, k: int, l: int, u: TowerElem, a: int, b: int,
                 z_defining: str, spec_prime: TowerSpec, q_poly: TowerElem, y_image: TowerElem):
        self.level, self.k, self.l, self.u, self.a, self.b = level, k, l, u, a, b
        self.z_defining, self.spec_prime = z_defining, spec_prime
        self.q_poly, self.y_image = q_poly, y_image


def _extract(spec: TowerSpec, element: TowerElem, j: int) -> LastRadicalData:
    k = spec.ks[j - 1]
    if spec.attestations[j - 1] == ATTESTED_UNKNOWN:
        raise AttestationError(
            f"extracting the level-{j} radical needs its nonpower attestation; "
            "none is on record"
        )
    lifted = spec.lift(element, j)
    powers = [m for m in range(1, k) if not lifted.coords[m].is_zero()]
    if not powers:
        raise ValueError(
            f"the element uses no positive power of y_{j}; the level is "
            "redundant and should be dropped before extraction"
        )
    l = powers[0]
    u = lifted.coords[l]
    a, b = _bezout_min_b(k, l)
    rho = spec.ps[j - 1]
    rho_prime = u ** k * rho ** l
    prime = TowerSpec(spec.n)
    for m in range(1, j):
        prime.add_level(spec.ks[m - 1], spec.ps[m - 1], spec.attestations[m - 1])
    prime.add_level(k, _retag(rho_prime, prime), spec.attestations[j - 1])
    v = _retag(u, prime).inverse()
    z = prime.generator(j)
    y_image = _retag(rho, prime) ** a * v ** b * z ** b
    q = _rewrite(lifted, j, y_image, prime)
    canonical = list(q.coords)
    canonical[1] = prime.one(j - 1)
    q = TowerElem(prime, j, tuple(canonical))
    return LastRadicalData(
        level=j,
        k=k,
        l=l,
        u=u,
        a=a,
        b=b,
        z_defining="z = {} * y{}{}".format(
            u.render(), j, f"^{l}" if l > 1 else ""
        ),
        spec_prime=prime,
        q_poly=q,
        y_image=y_image,
    )


def extract_last_radical(formula: FormalRadicalFormula) -> LastRadicalData:
    """Change of variable z = u * y_s^l for the tower's top radical.

    The target must genuinely involve the top generator; if it does not,
    the top level is redundant and extraction refuses.  The level's
    nonpower attestation must be on record, and computing 1/u may demand
    attestations further down.
    """
    if formula.s < 1:
        raise ValueError("a tower without radicals has no last radical")
    return _extract(formula.spec, formula.target, formula.s)


def telescope_average(coeffs, k: int):
    """Coefficient vector of (1/k) * sum of eps^(-i) * q(z * eps^i).

    Works over any coefficient ring that multiplies with cyclotomic
    scalars and rationals.  For q of degree below k the m-th output
    coefficient is q_m * (1/k) * sum of eps^((m-1)i), which vanishes
    except at m = 1; the root-of-unity sums are evaluated exactly rather
    than taken on faith.
    """
    if len(coeffs) != k:
        raise ValueError(f"need exactly {k} coefficients, got {len(coeffs)}")
    eps = root_of_unity(k, k)
    out = list(coeffs)
    for m in range(k):
        total = out[m] * 0
        for i in range(k):
            total = total + coeffs[m] * (eps ** ((m * i) % k) * eps ** (-i % k))
        out[m] = total * Fraction(1, k)
    return out


def resolvent_average(
    data: LastRadicalData, formula: FormalRadicalFormula, witnesses
) -> MPoly:
    """The averaged resolvent, verified symbolically and under witnesses.

    Symbolically the average telescopes to z itself.  Under the witness
    embedding both sides become rational functions of x_1..x_n and the
    equality is checked again with honest arithmetic; the polynomial
    value of z = u * w^l is returned.
    """
    k = data.k
    n = formula.n
    coords = list(data.q_poly.coords)
    telescoped = telescope_average(coords, k)
    zero = data.spec_prime.zero(data.level - 1)
    one = data.spec_prime.one(data.level - 1)
    for m, value in enumerate(telescoped):
        want = one if m == 1 else zero
        if value != want:
            raise ValueError(
                f"the average fails to telescope at z^{m}; q is malformed"
            )
    w_rf = witness_ratfunc(witnesses[data.level - 1])
    u_x = expand_with_witnesses(data.u, witnesses)
    z_x = u_x * w_rf ** data.l
    eps = root_of_unity(k, k)
    coords_x = [expand_with_witnesses(c, witnesses) for c in coords]
    average = RatFunc.zero(n)
    for i in range(k):
        point = z_x * eps ** i
        value = coords_x[-1]
        for c in reversed(coords_x[:-1]):
            value = value * point + c
        average = average + value * eps ** (-i % k)
    average = average * Fraction(1, k)
    if average != z_x:
        raise ValueError(
            "the averaged conjugates disagree with z under the witnesses"
        )
    result = _as_witness(z_x)
    if not isinstance(result, MPoly):
        raise ValueError(
            "z is not a polynomial under these witnesses: " + z_x.render()
        )
    return result


def build_R(f: MPoly):
    """Coefficients of the full-orbit product of z - f over all relabelings.

    Returns the univariate polynomial in z, ascending, with each
    coefficient symmetrized into the elementary basis, which refuses a
    coefficient that is not symmetric (NotSymmetricError).  Capped at four
    variables since the product has n-factorial factors.
    """
    n = f.nvars
    if n > 4:
        raise ValueError(
            f"the orbit product over {n} variables needs {n}-factorial "
            "factors; capped at 4"
        )
    coeffs = [MPoly.constant(n, 1)]
    for images in itertools.permutations(range(1, n + 1)):
        moved = permute_vars(f, images)
        grown = [MPoly.zero(n) for _ in range(len(coeffs) + 1)]
        for i, c in enumerate(coeffs):
            grown[i + 1] = grown[i + 1] + c
            grown[i] = grown[i] - c * moved
        coeffs = grown
    return [symmetrize(c) for c in coeffs]


class AbelStep:
    """One level of the downward rewrite, with the re-verified state."""

    def __init__(self, level: int, skipped: bool, note: str, data: LastRadicalData | None,
                 formula: FormalRadicalFormula, witnesses: list, report: WitnessReport | None):
        self.level, self.skipped, self.note, self.data = level, skipped, note, data
        self.formula, self.witnesses, self.report = formula, witnesses, report

    def lines(self) -> list[str]:
        if self.skipped:
            return [f"level {self.level}: skipped ({self.note})"]
        d = self.data
        out = [
            f"level {self.level}: {d.z_defining}, smallest power l={d.l}, "
            f"bezout {d.a}*{d.k} + {d.b}*{d.l} = 1",
            f"level {self.level}: radicand becomes u^{d.k} * p^{d.l}",
        ]
        if self.report is not None:
            out.extend(f"level {self.level}:   {line}" for line in self.report.lines())
        return out


class AbelReport:
    """Full trace of the downward induction, initial state to final."""

    def __init__(self, initial: FormalRadicalFormula, initial_witnesses: list,
                 steps: list | None = None, final: FormalRadicalFormula | None = None,
                 witnesses: list | None = None):
        self.initial, self.initial_witnesses = initial, initial_witnesses
        self.steps = [] if steps is None else steps
        self.final = final
        self.witnesses = [] if witnesses is None else witnesses

    def lines(self) -> list[str]:
        s = self.initial.s
        out = [
            "downward rewrite over {} level{} (exponents {})".format(
                s, "" if s == 1 else "s",
                ", ".join(str(k) for k in self.initial.ks) or "none",
            )
        ]
        for step in self.steps:
            out.extend(step.lines())
        polynomial = all(isinstance(w, MPoly) for w in self.witnesses)
        out.append(
            "all witnesses polynomial: " + ("yes" if polynomial else "NO")
        )
        return out

    def __str__(self):
        return "\n".join(self.lines())


def abel_polynomialize(formula: FormalRadicalFormula, witnesses) -> AbelReport:
    """Run the downward induction from the top level to the bottom.

    The witnesses must verify against the input tower; each step then
    replaces one radical y_j by z = u * y_j^l, rewrites every later
    defining element through y_j = z^b * v^b * p^a (the same field value,
    so attestations carry over), updates the witness to u * w^l, and
    re-verifies the whole tower.  Levels the next element does not
    actually use are left in place with a note; the minimality premise
    that rules this out is a premise, not something the engine assumes.
    """
    spec = formula.spec
    s = spec.s
    initial_report = witness_check(spec, witnesses, target=formula.target)
    if not initial_report.all_pass:
        raise ValueError(
            "witnesses do not verify the input tower: "
            + initial_report.first_failure().line()
        )
    report = AbelReport(initial=formula, initial_witnesses=list(witnesses))
    target = formula.target
    wits = list(witnesses)
    for j in range(s, 0, -1):
        element = target if j == s else spec.ps[j]
        lifted = spec.lift(element, j)
        if all(lifted.coords[m].is_zero() for m in range(1, spec.ks[j - 1])):
            report.steps.append(
                AbelStep(
                    level=j,
                    skipped=True,
                    note=f"the next element uses no positive power of y_{j}",
                    data=None,
                    formula=FormalRadicalFormula(spec, target),
                    witnesses=list(wits),
                    report=None,
                )
            )
            continue
        data = _extract(spec, element, j)
        prime = data.spec_prime
        if j < s:
            prime.add_level(spec.ks[j], data.q_poly, spec.attestations[j])
            for m in range(j + 2, s + 1):
                rewritten = _rewrite(spec.ps[m - 1], j, data.y_image, prime)
                prime.add_level(
                    spec.ks[m - 1], rewritten, spec.attestations[m - 1]
                )
            target = _rewrite(target, j, data.y_image, prime)
        else:
            target = data.q_poly
        u_x = expand_with_witnesses(data.u, wits)
        w_rf = witness_ratfunc(wits[j - 1])
        wits[j - 1] = _as_witness(u_x * w_rf ** data.l)
        spec = prime
        step_report = witness_check(spec, wits, target=target)
        if not step_report.all_pass:
            raise AssertionError(
                "the rewrite broke a witness identity: "
                + step_report.first_failure().line()
            )
        report.steps.append(
            AbelStep(
                level=j,
                skipped=False,
                note="",
                data=data,
                formula=FormalRadicalFormula(spec, target),
                witnesses=list(wits),
                report=step_report,
            )
        )
    report.final = FormalRadicalFormula(spec, target)
    report.witnesses = wits
    return report


def _rewrite(elem: TowerElem, j: int, image: TowerElem, spec: TowerSpec):
    """elem with y_j sent to image, rebuilt coordinate-wise over spec.

    Levels below j agree between the towers, so their payloads transfer
    as they are; at level j the coordinate vector is folded through the
    image; higher levels keep their own generators untouched.
    """
    if elem.level < j:
        return TowerElem(spec, elem.level, elem.payload)
    if elem.level == j:
        total = spec.zero(j)
        for m, c in enumerate(elem.coords):
            if not c.is_zero():
                total = total + TowerElem(spec, j - 1, c.payload) * image ** m
        return spec.lift(total, j)
    coords = tuple(_rewrite(c, j, image, spec) for c in elem.coords)
    return TowerElem(spec, elem.level, coords)


def derive_witnesses(formula: FormalRadicalFormula):
    """Search polynomial witnesses for a tower, bottom level up.

    Each radicand, expanded under the witnesses found so far, must have
    an exact k-th root in the polynomial ring; the root is determined up
    to a root-of-unity factor, and the branch is pinned by requiring the
    target to expand to x_1.  Returns the witness list together with
    notes recording which unit was taken at each level.
    """
    found = _walk_witnesses(formula, [], [])
    if found is None:
        raise ValueError(
            "no polynomial witness assignment makes the target expand to x_1"
        )
    return found


def _walk_witnesses(formula: FormalRadicalFormula, wits, notes):
    """derive_witnesses above the len(wits) levels already assigned."""
    spec, j = formula.spec, len(wits) + 1
    if j > spec.s:
        x1 = RatFunc(MPoly.variable(spec.n, 1))
        if expand_with_witnesses(formula.target, wits) == x1:
            return wits, notes
        return None
    k = spec.ks[j - 1]
    rho_x = expand_with_witnesses(spec.ps[j - 1], wits)
    root = kth_root_poly(rho_x.num * rho_x.den ** (k - 1), k)
    if not isinstance(root, MPoly):
        return None
    eps = root_of_unity(k, k)
    for t in range(k):
        w = _as_witness(RatFunc(root * eps ** t, rho_x.den))
        found = _walk_witnesses(
            formula,
            wits + [w],
            notes + [f"level {j}: extracted root times w({k})^{t}"],
        )
        if found is not None:
            return found
    return None
