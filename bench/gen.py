"""Seeded benchmark inputs, each carrying its known answer by construction.

Nothing here imports radform.  Inputs are document text, command lines
and plain coefficient data; every expected answer follows from how the
input was built, never from running the program under test.  The same
(workload, seed, pass index) always yields the same operations, so the
harness and the worker regenerate identical lists independently and the
expectations never enter the process that does the work.

Each operation is a dict with a "kind", its input fields, and "expect",
a list of checks understood by check.py:

    ("value", v)        in-process result equals v
    ("code", c)         CLI exit code equals c
    ("stdout", name)    CLI stdout equals the golden file expected/<name>
    ("stdout_text", s)  CLI stdout equals s
    ("last_line", s)    last line of CLI stdout equals s
    ("sympy_symmetrize", expr)   printed sigma-form expands back to expr
    ("sympy_polyformula",)       printed polyformula holds identically
    ("sympy_discriminant",)      printed sigma-form expands to the
                                 squared Vandermonde product of 5 roots
"""

from __future__ import annotations

import itertools
import random
from fractions import Fraction

CONTRADICTION = "refuted: even-symmetry obstruction at the closing identity"


def chain_failure(level: int) -> str:
    return f"refuted: chain identity fails at level {level}"


# The 12 candidates of radform.corpus.adversarial_candidates(), with the
# verdict each was designed to reach (see the corpus module docstring).
ADVERSARIAL = {
    "no-radicals": CONTRADICTION,
    "radical-free-mix": CONTRADICTION,
    "sum-root": CONTRADICTION,
    "product-root": CONTRADICTION,
    "broken-first-radicand": chain_failure(1),
    "quadratic-formula-lookalike": chain_failure(1),
    "two-level-tower": CONTRADICTION,
    "broken-second-level": chain_failure(2),
    "fourth-root": CONTRADICTION,
    "zero-witness": CONTRADICTION,
    "deep-chain": CONTRADICTION,
    "cube-chain": CONTRADICTION,
}

# Radical exponents of the generated degree-5 chains.  Every shape appears
# equally often in a pass, so a seed changes coefficients and which
# elementary symmetric polynomial is used, not how much work a pass is.
CHAIN_SHAPES = ((2,), (3,), (2, 2), (2, 3), (3, 2))
# first-level e_i by exponent and variant, with equal term counts at n = 5
# (10 for square roots, 5 for cube roots); later levels multiply by e_5
_FIRST_E = {2: (2, 3), 3: (1, 4)}

FIXTURE_DEGREE5 = "fixtures/degree5_candidate.poly"


def _coeff(rng) -> Fraction:
    return Fraction(rng.choice((-3, -2, -1, 1, 2, 3)), rng.choice((1, 1, 2, 3)))


def elem_text(n: int, i: int) -> str:
    """e_i(x_1..x_n) written out in x-variables, parenthesised."""
    monomials = (
        "*".join(f"x{j}" for j in combo)
        for combo in itertools.combinations(range(1, n + 1), i)
    )
    return "(" + " + ".join(monomials) + ")"


def degree5_chain(rng, ks, broken_level=None, variant=0):
    """Polyformula text of an honest degree-5 chain, or one broken at a level.

    Level 1 has witness c*e_a, so p_0 = c^k * s_a^k holds exactly.  Level
    j > 1 has witness c*w_(j-1)*e_5, so p_(j-1) = c^k * f_(j-1)^k * s_5^k.
    Every witness is symmetric, hence even-symmetric, so an honest chain
    survives every level and is refuted at the closing identity.  A broken
    chain adds d*s_b to one radicand, which leaves the nonzero difference
    d*e_b at that level and nowhere earlier.
    """
    ps, witnesses = [], []
    for j, k in enumerate(ks, start=1):
        a = _FIRST_E[k][variant] if j == 1 else 5
        c = _coeff(rng)
        if j == 1:
            witnesses.append(f"({c})*{elem_text(5, a)}")
            p = f"({c ** k})*s{a}^{k}"
        else:
            witnesses.append(f"({c})*({witnesses[-1]})*{elem_text(5, a)}")
            p = f"({c ** k})*f{j - 1}^{k}*s{a}^{k}"
        if j == broken_level:
            p += f" + ({_coeff(rng)})*s{rng.randint(1, 5)}"
        ps.append(p)
    closing = [f"({_coeff(rng)})*s{rng.randint(1, 5)}"]
    closing += [f"({_coeff(rng)})*f{t}" for t in range(1, len(ks) + 1)]
    ps.append(" + ".join(closing))
    lines = [f"polyformula n=5 s={len(ks)}", "k " + " ".join(map(str, ks))]
    lines += [f"p {j} = {p}" for j, p in enumerate(ps)]
    lines += [f"witness {j} = {w}" for j, w in enumerate(witnesses, start=1)]
    expect = CONTRADICTION if broken_level is None else chain_failure(broken_level)
    return "\n".join(lines) + "\n", expect


def _spread(rng, ops, group):
    """The ops in an order that spreads every group evenly over the pass.

    Each group is shuffled and its j-th op placed near fraction j/n of the
    pass, so a slow stretch of the machine hits every kind of op alike
    instead of one kind that happened to be shuffled together.
    """
    groups = {}
    for op in ops:
        groups.setdefault(group(op), []).append(op)
    keyed = []
    for members in groups.values():
        rng.shuffle(members)
        keyed += [((j + rng.random()) / len(members), op) for j, op in enumerate(members)]
    keyed.sort(key=lambda item: item[0])
    return [op for _, op in keyed]


def _chains(rng, per_shape):
    """per_shape chains of every shape: half honest, half broken, and both
    halves split evenly between the two first-level variants."""
    out = []
    for ks in CHAIN_SHAPES:
        for i in range(per_shape):
            broken = None if i % 2 == 0 else (i // 2) % len(ks) + 1
            out.append(degree5_chain(rng, ks, broken, (i // 2) % 2))
    return out


# ---------------------------------------------------------------------------
# diagnose


def diagnose_pass(seed: int, index: int) -> list[dict]:
    """12 corpus candidates, 100 honest and 100 broken chains, one flagship.

    The flagship sits in the middle of the pass, so the small candidates
    are timed on both sides of its half minute of work rather than in one
    short stretch of the run.
    """
    rng = random.Random(f"diagnose:{seed}:{index}")
    ops = [
        {"kind": "chain", "text": text, "expect": [("value", verdict)]}
        for text, verdict in _chains(rng, 40)
    ]
    ops += [
        {"kind": "adversarial", "name": name, "expect": [("value", verdict)]}
        for name, verdict in ADVERSARIAL.items()
    ]
    ops = _spread(rng, ops, lambda op: op["text"].split("\n", 2)[1]
                  if op["kind"] == "chain" else op["kind"])
    flagship = {
        "kind": "flagship",
        "expect": [("value", CONTRADICTION), ("sympy_discriminant",)],
    }
    return ops[: len(ops) // 2] + [flagship] + ops[len(ops) // 2 :]


# ---------------------------------------------------------------------------
# tower

# Defining radicands as (exponents, coefficient) terms over sigma_1..sigma_n.
# s1^2 - 4*s2 is irreducible and the cubic one has leading exponent
# (3, 0, 1), so neither is a k-th power for any prime k used here.
QUAD_RHO = (((2, 0), 1), ((0, 1), -4))
CUBIC_RHO = (
    ((3, 0, 1), 108),
    ((2, 2, 0), -27),
    ((1, 1, 1), -486),
    ((0, 3, 0), 108),
    ((0, 0, 2), 729),
)
# name -> (n, k, rho terms, honest); the false towers attest s1^k as a
# nonpower although it is the k-th power of s1.
TOWERS = {
    "quad2": (2, 2, QUAD_RHO, True),
    "quad3": (2, 3, QUAD_RHO, True),
    "quad5": (2, 5, QUAD_RHO, True),
    "cubic3": (3, 3, CUBIC_RHO, True),
    "false2": (2, 2, (((2, 0), 1),), False),
    "false3": (2, 3, (((3, 0), 1),), False),
}

TOWER_FIXTURES = ("fixtures/degree2.tower", "fixtures/degree3.tower")


def _random_poly(rng, n, terms, degree):
    """{exponents: Fraction} with up to `terms` terms of total degree `degree`."""
    out = {}
    for _ in range(terms):
        exps = [0] * n
        for _ in range(degree):
            exps[rng.randrange(n)] += 1
        exps = tuple(exps)
        out[exps] = out.get(exps, 0) + _coeff(rng)
    return {e: c for e, c in out.items() if c}


def _poly_mul(a, b):
    out = {}
    for ea, ca in a.items():
        for eb, cb in b.items():
            e = tuple(x + y for x, y in zip(ea, eb))
            out[e] = out.get(e, 0) + ca * cb
    return {e: c for e, c in out.items() if c}


def _poly_add(a, b):
    out = dict(a)
    for e, c in b.items():
        out[e] = out.get(e, 0) + c
    return {e: c for e, c in out.items() if c}


def _upoly_mul(a, b):
    """Product of two lists of coefficient polys (ascending powers of t)."""
    out = [{} for _ in range(len(a) + len(b) - 1)]
    for i, ca in enumerate(a):
        for j, cb in enumerate(b):
            out[i + j] = _poly_add(out[i + j], _poly_mul(ca, cb))
    return out


def _rich_element(rng, n, k):
    """Every coordinate a 2-term degree-2 polynomial; not all zero."""
    while True:
        coords = [_random_poly(rng, n, 2, 2) for _ in range(k)]
        if any(coords):
            return coords


def _sparse_element(rng, n, k, special, degree):
    """Nonzero constants except one coordinate, a 1-term polynomial."""
    coords = [{(0,) * n: _coeff(rng)} for _ in range(k)]
    coords[special] = _random_poly(rng, n, 1, degree)
    return coords


def tower_pass(seed: int, index: int) -> list[dict]:
    """Inverses at k = 2, 3, 5, false attestations, nonpower checks,
    annihilation certificates and the witness pipeline on the fixtures.

    In a field every nonzero element has an inverse, so honest inverses
    must multiply back to 1.  On a false tower the element c*(y1 - s1) is
    a zero divisor, so the inverse must raise AttestationError.
    """
    rng = random.Random(f"tower:{seed}:{index}")
    ops = []

    def inverse(tower, coords, expect="inverse-ok"):
        ops.append(
            {"kind": "inverse", "tower": tower, "coords": coords,
             "expect": [("value", expect)]}
        )

    for _ in range(40):
        inverse("quad2", _rich_element(rng, 2, 2))
    for i in range(30):
        inverse("quad3", _sparse_element(rng, 2, 3, i % 3, 2))
    for i in range(20):
        inverse("cubic3", _sparse_element(rng, 3, 3, i % 3, 1))
    for _ in range(2):
        inverse("quad5", _sparse_element(rng, 2, 5, 3, 1))
    for tower in ("false2", "false3"):
        k = TOWERS[tower][1]
        for _ in range(4):
            c = _random_poly(rng, 2, 2, 1) or {(0, 0): Fraction(1)}
            coords = [_poly_mul(c, {(1, 0): Fraction(-1)}), c] + [{}] * (k - 2)
            inverse(tower, coords, "raised:AttestationError")
    for tower, (_, _, _, honest) in TOWERS.items():
        ops.append(
            {"kind": "nonpower", "tower": tower,
             "expect": [("value", "verified" if honest else "refuted")]}
        )
    for tower in ("quad2", "quad3"):
        n, k, rho, _ = TOWERS[tower]
        defining = [{e: -Fraction(c) for e, c in rho}] + [{}] * (k - 1)
        defining.append({(0,) * n: Fraction(1)})
        multiples = [defining]
        for _ in range(2):
            multiplier = [
                _random_poly(rng, n, 2, 2) or {(0,) * n: Fraction(1)}
                for _ in range(rng.randint(1, 2))
            ]
            multiples.append(_upoly_mul(defining, multiplier))
        for q in multiples:
            ops.append(
                {"kind": "annihilation", "tower": tower, "coeffs": q,
                 "expect": [("value", True)]}
            )
        for q in multiples:
            remainder = [_random_poly(rng, n, 1, 1) for _ in range(k)]
            if not any(remainder):
                remainder[0] = {(0,) * n: Fraction(1)}
            perturbed = [
                _poly_add(c, remainder[m]) if m < k else c for m, c in enumerate(q)
            ]
            ops.append(
                {"kind": "annihilation", "tower": tower, "coeffs": perturbed,
                 "expect": [("value", False)]}
            )
    ops.append(
        {"kind": "pipeline", "path": TOWER_FIXTURES[0],
         "expect": [("value", True), ("stdout", "abelize_degree2_doc.out")]}
    )
    ops.append(
        {"kind": "pipeline", "path": TOWER_FIXTURES[1],
         "expect": [("value", True), ("sympy_polyformula",)]}
    )
    return _spread(rng, ops, lambda op: (op["kind"], op.get("tower")))


# ---------------------------------------------------------------------------
# cli

# Character bases with their value at (1 2 3): the README's golden gives
# chi_u((1 2 3)) = w(3) for the Lagrange resolvent u; v is its Galois
# conjugate (w -> w^2), and r, relabelled by (1 2 3), becomes w * r, so
# chi_r((1 2 3)) = w^2.  Characters are multiplicative, symmetric factors
# contribute 1, (1 3 2) = (1 2 3)^2, and (1 2)(3 4) fixes r.
_U = "(x1 + w(3)*x2 + w(3)^2*x3)"
_V = "(x1 + w(3)^2*x2 + w(3)*x3)"
_R = "((x1*x2 + x3*x4) + w(3)*(x1*x3 + x2*x4) + w(3)^2*(x1*x4 + x2*x3))"
_CHARACTER_BASES = (
    (3, _U, {"(1 2 3)": 1, "(1 3 2)": 2}),
    (3, _V, {"(1 2 3)": 2, "(1 3 2)": 1}),
    (4, _R, {"(1 2 3)": 2, "(1 3 2)": 1, "(1 2)(3 4)": 0}),
)


def _unit_text(m: int) -> str:
    m %= 3
    return "1" if m == 0 else "w(3)" if m == 1 else f"w(3)^{m}"


def character_query(rng, i):
    """(argv, expected stdout) for a character query with a known answer."""
    if i % 4 == 3:
        # symmetric f at n = 5: every even permutation has character 1
        q = rng.choice((2, 3))
        factors = [elem_text(5, a) for a in rng.sample((1, 4, 5), 2)]
        expr = f"({_coeff(rng)})*" + "*".join(factors)
        perms = ["(1 2 3)", "(1 2)(3 4)", "(1 2 3 4 5)"]
        return ["character", expr, str(q), *perms], "".join(
            f"chi({p}) = 1\n" for p in perms
        )
    n, base, values = _CHARACTER_BASES[i % 3]
    m = rng.randint(1, 2)
    expr = f"({_coeff(rng)})*{base}^{m}*{elem_text(n, rng.randint(1, n))}"
    perms = list(values)
    return ["character", expr, "3", *perms], "".join(
        f"chi({p}) = {_unit_text(values[p] * m)}\n" for p in perms
    )


def symmetric_expression(rng) -> str:
    """A symmetric polynomial in n <= 4 variables of degree <= 8, written
    either as products of e_i or as sums over monomial orbits."""
    n = rng.randint(2, 4)
    parts = []
    for _ in range(rng.randint(1, 3)):
        if rng.random() < 0.5:
            weights, factors = 0, []
            while True:
                i = rng.randint(1, n)
                if weights + i > 8 or (factors and rng.random() < 0.3):
                    break
                weights += i
                factors.append(elem_text(n, i))
            body = "*".join(factors) or "1"
        else:
            mu = [rng.randint(0, 3) for _ in range(n)]
            mu[0] = max(mu[0], 1)
            orbit = sorted(set(itertools.permutations(mu)))
            body = "(" + " + ".join(
                "*".join(f"x{j + 1}^{e}" for j, e in enumerate(exps) if e)
                for exps in orbit
            ) + ")"
        parts.append(f"({_coeff(rng)})*{body}")
    return " + ".join(parts)


# (document, golden stdout, exit code, ops per pass) of verify on fixtures
_VERIFY_FIXTURES = (
    ("fixtures/degree2.poly", "verify_degree2_poly.out", 0, 5),
    ("fixtures/degree3.poly", "verify_degree3_poly.out", 0, 4),
    ("fixtures/degree2.tower", "verify_degree2_tower.out", 0, 4),
    ("fixtures/degree3.tower", "verify_degree3_tower.out", 0, 4),
    ("fixtures/degree2_broken.poly", "verify_degree2_broken.out", 1, 4),
    ("fixtures/bad_syntax.poly", None, 2, 4),
)


def cli_pass(seed: int, index: int, workdir: str) -> list[dict]:
    """100 cold CLI invocations: 20 obstruct, 25 verify, 15 abelize,
    20 symmetrize and 20 character.

    Generated documents carry a "document" field; the worker writes it to
    the op's path before the pass starts.
    """
    rng = random.Random(f"cli:{seed}:{index}")
    ops = []

    def op(argv, check, document=None, code=0):
        ops.append({"kind": argv[0], "argv": argv, "document": document,
                    "expect": [("code", code), check]})

    for _ in range(10):
        op(["obstruct", FIXTURE_DEGREE5], ("stdout", "obstruct_degree5.out"))
    chains = [
        degree5_chain(rng, ks, None if i % 2 == 0 else len(ks), i // 5)
        for i, ks in enumerate(CHAIN_SHAPES * 2)
    ]
    for i, (text, verdict) in enumerate(chains):
        path = f"{workdir}/chain-{index}-{i}.poly"
        op(["obstruct", path], ("last_line", f"verdict: {verdict}"), text)
    for path, golden, code, count in _VERIFY_FIXTURES:
        check = ("stdout", golden) if golden else ("stdout_text", "")
        for _ in range(count):
            op(["verify", path], check, code=code)
    for _ in range(8):
        op(["abelize", TOWER_FIXTURES[0]], ("stdout", "abelize_degree2.out"))
    for _ in range(7):
        op(["abelize", TOWER_FIXTURES[1]], ("sympy_polyformula",))
    for _ in range(20):
        expr = symmetric_expression(rng)
        op(["symmetrize", expr], ("sympy_symmetrize", expr))
    for i in range(20):
        argv, text = character_query(rng, i)
        op(argv, ("stdout_text", text))
    return _spread(rng, ops, lambda op: (
        op["argv"][0], op["argv"][1] if op["argv"][1].startswith("fixtures/") else ""
    ))


PASSES = {"cli": cli_pass, "diagnose": diagnose_pass, "tower": tower_pass}
