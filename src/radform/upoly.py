"""Dense univariate polynomials over an exact coefficient ring.

A polynomial is a list of coefficients, lowest degree first.  The
coefficients may be any ring elements supporting + - * and truth-testing
(false exactly for zero).  Two callers use it: the cyclotomic scalars,
over Fractions, for the cyclotomic polynomials; and the tower's
annihilation check, over tower elements, for division by a monic
modulus.  Functions that must create fresh coefficients take the ring's
zero explicitly.

The order of the ring operations is part of the contract: some callers
keep unreduced num/den representations that are rendered, so a zero
coefficient is skipped only where the product is dropped (mul), never
where a subtraction would rescale a denominator (divmod).
"""

from __future__ import annotations

__all__ = ["divmod", "mul", "trim"]


def trim(p) -> list:
    """p without its trailing zero coefficients."""
    n = len(p)
    while n and not p[n - 1]:
        n -= 1
    return list(p[:n])


def mul(p, q, zero) -> list:
    if not p or not q:
        return []
    out = [zero] * (len(p) + len(q) - 1)
    for i, cp in enumerate(p):
        if not cp:
            continue
        for j, cq in enumerate(q):
            if cq:
                out[i + j] = out[i + j] + cp * cq
    return trim(out)


def divmod(a, b, lead_inv, zero):
    """(quo, rem) with a = quo*b + rem over a field.

    lead_inv is the inverse of b's leading coefficient, or None when b is
    monic, so reducing modulo a monic polynomial never inverts anything.
    """
    a, b = trim(a), trim(b)
    if not b:
        raise ZeroDivisionError("univariate division by zero")
    quo = [zero] * max(0, len(a) - len(b) + 1)
    rem = list(a)
    for i in range(len(a) - len(b), -1, -1):
        c = rem[i + len(b) - 1]
        if not c:
            continue
        q = c if lead_inv is None else c * lead_inv
        quo[i] = q
        for j, cb in enumerate(b):
            rem[i + j] = rem[i + j] - q * cb
    return trim(quo), trim(rem)
