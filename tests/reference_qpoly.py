"""A parser for the render_qpoly format, synthetic division by (q-1) and
the Taylor shift by -1, kept only for the tests.

The tests read ``vsllt expand --json`` output and check render_qpoly by
round trip through the parser; the package itself never parses a
polynomial.  The division serves the commutator route to the diagonal-step
operator in reference_dyck, and, repeated, is the reference that
``QPoly.rebase_qminus1``'s Taylor shift is compared with.  The shift by -1
(``from_qminus1``) is the reference for qpoly's packed-coefficient codec,
which ``rewrite.unpack`` decodes with by Kronecker substitution.
"""

from __future__ import annotations

import re
from fractions import Fraction

from vsllt.qpoly import ZERO, QPoly, _canonical, _exact

_TERM_RE = re.compile(
    r"""(?P<sign>[+-]?)\s*
        (?:
            (?P<coeff>\d+(?:/\d+)?)\s*(?P<star>\*?)\s*(?P<var1>q(?:\^(?P<exp1>\d+))?)?
          | (?P<var2>q(?:\^(?P<exp2>\d+))?)
        )\s*""",
    re.VERBOSE,
)


def parse_qpoly(text: str) -> QPoly:
    """Parse the render_qpoly format (also accepts "2*q^3" and no-space forms)."""
    text = text.strip()
    if text in ("0", "-0", "+0"):
        return ZERO
    pos = 0
    acc = ZERO
    while pos < len(text):
        m = _TERM_RE.match(text, pos)
        if not m or m.end() == pos:
            raise ValueError(f"bad polynomial at position {pos}: {text!r}")
        sign = -1 if m.group("sign") == "-" else 1
        coeff = m.group("coeff")
        var = m.group("var1") or m.group("var2")
        exp = m.group("exp1") or m.group("exp2")
        c = _exact(coeff) if coeff is not None else 1
        power = 0
        if var is not None:
            power = int(exp) if exp is not None else 1
        acc = acc + QPoly.monomial(power, sign * c)
        pos = m.end()
    return acc


def _divide_qminus1(coeffs) -> tuple[list, int | Fraction]:
    """Synthetic division of a nonzero coefficient sequence by (q-1).

    Returns (quotient coefficients, remainder); the remainder is a(1).
    """
    quot = [0] * (len(coeffs) - 1)
    carry = 0
    for i in range(len(coeffs) - 1, 0, -1):
        carry += coeffs[i]
        quot[i - 1] = carry
    return quot, coeffs[0] + carry


def divexact_qminus1(p: QPoly) -> QPoly:
    """p divided exactly by (q-1); raise if the remainder is nonzero."""
    if not p.coeffs:
        return QPoly()
    quot, remainder = _divide_qminus1(p.coeffs)
    if remainder != 0:
        raise ArithmeticError(f"not divisible by (q-1): {p}")
    return _canonical(quot)


def rebase_qminus1_by_division(p: QPoly) -> tuple:
    """Coefficients c_0..c_d with p(q) = sum c_i (q-1)^i, by repeated
    synthetic division by (q-1): c_i is the remainder of the i-th division."""
    rest = p.coeffs
    out = []
    # each quotient keeps the leading coefficient, so it stays canonical
    while rest:
        rest, remainder = _divide_qminus1(rest)
        out.append(remainder)
    return tuple(out)


def from_qminus1(coeffs) -> QPoly:
    """a(q) = sum c_i (q-1)^i, the inverse of ``QPoly.rebase_qminus1``, by
    the in-place Taylor shift by -1: pass i divides the polynomial cs[i:]
    synthetically by (q + 1), leaving the next Taylor coefficient at -1 in
    cs[i].  O(d^2) additions for d coefficients."""
    cs = list(QPoly(coeffs).coeffs)
    n = len(cs)
    for i in range(n - 1):
        for j in range(n - 2, i - 1, -1):
            cs[j] -= cs[j + 1]
    return _canonical(cs)
