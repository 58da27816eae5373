"""Exact univariate polynomials in q with integer coefficients, Z[q].

This is the scalar ring for the whole package: every coefficient anywhere
is a QPoly.  Coefficients are Python ints; a Fraction appears only where a
value really is non-integral, which in practice means the power-sum basis
(symfunc's e -> p bridge and everything built on it).  Python guarantees
Fraction(k) == k and hash(Fraction(k)) == hash(k), so a polynomial compares,
hashes and prints the same whichever of the two holds an integral value.
No floating point is used anywhere.
"""

from __future__ import annotations

import re
from fractions import Fraction


def _exact(c) -> int | Fraction:
    """An exact coefficient: int (bool becomes int), Fraction, or a rational string."""
    if isinstance(c, Fraction):
        return c
    if isinstance(c, int):
        return int(c)
    if isinstance(c, str):
        f = Fraction(c)
        return f.numerator if f.denominator == 1 else f
    raise TypeError(f"not an exact rational: {c!r}")


class QPoly:
    """Polynomial in q, coeffs[i] = coefficient of q^i (an int, or a Fraction
    where the value is non-integral).

    Canonical form: no trailing zero coefficients; the zero polynomial has an
    empty coefficient tuple.  Treated as immutable throughout (hashable).
    """

    __slots__ = ("coeffs",)

    def __init__(self, coeffs=()):
        cs = [c if type(c) is int else _exact(c) for c in coeffs]
        while cs and cs[-1] == 0:
            cs.pop()
        self.coeffs = tuple(cs)

    @classmethod
    def const(cls, c) -> "QPoly":
        return cls((c,))

    @classmethod
    def monomial(cls, power: int, c=1) -> "QPoly":
        return cls((0,) * power + (c,))

    def is_zero(self) -> bool:
        return not self.coeffs

    def __bool__(self) -> bool:
        return bool(self.coeffs)

    def degree(self) -> int:
        """Degree of the polynomial; -1 for the zero polynomial."""
        return len(self.coeffs) - 1

    def __eq__(self, other) -> bool:
        if isinstance(other, QPoly):
            return self.coeffs == other.coeffs
        if isinstance(other, (int, Fraction)):
            return self == QPoly.const(other)
        return NotImplemented

    def __hash__(self):
        return hash(self.coeffs)

    def __add__(self, other) -> "QPoly":
        other = _coerce(other)
        a, b = self.coeffs, other.coeffs
        if len(a) < len(b):
            a, b = b, a
        out = list(a)
        for i, c in enumerate(b):
            out[i] += c
        return _canonical(out)

    __radd__ = __add__

    def __neg__(self) -> "QPoly":
        return _canonical([-c for c in self.coeffs])

    def __sub__(self, other) -> "QPoly":
        return self + (-_coerce(other))

    def __rsub__(self, other) -> "QPoly":
        return _coerce(other) + (-self)

    def __mul__(self, other) -> "QPoly":
        other = _coerce(other)
        a, b = self.coeffs, other.coeffs
        if not a or not b:
            return QPoly()
        out = [0] * (len(a) + len(b) - 1)
        for i, ca in enumerate(a):
            if ca:
                for j, cb in enumerate(b):
                    out[i + j] += ca * cb
        return _canonical(out)

    __rmul__ = __mul__

    def __call__(self, value):
        """Evaluate at an exact point, int or Fraction (Horner)."""
        acc = 0
        for c in reversed(self.coeffs):
            acc = acc * value + c
        return acc

    def shift_plus_one(self) -> "QPoly":
        """Return a(q+1), via Horner in the shifted variable."""
        acc = QPoly()
        for c in reversed(self.coeffs):
            acc = acc * Q_PLUS_1 + QPoly.const(c)
        return acc

    def rebase_qminus1(self) -> tuple:
        """Coefficients c_0..c_d with a(q) = sum c_i (q-1)^i.

        Computed by repeated synthetic division by (q-1); independent of
        shift_plus_one, although the two agree as maps (a Taylor-shift
        identity that the tests exercise).
        """
        rest = self.coeffs
        out = []
        # each quotient keeps the leading coefficient, so it stays canonical
        while rest:
            rest, remainder = _divide_qminus1(rest)
            out.append(remainder)
        return tuple(out)

    @classmethod
    def from_qminus1(cls, coeffs) -> "QPoly":
        """Inverse of rebase_qminus1: build sum c_i (q-1)^i."""
        acc = cls()
        for c in reversed(tuple(coeffs)):
            acc = acc * Q_MINUS_1 + cls.const(c)
        return acc

    def divexact_qminus1(self) -> "QPoly":
        """Divide exactly by (q-1); raise if the remainder is nonzero."""
        if not self.coeffs:
            return QPoly()
        quot, remainder = _divide_qminus1(self.coeffs)
        if remainder != 0:
            raise ArithmeticError(f"not divisible by (q-1): {self}")
        return _canonical(quot)

    def is_nonneg(self) -> bool:
        """True iff every coefficient is >= 0."""
        return all(c >= 0 for c in self.coeffs)

    def __str__(self) -> str:
        return render_qpoly(self)

    def __repr__(self) -> str:
        return f"QPoly({render_qpoly(self)!r})"

    def to_json(self) -> list[str]:
        """Coefficient list, constant term first, exact rationals as strings."""
        return [str(c) for c in self.coeffs]


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


def _canonical(cs: list) -> QPoly:
    """A QPoly over a list of coefficients that are already exact (sums and
    products of ints and Fractions): strips trailing zeros in place and skips
    the coercion of __init__."""
    while cs and not cs[-1]:
        cs.pop()
    p = QPoly.__new__(QPoly)
    p.coeffs = tuple(cs)
    return p


def accumulate(terms: dict, key, value) -> None:
    """Add value into terms[key], removing the key when the sum is zero.

    This is the one sparse-sum primitive of the package: values are QPoly
    or GradedSym (anything with + and is_zero()).  A zero value on an
    absent key inserts nothing.
    """
    s = terms.get(key)
    s = value if s is None else s + value
    if s.is_zero():
        terms.pop(key, None)
    else:
        terms[key] = s


def _coerce(x) -> QPoly:
    if isinstance(x, QPoly):
        return x
    if isinstance(x, (int, Fraction)):
        return QPoly.const(x)
    raise TypeError(f"cannot coerce {x!r} to QPoly")


ZERO = QPoly()
ONE = QPoly((1,))
Q = QPoly((0, 1))
Q_PLUS_1 = QPoly((1, 1))
Q_MINUS_1 = QPoly((-1, 1))


def render_qpoly(p: QPoly) -> str:
    """Human-readable form, descending powers: "q^2 - q", "2q^3 + 1/2"."""
    if not p.coeffs:
        return "0"
    parts = []
    for i in range(len(p.coeffs) - 1, -1, -1):
        c = p.coeffs[i]
        if c == 0:
            continue
        sign = "-" if c < 0 else "+"
        mag = abs(c)
        if i == 0:
            body = str(mag)
        else:
            var = "q" if i == 1 else f"q^{i}"
            body = var if mag == 1 else f"{mag}{var}"
        parts.append((sign, body))
    first_sign, first_body = parts[0]
    text = ("-" if first_sign == "-" else "") + first_body
    for sign, body in parts[1:]:
        text += f" {sign} {body}"
    return text


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
