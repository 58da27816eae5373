"""Exact univariate polynomials in q with integer coefficients, Z[q].

This is the scalar ring at every public boundary of the package: every
coefficient it returns is a QPoly (inside, the rewriting engine and the
operators hold packed ints, each the value of a QPoly at a power of two).
Coefficients are Python ints.  A Fraction coefficient is accepted, but the
library builds one only where a true power-sum coefficient is read
(symfunc's GradedSym.p_coefficients, behind its to_json and repr): the
e -> p bridge itself stores z_lam [p_lam] f, which is integral.  Python
guarantees Fraction(k) == k and hash(Fraction(k)) == hash(k), so a
polynomial compares, hashes and prints the same whichever of the two holds
an integral value.
No floating point is used anywhere.

One in-place Taylor shift by +1 (``_taylor_shift``) serves
``shift_plus_one`` and ``rebase_qminus1``: the (q-1)-basis digits of a(q)
are the coefficients of a(q+1).  A QPoly remembers its a(q+1), so each
polynomial is shifted at most once.  The way back, from (q-1)-digits to q,
is the packed-coefficient codec at the end of this module: Kronecker
substitution, which ``rewrite.unpack``, ``verify`` and the operators share.
"""

from __future__ import annotations

from fractions import Fraction
from operator import add


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

    __slots__ = ("coeffs", "_plus_one")

    def __init__(self, coeffs=()):
        cs = [c if type(c) is int else _exact(c) for c in coeffs]
        while cs and cs[-1] == 0:
            cs.pop()
        self.coeffs = tuple(cs)
        self._plus_one = None

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
        return _canonical([*map(add, a, b), *a[len(b) :]])

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
        # a constant scales the other operand's coefficients in one pass
        if len(a) == 1:
            a, b = b, a
        if len(b) == 1:
            c = b[0]
            return _canonical([c * x for x in a])
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
        """Return a(q+1), computed at most once per instance."""
        shifted = self._plus_one
        if shifted is None:
            shifted = self._plus_one = _taylor_shift(list(self.coeffs))
        return shifted

    def rebase_qminus1(self) -> tuple:
        """Coefficients c_0..c_d with a(q) = sum c_i (q-1)^i: the coefficients
        of a(q+1), since a(q) = a((q-1) + 1)."""
        return self.shift_plus_one().coeffs

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


def _taylor_shift(cs: list) -> QPoly:
    """The polynomial p(q + 1), p having the exact coefficients cs (constant
    term first).

    Shifts cs in place: pass i divides the polynomial cs[i:] synthetically
    by (q - 1), leaving the remainder, the next Taylor coefficient of p at 1,
    in cs[i].
    """
    n = len(cs)
    for i in range(n - 1):
        for j in range(n - 2, i - 1, -1):
            cs[j] += cs[j + 1]
    return _canonical(cs)


def _canonical(cs: list) -> QPoly:
    """A QPoly over a list of coefficients that are already exact (sums and
    products of ints and Fractions): strips trailing zeros in place and skips
    the coercion of __init__."""
    while cs and not cs[-1]:
        cs.pop()
    p = QPoly.__new__(QPoly)
    p.coeffs = tuple(cs)
    p._plus_one = None
    return p


def digits_bound(digits) -> int:
    """max(d) * 2**len(d), above every |s_j| of a(q) = sum s_j q^j = sum
    d_i (q-1)^i for nonnegative digits d_i: |s_j| <= sum_i d_i C(i, j) <=
    sum_i d_i 2^i.  Read off the actual digits, so a wrong one cannot alias."""
    return max(digits, default=0) << len(digits)


def _at_q(digits, bits: int) -> int:
    """The polynomial with the given (q-1)-digits, constant first, at
    q = 2**bits: Horner at t = 2**bits - 1, each step a shift and a
    subtraction."""
    acc = 0
    for d in reversed(digits):
        acc = (acc << bits) - acc + d
    return acc


def unpack_balanced(value: int, bits: int) -> QPoly:
    """The polynomial p with p(2**bits) = value and every coefficient of
    absolute value below 2**(bits-1): value's balanced base-2**bits digits,
    constant term first."""
    half, full = 1 << (bits - 1), 1 << bits
    mask = full - 1
    digits = []
    while value:
        d = value & mask
        if d >= half:
            d -= full
        digits.append(d)
        value = (value - d) >> bits
    return _canonical(digits)


def accumulate(terms: dict, key, value) -> None:
    """Add value into terms[key], removing the key when the sum is zero.

    This is the one sparse-sum primitive for QPoly and packed int values
    (anything with + whose truth value says nonzero); the rewriting engine's
    packed ints, never zero, are added directly, and the operators drop
    their zero sums once per result.  A zero value on an absent key inserts
    nothing.
    """
    s = terms.get(key)
    s = value if s is None else s + value
    if not s:
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
