"""Direct evaluator for the Dyck path algebra acting on V_k = Lambda[y_1..y_k].

The operators here (raising, lowering, the Hecke-type swaps and the
diagonal-step operator) are computed from their defining formulas, so this
module serves as the semantic oracle against which the symbolic rewriting
engine is checked.  Symmetric-function coefficients are kept in the e-basis,
where the only two places the operators touch Lambda, the alphabet shift and
the product with e_{a+1}, are integral.

The operators are one code over a scalar ring (``Scalars``): they take 0,
1, q-1 and the alphabet-shift scalars from the ring of the element they act
on, and use only +, *, unary - and truth value on scalars.  ``QPOLY``, with
QPoly scalars, is the reference ring.  ``packed_value`` runs in
``packed(bits)``, whose scalars are Python ints, the value of a polynomial
at q = 2**bits (Kronecker substitution), and ``eval_in_e`` decodes each of
its output coefficients once (qpoly's ``unpack_balanced``);
``coefficient_bound`` proves the width.
"""

from __future__ import annotations

from functools import cache

from .paths import MINUS, PLUS, Word, WordError, primitive_factors, semilength
from .qpoly import ONE, Q, Q_MINUS_1, ZERO, QPoly, accumulate, unpack_balanced
from .symfunc import GradedSym, Partition, e_expansion_in_p, merge_partitions, multiply_expansions
from .symfunc import _raw as _raw_sym
# unused here, but bench/tracing.py wraps dyckalgebra.e_in_p by name
from .symfunc import e_in_p  # noqa: F401

YExps = tuple[int, ...]


class Scalars:
    """A scalar ring for the operators: its 0, 1 and q-1, and lift, the ring
    map from Z[q] (QPoly) into it, which carries the alphabet-shift scalars.

    The operators take these from the element they act on and use only +,
    *, unary - and truth value on scalars, so one code serves every ring.
    """

    __slots__ = ("zero", "one", "q_minus_1", "lift")

    def __init__(self, zero, one, q_minus_1, lift):
        self.zero = zero
        self.one = one
        self.q_minus_1 = q_minus_1
        self.lift = lift


# The reference ring: QPoly scalars.
QPOLY = Scalars(ZERO, ONE, Q_MINUS_1, lambda p: p)


@cache
def packed(bits: int) -> Scalars:
    """Z[q] mapped into Z by q -> 2**bits, a ring homomorphism: scalars are
    Python ints, and every sum and product stays exact.
    ``unpack_balanced`` recovers a polynomial whose coefficients all have
    absolute value below 2**(bits-1)."""
    return Scalars(0, 1, (1 << bits) - 1, lambda p: p(1 << bits))


class VElement:
    """Element of V_k at truncation degree n: {y-exponent vector: GradedSym},
    with scalars in ``ring``.

    Exponent vectors have length exactly k; zero coefficients are dropped.
    """

    __slots__ = ("k", "n", "terms", "ring")

    def __init__(self, k: int, n: int, terms=None, ring: Scalars = QPOLY):
        self.k = k
        self.n = n
        self.ring = ring
        clean: dict[YExps, GradedSym] = {}
        if terms:
            for e, g in terms.items():
                if len(e) != k:
                    raise ValueError(f"exponent vector {e} has length != {k}")
                if not g.is_zero():
                    clean[e] = g
        self.terms = clean

    @classmethod
    def one(cls, n: int, ring: Scalars = QPOLY) -> "VElement":
        return cls(0, n, {(): GradedSym(n, {(): ring.one})}, ring)

    @classmethod
    def from_sym(cls, g: GradedSym) -> "VElement":
        return cls(0, g.n, {(): g})

    def is_zero(self) -> bool:
        return not self.terms

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, VElement)
            and (self.k, self.n) == (other.k, other.n)
            and self.terms == other.terms
        )

    def __add__(self, other: "VElement") -> "VElement":
        if (self.k, self.n) != (other.k, other.n):
            raise ValueError("degree/truncation mismatch")
        out = dict(self.terms)
        for e, g in other.terms.items():
            accumulate(out, e, g)
        return _raw(self.k, self.n, out, self.ring)

    def __sub__(self, other: "VElement") -> "VElement":
        return self + other.scale(-self.ring.one)

    def scale(self, c) -> "VElement":
        if not c:
            return _raw(self.k, self.n, {}, self.ring)
        return _raw(self.k, self.n, {e: g.scale(c) for e, g in self.terms.items()}, self.ring)

    def sym_part(self) -> GradedSym:
        """The coefficient of y^0; for k = 0 this is the whole element."""
        return self.terms.get((0,) * self.k, GradedSym.zero(self.n))

    def __repr__(self) -> str:
        if not self.terms:
            return f"VElement<k={self.k}, 0>"
        bits = "; ".join(f"y{list(e)} * {g!r}" for e, g in sorted(self.terms.items()))
        return f"VElement<k={self.k}, {bits}>"


def _raw(k: int, n: int, terms: dict, ring: Scalars) -> VElement:
    v = VElement.__new__(VElement)
    v.k = k
    v.n = n
    v.terms = terms
    v.ring = ring
    return v


def _wrap(k: int, n: int, out: dict, ring: Scalars) -> VElement:
    """A VElement over {y-exponents: {partition: scalar}} sums, dropping zero
    scalars and then empty y-coefficients; every key is already of degree <= n."""
    terms = {}
    for e, sums in out.items():
        kept = {mu: c for mu, c in sums.items() if c}
        if kept:
            terms[e] = _raw_sym(n, kept)
    return _raw(k, n, terms, ring)


def _add_into(out: dict, key, terms: dict, zero) -> None:
    """out[key] += terms, coefficient by coefficient, zeros kept."""
    acc = out.get(key)
    if acc is None:
        out[key] = dict(terms)
    else:
        for mu, c in terms.items():
            acc[mu] = acc.get(mu, zero) + c


def _swap(i: int, terms: dict, zero, q_minus_1) -> dict:
    """T_i on raw {y-exponents: {partition: scalar}} sums, zeros kept: the
    one swap of ``op_t`` and of the ladders in ``op_dplus`` and ``op_phi``,
    which drop their zero sums once, at the end (``_wrap``)."""
    out: dict[YExps, dict] = {}
    for e, g in terms.items():
        head, a, b, tail = e[: i - 1], e[i - 1], e[i], e[i + 1 :]
        _add_into(out, head + (b, a) + tail, g, zero)
        if a == b:
            continue
        s, lo, hi = (q_minus_1, a, b) if a < b else (-q_minus_1, b, a)
        dd = {mu: c * s for mu, c in g.items()}
        # u * dd(u^a v^b) runs over the exponent pairs (u, lo + hi - u), lo < u <= hi
        for u in range(lo + 1, hi + 1):
            _add_into(out, head + (u, lo + hi - u) + tail, dd, zero)
    return out


def _ladder(k: int, n: int, out: dict, top: int, ring: Scalars) -> VElement:
    """T_1 T_2 ... T_top applied to raw sums on V_k (T_top first), wrapped
    once at the end."""
    zero, q_minus_1 = ring.zero, ring.q_minus_1
    for i in range(top, 0, -1):
        out = _swap(i, out, zero, q_minus_1)
    return _wrap(k, n, out, ring)


def op_t(i: int, f: VElement) -> VElement:
    """The swap operator between u = y_i and v = y_{i+1} (1-based i).

    Defined as ((q-1) u P + (v - q u) P(v,u)) / (v - u) and computed through
    the division-free regrouping P(v,u) + (q-1) * u * dd(P), where dd is the
    divided difference in (u, v), taken monomial by monomial so the division
    is always exact.  This is the normalization satisfying
    (T_i - 1)(T_i + q) = 0, with T_i(1) = 1.
    """
    k, n, ring = f.k, f.n, f.ring
    if k < 2 or not 1 <= i <= k - 1:
        raise ValueError(f"T_{i} undefined on V_{k}")
    out = _swap(i, {e: g.terms for e, g in f.terms.items()}, ring.zero, ring.q_minus_1)
    return _wrap(k, n, out, ring)


def _e_of_shift(j: int, sign: int) -> QPoly:
    """e_j[sign*(q-1)] for j >= 1: (-1)^j (1-q), or (-1)^j (q^j - q^{j-1})."""
    c = ONE - Q if sign > 0 else QPoly.monomial(j) - QPoly.monomial(j - 1)
    return -c if j % 2 else c


@cache
def _shift_table(mu: Partition, sign: int) -> tuple:
    """e_mu with X replaced by X + sign*(q-1)*t for a fresh t.

    Each part steps by e_m[X + A] = sum_j e_{m-j}[X] e_j[A], where e_j[A]
    is t^j times an integer polynomial in q.  Returns (kept partition, extra
    t-exponent, scalar) entries, one per distinct kept multiset, with
    zero scalars dropped.  Memoized per (mu, sign): a repeat call returns
    the same tuple, whose entries are immutable.
    """
    states: dict[Partition, QPoly] = {(): ONE}
    for m in mu:
        nxt: dict[Partition, QPoly] = {}
        for parts, scalar in states.items():
            accumulate(nxt, merge_partitions(parts, (m,)), scalar)
            for j in range(1, m + 1):
                kept = merge_partitions(parts, (m - j,)) if j < m else parts
                accumulate(nxt, kept, scalar * _e_of_shift(j, sign))
        states = nxt
    size = sum(mu)
    return tuple((parts, size - sum(parts), scalar) for parts, scalar in states.items())


@cache
def _raising_table(mu: Partition, ring: Scalars) -> tuple:
    """``_shift_table(mu, +1)`` grouped by the extra t-exponent, as
    (extra, ((kept, scalar), ...)) with scalars in ring."""
    groups: dict[int, list] = {}
    for kept, extra, scalar in _shift_table(mu, +1):
        groups.setdefault(extra, []).append((kept, ring.lift(scalar)))
    return tuple((extra, tuple(pairs)) for extra, pairs in groups.items())


@cache
def _lowering_table(mu: Partition, a0: int, ring: Scalars) -> tuple:
    """(partition, scalar) pairs, scalars in ring, that ``op_dminus`` adds
    c times for a term c e_mu y_k^a0: the shift's (kept, extra, s) gives
    a = a0 + extra and (-1)^a s at kept merged with a + 1.  Entries that
    land on one partition are summed, zeros dropped."""
    out: dict[Partition, QPoly] = {}
    for kept, extra, scalar in _shift_table(mu, -1):
        a = a0 + extra
        accumulate(out, merge_partitions(kept, (a + 1,)), -scalar if a % 2 else scalar)
    return tuple((key, ring.lift(scalar)) for key, scalar in out.items())


# packed widths are rounded up to a multiple of this, so that words share
# the packed tables of a few widths
_BITS_STEP = 16


def coefficient_bound(word: Word, n: int) -> int:
    """A bound on |c| for every coefficient c of q^i in
    apply_word(word, VElement.one(n)), and so of eval_in_e(word) at n.

    Width lemma.  Let ||f|| be the sum, over the terms of f, of the l1 norm
    of the QPoly scalar (the sum of the absolute values of its
    coefficients); l1 is subadditive and submultiplicative, so ||op f|| <=
    N * ||f|| for each operator's norm N below, and ||VElement.one(n)|| = 1.
    Every term of the element has total degree (symmetric plus y) d, the
    number of '-' and '0' letters applied so far, so every y-exponent is at
    most d.
    - T_i at degree d: the swap has norm 1 and the divided difference adds
      |a - b| <= d terms scaled by +-(q-1), of l1 norm 2: N = 2d + 1.
    - The alphabet shift of e_mu, |mu| <= min(d, n): each part m steps to
      sum_j e_{m-j}[X] e_j[A], where l1(e_0[A]) = 1 and l1(e_j[A]) = 2, so
      the table's l1 sum is at most prod (1 + 2 m) <= 3^|mu|.  The product
      with e_{a+1} and the truncation only merge or drop terms.
    - d+ on V_k is a shift then k swaps; d- is a shift; phi raises the
      degree, then makes k-1 swaps.
    The product over the letters is O(letters) work per word.  Where
    apply_word would refuse the word, the walk stops.
    """
    bound = 1
    k = d = 0
    for tok in reversed(word):
        if tok == PLUS:
            bound *= 3 ** min(d, n) * (2 * d + 1) ** k
            k += 1
        elif k < 1:
            break
        elif tok == MINUS:
            bound *= 3 ** min(d, n)
            k -= 1
            d += 1
        else:
            d += 1
            bound *= (2 * d + 1) ** (k - 1)
    return bound


def width_for(bound: int) -> int:
    """The least multiple of _BITS_STEP with bound < 2**(bits-1): the packed
    width for coefficients of absolute value at most bound."""
    bits = bound.bit_length() + 1
    return -(-bits // _BITS_STEP) * _BITS_STEP


def packed_bits(word: Word, n: int) -> int:
    """The width ``eval_in_e`` packs word's evaluation at n with: every
    coefficient c has |c| <= coefficient_bound(word, n) < 2**(bits-1)."""
    return width_for(coefficient_bound(word, n))


def op_dplus(f: VElement) -> VElement:
    """Raising operator V_k -> V_{k+1}: alphabet shift by (q-1) y_{k+1},
    then the swap ladder T_1 ... T_k."""
    k, n, ring = f.k, f.n, f.ring
    zero = ring.zero
    out: dict[YExps, dict] = {}
    for e, g in f.terms.items():
        for mu, c in g.terms.items():
            for extra, pairs in _raising_table(mu, ring):
                acc = out.setdefault(e + (extra,), {})
                for kept, s in pairs:
                    acc[kept] = acc.get(kept, zero) + c * s
    return _ladder(k + 1, n, out, k, ring)


def op_dminus(f: VElement) -> VElement:
    """Lowering operator V_k -> V_{k-1}.

    Shift the alphabet by -(q-1) y_k, multiply by the alternating series
    sum_i (-1/y_k)^i e_i, and take the coefficient of y_k^{-1}, negated.
    For a term with y_k-exponent a after the shift, only i = a+1 survives,
    contributing (-1)^a * e_{a+1} times the coefficient: in the e-basis
    this merges a+1 into the partition (``_lowering_table``), and a product
    of degree above n vanishes in the truncation.
    """
    k, n, ring = f.k, f.n, f.ring
    if k < 1:
        raise ValueError("lowering operator needs k >= 1")
    zero = ring.zero
    out: dict[YExps, dict] = {}
    for e, g in f.terms.items():
        a0 = e[-1]
        acc = out.setdefault(e[:-1], {})
        for mu, c in g.terms.items():
            # the shift keeps |mu|, so every product lands in degree |mu| + a0 + 1
            if sum(mu) + a0 + 1 > n:
                continue
            for key, s in _lowering_table(mu, a0, ring):
                acc[key] = acc.get(key, zero) + c * s
    return _wrap(k - 1, n, out, ring)


def op_phi(f: VElement) -> VElement:
    """Diagonal-step operator: T_1 ... T_{k-1} applied to -y_k * f."""
    k, n = f.k, f.n
    if k < 1:
        raise ValueError("diagonal operator needs k >= 1")
    out = {e[:-1] + (e[-1] + 1,): {mu: -c for mu, c in g.terms.items()} for e, g in f.terms.items()}
    return _ladder(k, n, out, k - 1, f.ring)


def apply_word(word: Word, f: VElement) -> VElement:
    """Apply a path-operator word to f, rightmost letter first."""
    for pos in range(len(word) - 1, -1, -1):
        tok = word[pos]
        if tok == PLUS:
            f = op_dplus(f)
        elif tok == MINUS:
            if f.k < 1:
                raise WordError("lowering step below V_0", pos)
            f = op_dminus(f)
        else:
            if f.k < 1:
                raise WordError("diagonal step on the main diagonal", pos)
            f = op_phi(f)
    return f


def _apply_packed(word: Word, n: int, bits: int) -> dict[Partition, int]:
    """The symmetric part of apply_word(word, VElement.one(n)) in
    ``packed(bits)``, undecoded.  Raises WordError as apply_word does, or if
    the word does not end on V_0."""
    res = apply_word(word, VElement.one(n, packed(bits)))
    if res.k != 0:
        raise WordError("word does not return to the diagonal", len(word))
    return res.sym_part().terms


def eval_packed(word: Word, n: int) -> GradedSym:
    """The symmetric part of apply_word(word, VElement.one(n)), computed in
    ``packed(packed_bits(word, n))`` and decoded once per coefficient.
    Raises WordError as apply_word does, or if the word does not end on V_0."""
    bits = packed_bits(word, n)
    terms = _apply_packed(word, n, bits)
    return GradedSym(n, {mu: unpack_balanced(c, bits) for mu, c in terms.items()})


@cache
def _primitive_value(word: Word) -> tuple[tuple[Partition, QPoly], ...]:
    """d_P(1) in the e-basis for a primitive factor of a composite word, as
    (partition, coefficient) pairs, computed at truncation degree
    semilength(word), which is exact.  Memoized per word: a repeat call
    returns the same tuple, whose entries are immutable."""
    return tuple(eval_packed(word, semilength(word)).terms.items())


def packed_value(word: Word, bits: int) -> dict[Partition, int]:
    """d_P(1) in the e-basis at q = 2**bits, at truncation degree
    semilength(word), for any bits >= packed_bits(word, semilength(word)).

    A valid composite word's value is the product of the values of its
    primitive factors.  Two facts make that exact: a word that returns to
    the diagonal acts on V_0 as multiplication by its value at 1 (the
    paper's corollary), and every letter keeps the total degree (symmetric
    plus y) or raises it by one, ending at the semilength, so no truncation
    drops a term.  Each factor's decoded value is memoized and packed again
    for every word: a factor recurs at many widths, and memoizing it at all
    of them took 183 MB peak RSS at semilength 9 against 128 MB.  Any other
    input, a primitive or invalid word included, is applied letter by letter.
    """
    n = semilength(word)
    factors = primitive_factors(word)
    if factors is not None and len(factors) > 1:
        at = 1 << bits
        values = ([(mu, c(at)) for mu, c in _primitive_value(f)] for f in factors)
        return multiply_expansions(values, 1)
    return _apply_packed(word, n, bits)


def eval_in_e(word: Word) -> GradedSym:
    """d_P(1) in the e-basis for the path encoded by word, at truncation
    degree semilength(word), where it is exact: the result is homogeneous of
    that degree.  This is ``packed_value`` at ``packed_bits``, decoded once
    per coefficient."""
    n = semilength(word)
    bits = packed_bits(word, n)
    return GradedSym(n, {mu: unpack_balanced(c, bits) for mu, c in packed_value(word, bits).items()})


def eval_word(word: Word, n: int | None = None) -> GradedSym:
    """d_P(1) converted to the p-basis, at truncation degree n (default: semilength)."""
    g = eval_in_e(word)
    if n is not None:
        g = g.retruncate(n)
    return e_expansion_in_p(g.terms, g.n)
