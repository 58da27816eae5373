"""Direct evaluator for the Dyck path algebra acting on V_k = Lambda[y_1..y_k].

The operators here (raising, lowering, the Hecke-type swaps and the
diagonal-step operator) are computed from their defining formulas, so this
module serves as the semantic oracle against which the symbolic rewriting
engine is checked.  Symmetric-function coefficients are kept in the e-basis,
where the only two places the operators touch Lambda, the alphabet shift and
the product with e_{a+1}, are integral.
"""

from __future__ import annotations

from functools import cache

from .paths import MINUS, PLUS, Word, WordError, primitive_factors, semilength
from .qpoly import ONE, Q, Q_MINUS_1, QPoly, accumulate
from .symfunc import GradedSym, Partition, e_expansion_in_p, merge_partitions, multiply_expansions
# unused here, but bench/tracing.py wraps dyckalgebra.e_in_p by name
from .symfunc import e_in_p  # noqa: F401

YExps = tuple[int, ...]


class VElement:
    """Element of V_k at truncation degree n: {y-exponent vector: GradedSym}.

    Exponent vectors have length exactly k; zero coefficients are dropped.
    """

    __slots__ = ("k", "n", "terms")

    def __init__(self, k: int, n: int, terms=None):
        self.k = k
        self.n = n
        clean: dict[YExps, GradedSym] = {}
        if terms:
            for e, g in terms.items():
                if len(e) != k:
                    raise ValueError(f"exponent vector {e} has length != {k}")
                if not g.is_zero():
                    clean[e] = g
        self.terms = clean

    @classmethod
    def one(cls, n: int) -> "VElement":
        return cls(0, n, {(): GradedSym.one(n)})

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
        return _raw(self.k, self.n, out)

    def __sub__(self, other: "VElement") -> "VElement":
        return self + other.scale(QPoly.const(-1))

    def scale(self, c: QPoly) -> "VElement":
        if c.is_zero():
            return _raw(self.k, self.n, {})
        return _raw(self.k, self.n, {e: g.scale(c) for e, g in self.terms.items()})

    def mul_sym(self, g: GradedSym) -> "VElement":
        """Multiply by a symmetric function (acts on every coefficient)."""
        out: dict[YExps, GradedSym] = {}
        for e, h in self.terms.items():
            prod = h * g
            if not prod.is_zero():
                out[e] = prod
        return _raw(self.k, self.n, out)

    def sym_part(self) -> GradedSym:
        """The coefficient of y^0; for k = 0 this is the whole element."""
        return self.terms.get((0,) * self.k, GradedSym.zero(self.n))

    def __repr__(self) -> str:
        if not self.terms:
            return f"VElement<k={self.k}, 0>"
        bits = "; ".join(f"y{list(e)} * {g!r}" for e, g in sorted(self.terms.items()))
        return f"VElement<k={self.k}, {bits}>"


def _raw(k: int, n: int, terms: dict) -> VElement:
    v = VElement.__new__(VElement)
    v.k = k
    v.n = n
    v.terms = terms
    return v


def op_t(i: int, f: VElement) -> VElement:
    """The swap operator between u = y_i and v = y_{i+1} (1-based i).

    Defined as ((q-1) u P + (v - q u) P(v,u)) / (v - u) and computed through
    the division-free regrouping P(v,u) + (q-1) * u * dd(P), where dd is the
    divided difference in (u, v), taken monomial by monomial so the division
    is always exact.  This is the normalization satisfying
    (T_i - 1)(T_i + q) = 0, with T_i(1) = 1.
    """
    k = f.k
    if k < 2 or not 1 <= i <= k - 1:
        raise ValueError(f"T_{i} undefined on V_{k}")
    ia, ib = i - 1, i
    out: dict[YExps, GradedSym] = {}
    for e, g in f.terms.items():
        a, b = e[ia], e[ib]
        swapped = list(e)
        swapped[ia], swapped[ib] = b, a
        accumulate(out, tuple(swapped), g)
        if a == b:
            continue
        if a < b:
            dd = g.scale(Q_MINUS_1)
            lo, hi = a, b
        else:
            dd = g.scale(-Q_MINUS_1)
            lo, hi = b, a
        # u * dd(u^a v^b) runs over exponent pairs (lo+1+j, hi-1-j)
        for j in range(hi - lo):
            mono = list(e)
            mono[ia], mono[ib] = lo + 1 + j, hi - 1 - j
            accumulate(out, tuple(mono), dd)
    return _raw(k, f.n, out)


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


def op_dplus(f: VElement) -> VElement:
    """Raising operator V_k -> V_{k+1}: alphabet shift by (q-1) y_{k+1},
    then the swap ladder T_1 ... T_k."""
    k, n = f.k, f.n
    out: dict[YExps, dict[Partition, QPoly]] = {}
    for e, g in f.terms.items():
        for mu, c in g.terms.items():
            for kept, extra, scalar in _shift_table(mu, +1):
                coeff = c if scalar is ONE else c * scalar
                accumulate(out.setdefault(e + (extra,), {}), kept, coeff)
    res = _raw(k + 1, n, {e: GradedSym(n, terms) for e, terms in out.items() if terms})
    for i in range(k, 0, -1):
        res = op_t(i, res)
    return res


def op_dminus(f: VElement) -> VElement:
    """Lowering operator V_k -> V_{k-1}.

    Shift the alphabet by -(q-1) y_k, multiply by the alternating series
    sum_i (-1/y_k)^i e_i, and take the coefficient of y_k^{-1}, negated.
    For a term with y_k-exponent a after the shift, only i = a+1 survives,
    contributing (-1)^a * e_{a+1} times the coefficient: in the e-basis
    this merges a+1 into the partition, and a product of degree above n
    vanishes in the truncation.
    """
    k, n = f.k, f.n
    if k < 1:
        raise ValueError("lowering operator needs k >= 1")
    out: dict[YExps, dict[Partition, QPoly]] = {}
    for e, g in f.terms.items():
        base_a = e[-1]
        terms = out.setdefault(e[:-1], {})
        for mu, c in g.terms.items():
            # the shift keeps |mu|, so every product lands in degree |mu| + base_a + 1
            if sum(mu) + base_a + 1 > n:
                continue
            for kept, extra, scalar in _shift_table(mu, -1):
                a = base_a + extra
                coeff = c if scalar is ONE else c * scalar
                accumulate(terms, merge_partitions(kept, (a + 1,)), -coeff if a % 2 else coeff)
    return _raw(k - 1, n, {rest: GradedSym(n, terms) for rest, terms in out.items() if terms})


def op_phi(f: VElement) -> VElement:
    """Diagonal-step operator: T_1 ... T_{k-1} applied to -y_k * f."""
    k, n = f.k, f.n
    if k < 1:
        raise ValueError("diagonal operator needs k >= 1")
    out = {}
    minus_one = QPoly.const(-1)
    for e, g in f.terms.items():
        out[e[:-1] + (e[-1] + 1,)] = g.scale(minus_one)
    res = _raw(k, n, out)
    for i in range(k - 1, 0, -1):
        res = op_t(i, res)
    return res


def retruncate(f: VElement, n: int) -> VElement:
    out: dict[YExps, GradedSym] = {}
    for e, g in f.terms.items():
        g2 = g.retruncate(n)
        if not g2.is_zero():
            out[e] = g2
    return _raw(f.k, n, out)


def op_phi_commutator(f: VElement) -> VElement:
    """Second, independent route to op_phi: (d- d+ - d+ d-)/(q-1).

    The two routes pass through degree k+1, where the lowering step raises
    symmetric degree by up to (max y-degree of f) + 1 before the raising
    step brings it back down, so the commutator is computed with that much
    truncation headroom and cut back to f.n at the end.  Every scalar must
    divide exactly by (q-1); a remainder signals an implementation bug.
    """
    if f.k < 1:
        raise ValueError("diagonal operator needs k >= 1")
    headroom = max((sum(e) for e in f.terms), default=0) + 1
    lifted = retruncate(f, f.n + headroom)
    comm = op_dminus(op_dplus(lifted)) - op_dplus(op_dminus(lifted))
    out: dict[YExps, GradedSym] = {}
    for e, g in comm.terms.items():
        g2 = GradedSym(
            f.n, {mu: c.divexact_qminus1() for mu, c in g.retruncate(f.n).terms.items()}
        )
        if not g2.is_zero():
            out[e] = g2
    return _raw(f.k, f.n, out)


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


@cache
def _primitive_value(word: Word) -> tuple[tuple[Partition, QPoly], ...]:
    """d_P(1) in the e-basis for a primitive factor of a composite word, as
    (partition, coefficient) pairs, computed at truncation degree
    semilength(word), which is exact.  Memoized per word: a repeat call
    returns the same tuple, whose entries are immutable."""
    return tuple(apply_word(word, VElement.one(semilength(word))).sym_part().terms.items())


def eval_in_e(word: Word) -> GradedSym:
    """d_P(1) in the e-basis for the path encoded by word, at truncation
    degree semilength(word), where it is exact: the result is homogeneous of
    that degree.  A valid composite word's value is the product of the
    memoized values of its primitive factors.  Two facts make that exact: a
    word that returns to the diagonal acts on V_0 as multiplication by its
    value at 1 (the paper's corollary), and every letter keeps the total
    degree (symmetric plus y) or raises it by one, ending at the semilength,
    so no truncation drops a term.  Any other input, a primitive or invalid
    word included, is applied letter by letter.
    """
    n = semilength(word)
    factors = primitive_factors(word)
    if factors is not None and len(factors) > 1:
        return GradedSym(n, multiply_expansions(map(_primitive_value, factors)))
    res = apply_word(word, VElement.one(n))
    if res.k != 0:
        raise WordError("word does not return to the diagonal", len(word))
    return res.sym_part()


def eval_word(word: Word, n: int | None = None) -> GradedSym:
    """d_P(1) converted to the p-basis, at truncation degree n (default: semilength)."""
    g = eval_in_e(word)
    if n is not None:
        g = g.retruncate(n)
    return e_expansion_in_p(g.terms, g.n)
