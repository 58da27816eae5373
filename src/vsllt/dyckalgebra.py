"""Direct evaluator for the Dyck path algebra acting on V_k = Lambda[y_1..y_k].

The operators here (raising, lowering, the Hecke-type swaps and the
diagonal-step operator) are computed from their defining formulas, so this
module serves as the semantic oracle against which the symbolic rewriting
engine is checked.
"""

from __future__ import annotations

from .paths import MINUS, PLUS, Word, WordError, semilength
from .qpoly import ONE, Q_MINUS_1, QPoly
from .symfunc import GradedSym, Partition, e_in_p

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
            s = out.get(e)
            s = g if s is None else s + g
            if s.is_zero():
                out.pop(e, None)
            else:
                out[e] = s
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


def _add_term(terms: dict, e: YExps, g: GradedSym) -> None:
    s = terms.get(e)
    s = g if s is None else s + g
    if s.is_zero():
        terms.pop(e, None)
    else:
        terms[e] = s


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
        _add_term(out, tuple(swapped), g)
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
            _add_term(out, tuple(mono), dd)
    return _raw(k, f.n, out)


# (mu, sign) -> the alphabet shift of p_mu, as (kept, extra, scalar) entries
_SHIFT_TABLE: dict[tuple[Partition, int], tuple] = {}


def _shift_table(mu: Partition, sign: int) -> tuple:
    """p_mu with p_m replaced by p_m + sign*(q^m - 1)*t^m for a fresh t.

    Returns (kept partition, extra t-exponent, scalar) entries, one per
    distinct kept multiset: subsets of the parts that keep the same parts
    convert the same ones, so their scalars are merged into one.
    """
    key = (mu, sign)
    table = _SHIFT_TABLE.get(key)
    if table is not None:
        return table
    # iterate over the parts, keeping or converting each one
    states: dict[Partition, QPoly] = {(): ONE}
    for m in mu:
        factor = QPoly.monomial(m) - ONE
        if sign < 0:
            factor = -factor
        nxt: dict[Partition, QPoly] = {}
        for parts, scalar in states.items():
            for kept, v in ((parts + (m,), scalar), (parts, scalar * factor)):
                s = nxt.get(kept)
                nxt[kept] = v if s is None else s + v
        states = nxt
    size = sum(mu)
    table = tuple((parts, size - sum(parts), scalar) for parts, scalar in states.items())
    _SHIFT_TABLE[key] = table
    return table


def op_dplus(f: VElement) -> VElement:
    """Raising operator V_k -> V_{k+1}: alphabet shift by (q-1) y_{k+1},
    then the swap ladder T_1 ... T_k."""
    k, n = f.k, f.n
    out: dict[YExps, GradedSym] = {}
    for e, g in f.terms.items():
        for mu, c in g.terms.items():
            for kept, extra, scalar in _shift_table(mu, +1):
                coeff = c if scalar is ONE else c * scalar
                _add_term(out, e + (extra,), GradedSym(n, {kept: coeff}))
    res = _raw(k + 1, n, out)
    for i in range(k, 0, -1):
        res = op_t(i, res)
    return res


def op_dminus(f: VElement) -> VElement:
    """Lowering operator V_k -> V_{k-1}.

    Shift the alphabet by -(q-1) y_k, multiply by the alternating series
    sum_i (-1/y_k)^i e_i, and take the coefficient of y_k^{-1}, negated.
    For a term with y_k-exponent a after the shift, only i = a+1 survives,
    contributing (-1)^a * e_{a+1} times the coefficient; e_{a+1} with
    a+1 > n vanishes in the truncation.

    The shifted terms are first summed into one symmetric function per
    (remaining exponents, a), so each non-zero group is multiplied by
    e_{a+1} once rather than once per shifted term.
    """
    k, n = f.k, f.n
    if k < 1:
        raise ValueError("lowering operator needs k >= 1")
    groups: dict[tuple[YExps, int], dict[Partition, QPoly]] = {}
    for e, g in f.terms.items():
        base_a = e[-1]
        rest = e[:-1]
        for mu, c in g.terms.items():
            for kept, extra, scalar in _shift_table(mu, -1):
                a = base_a + extra
                if a + 1 > n:
                    continue
                coeff = c if scalar is ONE else c * scalar
                group = groups.setdefault((rest, a), {})
                s = group.get(kept)
                group[kept] = coeff if s is None else s + coeff
    out: dict[YExps, GradedSym] = {}
    for (rest, a), terms in groups.items():
        group = GradedSym(n, terms)
        if group.is_zero():
            continue
        part = e_in_p(a + 1, n) * group
        _add_term(out, rest, -part if a % 2 == 1 else part)
    return _raw(k - 1, n, out)


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


def eval_word(word: Word, n: int | None = None) -> GradedSym:
    """d_P(1) for the path encoded by word, at truncation degree n.

    The default truncation is the word's semilength, which is exact: the
    result is homogeneous of that degree.
    """
    if n is None:
        n = semilength(word)
    res = apply_word(word, VElement.one(n))
    if res.k != 0:
        raise WordError("word does not return to the diagonal", len(word))
    return res.sym_part()
