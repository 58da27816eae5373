"""Test-only helpers for the Dyck path algebra, and per-term reference
versions of the alphabet shift and the raising and lowering operators, in
the p-basis, with a second route to the diagonal-step operator.

The library's VElement is a bare record over plain {y-exponents: {partition:
scalar}} dicts.  The helpers here build such elements from Sym
coefficients and do the arithmetic that the identities are stated in: sums,
differences, scalar multiples, products by a symmetric function and
truncation.  Each returns a clean element, as every operator does: no zero
scalar and no empty y-coefficient.

The reference operators are the straightforward forms: every subset of a
partition's parts is expanded separately, and the lowering operator
multiplies by e_{a+1} once per shifted term.  The library's e-basis,
table-driven versions must agree with them exactly after a coefficient-wise
e -> p conversion.
"""

from __future__ import annotations

from reference_qpoly import divexact_qminus1
from reference_symfunc import Sym, e_in_p
from vsllt import dyckalgebra
from vsllt.dyckalgebra import VElement, YExps, op_t
from vsllt.qpoly import ONE, QPoly, accumulate, unpack_balanced
from vsllt.symfunc import Partition


def _nonempty(k: int, n: int, terms: dict) -> VElement:
    return VElement(k, n, {e: g for e, g in terms.items() if g})


def velement(k: int, n: int, terms: dict[YExps, Sym]) -> VElement:
    """A VElement from {y-exponents: Sym}: every exponent vector must
    have length k, and zero coefficients are dropped."""
    for e in terms:
        if len(e) != k:
            raise ValueError(f"exponent vector {e} has length != {k}")
    return _nonempty(k, n, {e: dict(g.terms) for e, g in terms.items()})


def from_sym(g: Sym) -> VElement:
    """g as an element of V_0."""
    return velement(0, g.n, {(): g})


def sym_part(f: VElement) -> dict[Partition, QPoly]:
    """The coefficient of y^0; for k = 0 this is the whole element."""
    return f.terms.get((0,) * f.k, {})


def add(f: VElement, g: VElement) -> VElement:
    if (f.k, f.n) != (g.k, g.n):
        raise ValueError("degree/truncation mismatch")
    out = {e: dict(h) for e, h in f.terms.items()}
    for e, h in g.terms.items():
        acc = out.setdefault(e, {})
        for mu, c in h.items():
            accumulate(acc, mu, c)
    return _nonempty(f.k, f.n, out)


def scale(f: VElement, c) -> VElement:
    if not c:
        return VElement(f.k, f.n, {})
    return VElement(f.k, f.n, {e: {mu: c * x for mu, x in h.items()} for e, h in f.terms.items()})


def sub(f: VElement, g: VElement) -> VElement:
    return add(f, scale(g, -ONE))


def retruncate(f: VElement, n: int) -> VElement:
    """f in the quotient at truncation degree n (drops keys if n shrinks)."""
    return _nonempty(
        f.k, n, {e: {mu: c for mu, c in h.items() if sum(mu) <= n} for e, h in f.terms.items()}
    )


def mul_sym(f: VElement, g: Sym) -> VElement:
    """Multiply f by a symmetric function (acts on every coefficient)."""
    return _nonempty(f.k, f.n, {e: (Sym(f.n, h) * g).terms for e, h in f.terms.items()})


def eval_packed(word, n: int) -> dict[Partition, QPoly]:
    """The symmetric part of apply_word(word, VElement.one(n)), the whole word
    applied letter by letter in ``packed(packed_bits(word, n))`` and decoded
    once per coefficient."""
    bits = dyckalgebra.packed_bits(word, n)
    terms = dyckalgebra._apply_packed(word, n, bits)
    return {mu: unpack_balanced(c, bits) for mu, c in terms.items()}


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
    comm = sub(
        dyckalgebra.op_dminus(dyckalgebra.op_dplus(lifted)),
        dyckalgebra.op_dplus(dyckalgebra.op_dminus(lifted)),
    )
    return _nonempty(
        f.k,
        f.n,
        {
            e: {mu: divexact_qminus1(c) for mu, c in g.items() if sum(mu) <= f.n}
            for e, g in comm.terms.items()
        },
    )


def _shifted_sym_terms(g: dict[Partition, QPoly], sign: int):
    """Expand {partition: coefficient} in the p-basis with p_m replaced by
    p_m + sign*(q^m - 1)*t^m for a fresh t.

    Yields (partition, extra_t_exponent, coefficient) triples.
    """
    for mu, c in g.items():
        # iterate over the parts, keeping or converting each one
        states = [((), 0, c)]
        for m in mu:
            factor = QPoly.monomial(m) - ONE
            if sign < 0:
                factor = -factor
            nxt = []
            for parts, extra, coeff in states:
                nxt.append((parts + (m,), extra, coeff))
                nxt.append((parts, extra + m, coeff * factor))
            states = nxt
        for parts, extra, coeff in states:
            yield tuple(sorted(parts, reverse=True)), extra, coeff


def op_dplus(f: VElement) -> VElement:
    """Raising operator V_k -> V_{k+1}: alphabet shift by (q-1) y_{k+1},
    then the swap ladder T_1 ... T_k."""
    k, n = f.k, f.n
    out: dict[YExps, dict] = {}
    for e, g in f.terms.items():
        for mu, extra, coeff in _shifted_sym_terms(g, +1):
            accumulate(out.setdefault(e + (extra,), {}), mu, coeff)
    res = _nonempty(k + 1, n, out)
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
    """
    k, n = f.k, f.n
    if k < 1:
        raise ValueError("lowering operator needs k >= 1")
    out: dict[YExps, dict] = {}
    for e, g in f.terms.items():
        base_a = e[-1]
        acc = out.setdefault(e[:-1], {})
        for mu, extra, coeff in _shifted_sym_terms(g, -1):
            a = base_a + extra
            if a + 1 > n:
                continue
            if a % 2 == 1:
                coeff = -coeff
            for nu, c in (e_in_p(a + 1, n) * Sym(n, {mu: coeff})).terms.items():
                accumulate(acc, nu, c)
    return _nonempty(k - 1, n, out)
