"""Per-term reference versions of the alphabet shift and the raising and
lowering operators, in the p-basis, kept only for the tests, with a second
route to the diagonal-step operator and the product by a symmetric function.

These are the straightforward forms: every subset of a partition's parts is
expanded separately, and the lowering operator multiplies by e_{a+1} once
per shifted term.  The library's e-basis, table-driven versions must agree
with them exactly after a coefficient-wise e -> p conversion.
"""

from __future__ import annotations

from reference_qpoly import divexact_qminus1
from vsllt import dyckalgebra
from vsllt.dyckalgebra import VElement, YExps, op_t
from vsllt.qpoly import ONE, QPoly
from vsllt.qpoly import accumulate as _add_term
from vsllt.symfunc import GradedSym, e_in_p


def _raw(k: int, n: int, terms: dict) -> VElement:
    return dyckalgebra._raw(k, n, terms, dyckalgebra.QPOLY)


def retruncate(f: VElement, n: int) -> VElement:
    """f in the quotient at truncation degree n (drops keys if n shrinks)."""
    out: dict[YExps, GradedSym] = {}
    for e, g in f.terms.items():
        g2 = g.retruncate(n)
        if not g2.is_zero():
            out[e] = g2
    return _raw(f.k, n, out)


def mul_sym(f: VElement, g: GradedSym) -> VElement:
    """Multiply f by a symmetric function (acts on every coefficient)."""
    out: dict[YExps, GradedSym] = {}
    for e, h in f.terms.items():
        prod = h * g
        if not prod.is_zero():
            out[e] = prod
    return _raw(f.k, f.n, out)


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
    comm = dyckalgebra.op_dminus(dyckalgebra.op_dplus(lifted)) - dyckalgebra.op_dplus(
        dyckalgebra.op_dminus(lifted)
    )
    out: dict[YExps, GradedSym] = {}
    for e, g in comm.terms.items():
        g2 = GradedSym(
            f.n, {mu: divexact_qminus1(c) for mu, c in g.retruncate(f.n).terms.items()}
        )
        if not g2.is_zero():
            out[e] = g2
    return _raw(f.k, f.n, out)


def _shifted_sym_terms(g: GradedSym, sign: int):
    """Expand g with p_m replaced by p_m + sign*(q^m - 1)*t^m for a fresh t.

    Yields (partition, extra_t_exponent, coefficient) triples.
    """
    for mu, c in g.terms.items():
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
    out: dict[YExps, GradedSym] = {}
    for e, g in f.terms.items():
        for mu, extra, coeff in _shifted_sym_terms(g, +1):
            _add_term(out, e + (extra,), GradedSym(n, {mu: coeff}))
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
    """
    k, n = f.k, f.n
    if k < 1:
        raise ValueError("lowering operator needs k >= 1")
    out: dict[YExps, GradedSym] = {}
    for e, g in f.terms.items():
        base_a = e[-1]
        rest = e[:-1]
        for mu, extra, coeff in _shifted_sym_terms(g, -1):
            a = base_a + extra
            if a + 1 > n:
                continue
            if a % 2 == 1:
                coeff = -coeff
            part = e_in_p(a + 1, n) * GradedSym(n, {mu: coeff})
            _add_term(out, rest, part)
    return _raw(k - 1, n, out)
