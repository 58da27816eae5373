"""Test-only symmetric-function helpers.

The e -> p conversion as the library computed it before it summed in ints:
each e_mu's p-expansion, with Fraction coefficients, scaled and accumulated
term by term.  And the projection of a full n-variable polynomial onto the
monomial basis, which the library's m_lam coefficients are compared with.
"""

from __future__ import annotations

from vsllt.qpoly import QPoly, accumulate
from vsllt.symfunc import GradedSym, Partition, _raw, e_mu_in_p


def e_expansion_in_p(expansion: dict[Partition, QPoly], n: int) -> GradedSym:
    """sum_mu c_mu e_mu for an e-expansion {mu: c_mu}, in the p-basis at degree n."""
    terms: dict[Partition, QPoly] = {}
    for mu, c in expansion.items():
        for nu, v in e_mu_in_p(mu, n).terms.items():
            accumulate(terms, nu, c * v)
    return _raw(n, terms)


def m_projection(poly: dict[tuple[int, ...], QPoly]) -> dict[Partition, QPoly]:
    """{lam: coefficient of x^lam} for a polynomial {exponent vector: QPoly}:
    the weakly decreasing exponent vectors, trailing zeros dropped.  On a
    symmetric polynomial these are its m_lam coefficients."""
    return {
        tuple(x for x in e if x): c
        for e, c in poly.items()
        if all(a >= b for a, b in zip(e, e[1:]))
    }
