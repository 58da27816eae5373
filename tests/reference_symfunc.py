"""The e -> p conversion as the library computed it before it summed in
ints, kept only for the tests: each e_mu's p-expansion, with Fraction
coefficients, scaled and accumulated term by term."""

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
