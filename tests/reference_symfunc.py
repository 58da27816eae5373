"""Test-only symmetric-function helpers: true coefficients, the reference.

``Sym`` is a symmetric function truncated at degree n, stored as its true
coefficients {partition: QPoly} in one multiplicative basis, e or p as the
caller chooses: a product merges keys and multiplies coefficients, with no
other factor.  The tests use it as the e-basis container of the operators'
identities, and as the p-basis reference: e_k from Newton's identity, in
Fractions, and the e -> p conversion as the library computed it before it
kept its values in integers, each e_mu's p-expansion scaled and accumulated
term by term.  The library's GradedSym stores z_lam [p_lam] f instead;
``true_p`` is the one conversion between the two, and divides by z_lam.

And the projection of a full n-variable polynomial onto the monomial basis,
which the library's m_lam coefficients are compared with, and
``e_expansion_in_m``, the e -> monomial bridge on decoded QPoly coefficients
that the library ran before ``rewrite.lincomb_to_m`` summed it packed.
"""

from __future__ import annotations

import json
from fractions import Fraction
from functools import cache
from itertools import groupby
from math import factorial

from vsllt import symfunc
from vsllt.qpoly import ONE, QPoly, _canonical, accumulate, render_qpoly
from vsllt.symfunc import (
    Partition,
    _e_to_m,
    _partitions_within,
    check_partition,
    merge_partitions,
)


def z(lam: Partition) -> int:
    """z_lam = prod_i i^{m_i} m_i!, m_i the multiplicity of i in lam."""
    out = 1
    for part, run in groupby(lam):
        m = len(list(run))
        out *= part**m * factorial(m)
    return out


class Sym:
    """Symmetric function truncated at degree n, as {partition: QPoly} true
    coefficients in one multiplicative basis; keys of size > n are dropped,
    zero coefficients are never stored."""

    __slots__ = ("n", "terms")

    def __init__(self, n: int, terms=None):
        self.n = n
        self.terms = {mu: c for mu, c in (terms or {}).items() if sum(mu) <= n and c}

    @classmethod
    def zero(cls, n: int) -> "Sym":
        return cls(n)

    @classmethod
    def one(cls, n: int) -> "Sym":
        return cls(n, {(): ONE})

    def __eq__(self, other) -> bool:
        return isinstance(other, Sym) and self.n == other.n and self.terms == other.terms

    def __add__(self, other: "Sym") -> "Sym":
        self._check_same(other)
        out = dict(self.terms)
        for mu, c in other.terms.items():
            accumulate(out, mu, c)
        return Sym(self.n, out)

    def scale(self, c: QPoly) -> "Sym":
        return Sym(self.n, {mu: c * v for mu, v in self.terms.items()})

    def __mul__(self, other: "Sym") -> "Sym":
        """Product, truncated at degree n: keys merge, coefficients multiply."""
        self._check_same(other)
        out: dict[Partition, QPoly] = {}
        for mu, c in self.terms.items():
            for nu, d in other.terms.items():
                accumulate(out, merge_partitions(mu, nu), c * d)
        return Sym(self.n, out)

    def _check_same(self, other: "Sym") -> None:
        if self.n != other.n:
            raise ValueError(f"truncation degree mismatch: {self.n} != {other.n}")

    def __repr__(self) -> str:
        bits = ", ".join(f"{list(mu)}: {render_qpoly(c)}" for mu, c in sorted(self.terms.items()))
        return f"Sym<{bits or 0}>"

    def to_json(self) -> dict:
        return {
            "basis": "p",
            "terms": {
                json.dumps(list(mu)): render_qpoly(c) for mu, c in sorted(self.terms.items())
            },
        }


def true_p(g: symfunc.GradedSym) -> Sym:
    """The library's GradedSym, which stores z_lam [p_lam] g, as a Sym of its
    true p-coefficients: each stored value divided by z_lam (a Fraction
    coefficient where the division is inexact)."""
    terms = {}
    for lam, c in g.terms.items():
        zl = z(lam)
        terms[lam] = QPoly([Fraction(x, zl) for x in c.coeffs])
    return Sym(g.n, terms)


@cache
def e_in_p_raw(k: int) -> dict[Partition, Fraction]:
    """e_k's true p-coefficients by Newton's identity,
    k e_k = sum_{i=1}^{k} (-1)^{i-1} e_{k-i} p_i."""
    if k == 0:
        return {(): Fraction(1)}
    acc: dict[Partition, Fraction] = {}
    for i in range(1, k + 1):
        sign = Fraction(1 if i % 2 == 1 else -1, k)
        for mu, c in e_in_p_raw(k - i).items():
            key = merge_partitions(mu, (i,))
            acc[key] = acc.get(key, Fraction(0)) + sign * c
    return {mu: c for mu, c in acc.items() if c != 0}


def e_in_p(k: int, n: int) -> Sym:
    """e_k in the p-basis, true coefficients."""
    if not 0 <= k <= n:
        raise ValueError(f"need 0 <= k <= n, got k={k}, n={n}")
    return Sym(n, {mu: QPoly.const(c) for mu, c in e_in_p_raw(k).items()})


def e_mu_in_p(mu: Partition, n: int) -> Sym:
    """e_mu = e_{mu_1} e_{mu_2} ... in the p-basis, true coefficients."""
    check_partition(mu)
    if sum(mu) > n:
        raise ValueError(f"|mu| = {sum(mu)} exceeds truncation degree {n}")
    out = Sym.one(n)
    for part in mu:
        out = out * e_in_p(part, n)
    return out


def e_expansion_in_p(expansion: dict[Partition, QPoly], n: int) -> Sym:
    """sum_mu c_mu e_mu for an e-expansion {mu: c_mu}, in the p-basis at
    degree n, true coefficients."""
    terms: dict[Partition, QPoly] = {}
    for mu, c in expansion.items():
        for nu, v in e_mu_in_p(mu, n).terms.items():
            accumulate(terms, nu, c * v)
    return Sym(n, terms)


def m_projection(poly: dict[tuple[int, ...], QPoly]) -> dict[Partition, QPoly]:
    """{lam: coefficient of x^lam} for a polynomial {exponent vector: QPoly}:
    the weakly decreasing exponent vectors, trailing zeros dropped.  On a
    symmetric polynomial these are its m_lam coefficients."""
    return {
        tuple(x for x in e if x): c
        for e, c in poly.items()
        if all(a >= b for a, b in zip(e, e[1:]))
    }


def e_expansion_in_m(expansion: dict[Partition, QPoly], nvars: int) -> dict[Partition, QPoly]:
    """sum_mu c_mu e_mu(x_1..x_nvars) for an e-expansion {mu: c_mu}, as its
    m_lam coefficients {lam: QPoly}.

    Every lam with at most nvars parts gets sum_mu c_mu * _e_to_m(mu, lam),
    summed coefficient by coefficient in the scalars' own ints; zero sums
    are dropped.  A symmetric polynomial in nvars variables is fixed by
    these coefficients: each is the coefficient of x^lam in
    expand_in_vars(e_expansion_in_p(expansion, n), nvars), n >= the degree.
    """
    if nvars < 1:
        raise ValueError("need at least one variable")
    by_size: dict[int, list[tuple[Partition, QPoly]]] = {}
    for mu, c in expansion.items():
        by_size.setdefault(sum(mu), []).append((mu, c))
    out: dict[Partition, QPoly] = {}
    for size, terms in by_size.items():
        width = max(len(c.coeffs) for _, c in terms)
        for lam in _partitions_within(size, nvars):
            acc = [0] * width
            for mu, c in terms:
                count = _e_to_m(mu, lam)
                if count:
                    for i, a in enumerate(c.coeffs):
                        acc[i] += count * a
            coeff = _canonical(acc)
            if coeff:
                out[lam] = coeff
    return out
