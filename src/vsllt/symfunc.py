"""The power-sum basis in integers, and the integer e -> monomial bridge.

A GradedSym is a symmetric function f with QPoly coefficients, truncated at
degree n (terms of degree > n are dropped), stored in the p-basis scaled by
z_lam = prod_i i^{m_i} m_i! (m_i the multiplicity of i in lam):

    terms[lam] = z_lam [p_lam] f = <f, p_lam>,

the Hall inner product of f with p_lam (Macdonald, Symmetric Functions and
Hall Polynomials, I (4.7)).  Every value the library stores is in Z[q]:

- e_k = sum_{lam |- k} eps_lam p_lam / z_lam, eps_lam = (-1)^{k - len(lam)}
  (Macdonald I (2.14')), so ``e_in_p`` stores +-1 at every lam |- k;
- (p_lam / z_lam)(p_mu / z_mu) = c p_nu / z_nu for nu = lam + mu, with
  c = z_nu / (z_lam z_mu) = prod_i C(m_i(lam) + m_i(mu), m_i(lam)), a
  product of binomial coefficients, so a product of integral values, such
  as ``e_mu_in_p``'s, is integral;
- ``e_expansion_in_p`` sums c_mu <e_mu, p_lam> with every c_mu in Z[q].

tests/test_symfunc.py checks each step as a lemma: e_k against Newton's
identity, the merge factor against the z's, and the type of every stored
value of e_mu (|mu| <= 8) and of eval_word.

z_lam depends on the key alone, so +, scale and == act on the stored values
as they would on true coefficients, and no Fraction is built while a value
is summed, scaled, multiplied or compared.  One is built only where a true
coefficient [p_lam] f = terms[lam] / z_lam is read (``p_coefficients``,
which to_json and repr use); ``expand_in_vars`` divides exactly, by d! per
degree d.  dyckalgebra.eval_word returns a GradedSym; the operators keep
their e-basis coefficients in plain {partition: scalar} dicts, QPoly or the
packed ints of dyckalgebra's packed rings.

The tableau oracle takes its e-expansion to the monomial basis through
e_expansion_in_m instead, the integer e -> monomial bridge at the end of the
module: one coefficient per m_lam with at most n parts, no exponent vectors
and no Fraction.
"""

from __future__ import annotations

import json
from fractions import Fraction
from functools import cache
from itertools import groupby
from math import comb, factorial

from .qpoly import ONE, QPoly, accumulate, render_qpoly

# A partition is a weakly decreasing tuple of positive ints; () is allowed.
Partition = tuple[int, ...]


def check_partition(mu: Partition) -> None:
    if any(p <= 0 for p in mu):
        raise ValueError(f"partition parts must be positive: {mu}")
    if any(mu[i] < mu[i + 1] for i in range(len(mu) - 1)):
        raise ValueError(f"partition parts must be weakly decreasing: {mu}")


def merge_partitions(mu: Partition, nu: Partition) -> Partition:
    return tuple(sorted(mu + nu, reverse=True))


def multiply_expansions(factors, one=ONE) -> dict[Partition, QPoly]:
    """Product of expansions in the e-basis, each an iterable of (partition,
    coefficient) pairs: keys merge and coefficients multiply.  Coefficients
    are QPoly, or packed ints with one = 1.

    Untruncated; returns a new dict, {(): one} for no factors.
    """
    out = {(): one}
    for factor in factors:
        nxt = {}
        for mu, c in out.items():
            for nu, d in factor:
                accumulate(nxt, merge_partitions(mu, nu), c * d)
        out = nxt
    return out


def z(lam: Partition) -> int:
    """z_lam = prod_i i^{m_i} m_i!, the number of permutations of |lam| that
    commute with a fixed one of cycle type lam."""
    out = 1
    for part, run in groupby(lam):
        m = len(list(run))
        out *= part**m * factorial(m)
    return out


def _merge_factor(lam: Partition, mu: Partition) -> int:
    """z_{lam+mu} / (z_lam z_mu) = prod_i C(m_i(lam) + m_i(mu), m_i(lam)):
    the parts i^{m_i} cancel, leaving the multiplicities' factorials."""
    out = 1
    for part, run in groupby(merge_partitions(lam, mu)):
        out *= comb(len(list(run)), lam.count(part))
    return out


class GradedSym:
    """Symmetric function truncated at degree n, stored in the p-basis as
    {partition lam: <f, p_lam> = z_lam [p_lam] f} (see the module docstring).

    Keys of size > n are silently dropped, zero values are never stored.
    """

    __slots__ = ("n", "terms")

    def __init__(self, n: int, terms=None):
        self.n = n
        clean: dict[Partition, QPoly] = {}
        if terms:
            for mu, c in terms.items():
                if sum(mu) > n or not c:
                    continue
                clean[mu] = c
        self.terms = clean

    @classmethod
    def zero(cls, n: int) -> "GradedSym":
        return cls(n)

    @classmethod
    def one(cls, n: int) -> "GradedSym":
        return cls(n, {(): ONE})

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, GradedSym)
            and self.n == other.n
            and self.terms == other.terms
        )

    def __add__(self, other: "GradedSym") -> "GradedSym":
        self._check_same(other)
        out = dict(self.terms)
        for mu, c in other.terms.items():
            accumulate(out, mu, c)
        return _raw(self.n, out)

    def scale(self, c: QPoly) -> "GradedSym":
        if not c:
            return GradedSym.zero(self.n)
        return _raw(self.n, {mu: c * v for mu, v in self.terms.items()})

    def __mul__(self, other: "GradedSym") -> "GradedSym":
        """Product, truncated at degree n: keys merge, and each product of
        values takes the integer factor z_{lam+mu} / (z_lam z_mu)."""
        self._check_same(other)
        n = self.n
        out: dict[Partition, QPoly] = {}
        for lam, a in self.terms.items():
            for mu, b in other.terms.items():
                if sum(lam) + sum(mu) <= n:
                    accumulate(out, merge_partitions(lam, mu), a * b * _merge_factor(lam, mu))
        return _raw(n, out)

    def _check_same(self, other: "GradedSym") -> None:
        if self.n != other.n:
            raise ValueError(f"truncation degree mismatch: {self.n} != {other.n}")

    def p_coefficients(self) -> dict[Partition, QPoly]:
        """The true coefficients {lam: [p_lam] f}: each stored value divided
        by z_lam, with a Fraction coefficient where the division is inexact."""
        out = {}
        for lam, c in self.terms.items():
            zl = z(lam)
            out[lam] = QPoly([x // zl if x % zl == 0 else Fraction(x, zl) for x in c.coeffs])
        return out

    def __repr__(self) -> str:
        if not self.terms:
            return "GradedSym<0>"
        bits = ", ".join(
            f"{list(mu)}: {render_qpoly(c)}" for mu, c in sorted(self.p_coefficients().items())
        )
        return f"GradedSym<{bits}>"

    def to_json(self) -> dict:
        """The true p-basis coefficients, rendered."""
        return {
            "basis": "p",
            "terms": {
                json.dumps(list(mu)): render_qpoly(c)
                for mu, c in sorted(self.p_coefficients().items())
            },
        }


def _raw(n: int, terms: dict) -> GradedSym:
    """A GradedSym over terms that are already clean (no zeros, degree <= n)."""
    g = GradedSym.__new__(GradedSym)
    g.n = n
    g.terms = terms
    return g


# Every memoized result in this module is shared between callers, which is
# safe because nothing mutates it.
@cache
def e_in_p(k: int, n: int) -> GradedSym:
    """The elementary symmetric function e_k in the p-basis: <e_k, p_lam> =
    (-1)^{k - len(lam)} at every lam |- k."""
    if not 0 <= k <= n:
        raise ValueError(f"need 0 <= k <= n, got k={k}, n={n}")
    signs = (ONE, QPoly.const(-1))
    return _raw(n, {lam: signs[(k - len(lam)) % 2] for lam in _partitions_within(k, k)})


@cache
def e_mu_in_p(mu: Partition, n: int) -> GradedSym:
    """The product e_mu = e_{mu_1} e_{mu_2} ... in the p-basis."""
    check_partition(mu)
    if sum(mu) > n:
        raise ValueError(f"|mu| = {sum(mu)} exceeds truncation degree {n}")
    out = GradedSym.one(n)
    for part in mu:
        out = out * e_in_p(part, n)
    return out


def e_expansion_in_p(expansion: dict[Partition, QPoly], n: int) -> GradedSym:
    """sum_mu c_mu e_mu for an e-expansion {mu: c_mu}, in the p-basis at degree n.

    The value at lam is sum_mu c_mu <e_mu, p_lam>: the coefficient of q^i is
    an int sum of c_{mu,i} times the int <e_mu, p_lam>, with no division.
    """
    rows: dict[Partition, list] = {}
    for mu, c in expansion.items():
        coeffs = c.coeffs
        for lam, v in e_mu_in_p(mu, n).terms.items():
            a = v.coeffs[0]
            row = rows.setdefault(lam, [])
            row.extend([0] * (len(coeffs) - len(row)))
            for i, x in enumerate(coeffs):
                row[i] += a * x
    terms: dict[Partition, QPoly] = {}
    for lam, row in rows.items():
        p = QPoly(row)
        if p:
            terms[lam] = p
    return _raw(n, terms)


# ---------------------------------------------------------------------------
# Finite-variable expansion (the faithful-representation oracle bridge).
# A multivariate polynomial in x_1..x_nvars is a dict {exponent tuple: QPoly}.

XPoly = dict[tuple[int, ...], QPoly]


def xpoly_mul(a: XPoly, b: XPoly) -> XPoly:
    out: XPoly = {}
    for ea, ca in a.items():
        for eb, cb in b.items():
            accumulate(out, tuple(x + y for x, y in zip(ea, eb)), ca * cb)
    return out


@cache
def _p_mu_in_vars(mu: Partition, nvars: int) -> XPoly:
    if not mu:
        return {(0,) * nvars: ONE}
    pk: XPoly = {}
    for i in range(nvars):
        e = [0] * nvars
        e[i] = mu[-1]
        pk[tuple(e)] = ONE
    return xpoly_mul(_p_mu_in_vars(mu[:-1], nvars), pk)


def expand_in_vars(f: GradedSym, nvars: int) -> XPoly:
    """Substitute p_k -> x_1^k + ... + x_nvars^k and expand.

    f's part of degree d is sum_{lam |- d} <f, p_lam> p_lam / z_lam, and
    d!/z_lam, the number of permutations of cycle type lam, is an integer.
    So d! times that part is summed in Z[q] as sum <f, p_lam> (d!/z_lam)
    p_lam(x), and each of its coefficients is divided by d! exactly; a
    remainder means f is not integral in x_1..x_nvars, and raises
    ArithmeticError.  Faithful (injective) on symmetric functions of degree
    <= nvars.
    """
    if nvars < 1:
        raise ValueError("need at least one variable")
    out: XPoly = {}
    for lam, c in f.terms.items():
        c = c * (factorial(sum(lam)) // z(lam))
        for e, ce in _p_mu_in_vars(lam, nvars).items():
            accumulate(out, e, c * ce)
    # every monomial of p_lam(x) has degree |lam|
    return {e: _divexact(c, factorial(sum(e))) for e, c in out.items()}


def _divexact(c: QPoly, m: int) -> QPoly:
    if any(x % m for x in c.coeffs):
        raise ArithmeticError(f"{render_qpoly(c)} is not divisible by {m}")
    return QPoly([x // m for x in c.coeffs])


# ---------------------------------------------------------------------------
# Integer e -> monomial bridge (the tableau oracle's operator side).  The
# coefficient of m_lam in e_mu counts the 0/1 matrices with row sums mu and
# column sums lam (Macdonald, Symmetric Functions and Hall Polynomials, I.6).


def _row_placements(groups: list[tuple[int, int]], r: int):
    """Ways to put r ones into distinct columns, columns grouped as
    (residual sum v, multiplicity k) with v decreasing.

    Yields (ways, nonzero residual sums afterwards, still decreasing).
    """
    if not groups:
        if r == 0:
            yield 1, ()
        return
    (v, k), rest = groups[0], groups[1:]
    for t in range(min(k, r) + 1):
        lowered = (v - 1,) * t if v > 1 else ()
        for ways, tail in _row_placements(rest, r - t):
            yield comb(k, t) * ways, (v,) * (k - t) + lowered + tail


@cache
def _e_to_m(mu: Partition, lam: Partition) -> int:
    """The coefficient of m_lam in e_mu, for partitions lam and mu.

    Counts 0/1 matrices with row sums mu and column sums lam one row at a
    time, memoized on (remaining rows, sorted residual column sums).
    """
    if not mu:
        return 0 if lam else 1
    if sum(mu) != sum(lam):
        return 0
    groups = [(v, len(list(run))) for v, run in groupby(lam)]
    return sum(
        ways * _e_to_m(mu[1:], residual)
        for ways, residual in _row_placements(groups, mu[0])
    )


@cache
def _partitions_within(size: int, parts: int, largest: int | None = None) -> tuple[Partition, ...]:
    """Partitions of size with at most `parts` parts, each at most `largest`,
    largest first part first."""
    if size == 0:
        return ((),)
    if parts == 0:
        return ()
    return tuple(
        (first,) + rest
        for first in range(min(size, largest or size), 0, -1)
        for rest in _partitions_within(size - first, parts - 1, first)
    )


def e_expansion_in_m(expansion: dict[Partition, QPoly], nvars: int) -> dict[Partition, QPoly]:
    """sum_mu c_mu e_mu(x_1..x_nvars) for an e-expansion {mu: c_mu}, as its
    m_lam coefficients {lam: QPoly}.

    Every lam with at most nvars parts gets sum_mu c_mu * _e_to_m(mu, lam),
    summed coefficient by coefficient in the scalars' own ints; zero sums are
    dropped.  A symmetric polynomial in nvars variables is fixed by these
    coefficients: each is the coefficient of x^lam in
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
            coeff = QPoly(acc)
            if coeff:
                out[lam] = coeff
    return out
