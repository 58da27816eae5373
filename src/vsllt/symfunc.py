"""Graded symmetric functions of bounded degree in a multiplicative basis.

A GradedSym lives in the quotient of the symmetric function ring by all
terms of degree > n (the truncation degree).  Its keys are partitions of
whichever multiplicative basis the caller uses: the e-basis in dyckalgebra,
the p-basis in the rational bridge below, which e_in_p / e_mu_in_p /
e_expansion_in_p feed and expand_in_vars evaluates in finitely many
variables (dyckalgebra.eval_word and the test references use it).  Its
coefficients are QPoly, or, inside the operators, the packed ints of
dyckalgebra's packed rings: it needs only +, *, unary - and truth value.

e_expansion_in_p sums in ints: z_lam [p_lam] e_mu is an integer, so each
coefficient is an int sum divided by z_lam once, and a Fraction appears
only in a value that really is non-integral.  The tableau oracle takes its
e-expansion to the monomial basis through e_expansion_in_m instead, the
integer e -> monomial bridge at the end of the module: one coefficient per
m_lam with at most n parts, no exponent vectors and no Fraction.
"""

from __future__ import annotations

import json
from fractions import Fraction
from functools import cache
from itertools import groupby
from math import comb

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
    """Product of expansions in one multiplicative basis, each an iterable of
    (partition, coefficient) pairs: keys merge and coefficients multiply.
    Coefficients are QPoly, or packed ints with one = 1.

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


class GradedSym:
    """Symmetric function truncated at degree n, stored as {partition: QPoly}.

    Keys are partitions of one multiplicative basis b (mu -> coefficient of
    b_mu), e or p as the caller chooses; keys of size > n are silently
    dropped, zero coefficients are never stored.
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

    @classmethod
    def p(cls, k: int, n: int) -> "GradedSym":
        """The power sum p_k."""
        if k <= 0:
            raise ValueError("p_k needs k >= 1")
        return cls(n, {(k,): ONE})

    def is_zero(self) -> bool:
        return not self.terms

    def __bool__(self) -> bool:
        return bool(self.terms)

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, GradedSym)
            and self.n == other.n
            and self.terms == other.terms
        )

    def __hash__(self):
        return hash((self.n, frozenset(self.terms.items())))

    def __add__(self, other: "GradedSym") -> "GradedSym":
        self._check_same(other)
        out = dict(self.terms)
        for mu, c in other.terms.items():
            accumulate(out, mu, c)
        return _raw(self.n, out)

    def __neg__(self) -> "GradedSym":
        return _raw(self.n, {mu: -c for mu, c in self.terms.items()})

    def __sub__(self, other: "GradedSym") -> "GradedSym":
        return self + (-other)

    def scale(self, c: QPoly) -> "GradedSym":
        if not c:
            return GradedSym.zero(self.n)
        return _raw(self.n, {mu: c * v for mu, v in self.terms.items()})

    def __mul__(self, other: "GradedSym") -> "GradedSym":
        """Product, truncated at degree n; in a multiplicative basis this is key merging."""
        self._check_same(other)
        return GradedSym(self.n, multiply_expansions((self.terms.items(), other.terms.items())))

    def _check_same(self, other: "GradedSym") -> None:
        if self.n != other.n:
            raise ValueError(f"truncation degree mismatch: {self.n} != {other.n}")

    def retruncate(self, n: int) -> "GradedSym":
        """The same function in the quotient at degree n (drops keys if n shrinks)."""
        return GradedSym(n, self.terms)

    def __repr__(self) -> str:
        if not self.terms:
            return "GradedSym<0>"
        bits = ", ".join(
            f"{list(mu)}: {render_qpoly(c)}" for mu, c in sorted(self.terms.items())
        )
        return f"GradedSym<{bits}>"

    def to_json(self) -> dict:
        return {
            "basis": "p",
            "terms": {
                json.dumps(list(mu)): render_qpoly(c)
                for mu, c in sorted(self.terms.items())
            },
        }


def _raw(n: int, terms: dict) -> GradedSym:
    """A GradedSym over terms that are already clean (no zeros, degree <= n)."""
    g = GradedSym.__new__(GradedSym)
    g.n = n
    g.terms = terms
    return g


# e_k in the p-basis does not depend on the truncation degree, so the raw
# coefficient dicts are memoized once.  Every memoized result in this module
# is shared between callers, which is safe because nothing mutates it.
@cache
def _e_in_p_raw(k: int) -> dict[Partition, Fraction]:
    if k == 0:
        return {(): Fraction(1)}
    # Newton's identity: k e_k = sum_{i=1}^{k} (-1)^{i-1} e_{k-i} p_i
    acc: dict[Partition, Fraction] = {}
    for i in range(1, k + 1):
        sign = Fraction(1 if i % 2 == 1 else -1, k)
        for mu, c in _e_in_p_raw(k - i).items():
            key = merge_partitions(mu, (i,))
            acc[key] = acc.get(key, Fraction(0)) + sign * c
    return {mu: c for mu, c in acc.items() if c != 0}


@cache
def e_in_p(k: int, n: int) -> GradedSym:
    """The elementary symmetric function e_k expanded in the p-basis."""
    if not 0 <= k <= n:
        raise ValueError(f"need 0 <= k <= n, got k={k}, n={n}")
    return GradedSym(n, {mu: QPoly.const(c) for mu, c in _e_in_p_raw(k).items()})


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


@cache
def _e_mu_in_p_scaled(mu: Partition) -> tuple[tuple[Partition, int, int], ...]:
    """(lam, z_lam, z_lam [p_lam] e_mu) for every p_lam in e_mu, where
    [p_lam] e_|lam| = +-1/z_lam.

    z_lam [p_lam] e_mu is an integer: it sums, over the ways to split lam
    among the parts of mu, +-z_lam over the product of the pieces' z, which
    is a product of multinomial coefficients.  Raises if one is not.
    """
    out = []
    for lam, v in e_mu_in_p(mu, sum(mu)).terms.items():
        z = _e_in_p_raw(sum(lam))[lam].denominator
        a = z * v.coeffs[0]
        if a.denominator != 1:
            raise ArithmeticError(f"z [p_{list(lam)}] e_{list(mu)} = {a} is not an integer")
        out.append((lam, z, a.numerator))
    return tuple(out)


def e_expansion_in_p(expansion: dict[Partition, QPoly], n: int) -> GradedSym:
    """sum_mu c_mu e_mu for an e-expansion {mu: c_mu}, in the p-basis at degree n.

    Sums in ints: the coefficient of q^i at p_lam adds c_{mu,i} times the
    integer z_lam [p_lam] e_mu over mu, and is divided by z_lam once at the
    end (an int when the division is exact, a Fraction otherwise).
    """
    sums: dict[Partition, tuple[int, list]] = {}
    for mu, c in expansion.items():
        scaled = _e_mu_in_p_scaled(mu)
        if sum(mu) > n:
            raise ValueError(f"|mu| = {sum(mu)} exceeds truncation degree {n}")
        for lam, z, a in scaled:
            row = sums.setdefault(lam, (z, []))[1]
            row.extend([0] * (len(c.coeffs) - len(row)))
            for i, x in enumerate(c.coeffs):
                row[i] += a * x
    terms: dict[Partition, QPoly] = {}
    for lam, (z, row) in sums.items():
        p = QPoly([x // z if x % z == 0 else Fraction(x, z) for x in row])
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

    Faithful (injective) on symmetric functions of degree <= nvars.
    """
    if nvars < 1:
        raise ValueError("need at least one variable")
    out: XPoly = {}
    for mu, c in f.terms.items():
        for e, ce in _p_mu_in_vars(mu, nvars).items():
            accumulate(out, e, c * ce)
    return out


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
