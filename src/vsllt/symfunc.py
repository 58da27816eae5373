"""Graded symmetric functions of bounded degree in a multiplicative basis.

A GradedSym lives in the quotient of the symmetric function ring by all
terms of degree > n (the truncation degree).  Its keys are partitions of
whichever multiplicative basis the caller uses: the e-basis in dyckalgebra,
the p-basis in the rational bridge below, which e_in_p / e_mu_in_p /
e_expansion_in_p feed and expand_in_vars evaluates in finitely many
variables (dyckalgebra.eval_word and the test references use it).

The tableau oracle takes its e-expansion to n variables through
e_expansion_in_vars instead, the integer e -> monomial bridge at the end of
the module, which needs no Fraction.
"""

from __future__ import annotations

import json
from fractions import Fraction
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
                if sum(mu) > n or c.is_zero():
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
        if c.is_zero():
            return GradedSym.zero(self.n)
        return _raw(self.n, {mu: c * v for mu, v in self.terms.items()})

    def __mul__(self, other: "GradedSym") -> "GradedSym":
        """Product, truncated at degree n; in a multiplicative basis this is key merging."""
        self._check_same(other)
        n = self.n
        out: dict[Partition, QPoly] = {}
        for mu, cm in self.terms.items():
            smu = sum(mu)
            for nu, cn in other.terms.items():
                if smu + sum(nu) > n:
                    continue
                accumulate(out, merge_partitions(mu, nu), cm * cn)
        return _raw(n, out)

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

    def to_json(self, basis: str = "p") -> dict:
        return {
            "basis": basis,
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


# e_k in the p-basis does not depend on the truncation degree, so cache the
# raw coefficient dicts once (values are constant rationals).
_E_IN_P_CACHE: dict[int, dict[Partition, Fraction]] = {0: {(): Fraction(1)}}


def _e_in_p_raw(k: int) -> dict[Partition, Fraction]:
    if k in _E_IN_P_CACHE:
        return _E_IN_P_CACHE[k]
    # Newton's identity: k e_k = sum_{i=1}^{k} (-1)^{i-1} e_{k-i} p_i
    acc: dict[Partition, Fraction] = {}
    for i in range(1, k + 1):
        sign = Fraction(1 if i % 2 == 1 else -1, k)
        for mu, c in _e_in_p_raw(k - i).items():
            key = merge_partitions(mu, (i,))
            acc[key] = acc.get(key, Fraction(0)) + sign * c
    acc = {mu: c for mu, c in acc.items() if c != 0}
    _E_IN_P_CACHE[k] = acc
    return acc


# The GradedSym results below are shared between callers, which is safe
# because nothing mutates a GradedSym's terms in place.
_E_IN_P_GRADED: dict[tuple[int, int], GradedSym] = {}
_E_MU_IN_P_CACHE: dict[tuple[Partition, int], GradedSym] = {}


def e_in_p(k: int, n: int) -> GradedSym:
    """The elementary symmetric function e_k expanded in the p-basis."""
    key = (k, n)
    cached = _E_IN_P_GRADED.get(key)
    if cached is not None:
        return cached
    if not 0 <= k <= n:
        raise ValueError(f"need 0 <= k <= n, got k={k}, n={n}")
    out = GradedSym(n, {mu: QPoly.const(c) for mu, c in _e_in_p_raw(k).items()})
    _E_IN_P_GRADED[key] = out
    return out


def e_mu_in_p(mu: Partition, n: int) -> GradedSym:
    """The product e_mu = e_{mu_1} e_{mu_2} ... in the p-basis."""
    key = (mu, n)
    cached = _E_MU_IN_P_CACHE.get(key)
    if cached is not None:
        return cached
    check_partition(mu)
    if sum(mu) > n:
        raise ValueError(f"|mu| = {sum(mu)} exceeds truncation degree {n}")
    out = GradedSym.one(n)
    for part in mu:
        out = out * e_in_p(part, n)
    _E_MU_IN_P_CACHE[key] = out
    return out


def e_expansion_in_p(expansion: dict[Partition, QPoly], n: int) -> GradedSym:
    """sum_mu c_mu e_mu for an e-expansion {mu: c_mu}, in the p-basis at degree n."""
    terms: dict[Partition, QPoly] = {}
    for mu, c in expansion.items():
        for nu, v in e_mu_in_p(mu, n).terms.items():
            accumulate(terms, nu, c * v)
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


_PMU_EXPANSION_CACHE: dict[tuple[Partition, int], XPoly] = {}


def _p_mu_in_vars(mu: Partition, nvars: int) -> XPoly:
    key = (mu, nvars)
    cached = _PMU_EXPANSION_CACHE.get(key)
    if cached is not None:
        return cached
    if not mu:
        out: XPoly = {(0,) * nvars: ONE}
    else:
        head = _p_mu_in_vars(mu[:-1], nvars)
        m = mu[-1]
        pk: XPoly = {}
        for i in range(nvars):
            e = [0] * nvars
            e[i] = m
            pk[tuple(e)] = ONE
        out = xpoly_mul(head, pk)
    _PMU_EXPANSION_CACHE[key] = out
    return out


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
# coefficient of x^alpha in e_mu(x_1..x_nvars) counts the 0/1 matrices with
# row sums mu and column sums alpha (Macdonald, Symmetric Functions and Hall
# Polynomials, I.6); it depends only on the sorted alpha, so every
# rearrangement of one partition shares it.

# (mu, lam) -> number of 0/1 matrices with row sums mu and column sums lam
_E_TO_M: dict[tuple[Partition, Partition], int] = {}
# (lam, nvars) -> every distinct rearrangement of lam padded to nvars parts
_ORBITS: dict[tuple[Partition, int], tuple[tuple[int, ...], ...]] = {}


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


def _e_to_m(mu: Partition, lam: Partition) -> int:
    """The coefficient of m_lam in e_mu, for partitions lam and mu.

    Counts 0/1 matrices with row sums mu and column sums lam one row at a
    time, memoized on (remaining rows, sorted residual column sums).
    """
    key = (mu, lam)
    count = _E_TO_M.get(key)
    if count is not None:
        return count
    if not mu:
        count = 0 if lam else 1
    elif sum(mu) != sum(lam):
        count = 0
    else:
        groups = [(v, len(list(run))) for v, run in groupby(lam)]
        count = 0
        for ways, residual in _row_placements(groups, mu[0]):
            count += ways * _e_to_m(mu[1:], residual)
    _E_TO_M[key] = count
    return count


def _rearrangements(counts: dict[int, int], length: int):
    """Every distinct sequence of the given length with these value counts."""
    if not length:
        yield ()
        return
    for v, k in counts.items():
        if k:
            counts[v] = k - 1
            for tail in _rearrangements(counts, length - 1):
                yield (v,) + tail
            counts[v] = k


def _orbit(lam: Partition, nvars: int) -> tuple[tuple[int, ...], ...]:
    """The exponent vectors of the monomial m_lam in nvars variables."""
    key = (lam, nvars)
    orbit = _ORBITS.get(key)
    if orbit is None:
        counts: dict[int, int] = {0: nvars - len(lam)}
        for v in lam:
            counts[v] = counts.get(v, 0) + 1
        orbit = _ORBITS[key] = tuple(_rearrangements(counts, nvars))
    return orbit


def _partitions_within(size: int, parts: int, largest: int | None = None):
    """Partitions of size with at most `parts` parts, each at most `largest`."""
    if size == 0:
        yield ()
        return
    if parts == 0:
        return
    for first in range(min(size, largest or size), 0, -1):
        for rest in _partitions_within(size - first, parts - 1, first):
            yield (first,) + rest


def e_expansion_in_vars(expansion: dict[Partition, QPoly], nvars: int) -> XPoly:
    """sum_mu c_mu e_mu(x_1..x_nvars) for an e-expansion {mu: c_mu}, fully expanded.

    Every m_lam with at most nvars parts gets sum_mu c_mu * _e_to_m(mu, lam),
    summed coefficient by coefficient in the scalars' own ints, and each
    monomial of m_lam shares that one QPoly.  Equals
    expand_in_vars(e_expansion_in_p(expansion, n), nvars) for n >= the degree.
    """
    if nvars < 1:
        raise ValueError("need at least one variable")
    by_size: dict[int, list[tuple[Partition, QPoly]]] = {}
    for mu, c in expansion.items():
        by_size.setdefault(sum(mu), []).append((mu, c))
    out: XPoly = {}
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
                out.update(dict.fromkeys(_orbit(lam, nvars), coeff))
    return out
