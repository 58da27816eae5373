"""Graded symmetric functions of bounded degree in the power-sum basis.

A GradedSym lives in the quotient of the symmetric function ring by all
terms of degree > n (the truncation degree).  The power-sum basis is the
single internal basis; the elementary basis enters via e_in_p / e_mu_in_p
and leaves via finite-variable expansion.
"""

from __future__ import annotations

import json
from fractions import Fraction

from .qpoly import ONE, QPoly, render_qpoly

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

    Keys are p-basis partitions (mu -> coefficient of p_mu); keys of size > n
    are silently dropped, zero coefficients are never stored.
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
            s = out.get(mu)
            s = c if s is None else s + c
            if s.is_zero():
                out.pop(mu, None)
            else:
                out[mu] = s
        res = GradedSym.__new__(GradedSym)
        res.n = self.n
        res.terms = out
        return res

    def __neg__(self) -> "GradedSym":
        res = GradedSym.__new__(GradedSym)
        res.n = self.n
        res.terms = {mu: -c for mu, c in self.terms.items()}
        return res

    def __sub__(self, other: "GradedSym") -> "GradedSym":
        return self + (-other)

    def scale(self, c: QPoly) -> "GradedSym":
        if c.is_zero():
            return GradedSym.zero(self.n)
        res = GradedSym.__new__(GradedSym)
        res.n = self.n
        res.terms = {mu: c * v for mu, v in self.terms.items()}
        return res

    def __mul__(self, other: "GradedSym") -> "GradedSym":
        """Product, truncated at degree n; in the p-basis this is key merging."""
        self._check_same(other)
        n = self.n
        out: dict[Partition, QPoly] = {}
        for mu, cm in self.terms.items():
            smu = sum(mu)
            for nu, cn in other.terms.items():
                if smu + sum(nu) > n:
                    continue
                key = merge_partitions(mu, nu)
                c = cm * cn
                s = out.get(key)
                s = c if s is None else s + c
                if s.is_zero():
                    out.pop(key, None)
                else:
                    out[key] = s
        res = GradedSym.__new__(GradedSym)
        res.n = n
        res.terms = out
        return res

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
            f"p{list(mu)}: {render_qpoly(c)}" for mu, c in sorted(self.terms.items())
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


# ---------------------------------------------------------------------------
# Finite-variable expansion (the faithful-representation oracle bridge).
# A multivariate polynomial in x_1..x_nvars is a dict {exponent tuple: QPoly}.

XPoly = dict[tuple[int, ...], QPoly]


def xpoly_mul(a: XPoly, b: XPoly) -> XPoly:
    out: XPoly = {}
    for ea, ca in a.items():
        for eb, cb in b.items():
            key = tuple(x + y for x, y in zip(ea, eb))
            c = ca * cb
            s = out.get(key)
            s = c if s is None else s + c
            if s.is_zero():
                out.pop(key, None)
            else:
                out[key] = s
    return out


def xpoly_add(a: XPoly, b: XPoly) -> XPoly:
    out = dict(a)
    for e, c in b.items():
        s = out.get(e)
        s = c if s is None else s + c
        if s.is_zero():
            out.pop(e, None)
        else:
            out[e] = s
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
            v = c * ce
            s = out.get(e)
            s = v if s is None else s + v
            if s.is_zero():
                out.pop(e, None)
            else:
                out[e] = s
    return out
