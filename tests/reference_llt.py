"""Reference versions of both oracle sides, kept only for the tests.

Both are full polynomials in nvars variables, {exponent vector: QPoly}.  The
tableau sum is the straightforward form: every filling adds its own
monomial q^inversions at its content, its inversions read off the attack
pairs listed pair by pair (the library keeps them only as one mask per
cell).  The operator side goes through the power-sum basis, with rational
coefficients.  The library's m_lam coefficients (its integer count and
integer e -> monomial bridge) must equal their m-projections
(reference_symfunc.m_projection) exactly.
"""

from __future__ import annotations

from itertools import combinations, product

from vsllt import llt
from vsllt.llt import StripTuple, cell_count, reading_order, to_schroeder_word
from vsllt.qpoly import QPoly, accumulate
from vsllt.rewrite import expand_word
from vsllt.symfunc import XPoly, e_expansion_in_p, expand_in_vars


def _strip_fillings(height: int, nvars: int):
    """Strictly increasing fillings of one column with values in 1..nvars."""
    return list(combinations(range(1, nvars + 1), height))


def attack_pairs(strips: StripTuple) -> set[tuple[int, int]]:
    """Pairs (p, r) of 1-based reading-order positions that can invert.

    (p, r) attacks iff the cells share a diagonal (then p's strip index is
    the smaller) or r sits one diagonal above p on a strictly smaller strip
    index.
    """
    cells = reading_order(strips)
    pairs = set()
    for ip, (sp, dp) in enumerate(cells):
        for ir in range(ip + 1, len(cells)):
            sr, dr = cells[ir]
            if dr == dp and sp < sr:
                pairs.add((ip + 1, ir + 1))
            elif dr == dp + 1 and sp > sr:
                pairs.add((ip + 1, ir + 1))
    return pairs


def ssyt_generating_function(strips: StripTuple, nvars: int) -> XPoly:
    """Brute-force tableau sum: q^inversions * x^content over all fillings."""
    if nvars < 1:
        raise ValueError("need at least one variable")
    pairs = sorted(attack_pairs(strips))
    cells = reading_order(strips)
    per_strip = [_strip_fillings(h, nvars) for _, h in strips]
    offsets = []
    seen: dict[int, int] = {}
    for s, _d in cells:
        offsets.append((s, seen.get(s, 0)))
        seen[s] = seen.get(s, 0) + 1
    out: XPoly = {}
    for choice in product(*per_strip):
        values = [choice[s][j] for s, j in offsets]
        inv = sum(1 for p, r in pairs if values[p - 1] < values[r - 1])
        exps = [0] * nvars
        for v in values:
            exps[v - 1] += 1
        accumulate(out, tuple(exps), QPoly.monomial(inv))
    return out


def oracle_compare(strips: StripTuple, nvars: int | None = None) -> bool:
    """The library's tableau sum versus its rewritten operator value, m_lam
    coefficient by coefficient, in nvars variables (default: the cell count)."""
    if nvars is None:
        nvars = max(cell_count(strips), 1)
    return llt.ssyt_generating_function(strips, nvars) == llt.llt_in_vars(strips, nvars)


def llt_in_vars(strips: StripTuple, nvars: int) -> XPoly:
    """The operator-side polynomial, expanded in nvars variables."""
    expansion = expand_word(to_schroeder_word(strips))
    return expand_in_vars(e_expansion_in_p(expansion, max(cell_count(strips), 1)), nvars)
