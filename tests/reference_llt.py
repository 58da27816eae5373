"""Reference versions of both oracle sides, kept only for the tests.

Both are full polynomials in nvars variables, {exponent vector: QPoly}.  The
tableau sum is the straightforward form: every filling adds its own
monomial q^inversions at its content, its inversions read off the attack
pairs listed pair by pair (the library keeps them only as one mask per
cell).  The operator side goes through the power-sum basis (the library's
integral z_lam [p_lam] values, divided exactly by d! in variables).  The
Schröder word is built in three stages: the cells sorted into reading
order, their attacker counts and crosses by bisecting each diagonal, then a
walk over both; the library builds it in one pass (llt.to_schroeder_word)
and must give the same word.  The library's m_lam coefficients (its integer count and
integer e -> monomial bridge) must equal their m-projections
(reference_symfunc.m_projection) exactly.
"""

from __future__ import annotations

from bisect import bisect_left, bisect_right
from itertools import combinations, product

from vsllt import llt
from vsllt.llt import StripTuple, cell_count, to_schroeder_word
from vsllt.paths import MINUS, PLUS, ZERO, Word
from vsllt.qpoly import QPoly, accumulate
from vsllt.rewrite import expand_word
from vsllt.symfunc import XPoly, e_expansion_in_p, expand_in_vars


def _strip_fillings(height: int, nvars: int):
    """Strictly increasing fillings of one column with values in 1..nvars."""
    return list(combinations(range(1, nvars + 1), height))


def reading_order(strips: StripTuple) -> list[tuple[int, int]]:
    """All cells (strip index, diagonal) sorted by (diagonal, strip index)."""
    cells = [
        (s, d)
        for s, (d0, h) in enumerate(strips)
        for d in range(d0, d0 + h)
    ]
    cells.sort(key=lambda c: (c[1], c[0]))
    return cells


def area_and_crosses(strips: StripTuple) -> tuple[tuple[int, ...], dict[int, int]]:
    """Attacker counts per cell and the vertical-adjacency marks.

    Returns (area, crosses): area[r-1] counts the attack pairs ending at r,
    and crosses maps r to p when cell r sits directly above cell p in the
    same strip.  The attackers of a cell (s, d) are the cells on diagonal d
    with a smaller strip index and those on diagonal d - 1 with a larger one,
    counted by bisecting each diagonal's ascending strip indices.
    """
    cells = reading_order(strips)
    on: dict[int, list[int]] = {}
    for s, d in cells:
        on.setdefault(d, []).append(s)  # ascending, as in reading order
    area = []
    for s, d in cells:
        below = on.get(d - 1, ())
        area.append(bisect_left(on[d], s) + len(below) - bisect_right(below, s))
    crosses: dict[int, int] = {}
    index = {cell: i + 1 for i, cell in enumerate(cells)}
    for s, d in cells:
        above = (s, d + 1)
        if above in index:
            crosses[index[above]] = index[(s, d)]
    return tuple(area), crosses


def schroeder_word(area: tuple[int, ...], crosses: dict[int, int]) -> Word:
    """The path word of the attacker counts and crosses of a strip tuple.

    The attacker counts carve a Dyck path (the north step of row r sits at
    x = r - 1 - area_r); each vertical adjacency marks a valley of that
    path, and its east+north corner becomes a diagonal step.
    """
    n = len(area)
    word = []
    x = 0
    for r in range(1, n + 1):
        xr = r - 1 - area[r - 1]
        p = crosses.get(r)
        if p is None:
            word.extend([PLUS] * (xr - x))
            word.append(MINUS)
            x = xr
        else:
            if xr != p:
                raise ValueError(f"cross ({p},{r}) does not sit at column {xr}")
            if xr - x < 1:
                raise ValueError(f"cross ({p},{r}) is not at a valley")
            word.extend([PLUS] * (xr - 1 - x))
            word.append(ZERO)
            x = xr
    word.extend([PLUS] * (n - x))
    return "".join(word)


def three_stage_word(strips: StripTuple) -> Word:
    """The path word of a strip tuple, built stage by stage."""
    return schroeder_word(*area_and_crosses(strips))


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
