"""Reference versions of both oracle sides, kept only for the tests.

The tableau sum is the straightforward form: every filling adds its own
monomial q^inversions at its content.  The operator side goes through the
power-sum basis, with rational coefficients.  The library's integer tally and
integer e -> monomial bridge must agree with them exactly.
"""

from __future__ import annotations

from itertools import product

from vsllt.llt import (
    StripTuple,
    _strip_fillings,
    attack_pairs,
    cell_count,
    reading_order,
    to_schroeder_word,
)
from vsllt.qpoly import QPoly, accumulate
from vsllt.rewrite import expand_word
from vsllt.symfunc import XPoly, e_expansion_in_p, expand_in_vars


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


def llt_in_vars(strips: StripTuple, nvars: int) -> XPoly:
    """The operator-side polynomial, expanded in nvars variables."""
    expansion = expand_word(to_schroeder_word(strips))
    return expand_in_vars(e_expansion_in_p(expansion, max(cell_count(strips), 1)), nvars)
