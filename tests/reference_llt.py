"""Per-filling reference version of the tableau sum, kept only for the tests.

This is the straightforward form: every filling adds its own monomial
q^inversions at its content.  The library's integer tally must agree with it
exactly.
"""

from __future__ import annotations

from itertools import product

from vsllt.llt import StripTuple, _strip_fillings, attack_pairs, reading_order
from vsllt.qpoly import QPoly, accumulate
from vsllt.symfunc import XPoly


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
