"""Vertical strip tuples, their Schröder paths, and the tableau oracle.

A strip is a single column of cells given as (bottom diagonal, height);
the cell above a cell sits on the next diagonal.  Tuple order is the
left-to-right arrangement of the strips in the plane, and matters.

Convention note: diagonals increase upward, cells are read diagonal by
diagonal with ties broken by strip index, and a pair of cells attacks iff
it shares a diagonal with increasing strip index or sits on adjacent
diagonals with decreasing strip index.  This is the one reading under
which the dots, crosses and path of the standard picture all agree.

Both sides of the tableau oracle are symmetric polynomials in nvars
variables, so each is given by its coefficients in the monomial basis:
{lam: QPoly} over the partitions lam of the cell count with at most nvars
parts (zero coefficients left out).
"""

from __future__ import annotations

from bisect import bisect_left, bisect_right
from collections import Counter
from itertools import combinations
from math import comb
from operator import add

from .paths import MINUS, PLUS, ZERO, Word
from .qpoly import ONE, QPoly, _canonical
from .rewrite import expand_word
from .symfunc import Partition, _partitions_within, e_expansion_in_m
# unused here, but bench/tracing.py wraps llt.e_mu_in_p and llt.expand_in_vars by name
from .symfunc import e_mu_in_p, expand_in_vars  # noqa: F401

# (bottom_diagonal, height) per strip, in tuple order
Strip = tuple[int, int]
StripTuple = tuple[Strip, ...]

# a cell is (strip_index, diagonal); strip_index is 0-based
Cell = tuple[int, int]


def parse_strips(text: str) -> StripTuple:
    """Parse "d:h;d:h;..." (e.g. "0:2;-2:2"); empty string is the empty tuple."""
    text = text.strip()
    if not text:
        return ()
    strips = []
    for i, item in enumerate(text.split(";")):
        item = item.strip()
        try:
            d_str, h_str = item.split(":")
            d, h = int(d_str), int(h_str)
        except ValueError:
            raise ValueError(f"bad strip {item!r} at index {i}: want 'diagonal:height'")
        if h < 1:
            raise ValueError(f"bad strip {item!r} at index {i}: height must be >= 1")
        strips.append((d, h))
    return tuple(strips)


def render_strips(strips: StripTuple) -> str:
    return ";".join(f"{d}:{h}" for d, h in strips)


def cell_count(strips: StripTuple) -> int:
    return sum(h for _, h in strips)


def reading_order(strips: StripTuple) -> list[Cell]:
    """All cells sorted by (diagonal, strip index) ascending."""
    cells = [
        (s, d)
        for s, (d0, h) in enumerate(strips)
        for d in range(d0, d0 + h)
    ]
    cells.sort(key=lambda c: (c[1], c[0]))
    return cells


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


def area_and_crosses(strips: StripTuple) -> tuple[tuple[int, ...], dict[int, int]]:
    """Attacker counts per cell and the vertical-adjacency marks.

    Returns (area, crosses): area[r-1] counts the attack pairs ending at r,
    and crosses maps r to p when cell r sits directly above cell p in the
    same strip.  The attackers of a cell (s, d) are the cells on diagonal d
    with a smaller strip index and those on diagonal d - 1 with a larger one,
    counted by bisecting each diagonal's ascending strip indices.  In reading
    order they are the run just before the cell, so by construction they are
    contiguous and the area never rises by more than one from cell to cell.
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


def to_schroeder_word(strips: StripTuple) -> Word:
    """The path word of a strip tuple."""
    return schroeder_word(*area_and_crosses(strips))


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
    return tuple(word)


def _strip_fillings(height: int, nvars: int):
    """Strictly increasing fillings of one column with values in 1..nvars."""
    return list(combinations(range(1, nvars + 1), height))


def _inversion_table(pairs, fill_a, fill_b, one: int) -> list[list[int]]:
    """Inversions between every filling of strip a and every filling of strip b.

    pairs lists the attack pairs between the two strips as (index into a
    filling of a, index into a filling of b, whether a holds the lower
    reading position p).  Row i, column j holds ``one`` times the number of
    those pairs that invert when a is filled by fill_a[i] and b by fill_b[j].
    """
    table = [[0] * len(fill_b)] * len(fill_a)  # rows are replaced, never mutated
    for ia, ib, a_first in pairs:
        column = [fb[ib] for fb in fill_b]
        # one row of 0/one per value the cell of a can hold
        hits = {
            x: [one if (x < y if a_first else y < x) else 0 for y in column]
            for x in {fa[ia] for fa in fill_a}
        }
        table = [list(map(add, row, hits[fa[ia]])) for row, fa in zip(table, fill_a)]
    return table


def ssyt_generating_function(strips: StripTuple, nvars: int) -> dict[Partition, QPoly]:
    """Brute-force tableau sum, as its m_lam coefficients {lam: QPoly}: the
    coefficient of x^lam, q^inversions summed over the fillings of content lam.

    Vertical strips only need strict increase up each column; inversions
    are the attack pairs (p, r) whose values satisfy T(p) < T(r), and every
    attack pair joins two different strips.  So a filling is scored by one
    int key: each strip's filling adds its content, one digit per variable,
    and each pair of strips adds, from a table built once, its inversion
    count in the digits above the contents.  The strips are walked depth
    first, the one with the most fillings last.  Choosing a strip's filling
    adds its table rows to the key vectors of the strips still open, and
    the last strip tallies its whole vector at once.  Every filling is still
    counted; then only the keys whose content is a partition (weakly
    decreasing digits, x_1 first) are kept, looked up by their content among
    the codes of the partitions of the cell count, and each partition becomes
    one QPoly of ints.  An LLT polynomial is symmetric (Lascoux, Leclerc and
    Thibon), so these coefficients fix it; the tests check that symmetry on
    the per-filling reference.
    """
    if nvars < 1:
        raise ValueError("need at least one variable")
    if not strips:
        return {(): ONE}  # the one empty filling
    # walk order: fewest fillings first, so the longest vector is the one tallied
    order = sorted(range(len(strips)), key=lambda s: comb(nvars, strips[s][1]))
    fillings = [_strip_fillings(strips[s][1], nvars) for s in order]
    if not all(fillings):
        return {}
    width = len(strips).bit_length()  # a value occurs at most once per strip
    shift = width * nvars
    step = {s: t for t, s in enumerate(order)}
    # reading position -> (walk step of its strip, index into that strip's filling)
    where = [(step[s], d - strips[s][0]) for s, d in reading_order(strips)]
    # attack pairs grouped by (earlier, later) walk step
    between: dict[tuple[int, int], list] = {}
    for p, r in attack_pairs(strips):
        (tp, ip), (tr, ir) = where[p - 1], where[r - 1]
        if tp < tr:
            between.setdefault((tp, tr), []).append((ip, ir, True))
        else:
            between.setdefault((tr, tp), []).append((ir, ip, False))
    tables: list[list] = [[] for _ in order]
    for (ta, tb), pairs in between.items():
        table = _inversion_table(pairs, fillings[ta], fillings[tb], 1 << shift)
        tables[ta].append((tb, table))
    # the key vector of each step starts as its fillings' contents
    unit = [0] + [1 << width * v for v in range(nvars)]  # unit[v]: the content of v alone
    vectors = [[sum(map(unit.__getitem__, f)) for f in fs] for fs in fillings]

    # depth first; an entry is (walk step, key so far, key vectors from that step on)
    tally: Counter[int] = Counter()
    last = len(order) - 1
    stack = [(0, 0, vectors)]
    while stack:
        t, acc, vecs = stack.pop()
        if t == last:
            tally.update(map(acc.__add__, vecs[t]))
            continue
        for i, key in enumerate(vecs[t]):
            below = vecs[:]
            for tb, table in tables[t]:
                below[tb] = list(map(add, vecs[tb], table[i]))
            stack.append((t + 1, acc + key, below))
    # the content of a partition lam, as a key's low digits; no digit exceeds
    # the number of strips, so neither does any part
    codes = {
        sum(part << width * v for v, part in enumerate(lam)): lam
        for lam in _partitions_within(cell_count(strips), nvars, len(strips))
    }
    content_mask = (1 << shift) - 1
    by_lam: dict[Partition, list[int]] = {}
    # sorted keys come inversion count first, so each partition's counts arrive in order
    for key in sorted(k for k in tally if (k & content_mask) in codes):
        inv = key >> shift
        lam = codes[key & content_mask]
        counts = by_lam.get(lam)
        if counts is None:
            by_lam[lam] = counts = [0] * inv
        else:
            counts += [0] * (inv - len(counts))
        counts.append(tally[key])
    return {lam: _canonical(counts) for lam, counts in by_lam.items()}


def llt_in_vars(strips: StripTuple, nvars: int) -> dict[Partition, QPoly]:
    """The operator side's m_lam coefficients in nvars variables.

    The rewritten e-expansion goes through the integer e -> monomial
    transition, so every coefficient is a QPoly of ints.
    """
    return e_expansion_in_m(expand_word(to_schroeder_word(strips)), nvars)
