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

Each side is memoized on the exact data it depends on, and neither key
goes through the other side's data.  The tableau sum is keyed by the strip
heights and the attack pairs between (strip, level) cells, the operator
side by the tuple's Schröder word; both clamp nvars to the cell count,
since no partition of the cells has more parts.  The memos hold tuples of
(lam, QPoly) pairs, and every call returns a fresh dict.
"""

from __future__ import annotations

from bisect import bisect_left, bisect_right
from collections import Counter
from functools import cache
from itertools import accumulate, combinations
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


def _pair_hits(pair, fill_a, fill_b, one: int) -> list[list[int]]:
    """Where one attack pair between strips a and b inverts.

    pair is (index into a filling of a, index into a filling of b, whether
    a holds the lower reading position p).  Entry i is a row over fill_b:
    ``one`` where the pair inverts with a filled by fill_a[i], else 0.  The
    fillings of a that agree at the pair's cell share one row.
    """
    ia, ib, a_first = pair
    column = [fb[ib] for fb in fill_b]
    hits = {
        x: [one if (x < y if a_first else y < x) else 0 for y in column]
        for x in {fa[ia] for fa in fill_a}
    }
    return [hits[fa[ia]] for fa in fill_a]


def _filling_index(picked: tuple[int, ...], nvars: int) -> int:
    """The index of the filling holding the values picked + 1 (ascending)
    in _strip_fillings(len(picked), nvars), which lists them in lex order."""
    h = len(picked)
    return comb(nvars, h) - 1 - sum(comb(nvars - 1 - v, h - i) for i, v in enumerate(picked))


@cache
def _completable(heights: tuple[int, ...], nvars: int) -> tuple[list[set[int]], dict, dict]:
    """The partial contents of the strip walk that can still end on a partition.

    The strips have these heights in walk order and take the values
    1..nvars; a content is coded as the walk's keys code it, one digit of
    len(heights).bit_length() bits per value, x_1 lowest.  Returns
    (steps, leaf, lams):
    - steps[t], for each step t before the last, holds the contents that
      walk steps 0..t reach and that the remaining strips complete to a
      partition with at most nvars parts;
    - leaf maps each content c that steps[-1] holds (the empty content if
      there is one strip) to the pairs (index into the last strip's
      fillings, code of lam - c) that complete it to a partition lam.  No
      digit of lam - c borrows, as lam - c is the last strip's content;
    - lams maps the code of each partition completed so to the partition.

    Built from the partition side, so the walk's filling lists are never
    scanned: each lam is peeled one strip at a time, last strip first, by
    every 0/1 vector of the strip's height under its support.  A content
    peeled down to step t is kept only if the strips before it can fill it:
    by the Gale-Ryser theorem, iff its k largest digits add up to at most
    sum(min(h, k)) over those strips' heights h, for every k.
    """
    width = len(heights).bit_length()

    def code(c: tuple[int, ...]) -> int:
        return sum(x << width * v for v, x in enumerate(c))

    # caps[t][k]: the most cells that k values can take in the strips before step t
    caps = [
        [sum(min(h, k) for h in heights[:t]) for k in range(nvars + 1)]
        for t in range(len(heights) + 1)
    ]

    def fillable(c: tuple[int, ...], t: int) -> bool:
        runs = accumulate(sorted(c, reverse=True))
        return all(run <= caps[t][k] for k, run in enumerate(runs, 1))

    last = len(heights) - 1
    # contents[t]: the kept contents after walk step t
    contents: list[set[tuple[int, ...]]] = [set() for _ in heights]
    contents[last] = {
        lam for lam in _partitions_within(sum(heights), nvars) if fillable(lam, len(heights))
    }
    leaf: dict[int, list] = {}
    for t in range(last, -1, -1):
        for c in contents[t]:
            for picked in combinations([v for v, x in enumerate(c) if x], heights[t]):
                d = list(c)
                for v in picked:
                    d[v] -= 1
                while d and not d[-1]:
                    d.pop()
                d = tuple(d)
                if not fillable(d, t):
                    continue
                if t:
                    contents[t - 1].add(d)
                if t == last:
                    j = _filling_index(picked, nvars)
                    leaf.setdefault(code(d), []).append((j, code(c) - code(d)))
    steps = [set(map(code, cs)) for cs in contents[:last]]
    lams = {code(lam): lam for lam in contents[last]}
    return steps, {c: tuple(pairs) for c, pairs in leaf.items()}, lams


def _tableau_key(strips: StripTuple) -> tuple:
    """What the tableau sum of a nonempty strip tuple depends on, besides
    nvars: (heights in tuple order, the sorted attack pairs).

    A pair is written ((strip, level) of p, (strip, level) of r), p the
    earlier cell in reading order and level a cell's index up its strip.
    The fillings are fixed by the heights, and a filling's inversions by the
    values at the attack pairs' cells, so tuples with equal keys have equal
    tableau sums; the diagonals enter only through which pairs attack.
    """
    level = [(s, d - strips[s][0]) for s, d in reading_order(strips)]
    pairs = sorted((level[p - 1], level[r - 1]) for p, r in attack_pairs(strips))
    return tuple(h for _, h in strips), tuple(pairs)


def ssyt_generating_function(strips: StripTuple, nvars: int) -> dict[Partition, QPoly]:
    """The tableau sum, as its m_lam coefficients {lam: QPoly}: the
    coefficient of x^lam, q^inversions summed over the fillings of content lam.

    Vertical strips only need strict increase up each column; inversions
    are the attack pairs (p, r) whose values satisfy T(p) < T(r), and every
    attack pair joins two different strips.  An LLT polynomial is symmetric
    (Lascoux, Leclerc and Thibon), so its m_lam coefficients fix it, and
    only the fillings whose content is a partition are walked; the tests
    check that symmetry on the per-filling reference.  Such a filling uses
    only the values 1..len(lam), so every strip is filled from the first
    min(nvars, cells) values.

    The sum is memoized per (_tableau_key, min(nvars, cells)): the heights
    and the attack pairs between (strip, level) cells are all the walk
    reads, so tuples that differ only in where their strips sit share one
    walk (_tableau_sum).
    """
    if nvars < 1:
        raise ValueError("need at least one variable")
    if not strips:
        return {(): ONE}  # the one empty filling
    heights, pairs = _tableau_key(strips)
    return dict(_tableau_sum(heights, pairs, min(nvars, sum(heights))))


@cache
def _tableau_sum(
    heights: tuple[int, ...], pairs: tuple, nvars: int
) -> tuple[tuple[Partition, QPoly], ...]:
    """The m_lam coefficients of the tableau sum of strips of these heights
    (tuple order) with these attack pairs (as _tableau_key writes them), in
    nvars <= cells values, as (lam, QPoly) pairs.

    A partial filling is scored by one int key: each strip's filling adds
    its content, one digit per value, and each pair of strips adds its
    inversion count, from tables built once, in the digits above the
    contents.  The strips are walked depth first, the one with the most
    fillings last.  Choosing a strip's filling adds its table rows to the
    key vectors of the strips still open, and a partial filling is followed
    only while the strips left can complete its content to a partition
    (_completable, memoized per shape).  The last strip is not enumerated:
    its filling is lam minus the content so far, looked up, and its
    inversions are read off the rows chosen above it.  So every filling of
    partition content is counted once, and no other filling is walked to
    the end.
    """
    # walk order: fewest fillings first, so the longest vector is the one looked up
    order = sorted(range(len(heights)), key=lambda s: comb(nvars, heights[s]))
    walk_heights = tuple(heights[s] for s in order)
    fillings = [_strip_fillings(h, nvars) for h in walk_heights]
    if not all(fillings):
        return ()
    steps, leaf, lams = _completable(walk_heights, nvars)
    last = len(order) - 1
    if not last:
        return tuple((lam, ONE) for lam in lams.values())  # one strip: no inversions
    width = len(heights).bit_length()  # a value occurs at most once per strip
    shift = width * nvars
    step = {s: t for t, s in enumerate(order)}
    # attack pairs grouped by (earlier, later) walk step, each as (index into
    # the earlier step's filling, index into the later one's, whether the
    # earlier step holds p)
    between: dict[tuple[int, int], list] = {}
    for (sp, ip), (sr, ir) in pairs:
        tp, tr = step[sp], step[sr]
        if tp < tr:
            between.setdefault((tp, tr), []).append((ip, ir, True))
        else:
            between.setdefault((tr, tp), []).append((ir, ip, False))
    # inversions between the strips of every two steps, in the digits above
    # the contents: a table for two steps before the last, and for a step
    # and the last, per filling of the step one row per attack pair, since
    # the walk reads only the entries of the fillings it completes with
    tables: list[list] = [[] for _ in order]
    into_last = [[()] * len(fs) for fs in fillings[:last]]
    for (ta, tb), pairs in between.items():
        hits = [_pair_hits(pair, fillings[ta], fillings[tb], 1 << shift) for pair in pairs]
        if tb < last:
            tables[ta].append((tb, [list(map(sum, zip(*rows))) for rows in zip(*hits)]))
        else:
            into_last[ta] = list(zip(*hits))
    # the key vector of each step before the last starts as its fillings' contents
    unit = [0] + [1 << width * v for v in range(nvars)]  # unit[v]: the content of v alone
    vectors = [[sum(map(unit.__getitem__, f)) for f in fs] for fs in fillings[:last]]

    # depth first; an entry is (walk step, key so far, key vectors from that
    # step on, the rows toward the last strip chosen so far)
    content_mask = (1 << shift) - 1
    found: list[int] = []  # the key of every filling walked to the end
    stack = [(0, 0, vectors, ())]
    while stack:
        t, acc, vecs, rows = stack.pop()
        keep = steps[t]
        for i, key in enumerate(vecs[t]):
            key += acc
            if key & content_mask not in keep:
                continue
            more = rows + into_last[t][i]
            if t + 1 < last:
                below = vecs[:]
                for tb, table in tables[t]:
                    below[tb] = list(map(add, vecs[tb], table[i]))
                stack.append((t + 1, key, below, more))
                continue
            found += [
                key + rest + sum([row[j] for row in more]) for j, rest in leaf[key & content_mask]
            ]
    by_lam: dict[Partition, list[int]] = {}
    for key, count in Counter(found).items():
        inv, lam = key >> shift, lams[key & content_mask]
        counts = by_lam.setdefault(lam, [])
        counts += [0] * (inv + 1 - len(counts))
        counts[inv] = count
    return tuple((lam, _canonical(counts)) for lam, counts in by_lam.items())


def llt_in_vars(strips: StripTuple, nvars: int) -> dict[Partition, QPoly]:
    """The operator side's m_lam coefficients in nvars variables.

    By Carlsson and Mellit the LLT polynomial of a strip tuple is d_P(1)
    for its Schröder path P, so this side is a function of the word alone,
    and is memoized per (word, min(nvars, cells)) (_operator_side).
    """
    values = min(nvars, max(cell_count(strips), 1))
    return dict(_operator_side(to_schroeder_word(strips), values))


@cache
def _operator_side(word: Word, nvars: int) -> tuple[tuple[Partition, QPoly], ...]:
    """The word's rewritten e-expansion through the integer e -> monomial
    transition, as (lam, QPoly) pairs; every coefficient is a QPoly of ints."""
    return tuple(e_expansion_in_m(expand_word(word), nvars).items())
