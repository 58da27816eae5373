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

The tableau side counts its fillings value by value: the values 1, 2, ...
are placed one at a time, each into the next free cell of lam_v strips, on
states that are masks of filled cells holding packed q-polynomials, and
only the partitions lam are walked (_tableau_sum).

Each side is memoized on the exact data it depends on, and neither key
goes through the other side's data.  The tableau sum is keyed by the strip
heights and one attack mask per (strip, level) cell, the operator side by
the tuple's Schröder word; both clamp nvars to the cell count, since no
partition of the cells has more parts.  The memos hold tuples of
(lam, QPoly) pairs, and every call returns a fresh dict.
"""

from __future__ import annotations

from functools import cache
from itertools import accumulate, combinations
from math import comb, prod

from .paths import MINUS, PLUS, ZERO, Word
from .qpoly import ONE, QPoly, _canonical
from .rewrite import expand_word
from .symfunc import Partition, _partitions_within, e_expansion_in_m
# unused here, but bench/tracing.py wraps llt.e_mu_in_p and llt.expand_in_vars by name
from .symfunc import e_mu_in_p, expand_in_vars  # noqa: F401

# (bottom_diagonal, height) per strip, in tuple order
Strip = tuple[int, int]
StripTuple = tuple[Strip, ...]


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


def to_schroeder_word(strips: StripTuple) -> Word:
    """The path word of a strip tuple, in one pass over its diagonals.

    Cells are read diagonal by diagonal, upward, with ties broken by strip
    index; row r of the path is the r-th cell read.  The attackers of a cell
    (s, d) are the cells on diagonal d with a smaller strip index and those
    on diagonal d - 1 with a larger one: its index on its diagonal, plus the
    later strips on the diagonal below, counted by walking that diagonal
    alongside.  In reading order they are the run just before the cell, so
    the attacker count a_r carves a Dyck path whose north step in row r sits
    at x = r - 1 - a_r.  A cell that sits directly above a cell p of its
    strip is a cross (p, r): it marks a valley of that path, and its
    east+north corner becomes a diagonal step.
    """
    on: dict[int, list[int]] = {}  # per diagonal, its strips in ascending order
    for s, (d0, h) in enumerate(strips):
        for d in range(d0, d0 + h):
            on.setdefault(d, []).append(s)
    row = [0] * len(strips)  # per strip, the row of its latest cell read
    chunks = []  # per row, the east steps before it and its own step
    x = r = 0
    for d in sorted(on):
        below = on.get(d - 1, ())
        j = 0  # the strips on the diagonal below that do not attack
        for i, s in enumerate(on[d]):
            r += 1
            while j < len(below) and below[j] <= s:
                j += 1
            xr = r - 1 - i - (len(below) - j)
            if d == strips[s][0]:
                chunks.append(PLUS * (xr - x) + MINUS)
            else:
                p = row[s]
                if xr != p:
                    raise ValueError(f"cross ({p},{r}) does not sit at column {xr}")
                if xr - x < 1:
                    raise ValueError(f"cross ({p},{r}) is not at a valley")
                chunks.append(PLUS * (xr - 1 - x) + ZERO)
            row[s] = r
            x = xr
    chunks.append(PLUS * (r - x))
    return "".join(chunks)


def _tableau_key(strips: StripTuple) -> tuple:
    """What the tableau sum of a nonempty strip tuple depends on, besides
    nvars: (heights in tuple order, one attack mask per cell).

    Cells are numbered in (strip, level) order, level a cell's index up its
    strip.  Bit x of cell r's mask is set iff (x, r) is an attack pair, x
    the earlier cell in reading order: x is on r's diagonal in an earlier
    strip, or on the diagonal below in a later one.  So one pass over the
    strips in order, and one in reverse, each keeping the cells seen so far
    per diagonal, give every mask.  The fillings are fixed by the heights,
    and a filling's inversions by the values at the attack pairs' cells, so
    tuples with equal keys have equal tableau sums; the diagonals enter only
    through which pairs attack.
    """
    masks = []
    on: dict[int, int] = {}  # per diagonal, its cells in the strips passed so far
    for d0, h in strips:
        for d in range(d0, d0 + h):
            masks.append(on.get(d, 0))
            on[d] = on.get(d, 0) + (1 << len(masks) - 1)
    on = {}
    x = len(masks)
    for d0, h in reversed(strips):
        for d in range(d0 + h - 1, d0 - 1, -1):
            x -= 1
            masks[x] += on.get(d - 1, 0)
            on[d] = on.get(d, 0) + (1 << x)
    return tuple(h for _, h in strips), tuple(masks)


def ssyt_generating_function(strips: StripTuple, nvars: int) -> dict[Partition, QPoly]:
    """The tableau sum, as its m_lam coefficients {lam: QPoly}: the
    coefficient of x^lam, q^inversions summed over the fillings of content lam.

    Vertical strips only need strict increase up each column; inversions
    are the attack pairs (p, r) whose values satisfy T(p) < T(r), and every
    attack pair joins two different strips.  An LLT polynomial is symmetric
    (Lascoux, Leclerc and Thibon), so its m_lam coefficients fix it, and
    only the fillings whose content is a partition are counted; the tests
    check that symmetry on the per-filling reference.  Such a filling uses
    only the values 1..len(lam), and len(lam) <= cells.

    The sum is memoized per (_tableau_key, min(nvars, cells)): the heights
    and the attack masks between (strip, level) cells are all the count
    reads, so tuples that differ only in where their strips sit share one
    count (_tableau_sum).
    """
    if nvars < 1:
        raise ValueError("need at least one variable")
    if not strips:
        return {(): ONE}  # the one empty filling
    heights, attacks = _tableau_key(strips)
    return dict(_tableau_sum(heights, attacks, min(nvars, len(attacks))))


@cache
def _state_bits(heights: tuple[int, ...], nvars: int) -> int:
    """W, the bits of one q-digit of a state of _tableau_sum's count.

    Width lemma.  A state (mu, mask) holds, at q = 2**W, the sum of
    q^inversions over the ways to place the values 1..len(mu) with content
    mu: the step sequences that fill exactly the cells of mask.  Each digit
    is at most the number N of those sequences.  A sequence is a 0/1 matrix,
    one row per strip (its filled cells get the values of its ones, in
    increasing order up the strip) and one column per value, with column
    sums mu.  So N <= prod C(strips, mu_i) <= prod C(strips, lam_i) over any
    partition lam that mu begins, every part at most the number of strips;
    and N <= prod C(len(mu), f_s) over the strips' filled counts f_s <= h_s,
    which is at most prod C(nvars, min(h_s, nvars // 2)), binomials peaking
    at the middle.  Both bound every state, finished or not, whereas the
    number of fillings, prod C(nvars, h_s), bounds only the finished ones: a
    partial sequence need not extend to any filling.  So every digit is at
    most the smaller bound B < 2**W, and no digit carries into the next.
    """
    strips = len(heights)
    by_values = prod(comb(nvars, min(h, nvars // 2)) for h in heights)
    by_steps = max(
        (prod(comb(strips, part) for part in lam)
         for lam in _partitions_within(sum(heights), nvars, strips)),
        default=1,
    )
    return min(by_values, by_steps).bit_length()


@cache
def _tableau_sum(
    heights: tuple[int, ...], attacks: tuple[int, ...], nvars: int
) -> tuple[tuple[Partition, QPoly], ...]:
    """The m_lam coefficients of the tableau sum of strips of these heights
    (tuple order) with these attack masks (as _tableau_key writes them), in
    nvars <= cells values, as (lam, QPoly) pairs.

    The values 1, 2, ... are placed one at a time.  A state is the mask of
    the filled cells; each strip fills bottom up, so its values increase.
    Value v goes into the next free cell of lam_v distinct strips.  A pair
    (p, r) inverts iff T(p) < T(r), so it is counted when the larger value
    is placed: each new cell r adds the cells of its attack mask that the
    state already fills, all of them holding smaller values.  That count
    depends on the state alone, not on which other strips take v, so one
    sum over the chosen cells gives both the next state and its shift.
    Each state holds one int, its q-polynomial at q = 2**W (_state_bits),
    so an inversion is a shift by W bits.

    The partitions lam of the cells with at most nvars parts, each at most
    the number of strips, are walked in lex order, largest first, and the
    states of each prefix are kept while the next lam shares it.  Every
    filling of content lam is one path of steps, ending on the full mask,
    so no filling of another content is followed.  The last step of each lam
    is forced: its value fills every free cell, so a state takes it only if
    no strip has two cells free, and its shift is read off those cells.  The
    cells each state can take next are kept per mask, at most prod(h + 1)
    lists per call.
    """
    if max(heights) > nvars:
        return ()  # a strip needs as many distinct values as cells
    strips, cells = len(heights), len(attacks)
    bits = _state_bits(heights, nvars)
    offsets = list(accumulate(heights, initial=0))
    # per strip, the bit of its lowest cell and the bits of all its cells
    strip_bits = [(1 << o, (1 << o + h) - (1 << o)) for o, h in zip(offsets, heights)]
    # the cell under each strip's top, filled iff the strip has one cell free at most
    below_tops = sum(1 << o + h - 2 for o, h in zip(offsets, heights) if h > 1)
    attackers = {1 << x: mask for x, mask in enumerate(attacks)}
    full = (1 << cells) - 1
    # moves[mask]: each strip's next free cell, its bit plus, above the cells,
    # the shift for its inversions with the cells that mask fills
    moves: dict[int, list[int]] = {}
    digit = (1 << bits) - 1
    found = []
    stack = [{0: 1}]  # stack[v]: the states after the first v parts of the current lam
    prev: Partition = ()
    for lam in _partitions_within(sum(heights), nvars, strips):
        v = 0  # the parts lam shares with the lam before it
        while v < len(prev) and prev[v] == lam[v]:
            v += 1
        del stack[v + 1:]
        for part in lam[v:-1]:
            out: dict[int, int] = {}
            for mask, value in stack[-1].items():
                free = moves.get(mask)
                if free is None:
                    free = moves[mask] = [
                        x + ((attackers[x] & mask).bit_count() * bits << cells)
                        for low, span in strip_bits
                        if (x := (mask & span) + low) & span
                    ]
                for step in map(sum, combinations(free, part)):
                    after = mask + (step & full)
                    out[after] = out.get(after, 0) + (value << (step >> cells))
            stack.append(out)
        prev = lam
        value = 0  # the last step, forced
        for mask, before in stack[-1].items():
            if mask & below_tops == below_tops:
                shift, rest = 0, full - mask
                while rest:
                    x = rest & -rest
                    rest -= x
                    shift += (attackers[x] & mask).bit_count()
                value += before << shift * bits
        if not value:
            continue
        counts = []
        while value:
            counts.append(value & digit)
            value >>= bits
        found.append((lam, _canonical(counts)))
    return tuple(found)


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
