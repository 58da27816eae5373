"""Vertical strip tuples, their Schröder paths, and the tableau oracle.

A strip is a single column of cells given as (bottom diagonal, height);
the cell above a cell sits on the next diagonal.  Tuple order is the
left-to-right arrangement of the strips in the plane, and matters.

Convention note: diagonals increase upward, cells are read diagonal by
diagonal with ties broken by strip index, and a pair of cells attacks iff
it shares a diagonal with increasing strip index or sits on adjacent
diagonals with decreasing strip index.  This is the one reading under
which the dots, crosses and path of the standard picture all agree.
"""

from __future__ import annotations

from itertools import combinations, product

from .paths import MINUS, PLUS, ZERO, Word
from .qpoly import QPoly
from .rewrite import expand_word
from .symfunc import XPoly, e_expansion_in_vars
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
    same strip.  Attackers of r always form a contiguous run ending at r-1;
    a violation means broken tuple geometry and raises.
    """
    cells = reading_order(strips)
    n = len(cells)
    attackers_of: list[list[int]] = [[] for _ in range(n + 1)]
    for p, r in attack_pairs(strips):
        attackers_of[r].append(p)
    area = []
    for r in range(1, n + 1):
        attackers = sorted(attackers_of[r])
        a = len(attackers)
        if attackers != list(range(r - a, r)):
            raise ValueError(f"attackers of cell {r} are not contiguous: {attackers}")
        area.append(a)
    for r in range(n - 1):
        if area[r + 1] > area[r] + 1:
            raise ValueError(f"area rises by more than one at cell {r + 2}")
    crosses: dict[int, int] = {}
    index = {cell: i + 1 for i, cell in enumerate(cells)}
    for s, d in cells:
        above = (s, d + 1)
        if above in index:
            crosses[index[above]] = index[(s, d)]
    return tuple(area), crosses


def to_schroeder_word(strips: StripTuple) -> Word:
    """The path word of a strip tuple.

    The attacker counts carve a Dyck path (the north step of row r sits at
    x = r - 1 - area_r); each vertical adjacency marks a valley of that
    path, and its east+north corner becomes a diagonal step.
    """
    area, crosses = area_and_crosses(strips)
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


def ssyt_generating_function(strips: StripTuple, nvars: int) -> XPoly:
    """Brute-force tableau sum: q^inversions * x^content over all fillings.

    Vertical strips only need strict increase up each column; inversions
    are the attack pairs (p, r) whose values satisfy T(p) < T(r).  Fillings
    are tallied as plain ints per (content, inversions), and each content
    becomes one QPoly at the end.
    """
    if nvars < 1:
        raise ValueError("need at least one variable")
    pairs = [(p - 1, r - 1) for p, r in sorted(attack_pairs(strips))]
    cells = reading_order(strips)
    # map each reading position to (strip, height offset) to index a filling
    per_strip = [_strip_fillings(h, nvars) for _, h in strips]
    offsets = []
    seen: dict[int, int] = {}
    for s, _d in cells:
        offsets.append((s, seen.get(s, 0)))
        seen[s] = seen.get(s, 0) + 1
    # sorted values of a filling -> {inversions: number of fillings}
    tally: dict[tuple[int, ...], dict[int, int]] = {}
    for choice in product(*per_strip):
        values = [choice[s][j] for s, j in offsets]
        inv = sum([values[p] < values[r] for p, r in pairs])
        by_inv = tally.setdefault(tuple(sorted(values)), {})
        by_inv[inv] = by_inv.get(inv, 0) + 1
    out: XPoly = {}
    for multiset, by_inv in tally.items():
        exps = [0] * nvars
        for v in multiset:
            exps[v - 1] += 1
        coeffs = [0] * (max(by_inv) + 1)
        for inv, count in by_inv.items():
            coeffs[inv] = count
        out[tuple(exps)] = QPoly(coeffs)
    return out


def llt_in_vars(strips: StripTuple, nvars: int) -> XPoly:
    """The operator-side polynomial, expanded in nvars variables.

    The rewritten e-expansion goes through the integer e -> monomial
    transition, so every coefficient is a QPoly of ints.
    """
    return e_expansion_in_vars(expand_word(to_schroeder_word(strips)), nvars)


def oracle_compare(strips: StripTuple, nvars: int | None = None) -> bool:
    """Tableau sum versus rewritten-and-expanded operator value, coefficientwise."""
    n = cell_count(strips)
    if nvars is None:
        nvars = max(n, 1)
    return ssyt_generating_function(strips, nvars) == llt_in_vars(strips, nvars)
