"""Path words over {-, 0, +}: parsing, validation, enumeration.

A word is a str over these three letters.  It encodes a lattice path from
(0,0) to (n,n): '-' is a north step, '0' a northeast diagonal step, '+' an
east step.  Valid words stay weakly above the main diagonal and never take
a diagonal step while on it.
"""

from __future__ import annotations

MINUS, ZERO, PLUS = "-", "0", "+"
TOKENS = (MINUS, ZERO, PLUS)

Word = str


class WordError(ValueError):
    """Malformed path word; position is 0-based into the token sequence."""

    def __init__(self, message: str, position: int):
        super().__init__(f"{message} (at token {position})")
        self.position = position


def parse_word(text: str) -> Word:
    """Parse a compact ("-0-0++") or comma-separated ("-,0,+") word."""
    text = text.strip()
    tokens = [tok.strip() for tok in (text.split(",") if "," in text else text)]
    for i, tok in enumerate(tokens):
        if tok not in TOKENS:
            raise WordError(f"unknown token {tok!r}", i)
    return "".join(tokens)


def render_word(word: Word) -> str:
    """The comma-separated form ("-,0,+"); a word is its own compact form."""
    return ",".join(word)


def primitive_factors(word: Word) -> list[Word]:
    """The primitive factors of a valid complete word; WordError if it is not one.

    The factors are the pieces between the word's returns to the main
    diagonal, so each touches the diagonal only at its two ends and their
    concatenation is the word.  The empty word has no factors.  This is the
    one validity check: a word must stay weakly above the main diagonal,
    take no diagonal step on it, and end on it.
    """
    factors = []
    height = start = 0
    for i, tok in enumerate(word):
        if tok == MINUS:
            height += 1
        elif tok == ZERO:
            if height < 1:
                raise WordError("diagonal step on the main diagonal", i)
        elif tok == PLUS:
            if height < 1:
                raise WordError("east step below the main diagonal", i)
            height -= 1
            if not height:
                factors.append(word[start : i + 1])
                start = i + 1
        else:
            raise WordError(f"unknown token {tok!r}", i)
    if height:
        raise WordError("unbalanced word", len(word))
    return factors


def semilength(word: Word) -> int:
    """n for a path ending at (n,n): the number of '+' plus the number of '0'."""
    return len(word) - word.count(MINUS)


def iter_paths(n: int):
    """Yield every valid word of semilength exactly n, depth first over the
    trie of prefixes, trying '-', then '0', then '+' at each step.

    An explicit stack of (prefix, east steps left, height) entries; a prefix
    whose height equals the east steps left can only close with that many
    '+', so it is yielded whole."""
    stack = [("", n, 0)]
    pop, push = stack.pop, stack.append
    while stack:
        prefix, east_left, height = pop()
        if height == east_left:
            yield prefix + PLUS * height
            continue
        # pushed in reverse, so the '-' child comes off first
        if height:
            push((prefix + PLUS, east_left - 1, height - 1))
            push((prefix + ZERO, east_left - 1, height))
        push((prefix + MINUS, east_left, height + 1))


def count_paths_reference(n: int) -> int:
    """The number of valid words of semilength n, independent of
    ``iter_paths``: the little Schröder number s(n) (OEIS A001003), by its
    recurrence s(0) = s(1) = 1, (k+1) s(k) = 3(2k-1) s(k-1) - (k-2) s(k-2).
    The tests check it against the sum over Dyck paths of 2^valleys: one
    word per set of valleys merged into diagonal steps."""
    prev, cur = 1, 1
    for k in range(2, n + 1):
        prev, cur = cur, (3 * (2 * k - 1) * cur - (k - 2) * prev) // (k + 1)
    return cur
