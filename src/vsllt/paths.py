"""Path words over {-, 0, +}: parsing, validation, enumeration.

A word encodes a lattice path from (0,0) to (n,n): '-' is a north step,
'0' a northeast diagonal step, '+' an east step.  Valid words stay weakly
above the main diagonal and never take a diagonal step while on it.
"""

from __future__ import annotations

MINUS, ZERO, PLUS = "-", "0", "+"
TOKENS = (MINUS, ZERO, PLUS)

Word = tuple[str, ...]


class WordError(ValueError):
    """Malformed path word; position is 0-based into the token sequence."""

    def __init__(self, message: str, position: int):
        super().__init__(f"{message} (at token {position})")
        self.position = position


def parse_word(text: str) -> Word:
    """Parse a compact ("-0-0++") or comma-separated ("-,0,+") word."""
    text = text.strip()
    if not text:
        return ()
    tokens = text.split(",") if "," in text else list(text)
    word = []
    for i, tok in enumerate(tokens):
        tok = tok.strip()
        if tok not in TOKENS:
            raise WordError(f"unknown token {tok!r}", i)
        word.append(tok)
    return tuple(word)


def render_word(word: Word, compact: bool = True) -> str:
    return "".join(word) if compact else ",".join(word)


def validate_word(word: Word) -> None:
    """Check the complete-path invariants; raise WordError on violation."""
    height = 0
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
        else:
            raise WordError(f"unknown token {tok!r}", i)
    if height != 0:
        raise WordError("unbalanced word", len(word))


def primitive_factors(word: Word) -> list[Word] | None:
    """The primitive factors of a valid complete word, or None if it is not one.

    The factors are the pieces between the word's returns to the main
    diagonal, so each touches the diagonal only at its two ends and their
    concatenation is the word.  The empty word has no factors.  Validity is
    ``validate_word``'s, checked in the same walk.
    """
    factors = []
    height = start = 0
    for i, tok in enumerate(word):
        if tok == MINUS:
            height += 1
        elif tok == ZERO:
            if height < 1:
                return None
        elif tok == PLUS:
            if height < 1:
                return None
            height -= 1
            if not height:
                factors.append(word[start : i + 1])
                start = i + 1
        else:
            return None
    return factors if height == 0 else None


def semilength(word: Word) -> int:
    """n for a path ending at (n,n): the number of '+' plus the number of '0'."""
    return sum(1 for tok in word if tok != MINUS)


def iter_paths(n: int):
    """Yield every valid word of semilength exactly n, in generation order."""
    if n == 0:
        yield ()
        return

    def rec(prefix: list[str], east_left: int, height: int):
        if east_left == 0:
            # height is 0 here by the invariant below
            yield tuple(prefix)
            return
        if height < east_left:
            prefix.append(MINUS)
            yield from rec(prefix, east_left, height + 1)
            prefix.pop()
        if 1 <= height <= east_left - 1:
            prefix.append(ZERO)
            yield from rec(prefix, east_left - 1, height)
            prefix.pop()
        if height >= 1:
            prefix.append(PLUS)
            yield from rec(prefix, east_left - 1, height - 1)
            prefix.pop()

    yield from rec([], n, 0)


def iter_paths_upto(max_n: int):
    for n in range(1, max_n + 1):
        yield from iter_paths(n)


def count_paths_reference(n: int) -> int:
    """Independent path count: sum over Dyck paths of 2^(number of valleys).

    Every east-north valley of a Dyck path can be replaced by a diagonal
    step (the merged step never starts on the main diagonal), and these
    replacements are independent, so each Dyck path with v valleys yields
    2^v words.
    """
    if n == 0:
        return 1
    total = 0

    def rec(path: list[str], ups_left: int, height: int):
        nonlocal total
        if ups_left == 0 and height == 0:
            valleys = sum(
                1 for i in range(len(path) - 1) if path[i] == "E" and path[i + 1] == "N"
            )
            total += 1 << valleys
            return
        if ups_left > 0:
            path.append("N")
            rec(path, ups_left - 1, height + 1)
            path.pop()
        if height > 0:
            path.append("E")
            rec(path, ups_left, height - 1)
            path.pop()

    rec([], n, 0)
    return total
