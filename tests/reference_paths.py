"""The recursive path enumerator, kept as the reference for
``paths.iter_paths``'s explicit-stack walk: the same trie of prefixes,
depth first, trying '-', then '0', then '+' at each step."""

from vsllt.paths import MINUS, PLUS, ZERO


def iter_paths_recursive(n: int):
    """Yield every valid word of semilength exactly n, in generation order."""

    def rec(prefix: str, east_left: int, height: int):
        if east_left == 0:
            # height is 0 here by the invariant below
            yield prefix
            return
        if height < east_left:
            yield from rec(prefix + MINUS, east_left, height + 1)
        if 1 <= height <= east_left - 1:
            yield from rec(prefix + ZERO, east_left - 1, height)
        if height >= 1:
            yield from rec(prefix + PLUS, east_left - 1, height - 1)

    yield from rec("", n, 0)
