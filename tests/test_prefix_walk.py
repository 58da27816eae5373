"""``dyckalgebra.prefix_walk``, the operator oracle that ``verify`` runs, as
a lemma against the per-word reference ``packed_value`` at the same width:
every word's value, whatever the order of the words, since the walk keeps a
prefix's memo only while the words share that prefix."""

import random

import pytest

from vsllt.dyckalgebra import packed_bits, packed_value, prefix_walk
from vsllt.paths import WordError, iter_paths


def _walk_matches_packed_value(words, n, bits):
    got = list(prefix_walk(words, n, bits))
    assert [w for w, _ in got] == words
    for w, value in got:
        assert value == packed_value(w, bits), w


def _widest(words, n):
    return max(packed_bits(w, n) for w in words)


@pytest.mark.parametrize("n", range(7))
def test_walk_is_packed_value_in_every_order_upto_6(n):
    # all 1160 words of semilength <= 6: in iter_paths order, where
    # neighbours share long prefixes; reversed, where each memo is kept
    # across the other side of a branch; and shuffled, where most neighbours
    # share short prefixes, so a memo kept one level too deep is read for a
    # prefix it does not belong to
    words = list(iter_paths(n))
    bits = _widest(words, n)
    shuffled = list(words)
    random.Random(6).shuffle(shuffled)
    for order in (words, words[::-1], shuffled):
        _walk_matches_packed_value(order, n, bits)


def test_walk_is_packed_value_on_every_word_upto_7():
    words = [list(iter_paths(n)) for n in range(8)]
    assert sum(map(len, words)) == 5440
    for n, level in enumerate(words):
        _walk_matches_packed_value(level, n, _widest(level, n))


def test_walk_runs_at_any_width_that_covers_its_words():
    # the width is the caller's, not the walk's: one word's bound or any
    # wider width gives packed_value at that width
    for n in range(1, 6):
        words = list(iter_paths(n))
        for bits in (_widest(words, n), _widest(words, n) + 16, 200):
            _walk_matches_packed_value(words, n, bits)


def test_walk_refuses_what_packed_value_refuses():
    with pytest.raises(WordError):
        list(prefix_walk(["-+", "+-"], 1, 16))
    with pytest.raises(WordError):
        list(prefix_walk(["-0"], 1, 16))
    # a word of another semilength would be truncated at the wrong degree
    with pytest.raises(ValueError, match="semilength 2"):
        list(prefix_walk(["-0+", "-+"], 2, 16))
    assert list(prefix_walk([""], 0, 16)) == [("", {(): 1})]


def test_walk_is_packed_value_on_a_sample_at_8_and_9():
    # past Tier-1's exhaustive reach: every 400th word of semilength 8 and
    # 9, in iter_paths order, at the width verify walks that semilength with
    for n, size in ((8, 52), (9, 258)):
        words = list(iter_paths(n))
        sample = words[200::400]
        assert len(sample) == size
        _walk_matches_packed_value(sample, n, _widest(words, n))
