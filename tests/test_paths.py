from itertools import product

import pytest

from conftest import outcome
from vsllt.paths import (
    TOKENS,
    WordError,
    count_paths_reference,
    iter_paths,
    iter_paths_upto,
    parse_word,
    primitive_factors,
    render_word,
    semilength,
    validate_word,
)

# number of n x n Schröder paths with no diagonal step on the main diagonal
LITTLE_SCHROEDER = {1: 1, 2: 3, 3: 11, 4: 45, 5: 197, 6: 903}


def test_parse_compact_and_comma():
    assert parse_word("-0-0++") == ("-", "0", "-", "0", "+", "+")
    assert parse_word("-,0,-,0,+,+") == ("-", "0", "-", "0", "+", "+")
    assert parse_word("") == ()
    assert parse_word(" - , + ") == ("-", "+")


def test_parse_errors_carry_position():
    with pytest.raises(WordError) as exc:
        parse_word("-0x+")
    assert exc.value.position == 2


def test_render():
    w = parse_word("-0+")
    assert render_word(w) == "-0+"
    assert render_word(w, compact=False) == "-,0,+"


def test_validate():
    validate_word(parse_word("-0-0++"))
    validate_word(())
    with pytest.raises(WordError):
        validate_word(parse_word("-0"))  # unbalanced
    with pytest.raises(WordError):
        validate_word(parse_word("0-+"))  # diagonal step on the base line
    with pytest.raises(WordError):
        validate_word(parse_word("+-"))  # dips below
    with pytest.raises(WordError):
        validate_word(parse_word("-+0-+"))  # '0' after returning to the line


def test_enumeration_small():
    assert list(iter_paths(0)) == [()]
    assert list(iter_paths(1)) == [parse_word("-+")]
    assert {render_word(w) for w in iter_paths(2)} == {"--++", "-+-+", "-0+"}


@pytest.mark.parametrize("n", sorted(LITTLE_SCHROEDER))
def test_enumeration_counts(n):
    words = list(iter_paths(n))
    assert len(words) == LITTLE_SCHROEDER[n]
    assert len(words) == count_paths_reference(n)
    assert len(set(words)) == len(words)
    for w in words:
        validate_word(w)
        assert semilength(w) == n


def test_iter_paths_upto():
    assert sum(1 for _ in iter_paths_upto(4)) == 1 + 3 + 11 + 45


def test_primitive_factors():
    W = parse_word
    assert primitive_factors(W("-0-0++")) == [W("-0-0++")]
    assert primitive_factors(W("-+--++-0+")) == [W("-+"), W("--++"), W("-0+")]
    assert primitive_factors(()) == []
    for bad in ("+-", "0-+", "-0", "--+"):
        assert primitive_factors(W(bad)) is None
    assert primitive_factors(("-", "x", "+")) is None
    # None exactly where validate_word raises, on every word of length <= 6
    for length in range(7):
        for w in product(TOKENS, repeat=length):
            assert (primitive_factors(w) is None) == (outcome(validate_word, w) is not None), w
    for n in range(1, 6):
        for w in iter_paths(n):
            factors = primitive_factors(w)
            assert sum(factors, ()) == w
            for f in factors:
                # each factor touches the diagonal only at its two ends
                heights = [f[: i + 1].count("-") - f[: i + 1].count("+") for i in range(len(f))]
                assert heights[-1] == 0 and all(heights[:-1])
