import pytest

from conftest import WORDS_UPTO_LENGTH_6, iter_paths_upto, outcome
from vsllt.paths import (
    WordError,
    count_paths_reference,
    iter_paths,
    parse_word,
    primitive_factors,
    render_word,
    semilength,
)

# number of n x n Schröder paths with no diagonal step on the main diagonal
LITTLE_SCHROEDER = {1: 1, 2: 3, 3: 11, 4: 45, 5: 197, 6: 903}


def test_parse_compact_and_comma():
    assert parse_word("-0-0++") == "-0-0++"
    assert parse_word("-,0,-,0,+,+") == "-0-0++"
    assert parse_word("") == ""
    assert parse_word(" - , + ") == "-+"


def test_parse_errors_carry_position():
    with pytest.raises(WordError) as exc:
        parse_word("-0x+")
    assert exc.value.position == 2


def test_render():
    w = parse_word("-0+")
    assert render_word(w) == "-0+"
    assert render_word(w, compact=False) == "-,0,+"


def test_validate():
    # primitive_factors is the one validity check: it names the fault and
    # the position of the token where the word stops being valid
    assert primitive_factors("-0-0++") == ["-0-0++"]
    assert primitive_factors("") == []
    for bad, message, position in (
        ("-0", "unbalanced word", 2),
        ("0-+", "diagonal step on the main diagonal", 0),  # on the base line
        ("+-", "east step below the main diagonal", 0),  # dips below
        ("-+0-+", "diagonal step on the main diagonal", 2),  # after a return
        ("-x+", "unknown token 'x'", 1),
    ):
        want = ("WordError", f"{message} (at token {position})", position)
        assert outcome(primitive_factors, bad) == want


def test_enumeration_small():
    assert list(iter_paths(0)) == [""]
    assert list(iter_paths(1)) == [parse_word("-+")]
    assert {render_word(w) for w in iter_paths(2)} == {"--++", "-+-+", "-0+"}


@pytest.mark.parametrize("n", sorted(LITTLE_SCHROEDER))
def test_enumeration_counts(n):
    words = list(iter_paths(n))
    assert len(words) == LITTLE_SCHROEDER[n]
    assert len(words) == count_paths_reference(n)
    assert len(set(words)) == len(words)
    for w in words:
        primitive_factors(w)
        assert semilength(w) == n


def test_iter_paths_upto():
    assert sum(1 for _ in iter_paths_upto(4)) == 1 + 3 + 11 + 45


def _fault_position(w):
    """The first token at which w stops being a valid complete word, len(w)
    if it only fails to end on the diagonal, or None if it is valid: read
    off prefix counts, not a walk."""
    for i, tok in enumerate(w):
        before = w[:i].count("-") - w[:i].count("+")
        if tok not in "-0+" or (tok != "-" and before < 1):
            return i
    return None if w.count("-") == w.count("+") else len(w)


def test_primitive_factors():
    W = parse_word
    assert primitive_factors(W("-0-0++")) == [W("-0-0++")]
    assert primitive_factors(W("-+--++-0+")) == [W("-+"), W("--++"), W("-0+")]
    assert primitive_factors("") == []
    # a WordError at the first faulty token exactly where the word is not
    # valid, on every word of length <= 6
    for w in WORDS_UPTO_LENGTH_6:
        got = outcome(primitive_factors, w)
        position = _fault_position(w)
        if position is None:
            assert isinstance(got, list), w
        else:
            assert got[0] == "WordError" and got[2] == position, (w, got)
    for n in range(1, 6):
        for w in iter_paths(n):
            factors = primitive_factors(w)
            assert "".join(factors) == w
            for f in factors:
                # each factor touches the diagonal only at its two ends
                heights = [f[: i + 1].count("-") - f[: i + 1].count("+") for i in range(len(f))]
                assert heights[-1] == 0 and all(heights[:-1])
