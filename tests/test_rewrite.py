import pytest
from hypothesis import given, settings
import hypothesis.strategies as st

from vsllt.cli import _verify_one
from vsllt.paths import iter_paths_upto, parse_word, render_word, semilength
from vsllt.qpoly import ONE, Q, Q_MINUS_1, QPoly
from vsllt.rewrite import (
    e_positivity_report,
    expand_word,
    leftmost_high_dplus,
    letter_degree,
    lincomb_to_e,
    normalize,
    rewrite_case0,
    rewrite_push_T,
)

W = parse_word


def test_letter_degree():
    w = W("--00+0+")
    assert letter_degree(w, len(w) - 1) == 0
    assert letter_degree(w, 4) == 1  # the first '+'
    assert letter_degree(W("-+"), 1) == 0
    assert letter_degree(W("-+"), 0) == 1
    with pytest.raises(IndexError):
        letter_degree(w, 7)


def test_leftmost_high_dplus():
    assert leftmost_high_dplus(W("-0-0++")) == 4
    assert leftmost_high_dplus(W("-0+")) is None
    assert leftmost_high_dplus(W("-+-+")) is None
    assert leftmost_high_dplus(W("--++")) == 2
    assert leftmost_high_dplus(()) is None


def test_case0_basic():
    out = rewrite_case0(W("--++"), 2)
    assert out == {W("-+-+"): ONE, W("-0+"): Q_MINUS_1}


def test_case0_with_suffix():
    out = rewrite_case0(W("--+-0++"), 2)
    assert out == {W("-+--0++"): ONE, W("-0-0++"): Q_MINUS_1}


def test_case0_preconditions():
    with pytest.raises(ValueError):
        rewrite_case0(W("-0-0++"), 4)  # preceded by '0', not '-'
    with pytest.raises(ValueError):
        rewrite_case0(W("-+-+"), 1)  # degree 0


def test_push_t_cancellation_case():
    # the (q-1) pieces cancel, leaving a single word with coefficient 1
    out = rewrite_push_T(W("-0-0++"), 4)
    assert out == {W("--0+0+"): ONE}


def test_push_t_long_bubble():
    out = rewrite_push_T(W("-0--0000+++"), 8)
    assert out == {W("--0-000+0++"): ONE}


def test_push_t_q_coefficient_case():
    out = rewrite_push_T(W("--0+0+"), 3)
    assert out == {W("--+00+"): Q}


def test_push_t_preconditions():
    with pytest.raises(ValueError):
        rewrite_push_T(W("--++"), 2)
    with pytest.raises(ValueError):
        rewrite_push_T(W("-0+"), 2)  # degree 0


def test_normalize_four_cell_example():
    lc = normalize(W("-0-0++"))
    assert lc == {W("-+-00+"): Q, W("-000+"): Q * Q_MINUS_1}


def test_normalize_terminal_word_is_fixed():
    assert normalize(W("-+")) == {W("-+"): ONE}
    assert normalize(W("-0+")) == {W("-0+"): ONE}


def test_normalize_two_blocks():
    assert normalize(W("--++")) == {W("-+-+"): ONE, W("-0+"): Q_MINUS_1}


def test_normalize_empty_word():
    assert normalize(()) == {(): ONE}
    assert lincomb_to_e(normalize(())) == {(): ONE}


def test_normalize_rejects_bad_input():
    with pytest.raises(ValueError):
        normalize(W("-0"))


def test_lincomb_to_e():
    assert lincomb_to_e({W("-000+"): Q * Q_MINUS_1}) == {(4,): Q * Q_MINUS_1}
    assert lincomb_to_e({W("-+-00+"): Q}) == {(3, 1): Q}
    assert lincomb_to_e({W("-+"): ONE}) == {(1,): ONE}
    with pytest.raises(ValueError):
        lincomb_to_e({W("--++"): ONE})


def test_expand_word_collects_blocks():
    assert expand_word(W("-0-0++")) == {(3, 1): Q, (4,): Q * Q_MINUS_1}
    assert expand_word(W("--++")) == {(1, 1): ONE, (2,): Q_MINUS_1}


def test_positivity_report():
    report = e_positivity_report({(3, 1): Q, (4,): Q * Q_MINUS_1})
    assert report["e_at_q_plus_1"] == {(3, 1): QPoly((1, 1)), (4,): QPoly((0, 1, 1))}
    assert report["qminus1"] == {(3, 1): (1, 1), (4,): (0, 1, 1)}
    assert report["e_positive"]

    report = e_positivity_report({(2,): Q_MINUS_1, (1, 1): ONE})
    assert report["e_at_q_plus_1"] == {(2,): Q, (1, 1): ONE}
    assert report["e_positive"]

    report = e_positivity_report({(1,): -ONE})
    assert not report["e_positive"]


TERMINAL_BLOCK_LETTERS = {"-", "0", "+"}


def _assert_terminal_grammar(word):
    # (- 0* +)+ with every '+' at degree 0
    i = 0
    while i < len(word):
        assert word[i] == "-"
        i += 1
        while i < len(word) and word[i] == "0":
            i += 1
        assert i < len(word) and word[i] == "+"
        assert letter_degree(word, i) == 0
        i += 1


def test_rewrite_agreement_and_positivity_small():
    # full check at semilength <= 4; the acceptance suite pushes this to 6
    for w in iter_paths_upto(4):
        lc = normalize(w)
        for term, coeff in lc.items():
            _assert_terminal_grammar(term)
            assert semilength(term) == semilength(w)
            vec = coeff.rebase_qminus1()
            assert all(c >= 0 and c.denominator == 1 for c in vec)
        assert _verify_one(w) == (render_word(w), True, True, True)


@given(st.sampled_from(sorted(iter_paths_upto(3))))
@settings(max_examples=20, deadline=None)
def test_normalized_words_all_have_input_semilength(w):
    for term in normalize(w):
        assert semilength(term) == semilength(w)
