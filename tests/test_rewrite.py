from math import comb

import pytest
from hypothesis import given, settings
import hypothesis.strategies as st

import reference_rewrite
from reference_qpoly import rebase_qminus1_by_division
from reference_rewrite import letter_degree
from conftest import INVALID_WORDS_UPTO_LENGTH_6, outcome
from vsllt import rewrite
from vsllt.cli import _verify_one
from vsllt.paths import (
    iter_paths,
    iter_paths_upto,
    parse_word,
    primitive_factors,
    render_word,
    semilength,
)
from vsllt.qpoly import ONE, Q, Q_MINUS_1, QPoly
from vsllt.rewrite import (
    _plus_weight,
    digit_bits,
    e_positivity_report,
    expand_word,
    leftmost_high_dplus,
    lincomb_to_e,
    normalize,
    rewrite_case0,
    rewrite_push_T,
    unpack,
)

W = parse_word


def decoded(word):
    """normalize's packed coefficients, unpacked at the word's semilength."""
    n = semilength(word)
    return {w: unpack(c, n) for w, c in normalize(word).items()}


def packed(p, n):
    """The inverse of unpack, for the tests: p's (q-1)-basis digits at t = 2**B."""
    bits = digit_bits(n)
    return sum(d << (i * bits) for i, d in enumerate(p.rebase_qminus1()))


def excess(word):
    """a(w): the sum over the '0' and '+' letters of w of the height before
    the letter, minus 1.  Zero on terminal words; C(n, 2) on -^n +^n."""
    height = total = 0
    for tok in word:
        if tok == "-":
            height += 1
        else:
            total += height - 1
            height -= tok == "+"
    return total


def test_letter_degree():
    w = W("--00+0+")
    assert letter_degree(w, len(w) - 1) == 0
    assert letter_degree(w, 4) == 1  # the first '+'
    assert letter_degree(W("-+"), 1) == 0
    assert letter_degree(W("-+"), 0) == 1
    with pytest.raises(IndexError):
        letter_degree(w, 7)


def test_leftmost_high_dplus():
    assert leftmost_high_dplus(W("-0-0++")) == (4, 1)
    assert leftmost_high_dplus(W("-0+")) is None
    assert leftmost_high_dplus(W("-+-+")) is None
    assert leftmost_high_dplus(W("--++")) == (2, 1)
    assert leftmost_high_dplus(W("---+0++")) == (3, 2)
    assert leftmost_high_dplus(()) is None


def test_leftmost_high_dplus_degree_is_letter_degree():
    for w in WORDS_UPTO_6:
        found = leftmost_high_dplus(w)
        if found is not None:
            pos, deg = found
            assert deg == letter_degree(w, pos) >= 1, render_word(w)


def test_case0_basic():
    out = rewrite_case0(W("--++"), 2, 1)
    assert out == {W("-+-+"): ONE, W("-0+"): Q_MINUS_1}


def test_case0_with_suffix():
    out = rewrite_case0(W("--+-0++"), 2, 1)
    assert out == {W("-+--0++"): ONE, W("-0-0++"): Q_MINUS_1}


def test_case0_preconditions():
    with pytest.raises(ValueError):
        rewrite_case0(W("-0-0++"), 4, 1)  # preceded by '0', not '-'
    with pytest.raises(ValueError, match="degree 0"):
        rewrite_case0(W("-+-+"), 1, 0)


@pytest.mark.parametrize("rule", [rewrite_case0, rewrite_push_T])
@pytest.mark.parametrize("word,pos", [("+-", 0), ("-0+", -1), ("--++", -2), ("-0+", 3), ("", 0)])
def test_rules_refuse_positions_outside_the_word(rule, word, pos):
    # a pair ends at 1..len-1; pos 0 or below would read word[pos - 1] from the end
    with pytest.raises(ValueError, match=f"position {pos} is outside"):
        rule(W(word), pos, 1)


def test_push_t_cancellation_case():
    # the (q-1) pieces cancel, leaving a single word with coefficient 1
    out = rewrite_push_T(W("-0-0++"), 4, 1)
    assert out == {W("--0+0+"): ONE}


def test_push_t_long_bubble():
    out = rewrite_push_T(W("-0--0000+++"), 8, 2)
    assert out == {W("--0-000+0++"): ONE}


def test_push_t_q_coefficient_case():
    out = rewrite_push_T(W("--0+0+"), 3, 1)
    assert out == {W("--+00+"): Q}


def test_push_t_preconditions():
    with pytest.raises(ValueError):
        rewrite_push_T(W("--++"), 2, 1)
    with pytest.raises(ValueError, match="degree 0"):
        rewrite_push_T(W("-0+"), 2, 0)


def test_normalize_four_cell_example():
    assert decoded(W("-0-0++")) == {W("-+-00+"): Q, W("-000+"): Q * Q_MINUS_1}
    # q = t + 1 and q(q-1) = t^2 + t, at t = 2**7
    assert normalize(W("-0-0++")) == {W("-+-00+"): 2**7 + 1, W("-000+"): 2**14 + 2**7}


def test_normalize_terminal_word_is_fixed():
    assert normalize(W("-+")) == {W("-+"): 1}
    assert normalize(W("-0+")) == {W("-0+"): 1}


def test_normalize_two_blocks():
    assert decoded(W("--++")) == {W("-+-+"): ONE, W("-0+"): Q_MINUS_1}


def test_normalize_empty_word():
    assert normalize(()) == {(): 1}
    assert lincomb_to_e(normalize(())) == {(): ONE}


def test_unpack():
    # 1, q, q-1 and q(q-1) are 1, t+1, t and t^2+t in t = q-1
    assert unpack(1, 4) == ONE
    assert unpack(2**7 + 1, 4) == Q
    assert unpack(2**7, 4) == Q_MINUS_1
    assert unpack(2**14 + 2**7, 4) == Q * Q_MINUS_1
    assert unpack(0, 4) == QPoly()
    # the same value read with another semilength's digit width is another polynomial
    assert unpack(2**7 + 1, 5) != Q
    with pytest.raises(ValueError, match="nonnegative"):
        unpack(-1, 4)


@given(st.integers(0, 8), st.lists(st.integers(0, 2**20), max_size=12))
@settings(max_examples=50)
def test_unpack_inverts_packing_on_digits_below_the_width(n, digits):
    bits = digit_bits(n)
    digits = [d % (1 << bits) for d in digits]
    p = QPoly.from_qminus1(digits)
    assert unpack(packed(p, n), n) == p


def test_normalize_rejects_bad_input():
    with pytest.raises(ValueError):
        normalize(W("-0"))


def test_lincomb_to_e():
    assert lincomb_to_e({W("-000+"): packed(Q * Q_MINUS_1, 4)}) == {(4,): Q * Q_MINUS_1}
    assert lincomb_to_e({W("-+-00+"): packed(Q, 4)}) == {(3, 1): Q}
    assert lincomb_to_e({W("-+"): 1}) == {(1,): ONE}
    # words of one partition add up before the one unpacking
    two = {W("-+-00+"): packed(Q, 4), W("-00+-+"): packed(Q_MINUS_1, 4)}
    assert lincomb_to_e(two) == {(3, 1): Q + Q_MINUS_1}
    with pytest.raises(ValueError):
        lincomb_to_e({W("--++"): 1})


def test_expand_word_collects_blocks():
    assert expand_word(W("-0-0++")) == {(3, 1): Q, (4,): Q * Q_MINUS_1}
    assert expand_word(W("--++")) == {(1, 1): ONE, (2,): Q_MINUS_1}


def test_expand_word_is_the_product_over_primitive_factors():
    # Lemma behind expand_word's factored route: no rule crosses a return to
    # the diagonal, so normalizing a composite word whole gives the product
    # of its primitive factors' expansions.  Checked on every composite word
    # of semilength <= 6 against normalize run on the whole word.
    composite = [w for w in iter_paths_upto(6) if len(primitive_factors(w)) > 1]
    assert len(composite) == 645
    for w in composite:
        assert expand_word(w) == lincomb_to_e(normalize(w)), render_word(w)


def test_expand_word_refuses_invalid_words_as_normalize_does():
    # an invalid word takes the whole-word route: same message, same position
    assert len(INVALID_WORDS_UPTO_LENGTH_6) == 1093 - 27
    for w in INVALID_WORDS_UPTO_LENGTH_6:
        got = outcome(expand_word, w)
        assert got == outcome(lambda w: lincomb_to_e(normalize(w)), w), render_word(w)
        assert got[0] == "WordError", render_word(w)


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


def test_report_digits_match_repeated_division():
    # the report reads its (q-1)-digits off one Taylor shift per coefficient;
    # the division route checks them on every coefficient of every word <= 6
    words = 0
    for w in iter_paths_upto(6):
        report = e_positivity_report(expand_word(w))
        for mu, c in report["e"].items():
            assert report["qminus1"][mu] == rebase_qminus1_by_division(c), (render_word(w), mu)
        words += 1
    assert words == 1160


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
        for term, coeff in decoded(w).items():
            _assert_terminal_grammar(term)
            assert semilength(term) == semilength(w)
            vec = coeff.rebase_qminus1()
            assert all(c >= 0 and c.denominator == 1 for c in vec)
        assert _verify_one(w) == (render_word(w), True, True, True)


def _in_z_q(c):
    return isinstance(c, QPoly) and all(type(x) is int for x in c.coeffs)


def test_rewriting_stays_in_integer_polynomials():
    # Lemma: every rule scalar (1, q-1, q) lies in N[t], t = q-1, so every
    # coefficient the engine produces does too and is held as one positive
    # int; unpacked, it has int coefficients in q, and so does its
    # (q-1)-basis vector.  A return to Fraction coercion fails here.
    for w in iter_paths_upto(5):
        assert all(type(c) is int and c > 0 for c in normalize(w).values()), render_word(w)
        assert all(_in_z_q(c) for c in decoded(w).values()), render_word(w)
        expansion = expand_word(w)
        assert all(_in_z_q(c) for c in expansion.values()), render_word(w)
        for vec in e_positivity_report(expansion)["qminus1"].values():
            assert all(type(x) is int for x in vec), render_word(w)


@given(st.sampled_from(sorted(iter_paths_upto(3))))
@settings(max_examples=20, deadline=None)
def test_normalized_words_all_have_input_semilength(w):
    for term in normalize(w):
        assert semilength(term) == semilength(w)


WORDS_UPTO_6 = list(iter_paths_upto(6))


def test_normalize_matches_reference_engine():
    # the ordered engine against the earlier min(active) engine with swap letters
    assert len(WORDS_UPTO_6) == 1160
    for w in WORDS_UPTO_6:
        assert decoded(w) == reference_rewrite.normalize(w), render_word(w)


def _high_pluses(words):
    """(word, position, degree) of every '+' of degree >= 1 after a '-' or '0'."""
    for w in words:
        for pos in range(1, len(w)):
            if w[pos] == "+" and w[pos - 1] != "+" and letter_degree(w, pos) >= 1:
                yield w, pos, letter_degree(w, pos)


def test_every_high_plus_rewrites_as_the_reference_with_derived_weights():
    # Lemma behind the derived weights: for every '+' of degree >= 1 after a
    # '-' or '0', not only the leftmost, the rule's outputs equal the
    # reference engine's merged ones, and the weight derived from the rule is
    # each output's _plus_weight.  Where the reference's swap gets stuck on a
    # '+' the library refuses too.
    rewritten = stuck = 0
    for w, pos, deg in _high_pluses(WORDS_UPTO_6):
        level = _plus_weight(w)
        try:
            want = reference_rewrite.rewrite_step(w, pos)
        except RuntimeError:
            with pytest.raises(RuntimeError):
                rewrite._weighed_step(w, pos, deg, level)
            stuck += 1
            continue
        got = rewrite._weighed_step(w, pos, deg, level)
        assert {w2: c2 for w2, c2, _ in got} == want, (render_word(w), pos)
        assert len(got) == len(want), (render_word(w), pos)
        for w2, _, weight in got:
            assert weight == _plus_weight(w2), (render_word(w), pos, render_word(w2))
        rewritten += 1
    assert (rewritten, stuck) == (1930, 199)


def test_every_rule_step_conserves_the_excess_mass():
    # Width lemma, step half: every rule scalar is 1, q-1 or q, so at q = 2
    # (t = 1) it is 1, 1 or 2, and every rule step conserves
    # sum c(2) * 2**a(out) = 2**a(w), with a = ``excess``.  Checked on every
    # high '+' of every word <= 6; the refused ones are refused.
    rewritten = refused = 0
    for w, pos, deg in _high_pluses(WORDS_UPTO_6):
        try:
            got = rewrite._weighed_step(w, pos, deg, _plus_weight(w))
        except RuntimeError:
            refused += 1
            continue
        assert all(c2 in (ONE, Q_MINUS_1, Q) for _, c2, _ in got), (render_word(w), pos)
        mass = sum(c2(2) * 2 ** excess(w2) for w2, c2, _ in got)
        assert mass == 2 ** excess(w), (render_word(w), pos)
        rewritten += 1
    assert (rewritten, refused) == (1930, 199)


def test_expansion_mass_at_q_2_is_two_to_the_excess():
    # Width lemma, whole-word half: a terminal word has excess 0, so the
    # coefficients of a word's e-expansion sum to 2**a(w) at q = 2.  Every
    # t-digit of a coefficient, or of a partition's sum of them, is at most
    # that, which is below 2**digit_bits(n).
    words = list(iter_paths_upto(7))
    assert len(words) == 5439
    for w in words:
        expansion = lincomb_to_e(normalize(w))
        assert sum(c(2) for c in expansion.values()) == 2 ** excess(w), render_word(w)


def test_largest_excess_is_n_choose_2():
    # Width lemma, bound half: a(w) <= C(n, 2), reached by -^n +^n, so
    # digit_bits(n) = C(n, 2) + 1 holds every digit with room to spare.
    for n in range(1, 9):
        assert max(map(excess, iter_paths(n))) == comb(n, 2), n
        assert excess(W("-" * n + "+" * n)) == comb(n, 2)
        assert digit_bits(n) == comb(n, 2) + 1


def test_every_rewrite_step_lowers_the_plus_weight(monkeypatch):
    # Lemma behind normalize's order: a swap and every bubble output lower the
    # '+' weight by exactly 1, a collapse (one letter shorter) by at least the
    # position of the removed '+'.  Checked on every word normalize rewrites.
    real_step = rewrite._weighed_step
    steps = []

    def checked_step(word, pos, deg, level):
        out = real_step(word, pos, deg, level)
        steps.append(word)
        assert level == _plus_weight(word)
        for w2, _, weight in out:
            drop = level - _plus_weight(w2)
            assert weight == _plus_weight(w2), (render_word(word), render_word(w2))
            if len(w2) == len(word):
                assert drop == 1, (render_word(word), render_word(w2))
            else:
                assert len(w2) == len(word) - 1, (render_word(word), render_word(w2))
                assert drop >= pos, (render_word(word), render_word(w2))
        return out

    monkeypatch.setattr(rewrite, "_weighed_step", checked_step)
    for w in WORDS_UPTO_6:
        normalize(w)
    assert len(steps) > 1160


def test_normalize_rewrites_each_word_once(monkeypatch):
    # exactly one rewrite step per distinct non-terminal word reached
    real_step, real_find = rewrite._weighed_step, rewrite.leftmost_high_dplus
    calls, reached = [], set()

    def find(word):
        found = real_find(word)
        if found is not None:
            reached.add(word)
        return found

    def step(word, pos, deg, level):
        calls.append(word)
        return real_step(word, pos, deg, level)

    monkeypatch.setattr(rewrite, "leftmost_high_dplus", find)
    monkeypatch.setattr(rewrite, "_weighed_step", step)
    for w in WORDS_UPTO_6:
        calls.clear()
        reached.clear()
        normalize(w)
        assert len(calls) == len(set(calls)), render_word(w)
        assert set(calls) == reached, render_word(w)
    # the largest-area word of semilength 6, which the reference engine rewrites 795 times
    calls.clear()
    normalize(W("------++++++"))
    assert len(calls) == len(set(calls)) == 240


def test_normalize_refuses_a_scalar_other_than_the_rules(monkeypatch):
    # only 1, q-1 and q have a packed form; anything else is an internal error
    monkeypatch.setattr(
        rewrite, "_weighed_step", lambda word, pos, deg, level: [(word, Q * Q, level - 1)]
    )
    with pytest.raises(RuntimeError, match="is not 1, q-1 or q"):
        normalize(W("--++"))


def test_normalize_refuses_a_step_that_does_not_descend(monkeypatch):
    monkeypatch.setattr(
        rewrite, "_weighed_step", lambda word, pos, deg, level: [(word, ONE, level)]
    )
    with pytest.raises(RuntimeError, match="did not lower the '\\+' weight"):
        normalize(W("--++"))
