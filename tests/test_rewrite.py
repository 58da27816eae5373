from itertools import product
from math import comb

import pytest
from hypothesis import given, settings
import hypothesis.strategies as st

import reference_rewrite
from reference_qpoly import from_qminus1, rebase_qminus1_by_division
from reference_rewrite import (
    _plus_weight,
    leftmost_high_dplus,
    letter_degree,
    normalize_by_weight,
    terminal_blocks,
    terminal_lincomb_to_e,
)
from conftest import INVALID_WORDS_UPTO_LENGTH_6, outcome
from vsllt import rewrite
from vsllt.cli import _verify_one
from vsllt.dyckalgebra import eval_in_e, eval_packed
from vsllt.paths import (
    iter_paths,
    iter_paths_upto,
    parse_word,
    primitive_factors,
    render_word,
    semilength,
)
from vsllt.qpoly import ONE, Q, Q_MINUS_1, QPoly, accumulate
from vsllt.rewrite import (
    _close,
    digit_bits,
    e_positivity_report,
    expand_word,
    lincomb_to_e,
    normalize,
    rewrite_case0,
    rewrite_push_T,
    unpack,
)
from vsllt.symfunc import multiply_expansions

W = parse_word


@pytest.fixture
def cold_close():
    """An empty ``_close`` memo before the test and after it, so a test that
    patches a rule leaves no entry built with the patch."""
    _close.cache_clear()
    yield _close
    _close.cache_clear()


def decoded(word):
    """normalize's packed coefficients, unpacked at the word's semilength."""
    n = semilength(word)
    return {mu: unpack(c, n) for mu, c in normalize(word).items()}


def decoded_words(word):
    """The reference engine's packed terminal words, unpacked."""
    n = semilength(word)
    return {w: unpack(c, n) for w, c in normalize_by_weight(word).items()}


def collected(lc):
    """A word-level linear combination collected into {partition: QPoly}."""
    out = {}
    for w, c in lc.items():
        accumulate(out, terminal_blocks(w), c)
    return out


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
    assert decoded(W("-0-0++")) == {(3, 1): Q, (4,): Q * Q_MINUS_1}
    # q = t + 1 and q(q-1) = t^2 + t, at t = 2**7
    assert normalize(W("-0-0++")) == {(3, 1): 2**7 + 1, (4,): 2**14 + 2**7}
    # the whole-word reference reaches one terminal word per partition here
    assert decoded_words(W("-0-0++")) == {W("-+-00+"): Q, W("-000+"): Q * Q_MINUS_1}
    assert normalize_by_weight(W("-0-0++")) == {W("-+-00+"): 2**7 + 1, W("-000+"): 2**14 + 2**7}


def test_normalize_terminal_word_is_fixed():
    # a terminal word is its own normal form: one partition, coefficient 1
    assert normalize(W("-+")) == {(1,): 1}
    assert normalize(W("-0+")) == {(2,): 1}
    assert normalize(W("-0+-+-00+")) == {(3, 2, 1): 1}
    assert normalize_by_weight(W("-+")) == {W("-+"): 1}
    assert normalize_by_weight(W("-0+")) == {W("-0+"): 1}


def test_normalize_two_blocks():
    assert decoded(W("--++")) == {(1, 1): ONE, (2,): Q_MINUS_1}
    assert decoded_words(W("--++")) == {W("-+-+"): ONE, W("-0+"): Q_MINUS_1}


def test_normalize_empty_word():
    assert normalize(()) == {(): 1}
    assert lincomb_to_e(normalize(())) == {(): ONE}
    assert normalize_by_weight(()) == {(): 1}


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
    p = from_qminus1(digits)
    assert unpack(packed(p, n), n) == p


def test_normalize_rejects_bad_input():
    with pytest.raises(ValueError):
        normalize(W("-0"))


def test_lincomb_to_e():
    # each partition's coefficient is unpacked at its own size |mu|
    assert lincomb_to_e({(4,): packed(Q * Q_MINUS_1, 4)}) == {(4,): Q * Q_MINUS_1}
    assert lincomb_to_e({(3, 1): packed(Q, 4)}) == {(3, 1): Q}
    assert lincomb_to_e({(1,): 1}) == {(1,): ONE}
    assert lincomb_to_e({(2, 1): packed(Q, 3), (3,): packed(Q_MINUS_1, 3)}) == {
        (2, 1): Q,
        (3,): Q_MINUS_1,
    }
    assert lincomb_to_e({(): 1}) == {(): ONE}


def test_reference_block_parser():
    # the whole-word reference parses its terminal words into blocks, and
    # words of one partition add up before the one unpacking
    assert terminal_blocks(W("-+-00+")) == terminal_blocks(W("-00+-+")) == (3, 1)
    assert terminal_blocks(()) == ()
    two = {W("-+-00+"): packed(Q, 4), W("-00+-+"): packed(Q_MINUS_1, 4)}
    assert terminal_lincomb_to_e(two) == {(3, 1): Q + Q_MINUS_1}
    for word in ("--++", "-0", "0+", "-+0"):
        with pytest.raises(ValueError, match="non-terminal"):
            terminal_blocks(W(word))


def test_expand_word_collects_blocks():
    assert expand_word(W("-0-0++")) == {(3, 1): Q, (4,): Q * Q_MINUS_1}
    assert expand_word(W("--++")) == {(1, 1): ONE, (2,): Q_MINUS_1}


def test_expand_word_is_the_product_over_primitive_factors():
    # Lemma: a return to the diagonal leaves every tail of normalize's state
    # empty, so no rule crosses it, and a composite word's expansion is the
    # product of its primitive factors' expansions.  Checked on every
    # composite word of semilength <= 6, each factor rewritten on its own.
    composite = [w for w in iter_paths_upto(6) if len(primitive_factors(w)) > 1]
    assert len(composite) == 645
    for w in composite:
        factors = (expand_word(f).items() for f in primitive_factors(w))
        assert expand_word(w) == multiply_expansions(factors), render_word(w)


def test_composite_words_of_semilength_8_match_their_factors_whole():
    # Both factor lemmas past the semilength where every composite word is
    # checked: on every 100th composite word of semilength 8, in iter_paths
    # order, the transducer run on the whole word equals the product of its
    # primitive factors' rewritten expansions, and the packed operator path
    # run on the whole word equals eval_in_e's product over the factors.
    composite = [w for w in iter_paths(8) if len(primitive_factors(w)) > 1]
    assert len(composite) == 12235
    sample = composite[50::100]
    assert len(sample) == 122
    for w in sample:
        factors = (expand_word(f).items() for f in primitive_factors(w))
        assert expand_word(w) == multiply_expansions(factors), render_word(w)
        assert eval_packed(w, 8) == eval_in_e(w), render_word(w)


def test_expand_word_refuses_invalid_words_as_normalize_does():
    # expand_word refuses an invalid word as normalize does: same message,
    # same position
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
    # full check at semilength <= 4; the acceptance suite pushes this to 6.
    # The reference's outputs are terminal words; the transducer's are their
    # partitions, with the coefficients summed.
    for w in iter_paths_upto(4):
        for term in normalize_by_weight(w):
            _assert_terminal_grammar(term)
            assert semilength(term) == semilength(w)
        for mu, coeff in decoded(w).items():
            assert sum(mu) == semilength(w) and list(mu) == sorted(mu, reverse=True)
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
    for term in normalize_by_weight(w):
        assert semilength(term) == semilength(w)
    for mu in normalize(w):
        assert sum(mu) == semilength(w)


WORDS_UPTO_6 = list(iter_paths_upto(6))


def test_normalize_matches_reference_engine():
    # the transducer and the bucket engine against the earliest min(active)
    # engine with swap letters, which builds its coefficients in QPoly
    assert len(WORDS_UPTO_6) == 1160
    for w in WORDS_UPTO_6:
        want = reference_rewrite.normalize(w)
        assert decoded_words(w) == want, render_word(w)
        assert decoded(w) == collected(want), render_word(w)


def test_transducer_matches_the_whole_word_engine_up_to_semilength_7():
    # every word <= 7, each rewritten whole on both sides: the transducer
    # against the bucket engine it replaced
    words = list(iter_paths_upto(7))
    assert len(words) == 5439
    for w in words:
        want = terminal_lincomb_to_e(normalize_by_weight(w))
        assert lincomb_to_e(normalize(w)) == want, render_word(w)


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
                reference_rewrite._weighed_step(w, pos, deg, level)
            stuck += 1
            continue
        got = reference_rewrite._weighed_step(w, pos, deg, level)
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
            got = reference_rewrite._weighed_step(w, pos, deg, _plus_weight(w))
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
    # Lemma behind the reference engine's order: a swap and every bubble
    # output lower the '+' weight by exactly 1, a collapse (one letter
    # shorter) by at least the position of the removed '+'.  Checked on every
    # word the reference engine rewrites.
    real_step = reference_rewrite._weighed_step
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

    monkeypatch.setattr(reference_rewrite, "_weighed_step", checked_step)
    for w in WORDS_UPTO_6:
        normalize_by_weight(w)
    assert len(steps) > 1160


def test_close_asks_only_for_shorter_tails(monkeypatch, cold_close):
    # The transducer's counterpart: building _close(tail) asks _close only for
    # tails one letter shorter, at the same width, each again an open tail in
    # -{-,0}*, so the recursion ends; a tail with one '-' asks for nothing.
    # Checked on every tail normalize reaches on the words <= 6.
    stack, nested = [], []

    def watched(tail, bits):
        assert tail[0] == "-" and set(tail) <= {"-", "0"}, tail
        if stack:
            caller, caller_bits = stack[-1]
            assert len(tail) == len(caller) - 1 and bits == caller_bits, (caller, tail)
            assert caller.count("-") > 1, (caller, tail)
            nested.append(tail)
        stack.append((tail, bits))
        try:
            return cold_close(tail, bits)
        finally:
            stack.pop()

    monkeypatch.setattr(rewrite, "_close", watched)
    for w in WORDS_UPTO_6:
        normalize(w)
    assert not stack
    assert nested  # the recursion ran


def test_normalize_rewrites_each_word_once(monkeypatch):
    # the reference engine: exactly one rewrite step per distinct
    # non-terminal word reached
    real_step, real_find = reference_rewrite._weighed_step, reference_rewrite.leftmost_high_dplus
    calls, reached = [], set()

    def find(word):
        found = real_find(word)
        if found is not None:
            reached.add(word)
        return found

    def step(word, pos, deg, level):
        calls.append(word)
        return real_step(word, pos, deg, level)

    monkeypatch.setattr(reference_rewrite, "leftmost_high_dplus", find)
    monkeypatch.setattr(reference_rewrite, "_weighed_step", step)
    for w in WORDS_UPTO_6:
        calls.clear()
        reached.clear()
        normalize_by_weight(w)
        assert len(calls) == len(set(calls)), render_word(w)
        assert set(calls) == reached, render_word(w)
    # the largest-area word of semilength 6, which the reference engine rewrites 795 times
    calls.clear()
    normalize_by_weight(W("------++++++"))
    assert len(calls) == len(set(calls)) == 240


def test_close_applies_one_rule_per_tail(monkeypatch, cold_close):
    # The transducer's counterpart: each rule runs once per memo entry, on
    # tail+, and never for a tail with one '-' (a block); a second pass over
    # the same words runs no rule at all.
    calls = []
    real_case0, real_push_t = rewrite.rewrite_case0, rewrite.rewrite_push_T

    def record(rule):
        def step(word, pos, deg):
            calls.append(word)
            return rule(word, pos, deg)
        return step

    monkeypatch.setattr(rewrite, "rewrite_case0", record(real_case0))
    monkeypatch.setattr(rewrite, "rewrite_push_T", record(real_push_t))
    word = W("------++++++")
    normalize(word)
    # one memo entry per tail, the six blocks -0^m included
    assert cold_close.cache_info().currsize == 2**6 - 1
    assert len(calls) == len(set(calls)) == 2**6 - 1 - 6
    assert all(w[-1] == "+" and "+" not in w[:-1] for w in calls)
    calls.clear()
    normalize(word)
    assert calls == []


def test_normalize_refuses_a_scalar_other_than_the_rules(monkeypatch, cold_close):
    # only 1, q-1 and q have a packed form; anything else is an internal
    # error, in the reference engine and in the transducer's _close
    monkeypatch.setattr(
        reference_rewrite,
        "_weighed_step",
        lambda word, pos, deg, level: [(word, Q * Q, level - 1)],
    )
    with pytest.raises(RuntimeError, match="is not 1, q-1 or q"):
        normalize_by_weight(W("--++"))
    monkeypatch.setattr(rewrite, "rewrite_case0", lambda word, pos, deg: {word[:-2] + ("0",): Q * Q})
    with pytest.raises(RuntimeError, match="is not 1, q-1 or q"):
        normalize(W("--++"))


def test_normalize_refuses_a_step_that_does_not_descend(monkeypatch):
    # the reference engine's guard; the transducer has no order to guard
    # (test_close_asks_only_for_shorter_tails)
    monkeypatch.setattr(
        reference_rewrite, "_weighed_step", lambda word, pos, deg, level: [(word, ONE, level)]
    )
    with pytest.raises(RuntimeError, match="did not lower the '\\+' weight"):
        normalize_by_weight(W("--++"))


def _open_tails(max_length):
    """Every open tail - {-,0}* of length 1..max_length."""
    for length in range(1, max_length + 1):
        for rest in product("-0", repeat=length - 1):
            yield "-" + "".join(rest)


def _unflatten(forms):
    return {(forms[i], forms[i + 1]): forms[i + 2] for i in range(0, len(forms), 3)}


def test_close_is_the_reference_normal_form_of_tail_plus():
    """Lemma (a), the close recurrence: for every open tail of length <= 8,
    _close(tail, B), built one rule step at a time from shorter tails, equals
    the whole-word reference engine's normal form of tail+, its outputs
    grouped by (closed part, open tail).  Every reference output is at most
    one block followed by an open tail, and each group appears once in
    _close."""
    bits = digit_bits(8)
    tails = list(_open_tails(8))
    assert len(tails) == 2**8 - 1
    for tail in tails:
        want = {}
        for out, c in reference_rewrite.rewrite_by_weight((*tail, "+"), bits).items():
            text = "".join(out)
            if "+" in text:
                block, rest = text.split("+", 1)
                assert block[0] == "-" and block.count("-") == 1, (tail, text)
                assert rest[:1] in ("", "-") and "+" not in rest, (tail, text)
                key = (len(block), rest)
            else:
                key = (0, text)
            want[key] = want.get(key, 0) + c
        forms = _close(tail, bits)
        assert len(forms) == 3 * len(want), tail
        assert _unflatten(forms) == want, tail


def _digits(value, bits):
    out = []
    while value:
        out.append(value & ((1 << bits) - 1))
        value >>= bits
    return out


def test_every_state_coefficient_and_product_fits_the_width():
    """Lemma (b), the width (``digit_bits``): every coefficient normalize's
    state holds and every product c * r it forms has t-digits at most
    2**a(w) < 2**B.  Each is decoded: its value at t = 1, the sum of its
    digits, bounds every digit of the product of the two N[t] polynomials,
    so c(1) * r(1) <= 2**a(w) shows the packed product carried nothing, and
    the product's digits sum to exactly c(1) * r(1).  The test follows
    normalize's loop step by step and must end where normalize does; checked
    on every word <= 7."""
    words = 0
    for w in iter_paths_upto(7):
        n = semilength(w)
        bits = digit_bits(n)
        cap = 2 ** excess(w)
        assert cap < 2**bits
        state, run = {((), ""): 1}, ""
        for letter in w:
            if letter != "+":
                run += letter
                continue
            nxt = {}
            for (mu, tail), c in state.items():
                c1 = sum(_digits(c, bits))
                assert max(_digits(c, bits)) <= c1 <= cap, render_word(w)
                forms = _close(tail + run, bits)
                for part, rest, r in zip(forms[::3], forms[1::3], forms[2::3]):
                    r1 = sum(_digits(r, bits))
                    assert c1 * r1 <= cap, render_word(w)
                    product_digits = _digits(c * r, bits)
                    assert sum(product_digits) == c1 * r1, render_word(w)
                    key = (tuple(sorted((*mu, part), reverse=True)) if part else mu, rest)
                    nxt[key] = nxt.get(key, 0) + c * r
            state, run = nxt, ""
        assert {mu: c for (mu, _), c in state.items()} == normalize(w), render_word(w)
        for c in state.values():
            assert max(_digits(c, bits)) <= sum(_digits(c, bits)) <= cap, render_word(w)
        words += 1
    assert words == 5439


def test_close_holds_at_most_two_to_the_n_tails(cold_close):
    """Lemma (c), the memo bound: -^n +^n reaches at most the open tails
    - {-,0}^k, k < n, at its width, so _close holds at most 2**n - 1 tails
    after it, each memoized once; for n <= 10 it holds exactly that many."""
    for n in range(1, 11):
        cold_close.cache_clear()
        normalize(W("-" * n + "+" * n))
        assert cold_close.cache_info().currsize == 2**n - 1, n
