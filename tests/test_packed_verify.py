"""verify's packed route: each coefficient stays one packed int from the
engine that produced it to the verdict.  The lemmas it rests on, each
stated in its test's docstring, among them the codec that ``expand``
decodes with, and its verdicts against the decoded QPoly route of
tests/reference_verify.py."""

from math import comb

import hypothesis.strategies as st
import pytest
from hypothesis import example, given

import reference_verify
from conftest import iter_paths_upto
from reference_qpoly import from_qminus1
from vsllt import cli, dyckalgebra, qpoly, rewrite
from vsllt.cli import _verify_one
from vsllt.dyckalgebra import coefficient_bound, packed_bits
from vsllt.paths import iter_paths, parse_word, primitive_factors, semilength
from vsllt.qpoly import ONE, QPoly
from vsllt.rewrite import (
    digit_bits,
    e_positivity_report,
    expand_word,
    lincomb_to_e,
    normalize,
    split_digits,
    unpack,
)


@st.composite
def bounded_pairs(draw):
    """(bits, p, r): two QPolys whose coefficients all have absolute value
    at most 2**(bits-1) - 1, r often equal to p or one digit away from it."""
    bits = draw(st.integers(2, 80))
    top = 2 ** (bits - 1) - 1
    digit = st.one_of(st.sampled_from([top, -top, 0, 1, -1]), st.integers(-top, top))
    coeffs = draw(st.lists(digit, max_size=8))
    how = draw(st.sampled_from(["same", "nudge", "free"]))
    if how == "same":
        other = list(coeffs)
    elif how == "nudge" and coeffs:
        other = list(coeffs)
        i = draw(st.integers(0, len(other) - 1))
        other[i] = draw(digit.filter(lambda d: d != coeffs[i]))
    else:
        other = draw(st.lists(digit, max_size=8))
    return bits, QPoly(coeffs), QPoly(other)


@given(bounded_pairs())
def test_packed_equality(case):
    """Lemma (a), packed equality.  Two polynomials whose coefficients all
    lie below 2**(bits-1) in absolute value are equal iff their values at
    2**bits are: their difference has coefficients below 2**bits in absolute
    value, and a nonzero such polynomial has a lowest nonzero coefficient d,
    so its value is d * 2**(bits*i) plus a multiple of 2**(bits*(i+1)),
    which is not zero."""
    bits, p, r = case
    assert (p == r) == (p(2**bits) == r(2**bits))


def test_packed_equality_at_the_extreme_digits():
    bits = 16
    top = 2 ** (bits - 1) - 1
    for coeffs in ([top, -top, top], [-top], [0, 0, -1], [-1, top, -top, 1]):
        p = QPoly(coeffs)
        for i in range(len(coeffs)):
            nudged = list(coeffs)
            nudged[i] += -1 if coeffs[i] > 0 else 1
            assert p(2**bits) != QPoly(nudged)(2**bits)
    # one past the bound aliases: 2**(bits-1) = -2**(bits-1) + 2**bits
    assert QPoly((2 ** (bits - 1),))(2**bits) == QPoly((-(2 ** (bits - 1)), 1))(2**bits)


def test_every_word_is_one_e_mu_at_q_1_on_both_sides():
    """Lemma: at q = 1 every valid word's value is a single e_mu with
    coefficient 1.  Rewrite side: at t = q - 1 = 0 each rule keeps exactly
    one output, with coefficient 1, so ``expand_word`` evaluated at q = 1 is
    one {mu: 1}.  Oracle side: q -> 2**0 = 1 is a ring map, so
    ``_apply_packed`` at bits 0 runs the operators at q = 1, where T_i is a
    plain transposition; once its zero sums are dropped it must be the
    same {mu: 1}.  Every word of semilength <= 7."""
    words = list(iter_paths_upto(7))
    assert len(words) == 5439
    for w in words:
        at_1 = {mu: v for mu, c in expand_word(w).items() if (v := c(1))}
        assert len(at_1) == 1 and list(at_1.values()) == [1], w
        oracle = dyckalgebra._apply_packed(w, semilength(w), 0)
        assert {mu: v for mu, v in oracle.items() if v} == at_1, w


def _chain_heights(word):
    """The heights of the chains of crosses that ``cli._area_and_crosses``
    reads off word, in decreasing order: a cross (p, r) puts row r directly
    above row p in one strip, so each strip is a chain of rows linked by
    crosses, and a row that tops no cross starts one."""
    area, crosses = cli._area_and_crosses(word)
    above = dict(crosses)
    tops = set(above.values())
    heights = []
    for row in range(1, len(area) + 1):
        if row not in tops:
            height = 1
            while row in above:
                row = above[row]
                height += 1
            heights.append(height)
    return tuple(sorted(heights, reverse=True))


def test_the_e_mu_at_q_1_is_the_chain_heights():
    """Lemma: an LLT polynomial at q = 1 is the product of e_h over the
    heights h of its strips, and a word's strips are the chains of its
    crosses.  So ``expand_word`` at q = 1 is exactly {mu: 1}, mu the sorted
    chain heights.  Every word of semilength <= 7, the empty one included."""
    words = [w for n in range(8) for w in iter_paths(n)]
    assert len(words) == 5440
    for w in words:
        at_1 = {mu: v for mu, c in expand_word(w).items() if (v := c(1))}
        assert at_1 == {_chain_heights(w): 1}, w


def test_factor_product_widths_on_every_composite_word_upto_7():
    """Lemma (b), factor products.  Rewrite side: a return to the diagonal
    leaves every tail of ``normalize``'s state empty, so no rule crosses it
    and a composite word's e-expansion is the product of its primitive
    factors' expansions.  Oracle side, the widths: every partial product
    f_1 ... f_j is the value of a prefix word, whose coefficient_bound is at
    most the whole word's (each letter's operator norm only grows with the
    degree added by the letters to its right), so every partial product
    lies within coefficient_bound(word)."""
    composite = 0
    for n in range(2, 8):
        for w in iter_paths(n):
            factors = primitive_factors(w)
            if len(factors) < 2:
                continue
            composite += 1
            bound = coefficient_bound(w, n)
            in_e, in_q = {(): ONE}, {(): ONE}
            for f in factors:
                in_e = _product(in_e, lincomb_to_e(normalize(f)).items())
                in_q = _product(in_q, dyckalgebra._primitive_value(f))
                assert max(abs(x) for c in in_q.values() for x in c.coeffs) <= bound, w
            assert lincomb_to_e(normalize(w)) == in_e, w
    assert composite == 3118  # of the 5439 words of semilength <= 7


def _product(expansion, pairs):
    out = {}
    for mu, c in expansion.items():
        for nu, d in pairs:
            key = tuple(sorted(mu + nu, reverse=True))
            out[key] = out[key] + c * d if key in out else c * d
    return out


def _counting_shifts(monkeypatch):
    """Record every ``_taylor_shift`` call, still running it."""
    calls = []
    real = qpoly._taylor_shift

    def counting(cs):
        calls.append(len(cs))
        return real(cs)

    monkeypatch.setattr(qpoly, "_taylor_shift", counting)
    return calls


@st.composite
def digit_vectors(draw):
    """(n, digits): 0..C(n, 2) + 1 t-digits, each in [0, 2**digit_bits(n)),
    n <= 14, often at the extremes 0, 1 and 2**B - 1."""
    n = draw(st.integers(0, 14))
    top = 2 ** digit_bits(n) - 1
    digit = st.one_of(st.sampled_from([top, 0, 1]), st.integers(0, top))
    return n, draw(st.lists(digit, max_size=comb(n, 2) + 1))


def _packed(digits, n):
    bits = digit_bits(n)
    return sum(d << (i * bits) for i, d in enumerate(digits))


@given(digit_vectors())
@example((14, [2**92 - 1] * 92))
@example((14, [2**92 - 1] * 91 + [1]))
@example((1, [1]))
@example((0, []))
def test_unpack_is_the_taylor_shift_by_minus_one(case):
    """Lemma (c), the codec.  ``unpack`` reads the digits d_i at q = 2**bits
    and takes the q-coefficients s_j of sum d_i (q-1)^i back as balanced
    digits, for bits = ``digits_bound``'s bit length + 1.  That is exact:
    |s_j| <= sum_i d_i 2^i < max(d) 2^len(d) = digits_bound < 2**(bits-1),
    so no balanced digit aliases (Lemma (a)).  The result equals the
    reference Taylor shift by -1 and keeps the digits as its a(q+1): its
    ``shift_plus_one`` runs no shift."""
    n, digits = case
    kept = QPoly(digits).coeffs
    with pytest.MonkeyPatch.context() as mp:
        calls = _counting_shifts(mp)
        a = unpack(_packed(digits, n), n)
        want = from_qminus1(digits)
        assert a == want
        assert a.shift_plus_one().coeffs == kept and a.shift_plus_one() is a.shift_plus_one()
        assert a.rebase_qminus1() == kept and calls == []
        bits = qpoly.digits_bound(kept).bit_length() + 1
        assert all(abs(s) < 2 ** (bits - 1) for s in want.coeffs)
        # any other QPoly shifts once, by +1, and remembers the result
        shifted = want.shift_plus_one()
        assert shifted.coeffs == kept and want.shift_plus_one() is shifted
        assert calls == [len(kept)]


def test_unpack_is_the_taylor_shift_on_every_coefficient_upto_6():
    # every coefficient normalize packs for the 1160 words of semilength <= 6
    words = list(iter_paths_upto(6))
    assert len(words) == 1160
    for w in words:
        n = semilength(w)
        for mu, c in normalize(w).items():
            assert unpack(c, n) == from_qminus1(split_digits(c, n)), (w, mu)


def test_certificate_runs_no_taylor_shift(monkeypatch):
    # the expand certificate decodes each coefficient by Kronecker
    # substitution, and the report reads the remembered c(q+1): no shift
    calls = _counting_shifts(monkeypatch)
    word = parse_word("--0-0+++")
    report = rewrite.e_positivity_report(lincomb_to_e(normalize(word)))
    assert calls == []
    for mu, c in report["e"].items():
        assert report["qminus1"][mu] == tuple(split_digits(normalize(word)[mu], 5))
        assert report["e_at_q_plus_1"][mu] is c.shift_plus_one()
    for w in iter_paths_upto(4):
        e_positivity_report(expand_word(w))
    assert calls == []
    assert unpack(2**7 + 1, 4).shift_plus_one().coeffs == (1, 1)


def test_verify_one_matches_the_decoded_route():
    """Lemma (d): ``_verify_one``'s one int comparison per partition gives
    the verdicts of the decoded QPoly route on all 1160 words of semilength
    <= 6 and on every 100th composite word of semilength 8 (122 words)."""
    words = list(iter_paths_upto(6))
    assert len(words) == 1160
    composite = [w for w in iter_paths(8) if len(primitive_factors(w)) > 1]
    sample = composite[50::100]
    assert len(sample) == 122
    for w in words + sample:
        assert _verify_one(w) == reference_verify.verify_one(w), w


def test_verify_one_matches_the_decoded_route_under_faults(monkeypatch, cold_oracle):
    # faults on either side, at digits the packed comparison must not miss:
    # a high rewrite digit, and an oracle value off by the top coefficient
    # the width allows, reach the same verdicts on both routes
    words = list(iter_paths_upto(5))
    target = parse_word("--0++")
    real_rewrite = rewrite.normalize

    def rewrite_fault(word):
        packed = real_rewrite(word)
        factors = primitive_factors(word)
        if len(factors) < 2 or target not in factors:
            return packed
        bits = digit_bits(semilength(word))
        return {mu: c + (1 << 3 * bits) for mu, c in packed.items()}

    monkeypatch.setattr(rewrite, "normalize", rewrite_fault)
    monkeypatch.setattr(cli, "normalize", rewrite_fault)
    want = [reference_verify.verify_one(w) for w in words]
    assert [_verify_one(w) for w in words] == want
    assert sum(not agrees for _, agrees, _, _ in want) > 1
    monkeypatch.undo()

    real_oracle = dyckalgebra._apply_packed

    def oracle_fault(word, n, bits):
        terms = dict(real_oracle(word, n, bits))
        if word == target:
            # q**2 times the largest coefficient that still decodes
            terms[(3,)] = terms.get((3,), 0) + (2 ** (packed_bits(word, n) - 1) - 1) * (1 << 2 * bits)
        return terms

    monkeypatch.setattr(dyckalgebra, "_apply_packed", oracle_fault)
    dyckalgebra._primitive_value.cache_clear()
    try:
        verdicts = [_verify_one(w) for w in words]
        assert verdicts == [reference_verify.verify_one(w) for w in words]
    finally:
        dyckalgebra._primitive_value.cache_clear()
    assert sum(not agrees for _, agrees, _, _ in verdicts) > 1


def test_verify_runs_no_taylor_shift(monkeypatch):
    # verify runs no Taylor shift; once the operator side's factor memo
    # holds a composite word's factors (each decoded once, at the factor's
    # own width), a passing word decodes nothing either
    def no_shift(*_args):
        raise AssertionError("verify ran a Taylor shift")

    def no_decode(*_args):
        raise AssertionError("verify decoded a packed value")

    words = list(iter_paths_upto(5))
    monkeypatch.setattr(qpoly, "_taylor_shift", no_shift)
    for w in words:
        assert all(_verify_one(w)[1:]), w
    monkeypatch.setattr(dyckalgebra, "unpack_balanced", no_decode)
    monkeypatch.setattr(rewrite, "unpack", no_decode)
    for w in words:
        assert all(_verify_one(w)[1:]), w


def test_a_negative_packed_value_fails_every_check(capsys, monkeypatch):
    # a packed rewrite value below 0 has no digit split: all three checks
    # fail, and the FAIL line decodes nothing (unpack refuses the value)
    word = parse_word("--++")
    real = rewrite.normalize

    def negative(w):
        return {mu: -c for mu, c in real(w).items()} if w == word else real(w)

    monkeypatch.setattr(cli, "normalize", negative)
    assert _verify_one(word) == ("--++", False, False, False)
    assert cli.main(["verify", "--max-semilength", "2"]) == 1
    fails = [line for line in capsys.readouterr().out.splitlines() if line.startswith("FAIL")]
    assert fails == [
        "FAIL --++: rewrite/evaluation mismatch, negative or fractional (q-1)-coefficient, "
        "not e-positive at q+1; reproduce: vsllt expand --word --++"
    ]


def test_a_wide_rewrite_value_cannot_alias(monkeypatch):
    # on "-000--+++" the oracle's width is 16 bits and e[4, 2] is q - 1,
    # digits (0, 1) at B = 16.  A faulty rewrite value with the single digit
    # 2**16 - 1 is a different polynomial with the same value at q = 2**16;
    # the width read off the digits is wider, so the check still fails
    word = parse_word("-000--+++")
    assert packed_bits(word, 6) == 16
    real = rewrite.normalize
    assert split_digits(real(word)[(4, 2)], 6) == [0, 1]

    def aliasing(w):
        out = real(w)
        if w == word:
            out[(4, 2)] = 2**16 - 1
        return out

    monkeypatch.setattr(cli, "normalize", aliasing)
    assert _verify_one(word) == ("-000--+++", False, True, True)


def test_a_partition_on_one_side_only_fails(monkeypatch):
    # each side's partitions must be the other's: an extra oracle term, or a
    # rewrite term dropped, is a mismatch even where every shared term agrees
    word = parse_word("--0++")
    real_oracle = dyckalgebra.packed_value

    def extra(w, bits):
        out = real_oracle(w, bits)
        if w == word:
            out[(1, 1, 1)] = 1
        return out

    monkeypatch.setattr(cli, "packed_value", extra)
    assert _verify_one(word)[1:] == (False, True, True)
    monkeypatch.undo()
    real_rewrite = rewrite.normalize

    def dropped(w):
        out = real_rewrite(w)
        if w == word:
            del out[max(out)]
        return out

    monkeypatch.setattr(cli, "normalize", dropped)
    assert _verify_one(word)[1:] == (False, True, True)
