"""The operators over packed int scalars (q = 2**bits) against the QPoly
reference ring: the width lemma, whole-word agreement, the balanced decode,
and a guard that the packed hot loop does no QPoly arithmetic."""

from functools import cache

import hypothesis.strategies as st
from hypothesis import given

from vsllt import dyckalgebra
from vsllt.dyckalgebra import (
    VElement,
    apply_word,
    coefficient_bound,
    eval_in_e,
    eval_packed,
    packed_bits,
)
from vsllt.paths import iter_paths, iter_paths_upto, parse_word, primitive_factors, render_word, semilength
from vsllt.qpoly import QPoly, unpack_balanced


@cache
def qpoly_path(word, n):
    """The reference: the whole word applied letter by letter in the QPoly ring."""
    res = apply_word(word, VElement.one(n))
    assert res.k == 0
    return res.sym_part()


def test_width_bound_covers_every_coefficient_up_to_semilength_7():
    # Lemma (coefficient_bound): every coefficient of the QPoly-path value is
    # at most the product of the letters' l1 operator norms, so the packed
    # width leaves every balanced digit below 2**(bits-1).  Checked on all
    # 5439 words of semilength <= 7, where eval_in_e (packed, and through the
    # factors for a composite word) must equal the QPoly path.
    widest = {}
    tightest = {}
    words = 0
    for n in range(1, 8):
        for w in iter_paths(n):
            want = qpoly_path(w, n)
            top = max(abs(c) for v in want.terms.values() for c in v.coeffs)
            bound = coefficient_bound(w, n)
            assert top <= bound, render_word(w)
            bits = packed_bits(w, n)
            assert bound < 2 ** (bits - 1) and bits % dyckalgebra._BITS_STEP == 0
            assert eval_in_e(w) == want, render_word(w)
            widest[n] = max(widest.get(n, 0), bits)
            tightest[n] = max(tightest.get(n, 0), top.bit_length() + 1)
            words += 1
    assert words == 5439
    print(f"\npacked width per semilength: widest {widest}, needed {tightest}")
    assert widest == {1: 16, 2: 16, 3: 16, 4: 32, 5: 48, 6: 64, 7: 80}
    assert tightest == {1: 2, 2: 2, 3: 3, 4: 4, 5: 4, 6: 6, 7: 7}


def test_packed_and_qpoly_rings_agree_on_every_whole_word():
    # the two instances of the one operator code, word by word (composite
    # words whole, not through their factors), at every truncation from the
    # semilength to two above it
    checked = 0
    for w in iter_paths_upto(6):
        s = semilength(w)
        for n in range(s, s + 3):
            assert eval_packed(w, n) == qpoly_path(w, n), (render_word(w), n)
            checked += 1
    assert checked == 3 * 1160


LIMIT_BITS = st.integers(2, 80)


@st.composite
def balanced_polys(draw):
    """(bits, a QPoly whose coefficients all have |c| <= 2**(bits-1) - 1),
    the extreme digits and negative coefficients included."""
    bits = draw(LIMIT_BITS)
    top = 2 ** (bits - 1) - 1
    digit = st.one_of(st.sampled_from([top, -top, 0, 1, -1]), st.integers(-top, top))
    return bits, QPoly(draw(st.lists(digit, max_size=8)))


@given(balanced_polys())
def test_unpack_balanced_round_trip(case):
    bits, p = case
    assert unpack_balanced(p(2**bits), bits) == p


def test_unpack_balanced_extremes():
    bits = 16
    top = 2 ** (bits - 1) - 1
    for coeffs in ([top, -top, top], [-top], [0, 0, -1], [-1, top, -top, 1]):
        p = QPoly(coeffs)
        assert unpack_balanced(p(2**bits), bits) == p
    assert unpack_balanced(0, bits) == QPoly()


def test_packed_hot_loop_does_no_qpoly_arithmetic(monkeypatch):
    # eval_in_e on a primitive word runs in the packed ring; only the tables,
    # built once per (partition, ring) from the QPoly shift table, use QPoly
    # arithmetic, so a second evaluation may make no QPoly product or sum
    word = parse_word("--0-0+++")
    assert semilength(word) == 5 and primitive_factors(word) == [word]
    want = eval_in_e(word)
    calls = []
    for name in ("__mul__", "__rmul__", "__add__", "__radd__"):
        real = getattr(QPoly, name)

        def counting(self, other, _real=real, _name=name):
            calls.append(_name)
            return _real(self, other)

        monkeypatch.setattr(QPoly, name, counting)
    assert eval_in_e(word) == want
    assert calls == []
