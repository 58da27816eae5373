"""The e-basis raising and lowering operators and shift table agree exactly
with their per-term p-basis reference forms (tests/reference_dyck.py),
compared through a coefficient-wise e->p conversion; every memoized function
agrees with a fresh recompute, and no caller can change a memoized value."""

from itertools import combinations, product

import hypothesis.strategies as st
from hypothesis import given, settings

import reference_dyck
import reference_llt
import reference_symfunc
from conftest import iter_paths_upto, noted, qpolys, velement_in_p, velements
from reference_dyck import add, sym_part, velement
from reference_symfunc import Sym, e_in_p_raw, m_projection, true_p, z
from vsllt import dyckalgebra, llt, rewrite, symfunc
from vsllt.cli import _verify_one
from vsllt.dyckalgebra import (
    QPOLY,
    VElement,
    _shift_table,
    apply_word,
    eval_in_e,
    eval_word,
    op_dminus,
    op_dplus,
    op_phi,
    op_t,
)
from vsllt.paths import (
    MINUS,
    PLUS,
    ZERO,
    iter_paths,
    parse_word,
    primitive_factors,
    semilength,
)
from vsllt.qpoly import ONE, QPoly, accumulate
from vsllt.symfunc import GradedSym, e_mu_in_p

N = 5


@st.composite
def repeated_part_partitions(draw, max_size=N):
    """Partitions built from parts 1 and 2, so parts repeat and the shift
    table merges subsets."""
    parts = draw(st.lists(st.integers(1, 2), max_size=max_size))
    while sum(parts) > max_size:
        parts.pop()
    return tuple(sorted(parts, reverse=True))


@st.composite
def repeated_part_velements(draw, k, n=N, max_exp=3):
    terms = {}
    for _ in range(draw(st.integers(1, 3))):
        e = tuple(draw(st.integers(0, max_exp)) for _ in range(k))
        mu = draw(repeated_part_partitions(max_size=n))
        g = Sym(n, {mu: draw(qpolys(nonzero=True))})
        terms[e] = terms[e] + g if e in terms else g
    return noted(velement(k, n, terms))


@st.composite
def cancelling_velements(draw, k, n=N):
    """A random element plus a pair of terms whose shifted parts land on the
    same output key with opposite signs.

    y^(rest, a) c e_m shifts to a term c e_m[1-q] y^(rest, a+m), with
    e_m[1-q] = (-1)^m (q^m - q^(m-1)); the second term, its negative, cancels
    it exactly.
    """
    m = draw(st.integers(1, n - 1))
    a = draw(st.integers(0, n - 1 - m))
    rest = tuple(draw(st.integers(0, 3)) for _ in range(k - 1))
    c = draw(qpolys(nonzero=True))
    e_m_shift = QPoly.monomial(m) - QPoly.monomial(m - 1)
    pair = velement(k, n, {
        rest + (a,): Sym(n, {(m,): c}),
        rest + (a + m,): Sym(n, {(): c * (e_m_shift if m % 2 else -e_m_shift)}),
    })
    return noted(add(pair, draw(velements(k=k, n=n, max_exp=3))))


def _random_inputs(k):
    return st.one_of(
        velements(k=k, n=N, max_exp=3),
        repeated_part_velements(k=k),
        cancelling_velements(k=k),
    )


@given(st.integers(1, 3).flatmap(_random_inputs))
@settings(max_examples=150)
def test_dminus_matches_reference(f):
    assert velement_in_p(op_dminus(f)) == reference_dyck.op_dminus(velement_in_p(f))


@given(st.integers(1, 3).flatmap(_random_inputs))
@settings(max_examples=60)
def test_dplus_matches_reference(f):
    assert velement_in_p(op_dplus(f)) == reference_dyck.op_dplus(velement_in_p(f))


def _assert_clean(f, k, n):
    """f is an element of V_k with no zero scalar, no empty y-coefficient,
    no exponent vector of length other than k and no partition of degree
    above n."""
    assert f.k == k
    for e, g in f.terms.items():
        assert len(e) == k and g, e
        for mu, c in g.items():
            assert c and sum(mu) <= n, (e, mu)


@given(st.integers(1, 3).flatmap(_random_inputs))
@settings(max_examples=150)
def test_every_operator_output_is_clean(f):
    # Lemma: VElement stores what it is given, so _wrap alone keeps every
    # operator's output clean; the cancelling inputs make zero sums
    _assert_clean(op_dminus(f), f.k - 1, f.n)
    _assert_clean(op_dplus(f), f.k + 1, f.n)
    _assert_clean(op_phi(f), f.k, f.n)
    for i in range(1, f.k):
        _assert_clean(op_t(i, f), f.k, f.n)


def test_every_letter_of_every_word_gives_a_clean_output():
    # the same lemma on every intermediate element of every word of
    # semilength <= 6, in the QPoly ring and in the packed ring of its width
    steps = {PLUS: (op_dplus, 1), MINUS: (op_dminus, -1), ZERO: (op_phi, 0)}
    checked = 0
    for w in iter_paths_upto(6):
        n = semilength(w)
        for ring in (QPOLY, dyckalgebra.packed(dyckalgebra.packed_bits(w, n))):
            f = VElement.one(n, ring)
            for tok in reversed(w):
                op, dk = steps[tok]
                k = f.k + dk
                f = op(f)
                _assert_clean(f, k, n)
                checked += 1
    assert checked == 2 * sum(len(w) for w in iter_paths_upto(6))


def test_dminus_group_cancels_to_zero():
    # the two shifted terms land on the same key e_2 with opposite signs and cancel
    n = 3
    c = QPoly((2, -1))
    f = velement(1, n, {
        (0,): Sym(n, {(1,): c}),
        (1,): Sym(n, {(): c * (QPoly.monomial(1) - ONE)}),
    })
    out = op_dminus(f)
    assert velement_in_p(out) == reference_dyck.op_dminus(velement_in_p(f))
    # only the kept e_1 term survives, through a = 0, as e_1 * e_1
    assert out == velement(0, n, {(): Sym(n, {(1, 1): c})})


def test_dminus_matches_reference_along_every_word():
    """The actual input to every lowering step of every word of semilength <= 5."""
    checked = expected = 0
    for n in range(1, 6):
        for word in iter_paths(n):
            expected += word.count(MINUS)
            f = VElement.one(n)
            for tok in reversed(word):
                if tok == PLUS:
                    f = op_dplus(f)
                elif tok == MINUS:
                    got = op_dminus(f)
                    want = reference_dyck.op_dminus(velement_in_p(f))
                    assert velement_in_p(got) == want, word
                    f = got
                    checked += 1
                else:
                    f = op_phi(f)
    assert checked == expected > 0


def _e_of_alphabet(j, sign):
    """e_j[sign*(q-1)], from e_j's p-expansion with p_k -> sign*(q^k - 1)."""
    total = QPoly()
    for mu, c in e_in_p_raw(j).items():
        term = QPoly.const(c)
        for k in mu:
            term = term * (QPoly.monomial(k) - ONE) * QPoly.const(sign)
        total = total + term
    return total


def _unmerged_expansion(mu, sign):
    """{(kept, extra): summed scalar}, expanding e_m[X + A] = sum_j e_{m-j} e_j[A]
    choice by choice, one state per choice of j for each part."""
    states = [((), 0, ONE)]
    for m in mu:
        states = [
            (parts + ((m - j,) if j < m else ()), extra + j, s * _e_of_alphabet(j, sign) if j else s)
            for parts, extra, s in states
            for j in range(m + 1)
        ]
    out = {}
    for parts, extra, s in states:
        key = (tuple(sorted(parts, reverse=True)), extra)
        out[key] = out.get(key, QPoly()) + s
    return {key: c for key, c in out.items() if c}


def test_shift_table_merges_repeated_parts():
    for mu in [(2, 2, 1, 1), (1, 1, 1), (3, 1, 1), (2, 2), (4,), ()]:
        for sign in (+1, -1):
            table = _shift_table(mu, sign)
            kept = [entry[0] for entry in table]
            assert len(kept) == len(set(kept)), (mu, sign)
            assert {(p, extra): c for p, extra, c in table} == _unmerged_expansion(mu, sign)
    # (2,2,1,1) has 3*3*2*2 = 36 choices but only 12 distinct kept multisets
    assert len(_shift_table((2, 2, 1, 1), -1)) == 12
    assert _shift_table((2, 2, 1, 1), -1) is _shift_table((2, 2, 1, 1), -1)


def _partitions(n, largest=None):
    if n == 0:
        yield ()
        return
    for first in range(min(n, largest or n), 0, -1):
        for rest in _partitions(n - first, first):
            yield (first,) + rest


def _without_empty(sums):
    return {key: terms for key, terms in sums.items() if terms}


def test_shift_table_in_p_equals_per_term_p_shift():
    # Lemma: e_mu[X + sign*(q-1)t] from the e-basis table, converted to the
    # p-basis, is the per-term p-basis shift of e_mu, for |mu| <= 6 and both signs.
    checked = 0
    for size in range(7):
        for mu in _partitions(size):
            for sign in (+1, -1):
                via_e = {}
                for kept, extra, scalar in _shift_table(mu, sign):
                    for lam, c in true_p(e_mu_in_p(kept, size)).terms.items():
                        accumulate(via_e.setdefault(extra, {}), lam, c * scalar)
                via_p = {}
                e_mu = true_p(e_mu_in_p(mu, size)).terms
                for part, extra, coeff in reference_dyck._shifted_sym_terms(e_mu, sign):
                    accumulate(via_p.setdefault(extra, {}), part, coeff)
                assert _without_empty(via_e) == _without_empty(via_p), (mu, sign)
                checked += 1
    assert checked == 2 * 30


def _fresh_scaled(g):
    """A Sym of true p-coefficients as the library's GradedSym stores it:
    each coefficient times z_lam."""
    return GradedSym(g.n, {lam: c * z(lam) for lam, c in g.terms.items()})


def _fresh_e_in_p(k, n):
    """e_k from Newton's identity in the reference, scaled."""
    return _fresh_scaled(reference_symfunc.e_in_p(k, n))


def _fresh_e_mu_in_p(mu, n):
    """e_mu multiplied out in the reference, true coefficients, then scaled."""
    return _fresh_scaled(reference_symfunc.e_mu_in_p(mu, n))


def _fresh_raising_table(mu, ring):
    """{extra: {kept: scalar in ring}} from the unmerged shift expansion."""
    out = {}
    for (kept, extra), s in _unmerged_expansion(mu, +1).items():
        out.setdefault(extra, {})[kept] = ring.lift(s)
    return out


def _fresh_lowering_table(mu, a0, ring):
    """{kept with a + 1 merged in: (-1)^a s in ring}, a = a0 + extra."""
    out = {}
    for (kept, extra), s in _unmerged_expansion(mu, -1).items():
        a = a0 + extra
        accumulate(out, tuple(sorted(kept + (a + 1,), reverse=True)), -s if a % 2 else s)
    return {key: ring.lift(s) for key, s in out.items()}


def _fresh_packed(bits):
    q = 1 << bits
    return (0, 1, q - 1, QPoly((3, -2, 1))(q))


def _fresh_p_mu_in_vars(mu, nvars):
    """p_mu(x_1..x_nvars), one monomial per choice of a variable for each part."""
    out = {}
    for choice in product(range(nvars), repeat=len(mu)):
        e = [0] * nvars
        for i, part in zip(choice, mu):
            e[i] += part
        accumulate(out, tuple(e), ONE)
    return out


def _count_01_matrices(rows, cols):
    """0/1 matrices with these row and column sums, row by row, no memo."""
    if not rows:
        return int(not any(cols))
    return sum(
        _count_01_matrices(rows[1:], tuple(c - (j in chosen) for j, c in enumerate(cols)))
        for chosen in combinations(range(len(cols)), rows[0])
        if all(cols[j] for j in chosen)
    )


# Every memoized function, with an unmemoized recompute of its value.
CACHED = {
    symfunc.e_in_p: _fresh_e_in_p,
    symfunc.e_mu_in_p: _fresh_e_mu_in_p,
    symfunc._p_mu_in_vars: _fresh_p_mu_in_vars,
    symfunc._e_to_m: _count_01_matrices,
    _shift_table: _unmerged_expansion,
    dyckalgebra.packed: _fresh_packed,
    dyckalgebra._raising_table: _fresh_raising_table,
    dyckalgebra._lowering_table: _fresh_lowering_table,
    dyckalgebra._primitive_value: lambda w: sym_part(apply_word(w, VElement.one(semilength(w)))),
}


def _cache_domain(size):
    """Keys of every memoized function, covering all partitions up to size and
    truncation degrees / variable counts up to size."""
    parts = [mu for s in range(size + 1) for mu in _partitions(s)]
    primitive = [
        (w,) for s in range(1, size + 1) for w in iter_paths(s) if len(primitive_factors(w)) == 1
    ]
    widths = sorted({dyckalgebra.packed_bits(w, s) for s in range(1, size + 1) for w in iter_paths(s)})
    rings = [dyckalgebra.packed(bits) for bits in widths]
    return {
        symfunc.e_in_p: [(k, n) for n in range(1, size + 1) for k in range(n + 1)],
        symfunc.e_mu_in_p: [(mu, n) for n in range(1, size + 1) for mu in parts if sum(mu) <= n],
        symfunc._p_mu_in_vars: [(mu, v) for v in range(1, size + 1) for mu in parts],
        symfunc._e_to_m: [(mu, lam) for mu in parts for lam in parts],
        _shift_table: [(mu, sign) for mu in parts for sign in (+1, -1)],
        dyckalgebra.packed: [(bits,) for bits in widths],
        dyckalgebra._raising_table: [(mu, ring) for mu in parts for ring in rings],
        dyckalgebra._lowering_table: [
            (mu, a0, ring) for mu in parts for a0 in range(size - sum(mu)) for ring in rings
        ],
        dyckalgebra._primitive_value: primitive,
    }


def _as_compared(fn, value):
    if fn is _shift_table:
        return {(p, extra): c for p, extra, c in value}
    if fn in (dyckalgebra._primitive_value, dyckalgebra._lowering_table):
        return dict(value)
    if fn is dyckalgebra.packed:
        return (value.zero, value.one, value.q_minus_1, value.lift(QPoly((3, -2, 1))))
    if fn is dyckalgebra._raising_table:
        return {extra: dict(pairs) for extra, pairs in value}
    return value


def test_bridge_caches_survive_verify():
    # _verify_one compares in the e-basis and llt_in_vars goes through the
    # integer e -> monomial bridge, so the e->p caches are filled here through
    # eval_word and the p-basis reference of llt_in_vars
    for fn in CACHED:
        fn.cache_clear()
    strips_cases = (((0, 2), (-2, 2)), ((0, 1), (-1, 2)), ((0, 3),))
    for n in range(1, 5):
        for word in iter_paths(n):
            assert all(_verify_one(word)[1:])
            eval_word(word)
    for strips in strips_cases:
        assert llt.llt_in_vars(strips, 3) == m_projection(reference_llt.llt_in_vars(strips, 3))
    assert all(fn.cache_info().currsize for fn in CACHED), [
        fn.__name__ for fn in CACHED if not fn.cache_info().currsize
    ]
    # words up to semilength 4 and tuples up to 4 cells in 3 variables keep
    # every key inside the domain of size 4: afterwards each cache holds
    # exactly the domain's keys, so the sweep added none outside it
    for fn, keys in _cache_domain(4).items():
        fresh = CACHED[fn]
        for key in keys:
            cached = fn(*key)
            assert _as_compared(fn, cached) == fresh(*key), (fn.__name__, key)
            assert fn(*key) is cached, (fn.__name__, key)
        assert fn.cache_info().currsize == len(keys), fn.__name__


def test_mutating_a_returned_value_leaves_the_memos_unchanged():
    # eval_in_e builds a composite word's result from memoized factor values
    # and expand_word from memoized _close forms; every call returns a new
    # dict, so a caller that edits one changes no later result.
    # "-0+" is a single factor, the others two.
    for text in ("-0+", "-+-0+", "--++-+"):
        w = parse_word(text)
        want_e = rewrite.lincomb_to_e(rewrite.normalize(w))
        want_g = sym_part(apply_word(w, VElement.one(semilength(w))))
        for _ in range(2):
            got_e, got_g = rewrite.expand_word(w), eval_in_e(w)
            assert got_e == want_e and got_g == want_g, text
            got_e.clear()
            got_e[(9,)] = ONE
            got_g.clear()
            got_g[(9,)] = ONE


def test_only_factors_of_composite_words_are_memoized():
    # a primitive word evaluated on its own is not kept: in a sweep no later
    # word reuses it except as a factor of a longer word.  Only the operator
    # side memoizes factors; the rewrite side reads a composite word whole.
    memo = dyckalgebra._primitive_value
    memo.cache_clear()
    for text in ("-0+", "--0++", ""):
        w = parse_word(text)
        rewrite.expand_word(w)
        eval_in_e(w)
        _verify_one(w)
    assert memo.cache_info().currsize == 0
    w = parse_word("-+-0+-+")
    rewrite.expand_word(w)
    assert memo.cache_info().currsize == 0
    eval_in_e(w)
    assert memo.cache_info().currsize == 2
    # the operator side's decoded factor values are re-packed, not re-evaluated
    assert _verify_one(w)[1:] == (True, True, True)
    assert memo.cache_info().currsize == 2
