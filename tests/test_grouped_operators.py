"""The e-basis raising and lowering operators and shift table agree exactly
with their per-term p-basis reference forms (tests/reference_dyck.py),
compared through a coefficient-wise e->p conversion; the e->p and
e -> monomial caches agree with fresh recomputes."""

from itertools import combinations, permutations

import hypothesis.strategies as st
from hypothesis import given, settings

import reference_dyck
import reference_llt
from conftest import qpolys, velement_in_p, velements
from vsllt import llt, symfunc
from vsllt.cli import _verify_one
from vsllt.dyckalgebra import VElement, _shift_table, eval_word, op_dminus, op_dplus, op_phi
from vsllt.paths import MINUS, PLUS, iter_paths
from vsllt.qpoly import ONE, QPoly, accumulate
from vsllt.symfunc import GradedSym, _e_in_p_raw, e_in_p, e_mu_in_p

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
        g = GradedSym(n, {mu: draw(qpolys(nonzero=True))})
        terms[e] = terms[e] + g if e in terms else g
    return VElement(k, n, terms)


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
    pair = VElement(k, n, {
        rest + (a,): GradedSym(n, {(m,): c}),
        rest + (a + m,): GradedSym(n, {(): c * (e_m_shift if m % 2 else -e_m_shift)}),
    })
    return pair + draw(velements(k=k, n=n, max_exp=3))


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


def test_dminus_group_cancels_to_zero():
    # the two shifted terms land on the same key e_2 with opposite signs and cancel
    n = 3
    c = QPoly((2, -1))
    f = VElement(1, n, {
        (0,): GradedSym(n, {(1,): c}),
        (1,): GradedSym(n, {(): c * (QPoly.monomial(1) - ONE)}),
    })
    out = op_dminus(f)
    assert velement_in_p(out) == reference_dyck.op_dminus(velement_in_p(f))
    # only the kept e_1 term survives, through a = 0, as e_1 * e_1
    assert out == VElement(0, n, {(): GradedSym(n, {(1, 1): c})})


def test_dminus_matches_reference_along_every_word():
    """The actual input to every lowering step of every word of semilength <= 5."""
    checked = expected = 0
    for n in range(1, 6):
        for word in iter_paths(n):
            expected += list(word).count(MINUS)
            f = VElement.one(n)
            for tok in reversed(word):
                if tok == PLUS:
                    f = op_dplus(f)
                elif tok == MINUS:
                    got = op_dminus(f)
                    want = reference_dyck.op_dminus(velement_in_p(f))
                    assert velement_in_p(got) == want, "".join(word)
                    f = got
                    checked += 1
                else:
                    f = op_phi(f)
    assert checked == expected > 0


def _e_of_alphabet(j, sign):
    """e_j[sign*(q-1)], from e_j's p-expansion with p_k -> sign*(q^k - 1)."""
    total = QPoly()
    for mu, c in _e_in_p_raw(j).items():
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
    return {key: c for key, c in out.items() if not c.is_zero()}


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


def test_shift_table_in_p_equals_per_term_p_shift():
    # Lemma: e_mu[X + sign*(q-1)t] from the e-basis table, converted to the
    # p-basis, is the per-term p-basis shift of e_mu, for |mu| <= 6 and both signs.
    checked = 0
    for size in range(7):
        for mu in _partitions(size):
            for sign in (+1, -1):
                via_e = {}
                for kept, extra, scalar in _shift_table(mu, sign):
                    accumulate(via_e, extra, e_mu_in_p(kept, size).scale(scalar))
                via_p = {}
                e_mu = e_mu_in_p(mu, size)
                for part, extra, coeff in reference_dyck._shifted_sym_terms(e_mu, sign):
                    accumulate(via_p, extra, GradedSym(size, {part: coeff}))
                assert via_e == via_p, (mu, sign)
                checked += 1
    assert checked == 2 * 30


def _fresh_e_in_p(k, n):
    return GradedSym(n, {mu: QPoly.const(c) for mu, c in _e_in_p_raw(k).items()})


def _count_01_matrices(rows, cols):
    """0/1 matrices with these row and column sums, row by row, no memo."""
    if not rows:
        return int(not any(cols))
    return sum(
        _count_01_matrices(rows[1:], tuple(c - (j in chosen) for j, c in enumerate(cols)))
        for chosen in combinations(range(len(cols)), rows[0])
        if all(cols[j] for j in chosen)
    )


def test_bridge_caches_survive_verify():
    # _verify_one compares in the e-basis and llt_in_vars goes through the
    # integer e -> monomial bridge, so the e->p caches are filled here through
    # eval_word and the p-basis reference of llt_in_vars
    strips_cases = (((0, 2), (-2, 2)), ((0, 1), (-1, 2)), ((0, 3),))
    for n in range(1, 5):
        for word in iter_paths(n):
            assert all(_verify_one(word)[1:])
            eval_word(word)
    for strips in strips_cases:
        assert llt.llt_in_vars(strips, 3) == reference_llt.llt_in_vars(strips, 3)
    assert symfunc._E_MU_IN_P_CACHE and symfunc._E_IN_P_GRADED
    assert symfunc._E_TO_M and symfunc._ORBITS
    for (mu, lam), cached in list(symfunc._E_TO_M.items()):
        assert cached == _count_01_matrices(mu, lam), (mu, lam)
        assert symfunc._e_to_m(mu, lam) is cached
    for (lam, nvars), cached in list(symfunc._ORBITS.items()):
        fresh = set(permutations(lam + (0,) * (nvars - len(lam))))
        assert len(cached) == len(fresh) and set(cached) == fresh, (lam, nvars)
        assert symfunc._orbit(lam, nvars) is cached
    for (mu, n), cached in list(symfunc._E_MU_IN_P_CACHE.items()):
        fresh = GradedSym.one(n)
        for part in mu:
            fresh = fresh * _fresh_e_in_p(part, n)
        assert cached == fresh, (mu, n)
        assert e_mu_in_p(mu, n) is cached
    for (k, n), cached in list(symfunc._E_IN_P_GRADED.items()):
        assert cached == _fresh_e_in_p(k, n), (k, n)
        assert e_in_p(k, n) is cached
