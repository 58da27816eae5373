import json
from fractions import Fraction
from itertools import combinations, permutations

import pytest
from hypothesis import given, settings
import hypothesis.strategies as st

import reference_symfunc
from reference_symfunc import m_projection, true_p, z
from conftest import graded_syms, iter_paths_upto, partitions
from vsllt.dyckalgebra import eval_in_e, eval_word
from vsllt.paths import semilength
from vsllt.qpoly import ONE, QPoly
from vsllt.symfunc import (
    GradedSym,
    _e_to_m,
    _merge_factor,
    _partitions_within,
    e_expansion_in_m,
    e_expansion_in_p,
    e_in_p,
    e_mu_in_p,
    expand_in_vars,
    merge_partitions,
    xpoly_mul,
)

half = Fraction(1, 2)


def _consts(n, terms):
    return GradedSym(n, {mu: QPoly.const(c) for mu, c in terms.items()})


def test_e_in_p_frozen_values():
    # stored: <e_k, p_lam> = (-1)^(k - len(lam)); read: divided by z_lam
    assert e_in_p(0, 3) == GradedSym.one(3)
    assert e_in_p(1, 3) == GradedSym(3, {(1,): ONE})
    assert e_in_p(2, 3) == _consts(3, {(1, 1): 1, (2,): -1})
    assert e_in_p(3, 3) == _consts(3, {(1, 1, 1): 1, (2, 1): -1, (3,): 1})
    assert e_in_p(2, 3).p_coefficients() == {(1, 1): QPoly.const(half), (2,): QPoly.const(-half)}
    assert e_in_p(3, 3).p_coefficients() == {
        (1, 1, 1): QPoly.const(Fraction(1, 6)),
        (2, 1): QPoly.const(-half),
        (3,): QPoly.const(Fraction(1, 3)),
    }


def test_e_in_p_bounds():
    with pytest.raises(ValueError):
        e_in_p(4, 3)
    with pytest.raises(ValueError):
        e_in_p(-1, 3)


def _elementary_direct(k, nvars):
    # independent oracle: e_k as the sum over k-subsets of variables
    out = {}
    for subset in combinations(range(nvars), k):
        e = [0] * nvars
        for i in subset:
            e[i] = 1
        out[tuple(e)] = ONE
    return out


@pytest.mark.parametrize("k", range(5))
def test_e_in_p_matches_direct_expansion(k):
    nvars = max(k, 1)
    assert expand_in_vars(e_in_p(k, max(k, 1)), nvars) == _elementary_direct(k, nvars)


def test_e_mu_in_p():
    assert e_mu_in_p((1,), 2) == GradedSym(2, {(1,): ONE})
    # p_1^2 = 2 (p_{1,1} / z_{1,1})
    assert e_mu_in_p((1, 1), 2) == _consts(2, {(1, 1): 2})
    # e_2 e_1 = p_{1,1,1}/2 - p_{2,1}/2, and z is 6 and 2
    assert e_mu_in_p((2, 1), 3) == _consts(3, {(1, 1, 1): 3, (2, 1): -1})
    assert e_mu_in_p((2, 1), 3).p_coefficients() == {
        (1, 1, 1): QPoly.const(half), (2, 1): QPoly.const(-half)
    }
    with pytest.raises(ValueError):
        e_mu_in_p((2, 1), 2)
    with pytest.raises(ValueError):
        e_mu_in_p((1, 2), 3)


def _p(i, n):
    """p_i, stored as z_(i) = i."""
    return _consts(n, {(i,): i})


def test_newton_consistency():
    # sum_{i=1}^{k} (-1)^(i-1) e_{k-i} p_i = k e_k, with the library's
    # product and its merge factor
    n = 6
    for k in range(1, n + 1):
        acc = GradedSym.zero(n)
        for i in range(1, k + 1):
            term = e_in_p(k - i, n) * _p(i, n)
            acc = acc + term.scale(QPoly.const(-1 if i % 2 == 0 else 1))
        assert acc == e_in_p(k, n).scale(QPoly.const(k))


def test_sym_mul():
    n = 4
    p1 = _p(1, n)
    assert p1 * p1 == _consts(n, {(1, 1): 2})
    assert true_p(p1 * p1) == reference_symfunc.Sym(n, {(1, 1): ONE})
    f = GradedSym(n, {(2, 1): QPoly((1, 1))})
    assert GradedSym.one(n) * f == f
    with pytest.raises(ValueError):
        GradedSym.one(2) * GradedSym.one(3)


def test_sym_mul_truncates():
    n = 3
    f = _p(2, n)
    g = _consts(n, {(2,): 2, (1,): 1})
    assert f * g == _consts(n, {(2, 1): 2})  # p_{2,2} exceeds degree 3


@given(graded_syms(n=4), graded_syms(n=4))
def test_grading_invariant(f, g):
    # the library's product, read as true coefficients, is the reference's
    # key-merging product of the true coefficients
    F, G = GradedSym(4, f.terms), GradedSym(4, g.terms)
    assert all(sum(mu) <= 4 for mu in (F * G).terms)
    assert true_p(F * G) == true_p(F) * true_p(G)


def test_expand_in_vars_examples():
    n = 2
    assert expand_in_vars(e_in_p(2, n), 2) == {(1, 1): ONE}
    assert expand_in_vars(_p(2, n), 2) == {(2, 0): ONE, (0, 2): ONE}
    e1sq = e_in_p(1, n) * e_in_p(1, n)
    assert expand_in_vars(e1sq, 2) == {
        (2, 0): ONE,
        (1, 1): QPoly.const(2),
        (0, 2): ONE,
    }


def test_expand_in_vars_refuses_a_value_that_is_not_integral():
    # stored 1 at p_2 is p_2 / 2 = (x_1^2 + x_2^2) / 2, and at p_{1,1} it is
    # (x_1 + x_2)^2 / 2: neither divides exactly
    for lam in ((2,), (1, 1)):
        with pytest.raises(ArithmeticError, match="not divisible by 2"):
            expand_in_vars(GradedSym(2, {lam: ONE}), 2)
    # their sum is x_1^2 + x_1 x_2 + x_2^2, and their difference 2 e_2 / 2
    both = GradedSym(2, {(2,): ONE, (1, 1): ONE})
    assert expand_in_vars(both, 2) == {(2, 0): ONE, (1, 1): ONE, (0, 2): ONE}
    assert expand_in_vars(GradedSym(2, {(2,): -ONE, (1, 1): ONE}), 2) == {(1, 1): ONE}


@given(partitions(max_size=4), partitions(max_size=4))
@settings(max_examples=50)
def test_faithfulness_on_e_basis(mu, nu):
    n = 4
    same = expand_in_vars(e_mu_in_p(mu, n), n) == expand_in_vars(e_mu_in_p(nu, n), n)
    assert same == (mu == nu)


@given(partitions(max_size=3), st.integers(2, 3))
@settings(max_examples=40)
def test_expansion_is_symmetric(mu, nvars):
    poly = expand_in_vars(e_mu_in_p(mu, 3), nvars)
    for e, c in poly.items():
        for perm in permutations(e):
            assert poly.get(perm) == c


def test_xpoly_mul_matches_hand_product():
    a = {(1, 0): ONE}
    b = {(0, 1): ONE, (1, 0): QPoly.const(2)}
    assert xpoly_mul(a, b) == {(1, 1): ONE, (2, 0): QPoly.const(2)}


def _partitions_of(n, largest=None):
    if n == 0:
        yield ()
        return
    for first in range(min(n, largest or n), 0, -1):
        for rest in _partitions_of(n - first, first):
            yield (first,) + rest


def _weak_compositions(n, parts):
    if parts == 1:
        yield (n,)
        return
    for first in range(n + 1):
        for rest in _weak_compositions(n - first, parts - 1):
            yield (first,) + rest


def test_e_to_m_counts_zero_one_matrices():
    # Lemma (Macdonald I.6): the coefficient of x^alpha in e_mu(x_1..x_N) is
    # the number of 0/1 matrices with row sums mu and column sums sort(alpha),
    # for every mu with |mu| <= 6 and N <= 6.  e_mu(x_1..x_N) comes from the
    # p-basis route and from the product of subset sums; the bridge built on
    # the count must reproduce their m_lam coefficients.
    checked = 0
    for size in range(7):
        for mu in _partitions_of(size):
            for nvars in range(1, 7):
                via_p = expand_in_vars(e_mu_in_p(mu, max(size, 1)), nvars)
                direct = {(0,) * nvars: ONE}
                for part in mu:
                    direct = xpoly_mul(direct, _elementary_direct(part, nvars))
                assert via_p == direct, (mu, nvars)
                for alpha in _weak_compositions(size, nvars):
                    lam = tuple(sorted((a for a in alpha if a), reverse=True))
                    want = direct.get(alpha, QPoly())
                    assert QPoly.const(_e_to_m(mu, lam)) == want, (mu, alpha)
                assert e_expansion_in_m({mu: ONE}, nvars) == m_projection(direct), (mu, nvars)
                checked += 1
    assert checked == 30 * 6
    assert _e_to_m((2, 1), (1, 1, 1)) == 3 and _e_to_m((2,), (2,)) == 0


def test_e_expansion_in_m_mixed_degrees():
    expansion = {(2, 1): QPoly((1, 2)), (1,): QPoly((0, -1)), (): QPoly.const(3)}
    for nvars in (1, 2, 4):
        got = e_expansion_in_m(expansion, nvars)
        assert got == m_projection(expand_in_vars(e_expansion_in_p(expansion, 3), nvars))
        assert all(type(x) is int for c in got.values() for x in c.coeffs)
    # e[2, 1] = m[2, 1] + 3 m[1, 1, 1]: two variables drop the second term,
    # one variable both, as e_2(x_1) = 0
    assert e_expansion_in_m(expansion, 2) == {
        (2, 1): QPoly((1, 2)), (1,): QPoly((0, -1)), (): QPoly.const(3)
    }
    assert e_expansion_in_m(expansion, 1) == {(1,): QPoly((0, -1)), (): QPoly.const(3)}
    assert e_expansion_in_m(expansion, 3)[(1, 1, 1)] == QPoly((3, 6))
    assert e_expansion_in_m({}, 2) == {}
    with pytest.raises(ValueError):
        e_expansion_in_m(expansion, 0)


def test_e_in_p_is_z_times_the_newton_reference():
    # Lemma (a): <e_k, p_lam> = z_lam [p_lam] e_k = (-1)^(k - len(lam)) at
    # every lam |- k (Macdonald I (2.14')), against Newton's identity
    for k in range(9):
        newton = reference_symfunc.e_in_p_raw(k)
        assert len(newton) == len(_partitions_within(k, k)), k
        assert e_in_p(k, k).terms == {lam: QPoly.const(z(lam) * c) for lam, c in newton.items()}, k


def test_merge_factor_is_the_ratio_of_the_z():
    # Lemma (b): z_{lam+mu} / (z_lam z_mu) = prod_i C(m_i(lam) + m_i(mu),
    # m_i(lam)), an integer, on every pair with |lam| + |mu| <= 8
    parts = [lam for size in range(9) for lam in _partitions_within(size, size)]
    checked = 0
    for lam in parts:
        for mu in parts:
            if sum(lam) + sum(mu) <= 8:
                factor = _merge_factor(lam, mu)
                assert factor * z(lam) * z(mu) == z(merge_partitions(lam, mu)), (lam, mu)
                checked += 1
    assert checked == sum(
        len(_partitions_within(a, a)) * len(_partitions_within(b, b))
        for a in range(9) for b in range(9 - a)
    )


def _integral(g):
    return all(isinstance(c, QPoly) and all(type(x) is int for x in c.coeffs) for c in g.terms.values())


def test_every_stored_p_value_is_an_integer_polynomial():
    # Lemma (c): z_lam [p_lam] f is in Z[q] for every f integral in e, so the
    # library stores ints: e_mu for every |mu| <= n <= 8, equal to the
    # reference's true coefficients times z_lam, and eval_word of every word
    # of semilength <= 5
    checked = 0
    for n in range(1, 9):
        for size in range(n + 1):
            for mu in _partitions_within(size, size):
                g = e_mu_in_p(mu, n)
                assert _integral(g), (mu, n)
                assert true_p(g) == reference_symfunc.e_mu_in_p(mu, n), (mu, n)
                checked += 1
    assert checked == sum(len(_partitions_within(s, s)) for n in range(1, 9) for s in range(n + 1))
    for w in iter_paths_upto(5):
        assert _integral(eval_word(w)), w


def test_e_expansion_in_p_equals_the_fraction_reference_on_every_word():
    # the int sums, divided by z_lam once each, against the Fraction
    # accumulation, on every operator value of semilength <= 6; to_json,
    # which divides on its own, is compared byte for byte
    for w in iter_paths_upto(6):
        g, n = eval_in_e(w), semilength(w)
        got = e_expansion_in_p(g, n)
        want = reference_symfunc.e_expansion_in_p(g, n)
        assert true_p(got) == want, w
        assert json.dumps(got.to_json()) == json.dumps(want.to_json()), w


def test_e_expansion_in_p_refuses_a_degree_above_n():
    expansion = {(2, 1): QPoly((1, 2))}
    for convert in (e_expansion_in_p, reference_symfunc.e_expansion_in_p):
        with pytest.raises(ValueError, match="exceeds truncation degree 2"):
            convert(expansion, 2)
        with pytest.raises(ValueError, match="weakly decreasing"):
            convert({(1, 2): ONE}, 3)


def test_json_rendering():
    # to_json and repr give the true coefficients: the stored value over z_lam
    f = GradedSym(3, {(2, 1): QPoly((0, -2)), (1,): ONE, (1, 1): QPoly.const(3)})
    doc = f.to_json()
    assert doc["basis"] == "p"
    assert doc["terms"] == {"[1]": "1", "[1, 1]": "3/2", "[2, 1]": "-q"}
    assert repr(f) == "GradedSym<[1]: 1, [1, 1]: 3/2, [2, 1]: -q>"
    assert repr(GradedSym.zero(3)) == "GradedSym<0>"
