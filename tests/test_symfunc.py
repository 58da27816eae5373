import json
from fractions import Fraction
from collections import Counter
from itertools import combinations, permutations
from math import factorial, prod

import pytest
from hypothesis import given, settings
import hypothesis.strategies as st

import reference_symfunc
from reference_symfunc import m_projection
from conftest import graded_syms, partitions
from vsllt.dyckalgebra import eval_in_e
from vsllt.paths import iter_paths_upto, render_word
from vsllt.qpoly import ONE, QPoly
from vsllt.symfunc import (
    GradedSym,
    _e_mu_in_p_scaled,
    _e_to_m,
    _partitions_within,
    e_expansion_in_m,
    e_expansion_in_p,
    e_in_p,
    e_mu_in_p,
    expand_in_vars,
    xpoly_mul,
)

half = Fraction(1, 2)


def test_e_in_p_frozen_values():
    assert e_in_p(0, 3) == GradedSym.one(3)
    assert e_in_p(1, 3) == GradedSym(3, {(1,): ONE})
    assert e_in_p(2, 3) == GradedSym(
        3, {(1, 1): QPoly.const(half), (2,): QPoly.const(-half)}
    )
    assert e_in_p(3, 3) == GradedSym(
        3,
        {
            (1, 1, 1): QPoly.const(Fraction(1, 6)),
            (2, 1): QPoly.const(-half),
            (3,): QPoly.const(Fraction(1, 3)),
        },
    )


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
    assert e_mu_in_p((1, 1), 2) == GradedSym(2, {(1, 1): ONE})
    assert e_mu_in_p((2, 1), 3) == GradedSym(
        3, {(1, 1, 1): QPoly.const(half), (2, 1): QPoly.const(-half)}
    )
    with pytest.raises(ValueError):
        e_mu_in_p((2, 1), 2)
    with pytest.raises(ValueError):
        e_mu_in_p((1, 2), 3)


def test_newton_consistency():
    # sum_{i=1}^{k} (-1)^(i-1) e_{k-i} p_i = k e_k
    n = 6
    for k in range(1, n + 1):
        acc = GradedSym.zero(n)
        for i in range(1, k + 1):
            term = e_in_p(k - i, n) * GradedSym.p(i, n)
            if i % 2 == 0:
                term = -term
            acc = acc + term
        assert acc == e_in_p(k, n).scale(QPoly.const(k))


def test_sym_mul():
    n = 4
    p1 = GradedSym.p(1, n)
    assert p1 * p1 == GradedSym(n, {(1, 1): ONE})
    f = GradedSym(n, {(2, 1): QPoly((1, 1))})
    assert GradedSym.one(n) * f == f
    with pytest.raises(ValueError):
        GradedSym.one(2) * GradedSym.one(3)


def test_sym_mul_truncates():
    n = 3
    f = GradedSym(n, {(2,): ONE})
    g = GradedSym(n, {(2,): ONE, (1,): ONE})
    assert f * g == GradedSym(n, {(2, 1): ONE})  # p_{2,2} exceeds degree 3


@given(graded_syms(n=4), graded_syms(n=4))
def test_grading_invariant(f, g):
    assert all(sum(mu) <= 4 for mu in (f * g).terms)


def test_expand_in_vars_examples():
    n = 2
    assert expand_in_vars(e_in_p(2, n), 2) == {(1, 1): ONE}
    assert expand_in_vars(GradedSym.p(2, n), 2) == {(2, 0): ONE, (0, 2): ONE}
    e1sq = e_in_p(1, n) * e_in_p(1, n)
    assert expand_in_vars(e1sq, 2) == {
        (2, 0): ONE,
        (1, 1): QPoly.const(2),
        (0, 2): ONE,
    }


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


def test_p_numerators_are_integers_up_to_degree_8():
    # Lemma: z_lam [p_lam] e_mu is an integer.  _e_mu_in_p_scaled raises if
    # one is not; each divided by z_lam = prod_i i^{m_i} m_i! gives back
    # e_mu_in_p's coefficient.
    checked = 0
    for size in range(9):
        for mu in _partitions_within(size, size):
            scaled = _e_mu_in_p_scaled(mu)
            assert all(type(z) is int and type(a) is int for _, z, a in scaled), mu
            e_mu = e_mu_in_p(mu, size)
            assert {lam: Fraction(a, z) for lam, z, a in scaled} == {
                lam: c.coeffs[0] for lam, c in e_mu.terms.items()
            }, mu
            for lam, z, _ in scaled:
                assert z == prod(part**m * factorial(m) for part, m in Counter(lam).items())
            checked += 1
    assert checked == 67


def test_e_expansion_in_p_equals_the_fraction_reference_on_every_word():
    # the int sums divided once per coefficient against the Fraction
    # accumulation, on every operator value of semilength <= 6; to_json is
    # compared byte for byte
    for w in iter_paths_upto(6):
        g = eval_in_e(w)
        got = e_expansion_in_p(g.terms, g.n)
        want = reference_symfunc.e_expansion_in_p(g.terms, g.n)
        assert got == want, render_word(w)
        assert json.dumps(got.to_json()) == json.dumps(want.to_json()), render_word(w)


def test_e_expansion_in_p_refuses_a_degree_above_n():
    expansion = {(2, 1): QPoly((1, 2))}
    for convert in (e_expansion_in_p, reference_symfunc.e_expansion_in_p):
        with pytest.raises(ValueError, match="exceeds truncation degree 2"):
            convert(expansion, 2)
        with pytest.raises(ValueError, match="weakly decreasing"):
            convert({(1, 2): ONE}, 3)


def test_json_rendering():
    f = GradedSym(3, {(2, 1): QPoly((0, -1)), (1,): ONE})
    doc = f.to_json()
    assert doc["basis"] == "p"
    assert doc["terms"] == {"[1]": "1", "[2, 1]": "-q"}
