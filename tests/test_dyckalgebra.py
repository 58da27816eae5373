import pytest
from hypothesis import given, settings

from conftest import INVALID_WORDS_UPTO_LENGTH_6, graded_syms, outcome, velement_in_p, velements
from reference_dyck import mul_sym, op_phi_commutator, retruncate
from reference_qpoly import divexact_qminus1
from vsllt.dyckalgebra import (
    VElement,
    apply_word,
    eval_in_e,
    eval_word,
    op_dminus,
    op_dplus,
    op_phi,
    op_t,
)
from vsllt.paths import (
    WordError,
    iter_paths_upto,
    parse_word,
    primitive_factors,
    render_word,
    semilength,
)
from vsllt.qpoly import ONE, Q, Q_MINUS_1, QPoly
from vsllt.symfunc import GradedSym, e_in_p, e_mu_in_p

QQ = QPoly.const


def sym(n, terms):
    return GradedSym(n, {mu: QQ(c) if not isinstance(c, QPoly) else c for mu, c in terms.items()})


def velem(k, n, terms):
    return VElement(k, n, {e: sym(n, g) for e, g in terms.items()})


# --- the swap operator ------------------------------------------------------

def test_t_on_constants_and_linear_terms():
    one2 = velem(2, 2, {(0, 0): {(): 1}})
    y1 = velem(2, 2, {(1, 0): {(): 1}})
    y2 = velem(2, 2, {(0, 1): {(): 1}})
    assert op_t(1, one2) == one2
    # T(u) = v - (q-1) u,  T(v) = q u
    assert op_t(1, y1) == velem(2, 2, {(0, 1): {(): 1}, (1, 0): {(): QPoly((1, -1))}})
    assert op_t(1, y2) == velem(2, 2, {(1, 0): {(): Q}})


def test_t_index_bounds():
    with pytest.raises(ValueError):
        op_t(1, velem(1, 2, {(0,): {(): 1}}))
    with pytest.raises(ValueError):
        op_t(2, velem(2, 2, {(0, 0): {(): 1}}))


def _mul_y(f, slot, power=1):
    return VElement(
        f.k,
        f.n,
        {e[:slot] + (e[slot] + power,) + e[slot + 1 :]: g for e, g in f.terms.items()},
    )


def _swap_y(f, i, j):
    out = {}
    for e, g in f.terms.items():
        e2 = list(e)
        e2[i], e2[j] = e2[j], e2[i]
        out[tuple(e2)] = g
    return VElement(f.k, f.n, out)


@given(velements(k=2, n=3))
@settings(max_examples=60)
def test_t_matches_literal_rational_formula(f):
    # (v - u) * T(P) == (q-1) u P + (v - q u) P(v, u), all in the polynomial ring
    t = op_t(1, f)
    lhs = _mul_y(t, 1) - _mul_y(t, 0)
    swapped = _swap_y(f, 0, 1)
    rhs = _mul_y(f, 0).scale(Q_MINUS_1) + _mul_y(swapped, 1) - _mul_y(swapped, 0).scale(Q)
    assert lhs == rhs


@given(velements(k=2, n=3))
@settings(max_examples=30)
def test_divided_difference_numerator_vanishes_on_diagonal(f):
    # the numerator of the defining fraction is divisible by (v - u):
    # collapsing v to u must kill it
    swapped = _swap_y(f, 0, 1)
    numerator = _mul_y(f, 0).scale(Q_MINUS_1) + _mul_y(swapped, 1) - _mul_y(swapped, 0).scale(Q)
    collapsed = {}
    for e, g in numerator.terms.items():
        key = (e[0] + e[1],)
        acc = collapsed.get(key)
        collapsed[key] = g if acc is None else acc + g
    assert all(g.is_zero() for g in collapsed.values())


# --- raising / lowering / diagonal operators --------------------------------

def test_dplus_from_v0():
    # the operators run in the e-basis: p_1 = e_1 and p_2 = e_1^2 - 2 e_2
    n = 3
    one0 = VElement.one(n)
    p1 = velem(0, n, {(): {(1,): 1}})
    p2 = velem(0, n, {(): {(1, 1): 1, (2,): -2}})
    assert velement_in_p(p1) == VElement.from_sym(GradedSym.p(1, n))
    assert velement_in_p(p2) == VElement.from_sym(GradedSym.p(2, n))
    dp1 = velem(1, n, {(0,): {(1,): 1}, (1,): {(): QPoly((-1, 1))}})
    dp2 = velem(1, n, {(0,): {(1, 1): 1, (2,): -2}, (2,): {(): QPoly((-1, 0, 1))}})
    assert op_dplus(one0) == velem(1, n, {(0,): {(): 1}})
    assert op_dplus(p1) == dp1
    assert op_dplus(p2) == dp2
    # the same values as the p-basis literals
    assert velement_in_p(dp1) == velem(1, n, {(0,): {(1,): 1}, (1,): {(): QPoly((-1, 1))}})
    assert velement_in_p(dp2) == velem(1, n, {(0,): {(2,): 1}, (2,): {(): QPoly((-1, 0, 1))}})
    # e_2[X + (q-1)y] = e_2 + e_1[q-1] e_1 y + e_2[q-1] y^2, e_j[q-1] = (-1)^j (1-q)
    e2 = velem(0, n, {(): {(2,): 1}})
    assert op_dplus(e2) == velem(
        1, n, {(0,): {(2,): 1}, (1,): {(1,): Q_MINUS_1}, (2,): {(): QPoly((1, -1))}}
    )


def test_dminus_examples():
    # d-(y^a) = (-1)^a e_{a+1}, one key in the e-basis
    n = 3
    for a, sign in ((0, 1), (1, -1), (2, 1)):
        out = op_dminus(velem(1, n, {(a,): {(): 1}}))
        assert out == velem(0, n, {(): {(a + 1,): sign}})
        assert velement_in_p(out) == VElement.from_sym(e_in_p(a + 1, n).scale(QQ(sign)))
    with pytest.raises(ValueError):
        op_dminus(VElement.one(3))


def test_phi_examples():
    n = 2
    one1 = velem(1, n, {(0,): {(): 1}})
    assert op_phi(one1) == velem(1, n, {(1,): {(): -1}})
    assert op_phi(velem(1, n, {(1,): {(): 1}})) == velem(1, n, {(2,): {(): -1}})
    # k = 2: phi(1) = T_1(-y_2) = -q y_1
    one2 = velem(2, n, {(0, 0): {(): 1}})
    assert op_phi(one2) == velem(2, n, {(1, 0): {(): -Q}})
    with pytest.raises(ValueError):
        op_phi(VElement.one(2))


# --- the operator identities ------------------------------------------------

@given(velements(k=2, n=4))
@settings(max_examples=60)
def test_quadratic_relation_k2(f):
    g = op_t(1, f)
    assert op_t(1, g + f.scale(Q)) == g + f.scale(Q)


@given(velements(k=3, n=3))
@settings(max_examples=40)
def test_quadratic_relation_k3(f):
    for i in (1, 2):
        g = op_t(i, f)
        assert op_t(i, g + f.scale(Q)) == g + f.scale(Q)


@given(velements(k=3, n=3))
@settings(max_examples=40)
def test_phi_commutes_past_t(f):
    # phi T_i = T_{i+1} phi for i <= k-2
    assert op_phi(op_t(1, f)) == op_t(2, op_phi(f))


@given(velements(k=2, n=3))
@settings(max_examples=40)
def test_phi_squared_t(f):
    # phi^2 T_{k-1} = T_1 phi^2
    assert op_phi(op_phi(op_t(1, f))) == op_t(1, op_phi(op_phi(f)))


@given(velements(k=3, n=3))
@settings(max_examples=40)
def test_phi_squared_t_k3(f):
    assert op_phi(op_phi(op_t(2, f))) == op_t(1, op_phi(op_phi(f)))


@given(velements(k=3, n=3))
@settings(max_examples=40)
def test_dminus_commutes_past_t(f):
    # d- T_i = T_i d- for i <= k-2
    assert op_dminus(op_t(1, f)) == op_t(1, op_dminus(f))


@given(velements(k=2, n=3))
@settings(max_examples=40)
def test_dminus_squared_absorbs_t(f):
    # d-^2 T_{k-1} = d-^2
    assert op_dminus(op_dminus(op_t(1, f))) == op_dminus(op_dminus(f))


@given(velements(k=2, n=3))
@settings(max_examples=40)
def test_dminus_phi_t(f):
    # d- phi T_{k-1} = q phi d-
    assert op_dminus(op_phi(op_t(1, f))) == op_phi(op_dminus(f)).scale(Q)


@given(velements(k=2, n=3))
@settings(max_examples=40)
def test_t_phi_dplus(f):
    # T_1 phi d+ = q d+ phi
    assert op_t(1, op_phi(op_dplus(f))) == op_dplus(op_phi(f)).scale(Q)


@given(velements(k=1, n=3))
@settings(max_examples=40)
def test_aux_phi_dplus(f):
    # phi d+ = T_1 d+ phi + (q-1) d+ phi
    dpf = op_dplus(op_phi(f))
    assert op_phi(op_dplus(f)) == op_t(1, dpf) + dpf.scale(Q_MINUS_1)


@given(velements(k=3, n=3))
@settings(max_examples=40)
def test_aux_phi_dminus(f):
    # phi d- T_{k-1} = d- phi - (q-1) phi d-
    lhs = op_phi(op_dminus(op_t(2, f)))
    assert lhs == op_dminus(op_phi(f)) - op_phi(op_dminus(f)).scale(Q_MINUS_1)


@given(velements(k=2, n=4))
@settings(max_examples=40)
def test_phi_equals_commutator_route(f):
    assert op_phi(f) == op_phi_commutator(f)


@given(velements(k=1, n=3))
@settings(max_examples=40)
def test_phi_equals_commutator_route_k1(f):
    assert op_phi(f) == op_phi_commutator(f)


def test_commutator_divisibility_guard():
    # a blunt non-commutator input: d-d+ alone is not divisible by (q-1)
    f = VElement.one(2)
    with pytest.raises(ArithmeticError):
        comm = op_dminus(op_dplus(retruncate(f, 3)))
        for e, g in comm.terms.items():
            for mu, c in g.terms.items():
                divexact_qminus1(c)


@given(graded_syms(n=4))
@settings(max_examples=40)
def test_ekoperator(g):
    # d- phi^m d+ acts on V_0 as multiplication by e_{m+1}
    f = VElement.from_sym(g)
    for m in range(4):
        out = op_dplus(f)
        for _ in range(m):
            out = op_phi(out)
        out = op_dminus(out)
        assert out == mul_sym(f, GradedSym(4, {(m + 1,): ONE}))
        assert velement_in_p(out) == mul_sym(velement_in_p(f), e_in_p(m + 1, 4))


# --- word evaluation ---------------------------------------------------------

def test_eval_word_anchors():
    assert eval_word(parse_word("-+")) == e_in_p(1, 1)
    assert eval_word(parse_word("-0+")) == e_in_p(2, 2)
    n = 4
    expected = e_mu_in_p((3, 1), n).scale(Q) + e_mu_in_p((4,), n).scale(Q * Q_MINUS_1)
    assert eval_word(parse_word("-0-0++")) == expected
    assert eval_in_e(parse_word("-0-0++")) == GradedSym(n, {(3, 1): Q, (4,): Q * Q_MINUS_1})
    assert eval_in_e(parse_word("-0+")).retruncate(5) == GradedSym(5, {(2,): ONE})


def test_eval_word_rejects_bad_words():
    for evaluate in (eval_word, eval_in_e):
        with pytest.raises(WordError):
            evaluate(parse_word("+-"))
        with pytest.raises(WordError):
            evaluate(parse_word("0-+"))
        with pytest.raises(WordError):
            evaluate(parse_word("-0"))


def _plain_eval_in_e(word, n):
    """eval_in_e's reference: the whole word applied letter by letter."""
    res = apply_word(word, VElement.one(n))
    if res.k != 0:
        raise WordError("word does not return to the diagonal", len(word))
    return res.sym_part()


def test_eval_in_e_is_the_product_over_primitive_factors():
    # Lemma (the paper's corollary): a word that returns to the diagonal acts
    # on V_0 as multiplication by its value at 1, so d_{P1...Pr}(1) is the
    # product of the d_{Pi}(1).  eval_in_e's factored route against the whole
    # word applied letter by letter, on every composite word of semilength
    # <= 6 and at every truncation from the semilength to two above it.
    composite = [w for w in iter_paths_upto(6) if len(primitive_factors(w)) > 1]
    assert len(composite) == 645
    for w in composite:
        s = semilength(w)
        for n in range(s, s + 3):
            assert eval_in_e(w).retruncate(n) == _plain_eval_in_e(w, n), (render_word(w), n)


def test_invalid_words_are_refused_as_the_reference_refuses_them():
    # every invalid word of length <= 6 takes the letter-by-letter route:
    # the same message at the same position as the reference
    assert len(INVALID_WORDS_UPTO_LENGTH_6) == 1093 - 27
    for w in INVALID_WORDS_UPTO_LENGTH_6:
        s = semilength(w)
        want = outcome(_plain_eval_in_e, w, s)
        assert want[0] == "WordError", render_word(w)
        assert outcome(eval_in_e, w) == want, render_word(w)
        assert outcome(eval_word, w) == want, render_word(w)


def test_operator_oracle_stays_in_integer_polynomials():
    # Lemma: in the e-basis the alphabet shift has Z[q] scalars and the
    # product with e_{a+1} merges a key, so d_P(1) is computed in Z[q] and
    # stored with int coefficients.  A Fraction scalar in the shift fails here.
    for w in iter_paths_upto(5):
        g = eval_in_e(w)
        assert g.terms, render_word(w)
        for c in g.terms.values():
            assert isinstance(c, QPoly) and all(type(x) is int for x in c.coeffs), render_word(w)


def test_apply_word_on_nontrivial_input():
    n = 3
    f = VElement.from_sym(GradedSym.p(2, n))
    out = apply_word(parse_word("-+"), f)
    assert out == mul_sym(f, e_in_p(1, n))


def test_eval_word_truncation_override():
    w = parse_word("-0+")
    assert eval_word(w, 5) == e_in_p(2, 5)
