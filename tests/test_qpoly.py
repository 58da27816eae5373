from fractions import Fraction

import pytest
import hypothesis.strategies as st
from hypothesis import given

from conftest import qpolys
from reference_qpoly import divexact_qminus1, from_qminus1, parse_qpoly, rebase_qminus1_by_division
from vsllt.qpoly import ONE, Q, Q_MINUS_1, QPoly, ZERO, accumulate, render_qpoly


def test_canonical_form_strips_trailing_zeros():
    assert QPoly((1, 2, 0, 0)).coeffs == (1, 2)
    assert QPoly((0, 0)).coeffs == ()
    assert QPoly() == ZERO


def test_ring_arithmetic():
    assert Q + Q_MINUS_1 * ONE == QPoly((-1, 2))  # q + (q-1) = 2q - 1
    assert Q * Q_MINUS_1 == QPoly((0, -1, 1))  # q(q-1) = q^2 - q
    assert ZERO * QPoly((3, 5, 7)) == ZERO
    assert Q - Q == ZERO
    assert QPoly((1, 1)) * QPoly((1, 1)) == QPoly((1, 2, 1))


def test_shift_plus_one_examples():
    assert (Q * Q_MINUS_1).shift_plus_one() == QPoly((0, 1, 1))  # q^2 + q
    assert QPoly.const(Fraction(7, 3)).shift_plus_one() == QPoly.const(Fraction(7, 3))
    assert (Q * Q).shift_plus_one() == QPoly((1, 2, 1))


def test_rebase_examples():
    assert Q.rebase_qminus1() == (1, 1)
    assert (Q * Q_MINUS_1).rebase_qminus1() == (0, 1, 1)
    assert (Q * Q).rebase_qminus1() == (1, 2, 1)
    assert ZERO.rebase_qminus1() == rebase_qminus1_by_division(ZERO) == ()


def _fraction_qpolys(max_deg=5):
    coeffs = st.fractions(min_value=-4, max_value=4, max_denominator=6)
    return st.lists(coeffs, max_size=max_deg + 1).map(QPoly)


@given(st.one_of(qpolys(max_deg=6, lo=-50, hi=50), _fraction_qpolys()))
def test_rebase_matches_repeated_division(p):
    # rebase_qminus1 is the Taylor shift; repeated synthetic division by
    # (q-1) is the independent route to the same digits
    assert p.rebase_qminus1() == rebase_qminus1_by_division(p)


@given(qpolys(max_deg=5))
def test_rebase_round_trip(p):
    assert from_qminus1(p.rebase_qminus1()) == p


@given(qpolys(), qpolys())
def test_shift_is_ring_homomorphism(a, b):
    assert (a * b).shift_plus_one() == a.shift_plus_one() * b.shift_plus_one()
    assert (a + b).shift_plus_one() == a.shift_plus_one() + b.shift_plus_one()


@given(qpolys(max_deg=4, lo=0, hi=5))
def test_positivity_transfer(c):
    # nonnegative in the (q-1) basis => nonnegative after q -> q+1
    a = from_qminus1(c.coeffs)
    assert a.shift_plus_one().is_nonneg()


def test_is_nonneg():
    assert QPoly((0, 1, 1)).is_nonneg()  # q^2 + q
    assert not Q_MINUS_1.is_nonneg()  # q - 1
    assert ZERO.is_nonneg()
    assert not QPoly((Fraction(-1, 2),)).is_nonneg()
    assert QPoly((Fraction(1, 2),)).is_nonneg()


def test_divexact_qminus1():
    p = QPoly((3, 0, 2))
    assert divexact_qminus1(p * Q_MINUS_1) == p
    with pytest.raises(ArithmeticError):
        divexact_qminus1(Q)


@given(qpolys(max_deg=5))
def test_divexact_undoes_multiplication(p):
    assert divexact_qminus1(p * Q_MINUS_1) == p


@given(qpolys(max_deg=5))
def test_divexact_raises_exactly_when_p1_nonzero(p):
    if p(Fraction(1)) != 0:
        with pytest.raises(ArithmeticError):
            divexact_qminus1(p)
    else:
        assert divexact_qminus1(p) * Q_MINUS_1 == p


@given(qpolys(max_deg=5, nonzero=True))
def test_rebase_constant_term_is_value_at_one(p):
    assert p.rebase_qminus1()[0] == p(Fraction(1))


@pytest.mark.parametrize(
    "zero, one",
    [(ZERO, ONE), (0, 1)],
    ids=["QPoly", "int"],
)
def test_accumulate(zero, one):
    terms = {}
    accumulate(terms, "a", zero)
    assert terms == {}  # a zero value on an absent key inserts nothing
    accumulate(terms, "a", one)
    accumulate(terms, "b", one)
    accumulate(terms, "b", one)
    assert terms == {"a": one, "b": one + one}
    accumulate(terms, "a", -one)
    assert terms == {"b": one + one}  # a sum that cancels removes the key
    accumulate(terms, "b", zero)
    assert terms == {"b": one + one}


def test_render():
    assert render_qpoly(Q * Q_MINUS_1) == "q^2 - q"
    assert render_qpoly(ZERO) == "0"
    assert render_qpoly(QPoly((Fraction(-1, 2), 0, 2))) == "2q^2 - 1/2"
    assert render_qpoly(QPoly((1, 1))) == "q + 1"
    assert render_qpoly(-Q) == "-q"


@given(qpolys(max_deg=5))
def test_render_parse_round_trip(p):
    assert parse_qpoly(render_qpoly(p)) == p


def test_parse_variants():
    assert parse_qpoly("2*q^3 + q - 1/2") == QPoly((Fraction(-1, 2), 1, 0, 2))
    assert parse_qpoly("q^2-q") == Q * Q_MINUS_1
    with pytest.raises(ValueError):
        parse_qpoly("q^2 + banana")


def test_json_coefficients():
    assert (Q * Q_MINUS_1).to_json() == ["0", "-1", "1"]
    assert QPoly((Fraction(1, 2),)).to_json() == ["1/2"]


def test_bool_coefficients_are_stored_as_int():
    p = QPoly((True, False, 1))
    assert p.coeffs == (1, 0, 1)
    assert [type(c) for c in p.coeffs] == [int, int, int]
    assert p.to_json() == ["1", "0", "1"]
    assert QPoly.monomial(2, True).to_json() == ["0", "0", "1"]


def test_float_coefficients_are_refused():
    with pytest.raises(TypeError):
        QPoly((0.5,))
    with pytest.raises(TypeError):
        QPoly((1, 2.0))
    with pytest.raises(TypeError):
        QPoly.const(1.0)


def test_fraction_and_int_forms_are_one_polynomial():
    a, b = QPoly((Fraction(2), 1)), QPoly((2, 1))
    assert a == b
    assert hash(a) == hash(b)
    assert {a: "x"}[b] == "x"
    assert a.to_json() == b.to_json() == ["2", "1"]
    assert render_qpoly(a) == render_qpoly(b) == "q + 2"
    assert a == 2 + Q and QPoly((Fraction(3),)) == 3


def test_integral_inputs_give_int_coefficients():
    assert [type(c) for c in parse_qpoly("2*q^3 + q - 4/2").coeffs] == [int] * 4
    assert type(parse_qpoly("q - 1/2").coeffs[0]) is Fraction
    assert [type(c) for c in QPoly(("3", "-1")).coeffs] == [int, int]
    # a genuine fraction survives mixed arithmetic exactly
    half = QPoly((Fraction(1, 2),))
    assert (half * QPoly((2, 2))).coeffs == (1, 1)
    assert (half + ONE).coeffs == (Fraction(3, 2),)


def _as_fractions(p):
    f = QPoly(tuple(Fraction(c) for c in p.coeffs))
    assert all(type(c) is Fraction for c in f.coeffs)
    return f


def _ints(p):
    return all(type(c) is int for c in p.coeffs)


@given(qpolys(max_deg=5), qpolys(max_deg=5))
def test_int_arithmetic_matches_fraction_arithmetic(a, b):
    fa, fb = _as_fractions(a), _as_fractions(b)
    for got, want in [
        (a + b, fa + fb),
        (a * b, fa * fb),
        (a - b, fa - fb),
        (a.shift_plus_one(), fa.shift_plus_one()),
        (divexact_qminus1(a * Q_MINUS_1), divexact_qminus1(fa * Q_MINUS_1)),
    ]:
        assert got == want
        assert _ints(got)
    assert a.rebase_qminus1() == fa.rebase_qminus1()
    assert all(type(c) is int for c in a.rebase_qminus1())


@given(qpolys(max_deg=5))
def test_products_by_q_and_q_minus_1_take_values_of_the_product(p):
    # the rules' scalars q and q-1 as operands of the general product; a
    # product of degree <= 6 is fixed by its values at seven points,
    # whichever operand comes first
    for scalar in (Q, Q_MINUS_1):
        for got in (p * scalar, scalar * p):
            assert all(got(x) == p(x) * scalar(x) for x in range(-3, 4))
            assert got.coeffs == QPoly(got.coeffs).coeffs  # canonical
            assert _ints(got) == _ints(p)


def _schoolbook_sum(a, b):
    n = max(len(a), len(b))
    return [(a[i] if i < len(a) else 0) + (b[i] if i < len(b) else 0) for i in range(n)]


def _schoolbook_product(a, b):
    out = [0] * max(len(a) + len(b) - 1, 0)
    for i, x in enumerate(a):
        for j, y in enumerate(b):
            out[i + j] += x * y
    return out


def _canonical_coeffs(cs):
    while cs and cs[-1] == 0:
        cs.pop()
    return tuple(cs)


exact_coeffs = st.one_of(
    st.integers(-4, 4), st.fractions(min_value=-3, max_value=3, max_denominator=4)
)
# zero, a constant, or a polynomial of degree <= 4, over ints or Fractions
exact_qpolys = st.one_of(
    st.just(ZERO),
    st.builds(QPoly.const, exact_coeffs),
    st.lists(exact_coeffs, max_size=5).map(QPoly),
    st.lists(st.integers(-4, 4), max_size=5).map(QPoly),
)


@given(exact_qpolys, exact_qpolys)
def test_sum_and_product_match_the_schoolbook_forms(a, b):
    # __add__ merges with map and __mul__ scales by a constant in one pass;
    # both must agree with the coefficient-by-coefficient definitions
    for got, want in [
        (a + b, _schoolbook_sum(a.coeffs, b.coeffs)),
        (a * b, _schoolbook_product(a.coeffs, b.coeffs)),
        (b * a, _schoolbook_product(a.coeffs, b.coeffs)),
    ]:
        assert got.coeffs == _canonical_coeffs(want)
        assert not got.coeffs or got.coeffs[-1] != 0
        if _ints(a) and _ints(b):
            assert _ints(got)


def test_evaluation():
    p = QPoly((1, -3, 2))
    assert p(Fraction(1)) == 0
    assert p(Fraction(1, 2)) == 0
    assert p(Fraction(2)) == 3
