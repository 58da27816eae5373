from itertools import permutations

import pytest
from hypothesis import given, settings
import hypothesis.strategies as st

from vsllt.llt import (
    area_and_crosses,
    attack_pairs,
    cell_count,
    llt_in_vars,
    oracle_compare,
    parse_strips,
    reading_order,
    render_strips,
    ssyt_generating_function,
    to_schroeder_word,
)
from conftest import all_strip_tuples
from reference_llt import llt_in_vars as reference_llt_in_vars
from reference_llt import ssyt_generating_function as reference_ssyt
from vsllt.paths import parse_word, render_word, validate_word
from vsllt.qpoly import ONE, QPoly

# the running ten-cell example: six strips, heights 2,2,1,1,2,2
BIG = parse_strips("0:2;-2:2;-1:1;1:1;-3:2;-1:2")
LETTERS = "abcdefghij"


def test_parse_and_render():
    assert parse_strips("0:2;-2:2") == ((0, 2), (-2, 2))
    assert parse_strips("") == ()
    assert render_strips(BIG) == "0:2;-2:2;-1:1;1:1;-3:2;-1:2"
    with pytest.raises(ValueError):
        parse_strips("0:0")
    with pytest.raises(ValueError):
        parse_strips("1;2")
    assert cell_count(BIG) == 10


def test_reading_order_big_example():
    # 1-based strip numbers against the worked picture
    assert [(s + 1, d) for s, d in reading_order(BIG)] == [
        (5, -3), (2, -2), (5, -2), (2, -1), (3, -1),
        (6, -1), (1, 0), (6, 0), (1, 1), (4, 1),
    ]


def test_reading_order_small():
    assert reading_order(parse_strips("0:1")) == [(0, 0)]
    assert reading_order(parse_strips("0:1;0:1")) == [(0, 0), (1, 0)]


def test_attack_pairs_big_example():
    expected = {
        ("a", "b"), ("b", "c"), ("c", "d"), ("c", "e"), ("d", "e"),
        ("d", "f"), ("d", "g"), ("e", "f"), ("e", "g"), ("f", "g"),
        ("g", "h"), ("h", "i"), ("h", "j"), ("i", "j"),
    }
    got = {(LETTERS[p - 1], LETTERS[r - 1]) for p, r in attack_pairs(BIG)}
    assert got == expected


def test_attack_pairs_small():
    assert attack_pairs(parse_strips("0:1;0:1")) == {(1, 2)}
    assert attack_pairs(parse_strips("0:2")) == set()


def test_area_and_crosses_big_example():
    area, crosses = area_and_crosses(BIG)
    assert area == (0, 1, 1, 1, 2, 2, 3, 1, 1, 2)
    assert sorted((p, r) for r, p in crosses.items()) == [(1, 3), (2, 4), (6, 8), (7, 9)]


def test_area_and_crosses_small():
    assert area_and_crosses(parse_strips("0:2")) == ((0, 0), {2: 1})
    assert area_and_crosses(parse_strips("0:1;0:1")) == ((0, 1), {})


def test_to_schroeder_word():
    assert render_word(to_schroeder_word(BIG), compact=False) == \
        "-,-,0,0,-,+,-,-,+,+,0,0,-,+,+,+"
    assert to_schroeder_word(parse_strips("0:1")) == parse_word("-+")
    assert to_schroeder_word(parse_strips("0:2")) == parse_word("-0+")
    assert to_schroeder_word(parse_strips("0:1;0:1")) == parse_word("--++")
    assert to_schroeder_word(()) == ()


def test_ssyt_small_cases():
    assert ssyt_generating_function(parse_strips("0:2"), 2) == {(1, 1): ONE}
    two = ssyt_generating_function(parse_strips("0:1;0:1"), 2)
    assert two == {(2, 0): ONE, (0, 2): ONE, (1, 1): QPoly((1, 1))}
    assert ssyt_generating_function((), 1) == {(0,): ONE}


def test_oracle_compare_examples():
    assert oracle_compare(parse_strips("0:2"))
    assert oracle_compare(parse_strips("0:1;0:1"))
    assert oracle_compare(())
    assert oracle_compare(parse_strips("0:1;-1:2;1:1"))


@st.composite
def strip_tuples(draw, max_strips=3, max_cells=6):
    count = draw(st.integers(0, max_strips))
    strips = []
    cells = 0
    for _ in range(count):
        h = draw(st.integers(1, max(1, max_cells - cells)))
        d = draw(st.integers(-2, 2))
        strips.append((d, h))
        cells += h
        if cells >= max_cells:
            break
    return tuple(strips)


@given(strip_tuples(max_cells=8))
@settings(max_examples=60, deadline=None)
def test_area_word_always_valid(strips):
    # contiguous attackers, a_1 = 0, unit rises only, crosses on valleys
    area, crosses = area_and_crosses(strips)
    if area:
        assert area[0] == 0
    word = to_schroeder_word(strips)
    validate_word(word)
    assert sum(1 for t in word if t == "0") == len(crosses)


@given(strip_tuples(max_cells=5), st.integers(2, 3))
@settings(max_examples=30, deadline=None)
def test_ssyt_output_is_symmetric(strips, nvars):
    poly = ssyt_generating_function(strips, nvars)
    for e, c in poly.items():
        for perm in permutations(e):
            assert poly.get(perm) == c


@given(strip_tuples(max_cells=3))
@settings(max_examples=25, deadline=None)
def test_oracle_on_random_small_tuples(strips):
    assert oracle_compare(strips)


def test_llt_in_vars_matches_direct_small():
    strips = parse_strips("0:2;0:1")
    assert llt_in_vars(strips, 3) == ssyt_generating_function(strips, 3)


def test_tableau_tally_matches_per_filling_reference():
    # every criterion-6 tuple, in as many variables as cells, plus a few
    # variable counts that leave some variables unused or force repeats
    tuples = sorted(set(all_strip_tuples(5, 3, range(-2, 3))))
    assert len(tuples) == 1526
    for t in tuples:
        nvars = max(cell_count(t), 1)
        got = ssyt_generating_function(t, nvars)
        assert got == reference_ssyt(t, nvars), render_strips(t)
        assert all(type(x) is int for c in got.values() for x in c.coeffs)
    for t in (parse_strips("0:2;0:2;0:1"), parse_strips("0:1;-1:2;1:1"), ()):
        for nvars in (1, 2, 6):
            assert ssyt_generating_function(t, nvars) == reference_ssyt(t, nvars)


def test_operator_side_matches_p_basis_reference():
    # the integer e -> monomial bridge against the rational p-basis route:
    # every criterion-6 tuple at nvars = cells, then variable counts below
    # and above the cell count
    tuples = sorted(set(all_strip_tuples(5, 3, range(-2, 3))))
    assert len(tuples) == 1526
    cases = [(t, max(cell_count(t), 1)) for t in tuples] + [
        (t, nvars)
        for t in (parse_strips("0:2;0:2;0:1"), parse_strips("0:1;-1:2;1:1"), ())
        for nvars in (1, 2, 6)
    ]
    for t, nvars in cases:
        got = llt_in_vars(t, nvars)
        assert got == reference_llt_in_vars(t, nvars), (render_strips(t), nvars)
        assert all(type(x) is int for c in got.values() for x in c.coeffs)
