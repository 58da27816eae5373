from collections import Counter
from functools import cache
from itertools import accumulate, combinations, permutations
from math import comb, factorial, prod

import pytest
from hypothesis import given, settings
import hypothesis.strategies as st

from vsllt import llt
from vsllt.llt import (
    _operator_side,
    _state_bits,
    _tableau_key,
    _tableau_sum,
    area_and_crosses,
    cell_count,
    llt_in_vars,
    parse_strips,
    reading_order,
    render_strips,
    ssyt_generating_function,
    to_schroeder_word,
)
from conftest import all_strip_tuples
from reference_llt import attack_pairs
from reference_llt import llt_in_vars as reference_llt_in_vars
from reference_llt import oracle_compare
from reference_llt import ssyt_generating_function as reference_ssyt
from reference_symfunc import m_projection
from vsllt.paths import parse_word, render_word, validate_word
from vsllt.qpoly import ONE, QPoly
from vsllt.rewrite import expand_word
from vsllt.symfunc import e_expansion_in_m

# the running ten-cell example: six strips, heights 2,2,1,1,2,2
BIG = parse_strips("0:2;-2:2;-1:1;1:1;-3:2;-1:2")
LETTERS = "abcdefghij"
# the criterion-6 tuples of these tests: <= 5 cells, <= 3 strips (the
# acceptance sweep itself goes to 6 cells and 4 strips)
CRITERION_6 = sorted(set(all_strip_tuples(5, 3, range(-2, 3))))


@cache
def reference_m(strips, nvars):
    """The per-filling reference's m_lam coefficients, once per test run."""
    return m_projection(reference_ssyt(strips, nvars))


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


def _brute_area_and_crosses(strips):
    """Per cell, count its attackers among all cells straight from the
    definition, and find the cell directly below it in its strip."""
    cells = reading_order(strips)
    area = tuple(
        sum(1 for sp, dp in cells if (dp == dr and sp < sr) or (dp == dr - 1 and sp > sr))
        for sr, dr in cells
    )
    crosses = {
        r: cells.index((sr, dr - 1)) + 1
        for r, (sr, dr) in enumerate(cells, 1)
        if (sr, dr - 1) in cells
    }
    return area, crosses


def test_area_and_crosses_matches_per_cell_count():
    tuples = sorted(set(all_strip_tuples(5, 3, range(-2, 3))))
    assert len(tuples) == 1526
    big = parse_strips(";".join([render_strips(BIG)] * 30))
    assert cell_count(big) == 300
    for t in tuples + [big]:
        assert area_and_crosses(t) == _brute_area_and_crosses(t), render_strips(t)


def test_area_and_crosses_on_large_tuples():
    # exact answers where listing the attack pairs would not scale: one tall
    # strip has no attackers, only crosses; 3000 one-cell strips on one
    # diagonal have about 4.5 million attack pairs and no crosses
    area, crosses = area_and_crosses(((0, 20000),))
    assert area == (0,) * 20000
    assert crosses == {r: r - 1 for r in range(2, 20001)}
    area, crosses = area_and_crosses(((0, 1),) * 3000)
    assert area == tuple(range(3000))
    assert crosses == {}


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
    assert two == {(2,): ONE, (1, 1): QPoly((1, 1))}
    assert ssyt_generating_function((), 1) == {(): ONE}
    assert ssyt_generating_function(parse_strips("0:2"), 1) == {}


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


def _is_symmetric(poly):
    return all(poly.get(perm) == c for e, c in poly.items() for perm in permutations(e))


@given(strip_tuples(max_cells=5), st.integers(2, 3))
@settings(max_examples=30, deadline=None)
def test_ssyt_output_is_symmetric(strips, nvars):
    # the library keeps only the m_lam coefficients, so the symmetry that
    # makes them enough is checked on the per-filling sum in every variable
    assert _is_symmetric(reference_ssyt(strips, nvars))


def test_per_filling_tableau_sum_is_symmetric_on_small_tuples():
    # every criterion-6 tuple of at most 4 cells, in as many variables as cells
    tuples = [t for t in set(all_strip_tuples(5, 3, range(-2, 3))) if cell_count(t) <= 4]
    assert len(tuples) == 671
    for t in tuples:
        assert _is_symmetric(reference_ssyt(t, max(cell_count(t), 1))), render_strips(t)


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
    assert len(CRITERION_6) == 1526
    for t in CRITERION_6:
        nvars = max(cell_count(t), 1)
        got = ssyt_generating_function(t, nvars)
        assert got == reference_m(t, nvars), render_strips(t)
        assert all(type(x) is int for c in got.values() for x in c.coeffs)
    # the first two strips of 0:3;1:2;-1:2 attack each other both ways (same
    # diagonal, and one diagonal up); at 1 or 2 variables its tall strips,
    # and those of 0:2;-1:3;1:1, have no filling at all
    both_ways = parse_strips("0:3;1:2;-1:2")
    strip_of = [s for s, _ in reading_order(both_ways)]
    assert {(strip_of[p - 1], strip_of[r - 1]) for p, r in attack_pairs(both_ways)} >= {
        (0, 1),
        (1, 0),
    }
    for t in (
        parse_strips("0:2;0:2;0:1"),
        parse_strips("0:1;-1:2;1:1"),
        (),
        both_ways,
        parse_strips("0:2;-1:3;1:1"),
    ):
        for nvars in (1, 2, 6):
            want = m_projection(reference_ssyt(t, nvars))
            assert ssyt_generating_function(t, nvars) == want, (t, nvars)


def _inversion_total(strips, nvars):
    """Sum of the inversions over all fillings, one attack pair at a time:
    a pair inverts in as many fillings as its two strips' fillings put a
    smaller value at p than at r, times the fillings of the other strips."""
    cells = reading_order(strips)
    counts = [comb(nvars, h) for _, h in strips]
    total = 0
    for p, r in attack_pairs(strips):
        (sp, dp), (sr, dr) = cells[p - 1], cells[r - 1]
        jp, jr = dp - strips[sp][0], dr - strips[sr][0]
        low = combinations(range(1, nvars + 1), strips[sp][1])
        high = list(combinations(range(1, nvars + 1), strips[sr][1]))
        hits = sum(fp[jp] < fr[jr] for fp in low for fr in high)
        total += hits * prod(c for s, c in enumerate(counts) if s not in (sp, sr))
    return total


def _monomials_in(lam, nvars):
    """The number of distinct rearrangements of lam, padded with zeros to
    nvars entries: the monomials of m_lam in nvars variables."""
    multiplicities = Counter(lam + (0,) * (nvars - len(lam))).values()
    return factorial(nvars) // prod(map(factorial, multiplicities))


@pytest.mark.parametrize(
    "text, nvars",
    [("0:2;0:2;0:1;-1:1", 10), ("0:3;1:2;-1:2", 9), (";".join(["0:1"] * 6), 7), ("0:3;1:2;-1:2", 2)],
)
def test_tableau_sum_counts_every_filling(text, nvars):
    # each m_lam coefficient stands for that many monomials, so at q = 1 the
    # weighted coefficients add up to the number of fillings, one C(nvars, h)
    # per strip, and their derivatives at q = 1 to the inversions summed pair
    # by pair; tuples too big for the per-filling reference
    strips = parse_strips(text)
    m = ssyt_generating_function(strips, nvars)
    weight = {lam: _monomials_in(lam, nvars) for lam in m}
    assert sum(weight[lam] * c(1) for lam, c in m.items()) == \
        prod(comb(nvars, h) for _, h in strips)
    assert sum(weight[lam] * i * x for lam, c in m.items() for i, x in enumerate(c.coeffs)) == \
        _inversion_total(strips, nvars)


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
    # the reference is a function of the tuple's e-expansion, its cell count
    # and nvars; the 1535 cases share 71 of those, so each is computed once
    references = {}
    for t, nvars in cases:
        expansion = expand_word(to_schroeder_word(t))
        key = (frozenset(expansion.items()), cell_count(t), nvars)
        if key not in references:
            references[key] = reference_llt_in_vars(t, nvars)
        got = llt_in_vars(t, nvars)
        assert got == m_projection(references[key]), (render_strips(t), nvars)
        assert all(type(x) is int for c in got.values() for x in c.coeffs)
    assert len(references) == 71


def test_llt_at_q_1_is_the_product_of_e_heights():
    # Lemma: at q = 1 every filling scores 1, so an LLT polynomial of
    # vertical strips is the product of e_h over the strips' heights h; the
    # rewritten e-expansion at q = 1 must be e_mu alone, mu the sorted
    # heights.  Every criterion-6 tuple, then tuples up to the 14-cell
    # expand cap, where no tableau sum can follow; the 14 one-cell strips on
    # one diagonal give -^14 +^14, the costliest word of semilength 14.
    tuples = sorted(set(all_strip_tuples(5, 3, range(-2, 3))))
    assert len(tuples) == 1526
    tuples += [
        BIG,
        parse_strips("0:14"),
        parse_strips("0:7;0:7"),
        parse_strips("0:3;-1:4;2:2;1:5"),
        parse_strips("0:2;-2:2;-1:1;1:1;-3:2;-1:2;0:4"),
        parse_strips(";".join(f"{d}:1" for d in range(-6, 7))),
        parse_strips("0:1;1:1;0:2;-1:3;2:1;0:2;1:1;-2:2"),
        ((0, 1),) * 14,
    ]
    for t in tuples:
        assert cell_count(t) <= 14
        at_1 = {mu: c(1) for mu, c in expand_word(to_schroeder_word(t)).items()}
        heights = tuple(sorted((h for _, h in t), reverse=True))
        assert {mu: v for mu, v in at_1.items() if v} == {heights: 1}, render_strips(t)


def test_count_matches_the_per_filling_reference_at_every_nvars():
    # Lemma: placing the values one at a time, each step adding the attack
    # pairs whose later cell it fills and whose earlier cell holds a smaller
    # value, counts every filling of partition content once with its
    # inversions.  Every criterion-6 tuple at every nvars from 1 to its
    # cells; counting at the smaller value, or counting the pairs of equal
    # values too, fails here
    for t in CRITERION_6:
        for nvars in range(1, max(cell_count(t), 1) + 1):
            assert ssyt_generating_function(t, nvars) == reference_m(t, nvars), (render_strips(t), nvars)


def _unpacked_count(heights, attacks, nvars):
    """_tableau_sum's count with one {inversions: count} dict per state
    instead of a packed int, on the same prefixes and steps.  Returns the
    m_lam coefficients as {lam: {inversions: count}} and the largest count
    that any state, finished or not, holds."""
    offsets = list(accumulate(heights, initial=0))
    largest = 0
    found = {}

    def walk(lam, states, left):
        nonlocal largest
        largest = max([largest] + [c for poly in states.values() for c in poly.values()])
        if not left:
            found[lam] = states[heights]
            return
        for part in range(min(lam[-1] if lam else len(heights), left), 0, -1):
            if left - part > (nvars - len(lam) - 1) * part:
                break
            out = {}
            for levels, poly in states.items():
                filled = sum((1 << offsets[s] + f) - (1 << offsets[s]) for s, f in enumerate(levels))
                free = [s for s, f in enumerate(levels) if f < heights[s]]
                for new in combinations(free, part):
                    inv = sum((attacks[offsets[s] + levels[s]] & filled).bit_count() for s in new)
                    after = list(levels)
                    for s in new:
                        after[s] += 1
                    into = out.setdefault(tuple(after), Counter())
                    for i, c in poly.items():
                        into[i + inv] += c
            if out:
                walk(lam + (part,), out, left - part)

    walk((), {(0,) * len(heights): Counter({0: 1})}, len(attacks))
    return found, largest


def test_every_state_digit_fits_the_width():
    # Lemma: every state of the count, finished or not, holds at most
    # min(prod C(strips, lam_i), prod C(nvars, min(h, nvars // 2))) fillings
    # in any one q-digit, below 2**_state_bits, so the packed ints never
    # carry.  The count run unpacked gives the library's coefficients, on
    # every attack structure of at most 6 cells and 4 strips at 2 and 3
    # variables, and on the criterion-6 ones at every nvars up to the cells;
    # some states need every bit of the width, so one bit fewer fails here
    keys = {_tableau_key(t) for t in set(all_strip_tuples(6, 4, range(-2, 3))) if t}
    assert len(keys) == 3095
    cases = [(key, nvars) for key in keys for nvars in (2, 3) if nvars <= len(key[1])]
    cases += [
        (key, nvars)
        for key in {_tableau_key(t) for t in CRITERION_6[1:]}
        for nvars in range(1, len(key[1]) + 1)
    ]
    tight = set()
    for (heights, attacks), nvars in cases:
        found, largest = _unpacked_count(heights, attacks, nvars)
        bits = _state_bits(heights, nvars)
        assert largest < 1 << bits, (heights, attacks, nvars)
        want = {lam: QPoly([poly[i] for i in range(max(poly) + 1)]) for lam, poly in found.items()}
        assert dict(_tableau_sum(heights, attacks, nvars)) == want, (heights, attacks, nvars)
        if largest >> bits - 1:
            tight.add((heights, nvars))
    assert {((1, 5), 3), ((2, 2, 2), 2), ((3, 3), 3)} <= tight


def test_attack_masks_are_the_attack_pairs():
    # the key's masks, built in two passes over the strips, against the
    # attack pairs listed pair by pair: bit x of cell r's mask is set iff
    # (x, r) attacks, cells numbered in (strip, level) order
    for t in CRITERION_6[1:] + [BIG]:
        heights, masks = _tableau_key(t)
        assert heights == tuple(h for _, h in t)
        offsets = list(accumulate(heights, initial=0))
        number = [offsets[s] + d - t[s][0] for s, d in reading_order(t)]
        want = [0] * cell_count(t)
        for p, r in attack_pairs(t):
            want[number[r - 1]] |= 1 << number[p - 1]
        assert masks == tuple(want), render_strips(t)


def test_tableau_sum_does_not_depend_on_variables_beyond_the_cells():
    # Lemma: a filling of content lam uses only the values 1..len(lam), and
    # len(lam) <= cells, so in more variables than cells every m_lam
    # coefficient is the one at nvars = cells; the per-filling reference,
    # which fills from every variable, checks the tuples of at most 3 cells
    tuples = sorted(set(all_strip_tuples(5, 3, range(-2, 3))))
    for t in tuples:
        cells = max(cell_count(t), 1)
        at_cells = ssyt_generating_function(t, cells)
        for nvars in (cells + 1, 2 * cells + 3):
            assert ssyt_generating_function(t, nvars) == at_cells, (render_strips(t), nvars)
        if cells <= 3:
            assert at_cells == m_projection(reference_ssyt(t, cells + 2)), render_strips(t)


def test_tableau_tally_matches_the_reference_on_four_strips():
    # the criterion-6 tuples have at most 3 strips, so no step of their count
    # chooses among 4; a banded sample of the 6250 tuples of 4 strips and
    # 6 cells, every 250th in order of heights then diagonals, reaches them
    pool = sorted(
        (tuple(h for _, h in t), t)
        for t in set(all_strip_tuples(6, 4, range(-2, 3)))
        if len(t) == 4 and cell_count(t) == 6
    )
    assert len(pool) == 6250
    sample = [t for _, t in pool[::250]]
    assert len({tuple(h for _, h in t) for t in sample}) == 10
    for t in sample:
        for nvars in (3, 6):
            want = m_projection(reference_ssyt(t, nvars))
            assert ssyt_generating_function(t, nvars) == want, (render_strips(t), nvars)


def test_tableau_key_is_all_the_tableau_sum_depends_on():
    # Lemma: the tableau sum is a function of the heights, the attack pairs
    # between (strip, level) cells and min(nvars, cells), so tuples that
    # share a key share the per-filling reference sum.  Every criterion-6
    # tuple at 1 and 2 variables and at as many as cells; a key of the
    # heights and the number of attack pairs alone merges keys whose sums
    # differ, and fails here
    groups = {}
    for t in CRITERION_6:
        cells = max(cell_count(t), 1)
        for nvars in sorted({1, 2, cells}):
            groups.setdefault((_tableau_key(t), nvars), []).append(t)
    for (_key, nvars), members in groups.items():
        want = reference_m(members[0], nvars)
        for t in members[1:]:
            assert reference_m(t, nvars) == want, (render_strips(members[0]), render_strips(t), nvars)
    assert len({key for key, _ in groups}) == 300


def test_memoized_tableau_sum_is_the_count():
    # every criterion-6 tuple, read from a warm memo (each key is counted
    # for its first tuple), against the count run afresh on its own key
    for t in CRITERION_6[1:]:
        cells = cell_count(t)
        for nvars in sorted({1, 2, cells}):
            want = dict(_tableau_sum.__wrapped__(*_tableau_key(t), nvars))
            assert ssyt_generating_function(t, nvars) == want, (render_strips(t), nvars)


def test_tableau_key_is_built_without_the_path(monkeypatch, cold_oracle):
    # the tableau side reads the attack pairs, never the operator side's path
    def no_path(*_args):
        raise AssertionError("the tableau side built the path")

    monkeypatch.setattr(llt, "area_and_crosses", no_path)
    monkeypatch.setattr(llt, "to_schroeder_word", no_path)
    assert ssyt_generating_function(BIG, 3) == reference_m(BIG, 3)


def test_operator_side_does_not_depend_on_variables_beyond_the_cells():
    # the operator side's clamp: no partition of the cells has more parts
    # than cells, so in more variables every m_lam coefficient is the one at
    # nvars = cells, as the unclamped e -> monomial bridge also gives
    for t in CRITERION_6:
        cells = max(cell_count(t), 1)
        at_cells = llt_in_vars(t, cells)
        expansion = expand_word(to_schroeder_word(t))
        for nvars in (cells + 1, 2 * cells + 3):
            assert llt_in_vars(t, nvars) == at_cells, (render_strips(t), nvars)
            assert e_expansion_in_m(expansion, nvars) == at_cells, (render_strips(t), nvars)


def test_memoized_sides_return_fresh_dicts(cold_oracle):
    # a caller that changes a returned dict changes no later call's result
    strips = parse_strips("0:1;-1:2")
    for side in (ssyt_generating_function, llt_in_vars):
        first = side(strips, 3)
        want = dict(first)
        first[(3,)] = ONE
        del first[(2, 1)]
        assert side(strips, 3) == want == {(2, 1): QPoly((0, 1)), (1, 1, 1): QPoly((0, 2, 1))}
        assert side(strips, 3) is not side(strips, 3)
    assert _tableau_sum.cache_info().hits and _operator_side.cache_info().hits
