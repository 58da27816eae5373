"""The grouped lowering operator, the shift table and the e->p caches agree
exactly with their per-term reference forms (tests/reference_dyck.py)."""

import hypothesis.strategies as st
from hypothesis import given, settings

import reference_dyck
from conftest import qpolys, velements
from vsllt import symfunc
from vsllt.cli import _verify_one
from vsllt.dyckalgebra import VElement, _shift_table, op_dminus, op_dplus, op_phi
from vsllt.paths import MINUS, PLUS, iter_paths
from vsllt.qpoly import ONE, QPoly
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
    """A random element plus a pair of terms whose shifted parts fall into
    the same (rest, a) group with opposite signs.

    y^(rest, a) c p_m shifts to a term -c (q^m - 1) y^(rest, a+m); the
    second term c (q^m - 1) y^(rest, a+m) cancels it exactly.
    """
    m = draw(st.integers(1, n - 1))
    a = draw(st.integers(0, n - 1 - m))
    rest = tuple(draw(st.integers(0, 3)) for _ in range(k - 1))
    c = draw(qpolys(nonzero=True))
    pair = VElement(k, n, {
        rest + (a,): GradedSym(n, {(m,): c}),
        rest + (a + m,): GradedSym(n, {(): c * (QPoly.monomial(m) - ONE)}),
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
    assert op_dminus(f) == reference_dyck.op_dminus(f)


@given(st.integers(1, 3).flatmap(_random_inputs))
@settings(max_examples=60)
def test_dplus_matches_reference(f):
    assert op_dplus(f) == reference_dyck.op_dplus(f)


def test_dminus_group_cancels_to_zero():
    # the two shifted terms meet in the group (rest=(), a=1) and cancel
    n = 3
    c = QPoly((2, -1))
    f = VElement(1, n, {
        (0,): GradedSym(n, {(1,): c}),
        (1,): GradedSym(n, {(): c * (QPoly.monomial(1) - ONE)}),
    })
    out = op_dminus(f)
    assert out == reference_dyck.op_dminus(f)
    # only the kept p_1 term survives, through a = 0
    assert out == VElement(0, n, {(): e_in_p(1, n) * GradedSym(n, {(1,): c})})


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
                    assert got == reference_dyck.op_dminus(f), "".join(word)
                    f = got
                    checked += 1
                else:
                    f = op_phi(f)
    assert checked == expected > 0


def _unmerged_expansion(mu, sign):
    """{(kept, extra): summed scalar} from the per-subset expansion."""
    out = {}
    for kept, extra, scalar in reference_dyck._shifted_sym_terms(GradedSym(sum(mu), {mu: ONE}), sign):
        out[(kept, extra)] = out.get((kept, extra), QPoly()) + scalar
    return {key: c for key, c in out.items() if not c.is_zero()}


def test_shift_table_merges_repeated_parts():
    for mu in [(2, 2, 1, 1), (1, 1, 1), (3, 1, 1), (2, 2), (4,), ()]:
        for sign in (+1, -1):
            table = _shift_table(mu, sign)
            kept = [entry[0] for entry in table]
            assert len(kept) == len(set(kept)), (mu, sign)
            assert {(p, extra): c for p, extra, c in table} == _unmerged_expansion(mu, sign)
    # (2,2,1,1) has 16 subsets but only 9 distinct kept multisets
    assert len(_shift_table((2, 2, 1, 1), -1)) == 9
    assert _shift_table((2, 2, 1, 1), -1) is _shift_table((2, 2, 1, 1), -1)


def _fresh_e_in_p(k, n):
    return GradedSym(n, {mu: QPoly.const(c) for mu, c in _e_in_p_raw(k).items()})


def test_bridge_caches_survive_verify():
    for n in range(1, 5):
        for word in iter_paths(n):
            assert all(_verify_one(word)[1:])
    assert symfunc._E_MU_IN_P_CACHE and symfunc._E_IN_P_GRADED
    for (mu, n), cached in list(symfunc._E_MU_IN_P_CACHE.items()):
        fresh = GradedSym.one(n)
        for part in mu:
            fresh = fresh * _fresh_e_in_p(part, n)
        assert cached == fresh, (mu, n)
        assert e_mu_in_p(mu, n) is cached
    for (k, n), cached in list(symfunc._E_IN_P_GRADED.items()):
        assert cached == _fresh_e_in_p(k, n), (k, n)
        assert e_in_p(k, n) is cached
