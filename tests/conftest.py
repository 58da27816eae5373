"""Shared strategies for randomized algebra tests."""

from itertools import product

import hypothesis.strategies as st
import pytest
from hypothesis import note, settings

from reference_dyck import velement
from reference_symfunc import Sym, true_p
from vsllt import llt
from vsllt.paths import TOKENS, WordError, iter_paths, primitive_factors
from vsllt.qpoly import QPoly
from vsllt.symfunc import e_expansion_in_p

# Same examples on every run (seeded from each test's source), and a
# reproduction blob printed with any failure; the deadline stays at its default.
settings.register_profile("vsllt", derandomize=True, print_blob=True)
settings.load_profile("vsllt")


@st.composite
def qpolys(draw, max_deg=3, lo=-4, hi=4, nonzero=False):
    coeffs = draw(st.lists(st.integers(lo, hi), max_size=max_deg + 1))
    p = QPoly(coeffs)
    if nonzero and not p:
        p = QPoly((draw(st.integers(1, hi)),))
    return p


@st.composite
def partitions(draw, max_size=4):
    total = draw(st.integers(0, max_size))
    parts = []
    while total > 0:
        p = draw(st.integers(1, total))
        parts.append(p)
        total -= p
    return tuple(sorted(parts, reverse=True))


@st.composite
def graded_syms(draw, n, max_terms=3):
    terms = {}
    for _ in range(draw(st.integers(0, max_terms))):
        mu = draw(partitions(max_size=n))
        c = draw(qpolys())
        terms[mu] = terms.get(mu, QPoly()) + c
    return Sym(n, terms)


@st.composite
def velements(draw, k, n, max_terms=3, max_exp=2):
    terms = {}
    for _ in range(draw(st.integers(1, max_terms))):
        e = tuple(draw(st.integers(0, max_exp)) for _ in range(k))
        g = draw(graded_syms(n))
        terms[e] = terms.get(e, Sym.zero(n)) + g
    return noted(velement(k, n, terms))


def noted(f):
    """f, with its fields noted for Hypothesis's report of a falsifying
    example, in which a VElement, having no repr of its own, shows only its
    address."""
    note(f"drew VElement(k={f.k}, n={f.n}, terms={f.terms!r})")
    return f


def velement_in_p(f):
    """An e-basis VElement with each y-coefficient converted to the p-basis
    by the library, as true coefficients."""
    return velement(f.k, f.n, {e: true_p(e_expansion_in_p(g, f.n)) for e, g in f.terms.items()})


@pytest.fixture
def cold_oracle():
    """Empty memos of both tableau-oracle sides before the test and after it,
    so a test that patches a function either side runs (normalize,
    expand_word, to_schroeder_word, the count) neither reads an entry built
    without the patch nor leaves one built with it."""
    llt._tableau_sum.cache_clear()
    llt._operator_side.cache_clear()
    yield
    llt._tableau_sum.cache_clear()
    llt._operator_side.cache_clear()


def all_strip_tuples(max_cells, max_strips, d_range):
    """Every strip tuple within the limits (with repeats).  The tests call
    the 1526 of all_strip_tuples(5, 3, range(-2, 3)) the criterion-6 tuples;
    acceptance criterion 6 sweeps the 12281 of all_strip_tuples(6, 4, range(-2, 3))."""
    yield ()
    def rec(prefix, cells):
        for d in d_range:
            for h in range(1, max_cells - cells + 1):
                t = prefix + ((d, h),)
                yield t
                if len(t) < max_strips and cells + h < max_cells:
                    yield from rec(t, cells + h)
    yield from rec((), 0)


def iter_paths_upto(max_n: int):
    """Every valid word of semilength 1 to max_n, in ``iter_paths`` order."""
    for n in range(1, max_n + 1):
        yield from iter_paths(n)


def outcome(fn, *args):
    """fn(*args), or the message and position of the WordError it raises."""
    try:
        return fn(*args)
    except WordError as exc:
        return ("WordError", str(exc), exc.position)


# every word over {-, 0, +} of length <= 6, and those that are not a valid
# complete word: primitive_factors refuses all but 27 of the 1093, the empty
# one included
WORDS_UPTO_LENGTH_6 = ["".join(w) for length in range(7) for w in product(TOKENS, repeat=length)]
INVALID_WORDS_UPTO_LENGTH_6 = [
    w for w in WORDS_UPTO_LENGTH_6 if outcome(primitive_factors, w)[:1] == ("WordError",)
]
