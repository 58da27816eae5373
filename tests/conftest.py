"""Shared strategies for randomized algebra tests."""

import hypothesis.strategies as st
from hypothesis import settings

from vsllt.dyckalgebra import VElement
from vsllt.qpoly import QPoly
from vsllt.symfunc import GradedSym, e_expansion_in_p

# Same examples on every run (seeded from each test's source), and a
# reproduction blob printed with any failure; the deadline stays at its default.
settings.register_profile("vsllt", derandomize=True, print_blob=True)
settings.load_profile("vsllt")


@st.composite
def qpolys(draw, max_deg=3, lo=-4, hi=4, nonzero=False):
    coeffs = draw(st.lists(st.integers(lo, hi), max_size=max_deg + 1))
    p = QPoly(coeffs)
    if nonzero and p.is_zero():
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
    return GradedSym(n, terms)


@st.composite
def velements(draw, k, n, max_terms=3, max_exp=2):
    terms = {}
    for _ in range(draw(st.integers(1, max_terms))):
        e = tuple(draw(st.integers(0, max_exp)) for _ in range(k))
        g = draw(graded_syms(n))
        terms[e] = terms.get(e, GradedSym.zero(n)) + g
    return VElement(k, n, {e: g for e, g in terms.items() if not g.is_zero()})


def velement_in_p(f):
    """An e-basis VElement with each y-coefficient converted to the p-basis."""
    return VElement(f.k, f.n, {e: e_expansion_in_p(g.terms, f.n) for e, g in f.terms.items()})


def all_strip_tuples(max_cells, max_strips, d_range):
    """Every strip tuple within the limits (with repeats); acceptance
    criterion 6 sweeps all_strip_tuples(5, 3, range(-2, 3))."""
    yield ()
    def rec(prefix, cells):
        for d in d_range:
            for h in range(1, max_cells - cells + 1):
                t = prefix + ((d, h),)
                yield t
                if len(t) < max_strips and cells + h < max_cells:
                    yield from rec(t, cells + h)
    yield from rec((), 0)
