"""Acceptance suite: one test per shipped guarantee, exact arithmetic throughout.

Run with `pytest tests/test_acceptance.py -v -s` to see one line per criterion.
"""

import functools
import random
import time

from conftest import all_strip_tuples, velement_in_p
from vsllt.cli import _verify_one, main
from reference_dyck import add, from_sym, mul_sym, op_phi_commutator, scale, sub, sym_part, velement
from reference_llt import oracle_compare
from reference_rewrite import leftmost_high_dplus
from vsllt.dyckalgebra import VElement, apply_word, eval_in_e, op_dminus, op_dplus, op_phi, op_t
from vsllt.paths import iter_paths_upto, parse_word, semilength
from vsllt.qpoly import ONE, Q, Q_MINUS_1, QPoly
from vsllt.rewrite import (
    e_positivity_report,
    expand_word,
    lincomb_to_e,
    normalize,
    rewrite_push_T,
)
from vsllt.symfunc import GradedSym, e_in_p

W = parse_word


def criterion(cid, desc):
    def deco(fn):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            try:
                fn(*args, **kwargs)
            except BaseException:
                print(f"\nACCEPTANCE {cid} FAIL: {desc}")
                raise
            print(f"\nACCEPTANCE {cid} PASS: {desc}")
        return wrapper
    return deco


@criterion(1, 'expand --word "-0-0++" gives q e[3,1] + (q^2-q) e[4], positive, < 1s')
def test_criterion_1_worked_example(capsys):
    t0 = time.time()
    code = main(["expand", "--word", "-0-0++"])
    elapsed = time.time() - t0
    out = capsys.readouterr().out
    assert code == 0
    assert "e[3, 1]: q\n" in out
    assert "e[4]: q^2 - q" in out
    assert "e[3, 1]: q + 1" in out
    assert "e[4]: q^2 + q" in out
    assert "e-positive at q+1: yes" in out
    assert elapsed < 1.0
    # and the exact expansion object behind the text
    assert expand_word(W("-0-0++")) == {(3, 1): Q, (4,): Q * Q_MINUS_1}


@criterion(2, 'one T-push on "-0--0000+++" yields "--0-000+0++" with coefficient 1')
def test_criterion_2_rewrite_trace():
    word = W("-0--0000+++")
    pos, deg = leftmost_high_dplus(word)
    assert (pos, deg) == (8, 2)
    assert rewrite_push_T(word, pos, deg) == {W("--0-000+0++"): ONE}


@criterion(3, "ten-cell strip tuple maps to the documented Schröder path")
def test_criterion_3_path_construction(capsys):
    code = main(["path", "--strips", "0:2;-2:2;-1:1;1:1;-3:2;-1:2"])
    out = capsys.readouterr().out
    assert code == 0
    assert "word: -,-,0,0,-,+,-,-,+,+,0,0,-,+,+,+" in out
    assert "area: (0, 1, 1, 1, 2, 2, 3, 1, 1, 2)" in out
    assert "crosses: 4 [(1, 3), (2, 4), (6, 8), (7, 9)]" in out


@functools.lru_cache(maxsize=1)
def _sweep_semilength_6():
    """Run verify's per-word check on every word of semilength <= 6 once; share across criteria."""
    t0 = time.time()
    results = [_verify_one(word) for word in iter_paths_upto(6)]
    return results, time.time() - t0


@criterion(4, "normalize == direct evaluation for all 1160 words of semilength <= 6")
def test_criterion_4_three_way_agreement():
    results, elapsed = _sweep_semilength_6()
    assert len(results) == 1 + 3 + 11 + 45 + 197 + 903
    mismatches = [w for w, agrees, _, _ in results if not agrees]
    assert mismatches == []
    assert elapsed < 600.0, f"sweep took {elapsed:.0f}s"
    # _verify_one multiplies primitive factors on both sides; the criterion
    # also holds word by word, each side run on the whole word
    plain_mismatches = [
        "".join(w)
        for w in iter_paths_upto(6)
        if lincomb_to_e(normalize(w)) != sym_part(apply_word(w, VElement.one(semilength(w))))
    ]
    assert plain_mismatches == []
    print(f"\n  [sweep over {len(results)} words in {elapsed:.1f}s single-threaded]")


@criterion(5, "every coefficient lies in N[q-1] and is nonnegative at q+1")
def test_criterion_5_positivity_sweep():
    results, _ = _sweep_semilength_6()
    bad_rebase = [w for w, _, rebased_ok, _ in results if not rebased_ok]
    bad_shift = [w for w, _, _, positive in results if not positive]
    assert bad_rebase == []
    assert bad_shift == []


@criterion(6, "tableau oracle agrees on every tuple with <= 6 cells, <= 4 strips")
def test_criterion_6_ssyt_oracle_sweep():
    t0 = time.time()
    tuples = sorted(set(all_strip_tuples(6, 4, range(-2, 3))))
    assert len(tuples) == 12281
    failures = [t for t in tuples if not oracle_compare(t)]
    elapsed = time.time() - t0
    assert failures == []
    assert elapsed < 300.0, f"oracle sweep took {elapsed:.0f}s"
    print(f"\n  [{len(tuples)} strip tuples checked in {elapsed:.1f}s]")


# --- criterion 7: the operator identity suite --------------------------------

def _rand_qpoly(rng):
    return QPoly([rng.randint(-3, 3) for _ in range(rng.randint(0, 3))])


def _rand_partition(rng, max_size):
    parts, left = [], max_size
    while left > 0 and rng.random() < 0.6:
        p = rng.randint(1, left)
        parts.append(p)
        left -= p
    return tuple(sorted(parts, reverse=True))


def _rand_velement(rng, k, n):
    terms = {}
    for _ in range(rng.randint(1, 3)):
        e = tuple(rng.randint(0, 2) for _ in range(k))
        g = GradedSym(n, {_rand_partition(rng, n): _rand_qpoly(rng)})
        terms[e] = terms.get(e, GradedSym.zero(n)) + g
    return velement(k, n, terms)


@criterion(7, "all operator identities hold on >= 50 random inputs each")
def test_criterion_7_identity_suite():
    rng = random.Random(20250809)
    counts = {name: 0 for name in (
        "quadratic", "phi_T", "phi2_T", "dminus_T", "dminus2_T",
        "dminus_phi_T", "T_phi_dplus", "aux_dplus", "aux_dminus",
        "phi_def", "ekoperator",
    )}
    while min(counts.values()) < 50:
        n = rng.randint(2, 4)
        k = rng.randint(2, 3)
        F = _rand_velement(rng, k, n)
        i = rng.randint(1, k - 1)
        H = add(op_t(i, F), scale(F, Q))
        assert op_t(i, H) == H
        counts["quadratic"] += 1
        if k >= 3:
            assert op_phi(op_t(1, F)) == op_t(2, op_phi(F))
            counts["phi_T"] += 1
        assert op_phi(op_phi(op_t(k - 1, F))) == op_t(1, op_phi(op_phi(F)))
        counts["phi2_T"] += 1
        if k >= 3:
            assert op_dminus(op_t(1, F)) == op_t(1, op_dminus(F))
            counts["dminus_T"] += 1
        assert op_dminus(op_dminus(op_t(k - 1, F))) == op_dminus(op_dminus(F))
        counts["dminus2_T"] += 1
        assert op_dminus(op_phi(op_t(k - 1, F))) == scale(op_phi(op_dminus(F)), Q)
        counts["dminus_phi_T"] += 1
        assert op_t(1, op_phi(op_dplus(F))) == scale(op_dplus(op_phi(F)), Q)
        counts["T_phi_dplus"] += 1
        dpf = op_dplus(op_phi(F))
        assert op_phi(op_dplus(F)) == add(op_t(1, dpf), scale(dpf, Q_MINUS_1))
        counts["aux_dplus"] += 1
        lhs = op_phi(op_dminus(op_t(k - 1, F)))
        assert lhs == sub(op_dminus(op_phi(F)), scale(op_phi(op_dminus(F)), Q_MINUS_1))
        counts["aux_dminus"] += 1
        assert op_phi(F) == op_phi_commutator(F)
        counts["phi_def"] += 1
        # multiplication by e_{m+1} from V_0; the operators run in the e-basis
        F0 = from_sym(GradedSym(n, {_rand_partition(rng, n): _rand_qpoly(rng)}))
        m = rng.randint(0, 4)
        out = op_dplus(F0)
        for _ in range(m):
            out = op_phi(out)
        out = op_dminus(out)
        if m + 1 <= n:
            assert out == mul_sym(F0, GradedSym(n, {(m + 1,): ONE}))
            assert velement_in_p(out) == mul_sym(velement_in_p(F0), e_in_p(m + 1, n))
        else:
            assert not out.terms  # e_{m+1} vanishes in the truncation
        counts["ekoperator"] += 1
    print("\n  [identity sample counts: " + ", ".join(f"{k}={v}" for k, v in sorted(counts.items())) + "]")


# --- criterion 8: the multiplication-operator corollaries --------------------

@criterion(8, "path operators act as multiplication by their value at 1, and commute")
def test_criterion_8_multiplication_and_commutativity():
    rng = random.Random(97)
    for word in iter_paths_upto(4):
        n = semilength(word)
        for _ in range(10):
            deg = rng.randint(0, 2)
            g = GradedSym(n + deg, {_rand_partition(rng, deg): _rand_qpoly(rng)})
            F = from_sym(g)
            lhs = apply_word(word, F)
            rhs = mul_sym(F, GradedSym(n + deg, eval_in_e(word)))
            assert lhs == rhs
    words3 = sorted(iter_paths_upto(3))
    for _ in range(20):
        p = rng.choice(words3)
        q_word = rng.choice(words3)
        n = semilength(p) + semilength(q_word)
        via_p = apply_word(p, from_sym(GradedSym(n, eval_in_e(q_word))))
        via_q = apply_word(q_word, from_sym(GradedSym(n, eval_in_e(p))))
        assert via_p == via_q


@criterion(9, 'anchors: "-+", "-0+", "--++" and the empty word')
def test_criterion_9_trivial_anchors():
    assert expand_word(W("-+")) == {(1,): ONE}
    assert expand_word(W("-0+")) == {(2,): ONE}
    two_blocks = expand_word(W("--++"))
    assert two_blocks == {(1, 1): ONE, (2,): Q_MINUS_1}
    report = e_positivity_report(two_blocks)
    assert report["e_at_q_plus_1"] == {(1, 1): ONE, (2,): Q}
    assert report["e_positive"]
    assert expand_word(()) == {(): ONE}
