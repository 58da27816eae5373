"""The benchmark's calls into the library still give what the benchmark expects.

bench/workloads.py times vsllt's functions and checks their outputs with
its own routes: ``verify_item`` compares the rewrite side with ``eval_word``
in the p-basis, ``check_expand`` compares a digest of the p-basis value with
the committed reference, and ``oracle_item`` compares the two tableau-oracle
sides.  The benchmark's own tests are not part of this suite, so this one
catches a library change that breaks any of those calls.
"""

import hashlib
import random
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "bench"))

import workloads  # noqa: E402
import reference_symfunc  # noqa: E402
from conftest import iter_paths_upto  # noqa: E402
from reference_dyck import sym_part  # noqa: E402
from vsllt.cli import _verify_one  # noqa: E402
from vsllt.dyckalgebra import VElement, apply_word, eval_word  # noqa: E402
from vsllt.paths import parse_word, semilength  # noqa: E402

# the cheapest expand-deep word (least area) and one of middling area
EXPAND_WORDS = [parse_word("-0000000+"), parse_word("----+++-+-0+-++")]


def test_verify_item_gives_the_cli_check():
    words = list(iter_paths_upto(4))
    assert len(words) == 60
    for w in words:
        assert workloads.verify_item(w) == _verify_one(w)[1:], w


def test_check_expand_passes_on_expand_deep_words():
    reports = [workloads.expand_item(w) for w in EXPAND_WORDS]
    assert workloads.check_expand(EXPAND_WORDS, reports) == []
    # the digest is compared: each report against the other word's reference fails
    assert len(workloads.check_expand(EXPAND_WORDS, reports[::-1])) == 2
    # and eval_word's p-basis value has the committed digest
    reference = workloads.load_reference()
    for w in EXPAND_WORDS:
        assert workloads.p_basis_digest(eval_word(w)) == reference[w]


def _digest(lines) -> str:
    return hashlib.sha256("\n".join(lines).encode()).hexdigest()[:16]


def test_the_benchmark_inputs_are_pinned():
    # each workload's seed-1 inputs, one a line, so that a change to the
    # word's type or to the enumeration cannot change what the benchmark times
    assert _digest(workloads.verify_inputs(random.Random(1))) == "dbb72b7522f8d32a"
    assert _digest(workloads.expand_inputs(random.Random(1))) == "9fdb58bd694556e2"
    tuples = workloads.oracle_inputs(random.Random(1))
    assert _digest(map(workloads.llt.render_strips, tuples)) == "8b2f6b90e7f960dc"


def test_oracle_item_holds():
    for strips in (((0, 2), (-1, 2)), ((0, 1), (1, 3)), ((0, 2), (-2, 2), (1, 1))):
        assert workloads.oracle_item(strips) is True, strips


def test_eval_word_is_the_p_basis_value_of_the_qpoly_ring():
    # eval_word at the semilength and one above it (the empty word at 0 and
    # at 1, as verify_item calls it), its stored z_lam [p_lam] values divided
    # by z_lam, against the Fraction e -> p conversion of the whole word
    # applied letter by letter in the QPoly ring
    checked = 0
    for w in iter_paths_upto(4):
        s = semilength(w)
        for n in (s, s + 1):
            want = reference_symfunc.e_expansion_in_p(sym_part(apply_word(w, VElement.one(n))), n)
            assert reference_symfunc.true_p(eval_word(w, n)) == want, (w, n)
            checked += 1
    assert checked == 2 * 60
