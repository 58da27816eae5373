"""The benchmark's tracer still finds every function it wraps.

bench/tracing.py replaces functions by name in the package's module
namespaces, so renaming or dropping one of them breaks the benchmark; the
benchmark's own tests are not part of this suite, so this one catches it.
"""

import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "bench"))

import tracing  # noqa: E402
from reference_llt import oracle_compare  # noqa: E402
from vsllt import cli, dyckalgebra, llt, rewrite  # noqa: E402
from vsllt.paths import (  # noqa: E402
    iter_paths_upto,
    parse_word,
    primitive_factors,
    render_word,
    semilength,
)


def test_tracer_wraps_and_restores_every_target():
    originals = [
        (ns, attr, getattr(ns, attr))
        for _name, _kind, namespaces, attr, _hook in tracing.TARGETS
        for ns in namespaces
    ]
    # a benchmark pass is a fresh process, so its memos start cold: clear
    # them, or words, tails and oracle sides memoized by earlier tests reach
    # no traced function
    rewrite._close.cache_clear()
    dyckalgebra._primitive_value.cache_clear()
    llt._tableau_sum.cache_clear()
    llt._operator_side.cache_clear()
    tracer = tracing.Tracer()
    tracer.install()
    try:
        for ns, attr, fn in originals:
            assert getattr(ns, attr) is not fn, (ns, attr)
        for w in iter_paths_upto(3):
            assert cli._verify_one(w) == (render_word(w), True, True, True)
        # the oracle-sweep path: tableau side against operator side
        for text in ("", "0:2;0:1", "0:1;-1:2;1:1"):
            assert oracle_compare(llt.parse_strips(text)), text
    finally:
        tracer.uninstall()
    for ns, attr, fn in originals:
        assert getattr(ns, attr) is fn, (ns, attr)
    assert tracer.counts["dyckalgebra.op_dminus.calls"] > 0
    assert tracer.counts["rewrite.normalize.calls"] > 0
    # normalize reaches both rules, once per new _close entry, through the
    # names the tracer wraps
    assert tracer.counts["rewrite.rewrite_case0.calls"] > 0
    assert tracer.counts["rewrite.rewrite_push_T.calls"] > 0
    assert tracer.counts["llt.llt_in_vars.calls"] > 0
    assert tracer.counts["llt.ssyt_generating_function.calls"] > 0


def test_tracer_sees_both_rules_in_an_expand_deep_item():
    # the expand-deep item is normalize -> lincomb_to_e -> e_positivity_report
    # on a primitive word; the rules take the '+''s degree as an extra
    # argument, which the wrappers forward, and both must still be counted.
    # They run only while _close's memo fills, as in a fresh benchmark pass.
    word = parse_word("--0-0+++")
    assert semilength(word) == 5 and primitive_factors(word) == [word]
    rewrite._close.cache_clear()
    tracer = tracing.Tracer()
    tracer.install()
    try:
        report = rewrite.e_positivity_report(rewrite.lincomb_to_e(rewrite.normalize(word)))
    finally:
        tracer.uninstall()
    assert report["e_positive"]
    assert report["e"] == rewrite.expand_word(word)
    for name in ("normalize", "lincomb_to_e", "e_positivity_report"):
        assert tracer.counts[f"rewrite.{name}.calls"] == 1, name
    assert tracer.counts["rewrite.rewrite_case0.calls"] > 0
    assert tracer.counts["rewrite.rewrite_push_T.calls"] > 0
    # normalize returns one entry per partition, which the tracer counts
    assert tracer.counts["rewrite.terminal_words"] == len(rewrite.normalize(word)) == len(
        report["e"]
    )
