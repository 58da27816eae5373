"""The benchmark's tracer still finds every function it wraps.

bench/tracing.py replaces functions by name in the package's module
namespaces, so renaming or dropping one of them breaks the benchmark; the
benchmark's own tests are not part of this suite, so this one catches it.
"""

import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "bench"))

import tracing  # noqa: E402
from vsllt import cli, llt  # noqa: E402
from vsllt.paths import iter_paths_upto, render_word  # noqa: E402


def test_tracer_wraps_and_restores_every_target():
    originals = [
        (ns, attr, getattr(ns, attr))
        for _name, _kind, namespaces, attr, _hook in tracing.TARGETS
        for ns in namespaces
    ]
    tracer = tracing.Tracer()
    tracer.install()
    try:
        for ns, attr, fn in originals:
            assert getattr(ns, attr) is not fn, (ns, attr)
        for w in iter_paths_upto(3):
            assert cli._verify_one(w) == (render_word(w), True, True, True)
        # the oracle-sweep path: tableau side against operator side
        for text in ("", "0:2;0:1", "0:1;-1:2;1:1"):
            assert llt.oracle_compare(llt.parse_strips(text)), text
    finally:
        tracer.uninstall()
    for ns, attr, fn in originals:
        assert getattr(ns, attr) is fn, (ns, attr)
    assert tracer.counts["dyckalgebra.op_dminus.calls"] > 0
    assert tracer.counts["rewrite.normalize.calls"] > 0
    assert tracer.counts["llt.llt_in_vars.calls"] > 0
    assert tracer.counts["llt.ssyt_generating_function.calls"] > 0
