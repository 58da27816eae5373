"""The per-word check as the library ran it before it compared packed ints,
kept only for the tests: both sides decoded in q, compared as dicts of
QPoly, and the flags read off one Taylor shift per coefficient."""

from __future__ import annotations

from vsllt.dyckalgebra import eval_in_e
from vsllt.rewrite import e_positivity_report, expand_word


def verify_one(word):
    """(word, agrees, rebased_ok, positive), as ``cli._verify_one``."""
    report = e_positivity_report(expand_word(word))
    agrees = report["e"] == eval_in_e(word)
    rebased_ok = all(
        x >= 0 and x.denominator == 1 for vec in report["qminus1"].values() for x in vec
    )
    return word, agrees, rebased_ok, report["e_positive"]
