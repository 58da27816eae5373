"""Command-line front end: expand, path, oracle, verify."""

from __future__ import annotations

import argparse
import json
import os
import sys
import time
from contextlib import nullcontext
from functools import partial
from math import comb, prod
from multiprocessing import Pool

from . import llt
from .paths import (
    WordError,
    count_paths_reference,
    iter_paths,
    parse_word,
    primitive_factors,
    render_word,
    semilength,
)
from .dyckalgebra import coefficient_bound, eval_in_e, packed_value, width_for
from .qpoly import ZERO, _at_q, digits_bound, render_qpoly
from .rewrite import e_positivity_report, expand_word, normalize, split_digits

# Most tableau fillings ``oracle`` admits, counted as prod C(nvars, h) over the
# strips.  The tableau side places the values one at a time over masks of
# filled cells, toward partition contents only, in at most as many values as
# cells, so it never visits most of these fillings: in a scan of the 7352
# admitted inputs of <= 14 cells (every height multiset, strips on one
# diagonal or one diagonal apart, nvars 1..cells + 2) the slowest tableau side,
# two two-cell and ten one-cell strips on one diagonal in 3 variables (531441
# fillings), takes 80-90 ms of its 0.54-0.84 s ``oracle`` run, and twelve
# one-cell strips in 3 variables about 75 ms of 0.31-0.34 s; the rest is
# mostly the operator side (Python 3.11.7 on a 2-vCPU x86_64 host).
MAX_ORACLE_FILLINGS = 10**6

# Largest semilength ``verify`` sweeps: all 129281 words through 9 take
# 132-158 s and 98 MB peak RSS in one process; through 8, 14-17 s and 30 MB,
# or about 8 s with --jobs 2, where the parent peaks near 25 MB and each
# worker near 19 MB; through 7, about 2 s and 20 MB (Python 3.11.7 on a
# 2-vCPU x86_64 host).  Semilength 10 adds 518859 more words, each costlier
# than those at 9.
MAX_VERIFY_SEMILENGTH = 9

# Largest semilength ``expand`` rewrites, and the most cells ``oracle`` takes:
# a strip tuple's word has semilength equal to its cell count, and the oracle's
# operator side rewrites that word.  The costliest word of semilength n is
# -^n +^n: about 1.4 s and 47 MB peak RSS at 14, and 3.4-4.2 s and 85 MB at
# 15, where the rewrite memo doubles to 2**15 - 1 open tails (Python 3.11.7
# on a 2-vCPU x86_64 host).
MAX_EXPAND_SEMILENGTH = 14

# Most cells ``path`` takes: time and memory grow linearly in the cell count,
# and one strip of 10^6 cells takes about 3.7 s and 406 MB peak RSS, 5.9 s and
# 461 MB with --json (Python 3.11.7 on a 2-vCPU x86_64 host).
MAX_PATH_CELLS = 10**6


def _json_indent2(value, pad: str = "") -> str:
    """The text of json.dumps(value, indent=2) for nested dicts (string keys)
    and lists of strings, ints and bools.

    json's C encoder writes no newlines, and indent= switches to its
    pure-Python encoder, which dominated ``path --json`` on large tuples.
    Here Python only joins the lines; json.dumps still writes every string.
    """
    if type(value) is int:
        return str(value)
    if not isinstance(value, (dict, list)) or not value:
        return json.dumps(value)
    inner = pad + "  "
    if isinstance(value, dict):
        items = [f"{json.dumps(k)}: {_json_indent2(v, inner)}" for k, v in value.items()]
        opening, closing = "{", "}"
    else:
        items = [_json_indent2(v, inner) for v in value]
        opening, closing = "[", "]"
    sep = ",\n" + inner
    return f"{opening}\n{inner}{sep.join(items)}\n{pad}{closing}"


def _partition_key(mu) -> str:
    return json.dumps(list(mu))


def _sorted_partitions(expansion):
    return sorted(expansion, reverse=True)


def _expansion_lines(expansion, basis: str = "e") -> list[str]:
    if not expansion:
        return ["  0"]
    return [
        f"  {basis}{list(mu)}: {render_qpoly(expansion[mu])}"
        for mu in _sorted_partitions(expansion)
    ]


def _expansion_json(expansion) -> dict:
    return {
        _partition_key(mu): render_qpoly(expansion[mu])
        for mu in _sorted_partitions(expansion)
    }


def cmd_expand(args) -> int:
    if (args.word is None) == (args.strips is None):
        print("expand: give exactly one of --word or --strips", file=sys.stderr)
        return 2
    if args.word is not None:
        word = parse_word(args.word)
        strips = None
        n = semilength(word)
    else:
        strips = llt.parse_strips(args.strips)
        # the tuple's word has semilength = cells, so check before building it
        n = llt.cell_count(strips)
    if n > MAX_EXPAND_SEMILENGTH:
        print(
            f"expand: the word has semilength {n}, above the limit of "
            f"{MAX_EXPAND_SEMILENGTH}; use a shorter word",
            file=sys.stderr,
        )
        return 2
    if strips is not None:
        word = llt.to_schroeder_word(strips)
    report = e_positivity_report(expand_word(word))
    if args.json:
        rebased = report["qminus1"]
        doc = {
            "word": render_word(word),
            "n": n,
            "e": _expansion_json(report["e"]),
            "e_at_q_plus_1": _expansion_json(report["e_at_q_plus_1"]),
            "qminus1": {
                _partition_key(mu): list(rebased[mu]) for mu in _sorted_partitions(rebased)
            },
            "e_positive": report["e_positive"],
        }
        if strips is not None:
            doc["strips"] = llt.render_strips(strips)
        print(_json_indent2(doc))
        return 0
    if strips is not None:
        print(f"strips: {llt.render_strips(strips)}")
    print(f"word: {render_word(word)}")
    print(f"e-expansion (n = {n}):")
    print("\n".join(_expansion_lines(report["e"])))
    print("at q+1:")
    print("\n".join(_expansion_lines(report["e_at_q_plus_1"])))
    print("(q-1)-basis coefficients:")
    for mu in _sorted_partitions(report["qminus1"]):
        print(f"  e{list(mu)}: {list(report['qminus1'][mu])}")
    print(f"e-positive at q+1: {'yes' if report['e_positive'] else 'NO'}")
    return 0


def cmd_path(args) -> int:
    strips = llt.parse_strips(args.strips)
    cells = llt.cell_count(strips)
    if cells > MAX_PATH_CELLS:
        print(
            f"path: {cells} cells exceed the limit of {MAX_PATH_CELLS}; use fewer cells",
            file=sys.stderr,
        )
        return 2
    area, crosses = llt.area_and_crosses(strips)
    word = llt.schroeder_word(area, crosses)
    cross_pairs = sorted((p, r) for r, p in crosses.items())
    if args.json:
        print(
            _json_indent2(
                {
                    "strips": llt.render_strips(strips),
                    "word": render_word(word, compact=False),
                    "compact": render_word(word),
                    "area": list(area),
                    "crosses": [list(c) for c in cross_pairs],
                }
            )
        )
        return 0
    print(f"strips: {llt.render_strips(strips)}")
    print(f"word: {render_word(word, compact=False)}")
    print(f"compact: {render_word(word)}")
    print(f"area: {area}")
    print(f"crosses: {len(cross_pairs)} {cross_pairs}")
    return 0


def cmd_oracle(args) -> int:
    strips = llt.parse_strips(args.strips)
    cells = llt.cell_count(strips)
    if cells > MAX_EXPAND_SEMILENGTH:
        print(
            f"oracle: {cells} cells exceed the limit of {MAX_EXPAND_SEMILENGTH}; "
            f"use fewer cells",
            file=sys.stderr,
        )
        return 2
    nvars = args.nvars if args.nvars is not None else max(cells, 1)
    if nvars >= 1:
        fillings = prod(comb(nvars, h) for _, h in strips)
        if fillings > MAX_ORACLE_FILLINGS:
            print(
                f"oracle: {fillings} tableau fillings in {nvars} variables exceed "
                f"the limit of {MAX_ORACLE_FILLINGS}; use fewer cells or a smaller --nvars",
                file=sys.stderr,
            )
            return 2
        # a bound on the exponent entries that either side's polynomial spans
        # in the min(nvars, cells) values a filling of partition content can
        # use: min(fillings, monomials of degree cells in those values)
        # monomials of one entry per value.  The tableau count itself keeps
        # one int per (partition prefix, filled-cell mask), far fewer, so this
        # refuses some inputs whose tableau side takes under a millisecond
        # (0:7;0:7 in 12 variables)
        values = min(nvars, max(cells, 1))
        entries = min(fillings, comb(values + cells - 1, cells)) * values
        if entries > MAX_ORACLE_FILLINGS:
            print(
                f"oracle: up to {entries} exponent entries per side in {nvars} variables "
                f"exceed the limit of {MAX_ORACLE_FILLINGS}; use fewer cells or a smaller --nvars",
                file=sys.stderr,
            )
            return 2
    tableau_side = llt.ssyt_generating_function(strips, nvars)
    operator_side = llt.llt_in_vars(strips, nvars)
    match = tableau_side == operator_side
    if args.json:
        print(
            _json_indent2(
                {
                    "strips": llt.render_strips(strips),
                    "nvars": nvars,
                    "tableau_side": _expansion_json(tableau_side),
                    "operator_side": _expansion_json(operator_side),
                    "match": match,
                }
            )
        )
        return 0 if match else 1
    print(f"strips: {llt.render_strips(strips)}")
    print(f"variables: {nvars}")
    print("tableau sum:")
    print("\n".join(_expansion_lines(tableau_side, "m")))
    print("operator expansion:")
    print("\n".join(_expansion_lines(operator_side, "m")))
    print(f"match: {'yes' if match else 'NO'}")
    return 0 if match else 1


def _verify_one(word):
    """All three checks for one path word.

    Returns (compact word, agrees, rebased_ok, positive): the rewritten
    e-expansion equals direct operator evaluation in the e-basis, every
    coefficient rebases into N[q-1], and every coefficient at q+1 is
    nonnegative.  This is the one per-word check; tests call it too.

    Each coefficient is compared as one int.  The rewrite side's packed
    value splits into its (q-1)-digits, which are also its coefficients at
    q+1, so the two flags read them.  bits leaves ``coefficient_bound`` and
    the bound on the q-coefficients that qpoly's ``digits_bound`` reads off
    the actual digits (so a faulty rule cannot alias) below 2**(bits-1); the
    oracle runs at q = 2**bits, and the digits are read at the same q
    (``_at_q``), the codec ``rewrite.unpack`` decodes with.  Two polynomials
    whose coefficients all lie below 2**(bits-1) in absolute value are equal
    iff their values at 2**bits are.
    """
    n = semilength(word)
    rewritten = normalize(word)
    rebased_ok = all(c >= 0 for c in rewritten.values())
    if not rebased_ok:
        return render_word(word), False, False, False
    digits = {mu: split_digits(c, n) for mu, c in rewritten.items()}
    bits = width_for(max([coefficient_bound(word, n), *map(digits_bound, digits.values())]))
    evaluated = packed_value(word, bits)
    agrees = evaluated.keys() == digits.keys() and all(
        evaluated[mu] == _at_q(ds, bits) for mu, ds in digits.items()
    )
    # the digits are c(q+1)'s coefficients: a nonnegative value splits into
    # nonnegative digits, so positivity at q+1 is the same split
    return render_word(word), agrees, rebased_ok, rebased_ok


def _first_difference(text: str) -> str:
    """For a FAIL line: the first partition, in ``expand``'s order, whose
    e-coefficient differs between the two sides, both decoded in q.  It runs
    only on failures; empty if the decoded sides agree."""
    word = parse_word(text)
    rewritten, evaluated = expand_word(word), eval_in_e(word).terms
    for mu in _sorted_partitions(rewritten.keys() | evaluated.keys()):
        a, b = rewritten.get(mu, ZERO), evaluated.get(mu, ZERO)
        if a != b:
            return (f", first difference at e{list(mu)}: rewrite {render_qpoly(a)}, "
                    f"evaluation {render_qpoly(b)}")
    return ""


def _factor_note(text: str) -> str:
    """For a FAIL line: which primitive factors of a composite word fail
    ``_verify_one`` on their own.  A composite word's value on either side is
    the product of its factors' values, so this names where to look; it runs
    only on failures."""
    factors = primitive_factors(parse_word(text))
    if factors is None or len(factors) < 2:
        return ""
    failing = [render_word(f) for f in factors if not all(_verify_one(f)[1:])]
    if not failing:
        return "; every primitive factor passes on its own"
    noun = "factor" if len(failing) == 1 else "factors"
    return f"; failing primitive {noun} {', '.join(failing)}"


def _pool_size(jobs: int) -> int:
    """Worker processes for ``verify --jobs``: at most one per CPU."""
    if jobs < 1:
        raise ValueError(f"--jobs must be >= 1, got {jobs}")
    return min(jobs, os.cpu_count() or 1)


def cmd_verify(args) -> int:
    if args.max_semilength < 1:
        print("verify: --max-semilength must be >= 1", file=sys.stderr)
        return 2
    if args.max_semilength > MAX_VERIFY_SEMILENGTH:
        n = args.max_semilength
        # the reference count enumerates Dyck paths, so count one level past the cap at most
        shown = min(n, MAX_VERIFY_SEMILENGTH + 1)
        counts = [count_paths_reference(k) for k in range(1, shown + 1)]
        more = "" if shown == n else "more than "
        print(
            f"verify: --max-semilength {n} means {more}{sum(counts)} words "
            f"({counts[-1]} at semilength {shown}), above the limit of semilength "
            f"{MAX_VERIFY_SEMILENGTH}; use a smaller --max-semilength",
            file=sys.stderr,
        )
        return 2
    workers = _pool_size(args.jobs)  # raises ValueError (exit 2) below 1
    t0 = time.perf_counter()
    all_ok = True
    total = 0
    with Pool(workers) if workers > 1 else nullcontext() as pool:
        check_all = map if pool is None else partial(pool.map, chunksize=8)
        for n in range(1, args.max_semilength + 1):
            words = list(iter_paths(n))
            expected = count_paths_reference(n)
            if len(words) != expected:
                print(f"semilength {n}: enumerator gave {len(words)} paths, reference recurrence {expected}")
                all_ok = False
            results = sorted(check_all(_verify_one, words))
            failures = [r for r in results if not all(r[1:])]
            for word, agrees, rebased_ok, positive in failures:
                flags = []
                if not agrees:
                    # a negative packed value has no digits to decode
                    where = _first_difference(word) if rebased_ok else ""
                    flags.append(f"rewrite/evaluation mismatch{where}")
                if not rebased_ok:
                    flags.append("negative or fractional (q-1)-coefficient")
                if not positive:
                    flags.append("not e-positive at q+1")
                print(f"FAIL {word}: {', '.join(flags)}{_factor_note(word)}; "
                      f"reproduce: vsllt expand --word {word}")
            status = "ok" if not failures else f"{len(failures)} FAILURES"
            print(f"semilength {n}: {len(words)} paths, {len(words) - len(failures)}/{len(words)} pass ({status})")
            total += len(words)
            all_ok = all_ok and not failures
    dt = time.perf_counter() - t0
    print(f"checked {total} paths up to semilength {args.max_semilength} in {dt:.1f}s "
          f"({total / dt:.0f} words/s): "
          + ("all checks pass" if all_ok else "FAILURES FOUND"))
    return 0 if all_ok else 1


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="vsllt",
        description="Exact e-expansion and positivity certification for vertical strip LLT polynomials.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_expand = sub.add_parser("expand", help="e-expansion and positivity certificate")
    p_expand.add_argument("--word", help="path word, compact (-0-0++) or comma-separated")
    p_expand.add_argument("--strips", help="strip tuple, 'd:h;d:h;...'")
    p_expand.add_argument("--json", action="store_true")
    p_expand.set_defaults(func=cmd_expand)

    p_path = sub.add_parser("path", help="Schröder path of a strip tuple")
    p_path.add_argument("--strips", required=True)
    p_path.add_argument("--json", action="store_true")
    p_path.set_defaults(func=cmd_path)

    p_oracle = sub.add_parser("oracle", help="tableau sum vs operator expansion")
    p_oracle.add_argument("--strips", required=True)
    p_oracle.add_argument("--nvars", type=int)
    p_oracle.add_argument("--json", action="store_true")
    p_oracle.set_defaults(func=cmd_oracle)

    p_verify = sub.add_parser("verify", help="exhaustive checks over all paths")
    p_verify.add_argument("--max-semilength", type=int, required=True)
    p_verify.add_argument("--jobs", type=int, default=1)
    p_verify.set_defaults(func=cmd_verify)

    return parser


def _glue_dash_values(argv: list[str]) -> list[str]:
    """Join '--word -0-0++' into '--word=-0-0++' so argparse does not read
    the leading-dash value as an option."""
    out = []
    i = 0
    while i < len(argv):
        tok = argv[i]
        if tok in ("--word", "--strips") and i + 1 < len(argv):
            out.append(f"{tok}={argv[i + 1]}")
            i += 2
        else:
            out.append(tok)
            i += 1
    return out


def main(argv=None) -> int:
    if argv is None:
        argv = sys.argv[1:]
    args = build_parser().parse_args(_glue_dash_values(list(argv)))
    try:
        return args.func(args)
    except (WordError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
