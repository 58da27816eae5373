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
    render_word,
    semilength,
)
from .dyckalgebra import eval_in_e
from .qpoly import render_qpoly
from .rewrite import e_positivity_report, expand_word

# Largest tableau enumeration ``oracle`` starts; at about 4 us per filling
# this is a few seconds.
MAX_ORACLE_FILLINGS = 10**6

# Largest semilength ``verify`` sweeps: all 26232 words through 8 take about
# 170 s in one process (Python 3.11.7 on a 2-vCPU x86_64 host); semilength 9
# adds 103049 more words, each costlier than those at 8.
MAX_VERIFY_SEMILENGTH = 8

# Largest semilength ``expand`` rewrites.  The costliest word of semilength n
# is -^n +^n: about 10 s and 45 MB at 14, 32 s and 79 MB at 15, and roughly
# three times more per step (Python 3.11.7 on a 2-vCPU x86_64 host).
MAX_EXPAND_SEMILENGTH = 14


def _partition_key(mu) -> str:
    return json.dumps(list(mu))


def _sorted_partitions(expansion):
    return sorted(expansion, reverse=True)


def _expansion_lines(expansion) -> list[str]:
    if not expansion:
        return ["  0"]
    return [
        f"  e{list(mu)}: {render_qpoly(expansion[mu])}"
        for mu in _sorted_partitions(expansion)
    ]


def cmd_expand(args) -> int:
    if (args.word is None) == (args.strips is None):
        print("expand: give exactly one of --word or --strips", file=sys.stderr)
        return 2
    if args.word is not None:
        word = parse_word(args.word)
        strips = None
    else:
        strips = llt.parse_strips(args.strips)
        word = llt.to_schroeder_word(strips)
    n = semilength(word)
    if n > MAX_EXPAND_SEMILENGTH:
        print(
            f"expand: the word has semilength {n}, above the limit of "
            f"{MAX_EXPAND_SEMILENGTH}; use a shorter word",
            file=sys.stderr,
        )
        return 2
    report = e_positivity_report(expand_word(word))
    if args.json:
        e, shifted, rebased = report["e"], report["e_at_q_plus_1"], report["qminus1"]
        order = _sorted_partitions(e)
        doc = {
            "word": render_word(word),
            "n": n,
            "e": {_partition_key(mu): render_qpoly(e[mu]) for mu in order},
            "e_at_q_plus_1": {_partition_key(mu): render_qpoly(shifted[mu]) for mu in order},
            "qminus1": {_partition_key(mu): list(rebased[mu]) for mu in order},
            "e_positive": report["e_positive"],
        }
        if strips is not None:
            doc["strips"] = llt.render_strips(strips)
        print(json.dumps(doc, indent=2))
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
    word = llt.to_schroeder_word(strips)
    area, crosses = llt.area_and_crosses(strips)
    cross_pairs = sorted((p, r) for r, p in crosses.items())
    if args.json:
        print(
            json.dumps(
                {
                    "strips": llt.render_strips(strips),
                    "word": render_word(word, compact=False),
                    "compact": render_word(word),
                    "area": list(area),
                    "crosses": [list(c) for c in cross_pairs],
                },
                indent=2,
            )
        )
        return 0
    print(f"strips: {llt.render_strips(strips)}")
    print(f"word: {render_word(word, compact=False)}")
    print(f"compact: {render_word(word)}")
    print(f"area: {area}")
    print(f"crosses: {len(cross_pairs)} {cross_pairs}")
    return 0


def _xpoly_json(poly) -> dict:
    return {
        json.dumps(list(e)): render_qpoly(c)
        for e, c in sorted(poly.items(), reverse=True)
    }


def _xpoly_lines(poly) -> list[str]:
    if not poly:
        return ["  0"]
    lines = []
    for e, c in sorted(poly.items(), reverse=True):
        mono = "*".join(
            f"x{i + 1}" if p == 1 else f"x{i + 1}^{p}" for i, p in enumerate(e) if p
        )
        lines.append(f"  {mono or '1'}: {render_qpoly(c)}")
    return lines


def cmd_oracle(args) -> int:
    strips = llt.parse_strips(args.strips)
    nvars = args.nvars if args.nvars is not None else max(llt.cell_count(strips), 1)
    if nvars >= 1:
        fillings = prod(comb(nvars, h) for _, h in strips)
        if fillings > MAX_ORACLE_FILLINGS:
            print(
                f"oracle: {fillings} tableau fillings in {nvars} variables exceed "
                f"the limit of {MAX_ORACLE_FILLINGS}; use fewer cells or a smaller --nvars",
                file=sys.stderr,
            )
            return 2
    tableau_side = llt.ssyt_generating_function(strips, nvars)
    operator_side = llt.llt_in_vars(strips, nvars)
    match = tableau_side == operator_side
    if args.json:
        print(
            json.dumps(
                {
                    "strips": llt.render_strips(strips),
                    "nvars": nvars,
                    "tableau_side": _xpoly_json(tableau_side),
                    "operator_side": _xpoly_json(operator_side),
                    "match": match,
                },
                indent=2,
            )
        )
        return 0 if match else 1
    print(f"strips: {llt.render_strips(strips)}")
    print(f"variables: {nvars}")
    print("tableau sum:")
    print("\n".join(_xpoly_lines(tableau_side)))
    print("operator expansion:")
    print("\n".join(_xpoly_lines(operator_side)))
    print(f"match: {'yes' if match else 'NO'}")
    return 0 if match else 1


def _verify_one(word):
    """All three checks for one path word.

    Returns (compact word, agrees, rebased_ok, positive): the rewritten
    e-expansion equals direct operator evaluation in the e-basis, every
    coefficient rebases into N[q-1], and every coefficient at q+1 is
    nonnegative.  This is the one per-word check; tests call it too.
    """
    n = max(semilength(word), 1)
    report = e_positivity_report(expand_word(word))
    agrees = report["e"] == eval_in_e(word, n).terms
    rebased_ok = all(
        x >= 0 and x.denominator == 1 for vec in report["qminus1"].values() for x in vec
    )
    return render_word(word), agrees, rebased_ok, report["e_positive"]


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
                    flags.append("rewrite/evaluation mismatch")
                if not rebased_ok:
                    flags.append("negative or fractional (q-1)-coefficient")
                if not positive:
                    flags.append("not e-positive at q+1")
                print(f"FAIL {word}: {', '.join(flags)}")
            status = "ok" if not failures else f"{len(failures)} FAILURES"
            print(f"semilength {n}: {len(words)} paths, {len(words) - len(failures)}/{len(words)} pass ({status})")
            total += len(words)
            all_ok = all_ok and not failures
    dt = time.perf_counter() - t0
    print(f"checked {total} paths up to semilength {args.max_semilength} in {dt:.1f}s: "
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
