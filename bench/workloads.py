"""The benchmark's workloads: input generation, the timed items and their checks.

Run as a script, this module is one *pass*: a fresh process that imports
vsllt from the checkout's ``src/``, generates the inputs of one workload
from a seed, times every item once, checks every output and prints one JSON
line.  ``run.py`` starts passes and aggregates them; a pass is always a fresh
process, so the program's own caches start cold, as they do for a user who
runs ``vsllt verify`` or ``vsllt expand``.

    python3 bench/workloads.py --workload verify-sweep --seed 1 [--trace-out FILE]
"""

from __future__ import annotations

import argparse
import gc
import hashlib
import json
import random
import resource
import statistics
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
REFERENCE = Path(__file__).resolve().parent / "data" / "expand_deep_ref.tsv"

# set-up time runs from here: the program's import plus input generation
SETUP_START = time.perf_counter()
sys.path.insert(0, str(SRC))
import vsllt  # noqa: E402

if Path(vsllt.__file__).resolve().parent != SRC / "vsllt":
    raise ImportError(f"vsllt imported from {vsllt.__file__}, not from {SRC}")

from vsllt import dyckalgebra, llt, paths, rewrite, symfunc  # noqa: E402

VERIFY_MAX_SEMILENGTH = 5  # all 257 words of semilength 1..5
EXPAND_SEMILENGTH = 8  # 8558 primitive words
EXPAND_SAMPLE = 48
ORACLE_LIMITS = (5, 3, range(-2, 3))  # cells, strips, bottom diagonals: 1526 tuples
ORACLE_SAMPLE = 254


# --- inputs ------------------------------------------------------------------


def is_primitive(word) -> bool:
    """True iff the path touches the main diagonal only at its two ends."""
    height = 0
    for tok in word[:-1]:
        height += tok == paths.MINUS
        height -= tok == paths.PLUS
        if height == 0:
            return False
    return True


def primitive_words(n: int) -> list:
    """Primitive words of semilength n, in ``iter_paths`` order."""
    return [w for w in paths.iter_paths(n) if is_primitive(w)]


def strip_tuples(max_cells: int, max_strips: int, diagonals) -> list:
    """Every strip tuple within the limits, sorted (acceptance criterion 6's set)."""
    out = {()}

    def rec(prefix, cells):
        for d in diagonals:
            for h in range(1, max_cells - cells + 1):
                t = prefix + ((d, h),)
                out.add(t)
                if len(t) < max_strips and cells + h < max_cells:
                    rec(t, cells + h)

    rec((), 0)
    return sorted(out)


def area(word) -> int:
    """Sum of the path's heights after each step; normalize's cost grows with it."""
    height = total = 0
    for tok in word:
        height += (tok == paths.MINUS) - (tok == paths.PLUS)
        total += height
    return total


def banded_sample(pool: list, count: int, cost_key) -> list:
    """A fixed sample: the middle element of each of ``count`` equal bands of
    the pool sorted by a cost proxy.

    Per-item cost is skewed, so a sample drawn anew for each seed would move
    a pass's total work by tens of percent; the bands keep every cost level
    in the sample.  The seed only orders the sample.
    """
    pool = sorted(pool, key=cost_key)
    stride = len(pool) // count
    return pool[stride // 2 :: stride][:count]


def verify_inputs(rng: random.Random) -> list:
    words = [w for n in range(1, VERIFY_MAX_SEMILENGTH + 1) for w in paths.iter_paths(n)]
    rng.shuffle(words)
    return words


def expand_inputs(rng: random.Random) -> list:
    # normalize's cost rises steeply with area (rank correlation 0.96 on a
    # sample; 2 ms to 6 s per word)
    words = banded_sample(primitive_words(EXPAND_SEMILENGTH), EXPAND_SAMPLE, area)
    rng.shuffle(words)
    return words


def oracle_inputs(rng: random.Random) -> list:
    pool = strip_tuples(*ORACLE_LIMITS)
    tuples = banded_sample(pool, ORACLE_SAMPLE, lambda t: (llt.cell_count(t), t))
    rng.shuffle(tuples)
    return tuples


# --- items: what one timed call does ---------------------------------------


def verify_item(word):
    """The three checks of ``vsllt verify`` on one word, as (agrees, rebased_ok, positive)."""
    n = max(paths.semilength(word), 1)
    expansion = rewrite.expand_word(word)
    in_p = symfunc.GradedSym.zero(n)
    for mu, c in expansion.items():
        in_p = in_p + symfunc.e_mu_in_p(mu, n).scale(c)
    agrees = in_p == dyckalgebra.eval_word(word, n)
    rebased_ok = all(
        all(x >= 0 and x.denominator == 1 for x in c.rebase_qminus1())
        for c in expansion.values()
    )
    positive = all(c.shift_plus_one().is_nonneg() for c in expansion.values())
    return agrees, rebased_ok, positive


def expand_item(word):
    """The ``vsllt expand`` certificate of one word."""
    return rewrite.e_positivity_report(rewrite.lincomb_to_e(rewrite.normalize(word)))


def oracle_item(strips):
    """Tableau side == operator side, in as many variables as cells."""
    nvars = max(llt.cell_count(strips), 1)
    return llt.ssyt_generating_function(strips, nvars) == llt.llt_in_vars(strips, nvars)


# --- checks, outside the timed region ----------------------------------------


def p_basis_digest(g) -> str:
    """Short digest of a symmetric function's exact p-basis coefficients."""
    text = json.dumps(g.to_json(), sort_keys=True)
    return hashlib.sha256(text.encode()).hexdigest()[:16]


def load_reference() -> dict:
    with open(REFERENCE, encoding="utf-8") as fh:
        return dict(line.split() for line in fh if line.strip())


def check_verify(words, verdicts) -> list[str]:
    failures = [
        f"{''.join(w)}: agrees={a} rebased_ok={r} positive={p}"
        for w, (a, r, p) in zip(words, verdicts)
        if not (a and r and p)
    ]
    for n in range(1, VERIFY_MAX_SEMILENGTH + 1):
        got, want = sum(1 for _ in paths.iter_paths(n)), paths.count_paths_reference(n)
        if got != want:
            failures.append(f"semilength {n}: iter_paths gave {got} words, reference {want}")
    return failures


def check_expand(words, reports) -> list[str]:
    reference = load_reference()
    n = EXPAND_SEMILENGTH
    e_in_p = {}
    failures = []
    for word, report in zip(words, reports):
        in_p = symfunc.GradedSym.zero(n)
        for mu, c in report["e"].items():
            if mu not in e_in_p:
                e_in_p[mu] = symfunc.e_mu_in_p(mu, n)
            in_p = in_p + e_in_p[mu].scale(c)
        integral = all(
            x >= 0 and x.denominator == 1 for v in report["qminus1"].values() for x in v
        )
        positive = report["e_positive"] and all(
            c.is_nonneg() for c in report["e_at_q_plus_1"].values()
        )
        matches = p_basis_digest(in_p) == reference.get("".join(word))
        if not (integral and positive and matches):
            failures.append(
                f"{''.join(word)}: integral={integral} positive={positive} "
                f"matches_eval_word={matches}"
            )
    return failures


def check_oracle(tuples, agreements) -> list[str]:
    return [
        f"{llt.render_strips(t)}: tableau side != operator side"
        for t, ok in zip(tuples, agreements)
        if not ok
    ]


# name -> (inputs from a seeded rng, one timed item, checks of all outputs)
WORKLOADS = {
    "verify-sweep": (verify_inputs, verify_item, check_verify),
    "expand-deep": (expand_inputs, expand_item, check_expand),
    "oracle-sweep": (oracle_inputs, oracle_item, check_oracle),
}


# --- host-speed correction --------------------------------------------------
#
# This host's speed drifts by up to 2x over seconds to minutes (other tenants
# share its cores), and CPU time drifts with it.  Every pass therefore runs a
# fixed calibration kernel before the first item and after each item, and
# scales each item's time by KERNEL_REF_NS over the mean of the two kernel
# times around it.  Reported times are what the item would take with the
# kernel at KERNEL_REF_NS, the kernel's time on an unloaded core of the
# reference host (Intel Xeon, 2 vCPUs, Python 3.11.7).  Over ten 40 s runs
# of verify-sweep, the quartile spread of throughput was 0.36 of the median
# uncorrected and 0.017 corrected.  The kernel uses only built-in types, so
# the program cannot change how fast it runs.  Never change the kernel
# without re-measuring KERNEL_REF_NS and the baseline.

KERNEL_REF_NS = 300_000


def calibration_kernel() -> dict:
    """Fixed work on built-in types only (no Python-level library code that
    the program also runs, whose state the program would change): integer
    polynomial products accumulated in a dict."""
    acc = {}
    a = [3 * i + 1 for i in range(8)]
    for r in range(20):
        for i, x in enumerate(a):
            for j, y in enumerate(a):
                k = (i + j, r % 3)
                acc[k] = acc.get(k, 0) + x * y
    return acc


def kernel_ns() -> int:
    """The kernel's time: the faster of two runs, without the collector."""
    gc.disable()
    try:
        best = None
        for _ in range(2):
            t = time.perf_counter_ns()
            calibration_kernel()
            t = time.perf_counter_ns() - t
            best = t if best is None else min(best, t)
        return best
    finally:
        gc.enable()


# --- one pass ----------------------------------------------------------------


def run_pass(workload: str, seed: int, setup_start: float, limit=None, tracer=None) -> dict:
    """Generate the inputs, time every item once, check every output.

    Times come back corrected for host speed, in ms per item; ``raw_s`` is
    the uncorrected total and ``host_slowdown`` the median kernel time over
    KERNEL_REF_NS.
    """
    make_inputs, item, check = WORKLOADS[workload]
    if tracer is not None:
        tracer.install()
    try:
        items = make_inputs(random.Random(seed))[:limit]
        setup_s = time.perf_counter() - setup_start
        calibration_kernel()  # warm-up
        kernels = [kernel_ns()]
        outputs, wall_ns, cpu_ns = [], [], []
        wall, cpu = time.perf_counter_ns, time.process_time_ns
        for i, x in enumerate(items):
            if tracer is not None:
                tracer.item = i
            w, c = wall(), cpu()
            outputs.append(item(x))
            wall_ns.append(wall() - w)
            cpu_ns.append(cpu() - c)
            kernels.append(kernel_ns())
    finally:
        if tracer is not None:
            tracer.uninstall()
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    failures = check(items, outputs)
    scale = [2 * KERNEL_REF_NS / (a + b) for a, b in zip(kernels, kernels[1:])]
    return {
        "setup_s": setup_s * KERNEL_REF_NS / kernels[0],
        "wall_ms": [t * f / 1e6 for t, f in zip(wall_ns, scale)],
        "cpu_ms": [t * f / 1e6 for t, f in zip(cpu_ns, scale)],
        "raw_s": sum(wall_ns) / 1e9,
        "host_slowdown": statistics.median(kernels) / KERNEL_REF_NS,
        "peak_rss_mb": peak_rss_mb,
        "attempted": len(items),
        "failures": failures,
        "layers": tracer.layer_metrics() if tracer is not None else None,
    }


def main() -> None:
    parser = argparse.ArgumentParser(description="One pass of one benchmark workload.")
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--limit", type=int, help="time only the first LIMIT items")
    parser.add_argument("--trace-out", help="trace the pass and write its spans here")
    args = parser.parse_args()
    tracer = None
    if args.trace_out:
        from tracing import Tracer

        tracer = Tracer()
    result = run_pass(args.workload, args.seed, SETUP_START, args.limit, tracer)
    if tracer is not None:
        tracer.write_spans(args.trace_out)
    print(json.dumps(result))


if __name__ == "__main__":
    main()
