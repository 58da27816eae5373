"""vsllt benchmark: run one workload, print its metrics, check its outputs.

    python3 bench/run.py --workload verify-sweep --seed 1 --seconds 30 --trace 0

A run starts passes of the workload (``workloads.py``), each a fresh process
over the same seeded inputs, for ``--seconds``, and reports metrics over the
passes (see ``end_to_end``); times are corrected for the host's speed
(see ``workloads.run_pass``).  ``--trace 1`` instead runs one untraced and one traced
pass and reports the per-layer metrics of the traced one.  The last line of
standard output is one JSON object; the exit code is 0 only if every output
was correct, and 2, with no JSON, if a pass could not run at all.
``--workload all`` runs the three workloads in turn.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
WORKLOADS = ("verify-sweep", "expand-deep", "oracle-sweep")
PASS_TIMEOUT_S = 170
TAIL_PERCENTILES = (99.9, 99, 95, 90, 75, 50)
UNITS = {
    "setup_s": "s",
    "items_per_s": "1/s",
    "item_p50_ms": "ms",
    "item_tail_ms": "ms",
    "cpu_ms_per_item": "ms",
    "peak_rss_mb": "MB",
}


class PassError(RuntimeError):
    pass


def run_pass(workload: str, seed: int, limit=None, trace_out=None) -> dict:
    cmd = [sys.executable, str(HERE / "workloads.py"), "--workload", workload, "--seed", str(seed)]
    if limit is not None:
        cmd += ["--limit", str(limit)]
    if trace_out is not None:
        cmd += ["--trace-out", str(trace_out)]
    try:
        proc = subprocess.run(cmd, capture_output=True, text=True, timeout=PASS_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        raise PassError(f"{workload} pass took longer than {PASS_TIMEOUT_S}s")
    if proc.returncode != 0:
        raise PassError(f"{workload} pass exited {proc.returncode}:\n{proc.stderr[-2000:]}")
    return json.loads(proc.stdout.splitlines()[-1])


def tail_percentile(items: int) -> float:
    """Highest percentile with at least ten items beyond it."""
    for pct in TAIL_PERCENTILES:
        if items * (100 - pct) / 100 >= 10:
            return pct
    return 50


def percentile(values: list, pct: float) -> float:
    return statistics.quantiles(values, n=1000, method="inclusive")[round(pct * 10) - 1]


def end_to_end(passes: list[dict]) -> tuple[dict, str]:
    """Metrics over the passes of one run, and a note on the tail percentile.

    Every pass times the same items in the same order, corrected for host
    speed (``workloads.run_pass``).  Each item's time is its median over the
    passes; throughput, latency percentiles and CPU time are taken over those.
    Set-up time and memory are medians over passes.
    """
    wall_ms = [statistics.median(col) for col in zip(*(p["wall_ms"] for p in passes))]
    cpu_ms = [statistics.median(col) for col in zip(*(p["cpu_ms"] for p in passes))]
    pct = tail_percentile(len(wall_ms))
    values = {
        "setup_s": statistics.median(p["setup_s"] for p in passes),
        "items_per_s": 1000 * len(wall_ms) / sum(wall_ms),
        "item_p50_ms": statistics.median(wall_ms),
        "item_tail_ms": percentile(wall_ms, pct),
        "cpu_ms_per_item": statistics.mean(cpu_ms),
        "peak_rss_mb": statistics.median(p["peak_rss_mb"] for p in passes),
    }
    beyond = round(len(wall_ms) * (100 - pct) / 100)
    note = f"p{pct:g} of {len(wall_ms)} items, {beyond} beyond it"
    return {name: {"value": v, "unit": UNITS[name]} for name, v in values.items()}, note


def measure(workload: str, seed: int, seconds: float, limit) -> tuple[dict, list[dict]]:
    """Passes until the next one would end after ``seconds``; at least one."""
    passes, durations = [], []
    start = time.perf_counter()
    while not passes or time.perf_counter() - start + statistics.median(durations) <= seconds:
        t = time.perf_counter()
        passes.append(run_pass(workload, seed, limit))
        durations.append(time.perf_counter() - t)
    metrics, note = end_to_end(passes)
    attempted = sum(p["attempted"] for p in passes)
    failed = sum(len(p["failures"]) for p in passes)
    slowdowns = sorted(p["host_slowdown"] for p in passes)
    raw_rate = statistics.median(p["attempted"] / p["raw_s"] for p in passes)
    print(f"{workload}: seed {seed}, {len(passes)} passes of {passes[0]['attempted']} items")
    print(f"  host slowdown {slowdowns[0]:.2f}-{slowdowns[-1]:.2f}x; "
          f"uncorrected items_per_s {raw_rate:.4f}")
    for name, m in metrics.items():
        extra = f"  ({note})" if name == "item_tail_ms" else ""
        print(f"  {name:<16} {m['value']:12.4f} {m['unit']}{extra}")
    print(f"  {'failed_frac':<16} {failed / attempted:12.4f}  ({failed}/{attempted})")
    return metrics, passes


def trace(workload: str, seed: int, limit) -> tuple[dict, list[dict]]:
    out_dir = HERE / "out"
    out_dir.mkdir(exist_ok=True)
    spans_file = out_dir / f"spans-{workload}-{seed}.jsonl"
    plain = run_pass(workload, seed, limit)
    traced = run_pass(workload, seed, limit, trace_out=spans_file)
    # self times get the traced pass's host-speed correction, like item times
    speed = sum(traced["wall_ms"]) / (1000 * traced["raw_s"])
    metrics = {
        name: {"value": v * speed, "unit": "s"} if name.endswith(".s") else {"value": v, "unit": "count"}
        for name, v in traced["layers"].items()
    }
    overhead = sum(traced["wall_ms"]) / sum(plain["wall_ms"])
    metrics["trace.overhead"] = {"value": overhead, "unit": "x"}
    print(f"{workload}: seed {seed}, traced pass of {traced['attempted']} items, spans in {spans_file}")
    for name, m in metrics.items():
        print(f"  {name:<36} {m['value']:14.6g} {m['unit']}")
    return metrics, [plain, traced]


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description="vsllt benchmark")
    parser.add_argument("--workload", required=True, choices=WORKLOADS + ("all",))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=30)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--limit", type=int, help="time only the first LIMIT items of a pass")
    args = parser.parse_args(argv)
    names = WORKLOADS if args.workload == "all" else (args.workload,)
    metrics, passes = {}, []
    try:
        for name in names:
            if args.trace:
                m, p = trace(name, args.seed, args.limit)
            else:
                m, p = measure(name, args.seed, args.seconds, args.limit)
            prefix = f"{name}." if args.workload == "all" else ""
            metrics.update({prefix + k: v for k, v in m.items()})
            passes += p
    except PassError as exc:
        print(f"benchmark: {exc}", file=sys.stderr)
        return 2
    failures = [f for p in passes for f in p["failures"]]
    for line in failures[:20]:
        print(f"FAIL {line}")
    result = {
        "correct": not failures,
        "attempted": sum(p["attempted"] for p in passes),
        "failed": len(failures),
        "metrics": metrics,
    }
    print(json.dumps(result))
    return 0 if not failures else 1


if __name__ == "__main__":
    sys.exit(main())
