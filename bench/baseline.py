"""Run every workload on several seeds and record medians and quartiles.

    python3 bench/baseline.py --seeds 10 --out bench/baseline.json

For each workload and end-to-end metric this writes the median, the first
and third quartile (``statistics.quantiles(values, n=4)``) and the spread,
the distance between the quartiles as a share of the median, next to the
metric's bound from BENCHMARK.json.  Two such files, made on the parent and
on a change with the same settings, are the before and after of a claim.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def run_once(spec: dict, workload: str, seed: int) -> dict:
    cmd = spec["command"] + [
        "--workload", workload, "--seed", str(seed),
        "--seconds", str(spec["run_seconds"]), "--trace", "0",
    ]
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=600)
    if proc.returncode != 0:
        sys.exit(f"{workload} seed {seed} exited {proc.returncode}:\n{proc.stderr[-2000:]}")
    result = json.loads(proc.stdout.splitlines()[-1])
    if not result["correct"]:
        sys.exit(f"{workload} seed {seed}: {result['failed']} failed checks")
    return result


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seeds", type=int, default=10)
    parser.add_argument("--first-seed", type=int, default=1)
    parser.add_argument("--workload", action="append", help="default: every workload")
    parser.add_argument("--out", required=True)
    args = parser.parse_args()
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    names = args.workload or [w["name"] for w in spec["workloads"]]
    seeds = list(range(args.first_seed, args.first_seed + args.seeds))
    doc = {
        "machine": {
            "python": platform.python_version(),
            "nproc": os.cpu_count(),
            "platform": platform.platform(),
        },
        "run_seconds": spec["run_seconds"],
        "seeds": seeds,
        "workloads": {},
    }
    for name in names:
        runs = [run_once(spec, name, seed) for seed in seeds]
        rows = {}
        for m in spec["end_to_end"]:
            values = [r["metrics"][m["name"]]["value"] for r in runs]
            q1, median, q3 = statistics.quantiles(values, n=4)
            rows[m["name"]] = {
                "unit": m["unit"],
                "median": median,
                "q1": q1,
                "q3": q3,
                "spread": (q3 - q1) / median,
                "bound": m["bound"],
                "values": values,
            }
            print(f"{name:<13} {m['name']:<16} median {median:10.4f} {m['unit']:<4} "
                  f"spread {rows[m['name']]['spread']:.3f} (bound {m['bound']})", flush=True)
        doc["workloads"][name] = rows
    Path(args.out).write_text(json.dumps(doc, indent=2) + "\n")


if __name__ == "__main__":
    main()
