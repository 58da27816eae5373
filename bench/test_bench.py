"""Self-test of the benchmark, at a tiny size.

    python3 -m pytest bench/test_bench.py -q
"""

from __future__ import annotations

import json
import random
import shutil
import subprocess
import sys
from pathlib import Path

import workloads  # first: puts the checkout's src/ on sys.path

import run
import tracing
from vsllt import cli, paths

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())


def _bench(*args, cwd=ROOT):
    proc = subprocess.run(
        [sys.executable, "bench/run.py", *args], cwd=cwd, capture_output=True, text=True, timeout=600
    )
    lines = proc.stdout.splitlines()
    return proc.returncode, json.loads(lines[-1]) if lines and lines[-1].startswith("{") else None


def test_workload_names_agree():
    names = [w["name"] for w in SPEC["workloads"]]
    assert list(run.WORKLOADS) == names
    assert sorted(workloads.WORKLOADS) == sorted(names)


def test_every_end_to_end_metric_with_unit_and_no_failures():
    code, result = _bench("--workload", "all", "--seed", "1", "--seconds", "0", "--limit", "12")
    assert code == 0
    assert result["correct"] and result["failed"] == 0
    assert result["attempted"] == 3 * 12
    for w in run.WORKLOADS:
        for m in SPEC["end_to_end"]:
            got = result["metrics"][f"{w}.{m['name']}"]
            assert got["unit"] == m["unit"]
            assert got["value"] > 0


def test_traced_counts_repeat_exactly():
    args = ("--workload", "all", "--seed", "5", "--trace", "1", "--limit", "6")
    runs = [_bench(*args) for _ in range(2)]
    assert [code for code, _ in runs] == [0, 0]
    first, second = (r["metrics"] for _, r in runs)
    assert first.keys() == second.keys()
    for w in run.WORKLOADS:
        for m in SPEC["per_layer"]:
            key = f"{w}.{m['name']}"
            assert first[key]["unit"] == m["unit"]
            if m["unit"] == "count":
                assert first[key]["value"] == second[key]["value"], key
    # expand-deep never reaches the operator evaluator
    for op in ("eval_word", "op_dminus", "op_dplus", "op_phi", "op_t"):
        assert first[f"expand-deep.dyckalgebra.{op}.calls"]["value"] == 0
    assert first["verify-sweep.dyckalgebra.op_dminus.calls"]["value"] > 0
    assert first["oracle-sweep.llt.fillings"]["value"] > 0


def test_per_layer_spec_matches_tracer():
    assert sorted(m["name"] for m in SPEC["per_layer"]) == sorted(
        tracing.metric_names() + ["trace.overhead"]
    )


def test_verify_verdicts_match_cli():
    words = [w for n in range(1, 5) for w in paths.iter_paths(n)]
    words += random.Random(0).sample(list(paths.iter_paths(5)), 20)
    for w in words:
        assert workloads.verify_item(w) == cli._verify_one(w)[1:]


def test_bare_benchmark_directory_fails(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    for path in SPEC["paths"]:
        shutil.copytree(ROOT / path, tmp_path / path, ignore=shutil.ignore_patterns("out", "__pycache__"))
    code, result = _bench("--workload", "verify-sweep", "--seed", "1", "--seconds", "1", cwd=tmp_path)
    assert code != 0
    assert result is None
